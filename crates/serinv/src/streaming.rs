//! Incremental BTA factorization for streaming temporal windows.
//!
//! The BTA structure is indexed by time (`n = n_t` diagonal blocks, one per
//! temporal slab), so a sliding observation window maps onto appending and
//! retiring *block columns*. Block Cholesky elimination proceeds strictly
//! left-to-right: factor column `i` depends only on assembled blocks with
//! column index `≤ i`, so when the window grows at the tail the leading
//! factor columns are unchanged by construction and only the trailing
//! columns need to be re-eliminated.
//!
//! ```text
//!        retained           recomputed
//!   ┌ L_00               │              ┐
//!   │ L_10  L_11         │              │   append k slices: re-eliminate
//!   │       L_21  ████   │              │   from column c0 = n_old − 1
//!   │             ████   │ ████         │   (its assembled diagonal block
//!   │                    │ ████  ████   │   carries the temporal boundary
//!   │ ████  ████  ████   │ ████  ████ █ │   condition and changes), plus
//!   └────────────────────┴──────────────┘   the whole arrow row and tip.
//! ```
//!
//! Three regions must be recomputed when `k` new slices arrive:
//!
//! 1. **Column `c0 = n_old − 1` onward.** The assembled temporal matrices
//!    (`M0`, `M1`, `M2` in `dalia-mesh`) carry boundary-modified entries at
//!    the *last* time index, so appending slices changes the previously-last
//!    assembled diagonal block. Columns `0 .. c0` are bitwise unchanged.
//! 2. **The whole arrow row.** Every observation contributes to the arrow
//!    (fixed-effect) rows, and the assembly's per-row duplicate sort is not
//!    order-stable under a growing observation list — so the arrow panels
//!    are cheaply recomputed from the new assembly against the *retained*
//!    `L_diag`/`L_sub` blocks (`O(n · a · b²)` with `a ≪ b`).
//! 3. **The tip.** It accumulates one Schur update per column.
//!
//! [`pobtaf_extend_scheduled`] performs exactly the kernel calls the cold
//! factorization [`crate::pobtaf`] would issue for the recomputed regions,
//! with bitwise-identical operands, so the extended factor is **bitwise
//! identical** to a cold full factorization of the new window — at any
//! thread count, since both run the same column loop and its forked schedule
//! only moves disjoint-output subtasks between workers. Cost is
//! `O((k + 1) b³ + n a b²)` against the cold `O(n b³)`.
//!
//! [`pobtaf_retire_scheduled`] handles the other edge of the window:
//! dropping leading block columns invalidates *every* factor column (column
//! 0's Schur complement cascades through the entire elimination), so
//! retirement is a full refactorization that recycles the factor's storage
//! in place. The streaming session layer amortizes this by retiring in
//! batches while appending incrementally.

use crate::bta::{BtaCholesky, BtaMatrix};
use crate::distributed::{factor_columns, InteriorSchedule, Lanes, PackLanes};
use crate::SerinvError;
use dalia_la::blas::{self, Side, Trans, Triangle};

/// Reusable pack-buffer lanes for the streaming kernels: one per concurrent
/// subtask of the forked column schedule, so a warm streaming session
/// allocates nothing per window update.
pub struct StreamPacks {
    lanes: PackLanes,
}

impl StreamPacks {
    /// Fresh (cold) pack lanes.
    pub fn new() -> Self {
        StreamPacks { lanes: PackLanes::default() }
    }

    // No-op kept only because `perfbench/` calls it; goes with the next benchmark change.
    #[doc(hidden)]
    pub fn invalidate_panels(&mut self) {}
}

impl Default for StreamPacks {
    fn default() -> Self {
        Self::new()
    }
}

/// Extend a BTA Cholesky factor in place to a window that grew by trailing
/// block columns, re-factorizing only the affected region.
///
/// `factor` must hold the factor of the *old* window (its leading
/// `n_old − 1` diagonal columns and sub-diagonal blocks are retained
/// verbatim), and `a_new` the newly assembled matrix of the *new* window:
/// same `b` and `a`, `a_new.n > n_old`, and assembled diagonal blocks
/// `0 .. n_old − 1` and sub-diagonal blocks `0 .. n_old − 2` bitwise equal
/// to the old window's (which the temporal assembly guarantees — only the
/// boundary block changes). The arrow row, tip, and everything from column
/// `n_old − 1` may differ arbitrarily.
///
/// `packs` carries warm pack lanes across updates. The result is bitwise
/// identical to `pobtaf(a_new)` under either [`InteriorSchedule`];
/// `Stealable` forks the disjoint-output subtasks of each recomputed column
/// onto the pool, as the reduced system of [`crate::d_pobtaf`] does.
pub fn pobtaf_extend_scheduled(
    factor: &mut BtaCholesky,
    a_new: &BtaMatrix,
    packs: &mut StreamPacks,
    sched: InteriorSchedule,
) -> Result<(), SerinvError> {
    let m = &mut factor.blocks;
    assert_eq!(
        (m.b, m.a),
        (a_new.b, a_new.a),
        "pobtaf_extend: block structure mismatch between factor and new window"
    );
    let n_old = m.n;
    let n_new = a_new.n;
    assert!(n_old >= 1, "pobtaf_extend: the old factor must have at least one block column");
    assert!(n_new > n_old, "pobtaf_extend: the new window must add at least one block column");
    let c0 = n_old - 1;
    let has_arrow = m.a > 0;
    let mut lanes = Lanes::new(&mut packs.lanes, sched, m.b, n_new - c0);

    // Grow the factor storage and overwrite the recomputed region with the
    // newly assembled values; columns 0 .. c0 keep their factor values.
    for i in c0..n_new {
        if i < n_old {
            m.diag[i].as_mut_slice().copy_from_slice(a_new.diag[i].as_slice());
        } else {
            m.diag.push(a_new.diag[i].clone());
        }
    }
    for i in (n_old - 1)..(n_new - 1) {
        m.sub.push(a_new.sub[i].clone());
    }
    for i in 0..n_new {
        if i < n_old {
            m.arrow[i].as_mut_slice().copy_from_slice(a_new.arrow[i].as_slice());
        } else {
            m.arrow.push(a_new.arrow[i].clone());
        }
    }
    m.tip.as_mut_slice().copy_from_slice(a_new.tip.as_slice());
    m.n = n_new;

    // Recompute the arrow panels of the retained columns against the
    // retained L_diag / L_sub, replaying the cold kernel sequence for each:
    // C_i -= L_{T,i-1} L_{i,i-1}ᵀ, then C_i := C_i L_ii^{-ᵀ}, then the tip
    // update T -= C_i C_iᵀ — operands bitwise equal to the cold loop's.
    if has_arrow {
        for i in 0..c0 {
            if i > 0 {
                let (head, tail) = m.arrow.split_at_mut(i);
                blas::gemm_with(
                    lanes.main(),
                    Trans::No,
                    Trans::Yes,
                    -1.0,
                    &head[i - 1],
                    &m.sub[i - 1],
                    1.0,
                    &mut tail[0],
                );
            }
            blas::trsm_with(
                lanes.main(),
                Side::Right,
                Triangle::Lower,
                Trans::Yes,
                &m.diag[i],
                &mut m.arrow[i],
            );
            blas::syrk_full_with(lanes.main(), Trans::No, -1.0, &m.arrow[i], 1.0, &mut m.tip);
        }
    }

    // Replay the last retained column's trailing updates onto the first
    // recomputed column (what cold column c0 − 1 contributed to column c0).
    if c0 > 0 {
        let (sub_head, _) = m.sub.split_at(c0);
        let b_prev = &sub_head[c0 - 1];
        let (_, diag_tail) = m.diag.split_at_mut(c0);
        blas::syrk_full_with(lanes.main(), Trans::No, -1.0, b_prev, 1.0, &mut diag_tail[0]);
        if has_arrow {
            let (arrow_head, arrow_tail) = m.arrow.split_at_mut(c0);
            blas::gemm_with(
                lanes.main(),
                Trans::No,
                Trans::Yes,
                -1.0,
                &arrow_head[c0 - 1],
                b_prev,
                1.0,
                &mut arrow_tail[0],
            );
        }
    }

    factor_columns(m, c0, &mut lanes, None)
}

/// Retire leading block columns: refactorize `a_new` (the assembled matrix
/// of the shrunk window) into `factor` in place, recycling its storage.
///
/// Unlike the append edge, retiring the *head* of the window invalidates
/// every factor column — column 0's Schur complement feeds column 1's, and
/// so on through the entire elimination — so there is no trailing-block
/// shortcut and this is a full refactorization. It exists so a streaming
/// session keeps one factor allocation (and one set of pack lanes) alive
/// across the whole append/retire lifecycle, and so retirement cost can be
/// amortized over many cheap [`pobtaf_extend_scheduled`] updates.
///
/// The result is bitwise identical to `pobtaf(a_new)` under either
/// [`InteriorSchedule`].
pub fn pobtaf_retire_scheduled(
    factor: &mut BtaCholesky,
    a_new: &BtaMatrix,
    packs: &mut StreamPacks,
    sched: InteriorSchedule,
) -> Result<(), SerinvError> {
    let m = &mut factor.blocks;
    assert_eq!(
        (m.b, m.a),
        (a_new.b, a_new.a),
        "pobtaf_retire: block structure mismatch between factor and new window"
    );
    assert!(
        a_new.n <= m.n,
        "pobtaf_retire: the new window must not be larger than the factor \
         (use pobtaf_extend_scheduled)"
    );
    // Shrink the storage to the new window, keeping the allocations of the
    // surviving blocks, then overwrite with the new assembled values.
    m.diag.truncate(a_new.n);
    m.sub.truncate(a_new.n.saturating_sub(1));
    m.arrow.truncate(a_new.n);
    m.n = a_new.n;
    m.copy_values_from(a_new);

    factor_columns(m, 0, &mut Lanes::new(&mut packs.lanes, sched, a_new.b, a_new.n), None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::STEAL_MIN_BLOCK;
    use crate::sequential::pobtaf;
    use crate::testing::test_matrix;
    use dalia_la::Matrix;

    fn assert_factor_bits_eq(a: &BtaCholesky, b: &BtaCholesky, tag: &str) {
        let (x, y) = (&a.blocks, &b.blocks);
        assert_eq!((x.n, x.b, x.a), (y.n, y.b, y.a), "{tag}: structure");
        let pairs = |u: &Matrix, v: &Matrix, what: &str| {
            for (i, (p, q)) in u.as_slice().iter().zip(v.as_slice()).enumerate() {
                assert_eq!(p.to_bits(), q.to_bits(), "{tag}: {what} entry {i}: {p} vs {q}");
            }
        };
        for (k, (u, v)) in x.diag.iter().zip(&y.diag).enumerate() {
            pairs(u, v, &format!("diag[{k}]"));
        }
        for (k, (u, v)) in x.sub.iter().zip(&y.sub).enumerate() {
            pairs(u, v, &format!("sub[{k}]"));
        }
        for (k, (u, v)) in x.arrow.iter().zip(&y.arrow).enumerate() {
            pairs(u, v, &format!("arrow[{k}]"));
        }
        pairs(&x.tip, &y.tip, "tip");
    }

    /// The old window's assembled matrix: leading diagonal and sub-diagonal
    /// blocks bitwise equal to the new window's (what the temporal assembly
    /// guarantees), but a different boundary block, arrow row and tip — the
    /// regions `pobtaf_extend` must recompute from `a_new`.
    fn old_window_of(a_new: &BtaMatrix, n_old: usize) -> BtaMatrix {
        let mut old = BtaMatrix::zeros(n_old, a_new.b, a_new.a);
        for i in 0..n_old {
            old.diag[i] = a_new.diag[i].clone();
        }
        // The old boundary block differs (temporal Neumann condition).
        for i in 0..a_new.b {
            old.diag[n_old - 1][(i, i)] += 0.75;
        }
        for i in 0..n_old - 1 {
            old.sub[i] = a_new.sub[i].clone();
        }
        // The arrow row and tip of the old window differ arbitrarily.
        let other = test_matrix(n_old, a_new.b, a_new.a, 91);
        old.arrow = other.arrow.clone();
        old.tip = other.tip.clone();
        old
    }

    #[test]
    fn extend_matches_cold_factorization_bitwise() {
        let mut packs = StreamPacks::new();
        for (n_old, n_new, b, a) in [(4, 5, 3, 2), (4, 7, 3, 2), (1, 3, 2, 1), (3, 5, 2, 0)] {
            let a_new = test_matrix(n_new, b, a, 11);
            let a_old = old_window_of(&a_new, n_old);
            let mut f = pobtaf(&a_old).unwrap();
            pobtaf_extend_scheduled(&mut f, &a_new, &mut packs, InteriorSchedule::Stealable)
                .unwrap();
            let cold = pobtaf(&a_new).unwrap();
            assert_factor_bits_eq(&f, &cold, &format!("extend {n_old}->{n_new} b={b} a={a}"));
        }
    }

    #[test]
    fn repeated_extends_match_cold_each_step() {
        let (b, a) = (3, 2);
        let full = test_matrix(8, b, a, 23);
        let window_at = |n: usize| {
            let mut w = BtaMatrix::zeros(n, b, a);
            for i in 0..n {
                w.diag[i] = full.diag[i].clone();
            }
            for i in 0..w.b {
                w.diag[n - 1][(i, i)] += 0.5; // boundary block of this window
            }
            for i in 0..n - 1 {
                w.sub[i] = full.sub[i].clone();
            }
            let other = test_matrix(n, b, a, 40 + n as u64);
            w.arrow = other.arrow.clone();
            w.tip = other.tip.clone();
            w
        };
        let mut f = pobtaf(&window_at(3)).unwrap();
        let mut packs = StreamPacks::new();
        for n in 4..=8 {
            let w = window_at(n);
            pobtaf_extend_scheduled(&mut f, &w, &mut packs, InteriorSchedule::Stealable).unwrap();
            let cold = pobtaf(&w).unwrap();
            assert_factor_bits_eq(&f, &cold, &format!("k=1 extend to n={n}"));
        }
    }

    #[test]
    fn retire_matches_cold_factorization_bitwise() {
        let big = test_matrix(7, 3, 2, 3);
        let small = test_matrix(4, 3, 2, 57);
        let mut f = pobtaf(&big).unwrap();
        let mut packs = StreamPacks::new();
        pobtaf_retire_scheduled(&mut f, &small, &mut packs, InteriorSchedule::Stealable).unwrap();
        let cold = pobtaf(&small).unwrap();
        assert_factor_bits_eq(&f, &cold, "retire 7->4");
        // And the retired factor can be extended again (full lifecycle).
        let grown = test_matrix(6, 3, 2, 57);
        let mut a_new = grown.clone();
        for i in 0..4 {
            a_new.diag[i] = small.diag[i].clone();
        }
        for i in 0..3 {
            a_new.sub[i] = small.sub[i].clone();
        }
        // Undo the boundary delta convention: here the "old" boundary block
        // equals the new assembly's, which pobtaf_extend also supports (it
        // overwrites column c0 from a_new regardless).
        pobtaf_extend_scheduled(&mut f, &a_new, &mut packs, InteriorSchedule::Stealable).unwrap();
        let cold2 = pobtaf(&a_new).unwrap();
        assert_factor_bits_eq(&f, &cold2, "extend after retire 4->6");
    }

    #[test]
    fn scheduled_extend_is_bitwise_identical_across_thread_counts() {
        // Blocks above the fork cutoff so the stealable schedule actually
        // splits; 1-thread and 4-thread results must agree bitwise with the
        // sequential cold factorization.
        let (n_old, n_new, b, a) = (3, 5, STEAL_MIN_BLOCK, 4);
        let a_new = test_matrix(n_new, b, a, 13);
        let a_old = old_window_of(&a_new, n_old);
        let cold = pobtaf(&a_new).unwrap();
        for threads in [1usize, 4] {
            let pool = dalia_pool::ThreadPool::new(threads);
            let mut f = pobtaf(&a_old).unwrap();
            pool.install(|| {
                let mut packs = StreamPacks::new();
                pobtaf_extend_scheduled(&mut f, &a_new, &mut packs, InteriorSchedule::Stealable)
            })
            .unwrap();
            assert_factor_bits_eq(&f, &cold, &format!("threads={threads}"));
        }
    }

    #[test]
    fn extend_reuses_leading_allocations() {
        let a_new = test_matrix(6, 3, 2, 11);
        let a_old = old_window_of(&a_new, 4);
        let mut f = pobtaf(&a_old).unwrap();
        let before: Vec<*const f64> = f.blocks.diag.iter().map(|m| m.as_slice().as_ptr()).collect();
        let mut packs = StreamPacks::new();
        pobtaf_extend_scheduled(&mut f, &a_new, &mut packs, InteriorSchedule::Stealable).unwrap();
        for (i, &p) in before.iter().enumerate() {
            assert_eq!(p, f.blocks.diag[i].as_slice().as_ptr(), "diag[{i}] was reallocated");
        }
    }
}
