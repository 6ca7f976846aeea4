//! Distributed (time-domain partitioned) BTA solver routines.
//!
//! These implement the nested-dissection scheme used by the Serinv library and
//! by the paper's new `PPOBTAS` distributed triangular solve: the time domain
//! is split into `P` contiguous partitions; the *interior* blocks of every
//! partition are eliminated independently (and in parallel), producing Schur
//! complement contributions onto the *separator* blocks (the last block of
//! each partition) and the arrow tip. The resulting *reduced system* is again
//! a BTA matrix with `P−1` diagonal blocks; back-substitution and selected
//! inversion then proceed independently per partition again.
//!
//! In the original framework each partition lives on its own GPU and the
//! reduced system is gathered with NCCL; here partitions are tasks on the
//! work-stealing pool (`dalia-pool`, reached through the vendored `rayon`
//! shim's `par_iter`): each partition splits adaptively across the pool's
//! workers, and idle workers steal the still-queued partitions, so
//! load-imbalanced partitionings no longer serialize on the unluckiest
//! worker. This preserves the algorithmic structure (work split,
//! reduced-system bottleneck, load imbalance) while the cluster-level
//! behaviour is captured by the performance model in `dalia-hpc`. Large
//! reduced-system `gemm` trailing updates additionally fan out column panels
//! on the same pool inside `dalia_la::blas` — bitwise-identically to the
//! sequential kernels, so the distributed results stay independent of the
//! worker count.
//!
//! # Stealable partition interiors
//!
//! Since pool v2 a partition interior is no longer one indivisible task:
//! [`d_pobtaf`], [`d_pobtas`] and [`d_pobtasi`] express the per-column DAG of
//! every interior block column as `join`-structured subtasks
//! ([`InteriorSchedule::Stealable`]). In the factorization the diagonal
//! `potrf` stays on the critical path, then the three independent `trsm`
//! solves against `L_jjᵀ` (sub-diagonal coupling, left-separator fill `W`,
//! arrow panel `C`) fork as one join group, and the Schur accumulation /
//! next-column propagation (which touch disjoint output blocks) fork as a
//! second. The solve forks the three separator/tip right-hand-side
//! accumulations per column, and the selected inversion forks the three
//! independent selected-inverse columns (`Σ_{ls,j}`, `Σ_{j+1,j}`/`Σ_{rs,j}`,
//! `Σ_{T,j}`) between the `L_jj⁻¹` solve and the diagonal recovery. Each
//! subtask owns a dedicated [`PackBuffer`] lane so the packed micro-kernels
//! never contend for workspace. An idle worker can therefore steal *inside*
//! a single huge partition — the skewed 1-big/N-tiny layout that used to
//! serialize the whole S3 fan-out now scales (see `pool_bench`'s
//! skewed-partition scenario and the watchdogged stress test in
//! `crates/hpc/tests/pool_stress.rs`).
//!
//! Splitting changes only *where* each block operation runs, never its
//! operand values or kernel call sequence, so the factors, solutions and
//! selected inverses are **bitwise identical** to the
//! [`InteriorSchedule::Indivisible`] baseline and to a 1-thread run — pinned
//! by the `*_bitwise_match_indivisible` tests below and by the
//! parallel-vs-sequential session proptest in `tests/session_reuse.rs`.
//!
//! # The reduced system is no longer sequential
//!
//! Two stages of the pipeline used to run on one worker regardless of `P`:
//!
//! * **Schur assembly** is a *tree reduction*: per-partition
//!   `SchurContribution`s merge pairwise along a fixed binary tree
//!   (contiguous partition ranges split at their midpoint, left half always
//!   accumulated before the right). The pairing order is a function of `P`
//!   alone, so the assembled reduced matrix is bitwise independent of the
//!   worker count and of whether the merge ran forked or inline.
//! * **Reduced-system factorization** runs through [`pobtaf_parallel`]: the
//!   right-looking trailing updates of each reduced block column (the
//!   `trsm` pair, then the `syrk`/`gemm`/`syrk` Schur and arrow updates)
//!   fork as join groups with per-subtask [`PackBuffer`] lanes, exactly
//!   like the stealable interiors. Tiny reduced systems (`b` below the
//!   fork cutoff, or a 1-thread pool) fall back to the sequential
//!   [`pobtaf`] kernel; either way the factor is bitwise identical to it.
//!
//! The three phases mirror their sequential counterparts and compute the same
//! paper quantities (`log |Q|`, `Q⁻¹ r`, `diag(Q⁻¹)`):
//!
//! 1. **`d_pobtaf`** — per-partition interior elimination (parallel), a
//!    tree-reduced Schur assembly onto the separators/tip, then a parallel
//!    `pobtaf` of the reduced `(P−1)`-block BTA system — formerly the
//!    sequential scalability bottleneck the paper's Fig. 5 measures.
//! 2. **`d_pobtas`** — parallel forward substitution on the interiors (with
//!    forked separator/tip accumulations per column), the reduced-system
//!    solve, and a parallel backward pass (with the carried sub-diagonal
//!    term and the separator/tip back-couplings forked per column).
//! 3. **`d_pobtasi`** — selected inversion of the reduced system followed by
//!    an independent backward sweep per partition (pure `trsm`/`syrk`/`gemm`
//!    block work), the three selected-inverse columns forked per block
//!    column.
//!
//! Every parallel closure owns a private [`PackBuffer`], so the packed
//! micro-kernels in `dalia_la::blas` never contend for workspace across
//! partitions; the buffer is reused across all block columns of that
//! partition.

use crate::bta::{BtaCholesky, BtaMatrix};
use crate::partition::Partitioning;
use crate::sequential::{pobtaf, pobtas, pobtasi, BtaSelectedInverse};
use crate::SerinvError;
use dalia_la::blas::{self, PackBuffer, Side, Trans, Triangle};
use dalia_la::{chol, Matrix};
use rayon::prelude::*;

/// Per-partition blocks of the distributed Cholesky factor.
#[derive(Clone, Debug)]
pub struct PartitionFactor {
    /// Partition index.
    pub p: usize,
    /// Global half-open range `[s, e)` of interior blocks.
    pub interior: (usize, usize),
    /// `L_jj` for every interior block.
    pub l_diag: Vec<Matrix>,
    /// `L_{j+1,j}` between consecutive interior blocks.
    pub l_sub: Vec<Matrix>,
    /// `L_{ls,j}` coupling to the left separator (empty for partition 0).
    pub l_left: Vec<Matrix>,
    /// `L_{rs, e-1}` coupling of the last interior block to the right
    /// separator (absent for the last partition or empty interiors).
    pub l_right: Option<Matrix>,
    /// `L_{T,j}` arrow coupling for every interior block.
    pub l_arrow: Vec<Matrix>,
}

/// Schur-complement contribution of one partition onto the reduced system.
#[derive(Clone, Debug)]
struct SchurContribution {
    p: usize,
    /// Update to the left-separator diagonal block.
    s_ll: Option<Matrix>,
    /// Update to the right-separator diagonal block.
    s_rr: Option<Matrix>,
    /// Update to the (right-separator, left-separator) coupling block.
    s_rl: Option<Matrix>,
    /// Update to the (tip, left-separator) arrow block.
    s_al: Option<Matrix>,
    /// Update to the (tip, right-separator) arrow block.
    s_ar: Option<Matrix>,
    /// Update to the arrow tip.
    s_tt: Matrix,
}

/// Distributed BTA Cholesky factorization.
#[derive(Clone, Debug)]
pub enum DistBtaCholesky {
    /// Trivial case `P = 1`: the sequential factorization.
    Sequential(BtaCholesky),
    /// Genuine partitioned factorization.
    Partitioned {
        /// Block structure `(n, b, a)` of the factorized matrix.
        structure: (usize, usize, usize),
        /// The time-domain partitioning.
        partitioning: Partitioning,
        /// Per-partition interior factors.
        partitions: Vec<PartitionFactor>,
        /// Factorized reduced system over the separators + tip.
        reduced: BtaCholesky,
    },
}

impl DistBtaCholesky {
    /// Log-determinant of the factorized matrix.
    ///
    /// Like [`BtaCholesky::logdet`], a zero, negative or non-finite factor
    /// diagonal entry is reported as [`SerinvError::IndefiniteLogdet`]
    /// (with the block index in the *global* time-block numbering) instead
    /// of silently contributing NaN to the objective.
    pub fn logdet(&self) -> Result<f64, SerinvError> {
        match self {
            DistBtaCholesky::Sequential(f) => f.logdet(),
            DistBtaCholesky::Partitioned { partitions, reduced, .. } => {
                let mut s = 0.0;
                for pf in partitions {
                    for (j, d) in pf.l_diag.iter().enumerate() {
                        for i in 0..d.nrows() {
                            let v = d[(i, i)];
                            if !(v > 0.0) || !v.is_finite() {
                                return Err(SerinvError::IndefiniteLogdet {
                                    block: pf.interior.0 + j,
                                    index: i,
                                    value: v,
                                });
                            }
                            s += v.ln();
                        }
                    }
                }
                Ok(2.0 * s + reduced.logdet()?)
            }
        }
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        match self {
            DistBtaCholesky::Sequential(_) => 1,
            DistBtaCholesky::Partitioned { partitioning, .. } => partitioning.num_partitions(),
        }
    }
}

/// How [`d_pobtaf`] schedules the interior elimination of each partition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum InteriorSchedule {
    /// Split every interior block column into `join`-structured pool
    /// subtasks (independent `trsm` solves, then Schur accumulation and
    /// next-column propagation), each with a dedicated [`PackBuffer`] lane —
    /// idle workers can steal work *inside* a single large partition. The
    /// default; bitwise identical to [`InteriorSchedule::Indivisible`].
    #[default]
    Stealable,
    /// Eliminate each partition interior as one sequential task (the pool v1
    /// behaviour). Kept as the measurable baseline for `pool_bench`'s
    /// skewed-partition scenario and as the no-overhead path for callers
    /// that pin one partition per worker.
    Indivisible,
}

/// Below this diagonal block size the column subtasks are too small to repay
/// the fork overhead (a `trsm` at `b = 48` is a few microseconds), so the
/// stealable schedule falls back to the sequential column step. Scheduling
/// only — results are bitwise identical either way.
pub(crate) const STEAL_MIN_BLOCK: usize = 48;

/// Dedicated pack-buffer lanes for the stealable interior elimination: one
/// per concurrent `join` subtask, reused across all block columns of the
/// partition, so the packed micro-kernels never contend for workspace and a
/// warm partition task allocates nothing per column.
pub(crate) struct InteriorPacks {
    /// Critical path (`potrf`) + sub-diagonal `trsm` + `D_{j+1}` propagation.
    pub(crate) diag: PackBuffer,
    /// Left-separator fill `trsm` + `W_{j+1}`/`C_{j+1}` propagation.
    pub(crate) left: PackBuffer,
    /// Arrow-panel `trsm`.
    pub(crate) arrow: PackBuffer,
    /// Schur accumulation onto the reduced system.
    pub(crate) schur: PackBuffer,
}

impl InteriorPacks {
    pub(crate) fn new() -> Self {
        InteriorPacks {
            diag: PackBuffer::new(),
            left: PackBuffer::new(),
            arrow: PackBuffer::new(),
            schur: PackBuffer::new(),
        }
    }
}

/// Run three independent subtasks of one column step, either as a
/// `join`-structured fork (stealable by idle pool workers) or inline. The
/// subtasks write disjoint outputs, so the fork changes scheduling only.
pub(crate) fn run3(
    split: bool,
    f: impl FnOnce() + Send,
    g: impl FnOnce() + Send,
    h: impl FnOnce() + Send,
) {
    if split {
        dalia_pool::join(f, || {
            dalia_pool::join(g, h);
        });
    } else {
        f();
        g();
        h();
    }
}

/// Two-subtask variant of [`run3`] for column steps with only a pair of
/// independent lanes (the reduced-system `trsm` pair, the solve's carried /
/// external update split).
pub(crate) fn run2(split: bool, f: impl FnOnce() + Send, g: impl FnOnce() + Send) {
    if split {
        dalia_pool::join(f, g);
    } else {
        f();
        g();
    }
}

/// Eliminate block columns `start .. n` of `m` in place (plus the arrow
/// tip), assuming columns `0 .. start` already hold factor values and the
/// working blocks of column `start` carry all Schur updates from them.
///
/// With `split == false` this issues exactly the kernel sequence of the
/// sequential `factor_in_place` loop; with `split == true` it forks the
/// disjoint-output subtasks of each column as pool join groups (the schedule
/// [`pobtaf_parallel`] documents) — the kernel calls and operands are
/// identical either way, so the factors match bitwise. [`pobtaf_parallel`]
/// runs it over every column, the streaming kernels over the trailing ones.
pub(crate) fn factor_columns(
    m: &mut BtaMatrix,
    start: usize,
    packs: &mut InteriorPacks,
    split: bool,
) -> Result<(), SerinvError> {
    let n = m.n;
    let has_arrow = m.a > 0;
    for i in start..n {
        // D_i = L_ii L_iiᵀ — the critical path of the column.
        chol::potrf_with(&mut packs.diag, &mut m.diag[i])
            .map_err(|e| SerinvError::Factorization { block: i, source: e })?;

        // B_i := B_i L_ii⁻ᵀ ∥ C_i := C_i L_ii⁻ᵀ (disjoint outputs).
        {
            let InteriorPacks { diag: pk_diag, arrow: pk_arrow, .. } = packs;
            let l_ii = &m.diag[i];
            let sub_rhs = if i + 1 < n { Some(&mut m.sub[i]) } else { None };
            let arrow_rhs = if has_arrow { Some(&mut m.arrow[i]) } else { None };
            run2(
                split,
                move || {
                    if let Some(bi) = sub_rhs {
                        blas::trsm_with(pk_diag, Side::Right, Triangle::Lower, Trans::Yes, l_ii, bi);
                    }
                },
                move || {
                    if let Some(ci) = arrow_rhs {
                        blas::trsm_with(pk_arrow, Side::Right, Triangle::Lower, Trans::Yes, l_ii, ci);
                    }
                },
            );
        }

        // Trailing updates: D_{i+1}, C_{i+1} and the tip are disjoint.
        {
            let InteriorPacks { diag: pk_diag, left: pk_left, schur: pk_schur, .. } = packs;
            let (_, diag_tail) = m.diag.split_at_mut(i + 1);
            let arrow_mid = (i + 1).min(m.arrow.len());
            let (arrow_head, arrow_tail) = m.arrow.split_at_mut(arrow_mid);
            let b_i = if i + 1 < n { Some(&m.sub[i]) } else { None };
            let c_i = if has_arrow { Some(&arrow_head[i]) } else { None };
            let next_diag = if i + 1 < n { Some(&mut diag_tail[0]) } else { None };
            let next_arrow = if has_arrow && i + 1 < n { Some(&mut arrow_tail[0]) } else { None };
            let tip = if has_arrow { Some(&mut m.tip) } else { None };
            run3(
                split,
                move || {
                    if let (Some(nd), Some(bi)) = (next_diag, b_i) {
                        blas::syrk_full_with(pk_diag, Trans::No, -1.0, bi, 1.0, nd);
                    }
                },
                move || {
                    if let (Some(na), Some(ci), Some(bi)) = (next_arrow, c_i, b_i) {
                        blas::gemm_with(pk_left, Trans::No, Trans::Yes, -1.0, ci, bi, 1.0, na);
                    }
                },
                move || {
                    if let (Some(t), Some(ci)) = (tip, c_i) {
                        blas::syrk_full_with(pk_schur, Trans::No, -1.0, ci, 1.0, t);
                    }
                },
            );
        }
    }
    if has_arrow {
        chol::potrf_with(&mut packs.diag, &mut m.tip)
            .map_err(|e| SerinvError::Factorization { block: n, source: e })?;
    }
    Ok(())
}

/// Interior elimination of one partition. Returns the partition factor and its
/// Schur contribution to the reduced system.
///
/// With [`InteriorSchedule::Stealable`] the per-column trailing-update DAG is
/// forked into pool subtasks (see the module docs); the kernel calls and
/// their operands are identical in both schedules, so the factors match
/// bitwise.
fn factor_partition(
    a: &BtaMatrix,
    part: &Partitioning,
    p: usize,
    sched: InteriorSchedule,
) -> Result<(PartitionFactor, SchurContribution), SerinvError> {
    let (s, e) = part.interior(p);
    let num_parts = part.num_partitions();
    let b = a.b;
    let aa = a.a;
    let has_left = p > 0;
    let has_right = p + 1 < num_parts;
    let has_arrow = aa > 0;
    let split = sched == InteriorSchedule::Stealable
        && b >= STEAL_MIN_BLOCK
        && dalia_pool::current_num_threads() > 1;

    let len = e.saturating_sub(s);
    let mut l_diag = Vec::with_capacity(len);
    let mut l_sub = Vec::with_capacity(len.saturating_sub(1));
    let mut l_left = Vec::with_capacity(if has_left { len } else { 0 });
    let mut l_arrow = Vec::with_capacity(len);
    let mut l_right = None;

    let mut packs = InteriorPacks::new();
    let mut s_ll = if has_left { Some(Matrix::zeros(b, b)) } else { None };
    let mut s_rr = if has_right { Some(Matrix::zeros(b, b)) } else { None };
    let mut s_rl = if has_left && has_right { Some(Matrix::zeros(b, b)) } else { None };
    let mut s_al = if has_left { Some(Matrix::zeros(aa, b)) } else { None };
    let mut s_ar = if has_right { Some(Matrix::zeros(aa, b)) } else { None };
    let mut s_tt = Matrix::zeros(aa, aa);

    // Working copies of the current column's blocks.
    let mut diag_work = if len > 0 { a.diag[s].clone() } else { Matrix::zeros(0, 0) };
    // Coupling of the first interior block to the left separator: Qᵀ of the
    // original sub-diagonal block B_{s-1} (the entry sits in the interior
    // column because the separator is eliminated later).
    let mut left_work = if has_left && len > 0 { Some(a.sub[s - 1].transpose()) } else { None };
    let mut arrow_work = if len > 0 { a.arrow[s].clone() } else { Matrix::zeros(aa, 0) };

    for j in s..e {
        let is_last = j + 1 == e;
        // Factorize the diagonal block — the critical path of the column.
        chol::potrf_with(&mut packs.diag, &mut diag_work)
            .map_err(|err| SerinvError::Factorization { block: j, source: err })?;
        let l_jj = diag_work.clone();

        // Off-diagonal couplings of this column, divided by L_jjᵀ on the
        // right: three independent solves, forked as the first subtask group
        // (`b_j` and `r_j` are mutually exclusive, so lane one solves
        // whichever exists).
        let mut b_j = if !is_last { Some(a.sub[j].clone()) } else { None };
        let mut r_j = if is_last && has_right { Some(a.sub[j].clone()) } else { None };
        {
            let InteriorPacks { diag: pk_diag, left: pk_left, arrow: pk_arrow, .. } = &mut packs;
            let l = &l_jj;
            let sub_rhs = b_j.as_mut().or(r_j.as_mut());
            let left_rhs = left_work.as_mut();
            let arrow_rhs = if has_arrow { Some(&mut arrow_work) } else { None };
            run3(
                split,
                move || {
                    if let Some(m) = sub_rhs {
                        blas::trsm_with(pk_diag, Side::Right, Triangle::Lower, Trans::Yes, l, m);
                    }
                },
                move || {
                    if let Some(w) = left_rhs {
                        blas::trsm_with(pk_left, Side::Right, Triangle::Lower, Trans::Yes, l, w);
                    }
                },
                move || {
                    if let Some(c) = arrow_rhs {
                        blas::trsm_with(pk_arrow, Side::Right, Triangle::Lower, Trans::Yes, l, c);
                    }
                },
            );
        }
        let w_j = left_work.clone();
        let c_j = arrow_work.clone();

        // Second subtask group: Schur accumulation onto the reduced system
        // and propagation to the next interior column. The three lanes write
        // disjoint outputs (the `s_*` accumulators; `D_{j+1}`;
        // `W_{j+1}`/`C_{j+1}`) and only share read-only inputs.
        let mut next_diag = if !is_last { Some(a.diag[j + 1].clone()) } else { None };
        // W_{j+1} = -W_j B_jᵀ starts from zeros (no original coupling for
        // j+1 > s); C_{j+1} starts from the original arrow block.
        let mut next_left =
            if !is_last && w_j.is_some() { Some(Matrix::zeros(b, b)) } else { None };
        let mut next_arrow = if !is_last { Some(a.arrow[j + 1].clone()) } else { None };
        {
            let InteriorPacks { diag: pk_diag, left: pk_left, schur: pk_schur, .. } = &mut packs;
            let (s_ll, s_rr, s_rl, s_al, s_ar, s_tt) =
                (&mut s_ll, &mut s_rr, &mut s_rl, &mut s_al, &mut s_ar, &mut s_tt);
            let (b_j, r_j, w_j, c_j) = (&b_j, &r_j, &w_j, &c_j);
            let (next_diag, next_left, next_arrow) =
                (&mut next_diag, &mut next_left, &mut next_arrow);
            run3(
                split,
                move || {
                    // Schur updates onto the reduced system.
                    if let (Some(sll), Some(w)) = (s_ll.as_mut(), w_j.as_ref()) {
                        blas::syrk_full_with(pk_schur, Trans::No, 1.0, w, 1.0, sll);
                    }
                    if has_arrow {
                        if let (Some(sal), Some(w)) = (s_al.as_mut(), w_j.as_ref()) {
                            blas::gemm_with(pk_schur, Trans::No, Trans::Yes, 1.0, c_j, w, 1.0, sal);
                        }
                        blas::syrk_full_with(pk_schur, Trans::No, 1.0, c_j, 1.0, s_tt);
                    }
                    if is_last {
                        if let (Some(srr), Some(r)) = (s_rr.as_mut(), r_j.as_ref()) {
                            blas::syrk_full_with(pk_schur, Trans::No, 1.0, r, 1.0, srr);
                        }
                        if let (Some(srl), (Some(r), Some(w))) =
                            (s_rl.as_mut(), (r_j.as_ref(), w_j.as_ref()))
                        {
                            blas::gemm_with(pk_schur, Trans::No, Trans::Yes, 1.0, r, w, 1.0, srl);
                        }
                        if has_arrow {
                            if let (Some(sar), Some(r)) = (s_ar.as_mut(), r_j.as_ref()) {
                                blas::gemm_with(
                                    pk_schur,
                                    Trans::No,
                                    Trans::Yes,
                                    1.0,
                                    c_j,
                                    r,
                                    1.0,
                                    sar,
                                );
                            }
                        }
                    }
                },
                move || {
                    // D_{j+1} -= B_j B_jᵀ.
                    if let (Some(nd), Some(bj)) = (next_diag.as_mut(), b_j.as_ref()) {
                        blas::syrk_full_with(pk_diag, Trans::No, -1.0, bj, 1.0, nd);
                    }
                },
                move || {
                    if let Some(bj) = b_j.as_ref() {
                        // W_{j+1} = -W_j B_jᵀ.
                        if let (Some(nl), Some(w)) = (next_left.as_mut(), w_j.as_ref()) {
                            blas::gemm_with(pk_left, Trans::No, Trans::Yes, -1.0, w, bj, 0.0, nl);
                        }
                        // C_{j+1} -= C_j B_jᵀ.
                        if let (Some(na), true) = (next_arrow.as_mut(), has_arrow) {
                            blas::gemm_with(pk_left, Trans::No, Trans::Yes, -1.0, c_j, bj, 1.0, na);
                        }
                    }
                },
            );
        }
        if !is_last {
            diag_work = next_diag.expect("next diagonal block exists before the last column");
            left_work = next_left;
            arrow_work = next_arrow.expect("next arrow block exists before the last column");
        }

        // Store the factor blocks of this column.
        l_diag.push(l_jj);
        if let Some(bj) = b_j {
            l_sub.push(bj);
        }
        if let Some(w) = w_j {
            l_left.push(w);
        }
        if let Some(r) = r_j {
            l_right = Some(r);
        }
        l_arrow.push(c_j);
    }

    Ok((
        PartitionFactor { p, interior: (s, e), l_diag, l_sub, l_left, l_right, l_arrow },
        SchurContribution { p, s_ll, s_rr, s_rl, s_al, s_ar, s_tt },
    ))
}

/// Merged Schur contributions of a contiguous partition range, keyed by
/// reduced block index — one node of the tree reduction in
/// [`assemble_reduced`]. Each list is sorted by index; a matrix moves from
/// its [`SchurContribution`] into the leaf and is then only ever added to
/// (`axpy`), never copied, as nodes merge upward.
struct SchurSpan {
    /// Updates to reduced diagonal blocks `(k, ΔD_k)`.
    diag: Vec<(usize, Matrix)>,
    /// Updates to reduced sub-diagonal blocks `(k, ΔB_k)` at `(k+1, k)`.
    sub: Vec<(usize, Matrix)>,
    /// Updates to reduced arrow blocks `(k, ΔC_k)`.
    arrow: Vec<(usize, Matrix)>,
    /// Update to the arrow tip (absent when `a = 0`).
    tip: Option<Matrix>,
}

impl SchurSpan {
    /// Leaf node: the contributions of one partition. Partition `p` touches
    /// reduced index `p-1` through its left separator and `p` through its
    /// right one, so the index lists are sorted by construction.
    fn leaf(c: &mut SchurContribution, has_arrow: bool) -> SchurSpan {
        let p = c.p;
        let mut diag = Vec::with_capacity(2);
        if let Some(sll) = c.s_ll.take() {
            diag.push((p - 1, sll));
        }
        if let Some(srr) = c.s_rr.take() {
            diag.push((p, srr));
        }
        let sub = c.s_rl.take().map(|srl| (p - 1, srl)).into_iter().collect();
        let mut arrow = Vec::with_capacity(2);
        let tip = if has_arrow {
            if let Some(sal) = c.s_al.take() {
                arrow.push((p - 1, sal));
            }
            if let Some(sar) = c.s_ar.take() {
                arrow.push((p, sar));
            }
            Some(std::mem::replace(&mut c.s_tt, Matrix::zeros(0, 0)))
        } else {
            None
        };
        SchurSpan { diag, sub, arrow, tip }
    }

    /// Merge two sorted update lists; overlapping indices accumulate as
    /// `left + right` (the only overlap is the junction block between the
    /// two partition ranges).
    fn merge_lists(left: Vec<(usize, Matrix)>, right: Vec<(usize, Matrix)>) -> Vec<(usize, Matrix)> {
        let mut out = Vec::with_capacity(left.len() + right.len());
        let mut r = right.into_iter().peekable();
        for (k, mut m) in left {
            while let Some(&(rk, _)) = r.peek() {
                if rk < k {
                    out.push(r.next().unwrap());
                } else if rk == k {
                    m.axpy(1.0, &r.next().unwrap().1);
                } else {
                    break;
                }
            }
            out.push((k, m));
        }
        out.extend(r);
        out
    }

    /// Combine the spans of two adjacent partition ranges: always
    /// `left + right`, so the accumulation order depends only on the tree
    /// shape, never on which worker finished first.
    fn merge(left: SchurSpan, right: SchurSpan) -> SchurSpan {
        let tip = match (left.tip, right.tip) {
            (Some(mut l), Some(r)) => {
                l.axpy(1.0, &r);
                Some(l)
            }
            (l, r) => l.or(r),
        };
        SchurSpan {
            diag: Self::merge_lists(left.diag, right.diag),
            sub: Self::merge_lists(left.sub, right.sub),
            arrow: Self::merge_lists(left.arrow, right.arrow),
            tip,
        }
    }
}

/// Tree-reduce a contiguous range of Schur contributions. The range always
/// splits at its midpoint and every merge accumulates left-before-right, so
/// the result is a pure function of the contribution values — forking the
/// two halves onto the pool changes scheduling only, and the assembled
/// reduced system stays bitwise independent of the worker count.
fn reduce_schur(contribs: &mut [SchurContribution], has_arrow: bool, split: bool) -> SchurSpan {
    match contribs {
        [] => SchurSpan { diag: Vec::new(), sub: Vec::new(), arrow: Vec::new(), tip: None },
        [c] => SchurSpan::leaf(c, has_arrow),
        _ => {
            let mid = contribs.len() / 2;
            let (left, right) = contribs.split_at_mut(mid);
            let (ls, rs) = if split {
                dalia_pool::join(
                    || reduce_schur(left, has_arrow, split),
                    || reduce_schur(right, has_arrow, split),
                )
            } else {
                (reduce_schur(left, has_arrow, false), reduce_schur(right, has_arrow, false))
            };
            SchurSpan::merge(ls, rs)
        }
    }
}

/// Assemble the reduced BTA system over the separators + tip from the original
/// matrix and the partitions' Schur contributions.
///
/// The per-partition contributions combine by tree reduction ([`reduce_schur`])
/// instead of a linear left-to-right walk: pairs of adjacent partition ranges
/// merge in parallel on the pool, and the deep sum onto the arrow tip (every
/// partition contributes to it) accumulates along a fixed binary tree rather
/// than serializing over `P` terms.
fn assemble_reduced(
    a: &BtaMatrix,
    part: &Partitioning,
    contribs: &mut [SchurContribution],
) -> BtaMatrix {
    let seps = part.separators();
    let n_red = seps.len();
    let b = a.b;
    let aa = a.a;
    let mut reduced = BtaMatrix::zeros(n_red, b, aa);
    for (k, &sep) in seps.iter().enumerate() {
        reduced.diag[k] = a.diag[sep].clone();
        if aa > 0 {
            reduced.arrow[k] = a.arrow[sep].clone();
        }
        if k + 1 < n_red {
            // Adjacent separators in the original matrix keep their original
            // coupling (this happens when the partition between them has no
            // interior blocks).
            if seps[k + 1] == sep + 1 {
                reduced.sub[k] = a.sub[sep].clone();
            }
        }
    }
    reduced.tip = a.tip.clone();

    let split = dalia_pool::current_num_threads() > 1;
    let span = reduce_schur(contribs, aa > 0, split);
    for (k, m) in &span.diag {
        reduced.diag[*k].axpy(-1.0, m);
    }
    for (k, m) in &span.sub {
        // Coupling between reduced blocks k+1 (row) and k (column).
        reduced.sub[*k].axpy(-1.0, m);
    }
    for (k, m) in &span.arrow {
        reduced.arrow[*k].axpy(-1.0, m);
    }
    if let Some(tip) = &span.tip {
        reduced.tip.axpy(-1.0, tip);
    }
    reduced
}

/// Fork-join parallel BTA Cholesky factorization: [`pobtaf`] with the
/// right-looking trailing updates of every block column forked as pool join
/// groups — the path [`d_pobtaf_scheduled`] uses for the reduced system,
/// which a linear chain of partitions cannot parallelize any other way.
///
/// Per column the diagonal `potrf` stays on the critical path; the two
/// independent `trsm` solves against `L_iiᵀ` (sub-diagonal `B_i`, arrow
/// panel `C_i`) fork as one join group, and the three trailing updates with
/// disjoint outputs (`D_{i+1} −= B_i B_iᵀ`, `C_{i+1} −= C_i B_iᵀ`,
/// `T −= C_i C_iᵀ`) fork as a second, each subtask on a dedicated
/// [`PackBuffer`] lane. The kernel calls and their operands are identical to
/// the sequential loop, so the factor is **bitwise identical** to
/// [`pobtaf`]'s. Tiny systems (`b` below the fork cutoff), single-block
/// matrices and 1-thread pools run the same column loop unforked.
pub fn pobtaf_parallel(a: &BtaMatrix) -> Result<BtaCholesky, SerinvError> {
    let split = a.b >= STEAL_MIN_BLOCK && a.n > 1 && dalia_pool::current_num_threads() > 1;
    let mut m = a.clone();
    factor_columns(&mut m, 0, &mut InteriorPacks::new(), split)?;
    Ok(BtaCholesky { blocks: m })
}

/// Distributed BTA Cholesky factorization (`d_pobtaf`) with stealable
/// partition interiors ([`InteriorSchedule::Stealable`]).
pub fn d_pobtaf(a: &BtaMatrix, part: &Partitioning) -> Result<DistBtaCholesky, SerinvError> {
    d_pobtaf_scheduled(a, part, InteriorSchedule::Stealable)
}

/// [`d_pobtaf`] with an explicit [`InteriorSchedule`].
///
/// The two schedules produce **bitwise identical** factors; `Indivisible`
/// exists as the measurable pool v1 baseline (one sequential task per
/// partition interior, sequential reduced-system factorization) for
/// `pool_bench` and the stress tests. The Schur assembly tree-reduces under
/// both schedules — its pairing order is fixed, so it is not a scheduling
/// degree of freedom.
pub fn d_pobtaf_scheduled(
    a: &BtaMatrix,
    part: &Partitioning,
    sched: InteriorSchedule,
) -> Result<DistBtaCholesky, SerinvError> {
    assert_eq!(part.num_blocks(), a.n, "partitioning does not match the matrix");
    let num_parts = part.num_partitions();
    if num_parts == 1 {
        return Ok(DistBtaCholesky::Sequential(pobtaf(a)?));
    }
    let results: Result<Vec<_>, SerinvError> = (0..num_parts)
        .into_par_iter()
        .map(|p| factor_partition(a, part, p, sched))
        .collect();
    let results = results?;
    let (partitions, mut contribs): (Vec<_>, Vec<_>) = results.into_iter().unzip();
    let reduced_matrix = assemble_reduced(a, part, &mut contribs);
    let reduced = match sched {
        InteriorSchedule::Stealable => pobtaf_parallel(&reduced_matrix)?,
        InteriorSchedule::Indivisible => pobtaf(&reduced_matrix)?,
    };
    Ok(DistBtaCholesky::Partitioned {
        structure: (a.n, a.b, a.a),
        partitioning: part.clone(),
        partitions,
        reduced,
    })
}

/// Distributed BTA triangular solve (`d_pobtas`, the paper's `PPOBTAS`) with
/// stealable partition interiors ([`InteriorSchedule::Stealable`]).
///
/// Solves `A X = B` for the dense right-hand side `rhs` (overwritten with the
/// solution), given a distributed factorization.
pub fn d_pobtas(factor: &DistBtaCholesky, rhs: &mut Matrix) {
    d_pobtas_scheduled(factor, rhs, InteriorSchedule::Stealable)
}

/// [`d_pobtas`] with an explicit [`InteriorSchedule`].
///
/// With [`InteriorSchedule::Stealable`] every interior column forks its
/// independent subtasks as pool join groups: in the forward sweep the three
/// separator/tip right-hand-side accumulations (left fill `W`, right
/// coupling, arrow panel) run after the column's `trsm`; in the backward
/// sweep the carried sub-diagonal term and the external separator/tip
/// back-couplings fork against each other. The two schedules execute the
/// same kernel calls on the same operands, so the solutions are **bitwise
/// identical** — the fork changes scheduling only.
pub fn d_pobtas_scheduled(factor: &DistBtaCholesky, rhs: &mut Matrix, sched: InteriorSchedule) {
    match factor {
        DistBtaCholesky::Sequential(f) => pobtas(f, rhs),
        DistBtaCholesky::Partitioned { structure, partitioning, partitions, reduced } => {
            let (n, b, a) = *structure;
            assert_eq!(rhs.nrows(), n * b + a, "d_pobtas: rhs dimension mismatch");
            let k = rhs.ncols();
            let a0 = n * b;
            let seps = partitioning.separators();
            let n_red = seps.len();
            let split = sched == InteriorSchedule::Stealable
                && b >= STEAL_MIN_BLOCK
                && dalia_pool::current_num_threads() > 1;

            // ---- Forward substitution on the interiors (parallel). ----
            // Per partition: (partition index, interior solutions, update to
            // the left separator, update to the right separator, tip update).
            type ForwardPartial = (usize, Vec<Matrix>, Option<Matrix>, Option<Matrix>, Matrix);
            let partial: Vec<ForwardPartial> = partitions
                .par_iter()
                .map(|pf| {
                    let (s, e) = pf.interior;
                    let len = e - s;
                    let mut packs = InteriorPacks::new();
                    let mut ys: Vec<Matrix> = Vec::with_capacity(len);
                    let mut left_update: Option<Matrix> =
                        (!pf.l_left.is_empty()).then(|| Matrix::zeros(b, k));
                    let mut right_update: Option<Matrix> =
                        pf.l_right.as_ref().map(|_| Matrix::zeros(b, k));
                    let mut tip_update = Matrix::zeros(a, k);
                    for (idx, j) in (s..e).enumerate() {
                        let mut yj = rhs.block(j * b, 0, b, k);
                        if idx > 0 {
                            blas::gemm_with(&mut packs.diag, Trans::No, Trans::No, -1.0, &pf.l_sub[idx - 1], &ys[idx - 1], 1.0, &mut yj);
                        }
                        blas::trsm_with(&mut packs.diag, Side::Left, Triangle::Lower, Trans::No, &pf.l_diag[idx], &mut yj);
                        // Separator / tip accumulations: three disjoint
                        // outputs reading the shared y_j — one join group.
                        {
                            let InteriorPacks { left: pk_left, arrow: pk_arrow, schur: pk_schur, .. } =
                                &mut packs;
                            let (lu, ru, tu) = (&mut left_update, &mut right_update, &mut tip_update);
                            let y = &yj;
                            let w = pf.l_left.get(idx);
                            let r = if idx + 1 == len { pf.l_right.as_ref() } else { None };
                            let c = if a > 0 { Some(&pf.l_arrow[idx]) } else { None };
                            run3(
                                split,
                                move || {
                                    if let (Some(lu), Some(w)) = (lu.as_mut(), w) {
                                        blas::gemm_with(pk_left, Trans::No, Trans::No, 1.0, w, y, 1.0, lu);
                                    }
                                },
                                move || {
                                    if let (Some(ru), Some(r)) = (ru.as_mut(), r) {
                                        blas::gemm_with(pk_schur, Trans::No, Trans::No, 1.0, r, y, 1.0, ru);
                                    }
                                },
                                move || {
                                    if let Some(c) = c {
                                        blas::gemm_with(pk_arrow, Trans::No, Trans::No, 1.0, c, y, 1.0, tu);
                                    }
                                },
                            );
                        }
                        ys.push(yj);
                    }
                    (pf.p, ys, left_update, right_update, tip_update)
                })
                .collect();

            // Write interior y values and apply separator/tip updates.
            let mut reduced_rhs = Matrix::zeros(n_red * b + a, k);
            for (kk, &sep) in seps.iter().enumerate() {
                let block = rhs.block(sep * b, 0, b, k);
                reduced_rhs.set_block(kk * b, 0, &block);
            }
            if a > 0 {
                let tip_block = rhs.block(a0, 0, a, k);
                reduced_rhs.set_block(n_red * b, 0, &tip_block);
            }
            for (p, ys, left_update, right_update, tip_update) in &partial {
                let pf = &partitions[*p];
                let (s, _e) = pf.interior;
                for (idx, y) in ys.iter().enumerate() {
                    rhs.set_block((s + idx) * b, 0, y);
                }
                if let Some(lu) = left_update {
                    reduced_rhs.add_block((p - 1) * b, 0, -1.0, lu);
                }
                if let Some(ru) = right_update {
                    reduced_rhs.add_block(*p * b, 0, -1.0, ru);
                }
                if a > 0 {
                    reduced_rhs.add_block(n_red * b, 0, -1.0, tip_update);
                }
            }

            // ---- Solve the reduced system. ----
            pobtas(reduced, &mut reduced_rhs);

            // Scatter the separator / tip solutions back.
            for (kk, &sep) in seps.iter().enumerate() {
                let block = reduced_rhs.block(kk * b, 0, b, k);
                rhs.set_block(sep * b, 0, &block);
            }
            if a > 0 {
                let tip_block = reduced_rhs.block(n_red * b, 0, a, k);
                rhs.set_block(a0, 0, &tip_block);
            }

            // Hoist the separator / tip solution blocks out of the parallel
            // region: every partition reads (at most) two separators and the
            // tip, so one extraction per reduced block replaces the former
            // per-partition clones.
            let sep_x: Vec<Matrix> = (0..n_red).map(|kk| reduced_rhs.block(kk * b, 0, b, k)).collect();
            let tip_x = (a > 0).then(|| reduced_rhs.block(n_red * b, 0, a, k));

            // ---- Backward substitution on the interiors (parallel). ----
            let last_p = partitioning.num_partitions() - 1;
            let solutions: Vec<(usize, Vec<Matrix>)> = partitions
                .par_iter()
                .map(|pf| {
                    let (s, e) = pf.interior;
                    let len = e - s;
                    let mut packs = InteriorPacks::new();
                    let mut xs: Vec<Matrix> = vec![Matrix::zeros(0, 0); len];
                    let x_left = if pf.p > 0 { Some(&sep_x[pf.p - 1]) } else { None };
                    let x_right = if pf.p < last_p { Some(&sep_x[pf.p]) } else { None };
                    let x_tip = tip_x.as_ref();
                    // The external separator / tip back-couplings accumulate
                    // into a dedicated buffer so they can fork against the
                    // carried sub-diagonal term; both schedules run the same
                    // sequence, keeping the result schedule-independent.
                    let mut ext = if len > 0 { Matrix::zeros(b, k) } else { Matrix::zeros(0, 0) };
                    for idx in (0..len).rev() {
                        let j = s + idx;
                        let mut t = rhs.block(j * b, 0, b, k);
                        ext.fill_zero();
                        {
                            let InteriorPacks { diag: pk_diag, left: pk_left, .. } = &mut packs;
                            let carried =
                                if idx + 1 < len { Some((&pf.l_sub[idx], &xs[idx + 1])) } else { None };
                            let (t_ref, ext_ref) = (&mut t, &mut ext);
                            let w = pf.l_left.get(idx);
                            let r = if idx + 1 == len { pf.l_right.as_ref() } else { None };
                            let c = &pf.l_arrow;
                            run2(
                                split,
                                move || {
                                    if let Some((l, x)) = carried {
                                        blas::gemm_with(pk_diag, Trans::Yes, Trans::No, -1.0, l, x, 1.0, t_ref);
                                    }
                                },
                                move || {
                                    if let (Some(w), Some(xl)) = (w, x_left) {
                                        blas::gemm_with(pk_left, Trans::Yes, Trans::No, -1.0, w, xl, 1.0, ext_ref);
                                    }
                                    if let (Some(r), Some(xr)) = (r, x_right) {
                                        blas::gemm_with(pk_left, Trans::Yes, Trans::No, -1.0, r, xr, 1.0, ext_ref);
                                    }
                                    if let Some(xt) = x_tip {
                                        blas::gemm_with(pk_left, Trans::Yes, Trans::No, -1.0, &c[idx], xt, 1.0, ext_ref);
                                    }
                                },
                            );
                        }
                        t.axpy(1.0, &ext);
                        blas::trsm_with(&mut packs.diag, Side::Left, Triangle::Lower, Trans::Yes, &pf.l_diag[idx], &mut t);
                        xs[idx] = t;
                    }
                    (pf.p, xs)
                })
                .collect();

            for (p, xs) in solutions {
                let (s, _e) = partitions[p].interior;
                for (idx, x) in xs.iter().enumerate() {
                    rhs.set_block((s + idx) * b, 0, x);
                }
            }
        }
    }
}

/// Distributed selected inversion (`d_pobtasi`): the selected inverse blocks
/// on the original BTA pattern, matching [`pobtasi`] exactly. Uses stealable
/// partition interiors ([`InteriorSchedule::Stealable`]).
pub fn d_pobtasi(factor: &DistBtaCholesky) -> BtaSelectedInverse {
    d_pobtasi_scheduled(factor, InteriorSchedule::Stealable)
}

/// [`d_pobtasi`] with an explicit [`InteriorSchedule`].
///
/// With [`InteriorSchedule::Stealable`] every interior column of the backward
/// selected-inverse pass forks its three independent Σ products — `Σ_{ls,j}`
/// (left separator column), `Σ_{j+1,j}` / `Σ_{rs,j}` (below-diagonal), and
/// `Σ_{T,j}` (arrow row) — as one pool join group with per-lane
/// `PackBuffer`s; `L_jj⁻¹` and the diagonal update stay on the critical path.
/// Both schedules execute the same kernel calls on the same operands, so the
/// selected inverse is **bitwise identical** across schedules.
pub fn d_pobtasi_scheduled(factor: &DistBtaCholesky, sched: InteriorSchedule) -> BtaSelectedInverse {
    match factor {
        DistBtaCholesky::Sequential(f) => pobtasi(f),
        DistBtaCholesky::Partitioned { structure, partitioning, partitions, reduced } => {
            let (n, b, a) = *structure;
            let seps = partitioning.separators();
            let n_red = seps.len();
            let split = sched == InteriorSchedule::Stealable
                && b >= STEAL_MIN_BLOCK
                && dalia_pool::current_num_threads() > 1;
            let reduced_sel = pobtasi(reduced);
            let mut inv = BtaMatrix::zeros(n, b, a);

            // Fill in the separator / tip blocks directly from the reduced
            // selected inverse.
            if a > 0 {
                inv.tip = reduced_sel.blocks.tip.clone();
            }
            for (kk, &sep) in seps.iter().enumerate() {
                inv.diag[sep] = reduced_sel.blocks.diag[kk].clone();
                if a > 0 {
                    inv.arrow[sep] = reduced_sel.blocks.arrow[kk].clone();
                }
                // Coupling between adjacent separators (only when the partition
                // between them has no interior blocks).
                if kk + 1 < n_red && seps[kk + 1] == sep + 1 {
                    inv.sub[sep] = reduced_sel.blocks.sub[kk].clone();
                }
            }

            // Per-partition backward pass (parallel).
            struct PartInverse {
                p: usize,
                s: usize,
                diag: Vec<Matrix>,
                sub_within: Vec<Matrix>,
                sub_to_right_sep: Option<Matrix>,
                sub_from_left_sep: Option<Matrix>,
                arrow: Vec<Matrix>,
            }

            let parts: Vec<PartInverse> = partitions
                .par_iter()
                .map(|pf| {
                    let (s, e) = pf.interior;
                    let len = e - s;
                    let p = pf.p;
                    let mut packs = InteriorPacks::new();
                    let has_left = p > 0;
                    let has_right = p + 1 < partitioning.num_partitions();

                    // Borrowed views into the shared reduced selected inverse
                    // — no per-partition clones (the reduced system is
                    // read-only during this pass).
                    let sig_ls_ls = if has_left { Some(&reduced_sel.blocks.diag[p - 1]) } else { None };
                    let sig_rs_rs = if has_right { Some(&reduced_sel.blocks.diag[p]) } else { None };
                    let sig_rs_ls = if has_left && has_right {
                        Some(&reduced_sel.blocks.sub[p - 1])
                    } else {
                        None
                    };
                    let sig_t_ls = if has_left && a > 0 { Some(&reduced_sel.blocks.arrow[p - 1]) } else { None };
                    let sig_t_rs = if has_right && a > 0 { Some(&reduced_sel.blocks.arrow[p]) } else { None };
                    let sig_tt = &reduced_sel.blocks.tip;

                    let mut diag_out: Vec<Matrix> = vec![Matrix::zeros(0, 0); len];
                    let mut sub_within: Vec<Matrix> = vec![Matrix::zeros(0, 0); len.saturating_sub(1)];
                    let mut sub_to_right_sep: Option<Matrix> = None;
                    let mut sub_from_left_sep: Option<Matrix> = None;
                    let mut arrow_out: Vec<Matrix> = vec![Matrix::zeros(0, 0); len];

                    // Backward carry: Σ_{j+1,j+1}, Σ_{ls,j+1}, Σ_{T,j+1}.
                    let mut next_diag: Option<Matrix> = None;
                    let mut next_left: Option<Matrix> = None;
                    let mut next_arrow: Option<Matrix> = None;

                    for idx in (0..len).rev() {
                        let is_last = idx + 1 == len;
                        let l_jj = &pf.l_diag[idx];
                        let mut l_inv = Matrix::identity(b);
                        blas::trsm_with(&mut packs.diag, Side::Left, Triangle::Lower, Trans::No, l_jj, &mut l_inv);

                        let w_j = pf.l_left.get(idx);
                        let c_j = &pf.l_arrow[idx];
                        let b_j = if !is_last { Some(&pf.l_sub[idx]) } else { None };
                        let r_j = if is_last { pf.l_right.as_ref() } else { None };

                        // The three Σ products of this column are mutually
                        // independent (disjoint outputs, shared read-only
                        // inputs) — fork them as one join group.
                        let mut sigma_left: Option<Matrix> = None;
                        let mut sigma_below: Option<Matrix> = None;
                        let mut sigma_tip: Option<Matrix> = None;
                        {
                            let InteriorPacks { left: pk_left, arrow: pk_arrow, schur: pk_schur, .. } =
                                &mut packs;
                            let (sl_out, sb_out, st_out) =
                                (&mut sigma_left, &mut sigma_below, &mut sigma_tip);
                            let li = &l_inv;
                            let nd = next_diag.as_ref();
                            let nl = next_left.as_ref();
                            let na = next_arrow.as_ref();
                            run3(
                                split,
                                // Σ_{ls,j}.
                                move || {
                                    if has_left {
                                        let mut m = Matrix::zeros(b, b);
                                        if let (Some(bj), Some(nl)) = (b_j, nl) {
                                            blas::gemm_with(pk_left, Trans::No, Trans::No, -1.0, nl, bj, 1.0, &mut m);
                                        }
                                        if let (Some(sll), Some(w)) = (sig_ls_ls, w_j) {
                                            blas::gemm_with(pk_left, Trans::No, Trans::No, -1.0, sll, w, 1.0, &mut m);
                                        }
                                        if let (Some(rj), Some(srl)) = (r_j, sig_rs_ls) {
                                            // Σ_{ls,rs} = Σ_{rs,ls}ᵀ.
                                            blas::gemm_with(pk_left, Trans::Yes, Trans::No, -1.0, srl, rj, 1.0, &mut m);
                                        }
                                        if a > 0 {
                                            if let Some(stl) = sig_t_ls {
                                                blas::gemm_with(pk_left, Trans::Yes, Trans::No, -1.0, stl, c_j, 1.0, &mut m);
                                            }
                                        }
                                        let mut out = Matrix::zeros(b, b);
                                        blas::gemm_with(pk_left, Trans::No, Trans::No, 1.0, &m, li, 0.0, &mut out);
                                        *sl_out = Some(out);
                                    }
                                },
                                // Σ_{j+1,j} (within partition) or Σ_{rs,j} (last column).
                                move || {
                                    *sb_out = if let Some(bj) = b_j {
                                        let mut m = Matrix::zeros(b, b);
                                        blas::gemm_with(pk_schur, Trans::No, Trans::No, -1.0, nd.unwrap(), bj, 1.0, &mut m);
                                        if let (Some(nl), Some(w)) = (nl, w_j) {
                                            // Σ_{j+1,ls} = Σ_{ls,j+1}ᵀ.
                                            blas::gemm_with(pk_schur, Trans::Yes, Trans::No, -1.0, nl, w, 1.0, &mut m);
                                        }
                                        if a > 0 {
                                            blas::gemm_with(pk_schur, Trans::Yes, Trans::No, -1.0, na.unwrap(), c_j, 1.0, &mut m);
                                        }
                                        let mut out = Matrix::zeros(b, b);
                                        blas::gemm_with(pk_schur, Trans::No, Trans::No, 1.0, &m, li, 0.0, &mut out);
                                        Some(out)
                                    } else if let Some(rj) = r_j {
                                        let mut m = Matrix::zeros(b, b);
                                        blas::gemm_with(pk_schur, Trans::No, Trans::No, -1.0, sig_rs_rs.unwrap(), rj, 1.0, &mut m);
                                        if let (Some(srl), Some(w)) = (sig_rs_ls, w_j) {
                                            blas::gemm_with(pk_schur, Trans::No, Trans::No, -1.0, srl, w, 1.0, &mut m);
                                        }
                                        if a > 0 {
                                            if let Some(str_) = sig_t_rs {
                                                blas::gemm_with(pk_schur, Trans::Yes, Trans::No, -1.0, str_, c_j, 1.0, &mut m);
                                            }
                                        }
                                        let mut out = Matrix::zeros(b, b);
                                        blas::gemm_with(pk_schur, Trans::No, Trans::No, 1.0, &m, li, 0.0, &mut out);
                                        Some(out)
                                    } else {
                                        None
                                    };
                                },
                                // Σ_{T,j}.
                                move || {
                                    if a > 0 {
                                        let mut m = Matrix::zeros(a, b);
                                        if let Some(bj) = b_j {
                                            blas::gemm_with(pk_arrow, Trans::No, Trans::No, -1.0, na.unwrap(), bj, 1.0, &mut m);
                                        }
                                        if let (Some(stl), Some(w)) = (sig_t_ls, w_j) {
                                            blas::gemm_with(pk_arrow, Trans::No, Trans::No, -1.0, stl, w, 1.0, &mut m);
                                        }
                                        if let (Some(str_), Some(rj)) = (sig_t_rs, r_j) {
                                            blas::gemm_with(pk_arrow, Trans::No, Trans::No, -1.0, str_, rj, 1.0, &mut m);
                                        }
                                        blas::gemm_with(pk_arrow, Trans::No, Trans::No, -1.0, sig_tt, c_j, 1.0, &mut m);
                                        let mut out = Matrix::zeros(a, b);
                                        blas::gemm_with(pk_arrow, Trans::No, Trans::No, 1.0, &m, li, 0.0, &mut out);
                                        *st_out = Some(out);
                                    }
                                },
                            );
                        }

                        // Σ_{jj} = L_jj^{-T}(L_jj^{-1} − Σ_k L_{k,j}ᵀ Σ_{k,j}).
                        let mut inner = l_inv.clone();
                        if let (Some(bj), Some(sb)) = (b_j, sigma_below.as_ref()) {
                            blas::gemm_with(&mut packs.diag, Trans::Yes, Trans::No, -1.0, bj, sb, 1.0, &mut inner);
                        }
                        if let (Some(rj), Some(sb)) = (r_j, sigma_below.as_ref()) {
                            blas::gemm_with(&mut packs.diag, Trans::Yes, Trans::No, -1.0, rj, sb, 1.0, &mut inner);
                        }
                        if let (Some(w), Some(sl)) = (w_j, sigma_left.as_ref()) {
                            blas::gemm_with(&mut packs.diag, Trans::Yes, Trans::No, -1.0, w, sl, 1.0, &mut inner);
                        }
                        if let Some(st) = sigma_tip.as_ref() {
                            blas::gemm_with(&mut packs.diag, Trans::Yes, Trans::No, -1.0, c_j, st, 1.0, &mut inner);
                        }
                        blas::trsm_with(&mut packs.diag, Side::Left, Triangle::Lower, Trans::Yes, l_jj, &mut inner);
                        inner.symmetrize();

                        diag_out[idx] = inner.clone();
                        if let Some(sb) = sigma_below.clone() {
                            if is_last {
                                sub_to_right_sep = Some(sb);
                            } else {
                                sub_within[idx] = sb;
                            }
                        }
                        if idx == 0 {
                            if let Some(sl) = sigma_left.as_ref() {
                                // Σ_{s, ls} = Σ_{ls, s}ᵀ is the sub-diagonal block at (s, s-1).
                                sub_from_left_sep = Some(sl.transpose());
                            }
                        }
                        if let Some(st) = sigma_tip.clone() {
                            arrow_out[idx] = st;
                        }

                        next_diag = Some(inner);
                        next_left = sigma_left;
                        next_arrow = sigma_tip;
                    }

                    PartInverse {
                        p,
                        s,
                        diag: diag_out,
                        sub_within,
                        sub_to_right_sep,
                        sub_from_left_sep,
                        arrow: arrow_out,
                    }
                })
                .collect();

            for part in parts {
                let s = part.s;
                for (idx, m) in part.diag.into_iter().enumerate() {
                    inv.diag[s + idx] = m;
                }
                for (idx, m) in part.sub_within.into_iter().enumerate() {
                    inv.sub[s + idx] = m;
                }
                if let Some(m) = part.sub_to_right_sep {
                    let e = partitions[part.p].interior.1;
                    inv.sub[e - 1] = m;
                }
                if let Some(m) = part.sub_from_left_sep {
                    inv.sub[s - 1] = m;
                }
                if a > 0 {
                    for (idx, m) in part.arrow.into_iter().enumerate() {
                        inv.arrow[s + idx] = m;
                    }
                }
            }

            BtaSelectedInverse { blocks: inv }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{test_matrix, test_rhs};

    fn check_equivalence(n: usize, b: usize, a: usize, p: usize, lb: f64) {
        let m = test_matrix(n, b, a, 42);
        let part = Partitioning::load_balanced(n, p, lb);
        let seq = pobtaf(&m).unwrap();
        let dist = d_pobtaf(&m, &part).unwrap();

        // Log-determinants agree.
        assert!(
            (seq.logdet().unwrap() - dist.logdet().unwrap()).abs()
                < 1e-8 * (1.0 + seq.logdet().unwrap().abs()),
            "logdet mismatch for P={p}: {} vs {}",
            seq.logdet().unwrap(),
            dist.logdet().unwrap()
        );

        // Solves agree.
        let rhs0 = test_rhs(m.dim(), 2);
        let mut rhs_seq = rhs0.clone();
        pobtas(&seq, &mut rhs_seq);
        let mut rhs_dist = rhs0.clone();
        d_pobtas(&dist, &mut rhs_dist);
        assert!(
            rhs_seq.max_abs_diff(&rhs_dist) < 1e-8,
            "solve mismatch for P={p}: {}",
            rhs_seq.max_abs_diff(&rhs_dist)
        );

        // Selected inverses agree block by block.
        let sel_seq = pobtasi(&seq);
        let sel_dist = d_pobtasi(&dist);
        for i in 0..n {
            assert!(
                sel_seq.blocks.diag[i].max_abs_diff(&sel_dist.blocks.diag[i]) < 1e-8,
                "diag {i} mismatch for P={p}"
            );
        }
        for i in 0..n - 1 {
            assert!(
                sel_seq.blocks.sub[i].max_abs_diff(&sel_dist.blocks.sub[i]) < 1e-8,
                "sub {i} mismatch for P={p}"
            );
        }
        if a > 0 {
            for i in 0..n {
                assert!(
                    sel_seq.blocks.arrow[i].max_abs_diff(&sel_dist.blocks.arrow[i]) < 1e-8,
                    "arrow {i} mismatch for P={p}"
                );
            }
            assert!(sel_seq.blocks.tip.max_abs_diff(&sel_dist.blocks.tip) < 1e-8);
        }
    }

    #[test]
    fn distributed_matches_sequential_two_partitions() {
        check_equivalence(8, 3, 2, 2, 1.0);
    }

    #[test]
    fn distributed_matches_sequential_four_partitions() {
        check_equivalence(12, 2, 2, 4, 1.0);
    }

    #[test]
    fn distributed_matches_sequential_with_load_balancing() {
        check_equivalence(16, 2, 1, 4, 1.6);
    }

    #[test]
    fn distributed_matches_sequential_no_arrow() {
        check_equivalence(10, 3, 0, 3, 1.0);
    }

    #[test]
    fn distributed_single_partition_falls_back_to_sequential() {
        check_equivalence(6, 2, 1, 1, 1.0);
    }

    #[test]
    fn distributed_with_single_block_partitions() {
        // P = n/1: some partitions have empty interiors.
        check_equivalence(6, 2, 1, 6, 1.0);
        check_equivalence(5, 2, 1, 5, 1.0);
    }

    #[test]
    fn distributed_many_partitions_odd_sizes() {
        check_equivalence(11, 2, 2, 3, 1.3);
        check_equivalence(9, 3, 1, 4, 1.0);
    }

    /// Exact (bitwise) equality of two partition factor sets.
    fn assert_factors_bitwise_equal(x: &DistBtaCholesky, y: &DistBtaCholesky, tag: &str) {
        let (DistBtaCholesky::Partitioned { partitions: px, reduced: rx, .. },
             DistBtaCholesky::Partitioned { partitions: py, reduced: ry, .. }) = (x, y)
        else {
            panic!("{tag}: expected partitioned factorizations");
        };
        assert_eq!(px.len(), py.len(), "{tag}: partition count");
        for (fx, fy) in px.iter().zip(py) {
            let p = fx.p;
            assert_eq!(fx.interior, fy.interior, "{tag}: interior range of partition {p}");
            for (i, (mx, my)) in fx.l_diag.iter().zip(&fy.l_diag).enumerate() {
                assert_eq!(mx.max_abs_diff(my), 0.0, "{tag}: l_diag[{i}] of partition {p}");
            }
            for (i, (mx, my)) in fx.l_sub.iter().zip(&fy.l_sub).enumerate() {
                assert_eq!(mx.max_abs_diff(my), 0.0, "{tag}: l_sub[{i}] of partition {p}");
            }
            for (i, (mx, my)) in fx.l_left.iter().zip(&fy.l_left).enumerate() {
                assert_eq!(mx.max_abs_diff(my), 0.0, "{tag}: l_left[{i}] of partition {p}");
            }
            for (i, (mx, my)) in fx.l_arrow.iter().zip(&fy.l_arrow).enumerate() {
                assert_eq!(mx.max_abs_diff(my), 0.0, "{tag}: l_arrow[{i}] of partition {p}");
            }
            match (&fx.l_right, &fy.l_right) {
                (Some(mx), Some(my)) => {
                    assert_eq!(mx.max_abs_diff(my), 0.0, "{tag}: l_right of partition {p}")
                }
                (None, None) => {}
                _ => panic!("{tag}: l_right presence mismatch in partition {p}"),
            }
        }
        assert_eq!(
            rx.logdet().unwrap().to_bits(),
            ry.logdet().unwrap().to_bits(),
            "{tag}: reduced logdet"
        );
        assert_chol_bitwise_equal(rx, ry, &format!("{tag}: reduced factor"));
    }

    /// Exact (bitwise) equality of two BTA Cholesky factors, block by block.
    fn assert_chol_bitwise_equal(x: &BtaCholesky, y: &BtaCholesky, tag: &str) {
        let (bx, by) = (&x.blocks, &y.blocks);
        assert_eq!(bx.n, by.n, "{tag}: block count");
        for (i, (mx, my)) in bx.diag.iter().zip(&by.diag).enumerate() {
            assert_eq!(mx.max_abs_diff(my), 0.0, "{tag}: diag[{i}]");
        }
        for (i, (mx, my)) in bx.sub.iter().zip(&by.sub).enumerate() {
            assert_eq!(mx.max_abs_diff(my), 0.0, "{tag}: sub[{i}]");
        }
        for (i, (mx, my)) in bx.arrow.iter().zip(&by.arrow).enumerate() {
            assert_eq!(mx.max_abs_diff(my), 0.0, "{tag}: arrow[{i}]");
        }
        assert_eq!(bx.tip.max_abs_diff(&by.tip), 0.0, "{tag}: tip");
    }

    /// Exact (bitwise) equality of two selected inverses, block by block.
    fn assert_selinv_bitwise_equal(x: &BtaSelectedInverse, y: &BtaSelectedInverse, tag: &str) {
        let (bx, by) = (&x.blocks, &y.blocks);
        assert_eq!(bx.n, by.n, "{tag}: block count");
        for (i, (mx, my)) in bx.diag.iter().zip(&by.diag).enumerate() {
            assert_eq!(mx.max_abs_diff(my), 0.0, "{tag}: diag[{i}]");
        }
        for (i, (mx, my)) in bx.sub.iter().zip(&by.sub).enumerate() {
            assert_eq!(mx.max_abs_diff(my), 0.0, "{tag}: sub[{i}]");
        }
        for (i, (mx, my)) in bx.arrow.iter().zip(&by.arrow).enumerate() {
            assert_eq!(mx.max_abs_diff(my), 0.0, "{tag}: arrow[{i}]");
        }
        assert_eq!(bx.tip.max_abs_diff(&by.tip), 0.0, "{tag}: tip");
    }

    #[test]
    fn stealable_interiors_bitwise_match_indivisible() {
        // Blocks above STEAL_MIN_BLOCK so the stealable schedule actually
        // forks, on a multi-worker pool so subtasks really get stolen. The
        // two schedules (and any worker count) must agree to the last bit.
        let n = 9;
        let (b, aa) = (STEAL_MIN_BLOCK + 16, 3);
        let m = test_matrix(n, b, aa, 7);
        let part = Partitioning::from_sizes(&[6, 1, 1, 1]);
        let pool = dalia_pool::ThreadPool::new(4);
        let stealable =
            pool.install(|| d_pobtaf_scheduled(&m, &part, InteriorSchedule::Stealable)).unwrap();
        let indivisible =
            d_pobtaf_scheduled(&m, &part, InteriorSchedule::Indivisible).unwrap();
        assert_factors_bitwise_equal(&stealable, &indivisible, "stealable-vs-indivisible");
        // And a second stealable run is deterministic despite stealing.
        let again =
            pool.install(|| d_pobtaf_scheduled(&m, &part, InteriorSchedule::Stealable)).unwrap();
        assert_factors_bitwise_equal(&stealable, &again, "stealable-rerun");
    }

    #[test]
    fn parallel_reduced_pobtaf_bitwise_matches_sequential() {
        // The forked right-looking reduced-system factorization must agree
        // with the sequential kernel to the last bit, with and without an
        // arrow, and on a 1-thread pool (where it falls back outright).
        let pool = dalia_pool::ThreadPool::new(4);
        let single = dalia_pool::ThreadPool::new(1);
        for (aa, seed) in [(3, 11), (0, 12)] {
            let m = test_matrix(5, STEAL_MIN_BLOCK + 16, aa, seed);
            let seq = pobtaf(&m).unwrap();
            let par = pool.install(|| pobtaf_parallel(&m)).unwrap();
            assert_chol_bitwise_equal(&par, &seq, &format!("pobtaf_parallel a={aa}"));
            let one = single.install(|| pobtaf_parallel(&m)).unwrap();
            assert_chol_bitwise_equal(&one, &seq, &format!("pobtaf_parallel 1T a={aa}"));
        }
        // Below the fork cutoff the parallel entry point is the sequential
        // kernel by definition.
        let m = test_matrix(6, STEAL_MIN_BLOCK / 2, 2, 13);
        let par = pool.install(|| pobtaf_parallel(&m)).unwrap();
        assert_chol_bitwise_equal(&par, &pobtaf(&m).unwrap(), "pobtaf_parallel tiny");
    }

    #[test]
    fn parallel_pobtaf_on_a_single_block_column_matches_sequential() {
        // One block column has no trailing update to fork, so the column
        // loop runs unforked even on a multi-worker pool.
        let pool = dalia_pool::ThreadPool::new(4);
        for aa in [0, 3] {
            let m = test_matrix(1, STEAL_MIN_BLOCK + 8, aa, 17);
            let par = pool.install(|| pobtaf_parallel(&m)).unwrap();
            assert_chol_bitwise_equal(&par, &pobtaf(&m).unwrap(), &format!("n=1 a={aa}"));
        }
    }

    #[test]
    fn tree_reduced_assembly_independent_of_worker_count() {
        // 8 partitions give a 3-level Schur reduction tree; the sequential
        // (1-thread) and forked (4-thread) reductions share the same pairing
        // order, so the assembled reduced factor must agree bitwise.
        let m = test_matrix(16, 3, 2, 33);
        let part = Partitioning::load_balanced(16, 8, 1.0);
        let f1 = dalia_pool::ThreadPool::new(1).install(|| d_pobtaf(&m, &part)).unwrap();
        let f4 = dalia_pool::ThreadPool::new(4).install(|| d_pobtaf(&m, &part)).unwrap();
        assert_factors_bitwise_equal(&f1, &f4, "tree-reduce worker count");
    }

    #[test]
    fn stealable_solve_and_selinv_bitwise_match_indivisible() {
        // Same contract as the factorization test: blocks above the fork
        // cutoff on a multi-worker pool, stealable vs indivisible schedules
        // (and reruns, and different worker counts) agree to the last bit.
        let n = 9;
        let (b, aa) = (STEAL_MIN_BLOCK + 16, 3);
        let m = test_matrix(n, b, aa, 21);
        let part = Partitioning::from_sizes(&[6, 1, 1, 1]);
        let pool = dalia_pool::ThreadPool::new(4);
        let factor = pool.install(|| d_pobtaf(&m, &part)).unwrap();

        let rhs0 = test_rhs(m.dim(), 3);
        let mut steal = rhs0.clone();
        pool.install(|| d_pobtas_scheduled(&factor, &mut steal, InteriorSchedule::Stealable));
        let mut indiv = rhs0.clone();
        d_pobtas_scheduled(&factor, &mut indiv, InteriorSchedule::Indivisible);
        assert_eq!(steal.max_abs_diff(&indiv), 0.0, "solve: stealable vs indivisible");
        let mut again = rhs0.clone();
        pool.install(|| d_pobtas_scheduled(&factor, &mut again, InteriorSchedule::Stealable));
        assert_eq!(steal.max_abs_diff(&again), 0.0, "solve: stealable rerun");
        let mut one = rhs0.clone();
        dalia_pool::ThreadPool::new(1)
            .install(|| d_pobtas_scheduled(&factor, &mut one, InteriorSchedule::Stealable));
        assert_eq!(steal.max_abs_diff(&one), 0.0, "solve: 1-thread vs 4-thread");

        let sel_steal = pool.install(|| d_pobtasi_scheduled(&factor, InteriorSchedule::Stealable));
        let sel_indiv = d_pobtasi_scheduled(&factor, InteriorSchedule::Indivisible);
        assert_selinv_bitwise_equal(&sel_steal, &sel_indiv, "selinv: stealable vs indivisible");
        let sel_again = pool.install(|| d_pobtasi_scheduled(&factor, InteriorSchedule::Stealable));
        assert_selinv_bitwise_equal(&sel_steal, &sel_again, "selinv: stealable rerun");
    }

    /// Full-pipeline schedule parity on a given explicit layout: factor,
    /// solve and selected inverse must be bitwise identical across schedules
    /// and numerically match the sequential pipeline.
    fn check_schedules_agree(n: usize, b: usize, aa: usize, sizes: &[usize], tag: &str) {
        let m = test_matrix(n, b, aa, 5);
        let part = Partitioning::from_sizes(sizes);
        let pool = dalia_pool::ThreadPool::new(4);
        let fs = pool
            .install(|| d_pobtaf_scheduled(&m, &part, InteriorSchedule::Stealable))
            .unwrap();
        let fi = d_pobtaf_scheduled(&m, &part, InteriorSchedule::Indivisible).unwrap();
        assert_factors_bitwise_equal(&fs, &fi, tag);

        let rhs0 = test_rhs(m.dim(), 2);
        let mut xs = rhs0.clone();
        pool.install(|| d_pobtas_scheduled(&fs, &mut xs, InteriorSchedule::Stealable));
        let mut xi = rhs0.clone();
        d_pobtas_scheduled(&fi, &mut xi, InteriorSchedule::Indivisible);
        assert_eq!(xs.max_abs_diff(&xi), 0.0, "{tag}: solve schedules");

        let ss = pool.install(|| d_pobtasi_scheduled(&fs, InteriorSchedule::Stealable));
        let si = d_pobtasi_scheduled(&fi, InteriorSchedule::Indivisible);
        assert_selinv_bitwise_equal(&ss, &si, tag);

        let seq = pobtaf(&m).unwrap();
        let mut xq = rhs0.clone();
        pobtas(&seq, &mut xq);
        assert!(xs.max_abs_diff(&xq) < 1e-8, "{tag}: solve vs sequential");
        let sq = pobtasi(&seq);
        for i in 0..n {
            assert!(
                sq.blocks.diag[i].max_abs_diff(&ss.blocks.diag[i]) < 1e-8,
                "{tag}: selected-inverse diag {i} vs sequential"
            );
        }
    }

    #[test]
    fn schedules_agree_on_skewed_layout() {
        check_schedules_agree(8, STEAL_MIN_BLOCK + 16, 2, &[5, 1, 1, 1], "skewed");
    }

    #[test]
    fn schedules_agree_with_empty_interiors() {
        // P = n: every partition is a single block, all interiors empty.
        check_schedules_agree(4, STEAL_MIN_BLOCK + 16, 1, &[1, 1, 1, 1], "empty-interior");
    }

    #[test]
    fn schedules_agree_without_arrow() {
        check_schedules_agree(8, STEAL_MIN_BLOCK + 16, 0, &[5, 1, 1, 1], "no-arrow");
    }

    #[test]
    fn schedules_agree_on_one_thread() {
        // On a 1-thread pool the stealable schedule never forks; pin that
        // the fallback path is the same computation.
        let m = test_matrix(8, STEAL_MIN_BLOCK + 16, 2, 5);
        let part = Partitioning::from_sizes(&[5, 1, 1, 1]);
        let pool = dalia_pool::ThreadPool::new(1);
        let fs = pool
            .install(|| d_pobtaf_scheduled(&m, &part, InteriorSchedule::Stealable))
            .unwrap();
        let fi = d_pobtaf_scheduled(&m, &part, InteriorSchedule::Indivisible).unwrap();
        assert_factors_bitwise_equal(&fs, &fi, "1-thread");
        let rhs0 = test_rhs(m.dim(), 2);
        let mut xs = rhs0.clone();
        pool.install(|| d_pobtas_scheduled(&fs, &mut xs, InteriorSchedule::Stealable));
        let mut xi = rhs0.clone();
        d_pobtas_scheduled(&fi, &mut xi, InteriorSchedule::Indivisible);
        assert_eq!(xs.max_abs_diff(&xi), 0.0, "1-thread: solve schedules");
        let ss = pool.install(|| d_pobtasi_scheduled(&fs, InteriorSchedule::Stealable));
        let si = d_pobtasi_scheduled(&fi, InteriorSchedule::Indivisible);
        assert_selinv_bitwise_equal(&ss, &si, "1-thread");
    }

    #[test]
    fn skewed_partitioning_matches_sequential() {
        // A deliberately imbalanced 1-big/N-tiny layout (the shape the
        // stealable schedule exists for) still reproduces the sequential
        // factorization's quantities.
        let (n, b, aa) = (12, 3, 2);
        let m = test_matrix(n, b, aa, 99);
        let part = Partitioning::from_sizes(&[9, 1, 1, 1]);
        let seq = pobtaf(&m).unwrap();
        let dist = d_pobtaf(&m, &part).unwrap();
        assert!(
            (seq.logdet().unwrap() - dist.logdet().unwrap()).abs()
                < 1e-8 * (1.0 + seq.logdet().unwrap().abs()),
            "skewed logdet mismatch: {} vs {}",
            seq.logdet().unwrap(),
            dist.logdet().unwrap()
        );
        let rhs0 = test_rhs(m.dim(), 2);
        let mut rhs_seq = rhs0.clone();
        pobtas(&seq, &mut rhs_seq);
        let mut rhs_dist = rhs0.clone();
        d_pobtas(&dist, &mut rhs_dist);
        assert!(rhs_seq.max_abs_diff(&rhs_dist) < 1e-8, "skewed solve mismatch");
        let sel_seq = pobtasi(&seq);
        let sel_dist = d_pobtasi(&dist);
        for i in 0..n {
            assert!(
                sel_seq.blocks.diag[i].max_abs_diff(&sel_dist.blocks.diag[i]) < 1e-8,
                "skewed selected-inverse diag {i} mismatch"
            );
        }
    }
}
