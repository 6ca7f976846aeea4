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
//! # One sweep per phase
//!
//! Each phase has one loop over block columns, and a monolithic factor is its
//! no-separator case:
//!
//! * **Factorization** — `factor_columns` eliminates block columns in place.
//!   A partition interior is copied once into its own [`BtaMatrix`] and runs
//!   the same loop with its separator couplings (left fill `W_j`, right
//!   coupling `R`) and Schur accumulators; its `tip` collects the
//!   partition's `−Σ C_j C_jᵀ` update to the arrow tip and is never
//!   factorized. [`pobtaf`], the reduced system, and the streaming kernels
//!   run the loop with no separators and factorize the tip.
//! * **Solve and selected inversion** — `Span` is one run of factor columns
//!   with an optional left and right separator, and its three sweeps
//!   (`forward`, `backward`, `selected_inverse`) are the only forward
//!   substitution, backward substitution and selected-inversion loops in
//!   this crate. [`pobtas`](crate::pobtas), `pobtas_lt` and
//!   [`pobtasi`](crate::pobtasi) run them over the whole factor with no
//!   separators, inline on one buffer; the tip solve and the tip inverse stay
//!   with those callers.
//!
//! # Stealable partition interiors
//!
//! A partition interior is not one indivisible task: [`d_pobtaf`],
//! [`d_pobtas`] and [`d_pobtasi`] express the per-column DAG of every
//! interior block column as `join`-structured subtasks. In the factorization
//! the diagonal `potrf` stays on the critical path, then the three
//! independent `trsm` solves against `L_jjᵀ` (sub-diagonal coupling, arrow
//! panel `C`, left-separator fill `W`) fork as one join group, and the Schur
//! accumulation / next-column propagation (which touch disjoint output
//! blocks) fork as a second. The solve forks the three separator/tip
//! right-hand-side accumulations per column, and the selected inversion forks
//! the three independent selected-inverse columns (`Σ_{ls,j}`,
//! `Σ_{j+1,j}`/`Σ_{rs,j}`, `Σ_{T,j}`) between the `L_jj⁻¹` solve and the
//! diagonal recovery, both on the critical path: `L_jj⁻¹` is a right-side
//! solve `X L_jj = I`, and the diagonal block a gemm with `L_jj⁻ᵀ`.
//! Each subtask owns a dedicated [`PackBuffer`] lane so
//! the packed micro-kernels never contend for workspace. An idle worker can
//! therefore steal *inside* a single huge partition — the skewed
//! 1-big/N-tiny layout scales instead of serializing the whole S3 fan-out
//! (see `pool_bench`'s skewed-partition scenario and the watchdogged stress
//! test in `crates/hpc/tests/pool_stress.rs`).
//!
//! Splitting changes only *where* each block operation runs, never its
//! operand values or kernel call sequence, so the factors, solutions and
//! selected inverses are **bitwise identical** to the inline run on a
//! 1-worker pool — pinned by the `*_bitwise_match_indivisible` and
//! `schedules_agree_*` tests below and by the parallel-vs-sequential session
//! proptest in `tests/session_reuse.rs`.
//!
//! # The reduced system
//!
//! * **Schur assembly** is a linear sum in partition order: reduced block `k`
//!   takes partition `k`'s right-separator update plus partition `k + 1`'s
//!   left-separator update, summed first and subtracted once, and the tip
//!   adds every partition's (negative) update left to right, then `T`. The
//!   order is a function of `P` alone, so the reduced matrix is bitwise
//!   independent of the worker count.
//! * **Reduced-system factorization** runs through the same column loop as
//!   [`pobtaf`]: the right-looking trailing updates of each reduced block column (the `trsm` pair, then the
//!   `syrk`/`gemm`/`syrk` Schur and arrow updates) fork as join groups with
//!   per-subtask [`PackBuffer`] lanes, exactly like the stealable interiors.
//!   Small blocks, a single reduced column or a 1-thread pool run the column
//!   steps inline; either way the factor is bitwise identical to
//!   [`pobtaf`]'s.
//!
//! The three phases compute the same paper quantities as the monolithic
//! kernels (`log |Q|`, `Q⁻¹ r`, `diag(Q⁻¹)`):
//!
//! 1. **`d_pobtaf`** — the column loop on every partition interior
//!    (parallel), the Schur assembly onto the separators/tip, then the column
//!    loop on the reduced `(P−1)`-block BTA system — the stage whose
//!    sequential cost bounds the scalability the paper's Fig. 5 measures.
//! 2. **`d_pobtas`** — the forward sweep on every interior (parallel), the
//!    monolithic solve of the reduced system, and the backward sweep on every
//!    interior (parallel).
//! 3. **`d_pobtasi`** — the monolithic selected inversion of the reduced
//!    system, then the selected-inversion sweep on every interior
//!    (parallel).
//!
//! Every partition task owns three [`PackBuffer`] lanes, one per subtask of
//! its widest join group, so the packed micro-kernels in `dalia_la::blas`
//! never contend for workspace; the lanes are reused across all block
//! columns of that partition. The caller's [`PackBuffer`] carries the
//! reduced-system solve and selected inversion of [`d_pobtas`] and
//! [`d_pobtasi`], and the whole pass when the factor has one partition. One
//! function, `Lanes::new`, decides for every column loop whether its steps
//! fork or run inline, from what it can observe: the block size, the number
//! of block columns and the pool width.

use crate::bta::{BtaCholesky, BtaMatrix};
use crate::partition::Partitioning;
use crate::sequential::{pobtaf, pobtas_with, pobtasi_with, BtaSelectedInverse};
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
    /// The interior's factor blocks in BTA layout (`blocks.n = e − s`):
    /// `L_jj`, `L_{j+1,j}` and `L_{T,j}`. Its `tip` is no factor block: it
    /// holds the partition's update `−Σ_j L_{T,j} L_{T,j}ᵀ` to the arrow tip.
    pub blocks: BtaMatrix,
    /// `L_{ls,j}` coupling every interior block to the left separator (empty
    /// for partition 0 and empty interiors).
    pub left: Vec<Matrix>,
    /// `L_{rs,e−1}` coupling of the last interior block to the right
    /// separator (absent for the last partition or empty interiors).
    pub right: Option<Matrix>,
}

impl PartitionFactor {
    fn span(&self) -> Span<'_> {
        Span { blocks: &self.blocks, start: self.interior.0, left: &self.left, right: self.right.as_ref() }
    }
}

/// Schur-complement updates of one partition onto the separator blocks of
/// the reduced system; its tip update is [`PartitionFactor::blocks`]' tip.
#[derive(Clone, Debug)]
struct SchurContribution {
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
}

impl SchurContribution {
    /// Add one interior column's products `W Wᵀ`, `R Rᵀ`, `R Wᵀ`, `C Wᵀ` and
    /// `C Rᵀ` for whichever of its left fill `w`, right coupling `r` and
    /// arrow panel `c` the column has.
    fn accumulate(&mut self, pk: &mut PackBuffer, w: Option<&Matrix>, r: Option<&Matrix>, c: Option<&Matrix>) {
        for (s, x) in [(&mut self.s_ll, w), (&mut self.s_rr, r)] {
            if let (Some(s), Some(x)) = (s.as_mut(), x) {
                blas::syrk_full_with(pk, Trans::No, 1.0, x, 1.0, s);
            }
        }
        for (s, x, y) in [(&mut self.s_rl, r, w), (&mut self.s_al, c, w), (&mut self.s_ar, c, r)] {
            if let (Some(s), Some(x), Some(y)) = (s.as_mut(), x, y) {
                blas::gemm_with(pk, Trans::No, Trans::Yes, 1.0, x, y, 1.0, s);
            }
        }
    }
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
                    pf.blocks.add_log_pivots(pf.interior.0, false, &mut s)?;
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

/// Below this diagonal block size the column subtasks are too small to repay
/// the fork overhead (a `trsm` at `b = 48` is a few microseconds), so the
/// column steps run inline. Scheduling only — results are bitwise identical
/// either way.
pub(crate) const STEAL_MIN_BLOCK: usize = 48;

/// Pack-buffer lanes of one column loop: one per subtask of a forked join
/// group (no group has more than three), reused across all block columns of
/// the loop, so the packed micro-kernels never contend for workspace and a
/// warm loop allocates nothing per column.
pub(crate) type PackLanes = [PackBuffer; 3];

/// How a column loop runs the join groups of its column steps.
pub(crate) enum Lanes<'a> {
    /// Every subtask runs in order on one shared buffer.
    Inline(&'a mut PackBuffer),
    /// Subtask `k` of each join group runs on lane `k`, forked onto the pool.
    Forked(&'a mut PackLanes),
}

impl<'a> Lanes<'a> {
    /// The fork decision of every BTA column loop: fork when the blocks
    /// reach `STEAL_MIN_BLOCK`, the loop has more than one block column to
    /// overlap and the pool has more than one worker; otherwise run inline
    /// on the first lane.
    pub(crate) fn new(lanes: &'a mut PackLanes, b: usize, columns: usize) -> Self {
        if b >= STEAL_MIN_BLOCK && columns > 1 && dalia_pool::current_num_threads() > 1 {
            Lanes::Forked(lanes)
        } else {
            Lanes::Inline(&mut lanes[0])
        }
    }

    /// The buffer for the kernels between join groups (the critical path).
    pub(crate) fn main(&mut self) -> &mut PackBuffer {
        match self {
            Lanes::Inline(pack) => pack,
            Lanes::Forked(lanes) => &mut lanes[0],
        }
    }

    /// Run the independent subtasks `f`, `g` and (if any) `h` of one column
    /// step, each handed its pack lane: in order on the shared buffer, or as
    /// one `join`-structured fork whose subtasks idle workers can steal. The
    /// subtasks write disjoint outputs, so forking changes scheduling only.
    pub(crate) fn fork<F, G, H>(&mut self, f: F, g: G, h: Option<H>)
    where
        F: FnOnce(&mut PackBuffer) + Send,
        G: FnOnce(&mut PackBuffer) + Send,
        H: FnOnce(&mut PackBuffer) + Send,
    {
        match self {
            Lanes::Inline(pack) => {
                f(pack);
                g(pack);
                if let Some(h) = h {
                    h(pack);
                }
            }
            Lanes::Forked([x, y, z]) => match h {
                None => {
                    dalia_pool::join(|| f(x), || g(y));
                }
                Some(h) => {
                    dalia_pool::join(|| f(x), || dalia_pool::join(|| g(y), || h(z)));
                }
            },
        }
    }
}

/// The separator couplings a partition interior carries through
/// [`factor_columns`].
pub(crate) struct Separators<'a> {
    /// Global index of the interior's first block column, for error reports.
    first: usize,
    /// Left-separator fill `W_j`, one per column, or empty without a left
    /// separator: `W_0` holds the original coupling, the rest are
    /// overwritten by `W_{j+1} = −W_j L_{j+1,j}ᵀ`.
    left: &'a mut [Matrix],
    /// Right-separator coupling `R` of the last column.
    right: Option<&'a mut Matrix>,
    /// Accumulators of the Schur updates onto the separators.
    schur: &'a mut SchurContribution,
}

/// `x := x L⁻ᵀ` for an `x` that exists, as a join-group subtask.
fn divide_lt<'a>(l: &'a Matrix, x: Option<&'a mut Matrix>) -> impl FnOnce(&mut PackBuffer) + Send + 'a {
    move |pk| {
        if let Some(x) = x {
            blas::trsm_with(pk, Side::Right, Triangle::Lower, Trans::Yes, l, x);
        }
    }
}

/// The block Cholesky column loop behind every BTA factorization: eliminate
/// block columns `start .. n` of `m` in place, assuming columns `0 .. start`
/// already hold factor values and the working blocks of column `start` carry
/// all Schur updates from them.
///
/// Without `seps` (a monolithic factor: [`pobtaf`], the reduced system of
/// [`d_pobtaf`], the streaming kernels) the loop ends with the tip `potrf`.
/// With `seps` (a partition interior) the last column's coupling is the
/// right separator's `R`, every column also carries its left-separator fill
/// `W_j`, and the Schur updates onto the separators accumulate alongside
/// `T −= C_i C_iᵀ`; the tip then holds the partition's tip update and is not
/// factorized.
///
/// Per column the diagonal `potrf` stays on the critical path; the
/// independent `trsm` solves against `L_iiᵀ` (sub-diagonal `B_i` or `R`,
/// arrow panel `C_i`, fill `W_i`) form one join group, and the trailing
/// updates with disjoint outputs (`D_{i+1} −= B_i B_iᵀ`;
/// `C_{i+1} −= C_i B_iᵀ` and `W_{i+1} = −W_i B_iᵀ`; `T −= C_i C_iᵀ` and the
/// separator updates) a second. Inline and forked `lanes` issue the same
/// kernel calls on the same operands, so the factor is bitwise independent
/// of the worker count.
pub(crate) fn factor_columns(
    m: &mut BtaMatrix,
    start: usize,
    lanes: &mut Lanes,
    seps: Option<Separators>,
) -> Result<(), SerinvError> {
    let n = m.n;
    let has_arrow = m.a > 0;
    let monolithic = seps.is_none();
    let (first, left, mut right, mut schur) = match seps {
        Some(s) => (s.first, s.left, s.right, Some(s.schur)),
        None => (0, &mut [][..], None, None),
    };
    for i in start..n {
        let last = i + 1 == n;
        // D_i = L_ii L_iiᵀ — the critical path of the column.
        chol::potrf_with(lanes.main(), &mut m.diag[i])
            .map_err(|e| SerinvError::Factorization { block: first + i, source: e })?;

        let l_ii = &m.diag[i];
        let below = if last { right.as_deref_mut() } else { Some(&mut m.sub[i]) };
        let arrow = if has_arrow { Some(&mut m.arrow[i]) } else { None };
        lanes.fork(
            divide_lt(l_ii, below),
            divide_lt(l_ii, arrow),
            left.get_mut(i).map(|w| divide_lt(l_ii, Some(w))),
        );

        let (_, diag_tail) = m.diag.split_at_mut(i + 1);
        let (arrow_head, arrow_tail) = m.arrow.split_at_mut(i + 1);
        let (left_head, left_tail) = left.split_at_mut((i + 1).min(left.len()));
        let b_i = if last { None } else { Some(&m.sub[i]) };
        let c_i = if has_arrow { Some(&arrow_head[i]) } else { None };
        let w_i = left_head.get(i);
        let r = if last { right.as_deref() } else { None };
        let next_diag = diag_tail.first_mut();
        let next_arrow = if has_arrow { arrow_tail.first_mut() } else { None };
        let next_left = left_tail.first_mut();
        let (tip, schur) = (&mut m.tip, schur.as_deref_mut());
        lanes.fork(
            move |pk| {
                if let (Some(nd), Some(bi)) = (next_diag, b_i) {
                    blas::syrk_full_with(pk, Trans::No, -1.0, bi, 1.0, nd);
                }
            },
            move |pk| {
                if let (Some(na), Some(ci), Some(bi)) = (next_arrow, c_i, b_i) {
                    blas::gemm_with(pk, Trans::No, Trans::Yes, -1.0, ci, bi, 1.0, na);
                }
                if let (Some(nl), Some(wi), Some(bi)) = (next_left, w_i, b_i) {
                    blas::gemm_with(pk, Trans::No, Trans::Yes, -1.0, wi, bi, 0.0, nl);
                }
            },
            Some(move |pk: &mut PackBuffer| {
                if let Some(ci) = c_i {
                    blas::syrk_full_with(pk, Trans::No, -1.0, ci, 1.0, tip);
                }
                if let Some(s) = schur {
                    s.accumulate(pk, w_i, r, c_i);
                }
            }),
        );
    }
    if has_arrow && monolithic {
        chol::potrf_with(lanes.main(), &mut m.tip)
            .map_err(|e| SerinvError::Factorization { block: n, source: e })?;
    }
    Ok(())
}

/// Interior elimination of partition `p`: its blocks are copied once into a
/// BTA matrix of their own and eliminated in place by [`factor_columns`]
/// with the partition's separator couplings. Returns the partition factor
/// and its Schur updates onto the separators.
fn factor_interior(
    a: &BtaMatrix,
    part: &Partitioning,
    p: usize,
) -> Result<(PartitionFactor, SchurContribution), SerinvError> {
    let (s, e) = part.interior(p);
    let (len, b, aa) = (e - s, a.b, a.a);
    let has_left = p > 0;
    let has_right = p + 1 < part.num_partitions();
    let mut blocks = BtaMatrix {
        n: len,
        b,
        a: aa,
        diag: a.diag[s..e].to_vec(),
        sub: a.sub[s..s + len.saturating_sub(1)].to_vec(),
        arrow: a.arrow[s..e].to_vec(),
        tip: Matrix::zeros(aa, aa),
    };
    // The first interior column couples to the left separator through
    // `B_{s−1}ᵀ` (the separator is eliminated later); the fill of the later
    // columns starts from zero.
    let mut left: Vec<Matrix> = if has_left && len > 0 {
        (s..e).map(|j| if j == s { a.sub[s - 1].transpose() } else { Matrix::zeros(b, b) }).collect()
    } else {
        Vec::new()
    };
    let mut right = (has_right && len > 0).then(|| a.sub[e - 1].clone());
    let zeros = |rows: usize, on: bool| on.then(|| Matrix::zeros(rows, b));
    let mut schur = SchurContribution {
        s_ll: zeros(b, has_left),
        s_rr: zeros(b, has_right),
        s_rl: zeros(b, has_left && has_right),
        s_al: zeros(aa, has_left),
        s_ar: zeros(aa, has_right),
    };
    let seps = Separators { first: s, left: &mut left, right: right.as_mut(), schur: &mut schur };
    let mut pack_lanes = PackLanes::default();
    factor_columns(&mut blocks, 0, &mut Lanes::new(&mut pack_lanes, b, len), Some(seps))?;
    Ok((PartitionFactor { p, interior: (s, e), blocks, left, right }, schur))
}

/// Assemble the reduced BTA system over the separators + tip from the original
/// matrix and the partitions' Schur updates, in partition order.
///
/// Reduced block `k` is separator `k`: partition `k` updates it through its
/// right separator and partition `k + 1` through its left one, so its
/// diagonal and arrow updates are the sum of those two, subtracted once. The
/// tip adds every partition's tip update (`−Σ C Cᵀ`) left to right, then
/// `T`. The accumulation order is a function of `P` alone, never of the
/// worker count.
fn assemble_reduced(
    a: &BtaMatrix,
    part: &Partitioning,
    partitions: &[PartitionFactor],
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

    for k in 0..n_red {
        let (head, tail) = contribs.split_at_mut(k + 1);
        let (left, right) = (&mut head[k], &tail[0]);
        if let (Some(d), Some(d_right)) = (left.s_rr.as_mut(), right.s_ll.as_ref()) {
            d.axpy(1.0, d_right);
            reduced.diag[k].axpy(-1.0, d);
        }
        // Coupling between reduced blocks k+1 (row) and k (column).
        if let Some(rl) = right.s_rl.as_ref() {
            reduced.sub[k].axpy(-1.0, rl);
        }
        if aa > 0 {
            if let (Some(c), Some(c_right)) = (left.s_ar.as_mut(), right.s_al.as_ref()) {
                c.axpy(1.0, c_right);
                reduced.arrow[k].axpy(-1.0, c);
            }
        }
    }
    let (first, rest) = partitions.split_first().expect("a partitioned factor has two or more partitions");
    reduced.tip = first.blocks.tip.clone();
    for pf in rest {
        reduced.tip.axpy(1.0, &pf.blocks.tip);
    }
    reduced.tip.axpy(1.0, &a.tip);
    reduced
}

/// Distributed BTA Cholesky factorization (`d_pobtaf`): the column loop on
/// every partition interior in parallel, the Schur assembly onto the
/// separators and tip, then the column loop on the reduced system. On a
/// multi-worker pool with blocks of at least 48 the column steps fork as
/// stealable join groups; the factor is bitwise identical at any worker
/// count. One partition is the sequential [`pobtaf`].
pub fn d_pobtaf(a: &BtaMatrix, part: &Partitioning) -> Result<DistBtaCholesky, SerinvError> {
    assert_eq!(part.num_blocks(), a.n, "partitioning does not match the matrix");
    let num_parts = part.num_partitions();
    if num_parts == 1 {
        return Ok(DistBtaCholesky::Sequential(pobtaf(a)?));
    }
    let results: Result<Vec<_>, SerinvError> = (0..num_parts)
        .into_par_iter()
        .map(|p| factor_interior(a, part, p))
        .collect();
    let (partitions, mut contribs): (Vec<_>, Vec<_>) = results?.into_iter().unzip();
    let mut reduced = assemble_reduced(a, part, &partitions, &mut contribs);
    let mut pack_lanes = PackLanes::default();
    let mut lanes = Lanes::new(&mut pack_lanes, a.b, num_parts - 1);
    factor_columns(&mut reduced, 0, &mut lanes, None)?;
    Ok(DistBtaCholesky::Partitioned {
        structure: (a.n, a.b, a.a),
        partitioning: part.clone(),
        partitions,
        reduced: BtaCholesky { blocks: reduced },
    })
}

/// One run of factor block columns: columns `start .. start + blocks.n` of
/// the whole matrix, with the fill `W_j` coupling every column to a left
/// separator and the coupling `R` of the last column to a right separator.
/// A partition interior is a span with the separators it has; a monolithic
/// factor (and the reduced system) is the span of all its columns with
/// neither.
#[derive(Clone, Copy)]
pub(crate) struct Span<'a> {
    blocks: &'a BtaMatrix,
    start: usize,
    left: &'a [Matrix],
    right: Option<&'a Matrix>,
}

/// What the forward sweep over a span leaves for the rows outside it.
pub(crate) struct Forward {
    /// The solved blocks `y_j` of the span's columns.
    pub(crate) y: Vec<Matrix>,
    /// `Σ W_j y_j`, for the left separator's rows to subtract.
    left: Option<Matrix>,
    /// `R y_last`, for the right separator's rows to subtract.
    right: Option<Matrix>,
    /// `Σ C_j y_j`, for the tip rows to subtract.
    pub(crate) tip: Matrix,
}

/// The selected inverse on a span's separators and the arrow tip, which its
/// selected-inversion sweep reads: `Σ_{ls,ls}`, `Σ_{rs,rs}`, `Σ_{rs,ls}`,
/// `Σ_{T,ls}`, `Σ_{T,rs}` where they exist, and `Σ_TT`.
pub(crate) struct Boundary<'a> {
    pub(crate) ls_ls: Option<&'a Matrix>,
    pub(crate) rs_rs: Option<&'a Matrix>,
    pub(crate) rs_ls: Option<&'a Matrix>,
    pub(crate) t_ls: Option<&'a Matrix>,
    pub(crate) t_rs: Option<&'a Matrix>,
    pub(crate) tt: &'a Matrix,
}

/// The selected inverse on a span's columns, in the span's layout.
pub(crate) struct SpanInverse {
    /// `Σ_jj` of every column.
    pub(crate) diag: Vec<Matrix>,
    /// `Σ_{j+1,j}` within the span.
    pub(crate) sub: Vec<Matrix>,
    /// `Σ_{T,j}` of every column (`0 × b` without an arrow).
    pub(crate) arrow: Vec<Matrix>,
    /// `Σ_{ls,j}` of every column, or empty without a left separator.
    left: Vec<Matrix>,
    /// `Σ_{rs,last}`, with a right separator.
    right: Option<Matrix>,
}

/// `out += l y` when both `out` and `l` exist, as a join-group subtask.
fn accumulate<'a>(
    out: Option<&'a mut Matrix>,
    l: Option<&'a Matrix>,
    y: &'a Matrix,
) -> impl FnOnce(&mut PackBuffer) + Send + 'a {
    move |pk| {
        if let (Some(out), Some(l)) = (out, l) {
            blas::gemm_with(pk, Trans::No, Trans::No, 1.0, l, y, 1.0, out);
        }
    }
}

/// One selected-inverse block of a column: `−(Σ_k op(S_k) L_k) L_jj⁻¹` over
/// the terms whose blocks exist, accumulated in the given order.
///
/// `spare` is the caller's block of the output's shape, kept for the whole
/// call: the sum accumulates in a new block, the product lands in `spare`,
/// and the two swap. The block returned is the spare's storage and the sum's
/// becomes the next column's spare, so the block the call frees at its end
/// is the last one it allocated. Under glibc's allocator that faults fewer
/// pages back in per call than keeping one spare does (see "Selected
/// inversion" in `docs/performance.md`).
fn sigma_block(
    pk: &mut PackBuffer,
    spare: &mut Matrix,
    terms: &[(Trans, Option<&Matrix>, Option<&Matrix>)],
    l_inv: &Matrix,
) -> Matrix {
    let mut sum = Matrix::zeros(spare.nrows(), l_inv.ncols());
    for &(t, s, l) in terms {
        if let (Some(s), Some(l)) = (s, l) {
            blas::gemm_with(pk, t, Trans::No, -1.0, s, l, 1.0, &mut sum);
        }
    }
    blas::gemm_with(pk, Trans::No, Trans::No, 1.0, &sum, l_inv, 0.0, spare);
    std::mem::swap(spare, &mut sum);
    sum
}

impl<'a> Span<'a> {
    /// The span of every column of a monolithic factor.
    pub(crate) fn whole(blocks: &'a BtaMatrix) -> Self {
        Span { blocks, start: 0, left: &[], right: None }
    }

    /// Write the span's blocks `x` into its rows of `rhs`.
    pub(crate) fn scatter(&self, rhs: &mut Matrix, x: &[Matrix]) {
        for (j, xj) in x.iter().enumerate() {
            rhs.set_block((self.start + j) * self.blocks.b, 0, xj);
        }
    }

    /// Forward substitution `L y = r` over the span's columns, `r` read from
    /// the span's rows of `rhs`. The updates of the left separator, right
    /// separator and tip rows read each `y_j` and write disjoint outputs, so
    /// they form one join group per column.
    pub(crate) fn forward(&self, rhs: &Matrix, lanes: &mut Lanes) -> Forward {
        let m = self.blocks;
        let (len, b, k) = (m.n, m.b, rhs.ncols());
        let mut y: Vec<Matrix> = Vec::with_capacity(len);
        let mut left = (!self.left.is_empty()).then(|| Matrix::zeros(b, k));
        let mut right = self.right.map(|_| Matrix::zeros(b, k));
        let mut tip = Matrix::zeros(m.a, k);
        for j in 0..len {
            let mut yj = rhs.block((self.start + j) * b, 0, b, k);
            if j > 0 {
                blas::gemm_with(lanes.main(), Trans::No, Trans::No, -1.0, &m.sub[j - 1], &y[j - 1], 1.0, &mut yj);
            }
            blas::trsm_with(lanes.main(), Side::Left, Triangle::Lower, Trans::No, &m.diag[j], &mut yj);
            let r = if j + 1 == len { self.right } else { None };
            let c = if m.a > 0 { Some(&m.arrow[j]) } else { None };
            lanes.fork(
                accumulate(left.as_mut(), self.left.get(j), &yj),
                accumulate(right.as_mut(), r, &yj),
                Some(accumulate(Some(&mut tip), c, &yj)),
            );
            y.push(yj);
        }
        Forward { y, left, right, tip }
    }

    /// Backward substitution `Lᵀ x = y` over the span's columns, `y` read
    /// from the span's rows of `rhs`, given the solutions of the separators
    /// and the tip. The separator and tip back-couplings accumulate in a
    /// buffer of their own so they can fork against the carried sub-diagonal
    /// term; inline and forked lanes run the same sequence.
    pub(crate) fn backward(
        &self,
        rhs: &Matrix,
        x_left: Option<&Matrix>,
        x_right: Option<&Matrix>,
        x_tip: Option<&Matrix>,
        lanes: &mut Lanes,
    ) -> Vec<Matrix> {
        let m = self.blocks;
        let (len, b, k) = (m.n, m.b, rhs.ncols());
        let mut x = vec![Matrix::zeros(0, 0); len];
        let mut ext = Matrix::zeros(if len > 0 { b } else { 0 }, k);
        for j in (0..len).rev() {
            let mut t = rhs.block((self.start + j) * b, 0, b, k);
            ext.fill_zero();
            let carried = if j + 1 < len { Some((&m.sub[j], &x[j + 1])) } else { None };
            let r = if j + 1 == len { self.right } else { None };
            let couplings = [(self.left.get(j), x_left), (r, x_right), (x_tip.map(|_| &m.arrow[j]), x_tip)];
            let (t_ref, ext_ref) = (&mut t, &mut ext);
            lanes.fork(
                move |pk| {
                    if let Some((l, xn)) = carried {
                        blas::gemm_with(pk, Trans::Yes, Trans::No, -1.0, l, xn, 1.0, t_ref);
                    }
                },
                move |pk| {
                    for (l, xs) in couplings {
                        if let (Some(l), Some(xs)) = (l, xs) {
                            blas::gemm_with(pk, Trans::Yes, Trans::No, -1.0, l, xs, 1.0, ext_ref);
                        }
                    }
                },
                None::<fn(&mut PackBuffer)>,
            );
            t.axpy(1.0, &ext);
            blas::trsm_with(lanes.main(), Side::Left, Triangle::Lower, Trans::Yes, &m.diag[j], &mut t);
            x[j] = t;
        }
        x
    }

    /// Selected inversion over the span's columns, right to left, given the
    /// selected inverse on its separators and the tip. Each column reads its
    /// right neighbour's blocks from the output; its three Σ blocks —
    /// `Σ_{ls,j}`, `Σ_{j+1,j}` (or `Σ_{rs,j}`) and `Σ_{T,j}` — write disjoint
    /// outputs and form one join group between the `L_jj⁻¹` solve and the
    /// diagonal block.
    ///
    /// A column makes one triangular solve, on the critical path before the
    /// join group: `L_jj⁻¹` as the right-side solve `X L_jj = I`, whose
    /// blocked kernel runs its diagonal blocks as contiguous column `axpy`s
    /// over all rows (a left-side solve substitutes one right-hand side at a
    /// time, at a fraction of the rate). The diagonal block
    /// `Σ_jj = L_jj⁻ᵀ (L_jj⁻¹ − Σ_k L_{k,j}ᵀ Σ_{k,j})` is then a gemm with the
    /// explicit `L_jj⁻ᵀ`, symmetrized. `L_jj⁻¹` and the inner sum are scratch
    /// of the call, and each of the three Σ products keeps one spare block of
    /// its shape (see `sigma_block`).
    pub(crate) fn selected_inverse(&self, sig: &Boundary, lanes: &mut Lanes) -> SpanInverse {
        let m = self.blocks;
        let (len, b, a) = (m.n, m.b, m.a);
        let has_left = !self.left.is_empty();
        let empty = Matrix::zeros(0, b);
        let mut out = SpanInverse {
            diag: vec![empty.clone(); len],
            sub: vec![empty.clone(); len.saturating_sub(1)],
            arrow: vec![empty.clone(); len],
            left: vec![empty; if has_left { len } else { 0 }],
            right: None,
        };
        let spare = |rows: usize| Matrix::zeros(if len > 0 { rows } else { 0 }, b);
        let mut spare_left = spare(if has_left { b } else { 0 });
        let mut spare_below = spare(b);
        let mut spare_tip = spare(a);
        let (mut l_inv, mut inner) = (spare(b), spare(b));
        for j in (0..len).rev() {
            let last = j + 1 == len;
            let l_jj = &m.diag[j];
            l_inv.fill_zero();
            for i in 0..b {
                l_inv[(i, i)] = 1.0;
            }
            blas::trsm_with(lanes.main(), Side::Right, Triangle::Lower, Trans::No, l_jj, &mut l_inv);

            let (w, c) = (self.left.get(j), Some(&m.arrow[j]));
            let b_j = if last { None } else { Some(&m.sub[j]) };
            let r = if last { self.right } else { None };
            // Σ_{j+1,j+1}, Σ_{ls,j+1} and Σ_{T,j+1}, from the previous step.
            let (nd, nl, na) = if last {
                (None, None, None)
            } else {
                (Some(&out.diag[j + 1]), out.left.get(j + 1), Some(&out.arrow[j + 1]))
            };
            let (mut s_left, mut s_below, mut s_tip) = (None, None, None);
            let (sl, sb, st, li) = (&mut s_left, &mut s_below, &mut s_tip, &l_inv);
            let (pl, pb, pt) = (&mut spare_left, &mut spare_below, &mut spare_tip);
            lanes.fork(
                move |pk| {
                    if has_left {
                        let terms = [
                            (Trans::No, nl, b_j),
                            (Trans::No, sig.ls_ls, w),
                            (Trans::Yes, sig.rs_ls, r),
                            (Trans::Yes, sig.t_ls, c),
                        ];
                        *sl = Some(sigma_block(pk, pl, &terms, li));
                    }
                },
                move |pk| {
                    let terms = if b_j.is_some() {
                        [(Trans::No, nd, b_j), (Trans::Yes, nl, w), (Trans::Yes, na.filter(|_| a > 0), c)]
                    } else {
                        [(Trans::No, sig.rs_rs, r), (Trans::No, sig.rs_ls, w), (Trans::Yes, sig.t_rs, c)]
                    };
                    if b_j.or(r).is_some() {
                        *sb = Some(sigma_block(pk, pb, &terms, li));
                    }
                },
                Some(move |pk: &mut PackBuffer| {
                    if a > 0 {
                        let terms = [
                            (Trans::No, na, b_j),
                            (Trans::No, sig.t_ls, w),
                            (Trans::No, sig.t_rs, r),
                            (Trans::No, Some(sig.tt), c),
                        ];
                        *st = Some(sigma_block(pk, pt, &terms, li));
                    }
                }),
            );

            // Σ_jj = L_jj⁻ᵀ (L_jj⁻¹ − Σ_k L_{k,j}ᵀ Σ_{k,j}), a product with
            // the explicit L_jj⁻ᵀ rather than a second triangular solve.
            inner.as_mut_slice().copy_from_slice(l_inv.as_slice());
            for (l, s) in [(b_j.or(r), &s_below), (w, &s_left), (c, &s_tip)] {
                if let (Some(l), Some(s)) = (l, s) {
                    blas::gemm_with(lanes.main(), Trans::Yes, Trans::No, -1.0, l, s, 1.0, &mut inner);
                }
            }
            let mut diag = Matrix::zeros(b, b);
            blas::gemm_with(lanes.main(), Trans::Yes, Trans::No, 1.0, &l_inv, &inner, 0.0, &mut diag);
            diag.symmetrize();
            out.diag[j] = diag;
            match s_below {
                Some(s) if last => out.right = Some(s),
                Some(s) => out.sub[j] = s,
                None => {}
            }
            if let Some(s) = s_tip {
                out.arrow[j] = s;
            }
            if let Some(s) = s_left {
                out.left[j] = s;
            }
        }
        out
    }
}

/// Distributed BTA triangular solve (`d_pobtas`, the paper's `PPOBTAS`).
///
/// Solves `A X = B` for the dense right-hand side `rhs` (overwritten with the
/// solution), given a distributed factorization. Every interior column forks
/// its independent subtasks as pool join groups: in the forward sweep the
/// three separator/tip right-hand-side accumulations (left fill `W`, right
/// coupling, arrow panel) run after the column's `trsm`; in the backward
/// sweep the carried sub-diagonal term and the external separator/tip
/// back-couplings fork against each other. Inline and forked lanes execute
/// the same kernel calls on the same operands, so the solution is **bitwise
/// identical** at any worker count.
///
/// `pack` is the caller's kernel workspace: the reduced-system solve runs on
/// it, and so does the whole solve of a one-partition factor
/// ([`pobtas_with`]).
pub fn d_pobtas(factor: &DistBtaCholesky, rhs: &mut Matrix, pack: &mut PackBuffer) {
    match factor {
        DistBtaCholesky::Sequential(f) => pobtas_with(f, rhs, pack),
        DistBtaCholesky::Partitioned { structure, partitioning, partitions, reduced } => {
            let (n, b, a) = *structure;
            assert_eq!(rhs.nrows(), n * b + a, "d_pobtas: rhs dimension mismatch");
            let (k, a0) = (rhs.ncols(), n * b);
            let seps = partitioning.separators();
            let n_red = seps.len();

            // Forward sweeps on the interiors (parallel).
            let shared: &Matrix = rhs;
            let forward: Vec<Forward> = partitions
                .par_iter()
                .map(|pf| {
                    let mut pack_lanes = PackLanes::default();
                    pf.span().forward(shared, &mut Lanes::new(&mut pack_lanes, b, pf.blocks.n))
                })
                .collect();

            // The reduced right-hand side: the separator and tip rows minus
            // the interiors' updates, in partition order.
            let mut reduced_rhs = Matrix::zeros(n_red * b + a, k);
            for (kk, &sep) in seps.iter().enumerate() {
                reduced_rhs.set_block(kk * b, 0, &rhs.block(sep * b, 0, b, k));
            }
            reduced_rhs.set_block(n_red * b, 0, &rhs.block(a0, 0, a, k));
            for (pf, fw) in partitions.iter().zip(&forward) {
                pf.span().scatter(rhs, &fw.y);
                if let Some(lu) = &fw.left {
                    reduced_rhs.add_block((pf.p - 1) * b, 0, -1.0, lu);
                }
                if let Some(ru) = &fw.right {
                    reduced_rhs.add_block(pf.p * b, 0, -1.0, ru);
                }
                reduced_rhs.add_block(n_red * b, 0, -1.0, &fw.tip);
            }

            pobtas_with(reduced, &mut reduced_rhs, pack);

            // The separator and tip solutions: written back, and read by
            // every interior's backward sweep (one extraction per block).
            let sep_x: Vec<Matrix> = (0..n_red).map(|kk| reduced_rhs.block(kk * b, 0, b, k)).collect();
            let tip_x = (a > 0).then(|| reduced_rhs.block(n_red * b, 0, a, k));
            for (x, &sep) in sep_x.iter().zip(&seps) {
                rhs.set_block(sep * b, 0, x);
            }
            if let Some(xt) = &tip_x {
                rhs.set_block(a0, 0, xt);
            }

            // Backward sweeps on the interiors (parallel).
            let shared: &Matrix = rhs;
            let solutions: Vec<Vec<Matrix>> = partitions
                .par_iter()
                .map(|pf| {
                    let x_left = (pf.p > 0).then(|| &sep_x[pf.p - 1]);
                    let x_right = sep_x.get(pf.p);
                    let mut pack_lanes = PackLanes::default();
                    let mut lanes = Lanes::new(&mut pack_lanes, b, pf.blocks.n);
                    pf.span().backward(shared, x_left, x_right, tip_x.as_ref(), &mut lanes)
                })
                .collect();
            for (pf, x) in partitions.iter().zip(&solutions) {
                pf.span().scatter(rhs, x);
            }
        }
    }
}

/// Distributed selected inversion (`d_pobtasi`): the selected inverse blocks
/// on the original BTA pattern, matching [`pobtasi`](crate::pobtasi) exactly.
///
/// Every interior column of the backward selected-inverse pass forks its
/// three independent Σ products — `Σ_{ls,j}` (left separator column),
/// `Σ_{j+1,j}` / `Σ_{rs,j}` (below-diagonal), and `Σ_{T,j}` (arrow row) — as
/// one pool join group with per-lane `PackBuffer`s; `L_jj⁻¹` and the
/// diagonal update stay on the critical path, before and after the group:
/// `L_jj⁻¹` is the right-side triangular solve `X L_jj = I`, and
/// `Σ_jj = L_jj⁻ᵀ (L_jj⁻¹ − Σ_k L_{k,j}ᵀ Σ_{k,j})` a gemm with the explicit
/// `L_jj⁻ᵀ`, then symmetrized. Inline and forked lanes
/// execute the same kernel calls on the same operands, so the selected
/// inverse is **bitwise identical** at any worker count.
///
/// `pack` is the caller's kernel workspace: the reduced-system selected
/// inversion runs on it, and so does the whole inversion of a one-partition
/// factor ([`pobtasi_with`]).
pub fn d_pobtasi(factor: &DistBtaCholesky, pack: &mut PackBuffer) -> BtaSelectedInverse {
    match factor {
        DistBtaCholesky::Sequential(f) => pobtasi_with(f, pack),
        DistBtaCholesky::Partitioned { structure, partitioning, partitions, reduced } => {
            let (n, b, a) = *structure;
            let seps = partitioning.separators();
            let red = pobtasi_with(reduced, pack).blocks;

            // Selected-inversion sweeps on the interiors (parallel), reading
            // the reduced blocks by reference.
            let parts: Vec<SpanInverse> = partitions
                .par_iter()
                .map(|pf| {
                    let p = pf.p;
                    let (has_left, has_right) = (p > 0, p < seps.len());
                    let sig = Boundary {
                        ls_ls: has_left.then(|| &red.diag[p - 1]),
                        rs_rs: has_right.then(|| &red.diag[p]),
                        rs_ls: (has_left && has_right).then(|| &red.sub[p - 1]),
                        t_ls: (has_left && a > 0).then(|| &red.arrow[p - 1]),
                        t_rs: (has_right && a > 0).then(|| &red.arrow[p]),
                        tt: &red.tip,
                    };
                    let mut pack_lanes = PackLanes::default();
                    pf.span().selected_inverse(&sig, &mut Lanes::new(&mut pack_lanes, b, pf.blocks.n))
                })
                .collect();

            // Assemble the output in column order by moving every block: each
            // partition's interior columns, then its right separator's, which
            // come straight from the reduced selected inverse.
            let (mut diag, mut arrow) = (Vec::with_capacity(n), Vec::with_capacity(n));
            let mut sub = Vec::with_capacity(n - 1);
            let BtaMatrix { diag: red_diag, sub: red_sub, arrow: red_arrow, tip, .. } = red;
            let mut red_sub = red_sub.into_iter();
            let mut red_seps = red_diag.into_iter().zip(red_arrow);
            for (pf, part) in partitions.iter().zip(parts) {
                if pf.p > 0 {
                    // The block below the left separator: Σ_{s,ls} = Σ_{ls,s}ᵀ,
                    // or, with no interior, the coupling of two adjacent
                    // separators in the reduced system.
                    let between = red_sub.next();
                    sub.push(match part.left.first() {
                        Some(m) => m.transpose(),
                        None => between.expect("an empty interior lies between two separators"),
                    });
                }
                diag.extend(part.diag);
                sub.extend(part.sub);
                sub.extend(part.right);
                arrow.extend(part.arrow);
                if let Some((d, c)) = red_seps.next() {
                    diag.push(d);
                    arrow.push(c);
                }
            }
            debug_assert_eq!((diag.len(), sub.len(), arrow.len()), (n, n - 1, n));

            BtaSelectedInverse { blocks: BtaMatrix { n, b, a, diag, sub, arrow, tip } }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::pobtaf_with;
    use crate::sequential::{pobtas, pobtasi};
    use crate::streaming::{pobtaf_retire, StreamPacks};
    use crate::testing::{test_matrix, test_rhs};

    fn check_equivalence(n: usize, b: usize, a: usize, p: usize, lb: f64) {
        check_partitioned(b, a, &Partitioning::load_balanced(n, p, lb));
    }

    /// The distributed factor, solve and selected inverse on `part` agree
    /// with the sequential kernels and with dense linear algebra.
    fn check_partitioned(b: usize, a: usize, part: &Partitioning) {
        let (n, p) = (part.num_blocks(), part.num_partitions());
        let m = test_matrix(n, b, a, 42);
        let seq = pobtaf(&m).unwrap();
        let dist = d_pobtaf(&m, part).unwrap();
        let mut pack = PackBuffer::new();

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
        d_pobtas(&dist, &mut rhs_dist, &mut pack);
        assert!(
            rhs_seq.max_abs_diff(&rhs_dist) < 1e-8,
            "solve mismatch for P={p}: {}",
            rhs_seq.max_abs_diff(&rhs_dist)
        );

        // Selected inverses agree block by block.
        let sel_seq = pobtasi(&seq);
        let sel_dist = d_pobtasi(&dist, &mut pack);
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

        // Dense oracles: the solve recovers a known solution, and the
        // selected inverse matches the dense inverse on the BTA pattern.
        let dense = m.to_dense();
        let x_true = test_rhs(m.dim(), 3);
        let mut x = blas::matmul(&dense, &x_true);
        d_pobtas(&dist, &mut x, &mut pack);
        assert!(x.max_abs_diff(&x_true) < 1e-8, "dense solve mismatch for P={p}");
        let want = BtaMatrix::from_dense(&chol::spd_inverse(&dense).unwrap(), n, b, a);
        let got = &sel_dist.blocks;
        let pairs = got.diag.iter().zip(&want.diag).chain(got.sub.iter().zip(&want.sub));
        for (i, (g, w)) in pairs.chain(got.arrow.iter().zip(&want.arrow)).enumerate() {
            assert!(g.max_abs_diff(w) < 1e-8, "dense selected-inverse block {i} mismatch for P={p}");
        }
        assert!(got.tip.max_abs_diff(&want.tip) < 1e-8, "dense selected-inverse tip for P={p}");
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
        // Only the middle partition's interior is empty.
        for a in [2, 0] {
            check_partitioned(3, a, &Partitioning::from_sizes(&[3, 1, 4]));
        }
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
            assert_blocks_bitwise_equal(&fx.blocks, &fy.blocks, &format!("{tag}: partition {p}"));
            assert_eq!(fx.left.len(), fy.left.len(), "{tag}: left count of partition {p}");
            for (i, (mx, my)) in fx.left.iter().zip(&fy.left).enumerate() {
                assert_eq!(mx.max_abs_diff(my), 0.0, "{tag}: left[{i}] of partition {p}");
            }
            match (&fx.right, &fy.right) {
                (Some(mx), Some(my)) => {
                    assert_eq!(mx.max_abs_diff(my), 0.0, "{tag}: right of partition {p}")
                }
                (None, None) => {}
                _ => panic!("{tag}: right presence mismatch in partition {p}"),
            }
        }
        assert_eq!(
            rx.logdet().unwrap().to_bits(),
            ry.logdet().unwrap().to_bits(),
            "{tag}: reduced logdet"
        );
        assert_chol_bitwise_equal(rx, ry, &format!("{tag}: reduced factor"));
    }

    /// Exact (bitwise) equality of two BTA block sets, block by block.
    fn assert_blocks_bitwise_equal(bx: &BtaMatrix, by: &BtaMatrix, tag: &str) {
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

    /// Exact (bitwise) equality of two BTA Cholesky factors, block by block.
    fn assert_chol_bitwise_equal(x: &BtaCholesky, y: &BtaCholesky, tag: &str) {
        assert_blocks_bitwise_equal(&x.blocks, &y.blocks, tag);
    }

    /// Exact (bitwise) equality of two selected inverses, block by block.
    fn assert_selinv_bitwise_equal(x: &BtaSelectedInverse, y: &BtaSelectedInverse, tag: &str) {
        assert_blocks_bitwise_equal(&x.blocks, &y.blocks, tag);
    }

    #[test]
    fn stealable_interiors_bitwise_match_indivisible() {
        // Blocks above STEAL_MIN_BLOCK so the column steps actually fork, on
        // a multi-worker pool so subtasks really get stolen. The forked run
        // must agree to the last bit with the inline run on a 1-worker pool.
        let n = 9;
        let (b, aa) = (STEAL_MIN_BLOCK + 16, 3);
        let m = test_matrix(n, b, aa, 7);
        let part = Partitioning::from_sizes(&[6, 1, 1, 1]);
        let pool = dalia_pool::ThreadPool::new(4);
        let stealable = pool.install(|| d_pobtaf(&m, &part)).unwrap();
        let indivisible = dalia_pool::ThreadPool::new(1).install(|| d_pobtaf(&m, &part)).unwrap();
        assert_factors_bitwise_equal(&stealable, &indivisible, "stealable-vs-indivisible");
        // And a second forked run is deterministic despite stealing.
        let again = pool.install(|| d_pobtaf(&m, &part)).unwrap();
        assert_factors_bitwise_equal(&stealable, &again, "stealable-rerun");
    }

    /// Factor `m` through the forked column loop: [`pobtaf_retire`]
    /// refactorizes every column of the storage of a larger window, on
    /// `pool`.
    fn forked_pobtaf(pool: &dalia_pool::ThreadPool, m: &BtaMatrix) -> BtaCholesky {
        let mut f = pobtaf(&test_matrix(m.n + 1, m.b, m.a, 3)).unwrap();
        let mut packs = StreamPacks::new();
        pool.install(|| pobtaf_retire(&mut f, m, &mut packs)).unwrap();
        f
    }

    #[test]
    fn parallel_reduced_pobtaf_bitwise_matches_sequential() {
        // The forked column loop must agree with the inline loop of `pobtaf`
        // and `pobtaf_with` to the last bit, with and without an arrow, on a
        // 4-worker pool (where it forks) and a 1-worker pool (where it runs
        // inline).
        let pool = dalia_pool::ThreadPool::new(4);
        let single = dalia_pool::ThreadPool::new(1);
        for (aa, seed) in [(3, 11), (0, 12)] {
            let m = test_matrix(5, STEAL_MIN_BLOCK + 16, aa, seed);
            let seq = pobtaf(&m).unwrap();
            let warm = pobtaf_with(&m, None, &mut PackBuffer::new()).unwrap();
            assert_chol_bitwise_equal(&warm, &seq, &format!("pobtaf_with a={aa}"));
            let par = forked_pobtaf(&pool, &m);
            assert_chol_bitwise_equal(&par, &seq, &format!("forked loop 4T a={aa}"));
            let one = forked_pobtaf(&single, &m);
            assert_chol_bitwise_equal(&one, &seq, &format!("forked loop 1T a={aa}"));
        }
        // Below the fork cutoff the loop runs inline on any pool.
        let m = test_matrix(6, STEAL_MIN_BLOCK / 2, 2, 13);
        assert_chol_bitwise_equal(&forked_pobtaf(&pool, &m), &pobtaf(&m).unwrap(), "tiny");
    }

    #[test]
    fn parallel_pobtaf_on_a_single_block_column_matches_sequential() {
        // One block column has no trailing update to overlap, so the column
        // loop runs inline even on a multi-worker pool.
        for threads in [4, 1] {
            let pool = dalia_pool::ThreadPool::new(threads);
            for aa in [0, 3] {
                let m = test_matrix(1, STEAL_MIN_BLOCK + 8, aa, 17);
                let seq = pobtaf(&m).unwrap();
                let tag = format!("n=1 {threads}T a={aa}");
                assert_chol_bitwise_equal(&forked_pobtaf(&pool, &m), &seq, &tag);
            }
        }
    }

    #[test]
    fn linear_schur_assembly_independent_of_worker_count() {
        // 8 partitions; the 1-thread and 4-thread runs sum the same Schur
        // contributions in the same partition order, so the assembled
        // reduced factor must agree bitwise.
        let m = test_matrix(16, 3, 2, 33);
        let part = Partitioning::load_balanced(16, 8, 1.0);
        let f1 = dalia_pool::ThreadPool::new(1).install(|| d_pobtaf(&m, &part)).unwrap();
        let f4 = dalia_pool::ThreadPool::new(4).install(|| d_pobtaf(&m, &part)).unwrap();
        assert_factors_bitwise_equal(&f1, &f4, "linear assembly worker count");
    }

    #[test]
    fn reduced_system_is_the_dense_schur_complement() {
        // The assembled reduced system must be A_ss − A_si A_ii⁻¹ A_is, with
        // s the separator and tip rows and i the interior rows, computed
        // densely. Partition 1 of the last layout has an empty interior.
        let b = 3;
        let mut cases: Vec<(usize, Partitioning)> =
            [2, 3, 8].iter().map(|&p| (3 * p, Partitioning::load_balanced(3 * p, p, 1.0))).collect();
        cases.push((8, Partitioning::from_sizes(&[3, 1, 4])));
        for (n, part) in &cases {
            for aa in [0, 2] {
                let m = test_matrix(*n, b, aa, 61);
                let (partitions, mut contribs): (Vec<_>, Vec<_>) = (0..part.num_partitions())
                    .map(|p| factor_interior(&m, part, p).unwrap())
                    .unzip();
                let got = assemble_reduced(&m, part, &partitions, &mut contribs).to_dense();

                let seps = part.separators();
                let blocks = |ks: Vec<usize>| ks.into_iter().flat_map(move |k| k * b..(k + 1) * b);
                let s_idx: Vec<usize> = blocks(seps.clone()).chain(n * b..n * b + aa).collect();
                let i_idx: Vec<usize> = blocks((0..*n).filter(|k| !seps.contains(k)).collect()).collect();
                let dense = m.to_dense();
                let pick = |rows: &[usize], cols: &[usize]| {
                    Matrix::from_fn(rows.len(), cols.len(), |r, c| dense[(rows[r], cols[c])])
                };
                let l_ii = chol::cholesky(&pick(&i_idx, &i_idx)).unwrap();
                let mut x = pick(&i_idx, &s_idx);
                chol::potrs(&l_ii, &mut x);
                let mut want = pick(&s_idx, &s_idx);
                want.axpy(-1.0, &blas::matmul(&pick(&s_idx, &i_idx), &x));

                let err = got.max_abs_diff(&want) / want.max_abs();
                let p = part.num_partitions();
                assert!(err <= 1e-12, "P={p} separators {seps:?} a={aa}: relative error {err:e}");
            }
        }
    }

    #[test]
    fn stealable_solve_and_selinv_bitwise_match_indivisible() {
        // Same contract as the factorization test: blocks above the fork
        // cutoff on a multi-worker pool, the forked run vs the inline run on
        // a 1-worker pool (and reruns) agree to the last bit.
        let n = 9;
        let (b, aa) = (STEAL_MIN_BLOCK + 16, 3);
        let m = test_matrix(n, b, aa, 21);
        let part = Partitioning::from_sizes(&[6, 1, 1, 1]);
        let pool = dalia_pool::ThreadPool::new(4);
        let single = dalia_pool::ThreadPool::new(1);
        let factor = pool.install(|| d_pobtaf(&m, &part)).unwrap();
        let mut pack = PackBuffer::new();

        let rhs0 = test_rhs(m.dim(), 3);
        let mut steal = rhs0.clone();
        pool.install(|| d_pobtas(&factor, &mut steal, &mut pack));
        let mut indiv = rhs0.clone();
        single.install(|| d_pobtas(&factor, &mut indiv, &mut pack));
        assert_eq!(steal.max_abs_diff(&indiv), 0.0, "solve: stealable vs indivisible");
        let mut again = rhs0.clone();
        pool.install(|| d_pobtas(&factor, &mut again, &mut pack));
        assert_eq!(steal.max_abs_diff(&again), 0.0, "solve: stealable rerun");
        let mut one = rhs0.clone();
        single.install(|| d_pobtas(&factor, &mut one, &mut PackBuffer::new()));
        assert_eq!(steal.max_abs_diff(&one), 0.0, "solve: 1-thread vs 4-thread");

        let sel_steal = pool.install(|| d_pobtasi(&factor, &mut pack));
        let sel_indiv = single.install(|| d_pobtasi(&factor, &mut pack));
        assert_selinv_bitwise_equal(&sel_steal, &sel_indiv, "selinv: stealable vs indivisible");
        let sel_again = pool.install(|| d_pobtasi(&factor, &mut pack));
        assert_selinv_bitwise_equal(&sel_steal, &sel_again, "selinv: stealable rerun");
    }

    /// Full-pipeline parity on a given explicit layout: the forked factor,
    /// solve and selected inverse on a 4-worker pool must be bitwise
    /// identical to the inline run on a 1-worker pool and numerically match
    /// the sequential pipeline.
    fn check_schedules_agree(n: usize, b: usize, aa: usize, sizes: &[usize], tag: &str) {
        let m = test_matrix(n, b, aa, 5);
        let part = Partitioning::from_sizes(sizes);
        let pool = dalia_pool::ThreadPool::new(4);
        let single = dalia_pool::ThreadPool::new(1);
        let mut pack = PackBuffer::new();
        let fs = pool.install(|| d_pobtaf(&m, &part)).unwrap();
        let fi = single.install(|| d_pobtaf(&m, &part)).unwrap();
        assert_factors_bitwise_equal(&fs, &fi, tag);

        let rhs0 = test_rhs(m.dim(), 2);
        let mut xs = rhs0.clone();
        pool.install(|| d_pobtas(&fs, &mut xs, &mut pack));
        let mut xi = rhs0.clone();
        single.install(|| d_pobtas(&fi, &mut xi, &mut pack));
        assert_eq!(xs.max_abs_diff(&xi), 0.0, "{tag}: solve schedules");

        let ss = pool.install(|| d_pobtasi(&fs, &mut pack));
        let si = single.install(|| d_pobtasi(&fi, &mut pack));
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
    fn skewed_partitioning_matches_sequential() {
        // A deliberately imbalanced 1-big/N-tiny layout (the shape stealable
        // interiors exist for) still reproduces the sequential
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
        let mut pack = PackBuffer::new();
        d_pobtas(&dist, &mut rhs_dist, &mut pack);
        assert!(rhs_seq.max_abs_diff(&rhs_dist) < 1e-8, "skewed solve mismatch");
        let sel_seq = pobtasi(&seq);
        let sel_dist = d_pobtasi(&dist, &mut pack);
        for i in 0..n {
            assert!(
                sel_seq.blocks.diag[i].max_abs_diff(&sel_dist.blocks.diag[i]) < 1e-8,
                "skewed selected-inverse diag {i} mismatch"
            );
        }
    }
}
