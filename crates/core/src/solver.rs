//! The solver backend abstraction: a trait-based API over the bottleneck
//! linear-algebra operations of one INLA objective evaluation, with *stateful*
//! implementations that amortize structure across evaluations.
//!
//! The paper's bottleneck profile is "two structured factorizations + one
//! solve per objective evaluation", repeated dozens-to-hundreds of times by a
//! BFGS run. The BTA backend needs only one of them at full size: it
//! factorizes `Q_c`, and takes `log |Q_p|` from the `nv` per-process
//! precisions (`n_t` blocks of size `n_s` each) plus a closed form in σ and
//! the fixed-effect prior — see
//! [`CoregionalModel::assemble_process_precision_into`]. The sparse backend
//! still factorizes the joint `Q_p`, which makes it the independent check of
//! that identity. Everything that depends only on the model *structure* — the
//! time-domain [`Partitioning`], the block-dense BTA storage, the sparse
//! symbolic analysis (elimination tree + factor pattern) — is computed once
//! per [`LatentSolver`] and reused for every θ, the same separation
//! INLA_DIST/Serinv draw between symbolic setup and numeric factorization.
//!
//! A backend is obtained from the [`SolverBackend`] enum via
//! [`SolverBackend::build`], which returns a boxed trait object; the
//! [`InlaSession`](crate::engine::InlaSession) keeps a pool of them (one per
//! concurrent S1 gradient lane) and reuses them across `objective`, `run`,
//! `time_one_iteration` and posterior extraction. Adding a new backend (a
//! GPU-style batched or mixed-precision solver, say) means implementing this
//! trait in one file and extending the factory.
//!
//! Each trait method corresponds to a paper quantity of one evaluation of the
//! objective `f(θ)` (Eq. 8): [`LatentSolver::logdet_qp`] and
//! [`LatentSolver::logdet_qc`] are `log |Q_p(θ)|` and `log |Q_c(θ)|`,
//! [`LatentSolver::solve_mean`] produces the conditional mean
//! `μ_c = Q_c⁻¹ Aᵀ D y` (Eq. 7), [`LatentSolver::quadratic_form_qp`] the
//! prior term `μᵀ Q_p μ`, and [`LatentSolver::selected_inverse`] the
//! selected inverse `Q_c⁻¹` whose diagonal holds the latent marginal
//! variances and whose kept entries answer exact predictive variances.
//!
//! The BTA workspaces also own a [`PackBuffer`] — the panel-packing scratch
//! of the blocked dense kernels in `dalia_la::blas` — which is threaded
//! through `serinv`'s `pobtaf_with`, `d_pobtas` and `d_pobtasi` at every
//! partition count, so the factorization of a warmed-up solver performs no
//! heap allocation (see `docs/performance.md`).

use crate::settings::SolverBackend;
use crate::snapshot::{triangle_pairs, BtaSigma, SelectedInverse, SnapshotFactor};
use crate::CoreError;
use dalia_la::{Matrix, PackBuffer};
use dalia_model::{CoregionalModel, ModelHyper};
use dalia_sparse::{ops, CholeskySymbolic, CsrMatrix, SparseCholesky, SparseError};
use serinv::{
    d_pobtaf, d_pobtas, d_pobtasi, pobtaf, pobtaf_extend, pobtaf_retire, pobtaf_with,
    BtaCholesky, BtaMatrix, DistBtaCholesky, Partitioning, StreamPacks,
};
use std::sync::Arc;
use std::time::Instant;

/// Wall-clock seconds spent in each phase of the solver pipeline, centralized
/// so the objective, the optimizer trace and [`InlaResult`](crate::InlaResult)
/// all report timings from one source instead of hand-threading pairs of
/// floats through every code path.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseTimers {
    /// Matrix / design assembly (`Q_p`, `Q_c`, `Λ·A`).
    pub assembly_seconds: f64,
    /// Numeric factorizations: `Q_c`, and what `log |Q_p|` takes (the
    /// per-process prior precisions on the BTA backend, the joint `Q_p` on
    /// the sparse one).
    pub factorize_seconds: f64,
    /// Triangular solves for the conditional mean.
    pub solve_seconds: f64,
    /// Selected inversion for the latent marginal variances.
    pub selinv_seconds: f64,
}

impl PhaseTimers {
    /// Total time in the solver proper (everything but assembly).
    pub fn solver_seconds(&self) -> f64 {
        self.factorize_seconds + self.solve_seconds + self.selinv_seconds
    }

    /// Total time across all phases.
    pub fn total_seconds(&self) -> f64 {
        self.assembly_seconds + self.solver_seconds()
    }

    /// Reset all phases to zero.
    pub fn reset(&mut self) {
        *self = PhaseTimers::default();
    }

    /// Accumulate another timer set into this one.
    pub fn merge(&mut self, other: &PhaseTimers) {
        self.assembly_seconds += other.assembly_seconds;
        self.factorize_seconds += other.factorize_seconds;
        self.solve_seconds += other.solve_seconds;
        self.selinv_seconds += other.selinv_seconds;
    }

    /// The increment from an `earlier` snapshot of the same accumulator to
    /// this one (phases clamp at zero).
    pub fn delta_since(&self, earlier: &PhaseTimers) -> PhaseTimers {
        PhaseTimers {
            assembly_seconds: (self.assembly_seconds - earlier.assembly_seconds).max(0.0),
            factorize_seconds: (self.factorize_seconds - earlier.factorize_seconds).max(0.0),
            solve_seconds: (self.solve_seconds - earlier.solve_seconds).max(0.0),
            selinv_seconds: (self.selinv_seconds - earlier.selinv_seconds).max(0.0),
        }
    }
}

/// The solver backend API: assemble-and-factorize the prior and conditional
/// precisions for one hyperparameter value, then answer the queries an INLA
/// evaluation needs (log-determinants, conditional mean, quadratic form,
/// selected-inverse variances).
///
/// Implementations are *stateful*: they own pre-allocated workspaces that
/// [`factorize`](Self::factorize) re-fills in place, so repeated calls on one
/// solver skip the per-evaluation allocation and symbolic-analysis cost.
/// All query methods refer to the most recent successful `factorize` call and
/// panic if none has happened yet.
///
/// The trait is `Send + Sync`: the mutable entry points (`factorize`,
/// `solve_mean`, `selected_inverse`) serialize through `&mut`, and a
/// solver can move to, or be read from, any thread. Concurrent serving does
/// not touch the solver itself: a snapshot keeps the selected inverse
/// ([`selected_inverse`](Self::selected_inverse)), from which the BTA
/// backends answer exact variances, and an owned copy of the factor
/// ([`snapshot_factor`](Self::snapshot_factor)), which serves only posterior
/// draws, `logdet_qc` and the sparse baseline's exact-variance solves.
pub trait LatentSolver: Send + Sync {
    /// Short backend name for reports and diagnostics.
    fn backend_name(&self) -> &'static str;

    /// The model this solver was built for.
    fn model(&self) -> &CoregionalModel;

    /// Assemble `Q_p(θ)` and `Q_c(θ)` into the reusable workspaces, factorize
    /// `Q_c` and compute `log |Q_p|`.
    fn factorize(&mut self, hyper: &ModelHyper) -> Result<(), CoreError>;

    /// Like [`factorize`](Self::factorize) but skips `log |Q_p|` and the
    /// factorizations behind it (posterior extraction only needs `Q_c`).
    /// After this call [`logdet_qp`](Self::logdet_qp) is unavailable until
    /// the next full `factorize`; everything else refers to the given `hyper`.
    fn factorize_conditional(&mut self, hyper: &ModelHyper) -> Result<(), CoreError> {
        self.factorize(hyper)
    }

    /// Re-assemble and re-factorize *only* the conditional precision for new
    /// per-observation working weights:
    /// `Q_c = Q_p + Aᵀ diag(weights) A`.
    ///
    /// This is the inner Newton loop's per-iteration step for non-Gaussian
    /// likelihoods — the likelihood only perturbs the diagonal congruence
    /// term, so the already-assembled `Q_p`, the design matrix and the warm
    /// factor storage of the last `factorize`/`factorize_conditional` (which
    /// must precede this call, at the same hyperparameters) are all reused;
    /// neither `Q_p` nor `log |Q_p|` is touched.
    fn refactorize_conditional(&mut self, weights: &[f64]) -> Result<(), CoreError>;

    /// Advance this solver to `model`, whose temporal window **grew** by
    /// trailing time slices, re-factorizing only the affected trailing block
    /// columns of the conditional factor where the representation permits
    /// (the BTA backends; the sparse backend falls back to a full
    /// refactorization with a fresh symbolic analysis).
    ///
    /// Requirements: `model` shares the mesh and `(nv, nr)` of the current
    /// model (same block structure), keeps the current observations as a
    /// prefix (appended observations may only reference the new slices), and
    /// the conditional factor must be at the initial working weights for the
    /// **same** `hyper` — i.e. a `factorize`/`factorize_conditional` at
    /// `hyper` precedes this call, with no intervening
    /// [`refactorize_conditional`](Self::refactorize_conditional). Afterwards
    /// the solver is in conditional-only state on the new window (as after
    /// `factorize_conditional`): [`logdet_qp`](Self::logdet_qp) is
    /// unavailable until the next full `factorize`.
    ///
    /// For the BTA backends the advanced factor is **bitwise identical** to a
    /// cold sequential factorization of the new window at any thread count.
    fn extend_window(
        &mut self,
        model: Arc<CoregionalModel>,
        hyper: &ModelHyper,
    ) -> Result<(), CoreError>;

    /// Advance this solver to `model`, whose temporal window **shrank** by
    /// retiring leading time slices (with the surviving observations
    /// re-indexed to the new window). Retiring the head invalidates every
    /// factor column — column 0's Schur complement cascades through the whole
    /// elimination — so all backends refactorize fully, but the BTA backends
    /// recycle the factor storage and warm pack lanes in place. Same
    /// preconditions and post-state as [`extend_window`](Self::extend_window)
    /// otherwise.
    fn retire_window(
        &mut self,
        model: Arc<CoregionalModel>,
        hyper: &ModelHyper,
    ) -> Result<(), CoreError>;

    /// The joint design matrix `Λ·A` assembled by the last `factorize`.
    fn design(&self) -> &CsrMatrix;

    /// `log |Q_p|` of the last factorization.
    fn logdet_qp(&self) -> f64;

    /// `log |Q_c|` of the last factorization.
    fn logdet_qc(&self) -> f64;

    /// Solve `Q_c μ = rhs` (the conditional-mean system).
    fn solve_mean(&mut self, rhs: &[f64]) -> Vec<f64>;

    /// Extract an owned, backend-independent copy of the conditional factor
    /// (and nothing else) for read-only serving — the factor half of a
    /// [`PosteriorSnapshot`](crate::snapshot::PosteriorSnapshot).
    ///
    /// Like the other query methods this refers to the most recent successful
    /// `factorize`/`factorize_conditional` and panics if none has happened;
    /// the `Result` covers backends that must re-factor into the portable
    /// representation (the distributed BTA solver).
    fn snapshot_factor(&self) -> Result<SnapshotFactor, CoreError>;

    /// Quadratic form `xᵀ Q_p x` for the currently assembled `Q_p`.
    fn quadratic_form_qp(&self, x: &[f64]) -> f64;

    /// Selected inversion of `Q_c`: the part of `Σ = Q_c⁻¹` this backend
    /// keeps. Its [`diagonal`](SelectedInverse::diagonal) holds the latent
    /// marginal variances; the BTA backend also keeps every other entry that
    /// exact predictive variances read (see [`BtaSigma`]).
    fn selected_inverse(&mut self) -> SelectedInverse;

    /// Phase timings accumulated since the last [`reset_timers`](Self::reset_timers).
    fn timers(&self) -> PhaseTimers;

    /// Reset the accumulated phase timings.
    fn reset_timers(&mut self);
}

impl SolverBackend {
    /// Build a stateful solver for `model`.
    ///
    /// This is the single dispatch point for backend selection; everything
    /// downstream works through the [`LatentSolver`] trait. For the BTA
    /// backend the partition count is capped at the number of time steps
    /// (a BTA matrix cannot be split into more partitions than it has
    /// diagonal blocks); nonsense configurations such as `partitions == 0`
    /// are rejected earlier by [`InlaSettings::validate`](crate::InlaSettings::validate).
    ///
    /// ```
    /// use dalia_core::settings::SolverBackend;
    /// use dalia_mesh::{Domain, Point, TriangleMesh};
    /// use dalia_model::{CoregionalModel, ModelHyper, Observation};
    /// use std::sync::Arc;
    ///
    /// let mesh = TriangleMesh::structured(Domain::unit_square(), 3, 3);
    /// let obs: Vec<Observation> = (0..3)
    ///     .map(|t| Observation {
    ///         var: 0,
    ///         t,
    ///         loc: Point::new(0.25, 0.5),
    ///         covariates: vec![1.0],
    ///         value: 0.1 * t as f64,
    ///     })
    ///     .collect();
    /// let model = Arc::new(CoregionalModel::new(&mesh, 3, 1.0, 1, 1, obs).unwrap());
    ///
    /// // One dispatch point for every backend; the session layer does this
    /// // once per S1 lane and reuses the solver for every θ.
    /// let mut solver = SolverBackend::Bta { partitions: 1, load_balance: 1.0 }.build(&model);
    /// assert_eq!(solver.backend_name(), "bta-sequential");
    /// solver.factorize(&ModelHyper::default_for(1, 0.7, 2.0)).unwrap();
    /// // Q_c = Q_p + AᵀDA ⪰ Q_p, so the conditional log-determinant dominates.
    /// assert!(solver.logdet_qc() > solver.logdet_qp());
    /// ```
    pub fn build(&self, model: &Arc<CoregionalModel>) -> Box<dyn LatentSolver> {
        match *self {
            SolverBackend::Bta { partitions, load_balance } => Box::new(BtaSolver::new(
                model.clone(),
                partitions.clamp(1, model.dims.nt),
                load_balance,
            )),
            SolverBackend::SparseGeneral => Box::new(SparseCholeskySolver::new(model.clone())),
        }
    }
}

/// Shared BTA workspace: assembled `Q_p` / `Q_c` block storage (re-filled in
/// place per θ), the per-process prior precision and its factor, the
/// panel-packing scratch of the blocked dense kernels, and the design matrix
/// of the last assembly.
struct BtaWorkspace {
    model: Arc<CoregionalModel>,
    qp: BtaMatrix,
    qc: BtaMatrix,
    /// One process precision `Q_i` (`nt` blocks of size `ns`, no arrow),
    /// allocated by the first
    /// [`factorize_processes`](Self::factorize_processes) and re-filled for
    /// each process in turn.
    process: Option<BtaMatrix>,
    /// Factor storage of the last process factorization, recycled for the
    /// next.
    process_factor: Option<BtaCholesky>,
    pack: PackBuffer,
    design: Option<CsrMatrix>,
    /// `Aᵀ W A` of the last assembly or re-weighting, kept so every θ
    /// re-fills the same storage.
    congruence: CsrMatrix,
    timers: PhaseTimers,
}

impl BtaWorkspace {
    fn new(model: Arc<CoregionalModel>) -> Self {
        let d = model.dims;
        Self {
            qp: BtaMatrix::zeros(d.nt, d.block_size(), d.arrow_size()),
            qc: BtaMatrix::zeros(d.nt, d.block_size(), d.arrow_size()),
            process: None,
            process_factor: None,
            pack: PackBuffer::new(),
            design: None,
            congruence: CsrMatrix::zeros(0, 0),
            timers: PhaseTimers::default(),
            model,
        }
    }

    /// Swap in a model whose temporal window differs from the current one but
    /// whose block structure (mesh, `nv`, `nr`) matches, resizing the `qp` /
    /// `qc` block storage to the new number of time steps in place. The cached
    /// design and the process storage are cleared; the next
    /// [`assemble`](Self::assemble) refills everything for the new window.
    fn set_window_model(&mut self, model: Arc<CoregionalModel>) {
        let d = model.dims;
        assert_eq!(
            (self.qp.b, self.qp.a),
            (d.block_size(), d.arrow_size()),
            "window update must preserve the block structure (mesh, nv, nr)"
        );
        resize_window(&mut self.qp, d.nt);
        resize_window(&mut self.qc, d.nt);
        self.process = None;
        self.process_factor = None;
        self.design = None;
        self.model = model;
    }

    /// Re-fill `qp` and `qc` in place for `hyper`; records assembly time.
    fn assemble(&mut self, hyper: &ModelHyper) {
        let t0 = Instant::now();
        self.model.assemble_qp_bta_into(hyper, &mut self.qp);
        self.qc.copy_values_from(&self.qp);
        let design = self.model.extend_qp_to_qc(hyper, &mut self.qc, &mut self.congruence);
        self.timers.assembly_seconds += t0.elapsed().as_secs_f64();
        self.design = Some(design);
    }

    /// `log |Q_p(θ)|` without factorizing `Q_p`: assemble and factorize the
    /// `nv` process precisions one after another in the kept storage and add
    /// the closed-form remainder (see
    /// [`CoregionalModel::assemble_process_precision_into`]). Records
    /// assembly and factorization time.
    fn factorize_processes(&mut self, hyper: &ModelHyper) -> Result<f64, CoreError> {
        let d = self.model.dims;
        let process = self.process.get_or_insert_with(|| BtaMatrix::zeros(d.nt, d.ns, 0));
        let mut logdet = 0.0;
        for i in 0..d.nv {
            let t0 = Instant::now();
            self.model.assemble_process_precision_into(hyper, i, process);
            let t1 = Instant::now();
            self.timers.assembly_seconds += (t1 - t0).as_secs_f64();
            let storage = self.process_factor.take().map(|f| f.blocks);
            let f = pobtaf_with(process, storage, &mut self.pack).map_err(CoreError::Solver)?;
            logdet += f.logdet().map_err(CoreError::Solver)?;
            self.process_factor = Some(f);
            self.timers.factorize_seconds += t1.elapsed().as_secs_f64();
        }
        Ok(logdet + self.model.qp_logdet_remainder(hyper))
    }

    fn design(&self) -> &CsrMatrix {
        self.design.as_ref().expect("LatentSolver: factorize must be called first")
    }

    /// Rebuild `qc = qp + Aᵀ diag(weights) A` in place from the assembled
    /// `qp` and the design of the last [`assemble`](Self::assemble); records
    /// assembly time.
    fn reweight_qc(&mut self, weights: &[f64]) {
        let t0 = Instant::now();
        let design =
            self.design.as_ref().expect("LatentSolver: factorize must be called first");
        self.qc.copy_values_from(&self.qp);
        ops::congruence_diag_into(design, weights, &mut self.congruence);
        self.model.add_congruence_to_bta(&self.congruence, &mut self.qc);
        self.timers.assembly_seconds += t0.elapsed().as_secs_f64();
    }
}

/// Resize a BTA matrix's block storage to `nt` time steps in place, keeping
/// the existing block allocations where possible (growth appends zero blocks,
/// shrinkage truncates). Values are not meaningful afterwards — callers
/// re-assemble into the resized storage.
fn resize_window(m: &mut BtaMatrix, nt: usize) {
    let (b, a) = (m.b, m.a);
    m.diag.resize_with(nt, || Matrix::zeros(b, b));
    m.sub.resize_with(nt.saturating_sub(1), || Matrix::zeros(b, b));
    m.arrow.resize_with(nt, || Matrix::zeros(a, b));
    m.n = nt;
}

/// Validate a freshly produced BTA factor's diagonal eagerly (via the
/// structured [`logdet`](DistBtaCholesky::logdet) check) so that indefinite or
/// NaN-contaminated factorizations surface as a typed error at factorize time
/// rather than as a poisoned log-determinant later.
fn validated(f: DistBtaCholesky) -> Result<DistBtaCholesky, CoreError> {
    f.logdet().map_err(CoreError::Solver)?;
    Ok(f)
}

/// Factorize `m` over `part`. One partition is the trivial case of the
/// nested-dissection solver: `pobtaf_with` recycles the block storage of the
/// retired factor `prev` and threads the session `pack`, so a warm solver
/// allocates nothing per factorization. More partitions run `d_pobtaf`.
fn factor_bta(
    m: &BtaMatrix,
    part: &Partitioning,
    prev: Option<DistBtaCholesky>,
    pack: &mut PackBuffer,
) -> Result<DistBtaCholesky, CoreError> {
    let f = if part.num_partitions() == 1 {
        let storage = match prev {
            Some(DistBtaCholesky::Sequential(f)) => Some(f.blocks),
            _ => None,
        };
        DistBtaCholesky::Sequential(pobtaf_with(m, storage, pack).map_err(CoreError::Solver)?)
    } else {
        d_pobtaf(m, part).map_err(CoreError::Solver)?
    };
    validated(f)
}

/// The BTA solver (`pobtaf`/`pobtas`/`pobtasi` and their partitioned
/// `d_pobtaf`/`d_pobtas`/`d_pobtasi` forms): one nested-dissection solver
/// whose single-partition case is the sequential DALIA / INLA_DIST path. The
/// load-balanced time-domain [`Partitioning`] is derived once at construction
/// and reused for every factorization of `Q_c`; window updates rebuild it for
/// the new number of time steps. The joint `Q_p` is never factorized:
/// `log |Q_p|` comes from the per-process precisions, factorized one after
/// another with `pobtaf_with` at every partition count
/// ([`BtaWorkspace::factorize_processes`]).
///
/// [`extend_window`](LatentSolver::extend_window) /
/// [`retire_window`](LatentSolver::retire_window) advance the conditional
/// factor in place through the incremental streaming kernels, which need the
/// *monolithic* (`DistBtaCholesky::Sequential`) representation: the
/// partitioned factor interleaves permuted interiors with a reduced system,
/// so trailing-block reuse does not apply to it. The first window update
/// after a partitioned factorization pays one cold sequential factorization;
/// subsequent updates are incremental. The next full
/// `factorize`/`factorize_conditional` returns to the partitioned scheme.
struct BtaSolver {
    ws: BtaWorkspace,
    part: Partitioning,
    /// Partition count the solver was built with (capped at `nt`); the
    /// partitioning of each window is capped again at that window's `nt`.
    partitions: usize,
    load_balance: f64,
    stream: StreamPacks,
    /// `log |Q_p|` of the last full [`factorize`](LatentSolver::factorize);
    /// `None` after a conditional-only factorization or a window update.
    logdet_qp: Option<f64>,
    fc: Option<DistBtaCholesky>,
    /// Which mesh nodes share a triangle: the `Σ_tt` entries a
    /// [`selected_inverse`](LatentSolver::selected_inverse) keeps. Window
    /// updates keep the mesh, so it is built once.
    pairs: Arc<CsrMatrix>,
}

impl BtaSolver {
    /// Create a solver with `partitions` time-domain partitions and the given
    /// load-balancing factor. `partitions` must lie in `[1, nt]`.
    fn new(model: Arc<CoregionalModel>, partitions: usize, load_balance: f64) -> Self {
        let part = Partitioning::load_balanced(model.dims.nt, partitions, load_balance);
        let pairs = Arc::new(triangle_pairs(&model.mesh));
        Self {
            ws: BtaWorkspace::new(model),
            part,
            partitions,
            load_balance,
            stream: StreamPacks::new(),
            logdet_qp: None,
            fc: None,
            pairs,
        }
    }

    /// Shared tail of `extend_window` / `retire_window`: swap in the new
    /// window model, rebuild the partitioning for the new `nt` (used by the
    /// next full factorization), re-assemble, and advance the conditional
    /// factor in the monolithic representation via `advance`.
    fn advance_window(
        &mut self,
        model: Arc<CoregionalModel>,
        hyper: &ModelHyper,
        advance: impl FnOnce(
            &mut BtaCholesky,
            &BtaMatrix,
            &mut StreamPacks,
        ) -> Result<(), serinv::SerinvError>,
    ) -> Result<(), CoreError> {
        let fc =
            self.fc.take().expect("LatentSolver: factorize must be called before a window update");
        self.logdet_qp = None;
        self.part = Partitioning::load_balanced(
            model.dims.nt,
            self.partitions.clamp(1, model.dims.nt),
            self.load_balance,
        );
        self.ws.set_window_model(model);
        self.ws.assemble(hyper);
        let t0 = Instant::now();
        let mono = match fc {
            // Already monolithic (one partition, or a previous window
            // update): advance in place.
            DistBtaCholesky::Sequential(mut f) => {
                advance(&mut f, &self.ws.qc, &mut self.stream).map_err(CoreError::Solver)?;
                f
            }
            // Partitioned: the nested-dissection layout cannot be advanced by
            // trailing columns — pay one cold sequential factorization of the
            // new window (warm pack lanes, no reusable storage to recycle).
            DistBtaCholesky::Partitioned { .. } => {
                pobtaf_with(&self.ws.qc, None, &mut self.ws.pack).map_err(CoreError::Solver)?
            }
        };
        self.ws.timers.factorize_seconds += t0.elapsed().as_secs_f64();
        self.fc = Some(validated(DistBtaCholesky::Sequential(mono))?);
        Ok(())
    }
}

impl LatentSolver for BtaSolver {
    fn backend_name(&self) -> &'static str {
        if self.partitions > 1 {
            "bta-distributed"
        } else {
            "bta-sequential"
        }
    }

    fn model(&self) -> &CoregionalModel {
        &self.ws.model
    }

    fn factorize(&mut self, hyper: &ModelHyper) -> Result<(), CoreError> {
        self.ws.assemble(hyper);
        // Cleared first: a failed factorization must not leave the previous
        // θ's value readable.
        self.logdet_qp = None;
        let logdet_qp = self.ws.factorize_processes(hyper)?;
        let t0 = Instant::now();
        self.fc = Some(factor_bta(&self.ws.qc, &self.part, self.fc.take(), &mut self.ws.pack)?);
        self.ws.timers.factorize_seconds += t0.elapsed().as_secs_f64();
        self.logdet_qp = Some(logdet_qp);
        Ok(())
    }

    fn factorize_conditional(&mut self, hyper: &ModelHyper) -> Result<(), CoreError> {
        self.ws.assemble(hyper);
        let t0 = Instant::now();
        self.logdet_qp = None;
        self.fc = Some(factor_bta(&self.ws.qc, &self.part, self.fc.take(), &mut self.ws.pack)?);
        self.ws.timers.factorize_seconds += t0.elapsed().as_secs_f64();
        Ok(())
    }

    fn refactorize_conditional(&mut self, weights: &[f64]) -> Result<(), CoreError> {
        self.ws.reweight_qc(weights);
        let t0 = Instant::now();
        self.fc = Some(factor_bta(&self.ws.qc, &self.part, self.fc.take(), &mut self.ws.pack)?);
        self.ws.timers.factorize_seconds += t0.elapsed().as_secs_f64();
        Ok(())
    }

    fn extend_window(
        &mut self,
        model: Arc<CoregionalModel>,
        hyper: &ModelHyper,
    ) -> Result<(), CoreError> {
        assert!(
            model.dims.nt > self.ws.model.dims.nt,
            "extend_window: the new window must have more time steps"
        );
        self.advance_window(model, hyper, pobtaf_extend)
    }

    fn retire_window(
        &mut self,
        model: Arc<CoregionalModel>,
        hyper: &ModelHyper,
    ) -> Result<(), CoreError> {
        assert!(
            model.dims.nt < self.ws.model.dims.nt,
            "retire_window: the new window must have fewer time steps"
        );
        self.advance_window(model, hyper, pobtaf_retire)
    }

    fn design(&self) -> &CsrMatrix {
        self.ws.design()
    }

    fn logdet_qp(&self) -> f64 {
        self.logdet_qp.expect("LatentSolver: factorize must be called first")
    }

    fn logdet_qc(&self) -> f64 {
        self.fc
            .as_ref()
            .expect("LatentSolver: factorize must be called first")
            .logdet()
            .expect("factor diagonal validated at factorization")
    }

    fn solve_mean(&mut self, rhs: &[f64]) -> Vec<f64> {
        let fc = self.fc.as_ref().expect("LatentSolver: factorize must be called first");
        let t0 = Instant::now();
        let mut m = Matrix::col_vector(rhs);
        d_pobtas(fc, &mut m, &mut self.ws.pack);
        let out = m.col(0).to_vec();
        self.ws.timers.solve_seconds += t0.elapsed().as_secs_f64();
        out
    }

    fn snapshot_factor(&self) -> Result<SnapshotFactor, CoreError> {
        match self.fc.as_ref().expect("LatentSolver: factorize must be called first") {
            DistBtaCholesky::Sequential(f) => Ok(SnapshotFactor::Bta(f.clone())),
            // The partitioned representation is tied to the partitioning
            // (permuted interiors + reduced system), so it cannot be handed
            // out as-is. Re-factor the assembled `Q_c` sequentially into the
            // portable monolithic form — a one-time cost paid at snapshot
            // extraction, not per query.
            DistBtaCholesky::Partitioned { .. } => {
                let fc = pobtaf(&self.ws.qc).map_err(CoreError::Solver)?;
                fc.logdet().map_err(CoreError::Solver)?;
                Ok(SnapshotFactor::Bta(fc))
            }
        }
    }

    fn quadratic_form_qp(&self, x: &[f64]) -> f64 {
        quadratic_form_bta(&self.ws.qp, x)
    }

    fn selected_inverse(&mut self) -> SelectedInverse {
        let fc = self.fc.as_ref().expect("LatentSolver: factorize must be called first");
        let t0 = Instant::now();
        let sel = d_pobtasi(fc, &mut self.ws.pack);
        let sigma = Arc::new(BtaSigma::keep(sel, self.pairs.clone()));
        self.ws.timers.selinv_seconds += t0.elapsed().as_secs_f64();
        SelectedInverse::Bta(sigma)
    }

    fn timers(&self) -> PhaseTimers {
        self.ws.timers
    }

    fn reset_timers(&mut self) {
        self.ws.timers.reset();
    }
}

/// General sparse Cholesky solver (the R-INLA / PARDISO-like baseline). The
/// symbolic analyses of `Q_p` and `Q_c` are cached per sparsity pattern, so
/// repeat factorizations run the numeric phase only.
pub struct SparseCholeskySolver {
    model: Arc<CoregionalModel>,
    sym_qp: Option<CholeskySymbolic>,
    sym_qc: Option<CholeskySymbolic>,
    qp: Option<CsrMatrix>,
    fp: Option<SparseCholesky>,
    fc: Option<SparseCholesky>,
    design: Option<CsrMatrix>,
    timers: PhaseTimers,
}

impl SparseCholeskySolver {
    /// Create a solver with empty symbolic caches for `model`.
    pub fn new(model: Arc<CoregionalModel>) -> Self {
        Self {
            model,
            sym_qp: None,
            sym_qc: None,
            qp: None,
            fp: None,
            fc: None,
            design: None,
            timers: PhaseTimers::default(),
        }
    }

    /// Assemble `(Q_p, Q_c, design)` for `hyper`, recording assembly time.
    fn assemble(&mut self, hyper: &ModelHyper) -> (CsrMatrix, CsrMatrix, CsrMatrix) {
        let t0 = Instant::now();
        let qp = self.model.assemble_qp_csr(hyper, true);
        let design = self.model.joint_design(hyper);
        let d_diag = self.model.initial_working_weights(hyper);
        let congruence = ops::congruence_diag(&design, &d_diag);
        let qc = ops::add(1.0, &qp, 1.0, &congruence);
        self.timers.assembly_seconds += t0.elapsed().as_secs_f64();
        (qp, qc, design)
    }
}

/// Factorize `a`, reusing the cached symbolic analysis when the sparsity
/// pattern still matches and re-analyzing (updating the cache) when it does
/// not.
fn factor_with_cached_symbolic(
    cache: &mut Option<CholeskySymbolic>,
    a: &CsrMatrix,
) -> Result<SparseCholesky, SparseError> {
    if let Some(sym) = cache.as_ref() {
        match SparseCholesky::factor_with(sym, a) {
            Err(SparseError::PatternMismatch) => {}
            other => return other,
        }
    }
    let sym = SparseCholesky::analyze(a)?;
    let f = SparseCholesky::factor_with(&sym, a)?;
    *cache = Some(sym);
    Ok(f)
}

impl LatentSolver for SparseCholeskySolver {
    fn backend_name(&self) -> &'static str {
        "sparse-general"
    }

    fn model(&self) -> &CoregionalModel {
        &self.model
    }

    fn factorize(&mut self, hyper: &ModelHyper) -> Result<(), CoreError> {
        let (qp, qc, design) = self.assemble(hyper);
        let t0 = Instant::now();
        self.fp =
            Some(factor_with_cached_symbolic(&mut self.sym_qp, &qp).map_err(CoreError::SparseSolver)?);
        self.fc =
            Some(factor_with_cached_symbolic(&mut self.sym_qc, &qc).map_err(CoreError::SparseSolver)?);
        self.timers.factorize_seconds += t0.elapsed().as_secs_f64();
        self.qp = Some(qp);
        self.design = Some(design);
        Ok(())
    }

    fn factorize_conditional(&mut self, hyper: &ModelHyper) -> Result<(), CoreError> {
        let (qp, qc, design) = self.assemble(hyper);
        let t0 = Instant::now();
        self.fp = None;
        self.fc =
            Some(factor_with_cached_symbolic(&mut self.sym_qc, &qc).map_err(CoreError::SparseSolver)?);
        self.timers.factorize_seconds += t0.elapsed().as_secs_f64();
        self.qp = Some(qp);
        self.design = Some(design);
        Ok(())
    }

    fn refactorize_conditional(&mut self, weights: &[f64]) -> Result<(), CoreError> {
        let t0 = Instant::now();
        let qp = self.qp.as_ref().expect("LatentSolver: factorize must be called first");
        let design =
            self.design.as_ref().expect("LatentSolver: factorize must be called first");
        let congruence = ops::congruence_diag(design, weights);
        let qc = ops::add(1.0, qp, 1.0, &congruence);
        self.timers.assembly_seconds += t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        self.fc =
            Some(factor_with_cached_symbolic(&mut self.sym_qc, &qc).map_err(CoreError::SparseSolver)?);
        self.timers.factorize_seconds += t1.elapsed().as_secs_f64();
        Ok(())
    }

    fn extend_window(
        &mut self,
        model: Arc<CoregionalModel>,
        hyper: &ModelHyper,
    ) -> Result<(), CoreError> {
        // The general sparse factor has no trailing-block structure to reuse —
        // fall back to a full conditional refactorization of the new window.
        // The window change alters the sparsity pattern, so the symbolic cache
        // re-analyzes automatically (PatternMismatch path).
        assert!(
            model.dims.nt > self.model.dims.nt,
            "extend_window: the new window must have more time steps"
        );
        assert_eq!(
            (model.dims.block_size(), model.dims.arrow_size()),
            (self.model.dims.block_size(), self.model.dims.arrow_size()),
            "window update must preserve the block structure (mesh, nv, nr)"
        );
        self.model = model;
        self.factorize_conditional(hyper)
    }

    fn retire_window(
        &mut self,
        model: Arc<CoregionalModel>,
        hyper: &ModelHyper,
    ) -> Result<(), CoreError> {
        assert!(
            model.dims.nt < self.model.dims.nt,
            "retire_window: the new window must have fewer time steps"
        );
        assert_eq!(
            (model.dims.block_size(), model.dims.arrow_size()),
            (self.model.dims.block_size(), self.model.dims.arrow_size()),
            "window update must preserve the block structure (mesh, nv, nr)"
        );
        self.model = model;
        self.factorize_conditional(hyper)
    }

    fn design(&self) -> &CsrMatrix {
        self.design.as_ref().expect("LatentSolver: factorize must be called first")
    }

    fn logdet_qp(&self) -> f64 {
        self.fp.as_ref().expect("LatentSolver: factorize must be called first").logdet()
    }

    fn logdet_qc(&self) -> f64 {
        self.fc.as_ref().expect("LatentSolver: factorize must be called first").logdet()
    }

    fn solve_mean(&mut self, rhs: &[f64]) -> Vec<f64> {
        let fc = self.fc.as_ref().expect("LatentSolver: factorize must be called first");
        let t0 = Instant::now();
        let out = fc.solve(rhs);
        self.timers.solve_seconds += t0.elapsed().as_secs_f64();
        out
    }

    fn snapshot_factor(&self) -> Result<SnapshotFactor, CoreError> {
        let fc = self.fc.as_ref().expect("LatentSolver: factorize must be called first");
        Ok(SnapshotFactor::Sparse(fc.clone()))
    }

    fn quadratic_form_qp(&self, x: &[f64]) -> f64 {
        self.qp
            .as_ref()
            .expect("LatentSolver: factorize must be called first")
            .quadratic_form(x)
    }

    fn selected_inverse(&mut self) -> SelectedInverse {
        let fc = self.fc.as_ref().expect("LatentSolver: factorize must be called first");
        let t0 = Instant::now();
        let diag = fc.marginal_variances();
        self.timers.selinv_seconds += t0.elapsed().as_secs_f64();
        SelectedInverse::Diagonal(diag)
    }

    fn timers(&self) -> PhaseTimers {
        self.timers
    }

    fn reset_timers(&mut self) {
        self.timers.reset();
    }
}

/// Quadratic form `xᵀ A x` for a BTA matrix.
pub fn quadratic_form_bta(a: &BtaMatrix, x: &[f64]) -> f64 {
    let ax = a.matvec(x);
    x.iter().zip(&ax).map(|(a, b)| a * b).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dalia_mesh::{Domain, Point, TriangleMesh};
    use dalia_model::Observation;

    fn window_obs(nv: usize, t_range: std::ops::Range<usize>) -> Vec<Observation> {
        let mut obs = Vec::new();
        for v in 0..nv {
            for t in t_range.clone() {
                for &(x, y) in &[(0.25, 0.25), (0.75, 0.5), (0.4, 0.85)] {
                    obs.push(Observation {
                        var: v,
                        t,
                        loc: Point::new(x, y),
                        covariates: vec![1.0],
                        value: 0.3 * (v as f64) + 0.2 * (t as f64) + 0.1 * x,
                    });
                }
            }
        }
        obs
    }

    fn windowed_model(nv: usize, nt: usize) -> Arc<CoregionalModel> {
        let mesh = TriangleMesh::structured(Domain::unit_square(), 3, 3);
        Arc::new(CoregionalModel::new(&mesh, nt, 1.0, nv, 1, window_obs(nv, 0..nt)).unwrap())
    }

    fn toy_model(nv: usize) -> (Arc<CoregionalModel>, ModelHyper) {
        let hyper = ModelHyper::default_for(nv, 0.7, 2.0);
        (windowed_model(nv, 3), hyper)
    }

    fn backends() -> Vec<SolverBackend> {
        vec![
            SolverBackend::Bta { partitions: 1, load_balance: 1.0 },
            SolverBackend::Bta { partitions: 3, load_balance: 1.3 },
            SolverBackend::SparseGeneral,
        ]
    }

    #[test]
    fn factory_dispatches_to_the_right_implementation() {
        let (model, _) = toy_model(1);
        let names: Vec<&str> =
            backends().iter().map(|b| b.build(&model).backend_name()).collect();
        assert_eq!(names, vec!["bta-sequential", "bta-distributed", "sparse-general"]);
        // Partition counts beyond nt are capped, not panicked on.
        let capped = SolverBackend::Bta { partitions: 99, load_balance: 1.0 }.build(&model);
        assert_eq!(capped.backend_name(), "bta-distributed");
    }

    #[test]
    fn all_backends_agree_on_the_same_theta() {
        let (model, hyper) = toy_model(2);
        let mut reference: Option<(f64, f64, Vec<f64>, Vec<f64>)> = None;
        for backend in backends() {
            let mut solver = backend.build(&model);
            solver.factorize(&hyper).unwrap();
            let info = model.information_vector(&hyper, solver.design());
            let mean = solver.solve_mean(&info);
            let vars = solver.selected_inverse().diagonal();
            let (ldp, ldc) = (solver.logdet_qp(), solver.logdet_qc());
            match &reference {
                None => reference = Some((ldp, ldc, mean, vars)),
                Some((rp, rc, rmean, rvars)) => {
                    assert!((ldp - rp).abs() < 1e-8 * (1.0 + rp.abs()));
                    assert!((ldc - rc).abs() < 1e-8 * (1.0 + rc.abs()));
                    for (a, b) in mean.iter().zip(rmean) {
                        assert!((a - b).abs() < 1e-8);
                    }
                    for (a, b) in vars.iter().zip(rvars) {
                        assert!((a - b).abs() < 1e-8);
                    }
                }
            }
        }
    }

    #[test]
    fn refactorization_reuses_workspaces_without_contamination() {
        let (model, hyper) = toy_model(1);
        let mut theta2 = hyper.to_theta();
        theta2[0] += 0.4;
        theta2[2] -= 0.3;
        let hyper2 = ModelHyper::from_theta(1, &theta2);

        for backend in backends() {
            // Reused solver: factorize at θ₁, then θ₂.
            let mut reused = backend.build(&model);
            reused.factorize(&hyper).unwrap();
            reused.factorize(&hyper2).unwrap();
            // Fresh solver: factorize at θ₂ only.
            let mut fresh = backend.build(&model);
            fresh.factorize(&hyper2).unwrap();

            assert_eq!(reused.logdet_qp().to_bits(), fresh.logdet_qp().to_bits());
            assert_eq!(reused.logdet_qc().to_bits(), fresh.logdet_qc().to_bits());
            let info = model.information_vector(&hyper2, fresh.design());
            let m1 = reused.solve_mean(&info);
            let m2 = fresh.solve_mean(&info);
            for (a, b) in m1.iter().zip(&m2) {
                assert_eq!(a.to_bits(), b.to_bits(), "{} mean drift", reused.backend_name());
            }
        }
    }

    #[test]
    fn factorize_conditional_matches_full_factorization_for_qc() {
        let (model, hyper) = toy_model(2);
        for backend in backends() {
            let mut full = backend.build(&model);
            full.factorize(&hyper).unwrap();
            let mut cond = backend.build(&model);
            cond.factorize_conditional(&hyper).unwrap();
            let tag = cond.backend_name();
            assert_eq!(cond.logdet_qc().to_bits(), full.logdet_qc().to_bits(), "{tag}");
            let info = model.information_vector(&hyper, full.design());
            let m_full = full.solve_mean(&info);
            let m_cond = cond.solve_mean(&info);
            for (a, b) in m_full.iter().zip(&m_cond) {
                assert_eq!(a.to_bits(), b.to_bits(), "{tag}: mean");
            }
            let v_full = full.selected_inverse().diagonal();
            let v_cond = cond.selected_inverse().diagonal();
            for (a, b) in v_full.iter().zip(&v_cond) {
                assert_eq!(a.to_bits(), b.to_bits(), "{tag}: variances");
            }
            // Q_p stays assembled (quadratic form valid), just not factorized.
            assert_eq!(
                cond.quadratic_form_qp(&m_cond).to_bits(),
                full.quadratic_form_qp(&m_full).to_bits(),
                "{tag}: quadratic form"
            );
        }
    }

    #[test]
    fn timers_record_each_phase() {
        let (model, hyper) = toy_model(1);
        let mut solver = SolverBackend::Bta { partitions: 1, load_balance: 1.0 }.build(&model);
        solver.factorize(&hyper).unwrap();
        let info = model.information_vector(&hyper, solver.design());
        let _ = solver.solve_mean(&info);
        let _ = solver.selected_inverse();
        let t = solver.timers();
        assert!(t.assembly_seconds > 0.0);
        assert!(t.factorize_seconds > 0.0);
        assert!(t.solver_seconds() >= t.factorize_seconds);
        assert!(t.total_seconds() >= t.solver_seconds());
        solver.reset_timers();
        assert_eq!(solver.timers(), PhaseTimers::default());
    }

    /// Observations ordered time-outer so that a window extension appends to
    /// the list (old observations stay a prefix — the streaming precondition).
    fn stream_obs(nv: usize, t_range: std::ops::Range<usize>) -> Vec<Observation> {
        let mut obs = Vec::new();
        for t in t_range {
            for v in 0..nv {
                for &(x, y) in &[(0.25, 0.25), (0.75, 0.5), (0.4, 0.85)] {
                    obs.push(Observation {
                        var: v,
                        t,
                        loc: Point::new(x, y),
                        covariates: vec![1.0],
                        value: 0.3 * (v as f64) + 0.2 * (t as f64) + 0.1 * x,
                    });
                }
            }
        }
        obs
    }

    fn stream_models(
        nv: usize,
        nt_old: usize,
        nt_new: usize,
    ) -> (Arc<CoregionalModel>, Arc<CoregionalModel>) {
        let mesh = TriangleMesh::structured(Domain::unit_square(), 3, 3);
        let old_obs = stream_obs(nv, 0..nt_old);
        let mut all_obs = old_obs.clone();
        all_obs.extend(stream_obs(nv, nt_old..nt_new));
        let old = Arc::new(CoregionalModel::new(&mesh, nt_old, 1.0, nv, 1, old_obs).unwrap());
        let new = Arc::new(CoregionalModel::new(&mesh, nt_new, 1.0, nv, 1, all_obs).unwrap());
        (old, new)
    }

    /// Conditional-only results of a solver: `(logdet_qc, mean, variances)`.
    fn conditional_results(
        solver: &mut Box<dyn LatentSolver>,
        model: &CoregionalModel,
        hyper: &ModelHyper,
    ) -> (f64, Vec<f64>, Vec<f64>) {
        let info = model.information_vector(hyper, solver.design());
        let mean = solver.solve_mean(&info);
        let vars = solver.selected_inverse().diagonal();
        (solver.logdet_qc(), mean, vars)
    }

    fn assert_bitwise_eq(a: &(f64, Vec<f64>, Vec<f64>), b: &(f64, Vec<f64>, Vec<f64>), tag: &str) {
        assert_eq!(a.0.to_bits(), b.0.to_bits(), "{tag}: logdet_qc");
        for (x, y) in a.1.iter().zip(&b.1) {
            assert_eq!(x.to_bits(), y.to_bits(), "{tag}: mean");
        }
        for (x, y) in a.2.iter().zip(&b.2) {
            assert_eq!(x.to_bits(), y.to_bits(), "{tag}: variances");
        }
    }

    fn extended_results(
        backend: SolverBackend,
        hyper: &ModelHyper,
        old: &Arc<CoregionalModel>,
        new: &Arc<CoregionalModel>,
    ) -> (f64, Vec<f64>, Vec<f64>) {
        let mut solver = backend.build(old);
        solver.factorize(hyper).unwrap();
        solver.extend_window(new.clone(), hyper).unwrap();
        conditional_results(&mut solver, new, hyper)
    }

    #[test]
    fn extend_window_matches_cold_factorization_bitwise() {
        let hyper = ModelHyper::default_for(2, 0.7, 2.0);
        let (old, new) = stream_models(2, 4, 6);

        // Cold sequential reference on the full new window. The distributed
        // backend's window mode holds a monolithic sequential factor, so the
        // sequential cold factorization is the reference for both.
        let seq = SolverBackend::Bta { partitions: 1, load_balance: 1.0 };
        let mut cold = seq.build(&new);
        cold.factorize_conditional(&hyper).unwrap();
        let reference = conditional_results(&mut cold, &new, &hyper);

        for backend in [seq, SolverBackend::Bta { partitions: 3, load_balance: 1.3 }] {
            let got = extended_results(backend, &hyper, &old, &new);
            assert_bitwise_eq(&got, &reference, "extend(1 thread)");

            let got4 = dalia_pool::ThreadPool::new(4)
                .install(|| extended_results(backend, &hyper, &old, &new));
            assert_bitwise_eq(&got4, &reference, "extend(4 threads)");
        }

        // The sparse fallback refactorizes fully — identical to a cold sparse
        // conditional factorization of the new window.
        let mut cold_sp = SolverBackend::SparseGeneral.build(&new);
        cold_sp.factorize_conditional(&hyper).unwrap();
        let ref_sp = conditional_results(&mut cold_sp, &new, &hyper);
        let got_sp = extended_results(SolverBackend::SparseGeneral, &hyper, &old, &new);
        assert_bitwise_eq(&got_sp, &ref_sp, "extend(sparse fallback)");
    }

    #[test]
    fn retire_window_matches_cold_factorization_bitwise() {
        let hyper = ModelHyper::default_for(1, 0.7, 2.0);
        let (retired, full) = stream_models(1, 4, 6);

        let seq = SolverBackend::Bta { partitions: 1, load_balance: 1.0 };
        let mut cold = seq.build(&retired);
        cold.factorize_conditional(&hyper).unwrap();
        let reference = conditional_results(&mut cold, &retired, &hyper);

        for backend in [seq, SolverBackend::Bta { partitions: 3, load_balance: 1.3 }] {
            let mut solver = backend.build(&full);
            solver.factorize(&hyper).unwrap();
            solver.retire_window(retired.clone(), &hyper).unwrap();
            let got = conditional_results(&mut solver, &retired, &hyper);
            assert_bitwise_eq(&got, &reference, "retire");
        }
    }

    #[test]
    fn distributed_returns_to_partitioned_scheme_after_window_update() {
        let hyper = ModelHyper::default_for(1, 0.7, 2.0);
        let (old, new) = stream_models(1, 4, 6);
        let backend = SolverBackend::Bta { partitions: 3, load_balance: 1.3 };

        let mut streamed = backend.build(&old);
        streamed.factorize(&hyper).unwrap();
        assert_eq!(streamed.backend_name(), "bta-distributed");
        streamed.extend_window(new.clone(), &hyper).unwrap();
        // The window factor is monolithic now; the label follows the
        // configured partition count, not the factor representation.
        assert_eq!(streamed.backend_name(), "bta-distributed");
        // A subsequent full factorization rebuilds the partitioned scheme for
        // the new window and matches a cold distributed solver bitwise.
        streamed.factorize(&hyper).unwrap();
        let mut cold = backend.build(&new);
        cold.factorize(&hyper).unwrap();
        assert_eq!(streamed.logdet_qp().to_bits(), cold.logdet_qp().to_bits());
        assert_eq!(streamed.logdet_qc().to_bits(), cold.logdet_qc().to_bits());
    }

    #[test]
    fn sequential_backend_keeps_its_label_through_window_updates() {
        let hyper = ModelHyper::default_for(1, 0.7, 2.0);
        let (old, new) = stream_models(1, 4, 6);
        let mut solver = SolverBackend::Bta { partitions: 1, load_balance: 1.0 }.build(&old);
        solver.factorize(&hyper).unwrap();
        assert_eq!(solver.backend_name(), "bta-sequential");
        solver.extend_window(new.clone(), &hyper).unwrap();
        assert_eq!(solver.backend_name(), "bta-sequential");
        solver.retire_window(old.clone(), &hyper).unwrap();
        assert_eq!(solver.backend_name(), "bta-sequential");
    }

    fn is_partitioned(f: &Option<DistBtaCholesky>) -> bool {
        matches!(f, Some(DistBtaCholesky::Partitioned { .. }))
    }

    #[test]
    fn window_update_holds_a_monolithic_factor_until_the_next_full_factorization() {
        let hyper = ModelHyper::default_for(1, 0.7, 2.0);
        let (old, new) = stream_models(1, 4, 6);
        let mut solver = BtaSolver::new(old, 3, 1.3);
        solver.factorize(&hyper).unwrap();
        assert!(solver.logdet_qp.is_some() && is_partitioned(&solver.fc));
        solver.extend_window(new, &hyper).unwrap();
        assert!(solver.logdet_qp.is_none());
        assert!(matches!(solver.fc, Some(DistBtaCholesky::Sequential(_))));
        assert_eq!(solver.part.num_blocks(), 6, "partitioning follows the new window");
        assert!(
            solver.ws.process.is_none() && solver.ws.process_factor.is_none(),
            "process storage sized for the old window is dropped"
        );
        solver.factorize_conditional(&hyper).unwrap();
        assert!(is_partitioned(&solver.fc));
    }

    #[test]
    fn single_partition_recycles_factor_storage_across_factorizations() {
        let (model, hyper) = toy_model(1);
        let mut theta2 = hyper.to_theta();
        theta2[0] += 0.3;
        let hyper2 = ModelHyper::from_theta(1, &theta2);
        let mut solver = BtaSolver::new(model, 1, 1.0);
        let diag_ptr = |f: &Option<DistBtaCholesky>| match f {
            Some(DistBtaCholesky::Sequential(f)) => f.blocks.diag[0].as_slice().as_ptr(),
            _ => panic!("one partition must hold a sequential factor"),
        };
        let process_ptrs = |s: &BtaSolver| {
            let f = s.ws.process_factor.as_ref().expect("factorize keeps a process factor");
            let q = s.ws.process.as_ref().expect("factorize keeps a process precision");
            (q.diag[0].as_slice().as_ptr(), f.blocks.diag[0].as_slice().as_ptr())
        };
        solver.factorize(&hyper).unwrap();
        let (p0, c0) = (process_ptrs(&solver), diag_ptr(&solver.fc));
        solver.factorize(&hyper2).unwrap();
        assert_eq!(process_ptrs(&solver), p0, "process storage must be recycled");
        assert_eq!(diag_ptr(&solver.fc), c0, "Q_c factor storage must be recycled");
        solver.factorize_conditional(&hyper).unwrap();
        assert_eq!(diag_ptr(&solver.fc), c0, "conditional refactorization must recycle too");
    }

    #[test]
    fn assembly_rebuilds_the_congruence_in_kept_storage() {
        let (model, hyper) = toy_model(1);
        let mut theta2 = hyper.to_theta();
        theta2[0] += 0.3;
        let hyper2 = ModelHyper::from_theta(1, &theta2);
        let mut solver = BtaSolver::new(model.clone(), 1, 1.0);
        solver.factorize(&hyper).unwrap();
        let kept = solver.ws.congruence.values().as_ptr();
        solver.factorize(&hyper2).unwrap();
        assert_eq!(solver.ws.congruence.values().as_ptr(), kept);
        solver.refactorize_conditional(&model.initial_working_weights(&hyper2)).unwrap();
        assert_eq!(solver.ws.congruence.values().as_ptr(), kept);
    }

    #[test]
    fn factor_bta_rejects_indefinite_matrices_for_every_partition_count() {
        let mut m = serinv::testing::test_matrix(6, 3, 2, 4);
        m.diag[2][(0, 0)] = -100.0;
        for partitions in [1, 2] {
            let part = Partitioning::load_balanced(6, partitions, 1.0);
            let err = factor_bta(&m, &part, None, &mut PackBuffer::new());
            assert!(matches!(err, Err(CoreError::Solver(_))), "P={partitions}");
        }
    }

    #[test]
    fn a_process_factor_that_is_not_spd_is_a_solver_error() {
        // A spatial range this small overflows γ_s² and leaves NaN in the
        // process coefficients; the process factorization rejects them
        // before Q_c is factorized.
        let (model, mut hyper) = toy_model(2);
        hyper.range_s[1] = 1e-200;
        for partitions in [1, 3] {
            let mut solver = BtaSolver::new(model.clone(), partitions, 1.3);
            let err = solver.factorize(&hyper);
            assert!(matches!(err, Err(CoreError::Solver(_))), "P={partitions}: {err:?}");
            assert!(solver.logdet_qp.is_none() && solver.fc.is_none(), "P={partitions}");
        }
    }

    #[test]
    fn snapshot_factor_is_monolithic_and_agrees_across_partition_counts() {
        let (model, hyper) = toy_model(2);
        let logdets: Vec<u64> = [1, 3]
            .into_iter()
            .map(|partitions| {
                let backend = SolverBackend::Bta { partitions, load_balance: 1.3 };
                let mut solver = backend.build(&model);
                solver.factorize(&hyper).unwrap();
                let SnapshotFactor::Bta(f) = solver.snapshot_factor().unwrap() else {
                    panic!("a BTA solver must hand out a BTA snapshot");
                };
                assert_eq!(f.blocks.n, model.dims.nt);
                let ld = f.logdet().unwrap();
                if partitions == 1 {
                    assert_eq!(ld.to_bits(), solver.logdet_qc().to_bits());
                }
                ld.to_bits()
            })
            .collect();
        assert_eq!(logdets[0], logdets[1], "both snapshots factor the same Q_c sequentially");
    }

    #[test]
    fn refactorize_conditional_is_reproducible_for_every_partition_count() {
        let (model, hyper) = toy_model(1);
        let mut theta2 = hyper.to_theta();
        theta2[1] += 0.4;
        let hyper2 = ModelHyper::from_theta(1, &theta2);
        let weights: Vec<f64> = (0..model.n_obs()).map(|i| 0.5 + 0.1 * (i % 7) as f64).collect();
        let mut reference: Option<f64> = None;
        for partitions in [1, 3] {
            let backend = SolverBackend::Bta { partitions, load_balance: 1.3 };
            let mut fresh = backend.build(&model);
            fresh.factorize(&hyper).unwrap();
            fresh.refactorize_conditional(&weights).unwrap();
            // A solver that visited another θ first lands on the same factor.
            let mut reused = backend.build(&model);
            reused.factorize(&hyper2).unwrap();
            reused.factorize(&hyper).unwrap();
            reused.refactorize_conditional(&weights).unwrap();
            assert_eq!(fresh.logdet_qc().to_bits(), reused.logdet_qc().to_bits(), "P={partitions}");
            // Q_p is untouched by a reweighting.
            assert_eq!(fresh.logdet_qp().to_bits(), reused.logdet_qp().to_bits(), "P={partitions}");
            let ld = fresh.logdet_qc();
            match reference {
                None => reference = Some(ld),
                Some(r) => assert!((ld - r).abs() < 1e-8 * (1.0 + r.abs()), "P={partitions}"),
            }
        }
    }

    #[test]
    fn extend_window_leaves_solver_in_conditional_only_state() {
        let hyper = ModelHyper::default_for(1, 0.7, 2.0);
        let (old, new) = stream_models(1, 3, 4);
        let mut solver = SolverBackend::Bta { partitions: 1, load_balance: 1.0 }.build(&old);
        solver.factorize(&hyper).unwrap();
        solver.extend_window(new.clone(), &hyper).unwrap();
        assert_eq!(solver.model().dims.nt, 4);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| solver.logdet_qp()));
        assert!(err.is_err(), "logdet_qp must be unavailable after a window update");
    }

    #[test]
    fn timers_merge_accumulates() {
        let mut a = PhaseTimers {
            assembly_seconds: 1.0,
            factorize_seconds: 2.0,
            solve_seconds: 0.5,
            selinv_seconds: 0.25,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.assembly_seconds, 2.0);
        assert_eq!(a.solver_seconds(), 5.5);
    }
}
