//! The end-to-end INLA engine: a stateful [`InlaSession`] built once per
//! (model, prior, settings) triple that owns a pool of reusable
//! [`LatentSolver`] workspaces and runs the full pipeline — hyperparameter
//! optimization, Gaussian approximation of their posterior, latent marginals
//! and prediction.
//!
//! Sessions are constructed through [`InlaEngine::builder`]:
//!
//! ```
//! use dalia_core::{InlaEngine, InlaSettings, SolverBackend};
//! use dalia_mesh::{Domain, Point, TriangleMesh};
//! use dalia_model::{CoregionalModel, ModelHyper, Observation, ThetaPrior};
//! use std::sync::Arc;
//!
//! let mesh = TriangleMesh::structured(Domain::unit_square(), 3, 3);
//! let obs = vec![Observation {
//!     var: 0,
//!     t: 0,
//!     loc: Point::new(0.4, 0.6),
//!     covariates: vec![1.0],
//!     value: 0.3,
//! }];
//! let model = Arc::new(CoregionalModel::new(&mesh, 2, 1.0, 1, 1, obs).unwrap());
//! let theta0 = ModelHyper::default_for(1, 0.5, 2.0).to_theta();
//!
//! let session = InlaEngine::builder(&model)
//!     .prior(ThetaPrior::weakly_informative(&theta0, 3.0))
//!     .settings(InlaSettings::dalia(1))
//!     .backend(SolverBackend::Bta { partitions: 1, load_balance: 1.0 })
//!     .build()
//!     .unwrap();
//! assert!(session.objective(&theta0).unwrap().is_finite());
//! // Repeat evaluations reuse the same solver workspaces.
//! assert!(session.objective(&theta0).unwrap().is_finite());
//! ```

use crate::objective::{evaluate_fobj_with_inner, FobjResult, InnerSettings};
use crate::optimizer::{evaluate_gradient, maximize_fobj, negative_hessian, IterationRecord};
use crate::posterior::{
    factorize_at_mode, fixed_effect_summaries, latent_marginals, FixedEffectSummary,
    HyperMarginals, LatentMarginals,
};
use crate::settings::InlaSettings;
use crate::snapshot::{PosteriorSnapshot, SelectedInverse};
use crate::solver::{LatentSolver, PhaseTimers};
use crate::CoreError;
use dalia_model::{CoregionalModel, ModelHyper, Observation, ThetaPrior};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Complete result of an INLA run.
#[derive(Clone, Debug)]
pub struct InlaResult {
    /// Hyperparameter posterior (mode + Gaussian approximation).
    pub hyper: HyperMarginals,
    /// The hyperparameters at the mode in structured form.
    pub hyper_mode: ModelHyper,
    /// Latent field marginals at the mode.
    pub latent: LatentMarginals,
    /// Fixed-effect summaries.
    pub fixed_effects: Vec<FixedEffectSummary>,
    /// Objective value at the mode.
    pub fobj_at_mode: f64,
    /// Per-iteration optimizer trace.
    pub trace: Vec<IterationRecord>,
    /// Whether the optimizer converged within its iteration budget.
    pub converged: bool,
    /// Total wall-clock seconds of the run.
    pub total_seconds: f64,
    /// Average wall-clock seconds per BFGS iteration (the quantity the paper
    /// reports in its scaling figures).
    pub seconds_per_iteration: f64,
    /// Solver-phase timings accumulated over every evaluation of the run,
    /// measured as the increment of the session accumulator across the run.
    /// If other threads evaluate through the same session concurrently, their
    /// phase times are included in the delta.
    pub timers: PhaseTimers,
}

impl InlaResult {
    /// Freeze this result into an immutable, `Arc`-shareable
    /// [`PosteriorSnapshot`], consuming the result's summaries (the
    /// non-cloning counterpart of [`InlaSession::snapshot`]).
    ///
    /// Re-factorizes `Q_c` at the result's mode on a pooled solver and runs
    /// one selected inversion (one-time costs, recorded in the session
    /// timers), then extracts the portable read-only factor and the kept
    /// selected inverse that exact variances read; the optimizer trace and
    /// timing fields are dropped — a snapshot is a serving artifact, not a
    /// fit report.
    pub fn into_snapshot(self, session: &InlaSession) -> Result<PosteriorSnapshot, CoreError> {
        let mut solver = session.pool.acquire();
        solver.reset_timers();
        let parts = factorize_at_mode(solver.as_mut(), &self.hyper_mode, &self.latent.mean)
            .and_then(|()| Ok((solver.snapshot_factor()?, solver.selected_inverse())));
        let backend = solver.backend_name();
        session.accum.lock().expect("timer accumulator poisoned").merge(&solver.timers());
        session.pool.release(solver);
        let (factor, sigma) = parts?;
        Ok(PosteriorSnapshot::from_parts(
            session.model.clone(),
            self.hyper_mode,
            self.latent,
            self.hyper,
            self.fixed_effects,
            factor,
            sigma,
            backend,
        ))
    }
}

/// A pool of stateful solvers, one per concurrent evaluation lane. The S1
/// parallel gradient checks solvers out of the pool, so the pool grows to the
/// actual parallelism of the run and every solver keeps its workspaces
/// (pre-allocated BTA blocks, cached symbolic analysis, partitioning) warm
/// across evaluations.
struct SolverPool {
    model: Arc<CoregionalModel>,
    settings: InlaSettings,
    idle: Mutex<Vec<Box<dyn LatentSolver>>>,
}

impl SolverPool {
    fn new(model: Arc<CoregionalModel>, settings: InlaSettings) -> Self {
        // Construct the first solver eagerly so the session pays structure
        // setup once at build time, not inside the first timed evaluation.
        let first = settings.backend.build(&model);
        Self { model, settings, idle: Mutex::new(vec![first]) }
    }

    fn acquire(&self) -> Box<dyn LatentSolver> {
        let recycled = self.idle.lock().expect("solver pool poisoned").pop();
        recycled.unwrap_or_else(|| self.settings.backend.build(&self.model))
    }

    fn release(&self, solver: Box<dyn LatentSolver>) {
        self.idle.lock().expect("solver pool poisoned").push(solver);
    }

    fn size(&self) -> usize {
        self.idle.lock().expect("solver pool poisoned").len()
    }
}

/// A stateful INLA session: one model, one prior, one solver backend, and a
/// pool of reusable solver workspaces shared by every evaluation the session
/// performs.
///
/// Built via [`InlaEngine::builder`]. All methods take `&self`; the session is
/// `Sync` and the S1 gradient layer evaluates through it from parallel worker
/// threads.
pub struct InlaSession {
    model: Arc<CoregionalModel>,
    prior: ThetaPrior,
    settings: InlaSettings,
    pool: SolverPool,
    accum: Mutex<PhaseTimers>,
}

impl InlaSession {
    /// The latent Gaussian model.
    pub fn model(&self) -> &CoregionalModel {
        &self.model
    }

    /// Prior on the hyperparameter vector.
    pub fn prior(&self) -> &ThetaPrior {
        &self.prior
    }

    /// Framework settings (solver backend, parallelism, tolerances).
    pub fn settings(&self) -> &InlaSettings {
        &self.settings
    }

    /// Number of solver workspaces currently held by the session (grows to the
    /// S1 parallelism actually observed).
    pub fn solver_pool_size(&self) -> usize {
        self.pool.size()
    }

    /// Evaluate the objective at `theta`, returning the full result.
    pub fn evaluate(&self, theta: &[f64]) -> Result<FobjResult, CoreError> {
        let mut solver = self.pool.acquire();
        let result = evaluate_fobj_with_inner(
            solver.as_mut(),
            &self.prior,
            theta,
            InnerSettings::from(&self.settings),
        );
        self.pool.release(solver);
        if let Ok(r) = &result {
            self.accum.lock().expect("timer accumulator poisoned").merge(&r.timers);
        }
        result
    }

    /// Evaluate the objective at a single θ (used by the benchmark harnesses
    /// to time one function evaluation without running the full pipeline).
    pub fn objective(&self, theta: &[f64]) -> Result<f64, CoreError> {
        Ok(self.evaluate(theta)?.value)
    }

    /// Time one full gradient evaluation: the `2·dim(θ) + 1` objective
    /// evaluations of one S1 fan-out, as BFGS spends at its start point (each
    /// later iteration adds one evaluation per line-search trial to the
    /// `2·dim(θ)` ±h points of the accepted point). Returns
    /// `(seconds, solver_seconds)`.
    pub fn time_one_iteration(&self, theta: &[f64]) -> Result<(f64, f64), CoreError> {
        let t0 = Instant::now();
        let g = evaluate_gradient(self, theta)?;
        Ok((t0.elapsed().as_secs_f64(), g.solver_seconds()))
    }

    /// Latent marginals at `hyper` around the given conditional mean, using a
    /// pooled solver.
    pub fn latent_marginals(
        &self,
        hyper: &ModelHyper,
        mean: Vec<f64>,
    ) -> Result<LatentMarginals, CoreError> {
        let mut solver = self.pool.acquire();
        solver.reset_timers();
        let result = latent_marginals(solver.as_mut(), hyper, mean);
        self.accum.lock().expect("timer accumulator poisoned").merge(&solver.timers());
        self.pool.release(solver);
        result
    }

    /// Freeze `result` into an immutable, `Arc`-shareable
    /// [`PosteriorSnapshot`] for read-only serving, cloning the result's
    /// posterior summaries (see [`InlaResult::into_snapshot`] for the
    /// consuming variant).
    pub fn snapshot(&self, result: &InlaResult) -> Result<PosteriorSnapshot, CoreError> {
        result.clone().into_snapshot(self)
    }

    /// Open a [`StreamingWindow`] at `result`'s mode: a session mode that
    /// advances the fitted temporal window slice-by-slice
    /// ([`append_slices`](StreamingWindow::append_slices) /
    /// [`retire_slices`](StreamingWindow::retire_slices)) with incremental
    /// trailing-block refactorization instead of full refits. Updates only
    /// rebuild the window's model; the factorization and re-pin they owe run
    /// once, at the next [`snapshot`](StreamingWindow::snapshot), and their
    /// factorization errors surface there.
    ///
    /// The window owns a dedicated solver (built fresh from the session's
    /// backend, leaving the session pool untouched) pinned at the result's
    /// hyperparameter mode. Only Gaussian likelihoods stream: the incremental
    /// kernels advance the conditional factor at the initial working weights,
    /// which for non-Gaussian families would discard the inner Newton loop's
    /// mode-dependent reweighting.
    pub fn streaming_window(&self, result: &InlaResult) -> Result<StreamingWindow, CoreError> {
        if !self.model.likelihood().is_quadratic() {
            return Err(CoreError::InvalidWindowUpdate(
                "streaming windows require a Gaussian likelihood: incremental refactorization \
                 advances the conditional factor at the initial working weights"
                    .into(),
            ));
        }
        let mut solver = self.settings.backend.build(&self.model);
        solver.factorize_conditional(&result.hyper_mode)?;
        let pinned = Pinned::new(solver.as_mut(), &self.model, &result.hyper_mode);
        Ok(StreamingWindow {
            model: self.model.clone(),
            hyper_mode: result.hyper_mode.clone(),
            hyper: result.hyper.clone(),
            backend_name: solver.backend_name(),
            state: Mutex::new(WindowState {
                solver,
                kept: self.model.dims.nt,
                pinned: Some(pinned),
            }),
        })
    }

    /// Phase timings accumulated over every evaluation since the session was
    /// built (or since [`reset_timers`](Self::reset_timers)).
    pub fn timers(&self) -> PhaseTimers {
        *self.accum.lock().expect("timer accumulator poisoned")
    }

    /// Reset the session-level timing accumulator.
    pub fn reset_timers(&self) {
        self.accum.lock().expect("timer accumulator poisoned").reset();
    }

    /// Run the full INLA pipeline starting from `theta0`.
    pub fn run(&self, theta0: &[f64]) -> Result<InlaResult, CoreError> {
        let t0 = Instant::now();
        // Snapshot instead of resetting, so `run` does not clobber the
        // session-level accumulator other callers may be reading.
        let timers_before = self.timers();
        // 1. Find the hyperparameter mode.
        let opt = maximize_fobj(self, theta0)?;

        // 2. Gaussian approximation of the hyperparameter posterior.
        let hess = negative_hessian(self, &opt.theta)?;
        let hyper = HyperMarginals::from_hessian(opt.theta.clone(), &hess)?;

        // 3. Latent marginals at the mode (selected inversion of Q_c).
        let hyper_mode = ModelHyper::from_theta(self.model.dims.nv, &opt.theta);
        let latent = self.latent_marginals(&hyper_mode, opt.central.mean.clone())?;
        let fixed_effects = fixed_effect_summaries(&self.model, &latent);

        let total_seconds = t0.elapsed().as_secs_f64();
        let n_iter = opt.trace.len().max(1);
        Ok(InlaResult {
            hyper,
            hyper_mode,
            latent,
            fixed_effects,
            fobj_at_mode: opt.value,
            trace: opt.trace,
            converged: opt.converged,
            total_seconds,
            seconds_per_iteration: total_seconds / n_iter as f64,
            timers: self.timers().delta_since(&timers_before),
        })
    }
}

/// Builder for an [`InlaSession`]. Obtained from [`InlaEngine::builder`].
pub struct InlaSessionBuilder {
    model: Arc<CoregionalModel>,
    prior: Option<ThetaPrior>,
    settings: InlaSettings,
}

impl InlaSessionBuilder {
    /// Set the prior on the hyperparameter vector. Defaults to a weakly
    /// informative prior centered at the model's default hyperparameters.
    pub fn prior(mut self, prior: ThetaPrior) -> Self {
        self.prior = Some(prior);
        self
    }

    /// Set the full framework settings (defaults to [`InlaSettings::dalia`]
    /// with a single partition).
    pub fn settings(mut self, settings: InlaSettings) -> Self {
        self.settings = settings;
        self
    }

    /// Override just the solver backend of the current settings.
    pub fn backend(mut self, backend: crate::settings::SolverBackend) -> Self {
        self.settings.backend = backend;
        self
    }

    /// Override the maximum number of BFGS iterations.
    pub fn max_iter(mut self, max_iter: usize) -> Self {
        self.settings.max_iter = max_iter;
        self
    }

    /// Validate the configuration and construct the session (including its
    /// first solver workspace).
    pub fn build(self) -> Result<InlaSession, CoreError> {
        self.settings.validate()?;
        let prior = self.prior.unwrap_or_else(|| {
            let theta0 = ModelHyper::default_for(self.model.dims.nv, 0.7, 2.0).to_theta();
            ThetaPrior::weakly_informative(&theta0, 3.0)
        });
        Ok(InlaSession {
            model: self.model.clone(),
            prior,
            settings: self.settings.clone(),
            pool: SolverPool::new(self.model, self.settings),
            accum: Mutex::new(PhaseTimers::default()),
        })
    }
}

/// Entry point to the INLA engine: construct an [`InlaSession`] through
/// [`InlaEngine::builder`].
pub struct InlaEngine;

impl InlaEngine {
    /// Start building a session for `model`. The session clones the `Arc`,
    /// so one model is shared by any number of sessions, solvers, snapshots
    /// and streaming windows without copying.
    pub fn builder(model: &Arc<CoregionalModel>) -> InlaSessionBuilder {
        InlaSessionBuilder { model: model.clone(), prior: None, settings: InlaSettings::dalia(1) }
    }
}

/// A fitted system advancing through time: the streaming session mode opened
/// by [`InlaSession::streaming_window`].
///
/// The window owns a dedicated [`LatentSolver`] pinned at the hyperparameter
/// mode of the originating fit. [`append_slices`](Self::append_slices) grows
/// the temporal window by `k` new time slices (with their observations) and
/// [`retire_slices`](Self::retire_slices) drops the `k` oldest. Both rebuild
/// the window's model at once, so [`model`](Self::model) and
/// [`nt`](Self::nt) always describe the current window, but defer the solver
/// work to the next [`snapshot`](Self::snapshot). That snapshot advances the
/// conditional BTA factor once through the incremental streaming kernels
/// (`pobtaf_extend` when only slices were appended since the last snapshot,
/// `pobtaf_retire` once the head moved) instead of refitting, then re-pins
/// the latent mean, selected inverse, marginal standard deviations and
/// fixed-effect summaries on the new window. A slide (append then retire)
/// therefore costs one assembly, one factorization and one selected
/// inversion, and its outputs are bitwise those of running every update
/// eagerly. Factorization errors of the deferred work surface at the
/// snapshot. The hyperparameter posterior stays pinned at the original fit —
/// streaming updates the latent field conditional on θ̂, which is the
/// serving-time trade-off: re-estimate θ with a full refit when the window
/// has drifted far enough.
///
/// [`snapshot`](Self::snapshot) freezes the current window into a fresh
/// [`PosteriorSnapshot`] without a refit, so a serving layer can follow the
/// advancing window by swapping snapshots. Snapshots taken with no update in
/// between share one selected inverse; an update drops the window's hold on
/// it. `snapshot` takes `&self`: the solver and the pinned outputs sit behind
/// one lock, so the window is `Send + Sync`.
pub struct StreamingWindow {
    model: Arc<CoregionalModel>,
    hyper_mode: ModelHyper,
    hyper: HyperMarginals,
    backend_name: &'static str,
    state: Mutex<WindowState>,
}

/// The solver side of a [`StreamingWindow`], advanced lazily by `snapshot`.
struct WindowState {
    solver: Box<dyn LatentSolver>,
    /// Leading slices of the window whose factor columns are still valid:
    /// unchanged by appends, 0 after any retire or failed advance.
    kept: usize,
    /// The outputs pinned on the current window; `None` while an update is
    /// owed.
    pinned: Option<Pinned>,
}

/// What a re-pin computes once per window and every snapshot shares.
struct Pinned {
    sigma: SelectedInverse,
    latent: LatentMarginals,
    fixed_effects: Vec<FixedEffectSummary>,
}

impl Pinned {
    /// Pin the latent mean, selected inverse, marginal variances and
    /// fixed-effect summaries on `solver`'s conditional factor (Gaussian
    /// likelihood: the conditional mode is the single linear solve
    /// `Q_c μ = Aᵀ D y`).
    fn new(solver: &mut dyn LatentSolver, model: &CoregionalModel, hyper: &ModelHyper) -> Self {
        let info = model.information_vector(hyper, solver.design());
        let mean = solver.solve_mean(&info);
        let sigma = solver.selected_inverse();
        let latent = LatentMarginals::from_variances(mean, &sigma.diagonal());
        let fixed_effects = fixed_effect_summaries(model, &latent);
        Self { sigma, latent, fixed_effects }
    }
}

// The window crosses threads with the service that follows it.
const _: fn() = || {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<StreamingWindow>();
};

impl StreamingWindow {
    /// The model of the current window.
    pub fn model(&self) -> &CoregionalModel {
        &self.model
    }

    /// The pinned hyperparameters (the originating fit's mode).
    pub fn hyper_mode(&self) -> &ModelHyper {
        &self.hyper_mode
    }

    /// The backend driving the incremental updates.
    pub fn backend_name(&self) -> &'static str {
        self.backend_name
    }

    /// Number of time slices in the current window.
    pub fn nt(&self) -> usize {
        self.model.dims.nt
    }

    /// Append `k` new time slices carrying `new_obs` to the trailing end of
    /// the window. The model is rebuilt now; the factorization is deferred to
    /// the next [`snapshot`](Self::snapshot), which re-eliminates only the
    /// trailing block columns if no retire came in between, and reports any
    /// factorization error.
    ///
    /// Every new observation must reference one of the appended slices
    /// (`t ∈ [nt, nt+k)`); the existing observations are kept verbatim as a
    /// prefix, which is what makes the retained factor columns valid. New
    /// observations get unit scale; per-observation scales of the original
    /// fit are preserved.
    pub fn append_slices(&mut self, k: usize, new_obs: Vec<Observation>) -> Result<(), CoreError> {
        if k == 0 {
            return Err(CoreError::InvalidWindowUpdate(
                "append_slices: must append at least one slice".into(),
            ));
        }
        let nt_old = self.model.dims.nt;
        let nt_new = nt_old + k;
        for o in &new_obs {
            if o.t < nt_old || o.t >= nt_new {
                return Err(CoreError::InvalidWindowUpdate(format!(
                    "append_slices: new observation at t = {} lies outside the appended \
                     slices [{nt_old}, {nt_new})",
                    o.t
                )));
            }
        }
        let mut obs = self.model.observations.clone();
        let mut scales = self.model.observation_scales().to_vec();
        scales.resize(obs.len() + new_obs.len(), 1.0);
        obs.extend(new_obs);
        self.model = Arc::new(
            CoregionalModel::new(
                &self.model.mesh,
                nt_new,
                self.model.spde.temporal.dt,
                self.model.dims.nv,
                self.model.dims.nr,
                obs,
            )?
            .with_observation_scales(scales)?,
        );
        self.state()?.pinned = None;
        Ok(())
    }

    /// Retire the `k` oldest time slices: observations on them are dropped
    /// and the surviving observations are re-indexed (`t -= k`). The model is
    /// rebuilt now; the refactorization is deferred to the next
    /// [`snapshot`](Self::snapshot), which reports any factorization error.
    /// Retiring the head invalidates every factor column, so that snapshot
    /// refills the whole factor — in place, allocation-free.
    pub fn retire_slices(&mut self, k: usize) -> Result<(), CoreError> {
        if k == 0 {
            return Err(CoreError::InvalidWindowUpdate(
                "retire_slices: must retire at least one slice".into(),
            ));
        }
        let nt_old = self.model.dims.nt;
        if k >= nt_old {
            return Err(CoreError::InvalidWindowUpdate(format!(
                "retire_slices: retiring {k} of {nt_old} slices would empty the window"
            )));
        }
        let mut obs = Vec::with_capacity(self.model.observations.len());
        let mut scales = Vec::with_capacity(obs.capacity());
        for (o, &s) in self.model.observations.iter().zip(self.model.observation_scales()) {
            if o.t >= k {
                let mut o = o.clone();
                o.t -= k;
                obs.push(o);
                scales.push(s);
            }
        }
        self.model = Arc::new(
            CoregionalModel::new(
                &self.model.mesh,
                nt_old - k,
                self.model.spde.temporal.dt,
                self.model.dims.nv,
                self.model.dims.nr,
                obs,
            )?
            .with_observation_scales(scales)?,
        );
        let state = self.state()?;
        state.kept = 0;
        state.pinned = None;
        Ok(())
    }

    /// Freeze the current window into an immutable [`PosteriorSnapshot`]
    /// without refitting — the cheap re-snapshot path a serving layer uses to
    /// follow the advancing window. The first snapshot after an update does
    /// the deferred work: one assembly, one factorization and one re-pin of
    /// the current window. Its factorization errors surface here, and the
    /// next snapshot retries with a cold factorization. Snapshots with no
    /// update in between share the window's selected inverse (an `Arc` clone
    /// on the BTA backends, no block copy).
    pub fn snapshot(&self) -> Result<PosteriorSnapshot, CoreError> {
        let mut state = self.state.lock().map_err(|_| CoreError::WindowPoisoned)?;
        let WindowState { solver, kept, pinned } = &mut *state;
        let pinned = match pinned {
            Some(pinned) => pinned,
            None => {
                // A failed advance leaves `kept = 0`: the retry starts cold.
                solver.advance_window(self.model.clone(), &self.hyper_mode, std::mem::take(kept))?;
                *kept = self.model.dims.nt;
                pinned.insert(Pinned::new(solver.as_mut(), &self.model, &self.hyper_mode))
            }
        };
        let factor = solver.snapshot_factor()?;
        Ok(PosteriorSnapshot::from_parts(
            self.model.clone(),
            self.hyper_mode.clone(),
            pinned.latent.clone(),
            self.hyper.clone(),
            pinned.fixed_effects.clone(),
            factor,
            pinned.sigma.clone(),
            self.backend_name,
        ))
    }

    /// The solver state, through `&mut self` (no locking).
    fn state(&mut self) -> Result<&mut WindowState, CoreError> {
        self.state.get_mut().map_err(|_| CoreError::WindowPoisoned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dalia_mesh::{Domain, Point, TriangleMesh};
    use dalia_model::Observation;

    /// A univariate model with data simulated from known fixed effect and
    /// noise so the engine has something meaningful to recover.
    fn toy_model() -> (Arc<CoregionalModel>, Vec<f64>) {
        let mesh = TriangleMesh::structured(Domain::unit_square(), 3, 3);
        let nt = 3;
        let beta_true = 1.5;
        let mut obs = Vec::new();
        let locs = [(0.2, 0.3), (0.7, 0.6), (0.5, 0.9), (0.9, 0.2), (0.1, 0.8), (0.6, 0.15)];
        for t in 0..nt {
            for (i, &(x, y)) in locs.iter().enumerate() {
                // Deterministic pseudo-noise.
                let noise = 0.05 * (((i * 7 + t * 13) % 11) as f64 / 11.0 - 0.5);
                // Covariate varying across both space and time so that the
                // smooth latent field cannot absorb the regression effect.
                let covariate = ((i * 5 + t * 7) % 13) as f64 / 13.0 - 0.5;
                obs.push(Observation {
                    var: 0,
                    t,
                    loc: Point::new(x, y),
                    covariates: vec![covariate],
                    value: beta_true * covariate + noise,
                });
            }
        }
        let model = Arc::new(CoregionalModel::new(&mesh, nt, 1.0, 1, 1, obs).unwrap());
        let theta0 = ModelHyper::default_for(1, 0.7, 2.0).to_theta();
        (model, theta0)
    }

    fn session(model: &Arc<CoregionalModel>, theta0: &[f64], settings: InlaSettings) -> InlaSession {
        InlaEngine::builder(model)
            .prior(ThetaPrior::weakly_informative(theta0, 3.0))
            .settings(settings)
            .build()
            .unwrap()
    }

    #[test]
    fn full_pipeline_produces_complete_summaries() {
        let (model, theta0) = toy_model();
        let mut settings = InlaSettings::dalia(1);
        settings.max_iter = 4;
        let engine = session(&model, &theta0, settings);
        let result = engine.run(&theta0).unwrap();
        assert!(result.fobj_at_mode.is_finite());
        assert_eq!(result.latent.mean.len(), model.dims.latent_dim());
        assert_eq!(result.latent.sd.len(), model.dims.latent_dim());
        assert!(result.latent.sd.iter().all(|s| s.is_finite() && *s >= 0.0));
        assert_eq!(result.fixed_effects.len(), 1);
        assert_eq!(result.hyper.mode.len(), theta0.len());
        assert!(result.hyper.sd.iter().all(|s| *s > 0.0));
        assert!(!result.trace.is_empty());
        assert!(result.seconds_per_iteration > 0.0);
        // The session-level timers cover all phases of the run.
        assert!(result.timers.solver_seconds() > 0.0);
        assert!(result.timers.assembly_seconds > 0.0);
        assert!(result.timers.selinv_seconds > 0.0);
        // The optimizer must not have decreased the objective.
        let f0 = engine.objective(&theta0).unwrap();
        assert!(result.fobj_at_mode >= f0 - 1e-9);
    }

    #[test]
    fn conditional_mean_recovers_fixed_effect_at_informative_theta() {
        // At a well-specified θ (precise observations, unit-variance field),
        // the conditional mean should attribute the covariate signal to the
        // fixed effect (true coefficient 1.5).
        let (model, _) = toy_model();
        let mut hyper = ModelHyper::default_for(1, 0.7, 2.0);
        hyper.noise_prec = vec![200.0];
        let theta = hyper.to_theta();
        let engine = session(&model, &theta, InlaSettings::dalia(1));
        let res = engine.evaluate(&theta).unwrap();
        let idx = model.fixed_effect_index(0, 0);
        let beta_hat = res.mean[idx];
        assert!(
            (beta_hat - 1.5).abs() < 0.75,
            "conditional-mean fixed effect {beta_hat} too far from the true 1.5"
        );
    }

    #[test]
    fn dalia_and_rinla_paths_agree_at_the_same_theta() {
        let (model, theta0) = toy_model();
        let dalia = session(&model, &theta0, InlaSettings::dalia(1));
        let rinla = session(&model, &theta0, InlaSettings::rinla_like());
        let fd = dalia.objective(&theta0).unwrap();
        let fr = rinla.objective(&theta0).unwrap();
        assert!((fd - fr).abs() < 1e-6 * (1.0 + fd.abs()));
    }

    #[test]
    fn timing_helper_reports_positive_durations() {
        let (model, theta0) = toy_model();
        let engine = session(&model, &theta0, InlaSettings::dalia(1));
        let (total, solver) = engine.time_one_iteration(&theta0).unwrap();
        assert!(total > 0.0);
        assert!(solver > 0.0);
        assert!(solver <= total * 1.5);
    }

    #[test]
    fn builder_rejects_invalid_settings() {
        let (model, _) = toy_model();
        assert!(matches!(
            InlaEngine::builder(&model).settings(InlaSettings::dalia(0)).build(),
            Err(CoreError::InvalidSettings(_))
        ));
        let mut bad = InlaSettings::dalia(1);
        bad.fd_step = -1.0;
        assert!(InlaEngine::builder(&model).settings(bad).build().is_err());
    }

    #[test]
    fn builder_defaults_and_overrides_compose() {
        let (model, theta0) = toy_model();
        let s = InlaEngine::builder(&model)
            .backend(crate::settings::SolverBackend::SparseGeneral)
            .max_iter(3)
            .build()
            .unwrap();
        assert_eq!(s.settings().max_iter, 3);
        assert!(matches!(s.settings().backend, crate::settings::SolverBackend::SparseGeneral));
        // Default prior is proper: the objective is finite.
        assert!(s.objective(&theta0).unwrap().is_finite());
    }

    #[test]
    fn session_reuses_pooled_solvers_across_evaluations() {
        let (model, theta0) = toy_model();
        let s = session(&model, &theta0, InlaSettings::dalia(1));
        assert_eq!(s.solver_pool_size(), 1);
        dalia_pool::ThreadPool::new(1).install(|| {
            for _ in 0..3 {
                s.objective(&theta0).unwrap();
            }
        });
        // Sequential evaluations never need more than the one pooled solver.
        assert_eq!(s.solver_pool_size(), 1);
    }

    #[test]
    fn run_reports_its_own_timers_without_clobbering_the_accumulator() {
        let (model, theta0) = toy_model();
        let mut settings = InlaSettings::dalia(1);
        settings.max_iter = 2;
        let s = session(&model, &theta0, settings);
        s.objective(&theta0).unwrap();
        let before = s.timers();
        assert!(before.solver_seconds() > 0.0);
        let result = s.run(&theta0).unwrap();
        // The pre-run evaluation is still in the session accumulator, and the
        // run's own timers are the increment on top of it.
        let after = s.timers();
        assert!(after.solver_seconds() >= before.solver_seconds());
        assert!(
            after.solver_seconds()
                >= before.solver_seconds() + result.timers.solver_seconds() - 1e-9
        );
    }

    fn fresh_obs(t: usize) -> Vec<Observation> {
        vec![
            Observation {
                var: 0,
                t,
                loc: Point::new(0.3, 0.4),
                covariates: vec![0.2],
                value: 0.5,
            },
            Observation {
                var: 0,
                t,
                loc: Point::new(0.8, 0.7),
                covariates: vec![-0.1],
                value: -0.2,
            },
        ]
    }

    #[test]
    fn streaming_window_appends_and_retires_slices() {
        let (model, theta0) = toy_model();
        let mut settings = InlaSettings::dalia(1);
        settings.max_iter = 2;
        let s = session(&model, &theta0, settings);
        let result = s.run(&theta0).unwrap();
        let n_obs_fitted = model.n_obs();

        let mut w = s.streaming_window(&result).unwrap();
        assert_eq!(w.nt(), 3);
        // The re-pinned state at construction matches the fit itself.
        for (a, b) in w.snapshot().unwrap().latent().mean.iter().zip(&result.latent.mean) {
            assert_eq!(a.to_bits(), b.to_bits(), "window construction must not move the mean");
        }

        w.append_slices(1, fresh_obs(3)).unwrap();
        assert_eq!(w.nt(), 4);
        assert_eq!(w.model().n_obs(), n_obs_fitted + 2);
        let snap = w.snapshot().unwrap();
        assert_eq!(snap.latent().mean.len(), w.model().dims.latent_dim());
        assert!(snap.latent().sd.iter().all(|s| s.is_finite() && *s >= 0.0));

        w.retire_slices(2).unwrap();
        assert_eq!(w.nt(), 2);
        assert!(w.model().observations.iter().all(|o| o.t < 2));

        // The cheap re-snapshot path serves the advanced window.
        let snap = w.snapshot().unwrap();
        assert_eq!(snap.latent_dim(), w.model().dims.latent_dim());
        assert_eq!(snap.latent().mean.len(), w.model().dims.latent_dim());
        assert_eq!(snap.model().dims.nt, 2);
    }

    #[test]
    fn a_failed_window_factorization_surfaces_at_every_snapshot() {
        let (model, theta0) = toy_model();
        let mut settings = InlaSettings::dalia(1);
        settings.max_iter = 2;
        let s = session(&model, &theta0, settings);
        let result = s.run(&theta0).unwrap();
        let mut w = s.streaming_window(&result).unwrap();

        let mut bad = fresh_obs(3);
        bad[0].covariates[0] = f64::NAN;
        w.append_slices(1, bad).unwrap();
        for _ in 0..2 {
            assert!(matches!(w.snapshot(), Err(CoreError::Solver(_))));
        }
        // Further updates are still accepted, and their snapshots fail the
        // same way while the NaN stays in the window.
        w.retire_slices(1).unwrap();
        assert!(matches!(w.snapshot(), Err(CoreError::Solver(_))));
        assert_eq!(w.nt(), 3);
    }

    #[test]
    fn streaming_window_rejects_invalid_updates() {
        let (model, theta0) = toy_model();
        let mut settings = InlaSettings::dalia(1);
        settings.max_iter = 2;
        let s = session(&model, &theta0, settings);
        let result = s.run(&theta0).unwrap();
        let mut w = s.streaming_window(&result).unwrap();

        // k = 0 on either side.
        assert!(matches!(
            w.append_slices(0, vec![]),
            Err(CoreError::InvalidWindowUpdate(_))
        ));
        assert!(matches!(w.retire_slices(0), Err(CoreError::InvalidWindowUpdate(_))));
        // New observations must live on the appended slices.
        assert!(matches!(
            w.append_slices(1, fresh_obs(0)),
            Err(CoreError::InvalidWindowUpdate(_))
        ));
        // The window must stay non-empty.
        assert!(matches!(w.retire_slices(3), Err(CoreError::InvalidWindowUpdate(_))));
        // The rejected updates left the window untouched and functional.
        assert_eq!(w.nt(), 3);
        w.append_slices(1, fresh_obs(3)).unwrap();
        assert_eq!(w.nt(), 4);
    }

    #[test]
    fn streaming_window_requires_gaussian_likelihood() {
        let (model, theta0) = toy_model();
        let poisson = Arc::new(
            CoregionalModel::new(
                &model.mesh,
                model.dims.nt,
                model.spde.temporal.dt,
                model.dims.nv,
                model.dims.nr,
                model
                    .observations
                    .iter()
                    .cloned()
                    .map(|mut o| {
                        o.value = o.value.abs().round();
                        o
                    })
                    .collect(),
            )
            .unwrap()
            .with_likelihood(dalia_model::Likelihood::Poisson)
            .unwrap(),
        );
        let mut settings = InlaSettings::dalia(1);
        settings.max_iter = 2;
        let s = session(&poisson, &theta0, settings);
        let result = s.run(&theta0).unwrap();
        assert!(matches!(
            s.streaming_window(&result),
            Err(CoreError::InvalidWindowUpdate(_))
        ));
    }
}
