//! # dalia-serve — concurrent read-only posterior serving
//!
//! The serving layer of DALIA-RS: an [`InlaService`] front-end that answers
//! predictive queries from many concurrent clients against one immutable
//! [`PosteriorSnapshot`], each request running on its caller's thread.
//!
//! ## Why a snapshot
//!
//! A fit-time [`InlaSession`](dalia_core::InlaSession) funnels every query
//! through mutable solver workspaces; nothing can serve concurrent read-only
//! traffic. The snapshot freezes the fitted artifacts — the Cholesky factor
//! of `Q_c(θ*)`, conditional mean, selected-inverse marginals, the
//! hyperparameter posterior — behind `&self` methods, so one snapshot answers
//! any number of threads. The service validates, plans and answers each
//! request on its caller's thread, with no queue and no thread hand-off, and
//! returns the answer with its solve time. A request is microseconds of
//! serial arithmetic on the kept selected inverse; only a large draw forks,
//! and its wide `gemm` splits onto the global pool from any thread.
//!
//! ## Determinism contract
//!
//! Each request is answered by a pure function of `(snapshot, request)` —
//! requests are *never* merged across request boundaries (exact variances
//! read the snapshot's kept selected inverse row by row, in a fixed order).
//! Results are therefore bitwise identical regardless of concurrency or
//! arrival order; a stress test pins this. See the "Serving" section of
//! `docs/architecture.md` for the rationale.
//!
//! ```
//! use dalia_core::{InlaEngine, VarianceMode};
//! use dalia_mesh::{Domain, Point, TriangleMesh};
//! use dalia_model::{CoregionalModel, ModelHyper, Observation, PredictionTarget};
//! use dalia_serve::{InlaService, ServeConfig};
//! use std::sync::Arc;
//!
//! let mesh = TriangleMesh::structured(Domain::unit_square(), 3, 3);
//! let obs: Vec<Observation> = (0..3)
//!     .map(|t| Observation {
//!         var: 0,
//!         t,
//!         loc: Point::new(0.3, 0.4),
//!         covariates: vec![1.0],
//!         value: 0.1 * t as f64,
//!     })
//!     .collect();
//! let model = Arc::new(CoregionalModel::new(&mesh, 3, 1.0, 1, 1, obs).unwrap());
//! let theta0 = ModelHyper::default_for(1, 0.7, 2.0).to_theta();
//! let session = InlaEngine::builder(&model).max_iter(2).build().unwrap();
//! let snapshot = session.run(&theta0).unwrap().into_snapshot(&session).unwrap();
//!
//! let service = InlaService::new(snapshot, ServeConfig::default()).unwrap();
//! let served = service
//!     .predict(
//!         &[PredictionTarget { var: 0, t: 1, loc: Point::new(0.5, 0.5), covariates: vec![1.0] }],
//!         VarianceMode::Exact,
//!     )
//!     .unwrap();
//! assert!(served.value.sd[0] > 0.0);
//! assert!(served.timing.solve_seconds >= 0.0);
//! assert_eq!(service.stats().requests, 1);
//! ```

#![warn(missing_docs)]

use dalia_core::snapshot::{PosteriorSnapshot, VarianceMode};
use dalia_core::{CoreError, Prediction};
use dalia_la::Matrix;
use dalia_model::PredictionTarget;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Errors produced by the serving layer.
#[derive(Clone, Debug)]
pub enum ServeError {
    /// The underlying engine rejected the request (bad targets, locations
    /// outside the mesh domain, ...).
    Core(CoreError),
    /// A latent-marginal lookup indexed past the latent dimension.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// The snapshot's latent dimension.
        dim: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Core(e) => write!(f, "serve: {e}"),
            ServeError::IndexOutOfRange { index, dim } => {
                write!(f, "serve: latent index {index} out of range (latent dimension {dim})")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Core(e)
    }
}

/// Configuration of an [`InlaService`]. Requests run on their caller's
/// thread, so there is nothing to configure today.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeConfig {
    // Ignored. Kept only because `perfbench/` sets it; goes with the next
    // benchmark change.
    #[doc(hidden)]
    pub workers: usize,
}

/// Per-request phase timings, reported with every response.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeTiming {
    // Always 0.0: a request never waits for another thread.
    // Kept only because `perfbench/` reads it; goes with the next benchmark change.
    #[doc(hidden)]
    pub queue_seconds: f64,
    /// Seconds computing this request's answer (design application,
    /// quadratic forms against the kept selected inverse, sampling).
    pub solve_seconds: f64,
}

/// A served response: the value plus its [`ServeTiming`].
#[derive(Clone, Debug)]
pub struct Served<T> {
    /// The request's result.
    pub value: T,
    /// Where the request's wall-clock went.
    pub timing: ServeTiming,
}

/// Running counters of a service (see [`InlaService::stats`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceStats {
    /// Total requests that passed validation and ran.
    pub requests: u64,
}

impl ServiceStats {
    // Requests per run, always 1.0 once a request has run (0.0 before).
    // Kept only because `perfbench/` calls it; goes with the next benchmark change.
    #[doc(hidden)]
    pub fn mean_batch(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            1.0
        }
    }
}

/// A concurrent front-end over one frozen [`PosteriorSnapshot`].
///
/// All methods take `&self`; share the service by reference (or `Arc`) across
/// any number of client threads. See the [crate docs](self) for the
/// execution model and determinism contract.
pub struct InlaService {
    snapshot: PosteriorSnapshot,
    requests: AtomicU64,
}

impl InlaService {
    /// Wrap `snapshot` in a service. No configuration is rejected today; the
    /// `Result` leaves room for checks without breaking callers.
    pub fn new(snapshot: PosteriorSnapshot, _config: ServeConfig) -> Result<Self, ServeError> {
        Ok(Self { snapshot, requests: AtomicU64::new(0) })
    }

    /// Swap the frozen snapshot for `next`, returning the previous one — the
    /// serving side of a streaming window: the owner advances a
    /// [`StreamingWindow`](dalia_core::StreamingWindow), freezes it with its
    /// cheap re-snapshot path, and swaps it in here without tearing down the
    /// service. Requires `&mut self` (i.e. a quiescent service); under an
    /// `Arc`-shared service, swap at the `Arc` level instead.
    pub fn swap_snapshot(&mut self, next: PosteriorSnapshot) -> PosteriorSnapshot {
        std::mem::replace(&mut self.snapshot, next)
    }

    /// The frozen snapshot the service answers from.
    pub fn snapshot(&self) -> &PosteriorSnapshot {
        &self.snapshot
    }

    /// Unwrap the service, recovering the snapshot.
    pub fn into_snapshot(self) -> PosteriorSnapshot {
        self.snapshot
    }

    /// Running request counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats { requests: self.requests.load(Ordering::Relaxed) }
    }

    /// Predict at `targets` in the requested [`VarianceMode`]: target
    /// validation and the mesh walk, then one design application for the
    /// whole target set (plus, for [`VarianceMode::Exact`], one quadratic
    /// form per target against the kept selected inverse).
    pub fn predict(
        &self,
        targets: &[PredictionTarget],
        mode: VarianceMode,
    ) -> Result<Served<Prediction>, ServeError> {
        let plan = self.snapshot.plan(targets)?;
        Ok(self.run(|s| s.predict_planned(&plan, mode)))
    }

    /// Predict at `targets` on the **response scale** of the model's
    /// likelihood (Poisson rate per unit exposure, Bernoulli success
    /// probability, identity for Gaussian), with delta-method standard
    /// deviations. Same execution path as [`predict`](Self::predict).
    pub fn predict_response(
        &self,
        targets: &[PredictionTarget],
        mode: VarianceMode,
    ) -> Result<Served<Prediction>, ServeError> {
        let plan = self.snapshot.plan(targets)?;
        Ok(self.run(|s| s.predict_response_planned(&plan, mode)))
    }

    /// Look up `(mean, sd)` of the latent components `indices`.
    pub fn latent_marginals(
        &self,
        indices: &[usize],
    ) -> Result<Served<Vec<(f64, f64)>>, ServeError> {
        let dim = self.snapshot.latent_dim();
        if let Some(&bad) = indices.iter().find(|&&i| i >= dim) {
            return Err(ServeError::IndexOutOfRange { index: bad, dim });
        }
        Ok(self.run(|s| indices.iter().map(|&i| s.latent_marginal(i)).collect()))
    }

    /// Draw `n` posterior samples of the latent field (one per column),
    /// deterministic per `(snapshot, n, seed)`.
    pub fn draws(&self, n: usize, seed: u64) -> Result<Served<Matrix>, ServeError> {
        Ok(self.run(|s| s.sample(n, seed)))
    }

    /// Run `f` over the snapshot on the calling thread and time it. A panic
    /// in `f` unwinds into this caller only.
    fn run<T>(&self, f: impl FnOnce(&PosteriorSnapshot) -> T) -> Served<T> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let value = f(&self.snapshot);
        let timing =
            ServeTiming { queue_seconds: 0.0, solve_seconds: started.elapsed().as_secs_f64() };
        Served { value, timing }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dalia_core::{InlaEngine, InlaSettings};
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;
    use dalia_mesh::{Domain, Point, TriangleMesh};
    use dalia_model::{CoregionalModel, ModelHyper, Observation};

    fn toy_model() -> (std::sync::Arc<CoregionalModel>, Vec<f64>) {
        let mesh = TriangleMesh::structured(Domain::unit_square(), 3, 3);
        let nt = 3;
        let mut obs = Vec::new();
        for t in 0..nt {
            for &(x, y) in &[(0.2, 0.3), (0.7, 0.6), (0.5, 0.9), (0.85, 0.2)] {
                obs.push(Observation {
                    var: 0,
                    t,
                    loc: Point::new(x, y),
                    covariates: vec![1.0],
                    value: 0.1 * x + 0.05 * t as f64,
                });
            }
        }
        let model = std::sync::Arc::new(CoregionalModel::new(&mesh, nt, 1.0, 1, 1, obs).unwrap());
        let theta0 = ModelHyper::default_for(1, 0.7, 2.0).to_theta();
        (model, theta0)
    }

    fn service_for(
        model: &std::sync::Arc<CoregionalModel>,
        theta0: &[f64],
        config: ServeConfig,
    ) -> InlaService {
        let session = InlaEngine::builder(model)
            .settings(InlaSettings::dalia(1))
            .max_iter(2)
            .build()
            .unwrap();
        let snapshot = session.run(theta0).unwrap().into_snapshot(&session).unwrap();
        InlaService::new(snapshot, config).unwrap()
    }

    fn targets_near(seed: usize) -> Vec<PredictionTarget> {
        (0..3)
            .map(|i| PredictionTarget {
                var: 0,
                t: (seed + i) % 3,
                loc: Point::new(
                    0.15 + 0.07 * ((seed + i) % 9) as f64,
                    0.2 + 0.08 * ((seed * 3 + i) % 9) as f64,
                ),
                covariates: vec![1.0],
            })
            .collect()
    }

    #[test]
    fn single_request_matches_direct_snapshot_call() {
        let (model, theta0) = toy_model();
        let svc = service_for(&model, &theta0, ServeConfig::default());
        let targets = targets_near(1);
        for mode in [VarianceMode::Diagonal, VarianceMode::Exact] {
            let served = svc.predict(&targets, mode).unwrap();
            let plan = svc.snapshot().plan(&targets).unwrap();
            let direct = svc.snapshot().predict_planned(&plan, mode);
            assert_eq!(served.value.mean, direct.mean, "{mode:?}");
            assert_eq!(served.value.sd, direct.sd, "{mode:?}");
            assert_eq!(served.timing.queue_seconds, 0.0);
            assert!(served.timing.solve_seconds >= 0.0);
        }
        let stats = svc.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.mean_batch(), 1.0);
    }

    #[test]
    fn latent_marginals_and_draws_round_trip() {
        let (model, theta0) = toy_model();
        let svc = service_for(&model, &theta0, ServeConfig::default());
        let served = svc.latent_marginals(&[0, 3, 7]).unwrap();
        assert_eq!(served.value.len(), 3);
        assert_eq!(served.value[1], svc.snapshot().latent_marginal(3));

        let draws = svc.draws(5, 99).unwrap();
        assert_eq!(draws.value.ncols(), 5);
        assert_eq!(draws.value.nrows(), svc.snapshot().latent_dim());
        let again = svc.draws(5, 99).unwrap();
        assert_eq!(draws.value.max_abs_diff(&again.value), 0.0, "seeded draws must repeat");
    }

    #[test]
    fn invalid_requests_are_rejected_before_queueing() {
        let (model, theta0) = toy_model();
        let svc = service_for(&model, &theta0, ServeConfig::default());
        let outside = vec![PredictionTarget {
            var: 0,
            t: 0,
            loc: Point::new(9.0, 9.0),
            covariates: vec![1.0],
        }];
        assert!(matches!(
            svc.predict(&outside, VarianceMode::Diagonal),
            Err(ServeError::Core(_))
        ));
        let dim = svc.snapshot().latent_dim();
        assert!(matches!(
            svc.latent_marginals(&[0, dim]),
            Err(ServeError::IndexOutOfRange { index, .. }) if index == dim
        ));
        // Rejected requests never ran.
        assert_eq!(svc.stats().requests, 0);
        assert_eq!(svc.stats().mean_batch(), 0.0);
    }

    #[test]
    fn response_scale_prediction_is_identity_for_gaussian() {
        let (model, theta0) = toy_model();
        let svc = service_for(&model, &theta0, ServeConfig::default());
        let targets = targets_near(2);
        let lin = svc.predict(&targets, VarianceMode::Diagonal).unwrap();
        let resp = svc.predict_response(&targets, VarianceMode::Diagonal).unwrap();
        assert_eq!(lin.value.mean, resp.value.mean, "identity link: mean unchanged");
        assert_eq!(lin.value.sd, resp.value.sd, "identity link: unit delta factor");
    }

    #[test]
    fn service_error_display() {
        let e = ServeError::IndexOutOfRange { index: 9, dim: 4 };
        assert!(e.to_string().contains("9"));
        assert!(e.to_string().contains("4"));
    }

    fn bits(p: &Prediction) -> Vec<u64> {
        p.mean.iter().chain(&p.sd).map(|x| x.to_bits()).collect()
    }

    #[test]
    fn a_panicking_request_unwinds_only_into_its_own_caller() {
        let (model, theta0) = toy_model();
        let svc = service_for(&model, &theta0, ServeConfig { workers: 2 });
        let targets = targets_near(4);
        let plan = svc.snapshot().plan(&targets).unwrap();
        let direct = bits(&svc.snapshot().predict_planned(&plan, VarianceMode::Exact));

        // The failing request starts first and keeps running until the
        // concurrent client's answer is back, so both run at once.
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let (svc_ref, targets_ref) = (&svc, &targets);
        let overlapped = &AtomicBool::new(false);
        let (failed, concurrent) = std::thread::scope(|s| {
            let client = s.spawn(move || {
                started_rx.recv_timeout(Duration::from_secs(60)).unwrap();
                let served = svc_ref.predict(targets_ref, VarianceMode::Exact).unwrap();
                done_tx.send(()).unwrap();
                served.value
            });
            let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                svc.run(move |_| {
                    started_tx.send(()).unwrap();
                    let answered = done_rx.recv_timeout(Duration::from_secs(60)).is_ok();
                    overlapped.store(answered, Ordering::Relaxed);
                    panic!("injected request failure");
                })
            }));
            (failed, client.join())
        });
        assert!(failed.is_err(), "the panic must reach its own caller");
        assert!(
            overlapped.load(Ordering::Relaxed),
            "the concurrent request must finish while the failing one is still running"
        );
        let concurrent = concurrent.expect("the concurrent client must not see the panic");
        assert_eq!(bits(&concurrent), direct);

        // The service still serves.
        for _ in 0..4 {
            let after = svc.predict(&targets, VarianceMode::Exact).unwrap();
            assert_eq!(bits(&after.value), direct);
        }
        assert_eq!(svc.stats().requests, 6);
    }

    #[test]
    fn requests_run_on_their_callers_thread() {
        let (model, theta0) = toy_model();
        let caller = std::thread::current().id();
        for config in [ServeConfig::default(), ServeConfig { workers: 2 }] {
            let svc = service_for(&model, &theta0, config);
            let ran_on = svc.run(|_| std::thread::current().id());
            assert_eq!(ran_on.value, caller, "{config:?}");
        }
    }

    #[test]
    fn snapshot_swap_follows_an_advancing_window() {
        let (model, theta0) = toy_model();
        let session = InlaEngine::builder(&model)
            .settings(InlaSettings::dalia(1))
            .max_iter(2)
            .build()
            .unwrap();
        let result = session.run(&theta0).unwrap();
        let snapshot = session.snapshot(&result).unwrap();
        let mut svc = InlaService::new(snapshot, ServeConfig::default()).unwrap();
        assert_eq!(svc.snapshot().model().dims.nt, 3);

        // Advance the window by one slice and swap the cheap re-snapshot in.
        let mut w = session.streaming_window(&result).unwrap();
        w.append_slices(
            1,
            vec![dalia_model::Observation {
                var: 0,
                t: 3,
                loc: Point::new(0.45, 0.55),
                covariates: vec![1.0],
                value: 0.2,
            }],
        )
        .unwrap();
        let old = svc.swap_snapshot(w.snapshot().unwrap());
        assert_eq!(old.model().dims.nt, 3);
        assert_eq!(svc.snapshot().model().dims.nt, 4);
        // The swapped-in snapshot serves the grown window.
        let served = svc
            .predict(
                &[PredictionTarget {
                    var: 0,
                    t: 3,
                    loc: Point::new(0.5, 0.5),
                    covariates: vec![1.0],
                }],
                VarianceMode::Exact,
            )
            .unwrap();
        assert!(served.value.sd[0].is_finite() && served.value.sd[0] > 0.0);
    }
}
