//! The benchmark's workloads: model shapes, and the inputs each generates
//! from its seed. The program under test only ever sees these inputs.

use dalia_core::{CoreError, InlaEngine, InlaSession, InlaSettings};
use dalia_data::{elevation_km, generate_count_dataset, observation_grid, StreamingSource};
use dalia_mesh::{Domain, Point, TriangleMesh};
use dalia_model::{
    CoregionalModel, Likelihood, ModelHyper, Observation, PredictionTarget, ThetaPrior,
};
use std::sync::Arc;

/// BFGS iterations every fit runs: a fixed budget, so fit time measures the
/// same optimizer work on every commit and the objective gain shows a fit
/// that optimises less.
pub const FIT_ITERS: usize = 1;
/// Targets per served prediction request.
pub const TARGETS_PER_REQUEST: usize = 32;
/// Pre-generated target sets per client (cycled through).
const TARGET_SETS: usize = 64;
/// Fixed effects per response variable: intercept and elevation.
const NR: usize = 2;

/// How the spatial mesh is built.
#[derive(Clone, Copy, Debug)]
enum MeshSpec {
    /// `TriangleMesh::with_approx_nodes`.
    Approx(usize),
    /// `TriangleMesh::structured` with this many vertices per side.
    Structured(usize),
}

/// Observation model of a workload.
#[derive(Clone, Copy, Debug)]
pub enum Family {
    /// Trivariate Gaussian pollution data from `StreamingSource`.
    Gaussian,
    /// Univariate Poisson counts with exposures from `generate_count_dataset`.
    Poisson,
}

/// One workload: a model shape and its fit settings.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    mesh: MeshSpec,
    /// Time slices of the fitted window.
    pub nt: usize,
    grid: (usize, usize),
    /// BTA partitions of `InlaSettings::dalia` (the S3 degree).
    pub partitions: usize,
    /// Observation model.
    pub family: Family,
}

/// Every workload the command accepts. `BENCHMARK.json` lists the first
/// two; `serve-stream` and `fit-counts` run on request (every fit of
/// `fit-counts` currently fails).
pub const WORKLOADS: [Workload; 4] = [
    // Fig. 8 instance: b = 3·70 = 210, n_t = 6, 900 obs, sequential BTA.
    Workload {
        name: "fit-pollution",
        mesh: MeshSpec::Approx(72),
        nt: 6,
        grid: (10, 5),
        partitions: 1,
        family: Family::Gaussian,
    },
    // AP1-shaped long window: b = 3·16 = 48, n_t = 48, 1440 obs, P = 2.
    Workload {
        name: "fit-long-window",
        mesh: MeshSpec::Approx(16),
        nt: 48,
        grid: (5, 2),
        partitions: 2,
        family: Family::Gaussian,
    },
    // Serving snapshot: b = 3·36 = 108, n_t = 12, 648 obs.
    Workload {
        name: "serve-stream",
        mesh: MeshSpec::Approx(36),
        nt: 12,
        grid: (6, 3),
        partitions: 1,
        family: Family::Gaussian,
    },
    // Poisson counts: 8×8 structured mesh on the unit square, b = 64,
    // n_t = 12, 768 obs with exposures.
    Workload {
        name: "fit-counts",
        mesh: MeshSpec::Structured(8),
        nt: 12,
        grid: (8, 8),
        partitions: 1,
        family: Family::Poisson,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Everything a run feeds the program, generated from the seed.
pub struct Inputs {
    /// Spatial mesh.
    pub mesh: TriangleMesh,
    /// Observations of the fitted window.
    pub obs: Vec<Observation>,
    /// Per-observation exposures (Poisson only).
    pub scales: Option<Vec<f64>>,
    /// Starting hyperparameters of every fit.
    pub theta0: Vec<f64>,
    /// The feed that continues the fitted window (Gaussian only).
    pub feed: Option<StreamingSource>,
    /// Prediction target sets, one list per client.
    pub targets: Vec<Vec<Vec<PredictionTarget>>>,
}

/// SplitMix64: a tiny deterministic generator for the benchmark's own
/// choices (prediction targets), independent of the library's RNG.
pub struct SplitMix(u64);

impl SplitMix {
    /// Generator for `seed` and stream `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0 .. n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

impl Workload {
    /// Response variables.
    pub fn nv(&self) -> usize {
        match self.family {
            Family::Gaussian => 3,
            Family::Poisson => 1,
        }
    }

    /// Pollution data covers the Fig. 8 domain; counts use the unit square,
    /// as the library's count-data tests do.
    fn domain(&self) -> Domain {
        match self.family {
            Family::Gaussian => Domain::northern_italy_like(),
            Family::Poisson => Domain::unit_square(),
        }
    }

    fn grid(&self) -> Vec<Point> {
        observation_grid(&self.domain(), self.grid.0, self.grid.1)
    }

    /// Generate the run's inputs from `seed`.
    pub fn inputs(&self, seed: u64, clients: usize) -> Inputs {
        let domain = self.domain();
        let mesh = match self.mesh {
            MeshSpec::Approx(n) => TriangleMesh::with_approx_nodes(domain, n),
            MeshSpec::Structured(n) => TriangleMesh::structured(domain, n, n),
        };
        let grid = self.grid();
        let (obs, scales, feed) = match self.family {
            Family::Gaussian => {
                let mut feed = StreamingSource::new(&domain, &grid, seed);
                let obs = (0..self.nt).flat_map(|_| feed.next_slice()).collect();
                (obs, None, Some(feed))
            }
            Family::Poisson => {
                let (obs, truth) = generate_count_dataset(&domain, &grid, self.nt, seed);
                (obs, Some(truth.scales), None)
            }
        };
        let mut hyper0 = ModelHyper::default_for(self.nv(), 0.3 * domain.width(), 4.0);
        if self.nv() == 3 {
            hyper0.lambdas = vec![0.8, -0.3, -0.2];
        }
        let targets = (0..clients)
            .map(|c| {
                let mut rng = SplitMix::new(seed, 1 + c as u64);
                (0..TARGET_SETS)
                    .map(|_| self.target_set(&domain, &mut rng))
                    .collect()
            })
            .collect();
        Inputs {
            mesh,
            obs,
            scales,
            theta0: hyper0.to_theta(),
            feed,
            targets,
        }
    }

    fn target_set(&self, domain: &Domain, rng: &mut SplitMix) -> Vec<PredictionTarget> {
        (0..TARGETS_PER_REQUEST)
            .map(|_| {
                // Stay clear of the boundary so every target lies in a triangle.
                let loc = Point::new(
                    domain.x0 + domain.width() * (0.02 + 0.96 * rng.unit()),
                    domain.y0 + domain.height() * (0.02 + 0.96 * rng.unit()),
                );
                PredictionTarget {
                    var: rng.below(self.nv()),
                    t: rng.below(self.nt),
                    loc,
                    covariates: vec![1.0, elevation_km(domain, &loc)],
                }
            })
            .collect()
    }

    /// Build the latent model over `obs` on `nt` slices.
    pub fn model(
        &self,
        inputs: &Inputs,
        nt: usize,
        obs: Vec<Observation>,
    ) -> Result<Arc<CoregionalModel>, CoreError> {
        let model = CoregionalModel::new(&inputs.mesh, nt, 1.0, self.nv(), NR, obs)
            .map_err(CoreError::Model)?;
        let model = match (&inputs.scales, self.family) {
            (Some(scales), Family::Poisson) => model
                .with_observation_scales(scales.clone())
                .and_then(|m| m.with_likelihood(Likelihood::Poisson))
                .map_err(CoreError::Model)?,
            _ => model,
        };
        Ok(Arc::new(model))
    }

    /// Fit settings: the DALIA preset at the workload's S3 degree and the
    /// fixed iteration budget.
    pub fn settings(&self) -> InlaSettings {
        let mut s = InlaSettings::dalia(self.partitions);
        s.max_iter = FIT_ITERS;
        s
    }

    /// A session over `model` with `settings` and the prior every fit uses.
    pub fn session(
        &self,
        model: &Arc<CoregionalModel>,
        theta0: &[f64],
        settings: InlaSettings,
    ) -> Result<InlaSession, CoreError> {
        InlaEngine::builder(model)
            .prior(ThetaPrior::weakly_informative(theta0, 3.0))
            .settings(settings)
            .build()
    }

    /// Observations of the window that starts `start` slices into the feed,
    /// re-tagged to window-relative time: what a sliding window holds after
    /// `start` advances, regenerated independently of the window.
    pub fn window_obs(&self, seed: u64, start: usize) -> Vec<Observation> {
        let mut feed = StreamingSource::new(&self.domain(), &self.grid(), seed);
        for _ in 0..start {
            feed.next_slice();
        }
        (0..self.nt).flat_map(|t| feed.next_slice_for(t)).collect()
    }
}
