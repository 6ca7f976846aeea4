//! Allocation pin of the exact-variance serving path: a warm
//! `predict_planned(plan, VarianceMode::Exact)` on a BTA snapshot reads the
//! kept selected inverse, so it allocates only the design rows and the
//! outputs — less than one latent-length `f64` column (`8·N` bytes). A
//! blocked solve would allocate an `N × k` right-hand side (`8·N·k` bytes).

// A counting global allocator requires implementing the unsafe `GlobalAlloc`
// trait; the implementation only adds up requested bytes and delegates to
// `System`.
#![allow(unsafe_code)]

use dalia::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct CountingAlloc;

static BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn bytes_during<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = BYTES.load(Ordering::SeqCst);
    let out = f();
    (BYTES.load(Ordering::SeqCst) - before, out)
}

#[test]
fn warm_exact_prediction_allocates_less_than_one_latent_column() {
    let (nv, nt) = (2, 8);
    let mesh = TriangleMesh::structured(Domain::unit_square(), 6, 6);
    let obs: Vec<Observation> = (0..nt)
        .flat_map(|t| {
            (0..nv).flat_map(move |v| {
                [(0.2, 0.3), (0.7, 0.6), (0.45, 0.85)].map(|(x, y)| Observation {
                    var: v,
                    t,
                    loc: Point::new(x, y),
                    covariates: vec![1.0],
                    value: 0.2 * v as f64 + 0.1 * t as f64 + x - y,
                })
            })
        })
        .collect();
    let model = Arc::new(CoregionalModel::new(&mesh, nt, 1.0, nv, 1, obs).unwrap());
    let mut hyper = ModelHyper::default_for(nv, 0.6, 2.0);
    hyper.lambdas = vec![0.5];
    let theta = hyper.to_theta();
    let session = InlaEngine::builder(&model).build().unwrap();
    let mean = session.evaluate(&theta).unwrap().mean;
    let latent = session.latent_marginals(&hyper, mean).unwrap();
    let mut window = session
        .streaming_window(&InlaResult {
            hyper: dalia::core::HyperMarginals {
                covariance: Matrix::identity(theta.len()),
                sd: vec![1.0; theta.len()],
                mode: theta,
                clamped: 0,
            },
            hyper_mode: hyper,
            fixed_effects: dalia::core::fixed_effect_summaries(&model, &latent),
            latent,
            fobj_at_mode: 0.0,
            trace: Vec::new(),
            converged: true,
            total_seconds: 0.0,
            seconds_per_iteration: 0.0,
            timers: PhaseTimers::default(),
        })
        .unwrap();
    window.retire_slices(1).unwrap();
    let snap = window.snapshot().unwrap();
    let n = snap.latent_dim();

    let targets: Vec<PredictionTarget> = (0..4)
        .map(|i| PredictionTarget {
            var: i % nv,
            t: i,
            loc: Point::new(0.15 + 0.2 * i as f64, 0.7 - 0.1 * i as f64),
            covariates: vec![0.5 + i as f64],
        })
        .collect();
    let plan = snap.plan(&targets).unwrap();
    let warm = snap.predict_planned(&plan, VarianceMode::Exact);
    let (bytes, pred) = bytes_during(|| snap.predict_planned(&plan, VarianceMode::Exact));
    assert_eq!(pred.sd, warm.sd);
    assert!(pred.sd.iter().all(|s| s.is_finite() && *s > 0.0));
    assert!(
        bytes < 8 * n,
        "a warm exact prediction of {} targets allocated {bytes} bytes; one latent column is {} \
         bytes (N = {n})",
        targets.len(),
        8 * n
    );
}
