//! Streaming example: fit a trivariate air-pollution model on an initial
//! temporal window, then follow a live observation feed — each arriving day
//! retires the oldest slice and appends the new one through the incremental
//! trailing-block streaming kernels (`StreamingWindow`), re-snapshots the
//! posterior without a refit, and swaps the fresh snapshot into a running
//! `InlaService` so queries always see the current window.
//!
//! Run with: `cargo run --release --example streaming_pollution`

use dalia::prelude::*;
use std::time::Instant;

fn main() {
    // --- Open the feed and fit the initial window --------------------------
    let domain = Domain::northern_italy_like();
    let grid = observation_grid(&domain, 8, 4);
    let mesh = TriangleMesh::with_approx_nodes(domain, 60);
    let nt = 5;

    let mut feed = StreamingSource::new(&domain, &grid, 11);
    let mut initial = Vec::new();
    for _ in 0..nt {
        initial.extend(feed.next_slice());
    }
    let model = std::sync::Arc::new(
        CoregionalModel::new(&mesh, nt, 1.0, 3, 2, initial).expect("model"),
    );

    let mut hyper0 = ModelHyper::default_for(3, 0.3 * domain.width(), 4.0);
    hyper0.lambdas = vec![0.8, -0.3, -0.2];
    let theta0 = hyper0.to_theta();
    let mut settings = InlaSettings::dalia(1);
    settings.max_iter = 2;
    let session = InlaEngine::builder(&model)
        .prior(ThetaPrior::weakly_informative(&theta0, 3.0))
        .settings(settings)
        .build()
        .expect("valid settings");
    let t0 = Instant::now();
    let result = session.run(&theta0).expect("INLA run");
    let fit_seconds = t0.elapsed().as_secs_f64();
    println!(
        "initial fit: {} days, {} observations, {:.2} s",
        nt,
        model.n_obs(),
        fit_seconds
    );

    // --- Stand serving up on the fitted window ------------------------------
    let mut service = InlaService::new(
        session.snapshot(&result).expect("snapshot"),
        ServeConfig::default(),
    )
    .expect("serve config");

    // --- Follow the feed: slide the window one day at a time ----------------
    // The streaming window is pinned at the fitted hyperparameter mode θ̂.
    // Retire and append only rebuild the window's model; the snapshot then
    // refills the BTA factor of the slid window once, allocation-free, and
    // re-pins the latent mean and marginals on it.
    let mut window = session.streaming_window(&result).expect("streaming window");
    let target = PredictionTarget {
        var: 0, // PM2.5
        t: nt - 1,
        loc: Point::new(0.5 * (domain.x0 + domain.x1), 0.5 * (domain.y0 + domain.y1)),
        covariates: vec![1.0, 0.3],
    };
    for day in 0..4 {
        let slice = feed.next_slice_for(nt - 1); // window-relative index after retiring one
        let t0 = Instant::now();
        window.retire_slices(1).expect("retire oldest day");
        window.append_slices(1, slice).expect("append new day");
        let advanced = window.snapshot().expect("re-snapshot");
        let update_ms = t0.elapsed().as_secs_f64() * 1e3;

        // Swap the advanced posterior into the running service; in-flight
        // requests finish on the old snapshot, new ones see the new window.
        let retired = service.swap_snapshot(advanced);
        let served =
            service.predict(std::slice::from_ref(&target), VarianceMode::Exact).expect("predict");
        println!(
            "day +{}: window advanced in {:.1} ms (was log|Q_c| = {:.1}, now {:.1}); \
             PM2.5 at center, newest day: {:.2} ± {:.2}",
            day + 1,
            update_ms,
            retired.logdet_qc(),
            service.snapshot().logdet_qc(),
            served.value.mean[0],
            served.value.sd[0]
        );
    }
    println!(
        "\nstreamed {} days on a {}-day window without a refit \
         (initial fit {:.2} s; see BENCH_stream.json for amortized speedups)",
        feed.slices_emitted() - nt,
        nt,
        fit_seconds
    );
}
