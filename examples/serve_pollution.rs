//! Serving example: fit a trivariate air-pollution model once, freeze the
//! posterior into a `PosteriorSnapshot`, and serve concurrent downscaling
//! queries, latent-marginal lookups and posterior draws through an
//! `InlaService` — the read-only deployment mode of a completed DALIA fit.
//!
//! Run with: `cargo run --release --example serve_pollution`

use dalia::prelude::*;
use std::time::Instant;

fn main() {
    // --- Fit once (identical to the multivariate_pollution example) -------
    let domain = Domain::northern_italy_like();
    let coarse = observation_grid(&domain, 8, 4);
    let (observations, _truth) = generate_pollution_dataset(&domain, &coarse, 5, 11);
    let mesh = TriangleMesh::with_approx_nodes(domain, 60);
    let model = std::sync::Arc::new(
        CoregionalModel::new(&mesh, 5, 1.0, 3, 2, observations).expect("model"),
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
    let result = session.run(&theta0).expect("INLA run");

    // --- Freeze the fit into an immutable, shareable snapshot -------------
    let snapshot = result.into_snapshot(&session).expect("snapshot");
    println!(
        "snapshot: backend {}, latent dimension {}, log|Q_c| = {:.1}",
        snapshot.backend_name(),
        snapshot.latent_dim(),
        snapshot.logdet_qc()
    );

    // --- Stand the serving front-end up on top of it -----------------------
    // Requests run on the process-global pool (`workers: 0`, the default).
    let service = InlaService::new(snapshot, ServeConfig::default()).expect("serve config");

    // Eight "dashboard" clients concurrently downscale one pollutant each at
    // staggered days, look marginals up and pull posterior draws. Each
    // request runs as its own pool task and returns to the client that sent it.
    let fine = observation_grid(&domain, 16, 8);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for client in 0..8usize {
            let service = &service;
            let fine = &fine;
            let domain = &domain;
            s.spawn(move || {
                let pollutant = client % 3;
                let day = client % 5;
                let targets: Vec<PredictionTarget> = fine
                    .iter()
                    .map(|p| PredictionTarget {
                        var: pollutant,
                        t: day,
                        loc: *p,
                        covariates: vec![1.0, dalia::data::elevation_km(domain, p)],
                    })
                    .collect();
                // Exact-variance downscaling: each target's aᵀQ_c⁻¹a is read
                // from the snapshot's kept selected inverse.
                let served =
                    service.predict(&targets, VarianceMode::Exact).expect("predict");
                let avg = served.value.mean.iter().sum::<f64>() / served.value.mean.len() as f64;
                let (lo, hi) = served.value.credible_interval_at(0, 0.95);
                println!(
                    "client {client}: pollutant {pollutant} day {day}: mean level {avg:+.2}, \
                     first cell 95% CI [{lo:+.2}, {hi:+.2}] \
                     (queued {:.0} µs, solved {:.0} µs)",
                    served.timing.queue_seconds * 1e6,
                    served.timing.solve_seconds * 1e6
                );

                let marginals = service.latent_marginals(&[client]).expect("marginals");
                let (m, sd) = marginals.value[0];
                println!("client {client}: latent component {client}: mean {m:+.3}, sd {sd:.3}");

                let draws = service.draws(4, client as u64).expect("draws");
                println!(
                    "client {client}: pulled {} posterior draws of dimension {}",
                    draws.value.ncols(),
                    draws.value.nrows()
                );
            });
        }
    });

    let stats = service.stats();
    println!(
        "\nserved {} requests in {:.1} ms",
        stats.requests,
        t0.elapsed().as_secs_f64() * 1e3
    );
}
