//! Acceptance stress test: concurrent serving is bitwise-identical to
//! sequential single-query serving.
//!
//! Twelve client threads hammer one `InlaService` with a mixed workload
//! (diagonal predictions, exact-variance predictions, latent-marginal
//! lookups, seeded posterior draws), each request running on its own
//! client's thread, so requests interleave in nondeterministic orders. Every response must match, bit for bit, (a) a
//! direct call on the underlying snapshot and (b) the same service queried
//! one request at a time — the determinism contract of `dalia-serve`.

use dalia_core::{InlaEngine, InlaResult, InlaSession, InlaSettings, VarianceMode};
use dalia_mesh::{Domain, Point, TriangleMesh};
use dalia_model::{CoregionalModel, ModelHyper, Observation, PredictionTarget};
use dalia_serve::{InlaService, ServeConfig};

const CLIENTS: usize = 12;
const ROUNDS: usize = 4;

fn toy_model() -> (std::sync::Arc<CoregionalModel>, Vec<f64>) {
    let mesh = TriangleMesh::structured(Domain::unit_square(), 4, 4);
    let nt = 4;
    let mut obs = Vec::new();
    let locs = [(0.2, 0.3), (0.7, 0.6), (0.5, 0.9), (0.85, 0.2), (0.1, 0.75), (0.4, 0.45)];
    for t in 0..nt {
        for &(x, y) in &locs {
            obs.push(Observation {
                var: 0,
                t,
                loc: Point::new(x, y),
                covariates: vec![1.0],
                value: (x - y) * 0.4 + 0.05 * t as f64,
            });
        }
    }
    let model = std::sync::Arc::new(CoregionalModel::new(&mesh, nt, 1.0, 1, 1, obs).unwrap());
    let theta0 = ModelHyper::default_for(1, 0.7, 2.0).to_theta();
    (model, theta0)
}

fn fit(model: &std::sync::Arc<CoregionalModel>, theta0: &[f64]) -> (InlaSession, InlaResult) {
    let session = InlaEngine::builder(model)
        .settings(InlaSettings::dalia(1))
        .max_iter(2)
        .build()
        .unwrap();
    let result = session.run(theta0).unwrap();
    (session, result)
}

/// Deterministic per-client prediction targets, all inside the unit square.
fn targets_for(client: usize, round: usize) -> Vec<PredictionTarget> {
    (0..3)
        .map(|i| {
            let k = client * 7 + round * 3 + i;
            PredictionTarget {
                var: 0,
                t: k % 4,
                loc: Point::new(
                    0.08 + 0.06 * ((k * 5) % 14) as f64,
                    0.07 + 0.05 * ((k * 11) % 17) as f64,
                ),
                covariates: vec![1.0],
            }
        })
        .collect()
}

/// What one client observed for one round, in raw bits for exact comparison.
#[derive(Debug, PartialEq)]
struct RoundResult {
    predict_diag: (Vec<u64>, Vec<u64>),
    predict_exact: (Vec<u64>, Vec<u64>),
    marginals: Vec<(u64, u64)>,
    draw_bits: Vec<u64>,
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn run_round(svc: &InlaService, client: usize, round: usize) -> RoundResult {
    let targets = targets_for(client, round);
    let diag = svc.predict(&targets, VarianceMode::Diagonal).unwrap().value;
    let exact = svc.predict(&targets, VarianceMode::Exact).unwrap().value;
    let dim = svc.snapshot().latent_dim();
    let indices: Vec<usize> = (0..5).map(|i| (client * 13 + round * 5 + i * 3) % dim).collect();
    let marginals = svc.latent_marginals(&indices).unwrap().value;
    let draws = svc.draws(2, (client * 1000 + round) as u64).unwrap().value;
    let mut draw_bits = Vec::new();
    for j in 0..draws.ncols() {
        draw_bits.extend(draws.col(j).iter().map(|x| x.to_bits()));
    }
    RoundResult {
        predict_diag: (bits(&diag.mean), bits(&diag.sd)),
        predict_exact: (bits(&exact.mean), bits(&exact.sd)),
        marginals: marginals.iter().map(|&(m, s)| (m.to_bits(), s.to_bits())).collect(),
        draw_bits,
    }
}

#[test]
fn concurrent_batched_serving_is_bitwise_identical_to_sequential() {
    let (model, theta0) = toy_model();
    let (session, result) = fit(&model, &theta0);

    // Reference 1: direct snapshot calls, fully sequential, no service.
    let snapshot = session.snapshot(&result).unwrap();
    let mut reference = Vec::with_capacity(CLIENTS * ROUNDS);
    for client in 0..CLIENTS {
        for round in 0..ROUNDS {
            let targets = targets_for(client, round);
            let plan = snapshot.plan(&targets).unwrap();
            let diag = snapshot.predict_planned(&plan, VarianceMode::Diagonal);
            let exact = snapshot.predict_planned(&plan, VarianceMode::Exact);
            let dim = snapshot.latent_dim();
            let marginals: Vec<(u64, u64)> = (0..5)
                .map(|i| (client * 13 + round * 5 + i * 3) % dim)
                .map(|i| {
                    let (m, s) = snapshot.latent_marginal(i);
                    (m.to_bits(), s.to_bits())
                })
                .collect();
            let draws = snapshot.sample(2, (client * 1000 + round) as u64);
            let mut draw_bits = Vec::new();
            for j in 0..draws.ncols() {
                draw_bits.extend(draws.col(j).iter().map(|x| x.to_bits()));
            }
            reference.push(RoundResult {
                predict_diag: (bits(&diag.mean), bits(&diag.sd)),
                predict_exact: (bits(&exact.mean), bits(&exact.sd)),
                marginals,
                draw_bits,
            });
        }
    }

    // Reference 2: a service queried sequentially.
    let sequential =
        InlaService::new(result.clone().into_snapshot(&session).unwrap(), ServeConfig::default())
            .unwrap();
    for client in 0..CLIENTS {
        for round in 0..ROUNDS {
            let got = run_round(&sequential, client, round);
            assert_eq!(
                got,
                reference[client * ROUNDS + round],
                "sequential service diverged for client {client} round {round}"
            );
        }
    }

    // System under test: one service hammered by 12 threads at once, so
    // requests of every kind interleave in arbitrary orders.
    let service =
        InlaService::new(result.into_snapshot(&session).unwrap(), ServeConfig::default())
            .unwrap();
    let results: Vec<Vec<RoundResult>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let service = &service;
                s.spawn(move || {
                    (0..ROUNDS).map(|round| run_round(service, client, round)).collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (client, rounds) in results.iter().enumerate() {
        for (round, got) in rounds.iter().enumerate() {
            assert_eq!(
                *got,
                reference[client * ROUNDS + round],
                "concurrent service diverged for client {client} round {round}"
            );
        }
    }
    assert_eq!(service.stats().requests as usize, CLIENTS * ROUNDS * 4);
}
