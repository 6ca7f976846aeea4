//! Serving benchmark of `dalia-serve`: concurrent read-only posterior
//! queries against one frozen `PosteriorSnapshot`.
//!
//! Three measurements:
//!
//! 1. **Snapshot vs session single-query latency**: the legacy fit-time
//!    prediction path (`dalia_core::predict`, which re-resolves the design
//!    every call) against `PosteriorSnapshot::predict` answering the same
//!    query read-only.
//! 2. **Throughput / latency grid**: queries-per-second and p50/p95/p99
//!    client-observed latency for client counts {1, 2, 4, 8}, each client
//!    issuing exact-variance predictions (one quadratic form per target
//!    against the snapshot's kept selected inverse) back-to-back against a
//!    4-worker `InlaService`.
//! 3. **The acceptance gate**: concurrent serving (8 clients, 4 workers) must
//!    reach **≥ 2× the throughput of one-query-at-a-time serving** (1
//!    client). Skipped on hosts with fewer than 4 cores or when
//!    `DALIA_BENCH_NO_ASSERT` is set; the file then records the gate as
//!    `"status": "skipped"` with its reason and no speedup.
//!
//! Running this bench (`cargo bench -p dalia-bench --bench serve_bench`)
//! prints the tables and rewrites `BENCH_serve.json` at the repository root,
//! stamped with the host's core count and the active kernel tier; CI
//! regenerates the file and uploads it as an artifact on every run.

use dalia_core::{predict as session_predict, InlaEngine, InlaSettings, VarianceMode};
use dalia_mesh::{Domain, Point, TriangleMesh};
use dalia_model::{CoregionalModel, ModelHyper, Observation, PredictionTarget};
use dalia_serve::{InlaService, ServeConfig};
use std::time::Instant;

/// Mesh resolution (structured unit-square grid) and time slices; latent
/// dimension is `(cells+1)² · nt + 1`.
const MESH_CELLS: usize = 9;
const NT: usize = 8;
/// Targets per request: one request = one design application + one quadratic
/// form per target against the kept selected inverse.
const TARGETS_PER_REQUEST: usize = 32;
/// Requests each client issues back-to-back in a scenario.
const REQUESTS_PER_CLIENT: usize = 30;
/// Worker threads of the service's execution pool in every scenario (the
/// gate is defined at 4 threads).
const WORKERS: usize = 4;
/// Concurrent clients per scenario; the gate compares the last with the first.
const CLIENT_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn toy_model() -> (std::sync::Arc<CoregionalModel>, Vec<f64>) {
    let mesh = TriangleMesh::structured(Domain::unit_square(), MESH_CELLS, MESH_CELLS);
    let mut obs = Vec::new();
    for t in 0..NT {
        for i in 0..6 {
            for j in 0..6 {
                let (x, y) = (0.08 + 0.14 * i as f64, 0.09 + 0.14 * j as f64);
                obs.push(Observation {
                    var: 0,
                    t,
                    loc: Point::new(x, y),
                    covariates: vec![1.0],
                    value: (x - y) * 0.4 + 0.05 * t as f64 + 0.01 * ((i * 7 + j) % 5) as f64,
                });
            }
        }
    }
    let model = std::sync::Arc::new(CoregionalModel::new(&mesh, NT, 1.0, 1, 1, obs).expect("bench model"));
    let theta0 = ModelHyper::default_for(1, 0.7, 2.0).to_theta();
    (model, theta0)
}

/// Deterministic in-domain targets, distinct per (client, request).
fn targets_for(client: usize, request: usize) -> Vec<PredictionTarget> {
    (0..TARGETS_PER_REQUEST)
        .map(|i| {
            let k = client * 641 + request * 97 + i * 13;
            PredictionTarget {
                var: 0,
                t: k % NT,
                loc: Point::new(
                    0.04 + 0.9 * (((k * 5) % 101) as f64 / 101.0),
                    0.04 + 0.9 * (((k * 17) % 103) as f64 / 103.0),
                ),
                covariates: vec![1.0],
            }
        })
        .collect()
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    let idx = ((sorted_us.len() as f64 * p / 100.0) as usize).min(sorted_us.len() - 1);
    sorted_us[idx]
}

struct Scenario {
    clients: usize,
    qps: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
}

/// Run one serving scenario: `clients` threads each issuing
/// `REQUESTS_PER_CLIENT` exact-variance predictions back-to-back.
fn run_scenario(service: &InlaService, clients: usize) -> Scenario {
    let t0 = Instant::now();
    let mut latencies_us: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                s.spawn(move || {
                    (0..REQUESTS_PER_CLIENT)
                        .map(|r| {
                            let targets = targets_for(client, r);
                            let q0 = Instant::now();
                            let served = service
                                .predict(&targets, VarianceMode::Exact)
                                .expect("bench predict");
                            std::hint::black_box(served.value.mean[0]);
                            q0.elapsed().as_secs_f64() * 1e6
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("bench client panicked")).collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    latencies_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Scenario {
        clients,
        qps: latencies_us.len() as f64 / wall,
        p50_us: percentile(&latencies_us, 50.0),
        p95_us: percentile(&latencies_us, 95.0),
        p99_us: percentile(&latencies_us, 99.0),
    }
}

fn main() {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let no_assert = std::env::var_os("DALIA_BENCH_NO_ASSERT").is_some();
    let tier = dalia_la::kernel_tier().name();

    let (model, theta0) = toy_model();
    let session = InlaEngine::builder(&model)
        .settings(InlaSettings::dalia(1))
        .max_iter(2)
        .build()
        .expect("bench session");
    let result = session.run(&theta0).expect("bench fit");
    let snapshot = session.snapshot(&result).expect("bench snapshot");
    let latent_dim = snapshot.latent_dim();

    // 1. Snapshot vs session single-query latency (diagonal mode on both
    // sides — the only mode the legacy path supports).
    let warm_targets = targets_for(0, 0);
    let single = |mut f: Box<dyn FnMut() -> f64 + '_>| {
        let _ = f(); // warmup
        let reps = 50;
        let t0 = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(f());
        }
        t0.elapsed().as_secs_f64() * 1e6 / reps as f64
    };
    let session_us = single(Box::new(|| {
        session_predict(&model, snapshot.hyper_mode(), snapshot.latent(), &warm_targets)
            .expect("session predict")
            .mean[0]
    }));
    let snapshot_us = single(Box::new(|| {
        snapshot.predict(&warm_targets).expect("snapshot predict").mean[0]
    }));
    println!(
        "single-query latency ({TARGETS_PER_REQUEST} targets, diagonal): \
         session path {session_us:.1} µs, snapshot path {snapshot_us:.1} µs"
    );

    // 2. Throughput / latency grid, one service for every client count.
    let service = InlaService::new(
        session.snapshot(&result).expect("bench snapshot"),
        ServeConfig { workers: WORKERS },
    )
    .expect("serve config");
    let mut scenarios = Vec::new();
    println!(
        "\n{:<8} {:>10} {:>10} {:>10} {:>10}",
        "clients", "qps", "p50_us", "p95_us", "p99_us"
    );
    for clients in CLIENT_COUNTS {
        let s = run_scenario(&service, clients);
        println!(
            "{:<8} {:>10.0} {:>10.1} {:>10.1} {:>10.1}",
            s.clients, s.qps, s.p50_us, s.p95_us, s.p99_us
        );
        scenarios.push(s);
    }

    // 3. The gate quantities: one-query-at-a-time serving (1 client) vs
    // concurrent serving (8 clients).
    let (serial_qps, concurrent_qps) = (scenarios[0].qps, scenarios[CLIENT_COUNTS.len() - 1].qps);
    let speedup = concurrent_qps / serial_qps;
    println!(
        "\nconcurrent serving throughput: {concurrent_qps:.0} qps at 8 clients vs \
         one-at-a-time {serial_qps:.0} qps ({speedup:.2}x at {WORKERS} workers)"
    );
    let skipped = if no_assert {
        Some("DALIA_BENCH_NO_ASSERT is set".to_string())
    } else if cores < 4 {
        Some(format!("{cores} cores, the gate needs 4"))
    } else {
        None
    };

    // JSON snapshot at the repository root.
    let mut json =
        String::from("{\n  \"generated_by\": \"cargo bench -p dalia-bench --bench serve_bench\",\n");
    json.push_str(&format!(
        "  \"host_cores\": {cores},\n  \"kernel_tier\": \"{tier}\",\n  \"latent_dim\": {latent_dim},\n  \
         \"targets_per_request\": {TARGETS_PER_REQUEST},\n  \
         \"requests_per_client\": {REQUESTS_PER_CLIENT},\n  \"workers\": {WORKERS},\n  \
         \"note\": \"exact-variance predictions against one frozen PosteriorSnapshot; the \
         >=2x acceptance gate compares the 8-client record against the 1-client record \
         on a >=4-core host and is recorded as skipped elsewhere (CI regenerates and \
         uploads this file as the serve-bench artifact on every run)\",\n"
    ));
    json.push_str(&format!(
        "  \"single_query\": {{\"session_path_us\": {session_us:.1}, \
         \"snapshot_path_us\": {snapshot_us:.1}, \"mode\": \"diagonal\", \
         \"note\": \"legacy dalia_core::predict re-resolves the design every call; the \
         snapshot path serves the same query read-only\"}},\n  \"scenarios\": [\n"
    ));
    for (i, s) in scenarios.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"clients\": {}, \"qps\": {:.1}, \"p50_us\": {:.1}, \"p95_us\": {:.1}, \
             \"p99_us\": {:.1}}}{}\n",
            s.clients,
            s.qps,
            s.p50_us,
            s.p95_us,
            s.p99_us,
            if i + 1 < scenarios.len() { "," } else { "" }
        ));
    }
    let gate = match &skipped {
        Some(reason) => format!("\"status\": \"skipped\", \"reason\": \"{reason}\""),
        None => format!(
            "\"status\": \"{}\", \"speedup\": {speedup:.2}",
            if speedup >= 2.0 { "passed" } else { "failed" }
        ),
    };
    json.push_str(&format!(
        "  ],\n  \"gate\": {{{gate}, \"serial_qps\": {serial_qps:.1}, \
         \"concurrent_qps\": {concurrent_qps:.1}, \"threshold\": 2.0}}\n}}\n"
    ));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(path, json).expect("write BENCH_serve.json");
    println!("wrote {path}");

    // Acceptance gate.
    match skipped {
        Some(reason) => println!("gate: skipped ({reason})"),
        None => {
            assert!(
                speedup >= 2.0,
                "concurrent serving at {WORKERS} workers is only {speedup:.2}x \
                 one-query-at-a-time throughput (need >= 2x)"
            );
            println!("gate: concurrent {speedup:.2}x >= 2x one-at-a-time serving — OK");
        }
    }
}
