//! Scaling benches of the work-stealing pool (`dalia_hpc::pool`):
//!
//! 1. **Synthetic map workloads** against the retired **eager fixed-chunk**
//!    strategy (contiguous chunks, one scoped OS thread each — the pre-PR-4
//!    shim): an **imbalanced** heavy-head shape (the S3 load-imbalance
//!    pattern) and a **uniform** no-regression reference.
//! 2. **Skewed-partition S3 pass** (`d_pobtaf` + `d_pobtas` + `d_pobtasi`):
//!    a 1-big/N-tiny time-domain layout processed with stealable interiors
//!    on a T-worker pool versus the same pass on a 1-worker pool, the only
//!    run that does not fork, for each stage separately and for the combined
//!    factorize + solve + selected-inverse pass. Without interior splitting
//!    the single huge partition would serialize the whole fan-out to
//!    1-thread throughput no matter how many workers exist.
//! 3. **Idle-pool wake latency**: submit a no-op to a fully parked pool and
//!    time until it runs — the metric the event-parking protocol (condvar
//!    `Parker` + targeted wakes) improves over the retired 500 µs timed
//!    `recv` poll.
//!
//! Running this bench (`cargo bench -p dalia-bench --bench pool_bench`)
//! prints tables and rewrites `BENCH_pool.json` at the repository root. CI
//! runs it at 1/2/4 threads, uploads the JSON as an artifact, and the bench
//! itself asserts the acceptance gates: **≥ 1.6× at 4 threads on the
//! imbalanced workload** over eager chunking, **≥ 1.56× at 4 threads for
//! `d_pobtaf` on the skewed layout over its 1-worker run**, and **≥ 1.46×
//! at 4 threads for the combined factor + solve + selinv S3 pass** over its
//! 1-worker run. The skewed layout `[1, 22, 1, 1, 1, 1]` runs 27 block
//! columns in series on one worker; a pass that never split a partition
//! interior would still run 26 (the 21-column interior plus the 5-block
//! reduced system), so the 1.5×/1.4× bounds against such a pass scale to
//! 1.56×/1.46× against the 1-worker run. All gates are skipped when fewer
//! than 4 cores are available or `DALIA_BENCH_NO_ASSERT` is set, and
//! `BENCH_pool.json` then records them as `"status": "skipped"` with the
//! reason and no speedup.

use dalia_hpc::pool::ThreadPool;
use dalia_la::{Matrix, PackBuffer};
use rayon::prelude::*;
use serinv::testing::{test_matrix, test_rhs};
use serinv::{d_pobtaf, d_pobtas, d_pobtasi, BtaMatrix, Partitioning};
use std::time::Instant;

/// One spin unit: enough deterministic flops to be scheduling-visible
/// (~100 µs) without making the bench slow.
const UNIT_ITERS: u64 = 60_000;

/// Spin for `units` of deterministic, non-elidable floating-point work.
fn busy(units: u64) -> f64 {
    let mut acc = 1.0f64;
    for i in 0..units * UNIT_ITERS {
        acc += 1.0 / ((i % 1024) as f64 + 2.0);
    }
    std::hint::black_box(acc)
}

/// Imbalanced workload: a contiguous heavy head (8 items × 24 units) then a
/// cheap tail (56 items × 1 unit). A fixed 4-chunk split gives chunk 0 about
/// 200 of the 248 total units.
fn imbalanced_workload() -> Vec<u64> {
    let mut w = vec![24u64; 8];
    w.extend(std::iter::repeat_n(1u64, 56));
    w
}

/// Uniform workload: 64 items × 3 units.
fn uniform_workload() -> Vec<u64> {
    vec![3u64; 64]
}

/// The retired strategy: split into contiguous fixed chunks, one scoped OS
/// thread per chunk (exactly what the pre-PR-4 rayon shim did).
fn eager_chunked_map(items: &[u64], threads: usize) -> f64 {
    let threads = threads.min(items.len()).max(1);
    if threads == 1 {
        return items.iter().map(|&c| busy(c)).sum();
    }
    let chunk_size = items.len().div_ceil(threads);
    let mut total = 0.0;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_size)
            .map(|chunk| scope.spawn(move || chunk.iter().map(|&c| busy(c)).sum::<f64>()))
            .collect();
        for h in handles {
            total += h.join().expect("chunk worker panicked");
        }
    });
    total
}

/// The work-stealing strategy: `par_iter` on a pool pinned to `t` threads.
fn pool_map(pool: &ThreadPool, items: &[u64]) -> f64 {
    pool.install(|| items.par_iter().map(|&c| busy(c)).sum::<f64>())
}

/// Best-of-3 wall-clock seconds.
fn time_secs(mut f: impl FnMut() -> f64) -> f64 {
    let _ = f(); // warmup
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let _ = std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

struct Record {
    workload: &'static str,
    threads: usize,
    chunked_secs: f64,
    pool_secs: f64,
}

impl Record {
    /// Pool speedup over the eager chunked strategy at the same thread count.
    fn speedup(&self) -> f64 {
        self.chunked_secs / self.pool_secs
    }
}

/// Skewed-partition scenario dimensions: one huge *interior* partition
/// holding most of the time domain next to five single-block partitions.
/// The big partition sits in the middle (not at the boundary) because
/// interior partitions carry the left-separator fill `W` — both the shape
/// the paper's load-balancing factor exists for and the shape with a
/// parallel column DAG worth stealing from. Blocks are SA1-sized so the
/// per-column kernel calls are scheduling-visible.
const SKEW_BLOCKS: usize = 27;
const SKEW_BLOCK_SIZE: usize = 96;
const SKEW_ARROW: usize = 4;
const SKEW_LAYOUT: &str = "1+22+4x1";

fn skewed_partitioning() -> Partitioning {
    Partitioning::from_sizes(&[1, SKEW_BLOCKS - 5, 1, 1, 1, 1])
}

/// Gate: 4-thread pool over eager chunking on the imbalanced workload.
const IMBALANCED_GATE: f64 = 1.6;
/// Gate: 4-thread skewed `d_pobtaf` over its 1-worker run. A pass that
/// never split the big interior ran 26 of the layout's 27 block columns in
/// series, so 1.5x against that pass is 1.5 × 27 / 26 ≈ 1.56x here.
const SKEW_FACTOR_GATE: f64 = 1.56;
/// Gate: 4-thread skewed S3 pass over its 1-worker run (1.4 × 27 / 26).
const SKEW_COMBINED_GATE: f64 = 1.46;

/// Right-hand-side columns for the skewed solve stage (the multi-RHS shape
/// the INLA conditional-mean solves use).
const SKEW_RHS_COLS: usize = 8;

/// Seconds of each stage of the skewed S3 pass on one pool.
#[derive(Clone, Copy)]
struct StageSecs {
    factor: f64,
    solve: f64,
    selinv: f64,
}

impl StageSecs {
    fn combined(&self) -> f64 {
        self.factor + self.solve + self.selinv
    }
}

/// The skewed S3 pass on a T-worker pool against the same pass on a
/// 1-worker pool.
struct SkewRecord {
    threads: usize,
    one_worker: StageSecs,
    forked: StageSecs,
}

impl SkewRecord {
    /// Speedup of the T-worker run over the 1-worker run.
    fn factor_speedup(&self) -> f64 {
        self.one_worker.factor / self.forked.factor
    }

    fn solve_speedup(&self) -> f64 {
        self.one_worker.solve / self.forked.solve
    }

    fn selinv_speedup(&self) -> f64 {
        self.one_worker.selinv / self.forked.selinv
    }

    /// Combined factorize + solve + selected-inverse pass speedup — the
    /// quantity the ≥ 1.46× S3 acceptance gate applies to.
    fn combined_speedup(&self) -> f64 {
        self.one_worker.combined() / self.forked.combined()
    }
}

/// Time the full S3 pass (`d_pobtaf`, `d_pobtas`, `d_pobtasi`) on the skewed
/// layout on a `threads`-worker pool. Stage timings are ~20 ms, so one
/// background-CPU hiccup can double a single measurement; best-of-two
/// `time_secs` rounds (six timed runs per stage) keeps the committed
/// snapshot stable. Solve and selected inverse are timed against one factor
/// (bitwise the same at any worker count) on a warm caller's pack.
fn skewed_stage_secs(threads: usize, m: &BtaMatrix, rhs0: &Matrix) -> StageSecs {
    let part = skewed_partitioning();
    let pool = ThreadPool::new(threads);
    let best = |f: &mut dyn FnMut() -> f64| {
        (0..2).map(|_| time_secs(&mut *f)).fold(f64::INFINITY, f64::min)
    };
    let factor = best(&mut || {
        pool.install(|| d_pobtaf(m, &part).expect("skewed factorization").logdet().unwrap())
    });
    let f = pool.install(|| d_pobtaf(m, &part)).expect("skewed factorization");
    let mut pack = PackBuffer::new();
    let solve = best(&mut || {
        let mut rhs = rhs0.clone();
        pool.install(|| d_pobtas(&f, &mut rhs, &mut pack));
        rhs.as_slice()[0]
    });
    let selinv =
        best(&mut || pool.install(|| d_pobtasi(&f, &mut pack)).blocks.diag[0].as_slice()[0]);
    StageSecs { factor, solve, selinv }
}

/// The skewed S3 pass at every thread count, each against one 1-worker
/// baseline.
fn skewed_partition_records(thread_counts: &[usize]) -> Vec<SkewRecord> {
    let m = test_matrix(SKEW_BLOCKS, SKEW_BLOCK_SIZE, SKEW_ARROW, 42);
    let rhs0 = test_rhs(m.dim(), SKEW_RHS_COLS);
    let one_worker = skewed_stage_secs(1, &m, &rhs0);
    thread_counts
        .iter()
        .map(|&threads| {
            SkewRecord { threads, one_worker, forked: skewed_stage_secs(threads, &m, &rhs0) }
        })
        .collect()
}

/// Idle-pool wake latency: let the workers park, then time a no-op from
/// submission to execution. Returns (median, p95) in microseconds.
///
/// With `enforce`, asserts that the workers actually parked (the latency
/// only measures event wakes if they did). Callers pass the same guard as
/// the acceptance gates — `DALIA_BENCH_NO_ASSERT` unset and ≥ 4 cores — an
/// oversubscribed host can keep workers from finishing their backoff scans
/// inside the 5 ms idle windows.
fn wake_latency_us(samples: usize, enforce: bool) -> (f64, f64) {
    let pool = ThreadPool::new(2);
    // Warm the pool up, then measure.
    pool.install(|| std::hint::black_box(busy(1)));
    let mut lat: Vec<f64> = (0..samples)
        .map(|_| {
            // Give the workers time to run the backoff scans and park.
            std::thread::sleep(std::time::Duration::from_millis(5));
            let t0 = Instant::now();
            pool.install(|| std::hint::black_box(()));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let stats = pool.wake_stats();
    if enforce {
        assert!(stats.parks as usize >= samples / 2, "workers never parked: {stats:?}");
    }
    (lat[lat.len() / 2], lat[(lat.len() * 95) / 100])
}

fn main() {
    let workloads: [(&'static str, Vec<u64>); 2] =
        [("imbalanced", imbalanced_workload()), ("uniform", uniform_workload())];
    let thread_counts = [1usize, 2, 4];
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // The acceptance gates are only meaningful with >= 4 real cores, and
    // overridable for constrained environments.
    let skipped = if std::env::var_os("DALIA_BENCH_NO_ASSERT").is_some() {
        Some("DALIA_BENCH_NO_ASSERT is set".to_string())
    } else if cores < 4 {
        Some(format!("{cores} cores, the gates need 4"))
    } else {
        None
    };

    let mut records = Vec::new();
    for (name, items) in &workloads {
        for &t in &thread_counts {
            let pool = ThreadPool::new(t);
            let pool_secs = time_secs(|| pool_map(&pool, items));
            let chunked_secs = time_secs(|| eager_chunked_map(items, t));
            records.push(Record { workload: name, threads: t, chunked_secs, pool_secs });
        }
    }

    println!(
        "{:<12} {:>8} {:>14} {:>14} {:>9}",
        "workload", "threads", "chunked (s)", "pool (s)", "speedup"
    );
    for r in &records {
        println!(
            "{:<12} {:>8} {:>14.4} {:>14.4} {:>8.2}x",
            r.workload,
            r.threads,
            r.chunked_secs,
            r.pool_secs,
            r.speedup()
        );
    }

    // Self-scaling of the pool (imbalanced workload, pool_1 / pool_t).
    let pool_time = |t: usize| {
        records
            .iter()
            .find(|r| r.workload == "imbalanced" && r.threads == t)
            .map(|r| r.pool_secs)
            .expect("missing record")
    };
    println!(
        "\npool self-scaling (imbalanced): 2T {:.2}x, 4T {:.2}x",
        pool_time(1) / pool_time(2),
        pool_time(1) / pool_time(4)
    );

    // Skewed-partition S3 pass: T workers vs one worker, per stage and
    // combined.
    let skew = skewed_partition_records(&thread_counts);
    println!(
        "\nskewed-partition S3 pass ({SKEW_BLOCKS} blocks of b = {SKEW_BLOCK_SIZE}, layout {SKEW_LAYOUT}, \
         {SKEW_RHS_COLS} rhs):"
    );
    println!(
        "{:<8} {:<8} {:>18} {:>16} {:>9}",
        "threads", "stage", "1 worker (s)", "T workers (s)", "speedup"
    );
    for r in &skew {
        let (one, forked) = (r.one_worker, r.forked);
        for (stage, base, t, sp) in [
            ("factor", one.factor, forked.factor, r.factor_speedup()),
            ("solve", one.solve, forked.solve, r.solve_speedup()),
            ("selinv", one.selinv, forked.selinv, r.selinv_speedup()),
        ] {
            println!("{:<8} {:<8} {:>18.4} {:>16.4} {:>8.2}x", r.threads, stage, base, t, sp);
        }
        println!("{:<8} {:<8} {:>35} {:>8.2}x", r.threads, "combined", "", r.combined_speedup());
    }

    // Idle-pool wake latency (event parking vs the retired 500 µs poll).
    let (wake_median_us, wake_p95_us) = wake_latency_us(64, skipped.is_none());
    println!(
        "\nidle-pool wake latency: median {wake_median_us:.1} µs, p95 {wake_p95_us:.1} µs \
         (retired timed-recv poll: up to 500 µs)"
    );

    // The 4-thread records the acceptance gates apply to.
    let gate = records
        .iter()
        .find(|r| r.workload == "imbalanced" && r.threads == 4)
        .expect("missing 4-thread imbalanced record");
    let skew_gate =
        skew.iter().find(|r| r.threads == 4).expect("missing 4-thread skewed record");

    // JSON snapshot at the repository root. The host core count is recorded
    // because the speedups are only meaningful relative to it (a 1-core
    // container can show ~1.0x regardless of strategy).
    let mut json = String::from(
        "{\n  \"generated_by\": \"cargo bench -p dalia-bench --bench pool_bench\",\n",
    );
    json.push_str(&format!(
        "  \"host_cores\": {cores},\n  \"note\": \"speedups at T threads are only \
         meaningful when host_cores >= T; the acceptance gates apply to the 4-thread records \
         on a >=4-core host and are recorded as skipped elsewhere (CI regenerates and uploads \
         this file as the pool-bench artifact on every run)\",\n  \"records\": [\n"
    ));
    for (i, r) in records.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"threads\": {}, \"eager_chunked_seconds\": {:.6}, \"pool_seconds\": {:.6}, \"speedup_vs_chunked\": {:.3}}}{}\n",
            r.workload,
            r.threads,
            r.chunked_secs,
            r.pool_secs,
            r.speedup(),
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"pool_self_scaling_imbalanced\": {{\"x2\": {:.3}, \"x4\": {:.3}}},\n",
        pool_time(1) / pool_time(2),
        pool_time(1) / pool_time(4)
    ));
    json.push_str(&format!(
        "  \"skewed_partition\": {{\n    \"blocks\": {SKEW_BLOCKS}, \"block_size\": {SKEW_BLOCK_SIZE}, \
         \"arrow\": {SKEW_ARROW}, \"layout\": \"{SKEW_LAYOUT}\", \"rhs_cols\": {SKEW_RHS_COLS},\n    \
         \"note\": \"full S3 pass (d_pobtaf + d_pobtas + d_pobtasi) on T workers vs the same pass \
         on 1 worker (big partition interior, so its columns carry the W fill)\",\n    \"records\": [\n"
    ));
    for (i, r) in skew.iter().enumerate() {
        let (one, forked) = (r.one_worker, r.forked);
        json.push_str(&format!(
            "      {{\"threads\": {}, \
             \"factor_one_worker_secs\": {:.6}, \"factor_stealable_secs\": {:.6}, \"factor_speedup\": {:.3}, \
             \"solve_one_worker_secs\": {:.6}, \"solve_stealable_secs\": {:.6}, \"solve_speedup\": {:.3}, \
             \"selinv_one_worker_secs\": {:.6}, \"selinv_stealable_secs\": {:.6}, \"selinv_speedup\": {:.3}, \
             \"combined_speedup\": {:.3}}}{}\n",
            r.threads,
            one.factor,
            forked.factor,
            r.factor_speedup(),
            one.solve,
            forked.solve,
            r.solve_speedup(),
            one.selinv,
            forked.selinv,
            r.selinv_speedup(),
            r.combined_speedup(),
            if i + 1 < skew.len() { "," } else { "" }
        ));
    }
    let gates = match &skipped {
        Some(reason) => format!("\"status\": \"skipped\", \"reason\": \"{reason}\""),
        None => {
            let passed = gate.speedup() >= IMBALANCED_GATE
                && skew_gate.factor_speedup() >= SKEW_FACTOR_GATE
                && skew_gate.combined_speedup() >= SKEW_COMBINED_GATE;
            format!(
                "\"status\": \"{}\", \"imbalanced_speedup\": {:.3}, \"skewed_factor_speedup\": {:.3}, \
                 \"skewed_combined_speedup\": {:.3}",
                if passed { "passed" } else { "failed" },
                gate.speedup(),
                skew_gate.factor_speedup(),
                skew_gate.combined_speedup()
            )
        }
    };
    json.push_str(&format!(
        "    ]\n  }},\n  \"gates\": {{{gates}, \"threads\": 4, \"imbalanced_threshold\": {IMBALANCED_GATE}, \
         \"skewed_factor_threshold\": {SKEW_FACTOR_GATE}, \"skewed_combined_threshold\": {SKEW_COMBINED_GATE}}},\n  \
         \"wake_latency\": {{\"median_us\": {wake_median_us:.1}, \"p95_us\": {wake_p95_us:.1}, \
         \"samples\": 64, \"note\": \"idle-pool submit-to-execution latency; the retired v1 \
         timed-recv poll bounded this at 500us\"}}\n}}\n"
    ));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pool.json");
    std::fs::write(path, json).expect("write BENCH_pool.json");
    println!("\nwrote {path}");

    match skipped {
        Some(reason) => println!("gates: skipped ({reason})"),
        None => {
            // >= 1.6x over the eager chunked strategy at 4 threads
            // on the imbalanced workload.
            assert!(
                gate.speedup() >= IMBALANCED_GATE,
                "work-stealing pool at 4 threads is only {:.2}x the eager chunked map on the \
                 imbalanced workload (need >= {IMBALANCED_GATE}x)",
                gate.speedup()
            );
            println!(
                "gate: pool {:.2}x >= {IMBALANCED_GATE}x over eager chunked at 4 threads (imbalanced) — OK",
                gate.speedup()
            );
            // Stealable interiors must keep the skewed layout from
            // degenerating to 1-worker throughput.
            assert!(
                skew_gate.factor_speedup() >= SKEW_FACTOR_GATE,
                "d_pobtaf at 4 threads is only {:.2}x its 1-worker run on the skewed layout \
                 (need >= {SKEW_FACTOR_GATE}x)",
                skew_gate.factor_speedup()
            );
            println!(
                "gate: d_pobtaf {:.2}x >= {SKEW_FACTOR_GATE}x over 1 worker at 4 threads (skewed) — OK",
                skew_gate.factor_speedup()
            );
            // The combined factorize + solve + selected-inverse pass must
            // profit from stealable solve/selinv interiors too.
            assert!(
                skew_gate.combined_speedup() >= SKEW_COMBINED_GATE,
                "S3 pass (factor+solve+selinv) at 4 threads is only {:.2}x its 1-worker run \
                 on the skewed layout (need >= {SKEW_COMBINED_GATE}x)",
                skew_gate.combined_speedup()
            );
            println!(
                "gate: S3 pass {:.2}x >= {SKEW_COMBINED_GATE}x over 1 worker at 4 threads (skewed) — OK",
                skew_gate.combined_speedup()
            );
        }
    }
}
