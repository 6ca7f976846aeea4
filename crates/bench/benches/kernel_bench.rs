//! Achieved-GFLOP/s comparison of the blocked, packed level-3 kernels in
//! `dalia_la` against the retained naive reference kernels, across the block
//! shapes the BTA solver actually produces (square diagonal blocks of
//! `b = n_v·n_s` lanes, skinny `a × b` arrow panels).
//!
//! The run starts with the blocking autotuner (`dalia_la::tune`): every
//! supported kernel tier is swept over the MC/KC/NC candidate grid and the
//! winners are persisted to `target/dalia_tune_cache.txt` (the same cache the
//! library loads at startup; CI uploads it as an artifact). The gemm table
//! then reports 256³/512³ per tier so the dispatch ladder is visible in the
//! snapshot, and a warm-session `pobtaf` benchmark pins the end-to-end win of
//! the tuned tier + blocking over the previous defaults. A warm `pobtasi`
//! record at each benchmark workload's shape gives the selected inversion's
//! time and its ratio to the warm `pobtaf` of the same matrix.
//!
//! Running this bench (`cargo bench -p dalia-bench --bench kernel_bench`)
//! prints a table and rewrites `BENCH_kernels.json` at the repository root so
//! the kernel performance trajectory is tracked in-repo. CI uploads the file
//! as a workflow artifact. See `docs/performance.md` for how to read the
//! numbers.

use dalia_la::blas::{self, reference, PackBuffer, Side, Trans, Triangle};
use dalia_la::tune::{self, BlockConfig};
use dalia_la::{chol, KernelTier, Matrix};
use serinv::testing::test_matrix;
use serinv::{pobtaf_with, pobtasi_with};
use std::time::Instant;

/// Deterministic dense test matrix with entries in [-1, 1].
fn test_mat(m: usize, n: usize, seed: usize) -> Matrix {
    Matrix::from_fn(m, n, |i, j| {
        let v = (i * 31 + j * 17 + seed * 7) % 23;
        (v as f64) / 11.5 - 1.0
    })
}

/// Well-conditioned lower-triangular matrix.
fn test_lower(n: usize, seed: usize) -> Matrix {
    let mut l = test_mat(n, n, seed);
    for j in 0..n {
        for i in 0..j {
            l[(i, j)] = 0.0;
        }
        l[(j, j)] = 2.0 + l[(j, j)].abs();
    }
    l
}

/// Deterministic SPD matrix (diagonally dominant).
fn test_spd(n: usize, seed: usize) -> Matrix {
    let mut a = test_mat(n, n, seed);
    a.symmetrize();
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    a
}

/// Seconds per call: best of three timed batches, each batch long enough to
/// be clock-resolution safe.
fn time_secs(mut f: impl FnMut()) -> f64 {
    f(); // warmup
    let mut best = f64::INFINITY;
    let mut reps = 1usize;
    for _ in 0..3 {
        loop {
            let t0 = Instant::now();
            for _ in 0..reps {
                f();
            }
            let dt = t0.elapsed().as_secs_f64();
            if dt < 0.03 {
                reps *= 2;
                continue;
            }
            best = best.min(dt / reps as f64);
            break;
        }
    }
    best
}

struct Record {
    kernel: &'static str,
    tier: &'static str,
    shape: String,
    flops: u64,
    ref_secs: f64,
    blk_secs: f64,
}

impl Record {
    fn ref_gflops(&self) -> f64 {
        self.flops as f64 / self.ref_secs / 1e9
    }
    fn blk_gflops(&self) -> f64 {
        self.flops as f64 / self.blk_secs / 1e9
    }
    fn speedup(&self) -> f64 {
        self.ref_secs / self.blk_secs
    }
}

fn active_tier_name() -> &'static str {
    dalia_la::kernel_tier().name()
}

fn bench_gemm(records: &mut Vec<Record>, m: usize, k: usize, n: usize) {
    let a = test_mat(m, k, 1);
    let b = test_mat(k, n, 2);
    let mut c = Matrix::zeros(m, n);
    let mut pack = PackBuffer::new();
    let blk_secs = time_secs(|| {
        blas::gemm_with(&mut pack, Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c)
    });
    let ref_secs = time_secs(|| reference::gemm(Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c));
    records.push(Record {
        kernel: "gemm",
        tier: active_tier_name(),
        shape: format!("{m}x{k}x{n}"),
        flops: blas::gemm_flops(m, k, n),
        ref_secs,
        blk_secs,
    });
}

fn bench_syrk(records: &mut Vec<Record>, n: usize, k: usize) {
    let a = test_mat(n, k, 3);
    let mut c = Matrix::zeros(n, n);
    let mut pack = PackBuffer::new();
    let blk_secs = time_secs(|| blas::syrk_lower_with(&mut pack, Trans::No, 1.0, &a, 0.0, &mut c));
    let ref_secs = time_secs(|| reference::syrk_lower(Trans::No, 1.0, &a, 0.0, &mut c));
    records.push(Record {
        kernel: "syrk_lower",
        tier: active_tier_name(),
        shape: format!("{n}x{n} k={k}"),
        flops: blas::gemm_flops(n, k, n) / 2,
        ref_secs,
        blk_secs,
    });
}

fn bench_trsm(records: &mut Vec<Record>, n: usize, nrhs: usize) {
    let l = test_lower(n, 4);
    let b0 = test_mat(nrhs, n, 5);
    let mut b = b0.clone();
    let mut pack = PackBuffer::new();
    // The factorization hot path: B := B L^{-T}.
    let blk_secs = time_secs(|| {
        b.as_mut_slice().copy_from_slice(b0.as_slice());
        blas::trsm_with(&mut pack, Side::Right, Triangle::Lower, Trans::Yes, &l, &mut b)
    });
    let ref_secs = time_secs(|| {
        b.as_mut_slice().copy_from_slice(b0.as_slice());
        reference::trsm(Side::Right, Triangle::Lower, Trans::Yes, &l, &mut b)
    });
    records.push(Record {
        kernel: "trsm_right_lt",
        tier: active_tier_name(),
        shape: format!("n={n} rhs={nrhs}"),
        flops: (n as u64) * (n as u64) * (nrhs as u64),
        ref_secs,
        blk_secs,
    });
}

fn bench_potrf(records: &mut Vec<Record>, n: usize) {
    let a0 = test_spd(n, 6);
    let mut a = a0.clone();
    let mut pack = PackBuffer::new();
    let blk_secs = time_secs(|| {
        a.as_mut_slice().copy_from_slice(a0.as_slice());
        chol::potrf_with(&mut pack, &mut a).unwrap();
    });
    let ref_secs = time_secs(|| {
        a.as_mut_slice().copy_from_slice(a0.as_slice());
        chol::potrf_reference(&mut a).unwrap();
    });
    records.push(Record {
        kernel: "potrf",
        tier: active_tier_name(),
        shape: format!("{n}x{n}"),
        flops: chol::potrf_flops(n),
        ref_secs,
        blk_secs,
    });
}

/// Approximate flop count of one BTA Cholesky factorization (level-3 terms
/// only; the `a × b` arrow work is negligible for `a ≪ b`).
fn pobtaf_flops(nt: usize, b: usize) -> u64 {
    let b3 = (b as u64).pow(3);
    // potrf on every diagonal block + trsm and syrk per off-diagonal column.
    nt as u64 * b3 / 3 + 2 * (nt as u64 - 1) * b3
}

/// Warm-session `pobtaf` at the SA1 solver shape: the "reference" lane runs
/// the previous defaults (best pre-AVX-512 tier, default blocking); the
/// "blocked" lane runs the tuned configuration. Both recycle one pack and the
/// previous factor's storage per iteration, as the solver session does per θ.
fn bench_pobtaf_warm(
    records: &mut Vec<Record>,
    tuned: &[(KernelTier, BlockConfig, f64)],
) {
    let (nt, b, a) = (24usize, 320usize, 3usize);
    let m = test_matrix(nt, b, a, 11);

    let time_session = || {
        let mut pack = PackBuffer::new();
        let mut store = None;
        time_secs(|| {
            let f = pobtaf_with(&m, store.take(), &mut pack).expect("SPD bench matrix");
            store = Some(f.blocks);
        })
    };

    // Baseline: what PR 9 shipped — AVX2 (or portable) dispatch, the
    // pre-autotuner default blocking.
    let base_tier = if KernelTier::Avx2.is_supported() {
        KernelTier::Avx2
    } else {
        KernelTier::Portable
    };
    blas::set_kernel_tier(base_tier);
    let d = tune::default_config(base_tier);
    dalia_la::set_blocking(d.mc, d.kc, d.nc);
    let ref_secs = time_session();

    // Tuned: best supported tier with its swept blocking.
    let best = *dalia_la::supported_kernel_tiers().last().unwrap();
    blas::set_kernel_tier(best);
    let cfg = tuned
        .iter()
        .find(|(t, _, _)| *t == best)
        .map(|(_, c, _)| *c)
        .unwrap_or_else(|| tune::default_config(best));
    dalia_la::set_blocking(cfg.mc, cfg.kc, cfg.nc);
    let blk_secs = time_session();

    records.push(Record {
        kernel: "pobtaf_warm",
        tier: best.name(),
        shape: format!("b={b} a={a} nt={nt}"),
        flops: pobtaf_flops(nt, b),
        ref_secs,
        blk_secs,
    });
}

/// Warm selected inversion beside the warm factorization of the same matrix,
/// as a streaming re-pin runs them: `pobtasi_with` against `pobtaf_with` on
/// one reused pack. The ratio is the one ROADMAP item 8(b) gates at ≤ 2.
struct SelinvRecord {
    shape: (usize, usize, usize),
    pobtaf_secs: f64,
    pobtasi_secs: f64,
}

fn bench_pobtasi_warm(records: &mut Vec<SelinvRecord>, nt: usize, b: usize, a: usize) {
    let m = test_matrix(nt, b, a, 11);
    let mut pack = PackBuffer::new();
    let mut store = None;
    let pobtaf_secs = time_secs(|| {
        let f = pobtaf_with(&m, store.take(), &mut pack).expect("SPD bench matrix");
        store = Some(f.blocks);
    });
    let factor = pobtaf_with(&m, store, &mut pack).expect("SPD bench matrix");
    let pobtasi_secs = time_secs(|| {
        pobtasi_with(&factor, &mut pack);
    });
    records.push(SelinvRecord { shape: (nt, b, a), pobtaf_secs, pobtasi_secs });
}

fn main() {
    // Sweep the blocking grid for every supported tier and persist the
    // winners; the library picks the cache up on the next cold start.
    let tuned = tune::autotune_and_persist();
    for (tier, cfg, gflops) in &tuned {
        println!(
            "autotune: {:<8} -> mc={} kc={} nc={} ({:.2} GF/s at 512^3)",
            tier.name(),
            cfg.mc,
            cfg.kc,
            cfg.nc,
            gflops
        );
    }
    println!("autotune cache: {}\n", tune::cache_path().display());

    let mut records = Vec::new();

    // The dispatch ladder: 256^3 / 512^3 gemm per supported tier, each under
    // its tuned blocking, so the per-tier step and the large-size falloff are
    // both visible in the snapshot.
    let entry_tier = dalia_la::kernel_tier();
    for tier in dalia_la::supported_kernel_tiers() {
        blas::set_kernel_tier(tier);
        let cfg = tuned
            .iter()
            .find(|(t, _, _)| *t == tier)
            .map(|(_, c, _)| *c)
            .unwrap_or_else(|| tune::default_config(tier));
        dalia_la::set_blocking(cfg.mc, cfg.kc, cfg.nc);
        for s in [256usize, 512] {
            bench_gemm(&mut records, s, s, s);
        }
    }

    // Remaining shapes on the best supported tier (the dispatch default).
    blas::set_kernel_tier(entry_tier);
    if let Some((_, cfg, _)) = tuned.iter().find(|(t, _, _)| *t == entry_tier) {
        dalia_la::set_blocking(cfg.mc, cfg.kc, cfg.nc);
    }
    for s in [64usize, 128] {
        bench_gemm(&mut records, s, s, s);
    }
    // Skinny arrow-panel shapes: C_i (a x b) updated against b x b blocks.
    bench_gemm(&mut records, 16, 256, 256);
    bench_gemm(&mut records, 256, 256, 16);
    // The other BTA kernels at a representative block size.
    bench_syrk(&mut records, 256, 256);
    bench_syrk(&mut records, 512, 512);
    bench_trsm(&mut records, 256, 256);
    bench_trsm(&mut records, 512, 512);
    bench_potrf(&mut records, 256);
    bench_potrf(&mut records, 512);

    // Warm selected inversion against warm factorization at the benchmark
    // workloads' shapes: fit-pollution (b = 210) and fit-long-window (b = 48).
    let mut selinv = Vec::new();
    for (nt, b, a) in [(6, 210, 6), (48, 48, 6)] {
        bench_pobtasi_warm(&mut selinv, nt, b, a);
    }

    // End-to-end warm factorization (mutates tier/blocking; keep it last).
    bench_pobtaf_warm(&mut records, &tuned);

    println!(
        "{:<14} {:<9} {:<16} {:>12} {:>12} {:>9}",
        "kernel", "tier", "shape", "ref GF/s", "blocked GF/s", "speedup"
    );
    for r in &records {
        println!(
            "{:<14} {:<9} {:<16} {:>12.2} {:>12.2} {:>8.2}x",
            r.kernel,
            r.tier,
            r.shape,
            r.ref_gflops(),
            r.blk_gflops(),
            r.speedup()
        );
    }

    println!("\n{:<16} {:>12} {:>12} {:>7}", "pobtasi_warm", "pobtaf ms", "pobtasi ms", "ratio");
    for r in &selinv {
        let (nt, b, a) = r.shape;
        println!(
            "{:<16} {:>12.3} {:>12.3} {:>7.2}",
            format!("n={nt} b={b} a={a}"),
            r.pobtaf_secs * 1e3,
            r.pobtasi_secs * 1e3,
            r.pobtasi_secs / r.pobtaf_secs
        );
    }

    // JSON snapshot at the repository root.
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut json = format!(
        "{{\n  \"generated_by\": \"cargo bench -p dalia-bench --bench kernel_bench\",\n  \"host_cores\": {cores},\n  \"kernel_tier\": \"{}\",\n  \"records\": [\n",
        entry_tier.name()
    );
    for (i, r) in records.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"tier\": \"{}\", \"shape\": \"{}\", \"flops\": {}, \"reference_gflops\": {:.3}, \"blocked_gflops\": {:.3}, \"speedup\": {:.3}}}{}\n",
            r.kernel,
            r.tier,
            r.shape,
            r.flops,
            r.ref_gflops(),
            r.blk_gflops(),
            r.speedup(),
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"selected_inversion\": [\n");
    for (i, r) in selinv.iter().enumerate() {
        let (nt, b, a) = r.shape;
        json.push_str(&format!(
            "    {{\"kernel\": \"pobtasi_warm\", \"shape\": \"n={nt} b={b} a={a}\", \"pobtaf_ms\": {:.3}, \"pobtasi_ms\": {:.3}, \"pobtasi_over_pobtaf\": {:.3}}}{}\n",
            r.pobtaf_secs * 1e3,
            r.pobtasi_secs * 1e3,
            r.pobtasi_secs / r.pobtaf_secs,
            if i + 1 < selinv.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    std::fs::write(path, json).expect("write BENCH_kernels.json");
    println!("\nwrote {path}");

    if std::env::var_os("DALIA_BENCH_NO_ASSERT").is_some() {
        return;
    }

    // Acceptance gates, on the best supported tier's records. Overridable
    // for noisy environments via DALIA_BENCH_NO_ASSERT=1.
    let best_name = entry_tier.name();
    let gemm_at = |shape: &str| {
        records
            .iter()
            .find(|r| r.kernel == "gemm" && r.tier == best_name && r.shape == shape)
            .unwrap_or_else(|| panic!("missing gemm record {shape} on tier {best_name}"))
    };
    let g256 = gemm_at("256x256x256");
    let g512 = gemm_at("512x512x512");

    // Raised floor (was 3x before the AVX-512 tier landed).
    assert!(
        g256.speedup() >= 4.0,
        "blocked gemm at 256^3 is only {:.2}x the reference (need >= 4x)",
        g256.speedup()
    );
    // The 512^3 falloff gate: with the tuned blocking, the large size must
    // retain most of the 256^3 rate instead of halving as it did untuned.
    assert!(
        g512.blk_gflops() >= 0.7 * g256.blk_gflops(),
        "512^3 gemm fell to {:.2} GF/s vs {:.2} at 256^3 (need >= 70%)",
        g512.blk_gflops(),
        g256.blk_gflops()
    );
    // End-to-end warm factorization win over the PR 9 configuration.
    let pobtaf = records
        .iter()
        .find(|r| r.kernel == "pobtaf_warm")
        .expect("pobtaf_warm record");
    assert!(
        pobtaf.speedup() >= 1.15,
        "warm pobtaf is only {:.2}x the previous defaults (need >= 1.15x)",
        pobtaf.speedup()
    );
}
