//! End-to-end benchmark of the DALIA workspace: INLA fits, and serving
//! predictions while a sliding window streams, with a per-crate layer ledger.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fit-pollution --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Run it from the repository root. Every workload runs the same pipeline
//! on its own model shape: build the model and session (`setup_s`, median of
//! several builds), fit it repeatedly for half the run (`fit_s`), then serve
//! exact-variance predictions from two closed-loop clients for the other
//! half while one of them slides the fitted window forward and swaps each
//! new snapshot into the service (`serve_*`, `update_p50_ms`). Correctness
//! checks run outside the timed regions. `--trace 1` instead times the calls
//! into each crate at the workload's shape and prints the per-layer ledger.
//!
//! Times are wall-clock, except `optimizer.gradient_lane_ms`, which sums
//! the phase times of one gradient's evaluations over its S1 lanes.
//!
//! The last line of standard output is the result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`; the line
//! before it records the run environment and further facts (the failure
//! share, the fit's objective gain, sample counts, failed checks).

mod layers;
mod ledger;
mod run;
mod serve;
mod spans;
mod stats;
mod workload;

use run::{json_str, Outcome, RunConfig};
use std::path::Path;
use std::process::ExitCode;

/// Blocking source of the dense kernels: the benchmark's own tune cache, so a
/// run never picks up whatever cache an earlier autotuning left behind.
const TUNE_CACHE: &str = "perfbench/tune_cache.txt";
/// Pool workers, service workers and clients, capped by the host's cores.
const MAX_THREADS: usize = 2;

struct Args {
    workload: workload::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = workload::find(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Commit of the checkout, read from `.git` without running git; absent
/// outside a git checkout.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .ok()
            .map(|s| s.trim().to_string()),
        None => Some(head.to_string()),
    }
}

/// Pin what the program reads from its environment, before any of it runs.
fn pin_environment(threads: usize) -> Result<(), String> {
    if !Path::new(TUNE_CACHE).is_file() {
        return Err(format!(
            "{TUNE_CACHE} not found: run from the repository root"
        ));
    }
    std::env::set_var("DALIA_TUNE_CACHE", TUNE_CACHE);
    std::env::set_var("DALIA_NUM_THREADS", threads.to_string());
    // The widest tier the CPU supports.
    std::env::remove_var("DALIA_KERNEL_TIER");
    let tier = dalia_la::kernel_tier();
    if dalia_la::tune::load_from(Path::new(TUNE_CACHE), tier).is_none() {
        return Err(format!(
            "{TUNE_CACHE} has no blocking for the {} tier",
            tier.name()
        ));
    }
    Ok(())
}

fn environment(threads: usize, cores: usize) -> String {
    let (mc, kc, nc) = dalia_la::blocking();
    format!(
        "{{\"kernel_tier\": {}, \"blocking\": [{mc}, {kc}, {nc}], \"tune_cache\": {}, \
         \"pool_threads\": {}, \"service_workers\": {threads}, \"clients\": {threads}, \
         \"cores\": {cores}, \"git_rev\": {}}}",
        json_str(dalia_la::kernel_tier().name()),
        json_str(TUNE_CACHE),
        dalia_pool::global().num_threads(),
        git_rev().map_or("null".into(), |r| json_str(&r)),
    )
}

fn print_outcome(args: &Args, env: &str, out: &Outcome) {
    let mut facts: Vec<String> = out
        .facts
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    let checks: Vec<String> = out.check_failures.iter().map(|c| json_str(c)).collect();
    facts.push(format!("\"failed_checks\": [{}]", checks.join(", ")));
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"env\": {env}, \
         \"facts\": {{{}}}}}",
        json_str(args.workload.name),
        args.seed,
        args.seconds,
        args.trace,
        facts.join(", ")
    );
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    let correct = out.check_failures.is_empty() && out.metrics.iter().all(|m| m.value.is_finite());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = cores.min(MAX_THREADS);
    if let Err(e) = pin_environment(threads) {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    let env = environment(threads, cores);
    let cfg = RunConfig {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads,
    };
    // Failures are counted, not fatal: keep panic messages short on stderr.
    std::panic::set_hook(Box::new(|info| {
        eprintln!("perfbench: caught panic: {info}")
    }));
    let out = run::run(&cfg);
    print_outcome(&args, &env, &out);
    ExitCode::SUCCESS
}
