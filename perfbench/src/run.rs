//! One benchmark run: set-up, fit phase, serve-while-streaming phase, and the
//! correctness checks, with the end-to-end metrics (untraced) or the
//! per-layer ledger (traced).

use crate::layers::{self, LayerMetric};
use crate::ledger::{self, StepRecord};
use crate::serve::{self, ServeRun};
use crate::spans::Spans;
use crate::stats;
use crate::workload::{Family, Inputs, Workload};
use dalia_core::{
    evaluate_gradient, fixed_effect_summaries, maximize_fobj, negative_hessian, CoreError,
    HyperMarginals, InlaResult, InlaSession, SolverBackend, VarianceMode,
};
use dalia_model::{CoregionalModel, ModelHyper};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Fits per untraced run, at least; more while the fit share of the run
/// lasts. Successive fits vary by about ±10% on a shared host, so `fit_s` is
/// a median over several.
const MIN_FITS: usize = 3;
/// Shares of `--seconds` an untraced run spends fitting and serving.
const FIT_SHARE: f64 = 0.5;
const SERVE_SHARE: f64 = 0.5;
/// Relative tolerance of `f(θ̂)` on the general sparse path.
const SPARSE_RTOL: f64 = 1e-6;

/// A reported metric.
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything a run reports.
#[derive(Default)]
pub struct Outcome {
    /// Fits, requests and window advances attempted.
    pub attempted: u64,
    /// Attempts that returned an error or panicked.
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub check_failures: Vec<String>,
    /// Metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Further facts for the record line, as `(key, JSON value)`.
    pub facts: Vec<(String, String)>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: Option<f64>, unit: &'static str) {
        match value {
            Some(value) => self.metrics.push(Metric { name, value, unit }),
            None => self.fact(&format!("missing.{name}"), "true".into()),
        }
    }

    fn layers(&mut self, metrics: Vec<LayerMetric>) {
        for (name, value, unit) in metrics {
            self.metric(name, Some(value), unit);
        }
    }

    fn fact(&mut self, key: &str, json: String) {
        self.facts.push((key.to_string(), json));
    }

    /// Count a failed attempt, keeping the first failure's message.
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failed == 1 {
            self.fact("first_failure", json_str(&msg));
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Run one attempted operation, counting an `Err` or a panic as failed.
    fn attempt<R>(&mut self, what: &str, op: impl FnOnce() -> Result<R, CoreError>) -> Option<R> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(op)) {
            Ok(Ok(r)) => Some(r),
            Ok(Err(e)) => {
                self.fail(format!("{what}: {e}"));
                None
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                self.fail(format!("{what} panicked: {msg}"));
                None
            }
        }
    }
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A run's fixed parameters.
pub struct RunConfig {
    /// Workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured duration.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Pool workers, service workers and client threads.
    pub threads: usize,
}

/// Build the model and session [`SETUP_REPEATS`] times; returns the last
/// pair and the median set-up time.
fn setup(
    w: &Workload,
    inputs: &Inputs,
) -> Result<(Arc<CoregionalModel>, InlaSession, f64), CoreError> {
    let mut secs = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        // Free the previous build first, so every build after the first
        // reuses memory instead of faulting in fresh pages.
        drop(built.take());
        let obs = inputs.obs.clone();
        let t0 = Instant::now();
        let model = w.model(inputs, w.nt, obs)?;
        let session = w.session(&model, &inputs.theta0, w.settings())?;
        secs.push(t0.elapsed().as_secs_f64());
        built = Some((model, session));
    }
    let (model, session) = built.expect("SETUP_REPEATS > 0");
    Ok((
        model,
        session,
        stats::median(&secs).expect("SETUP_REPEATS > 0"),
    ))
}

/// Execute one run.
pub fn run(cfg: &RunConfig) -> Outcome {
    let w = cfg.workload;
    let mut out = Outcome::default();
    let mut inputs = w.inputs(cfg.seed, cfg.threads);
    let Some((model, session, setup_s)) = out.attempt("set-up", || setup(&w, &inputs)) else {
        return out;
    };
    out.fact(
        "model",
        format!(
            "{{\"b\": {}, \"n_t\": {}, \"a\": {}, \"obs\": {}, \"partitions\": {}}}",
            model.dims.block_size(),
            model.dims.nt,
            model.dims.arrow_size(),
            model.n_obs(),
            w.partitions
        ),
    );
    // f(θ₀) comes from a gradient evaluation, which also grows the session's
    // solver pool to the S1 width, so no timed fit pays for building solvers.
    let f0 = out.attempt("f(θ₀)", || {
        evaluate_gradient(&session, &inputs.theta0).map(|g| g.value)
    });

    let fit = if cfg.trace {
        traced_fit(&mut out, &session, &inputs.theta0, f0)
    } else {
        untraced_fits(&mut out, &session, &inputs.theta0, cfg.seconds * FIT_SHARE)
    };
    if let Some(fit) = &fit {
        check_fit(&mut out, &w, &model, &inputs.theta0, fit, f0);
    }

    if cfg.trace {
        let hyper0 = ModelHyper::from_theta(model.dims.nv, &inputs.theta0);
        let la = layers::la(model.dims.block_size());
        let peak = la
            .iter()
            .find(|m| m.0 == "la.gemm_peak_gflops")
            .map(|m| m.1);
        out.layers(la);
        out.layers(layers::serinv(
            &model,
            &hyper0,
            peak.expect("la reports its peak"),
        ));
        out.layers(layers::model(&model, &hyper0));
        out.layers(layers::solver(
            &model,
            w.settings().backend,
            &session,
            &inputs.theta0,
        ));
        out.layers(layers::gradient(&session, &inputs.theta0, cfg.threads));
        if let Some(ledger) = ledger_frac(&out) {
            out.metric("ledger.unattributed_frac", Some(ledger), "ratio");
        }
    }

    // A traced run spends its fit share on the two fits and the probes.
    let serve_s = if cfg.trace {
        cfg.seconds * SERVE_SHARE / 2.0
    } else {
        cfg.seconds * SERVE_SHARE
    };
    match (&fit, w.family) {
        (Some(fit), Family::Gaussian) => {
            serve_phase(&mut out, cfg, &mut inputs, &session, fit, serve_s)
        }
        (None, _) => out.fact("serve", json_str("skipped: no fit succeeded")),
        (_, Family::Poisson) => out.fact(
            "serve",
            json_str("skipped: streaming windows need a Gaussian likelihood"),
        ),
    }

    if !cfg.trace {
        out.metric("setup_s", Some(setup_s), "s");
        out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    } else {
        out.fact("setup_s", setup_s.to_string());
    }
    let error_rate = out.failed as f64 / out.attempted as f64;
    out.fact("error_rate", error_rate.to_string());
    out
}

/// Untraced fit phase: whole `InlaSession::run` calls, at least
/// [`MIN_FITS`] and more while `budget_s` lasts. Returns the last successful
/// fit.
fn untraced_fits(
    out: &mut Outcome,
    session: &InlaSession,
    theta0: &[f64],
    budget_s: f64,
) -> Option<InlaResult> {
    let start = Instant::now();
    let mut secs = Vec::new();
    let mut last = None;
    let mut attempts = 0;
    while attempts < MIN_FITS || start.elapsed().as_secs_f64() < budget_s {
        attempts += 1;
        let t0 = Instant::now();
        if let Some(r) = out.attempt("fit", || session.run(theta0)) {
            secs.push(t0.elapsed().as_secs_f64());
            last = Some(r);
        }
    }
    out.metric("fit_s", stats::median(&secs), "s");
    out.fact("fit.samples", secs.len().to_string());
    out.fact("solver_pool", session.solver_pool_size().to_string());
    if let Some(r) = &last {
        let steps: Vec<f64> = r.trace.iter().map(|t| t.step).collect();
        out.fact("fit.steps", format!("{steps:?}"));
    }
    last
}

/// Traced fit: one untraced `InlaSession::run`, then the same pipeline as
/// the benchmark's own sequence of public calls with a span around each
/// layer. Returns the untraced fit.
fn traced_fit(
    out: &mut Outcome,
    session: &InlaSession,
    theta0: &[f64],
    f0: Option<f64>,
) -> Option<InlaResult> {
    let t0 = Instant::now();
    let fit = out.attempt("fit", || session.run(theta0))?;
    let untraced_s = t0.elapsed().as_secs_f64();

    let mut spans = Spans::new(true);
    let t0 = Instant::now();
    let traced = out.attempt("traced fit", || {
        let opt = spans.time("optimizer", || maximize_fobj(session, theta0))?;
        let hess = spans.time("posterior.hessian", || {
            negative_hessian(session, &opt.theta)
        })?;
        let hyper = HyperMarginals::from_hessian(opt.theta.clone(), &hess)?;
        let mode = ModelHyper::from_theta(session.model().dims.nv, &opt.theta);
        let latent = spans.time("posterior.marginals", || {
            session.latent_marginals(&mode, opt.central.mean.clone())
        })?;
        let fixed = fixed_effect_summaries(session.model(), &latent);
        Ok((opt, hyper, latent, fixed))
    });
    let traced_s = t0.elapsed().as_secs_f64();
    let (opt, _, latent, _) = traced?;

    // The replica must reproduce `run` exactly.
    out.check(opt.value.to_bits() == fit.fobj_at_mode.to_bits(), || {
        format!(
            "traced fit f(θ̂) {} differs from run's {}",
            opt.value, fit.fobj_at_mode
        )
    });
    out.check(latent.sd == fit.latent.sd, || {
        "traced fit latent sd differ from run's".into()
    });

    let steps: Vec<StepRecord> = opt
        .trace
        .iter()
        .map(|r| StepRecord {
            step: r.step,
            grad_norm: r.grad_norm,
        })
        .collect();
    let gradients = ledger::gradients_from_steps(&steps, session.settings().grad_tol);
    out.check(gradients.is_some(), || {
        "optimizer trace holds a step it cannot take".into()
    });
    out.metric("optimizer.iters", Some(opt.trace.len() as f64), "count");
    out.metric("optimizer.gradients", gradients.map(|g| g as f64), "count");
    out.metric(
        "optimizer.ls_accept_ratio",
        gradients.and_then(|g| ledger::line_search_accept_ratio(&steps, g)),
        "ratio",
    );
    out.metric("optimizer.fobj_gain", f0.map(|f0| opt.value - f0), "nats");
    out.metric("optimizer.maximize_s", spans.median("optimizer"), "s");
    out.metric(
        "posterior.hessian_s",
        spans.median("posterior.hessian"),
        "s",
    );
    out.metric(
        "posterior.marginals_ms",
        spans.median("posterior.marginals").map(|s| s * 1e3),
        "ms",
    );
    out.metric("trace.fit_s", Some(traced_s), "s");
    out.metric("trace.overhead_s", Some(traced_s - untraced_s), "s");
    Some(fit)
}

/// `ledger.unattributed_frac` from the metrics a traced run has gathered.
fn ledger_frac(out: &Outcome) -> Option<f64> {
    let get = |name: &str| out.metrics.iter().find(|m| m.name == name).map(|m| m.value);
    Some(ledger::unattributed_frac(
        get("optimizer.gradients")? as u64,
        get("optimizer.gradient_ms")? / 1e3,
        get("posterior.hessian_s")?,
        get("posterior.marginals_ms")? / 1e3,
        get("trace.fit_s")?,
    ))
}

/// Checks on a fit: finite and no worse than the start, `f(θ̂)` reproduced
/// by the general sparse solver, latent standard deviations finite and ≥ 0.
fn check_fit(
    out: &mut Outcome,
    w: &Workload,
    model: &Arc<CoregionalModel>,
    theta0: &[f64],
    fit: &InlaResult,
    f0: Option<f64>,
) {
    let f = fit.fobj_at_mode;
    out.check(f.is_finite(), || format!("f(θ̂) = {f} is not finite"));
    if let Some(f0) = f0 {
        out.check(f >= f0, || format!("f(θ̂) = {f} is below f(θ₀) = {f0}"));
        out.fact("fit_fobj_gain", (f - f0).to_string());
    }
    out.check(
        fit.latent.sd.iter().all(|s| s.is_finite() && *s >= 0.0),
        || "latent sd has a negative or non-finite value".into(),
    );
    let mut sparse = w.settings();
    sparse.backend = SolverBackend::SparseGeneral;
    let f_sparse = w
        .session(model, theta0, sparse)
        .and_then(|s| s.objective(&fit.hyper.mode));
    match f_sparse {
        Ok(fs) => out.check((fs - f).abs() <= SPARSE_RTOL * f.abs().max(1.0), || {
            format!("f(θ̂) = {f} but the sparse path gives {fs}")
        }),
        Err(e) => out.check(false, || format!("sparse f(θ̂) failed: {e}")),
    }
}

/// Serve while streaming, then check sampled predictions and windows.
fn serve_phase(
    out: &mut Outcome,
    cfg: &RunConfig,
    inputs: &mut Inputs,
    session: &InlaSession,
    fit: &InlaResult,
    seconds: f64,
) {
    let duration = Duration::from_secs_f64(seconds);
    let run = match serve::serve_while_streaming(
        inputs,
        session,
        fit,
        cfg.threads,
        duration,
        cfg.trace,
    ) {
        Ok(run) => run,
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("serve phase: {e}"));
            return;
        }
    };
    out.attempted += run.attempted;
    out.failed += run.failed;
    check_served(out, cfg, inputs, fit, &run);

    // The tail (`serve_p99_ms` once a run has 1000 requests) is recorded
    // but not a bounded metric: with every slow read overlapping a window
    // advance, its run-to-run spread on a shared 2-core host (up to 0.2) is
    // too close to the largest bound a metric may have.
    out.fact("serve.requests", run.latencies_ms.len().to_string());
    out.fact("serve.updates", run.updates_ms.len().to_string());
    if let Some(t) = stats::tail(&run.latencies_ms) {
        out.fact(
            "serve.tail",
            format!(
                "{{\"percentile\": {}, \"value_ms\": {}, \"samples\": {}}}",
                t.percentile, t.value, t.samples
            ),
        );
    }
    if cfg.trace {
        let ms = |name| run.spans.median(name).map(|s| s * 1e3);
        out.metric("serve.queue_ms", ms("serve.queue"), "ms");
        out.metric("serve.solve_ms", ms("serve.solve"), "ms");
        out.metric("serve.mean_batch", Some(run.mean_batch), "count");
        out.metric(
            "snapshot.predict_exact_ms",
            predict_exact_ms(inputs, &run),
            "ms",
        );
        out.metric("stream.append_ms", ms("stream.append"), "ms");
        out.metric("stream.retire_ms", ms("stream.retire"), "ms");
        out.metric("stream.snapshot_ms", ms("stream.snapshot"), "ms");
        out.metric("stream.swap_wait_ms", ms("stream.swap_wait"), "ms");
    } else {
        out.metric("serve_p50_ms", stats::median(&run.latencies_ms), "ms");
        out.metric(
            "serve_qps",
            Some(run.latencies_ms.len() as f64 / run.wall_s),
            "1/s",
        );
        out.metric("update_p50_ms", stats::median(&run.updates_ms), "ms");
    }
}

/// Exact-variance prediction straight on the last snapshot, service bypassed.
fn predict_exact_ms(inputs: &Inputs, run: &ServeRun) -> Option<f64> {
    let (_, snap) = run.snapshots.first()?;
    let mut secs = Vec::new();
    for targets in inputs.targets[0].iter().take(32) {
        let plan = snap.plan(targets).ok()?;
        let t0 = Instant::now();
        std::hint::black_box(snap.predict_planned(&plan, VarianceMode::Exact));
        secs.push(t0.elapsed().as_secs_f64());
    }
    stats::median(&secs).map(|s| s * 1e3)
}

/// Sampled served predictions equal direct ones bitwise; each kept window's
/// `log |Q_c|` equals a cold factorization of the same window bitwise.
fn check_served(
    out: &mut Outcome,
    cfg: &RunConfig,
    inputs: &Inputs,
    fit: &InlaResult,
    run: &ServeRun,
) {
    let w = cfg.workload;
    for s in &run.samples {
        let Some((_, snap)) = run.snapshots.iter().find(|(g, _)| *g == s.gen) else {
            out.check(false, || {
                format!("no snapshot kept for generation {}", s.gen)
            });
            continue;
        };
        let direct = snap
            .plan(&inputs.targets[s.client][s.set])
            .map(|plan| snap.predict_planned(&plan, VarianceMode::Exact));
        let same = direct.is_ok_and(|d| {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            bits(&d.mean) == bits(&s.prediction.mean) && bits(&d.sd) == bits(&s.prediction.sd)
        });
        out.check(same, || {
            format!(
                "served prediction of generation {} differs from direct",
                s.gen
            )
        });
    }
    for (gen, snap) in &run.snapshots {
        let cold = w
            .model(inputs, w.nt, w.window_obs(cfg.seed, *gen))
            .and_then(|m| w.session(&m, &inputs.theta0, w.settings()))
            .and_then(|s| s.streaming_window(fit)?.snapshot())
            .map(|s| s.logdet_qc());
        match cold {
            Ok(cold) => out.check(cold.to_bits() == snap.logdet_qc().to_bits(), || {
                format!(
                    "window {gen}: streamed log|Q_c| {} vs cold {cold}",
                    snap.logdet_qc()
                )
            }),
            Err(e) => out.check(false, || format!("cold window {gen} failed: {e}")),
        }
    }
    out.fact("checks.served_samples", run.samples.len().to_string());
    out.fact("checks.windows", run.snapshots.len().to_string());
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
