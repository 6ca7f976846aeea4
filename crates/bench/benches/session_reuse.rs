//! Ablation of the stateful-session redesign: one objective evaluation
//! through a fresh session per call (a one-shot evaluation —
//! workspaces allocated and symbolic analysis recomputed every time) versus a
//! reused `InlaSession` whose pooled solver keeps its workspaces warm.
//!
//! The per-phase breakdown printed after the criterion numbers isolates where
//! the reuse pays: assembly (pre-allocated BTA blocks) and factorization
//! (cached sparse symbolic analysis, recycled factor storage).

use criterion::{criterion_group, criterion_main, Criterion};
use dalia_bench::{build_instance, instance_session};
use dalia_core::{InlaSettings, PhaseTimers};
use dalia_data::sa1;
use std::hint::black_box;

fn bench_session_reuse(c: &mut Criterion) {
    let inst = build_instance(&sa1(), 30, 6, 5);

    for (label, settings) in [
        ("bta", InlaSettings::dalia(1)),
        ("sparse", InlaSettings::rinla_like()),
    ] {
        let mut group = c.benchmark_group(format!("objective_evaluation_{label}"));
        group.sample_size(10);
        group.bench_function("fresh_session_per_eval", |b| {
            b.iter(|| {
                let session = instance_session(&inst, settings.clone());
                black_box(session.objective(&inst.theta0).unwrap())
            });
        });
        let session = instance_session(&inst, settings.clone());
        group.bench_function("reused_session", |b| {
            b.iter(|| black_box(session.objective(&inst.theta0).unwrap()));
        });
        group.finish();

        // Phase breakdown over 20 evaluations each way.
        let reps = 20;
        let mut fresh_timers = PhaseTimers::default();
        for _ in 0..reps {
            let one_shot = instance_session(&inst, settings.clone());
            one_shot.objective(&inst.theta0).unwrap();
            fresh_timers.merge(&one_shot.timers());
        }
        let warm = instance_session(&inst, settings.clone());
        warm.objective(&inst.theta0).unwrap(); // warm-up builds the caches
        warm.reset_timers();
        for _ in 0..reps {
            warm.objective(&inst.theta0).unwrap();
        }
        let warm_timers = warm.timers();
        let per = |t: PhaseTimers| {
            (
                1e3 * t.assembly_seconds / reps as f64,
                1e3 * t.factorize_seconds / reps as f64,
                1e3 * t.solve_seconds / reps as f64,
            )
        };
        let (fa, ff, fs) = per(fresh_timers);
        let (wa, wf, ws) = per(warm_timers);
        println!("[{label}] per-evaluation phase times, fresh vs reused session (ms):");
        println!("  assembly    {fa:8.3} -> {wa:8.3}  ({:+.1}%)", 100.0 * (wa - fa) / fa);
        println!("  factorize   {ff:8.3} -> {wf:8.3}  ({:+.1}%)", 100.0 * (wf - ff) / ff);
        println!("  solve       {fs:8.3} -> {ws:8.3}  ({:+.1}%)", 100.0 * (ws - fs) / fs);
    }
}

criterion_group!(benches, bench_session_reuse);
criterion_main!(benches);
