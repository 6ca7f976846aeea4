//! Serve while streaming: a closed loop of clients issuing exact-variance
//! predictions against an `InlaService` while one of them slides the fitted
//! window forward and swaps the fresh snapshot in.

use crate::spans::Spans;
use crate::workload::Inputs;
use dalia_core::{
    InlaResult, InlaSession, PosteriorSnapshot, Prediction, StreamingWindow, VarianceMode,
};
use dalia_data::StreamingSource;
use dalia_serve::{InlaService, ServeConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant};

/// Requests client 0 completes between two window advances: with two
/// clients, about one write per 30 reads. Each swap stalls the other
/// client's next read, so about 3% of reads wait behind a swap and the 99th
/// percentile falls inside that group rather than on its edge.
const UPDATE_EVERY: usize = 10;

/// Whether a snapshot generation is kept for the correctness checks: every
/// 8th of the first 40, so the kept snapshots stay few.
fn sampled(gen: usize) -> bool {
    gen.is_multiple_of(8) && gen < 40
}

/// The service and the generation of the snapshot it answers from.
struct Live {
    service: InlaService,
    gen: usize,
}

/// `swap_snapshot` needs the service to itself. Readers pass through the
/// turnstile before taking the read lock, and the writer holds it while it
/// waits for the write lock, so new reads queue behind a pending swap
/// instead of starving it (the standard `RwLock` lets a reader that
/// re-locks at once overtake a waiting writer indefinitely).
struct Shared {
    turnstile: Mutex<()>,
    live: RwLock<Live>,
}

/// A served prediction kept for the correctness check.
pub struct Sample {
    /// Snapshot generation that answered it.
    pub gen: usize,
    /// Client that sent it.
    pub client: usize,
    /// Index of its target set in the client's list.
    pub set: usize,
    /// The served answer.
    pub prediction: Prediction,
}

/// What one serve-while-streaming phase measured.
pub struct ServeRun {
    /// Client-observed latency of every completed prediction.
    pub latencies_ms: Vec<f64>,
    /// Duration of every completed window advance, swap included.
    pub updates_ms: Vec<f64>,
    /// Wall time of the phase.
    pub wall_s: f64,
    /// Requests and updates attempted.
    pub attempted: u64,
    /// Requests and updates that returned an error or panicked.
    pub failed: u64,
    /// Mean requests per executed batch.
    pub mean_batch: f64,
    /// Served predictions to re-check.
    pub samples: Vec<Sample>,
    /// Snapshots of the sampled generations and of the last one.
    pub snapshots: Vec<(usize, PosteriorSnapshot)>,
    /// Layer spans (traced runs only).
    pub spans: Spans,
}

/// Per-client results, merged after the clients join.
struct ClientRun {
    latencies_ms: Vec<f64>,
    updates_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    samples: Vec<Sample>,
    retired: Vec<(usize, PosteriorSnapshot)>,
    spans: Spans,
}

/// The writer's state: the sliding window and the feed that continues it.
struct Writer {
    window: StreamingWindow,
    feed: StreamingSource,
}

/// Run `clients` client threads against a service over `fit`'s snapshot for
/// `duration`, client 0 also advancing the window every [`UPDATE_EVERY`]
/// requests. Errors only when the phase cannot start.
pub fn serve_while_streaming(
    inputs: &mut Inputs,
    session: &InlaSession,
    fit: &InlaResult,
    clients: usize,
    duration: Duration,
    trace: bool,
) -> Result<ServeRun, String> {
    let feed = inputs
        .feed
        .take()
        .ok_or("no feed: only Gaussian workloads stream")?;
    let window = session
        .streaming_window(fit)
        .map_err(|e| format!("streaming window: {e}"))?;
    let first = window
        .snapshot()
        .map_err(|e| format!("window snapshot: {e}"))?;
    // Requests run on the global pool, beside the window advances' work.
    let config = ServeConfig {
        workers: 0,
        ..ServeConfig::default()
    };
    let service = InlaService::new(first, config).map_err(|e| format!("service: {e}"))?;
    let shared = Shared {
        turnstile: Mutex::new(()),
        live: RwLock::new(Live { service, gen: 0 }),
    };
    let mut writer = Some(Writer { window, feed });

    let t0 = Instant::now();
    let deadline = t0 + duration;
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let sets = &inputs.targets[c];
                let writer = if c == 0 { writer.take() } else { None };
                let shared = &shared;
                s.spawn(move || client(c, sets, writer, shared, deadline, trace))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("serve client thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();

    let live = shared.live.into_inner().expect("serve state lock poisoned");
    let mean_batch = live.service.stats().mean_batch();
    let mut out = ServeRun {
        latencies_ms: Vec::new(),
        updates_ms: Vec::new(),
        wall_s,
        attempted: 0,
        failed: 0,
        mean_batch,
        samples: Vec::new(),
        snapshots: vec![(live.gen, live.service.into_snapshot())],
        spans: Spans::new(trace),
    };
    for r in runs {
        out.latencies_ms.extend(r.latencies_ms);
        out.updates_ms.extend(r.updates_ms);
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.samples.extend(r.samples);
        out.snapshots.extend(r.retired);
        out.spans.merge(r.spans);
    }
    Ok(out)
}

fn client(
    c: usize,
    sets: &[Vec<dalia_model::PredictionTarget>],
    mut writer: Option<Writer>,
    shared: &Shared,
    deadline: Instant,
    trace: bool,
) -> ClientRun {
    let mut run = ClientRun {
        latencies_ms: Vec::new(),
        updates_ms: Vec::new(),
        attempted: 0,
        failed: 0,
        samples: Vec::new(),
        retired: Vec::new(),
        spans: Spans::new(trace),
    };
    let mut last_sampled = None;
    let mut i = 0usize;
    while Instant::now() < deadline {
        let set = i % sets.len();
        i += 1;
        run.attempted += 1;
        let q0 = Instant::now();
        drop(shared.turnstile.lock().expect("serve turnstile poisoned"));
        let guard = shared.live.read().expect("serve state lock poisoned");
        let gen = guard.gen;
        let served = catch_unwind(AssertUnwindSafe(|| {
            guard.service.predict(&sets[set], VarianceMode::Exact)
        }));
        drop(guard);
        let latency_ms = q0.elapsed().as_secs_f64() * 1e3;
        match served {
            Ok(Ok(served)) => {
                run.latencies_ms.push(latency_ms);
                run.spans.record("serve.queue", served.timing.queue_seconds);
                run.spans.record("serve.solve", served.timing.solve_seconds);
                if sampled(gen) && last_sampled != Some(gen) {
                    last_sampled = Some(gen);
                    run.samples.push(Sample {
                        gen,
                        client: c,
                        set,
                        prediction: served.value,
                    });
                }
            }
            _ => run.failed += 1,
        }
        if let Some(w) = writer.as_mut() {
            if i.is_multiple_of(UPDATE_EVERY) {
                run.attempted += 1;
                let advanced = catch_unwind(AssertUnwindSafe(|| {
                    advance(w, shared, &mut run.retired, &mut run.spans)
                }));
                match advanced {
                    Ok(Ok(ms)) => run.updates_ms.push(ms),
                    _ => run.failed += 1,
                }
            }
        }
    }
    run
}

/// Slide the window by one slice (append the next, retire the oldest),
/// snapshot it and swap it into the service. Returns the advance's duration;
/// generating the slice and dropping the old snapshot are not timed.
fn advance(
    w: &mut Writer,
    shared: &Shared,
    retired: &mut Vec<(usize, PosteriorSnapshot)>,
    spans: &mut Spans,
) -> Result<f64, dalia_core::CoreError> {
    let slice = w.feed.next_slice_for(w.window.nt());
    let t0 = Instant::now();
    spans.time("stream.append", || w.window.append_slices(1, slice))?;
    spans.time("stream.retire", || w.window.retire_slices(1))?;
    let next = spans.time("stream.snapshot", || w.window.snapshot())?;
    let wait0 = Instant::now();
    let gate = shared.turnstile.lock().expect("serve turnstile poisoned");
    let mut guard = shared.live.write().expect("serve state lock poisoned");
    spans.record("stream.swap_wait", wait0.elapsed().as_secs_f64());
    let old = guard.service.swap_snapshot(next);
    let old_gen = guard.gen;
    guard.gen += 1;
    drop(guard);
    drop(gate);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    if sampled(old_gen) {
        retired.push((old_gen, old));
    }
    Ok(ms)
}
