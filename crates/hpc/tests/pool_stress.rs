//! Stress / soak suite for the work-stealing pool (`dalia_hpc::pool`).
//!
//! The pool schedules the S1/S3 fan-outs of the solver stack, so its
//! concurrency behavior is pinned by tests, not luck:
//!
//! * **exactly-once execution** under N external producers × M stealing
//!   workers with seeded, highly non-uniform task costs, each producer
//!   installing its own recursive `join` tree,
//! * **no deadlock** under deeply nested `join` (fork-join trees several
//!   levels deeper than the worker count),
//! * **panic propagation**: a panicking task unwinds at its fork point
//!   without poisoning the pool — subsequent work schedules normally,
//! * **event-parking edge cases** (pool v2): idle workers genuinely park
//!   (no polling), spurious wakes never stall progress, park/unpark races
//!   with pool shutdown cannot hang `Drop`, and a skewed 1-big/N-tiny
//!   partition layout completes a full S3 pass (factorize + solve + selected
//!   inverse) within 2× of the balanced layout's wall time at 4 threads
//!   thanks to stealable `d_pobtaf`/`d_pobtas`/`d_pobtasi` interiors.
//!
//! Every test runs under a watchdog so a scheduling deadlock fails the suite
//! instead of hanging CI forever.

use dalia_hpc::pool::{self, ThreadPool};
use serinv::testing::{test_matrix, test_rhs};
use serinv::{
    d_pobtaf_scheduled, d_pobtas_scheduled, d_pobtasi_scheduled, InteriorSchedule, Partitioning,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Run `f` on a fresh thread and panic if it has not finished within
/// `secs` seconds — the deadlock guard for every scheduling test.
fn with_watchdog<F>(secs: u64, f: F)
where
    F: FnOnce() + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) => handle.join().expect("watchdogged test panicked"),
        Err(_) => panic!("deadlock suspected: test did not finish within {secs}s"),
    }
}

/// Deterministic splitmix-style cost sequence: most tasks are cheap, a few
/// are hundreds of times more expensive — the S1/S3 imbalance shape.
fn seeded_costs(n: usize, seed: u64) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let r = (state >> 33) % 100;
            if r < 90 {
                50 + r // cheap: ~50..140 spin units
            } else {
                20_000 + (state >> 40) % 20_000 // heavy tail
            }
        })
        .collect()
}

/// Spin for `units` of deterministic work (not elidable by the optimizer).
fn busy(units: u64) -> u64 {
    let mut acc = units;
    for i in 0..units {
        acc = acc.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(i);
    }
    std::hint::black_box(acc)
}

/// Run `task(i)` for every `i` in `range` as the leaves of a recursive
/// `join` tree on the current pool — the shape of the S1/S3 fan-outs.
fn join_tree<F: Fn(usize) + Sync>(range: std::ops::Range<usize>, task: &F) {
    if range.len() <= 1 {
        range.for_each(task);
        return;
    }
    let mid = range.start + range.len() / 2;
    pool::join(|| join_tree(range.start..mid, task), || join_tree(mid..range.end, task));
}

#[test]
fn producers_and_stealers_run_every_task_exactly_once() {
    with_watchdog(120, || {
        const PRODUCERS: usize = 4;
        const TASKS_PER_PRODUCER: usize = 256;
        let pool = Arc::new(ThreadPool::new(4));
        let counters: Arc<Vec<AtomicUsize>> = Arc::new(
            (0..PRODUCERS * TASKS_PER_PRODUCER).map(|_| AtomicUsize::new(0)).collect(),
        );

        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let pool = Arc::clone(&pool);
                let counters = Arc::clone(&counters);
                s.spawn(move || {
                    let costs = seeded_costs(TASKS_PER_PRODUCER, 0xC0FFEE + p as u64);
                    // Each external producer drives its own fork-join region
                    // on the shared pool; workers steal across regions.
                    pool.install(|| {
                        join_tree(0..TASKS_PER_PRODUCER, &|t| {
                            busy(costs[t]);
                            counters[p * TASKS_PER_PRODUCER + t].fetch_add(1, Ordering::Relaxed);
                        })
                    });
                });
            }
        });

        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "task {i} ran a wrong number of times");
        }
    });
}

#[test]
fn nested_joins_do_not_deadlock() {
    with_watchdog(120, || {
        // A fork-join tree 12 levels deep on a 3-worker pool: far more live
        // forks than workers, so completion requires the pop-back / steal /
        // help-while-waiting discipline to be sound.
        fn tree_sum(range: std::ops::Range<u64>) -> u64 {
            let len = range.end - range.start;
            if len <= 1 {
                return range.start;
            }
            let mid = range.start + len / 2;
            let (a, b) = pool::join(|| tree_sum(range.start..mid), || tree_sum(mid..range.end));
            a + b
        }
        let pool = ThreadPool::new(3);
        let total = pool.install(|| tree_sum(0..4096));
        assert_eq!(total, 4096 * 4095 / 2);
    });
}

#[test]
fn panicking_task_propagates_without_poisoning_the_pool() {
    with_watchdog(120, || {
        let pool = ThreadPool::new(4);

        // join: panic in the stolen/pushed half reaches the caller.
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.join(|| busy(1000), || -> u64 { panic!("join-task failure") });
        }));
        let payload = r.expect_err("join panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "join-task failure");

        // join tree: one panicking leaf among many; every `join` retires
        // both halves before it re-throws, so the other leaves complete and
        // the panic surfaces at the root.
        let completed = AtomicUsize::new(0);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| {
                join_tree(0..64, &|i| {
                    if i == 17 {
                        panic!("tree-leaf failure");
                    }
                    busy(200);
                    completed.fetch_add(1, Ordering::Relaxed);
                })
            });
        }));
        let payload = r.expect_err("join-tree panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "tree-leaf failure");
        assert_eq!(completed.load(Ordering::Relaxed), 63);

        // The pool is not poisoned: a full imbalanced workload still runs
        // every task exactly once afterwards.
        let costs = seeded_costs(512, 0xFACADE);
        let counters: Vec<AtomicUsize> = (0..costs.len()).map(|_| AtomicUsize::new(0)).collect();
        pool.install(|| {
            join_tree(0..costs.len(), &|t| {
                busy(costs[t]);
                counters[t].fetch_add(1, Ordering::Relaxed);
            })
        });
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        let (a, b) = pool.join(|| 2 + 2, || 3 * 3);
        assert_eq!((a, b), (4, 9));
    });
}

#[test]
fn join_results_are_correct_under_heavy_stealing_churn() {
    with_watchdog(120, || {
        let pool = ThreadPool::new(4);
        // Repeated imbalanced trees: left side trivial, right side heavy, so
        // the right subtree is stolen constantly; results must stay exact.
        let out = pool.install(|| {
            let mut total = 0u64;
            for round in 0..50u64 {
                let (l, r) = pool::join(
                    || round,
                    || {
                        let (a, b) = pool::join(|| busy(5_000) & 1, || busy(5_000) & 1);
                        a + b + round
                    },
                );
                total += l + r;
            }
            total
        });
        // Exact value: sum over rounds of (round + round + parity terms).
        let parity = pool.install(|| busy(5_000) & 1) * 2;
        let expected: u64 = (0..50).map(|r| 2 * r + parity).sum();
        assert_eq!(out, expected);
    });
}

#[test]
fn idle_pool_parks_and_spurious_wakes_do_not_stall_progress() {
    with_watchdog(120, || {
        let pool = ThreadPool::new(3);
        // Let the pool go fully idle: all workers must end up parked (the
        // event-parking protocol, not a timed poll).
        pool.install(|| busy(1_000));
        std::thread::sleep(Duration::from_millis(80));
        let idle = pool.wake_stats();
        assert!(idle.parks >= 3, "idle workers must park, saw {idle:?}");

        // Hammer the pool from several external threads with tiny tasks:
        // each injector send issues a targeted wake, workers race for the
        // job, and the losers take spurious wakes. Every task must still
        // run exactly once, and the counters must stay consistent.
        const ROUNDS: usize = 200;
        const EXTERNALS: usize = 3;
        let ran = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..EXTERNALS {
                let pool = &pool;
                let ran = Arc::clone(&ran);
                s.spawn(move || {
                    for _ in 0..ROUNDS {
                        let ran = Arc::clone(&ran);
                        pool.install(move || {
                            busy(50);
                            ran.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(ran.load(Ordering::Relaxed), ROUNDS * EXTERNALS);
        let end = pool.wake_stats();
        assert!(end.parks >= idle.parks, "park counter must be monotonic");
        assert!(
            end.injector_wakes > idle.injector_wakes,
            "external submissions to an idle pool must issue targeted injector wakes: {end:?}"
        );
        // Spurious wakes are permitted but bounded: every spurious wake is a
        // worker that lost a race for one published job, so the count cannot
        // exceed the total wakes issued.
        let wakes = end.push_wakes + end.injector_wakes + end.completion_wakes;
        assert!(
            end.spurious_wakes <= wakes,
            "spurious wakes ({}) exceed total issued wakes ({wakes}): {end:?}",
            end.spurious_wakes
        );
    });
}

#[test]
fn park_unpark_races_with_shutdown_do_not_hang_drop() {
    // The nastiest window: workers heading into (or sitting in) a park while
    // the pool is dropped mid-traffic. The shutdown broadcast must win every
    // interleaving — a lost wake here hangs `Drop` forever, which the
    // watchdog turns into a failure.
    with_watchdog(120, || {
        for round in 0..200 {
            let pool = ThreadPool::new(4);
            // A join tree spreads work over the workers just before the
            // drop, so drop races against every worker state: finishing a
            // steal, scanning, announcing, parked.
            pool.install(|| {
                join_tree(0..8, &|i| {
                    busy(10 + (i as u64 % 3) * 30);
                })
            });
            if round % 3 == 0 {
                // Sometimes give workers time to park before dropping;
                // sometimes drop while they are mid-scan.
                std::thread::sleep(Duration::from_millis(1));
            }
            drop(pool); // must never hang
        }
    });
}

#[test]
fn skewed_partition_layout_completes_within_2x_of_balanced() {
    // The tentpole property: with stealable interiors, a 1-big/N-tiny
    // partition layout (the worst case that used to serialize the whole S3
    // fan-out on one worker) finishes within 2x of the balanced layout's
    // wall time at 4 threads — for the full S3 pass (factorize + solve +
    // selected inverse), not just factorization. Both layouts process the
    // same matrix, so on a single hardware core the ratio is ~1 by
    // construction; on multi-core hosts the bound fails without interior
    // splitting (the big partition alone costs ~3-4x the balanced critical
    // path).
    with_watchdog(300, || {
        let (n, b, a) = (18, 64, 3);
        let m = test_matrix(n, b, a, 0xBA1A);
        let rhs0 = test_rhs(m.dim(), 8);
        // Big partition in the middle: interior partitions carry the
        // left-separator fill, the shape worth stealing from.
        let skewed = Partitioning::from_sizes(&[1, 13, 1, 1, 1, 1]);
        let balanced = Partitioning::even(n, 6);
        let pool = ThreadPool::new(4);

        let time_layout = |part: &Partitioning| {
            // Warmup, then best-of-3, each run a full S3 pass.
            let run = || {
                pool.install(|| {
                    let f = d_pobtaf_scheduled(&m, part, InteriorSchedule::Stealable)
                        .expect("factorization");
                    let mut rhs = rhs0.clone();
                    d_pobtas_scheduled(&f, &mut rhs, InteriorSchedule::Stealable);
                    let sel = d_pobtasi_scheduled(&f, InteriorSchedule::Stealable);
                    f.logdet().unwrap() + rhs.as_slice()[0] + sel.blocks.diag[0].as_slice()[0]
                })
            };
            let _ = run();
            (0..3)
                .map(|_| {
                    let t0 = Instant::now();
                    std::hint::black_box(run());
                    t0.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        };

        let balanced_secs = time_layout(&balanced);
        let skewed_secs = time_layout(&skewed);
        // 2x with a small absolute floor so micro-second-scale jitter on
        // fast machines cannot flake the bound.
        let bound = (2.0 * balanced_secs).max(balanced_secs + 0.005);
        assert!(
            skewed_secs <= bound,
            "skewed layout took {skewed_secs:.4}s vs balanced {balanced_secs:.4}s \
             (bound {bound:.4}s) — stealable interiors are not spreading the big partition"
        );
    });
}

#[test]
fn env_thread_count_is_respected_by_instance_pools() {
    with_watchdog(60, || {
        // Instance pools pin exact worker counts (the global pool reads
        // DALIA_NUM_THREADS once per process; tests use instances so they
        // cannot interfere with each other).
        for n in [1, 2, 5] {
            let pool = ThreadPool::new(n);
            assert_eq!(pool.num_threads(), n);
            // All work lands on exactly that pool's workers.
            let distinct = pool.install(|| {
                use std::collections::HashSet;
                use std::sync::Mutex;
                let ids = Mutex::new(HashSet::new());
                join_tree(0..64, &|_| {
                    ids.lock().unwrap().insert(std::thread::current().id());
                    busy(2_000);
                });
                let len = ids.lock().unwrap().len();
                len
            });
            assert!(distinct <= n, "{distinct} distinct workers on a {n}-thread pool");
        }
    });
}
