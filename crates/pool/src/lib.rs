//! # dalia-pool — work-stealing fork-join thread pool
//!
//! The execution substrate of the workspace's parallel fan-outs. The paper's
//! S1 (per-lane θ evaluations) and S3 (per-partition BTA elimination) layers
//! have *non-uniform* per-item costs, so a fixed-chunk eager map load
//! imbalances badly; this crate provides the work-stealing pool that the
//! vendored `rayon` shim's `par_iter` and the solver stack run on instead:
//!
//! * a **global, lazily-initialized pool** ([`global`]) sized by the
//!   `DALIA_NUM_THREADS` environment variable (default: all cores), plus
//!   independent [`ThreadPool`] instances for tests and benchmarks;
//! * **per-worker deques** in the Chili / crossbeam style: owners push and
//!   pop at the back (LIFO, cache-hot depth-first execution), thieves steal
//!   from the front (FIFO, breadth-first — the oldest, typically largest
//!   subtree moves to the idle worker);
//! * an **injector channel** (the vendored `crossbeam` bounded channel)
//!   through which external threads submit work;
//! * **event-parked idle workers** (since pool v2): a worker that fails to
//!   find work backs off through a few yielding re-scans and then parks on a
//!   condvar-based [`Parker`]. It is woken by a *targeted* wake — a job
//!   pushed onto any deque, a send through the injector (via the `crossbeam`
//!   shim's notify hook), or the completion latch it is waiting on — never
//!   by a timer. The retired v1 protocol polled the injector with a 500 µs
//!   timed `recv`; v2 wake latency is measured in tens of microseconds (see
//!   `BENCH_pool.json`) and an idle pool consumes no CPU. [`WakeStats`]
//!   exposes the park/wake accounting;
//! * two fork-join primitives — [`join`] and [`install`] — with **panic
//!   capture and propagation**: a panicking task unwinds at the fork point of
//!   its publisher, and the pool survives.
//!
//! Fork-join is the only task model. Every published job lives on the stack
//! of a publisher that blocks until it has run, so a pool never holds a job
//! nobody waits for. The paper's layers need nothing else: S1 fans θ points
//! out through `par_iter`, S3 eliminates partitions through `join`, and each
//! served request is one `install`.
//!
//! # Scheduling discipline and determinism
//!
//! `join(a, b)` called on a worker pushes `b` onto the worker's own deque and
//! runs `a` inline; when `a` returns, the worker pops `b` back (common case:
//! no synchronization with other workers beyond the deque lock) or, if `b`
//! was stolen, helps other workers while waiting for the thief to finish —
//! parking when there is nothing to help with. Nested `join`s therefore
//! split **inline** on the current pool — calling a parallel region from
//! inside another parallel region never starts new OS threads and never
//! oversubscribes.
//!
//! Work stealing randomizes *where* a task runs, never *what* it computes:
//! every task owns a disjoint slice of the output, so parallel results are
//! identical to sequential ones (see the parity suites in the `rayon` shim
//! and `tests/session_reuse.rs`).
//!
//! # Safety
//!
//! The pool contains the workspace's second sanctioned `unsafe` block (next
//! to the AVX2 micro-kernel in `dalia_la::blas`): the **job lifetime
//! erasure** in the private `job` module. A `join`/`install` closure may
//! borrow the publishing caller's stack, yet must be executed by a
//! long-lived worker thread, so the closure is erased to a raw
//! pointer + vtable pair (`JobRef`) over a `StackJob` in the publisher's
//! frame. Soundness rests on two invariants that both publishing sites in
//! this crate (`join_in_worker` and `ThreadPool::install`) uphold:
//!
//! 1. **The publisher outlives the job.** The publisher blocks (helping or
//!    parked, never returning) until the job's completion latch is set, and
//!    the latch is set only *after* the executor has finished touching the
//!    job.
//! 2. **Exactly-once execution.** Every published `JobRef` is consumed by
//!    exactly one executor: the worker that dequeued it or the publisher
//!    popping it back. The deques and the injector never duplicate a ref.
//!
//! The full contract is documented in `src/job.rs`; everything else in this
//! crate — including the v2 parking protocol — is safe code.

#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crossbeam::channel::{self, Receiver, Sender};

mod job;
mod park;

pub use park::{Parker, Unparker, WakeStats};

use job::{JobRef, StackJob};
use park::{Sleep, WakeReason};

/// How many fruitless scan rounds (pop + steal sweep + injector poll, with a
/// `yield_now` between rounds) a worker tolerates before it commits to the
/// park protocol. Steal-failure backoff: a transiently empty pool is re-run
/// at deque-lock cost, a genuinely idle one goes to sleep.
const STEAL_BACKOFF_SCANS: usize = 3;

/// Injector channel capacity. Submissions beyond this back-pressure the
/// submitting thread (blocking send), which is the desired behavior.
const INJECTOR_CAP: usize = 1024;

/// Shared state of one pool: the per-worker deques, the injector, and the
/// idle/wake registry.
struct PoolInner {
    deques: Vec<Mutex<VecDeque<JobRef>>>,
    injector_tx: Sender<JobRef>,
    injector_rx: Receiver<JobRef>,
    shutdown: AtomicBool,
    sleep: Arc<Sleep>,
}

impl PoolInner {
    fn num_threads(&self) -> usize {
        self.deques.len()
    }

    /// Push onto the worker's own deque and issue a targeted wake: the new
    /// job is immediately stealable by a parked worker.
    fn push_local(&self, index: usize, job: JobRef) {
        self.deques[index].lock().unwrap_or_else(PoisonError::into_inner).push_back(job);
        self.sleep.wake_one(WakeReason::Push);
    }

    /// LIFO pop from the worker's own deque.
    fn pop_local(&self, index: usize) -> Option<JobRef> {
        self.deques[index].lock().unwrap_or_else(PoisonError::into_inner).pop_back()
    }

    /// FIFO steal sweep over the other workers' deques.
    fn steal(&self, thief: usize) -> Option<JobRef> {
        let n = self.deques.len();
        for k in 1..n {
            let victim = (thief + k) % n;
            let job =
                self.deques[victim].lock().unwrap_or_else(PoisonError::into_inner).pop_front();
            if job.is_some() {
                return job;
            }
        }
        None
    }

    /// One full scan for work in priority order: own deque (LIFO), then the
    /// other deques (FIFO steal), then the injector (non-blocking poll).
    fn find_work(&self, index: usize) -> Option<JobRef> {
        self.pop_local(index)
            .or_else(|| self.steal(index))
            .or_else(|| self.injector_rx.try_recv().ok())
    }

    /// Racy peek used for spurious-wake accounting and the shutdown check.
    fn has_visible_work(&self, index: usize) -> bool {
        if !self.injector_rx.is_empty() {
            return true;
        }
        let n = self.deques.len();
        (0..n).any(|k| {
            !self.deques[(index + k) % n]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .is_empty()
        })
    }

    /// One round of the event-park protocol for worker `index`: announce
    /// idle, re-check `done` / shutdown / the work queues, and only park if
    /// none of them fired (see `park.rs` for why the announce-then-re-check
    /// order makes lost wakeups impossible).
    ///
    /// Returns a job found during the re-check — the caller executes it and
    /// does not park. Returns `None` either because `done`/shutdown turned
    /// true or because the worker parked and has been woken; the caller
    /// re-evaluates its wait condition in both cases.
    fn park_or_find(&self, index: usize, done: &dyn Fn() -> bool) -> Option<JobRef> {
        self.sleep.announce(index);
        if done() || self.shutdown.load(Ordering::Acquire) {
            self.sleep.retract(index);
            return None;
        }
        if let Some(job) = self.find_work(index) {
            self.sleep.retract(index);
            return Some(job);
        }
        self.sleep.note_park();
        park_current_worker();
        self.sleep.retract(index);
        if !done() && !self.shutdown.load(Ordering::Acquire) && !self.has_visible_work(index) {
            self.sleep.note_spurious();
        }
        None
    }

    fn inject(&self, job: JobRef) {
        // The receiver lives in `self`, so the channel can only disconnect
        // while a send is in flight if the pool is being torn down mid-use,
        // which the drop protocol forbids. The send's notify hook issues the
        // targeted wake.
        if self.injector_tx.send(job).is_err() {
            panic!("dalia-pool: injector disconnected (pool used after drop)");
        }
    }
}

/// Thread-local identity of a pool worker.
struct WorkerCtx {
    pool: Arc<PoolInner>,
    index: usize,
    /// The worker's own parking primitive; its unparker is registered with
    /// the pool's [`Sleep`] registry for targeted wakes.
    parker: Parker,
}

thread_local! {
    static WORKER: RefCell<Option<WorkerCtx>> = const { RefCell::new(None) };
}

/// The pool (and worker index) of the current thread, if it is a worker.
fn current_worker() -> Option<(Arc<PoolInner>, usize)> {
    WORKER.with(|w| w.borrow().as_ref().map(|ctx| (Arc::clone(&ctx.pool), ctx.index)))
}

/// Park the current thread on its worker parker. Must only be called from a
/// worker thread (enforced by the callers: `park_or_find` runs on workers).
fn park_current_worker() {
    WORKER.with(|w| {
        let ctx = w.borrow();
        ctx.as_ref().expect("dalia-pool: park requested off-worker").parker.park();
    });
}

/// Whether the current thread is a worker of *any* dalia pool.
pub fn is_worker() -> bool {
    WORKER.with(|w| w.borrow().is_some())
}

fn worker_loop(inner: Arc<PoolInner>, index: usize, parker: Parker) {
    WORKER.with(|w| {
        *w.borrow_mut() = Some(WorkerCtx { pool: Arc::clone(&inner), index, parker });
    });
    let mut fruitless_scans = 0usize;
    loop {
        if inner.shutdown.load(Ordering::Acquire) {
            break;
        }
        if let Some(job) = inner.find_work(index) {
            fruitless_scans = 0;
            job.execute();
            continue;
        }
        // Steal-failure backoff: yield through a few more scan rounds before
        // committing to the park protocol.
        fruitless_scans += 1;
        if fruitless_scans <= STEAL_BACKOFF_SCANS {
            std::thread::yield_now();
            continue;
        }
        fruitless_scans = 0;
        if let Some(job) = inner.park_or_find(index, &|| false) {
            job.execute();
        }
    }
    // Every job is a `StackJob` whose publisher blocks until it has run, and
    // a publisher borrows the pool, so nothing is queued once it is dropped.
    debug_assert!(!inner.has_visible_work(index), "dalia-pool: job queued at shutdown");
    WORKER.with(|w| *w.borrow_mut() = None);
}

/// A work-stealing fork-join thread pool.
///
/// Most code uses the process-wide [`global`] pool through the free functions
/// [`join`] and [`install`]; explicit instances exist so tests and
/// benchmarks can pin an exact thread count:
///
/// ```
/// let pool = dalia_pool::ThreadPool::new(2);
/// let (a, b) = pool.join(|| 21 * 2, || "forty-two");
/// assert_eq!((a, b), (42, "forty-two"));
/// ```
pub struct ThreadPool {
    inner: Arc<PoolInner>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Create a pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> ThreadPool {
        let threads = threads.max(1);
        let (injector_tx, injector_rx) = channel::bounded(INJECTOR_CAP);
        let parkers: Vec<Parker> = (0..threads).map(|_| Parker::new()).collect();
        let sleep = Arc::new(Sleep::new(parkers.iter().map(|p| p.unparker()).collect()));
        // Targeted wake on injector push: the channel's notify hook fires
        // after every successful enqueue, so an external submission unparks
        // exactly one sleeping worker instead of waiting for a poll tick.
        let hook_sleep = Arc::clone(&sleep);
        injector_tx
            .set_notify_hook(Arc::new(move || hook_sleep.wake_one(WakeReason::Injector)))
            .unwrap_or_else(|_| unreachable!("freshly created channel already has a hook"));
        let inner = Arc::new(PoolInner {
            deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector_tx,
            injector_rx,
            shutdown: AtomicBool::new(false),
            sleep,
        });
        let handles = parkers
            .into_iter()
            .enumerate()
            .map(|(i, parker)| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("dalia-pool-{i}"))
                    .spawn(move || worker_loop(inner, i, parker))
                    .expect("dalia-pool: failed to start worker thread")
            })
            .collect();
        ThreadPool { inner, handles }
    }

    /// Number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.inner.num_threads()
    }

    /// Snapshot of the pool's parking/wake accounting: how often workers
    /// parked, how they were woken (targeted push/injector wakes vs
    /// completion wakes), and how many wakes were spurious. Counters are
    /// monotonic over the pool's lifetime.
    pub fn wake_stats(&self) -> WakeStats {
        self.inner.sleep.stats()
    }

    /// Run `a` and `b`, potentially in parallel, and return both results.
    ///
    /// Called on a worker of this pool, `b` is published to the worker's own
    /// deque (stealable by idle workers) and `a` runs inline — nested `join`s
    /// split in place without starting threads. Called from any other thread,
    /// the whole join is [`install`](Self::install)ed into the pool first.
    ///
    /// If either closure panics, the panic is re-thrown here after *both*
    /// closures have been retired, so the pool is never left with a dangling
    /// task (no poisoning).
    pub fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        if self.inner.num_threads() <= 1 {
            return (a(), b());
        }
        match current_worker() {
            Some((pool, index)) if Arc::ptr_eq(&pool, &self.inner) => {
                join_in_worker(&pool, index, a, b)
            }
            _ => self.install(|| {
                let (pool, index) = current_worker().expect("installed job not on a worker");
                join_in_worker(&pool, index, a, b)
            }),
        }
    }

    /// Run `f` on a pool worker, blocking until it returns. A no-op wrapper
    /// when already called from a worker of this pool.
    ///
    /// This is the bridge from external threads into the pool: the closure is
    /// published through the injector channel (whose notify hook wakes a
    /// parked worker), and nested parallelism inside `f` then uses the
    /// worker deques.
    pub fn install<F, R>(&self, f: F) -> R
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        if let Some((pool, _)) = current_worker() {
            if Arc::ptr_eq(&pool, &self.inner) {
                return f();
            }
        }
        let job = StackJob::new(f);
        self.inner.inject(job.as_job_ref());
        job.latch.wait();
        match job.take_result() {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Store the flag first, then broadcast-wake every worker: a worker
        // mid-park wakes on its token, one about to park re-checks the flag
        // after announcing (park tokens persist, so the wake cannot be
        // lost), one executing a job checks the flag on its next loop.
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.sleep.wake_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// `join` on the current worker: publish `b`, run `a`, then pop `b` back or
/// wait for its thief (helping with other queued work, parking when there is
/// nothing to help with).
fn join_in_worker<A, B, RA, RB>(pool: &Arc<PoolInner>, index: usize, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let job_b = StackJob::new(b);
    let ref_b = job_b.as_job_ref();
    let b_id = ref_b.id();
    pool.push_local(index, ref_b);

    let ra = catch_unwind(AssertUnwindSafe(a));

    // Retire everything we still own on the local deque. By LIFO discipline
    // the only job left from this frame is `b` itself (nested joins inside
    // `a` retired their own pushes before returning), but executing whatever
    // is found keeps this correct even for helped-in jobs.
    while let Some(job) = pool.pop_local(index) {
        let is_ours = job.id() == b_id;
        job.execute();
        if is_ours {
            break;
        }
    }
    // If `b` was stolen, help other workers while its thief finishes. With
    // nothing to help with, register this worker on `b`'s latch and park:
    // the thief's completion (or any newly published job) wakes it.
    while !job_b.latch.probe() {
        if let Some(job) = pool.find_work(index) {
            job.execute();
            continue;
        }
        // `set_waker` refuses registration if the latch is already set (so
        // this worker can never park against a completed job).
        if !job_b.latch.set_waker(pool.sleep.completion_handle(index)) {
            break;
        }
        let found = pool.park_or_find(index, &|| job_b.latch.probe());
        job_b.latch.take_waker();
        if let Some(job) = found {
            job.execute();
        }
    }

    let rb = job_b.take_result();
    match (ra, rb) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(payload), _) => resume_unwind(payload),
        (_, Err(payload)) => resume_unwind(payload),
    }
}

// ---------------------------------------------------------------------------
// Global pool + context-following free functions.
// ---------------------------------------------------------------------------

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

/// Parse a `DALIA_NUM_THREADS`-style value; `None` / unparsable / zero fall
/// through to the hardware default.
fn parse_threads(var: Option<&str>) -> Option<usize> {
    var.and_then(|s| s.trim().parse::<usize>().ok()).filter(|&n| n > 0)
}

fn default_num_threads() -> usize {
    parse_threads(std::env::var("DALIA_NUM_THREADS").ok().as_deref()).unwrap_or_else(|| {
        std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
    })
}

/// The process-wide pool, created on first use with `DALIA_NUM_THREADS`
/// workers (default: all available cores).
pub fn global() -> &'static ThreadPool {
    GLOBAL.get_or_init(|| ThreadPool::new(default_num_threads()))
}

/// Worker count of the *current* pool: the pool this thread works for when
/// called on a worker, the global pool otherwise. Parallel algorithms use
/// this to pick their split granularity.
pub fn current_num_threads() -> usize {
    match current_worker() {
        Some((pool, _)) => pool.num_threads(),
        None => global().num_threads(),
    }
}

/// [`ThreadPool::join`] on the current pool (the worker's own pool when
/// called from a worker, the global pool otherwise).
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if let Some((pool, index)) = current_worker() {
        if pool.num_threads() <= 1 {
            return (a(), b());
        }
        return join_in_worker(&pool, index, a, b);
    }
    global().join(a, b)
}

/// [`ThreadPool::install`] on the current pool.
pub fn install<F, R>(f: F) -> R
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    if is_worker() {
        return f();
    }
    global().install(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn join_returns_both_results() {
        let pool = ThreadPool::new(2);
        let (a, b) = pool.join(|| 1 + 1, || 2 + 2);
        assert_eq!((a, b), (2, 4));
    }

    #[test]
    fn join_borrows_stack_data() {
        let pool = ThreadPool::new(2);
        let data: Vec<u64> = (0..1000).collect();
        let (lo, hi) = pool.join(
            || data[..500].iter().sum::<u64>(),
            || data[500..].iter().sum::<u64>(),
        );
        assert_eq!(lo + hi, 1000 * 999 / 2);
    }

    #[test]
    fn nested_joins_split_inline() {
        fn sum(pool_depth: usize, range: std::ops::Range<u64>) -> u64 {
            let len = range.end - range.start;
            if pool_depth == 0 || len <= 1 {
                return range.sum();
            }
            let mid = range.start + len / 2;
            let (a, b) = join(
                || sum(pool_depth - 1, range.start..mid),
                || sum(pool_depth - 1, mid..range.end),
            );
            a + b
        }
        let pool = ThreadPool::new(4);
        let total = pool.install(|| sum(8, 0..4096));
        assert_eq!(total, 4096 * 4095 / 2);
    }

    #[test]
    fn join_propagates_panic_from_b_and_pool_survives() {
        let pool = ThreadPool::new(2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.join(|| 1, || panic!("boom-b"));
        }));
        let payload = r.unwrap_err();
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "boom-b");
        // Pool still functional.
        let (a, b) = pool.join(|| 10, || 20);
        assert_eq!((a, b), (10, 20));
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        let (a, b) = pool.join(|| 1, || 2);
        assert_eq!((a, b), (1, 2));
        assert_eq!(pool.num_threads(), 1);
    }

    #[test]
    fn install_reports_worker_context() {
        let pool = ThreadPool::new(2);
        assert!(!is_worker());
        let inside = pool.install(is_worker);
        assert!(inside);
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 8 ")), Some(8));
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("many")), None);
        assert_eq!(parse_threads(None), None);
    }

    #[test]
    fn idle_workers_park_instead_of_polling() {
        let pool = ThreadPool::new(2);
        // Run something so the workers are definitely live, then go idle.
        let (a, b) = pool.join(|| 1, || 2);
        assert_eq!(a + b, 3);
        std::thread::sleep(Duration::from_millis(60));
        let idle = pool.wake_stats();
        assert!(idle.parks >= 2, "both workers should be parked while idle: {idle:?}");
        // New work still completes promptly (the targeted wake path).
        let sum = pool.install(|| (0..100u64).sum::<u64>());
        assert_eq!(sum, 4950);
        let after = pool.wake_stats();
        assert!(
            after.injector_wakes > idle.injector_wakes || after.push_wakes > idle.push_wakes,
            "waking an idle pool must issue a targeted wake: {after:?} vs {idle:?}"
        );
    }

    #[test]
    fn wake_stats_are_monotonic_and_consistent() {
        fn tree(ran: &AtomicUsize, leaves: usize) {
            if leaves == 1 {
                ran.fetch_add(1, Ordering::Relaxed);
                return;
            }
            join(|| tree(ran, leaves / 2), || tree(ran, leaves - leaves / 2));
        }
        let pool = ThreadPool::new(3);
        let mut prev = pool.wake_stats();
        for round in 0..20 {
            let ran = AtomicUsize::new(0);
            pool.install(|| tree(&ran, 16));
            assert_eq!(ran.load(Ordering::Relaxed), 16, "round {round}");
            let now = pool.wake_stats();
            for (a, b) in [
                (now.parks, prev.parks),
                (now.push_wakes, prev.push_wakes),
                (now.injector_wakes, prev.injector_wakes),
                (now.completion_wakes, prev.completion_wakes),
                (now.spurious_wakes, prev.spurious_wakes),
            ] {
                assert!(a >= b, "wake counters must be monotonic: {now:?} vs {prev:?}");
            }
            prev = now;
        }
    }
}
