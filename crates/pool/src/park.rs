//! Event-based parking for idle workers (pool v2).
//!
//! Until PR 5 an idle worker parked on the injector channel's *timed*
//! `recv` and re-scanned the deques every 500 µs — a polling loop that burned
//! wakeups while the pool was idle and added up to 500 µs of latency between
//! a job being published and a sleeping worker noticing it. This module
//! replaces that loop with a futex-style event protocol built from two
//! pieces:
//!
//! * [`Parker`] / [`Unparker`] — a token-based, condvar-backed parking
//!   primitive with `std::thread::park` semantics: `unpark` deposits a
//!   one-shot token, `park` consumes it or sleeps until it arrives. An
//!   unpark that races ahead of the matching park is never lost, and
//!   repeated unparks coalesce into a single token (at most one spurious
//!   wake).
//! * [`Sleep`] — the pool-wide idle registry: a worker *announces* itself
//!   before parking, and publishers issue **targeted wakes** — pop exactly
//!   one announced worker and unpark it — when they push a job (local deque
//!   push or injector send, the latter through the `crossbeam` shim's notify
//!   hook). Completion events (a `join` latch becoming ready) wake
//!   the registered waiter directly through a [`WakeHandle`].
//!
//! # Why no wakeup is ever lost
//!
//! The publisher's protocol is *push job, then read the idle registry*; the
//! sleeper's protocol is *announce in the registry, then re-scan the queues,
//! then park*. Both structures are lock-protected, so the two orders cannot
//! both miss: if the sleeper's re-scan ran before the publisher's push
//! committed, the publisher's later registry read happens-after the
//! sleeper's announcement and finds it (targeted wake); otherwise the
//! re-scan finds the job and the worker never parks. The same argument
//! covers shutdown (flag store before `wake_all`, flag check after
//! announcing).
//!
//! Every transition is counted in [`WakeStats`] so tests and benchmarks can
//! assert that idle workers actually sleep (no polling), that wakes are
//! targeted, and that spurious wakes stay bounded.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
#[cfg(test)]
use std::time::Duration;

/// The sleeping half of a parking pair: owned by exactly one thread, which
/// alternates between [`Parker::park`] and doing work.
///
/// Semantics follow `std::thread::park`: an [`Unparker::unpark`] deposits a
/// one-shot token; `park` returns immediately if a token is present
/// (consuming it) and blocks otherwise. Tokens do not accumulate — any
/// number of unparks between two parks produce exactly one wake.
pub struct Parker {
    inner: Arc<ParkInner>,
}

/// The waking half of a parking pair; cheap to clone and share across
/// threads.
#[derive(Clone)]
pub struct Unparker {
    inner: Arc<ParkInner>,
}

struct ParkInner {
    token: Mutex<bool>,
    cv: Condvar,
}

impl Parker {
    /// Create a new parker with no token pending.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Parker {
        Parker { inner: Arc::new(ParkInner { token: Mutex::new(false), cv: Condvar::new() }) }
    }

    /// A handle that can wake this parker from any thread.
    pub fn unparker(&self) -> Unparker {
        Unparker { inner: Arc::clone(&self.inner) }
    }

    /// Block the current thread until a token is available, then consume it.
    pub fn park(&self) {
        let mut token = self.inner.token.lock().unwrap_or_else(PoisonError::into_inner);
        while !*token {
            token = self.inner.cv.wait(token).unwrap_or_else(PoisonError::into_inner);
        }
        *token = false;
    }

    /// Block for at most `timeout` waiting for a token. Returns `true` if a
    /// token was consumed, `false` on timeout.
    ///
    /// Test-only: the pool itself never parks on a timer (that is the whole
    /// point of v2), but the unit tests below need a bounded way to assert
    /// that a token is *absent*.
    #[cfg(test)]
    pub(crate) fn park_timeout(&self, timeout: Duration) -> bool {
        let mut token = self.inner.token.lock().unwrap_or_else(PoisonError::into_inner);
        if !*token {
            let (guard, _) = self
                .inner
                .cv
                .wait_timeout(token, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            token = guard;
        }
        let had = *token;
        *token = false;
        had
    }
}

impl Unparker {
    /// Deposit a wake token and notify the parked thread (if any). Multiple
    /// unparks without an intervening park coalesce into one token.
    pub fn unpark(&self) {
        *self.inner.token.lock().unwrap_or_else(PoisonError::into_inner) = true;
        self.inner.cv.notify_one();
    }
}

/// Snapshot of the pool's parking/wake accounting, taken with
/// [`crate::ThreadPool::wake_stats`].
///
/// The counters are monotonic over the pool's lifetime and are meant for
/// tests and benchmarks, not for scheduling decisions:
///
/// * an **event-parked** pool shows `parks > 0` after any idle period and a
///   `wake_latency` benchmark far below the retired 500 µs polling interval;
/// * `spurious_wakes` stay small relative to `parks` (a woken worker that
///   finds its job already stolen re-parks — that is the only source).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WakeStats {
    /// Times a worker actually went to sleep on its [`Parker`].
    pub parks: u64,
    /// Targeted wakes issued because a job was pushed onto a worker deque.
    pub push_wakes: u64,
    /// Targeted wakes issued by the injector channel's notify hook (external
    /// submission through `install` from non-workers).
    pub injector_wakes: u64,
    /// Wakes issued by a completion event: a `join` latch became
    /// ready and woke its registered waiter.
    pub completion_wakes: u64,
    /// Times a parked worker woke up and found neither work nor its awaited
    /// completion (its target was consumed by another worker, or a stray
    /// token was left by a racing waker). The worker re-parks; forward
    /// progress never depends on spurious wakes.
    pub spurious_wakes: u64,
}

/// Wake counters shared between the [`Sleep`] registry and the
/// [`WakeHandle`]s that latches hold.
#[derive(Default)]
pub(crate) struct WakeCounters {
    parks: AtomicU64,
    push_wakes: AtomicU64,
    injector_wakes: AtomicU64,
    completion_wakes: AtomicU64,
    spurious_wakes: AtomicU64,
}

/// A targeted waker for one specific waiting worker, registered on a latch
/// by the worker before it parks. `wake` is called by whichever thread
/// completes the awaited job.
pub(crate) struct WakeHandle {
    unparker: Unparker,
    counters: Arc<WakeCounters>,
}

impl WakeHandle {
    /// Wake the registered waiter and account the completion wake.
    pub(crate) fn wake(&self) {
        self.counters.completion_wakes.fetch_add(1, Ordering::Relaxed);
        self.unparker.unpark();
    }
}

/// The pool-wide idle registry: which workers are (about to go) asleep, and
/// how to wake exactly one of them when a job is published.
pub(crate) struct Sleep {
    /// Indices of announced-idle workers, most recent last (LIFO wake order:
    /// the most recently parked worker is the most cache-warm).
    idle: Mutex<Vec<usize>>,
    /// Lock-free fast-path mirror of `idle.len()`: publishers skip the lock
    /// entirely while nobody sleeps (the common case under load). The
    /// happens-before edge that makes the relaxed read safe is the deque
    /// mutex: see the module docs.
    idle_count: AtomicUsize,
    /// One unparker per worker, indexed like the deques.
    unparkers: Vec<Unparker>,
    counters: Arc<WakeCounters>,
}

/// Which kind of publication triggered a targeted wake (for accounting).
#[derive(Clone, Copy)]
pub(crate) enum WakeReason {
    /// A job was pushed onto a worker's deque.
    Push,
    /// A job was sent through the injector channel.
    Injector,
}

impl Sleep {
    pub(crate) fn new(unparkers: Vec<Unparker>) -> Sleep {
        Sleep {
            idle: Mutex::new(Vec::with_capacity(unparkers.len())),
            idle_count: AtomicUsize::new(0),
            unparkers,
            counters: Arc::new(WakeCounters::default()),
        }
    }

    /// Register worker `index` as idle. Must be followed by a re-scan of the
    /// work queues before parking (see the module docs for why).
    pub(crate) fn announce(&self, index: usize) {
        let mut idle = self.idle.lock().unwrap_or_else(PoisonError::into_inner);
        debug_assert!(!idle.contains(&index), "worker {index} announced idle twice");
        idle.push(index);
        self.idle_count.store(idle.len(), Ordering::Relaxed);
    }

    /// Remove worker `index` from the idle registry if still present (a
    /// targeted wake removes it on the waker's side; a completion wake does
    /// not).
    pub(crate) fn retract(&self, index: usize) {
        let mut idle = self.idle.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(pos) = idle.iter().position(|&i| i == index) {
            idle.swap_remove(pos);
            self.idle_count.store(idle.len(), Ordering::Relaxed);
        }
    }

    /// Targeted wake: pop one announced-idle worker and unpark it. No-op when
    /// nobody is asleep — a worker between its queue re-scan and `park` is
    /// covered by the announce-then-re-scan protocol, and a worker still
    /// scanning will find the job itself.
    pub(crate) fn wake_one(&self, reason: WakeReason) {
        if self.idle_count.load(Ordering::Relaxed) == 0 {
            return;
        }
        let woken = {
            let mut idle = self.idle.lock().unwrap_or_else(PoisonError::into_inner);
            let woken = idle.pop();
            self.idle_count.store(idle.len(), Ordering::Relaxed);
            woken
        };
        if let Some(index) = woken {
            match reason {
                WakeReason::Push => self.counters.push_wakes.fetch_add(1, Ordering::Relaxed),
                WakeReason::Injector => {
                    self.counters.injector_wakes.fetch_add(1, Ordering::Relaxed)
                }
            };
            self.unparkers[index].unpark();
        }
    }

    /// Broadcast wake of *every* worker, announced or not (pool shutdown).
    /// Parker tokens persist, so a worker that parks after this call still
    /// wakes immediately and re-checks the shutdown flag.
    pub(crate) fn wake_all(&self) {
        {
            let mut idle = self.idle.lock().unwrap_or_else(PoisonError::into_inner);
            idle.clear();
            self.idle_count.store(0, Ordering::Relaxed);
        }
        for u in &self.unparkers {
            u.unpark();
        }
    }

    /// A [`WakeHandle`] that wakes worker `index`, for registration on a
    /// completion latch.
    pub(crate) fn completion_handle(&self, index: usize) -> WakeHandle {
        WakeHandle {
            unparker: self.unparkers[index].clone(),
            counters: Arc::clone(&self.counters),
        }
    }

    pub(crate) fn note_park(&self) {
        self.counters.parks.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_spurious(&self) {
        self.counters.spurious_wakes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn stats(&self) -> WakeStats {
        WakeStats {
            parks: self.counters.parks.load(Ordering::Relaxed),
            push_wakes: self.counters.push_wakes.load(Ordering::Relaxed),
            injector_wakes: self.counters.injector_wakes.load(Ordering::Relaxed),
            completion_wakes: self.counters.completion_wakes.load(Ordering::Relaxed),
            spurious_wakes: self.counters.spurious_wakes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn unpark_before_park_is_not_lost() {
        let p = Parker::new();
        p.unparker().unpark();
        let t0 = Instant::now();
        p.park(); // must return immediately: the token was deposited first
        assert!(t0.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn park_timeout_times_out_without_token() {
        let p = Parker::new();
        let t0 = Instant::now();
        assert!(!p.park_timeout(Duration::from_millis(20)));
        assert!(t0.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn repeated_unparks_coalesce_into_one_token() {
        let p = Parker::new();
        let u = p.unparker();
        u.unpark();
        u.unpark();
        u.unpark();
        assert!(p.park_timeout(Duration::from_millis(10)));
        // The three unparks produced exactly one token: the next park must
        // time out (this is the "at most one spurious wake" guarantee).
        assert!(!p.park_timeout(Duration::from_millis(10)));
    }

    #[test]
    fn cross_thread_unpark_wakes_a_parked_thread() {
        let p = Parker::new();
        let u = p.unparker();
        std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                u.unpark();
            });
            let t0 = Instant::now();
            p.park();
            let waited = t0.elapsed();
            assert!(waited >= Duration::from_millis(10), "parked for only {waited:?}");
        });
    }

    #[test]
    fn sleep_targeted_wake_pops_lifo_and_accounts() {
        let parkers: Vec<Parker> = (0..3).map(|_| Parker::new()).collect();
        let sleep = Sleep::new(parkers.iter().map(|p| p.unparker()).collect());
        sleep.announce(0);
        sleep.announce(2);
        sleep.wake_one(WakeReason::Push); // wakes 2 (most recent)
        sleep.wake_one(WakeReason::Injector); // wakes 0
        sleep.wake_one(WakeReason::Push); // nobody left: no-op
        assert!(parkers[2].park_timeout(Duration::from_millis(50)));
        assert!(parkers[0].park_timeout(Duration::from_millis(50)));
        assert!(!parkers[1].park_timeout(Duration::from_millis(10)));
        let stats = sleep.stats();
        assert_eq!(stats.push_wakes, 1);
        assert_eq!(stats.injector_wakes, 1);
    }

    #[test]
    fn sleep_retract_removes_only_the_given_worker() {
        let parkers: Vec<Parker> = (0..2).map(|_| Parker::new()).collect();
        let sleep = Sleep::new(parkers.iter().map(|p| p.unparker()).collect());
        sleep.announce(0);
        sleep.announce(1);
        sleep.retract(0);
        sleep.retract(0); // double retract is a no-op
        sleep.wake_one(WakeReason::Push);
        assert!(parkers[1].park_timeout(Duration::from_millis(50)));
        assert!(!parkers[0].park_timeout(Duration::from_millis(10)));
    }
}
