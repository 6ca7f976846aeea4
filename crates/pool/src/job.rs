//! Erased job references and completion latches.
//!
//! This module contains the crate's only `unsafe` code (the workspace's
//! second sanctioned exception, next to the AVX2 micro-kernel in
//! `dalia_la::blas`): a [`JobRef`] is a type- and lifetime-erased pointer to
//! a [`StackJob`] that lives on the publishing caller's stack. Erasure is
//! what lets a long-lived worker thread execute a closure that borrows the
//! caller's locals — the same mechanism `rayon-core`'s `join` is built on.
//! There are no heap jobs: the pool is fork-join only, so every job has a
//! publisher that waits for it.
//!
//! Soundness contract, enforced by the callers in `lib.rs`:
//!
//! * a [`StackJob`]'s publisher does not return (and therefore does not
//!   invalidate the job's stack slot) until the job's [`Latch`] has been set,
//!   and the latch is set only by [`StackJob::execute_erased`] *after* it has
//!   finished touching the job;
//! * every published [`JobRef`] is executed exactly once: it is consumed
//!   either by the worker that dequeued it or by the publisher popping it
//!   back.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, PoisonError};

use crate::park::WakeHandle;

/// A binary completion latch: one-shot, set by the executor, awaited by the
/// publisher. Built on `Mutex` + `Condvar` so waiting threads sleep.
///
/// A pool worker that waits on a latch does not sit on the condvar — it
/// registers a [`WakeHandle`] (its own parker) via [`Latch::set_waker`] and
/// parks, so `set` wakes it through the pool's event-parking protocol and
/// the worker can also be woken by newly published work in the meantime.
/// External (non-worker) threads use the condvar [`Latch::wait`] directly.
///
/// The completion flag and the waker live under **one** mutex, which closes
/// both halves of the set/register race: `set_waker` refuses to register
/// once the latch is set (so a waiter can never park against an
/// already-completed job), and `set` publishes completion and extracts the
/// waker atomically, notifying the condvar while still holding the lock.
/// The latter matters for lifetime soundness: the instant a waiter can
/// observe the latch as set it may free the job this latch lives in (a
/// [`StackJob`] is storage on the *waiter's* stack), so `set` must never
/// touch `self` after the lock is released — the extracted [`WakeHandle`]
/// is self-contained and safe to invoke afterwards.
pub(crate) struct Latch {
    state: Mutex<LatchState>,
    cv: Condvar,
}

struct LatchState {
    done: bool,
    waker: Option<WakeHandle>,
}

impl Latch {
    pub(crate) fn new() -> Self {
        Latch { state: Mutex::new(LatchState { done: false, waker: None }), cv: Condvar::new() }
    }

    /// Mark the latch as set and wake all waiters — condvar sleepers and the
    /// registered parked worker, if any. See the type docs for why the
    /// publish and the waker extraction are a single critical section.
    pub(crate) fn set(&self) {
        let waker = {
            let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            st.done = true;
            self.cv.notify_all();
            st.waker.take()
        };
        if let Some(handle) = waker {
            handle.wake();
        }
    }

    /// Register the parked worker to be woken by [`Latch::set`]. Returns
    /// `false` without registering if the latch is already set (the caller
    /// must then not park on it).
    pub(crate) fn set_waker(&self, handle: WakeHandle) -> bool {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if st.done {
            return false;
        }
        st.waker = Some(handle);
        true
    }

    /// Deregister the waker (the waiting worker is awake and re-checking).
    pub(crate) fn take_waker(&self) {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).waker.take();
    }

    /// Non-blocking check.
    pub(crate) fn probe(&self) -> bool {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).done
    }

    /// Block until the latch is set.
    pub(crate) fn wait(&self) {
        let mut g = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        while !g.done {
            g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Type- and lifetime-erased pointer to a publishable job.
pub(crate) struct JobRef {
    data: *const (),
    execute_fn: unsafe fn(*const ()),
}

// SAFETY: a `JobRef` always points at a job whose closure is `Send` (bounded
// at construction in `StackJob::new`), and logical ownership
// of the pointee transfers with the ref: exactly one thread executes it.
#[allow(unsafe_code)]
unsafe impl Send for JobRef {}

impl JobRef {
    /// Stable identity of the underlying job, used by `join` to recognize its
    /// own pending task when popping the local deque.
    pub(crate) fn id(&self) -> usize {
        self.data as usize
    }

    /// Run the job. Consumes the ref; must be called exactly once.
    #[allow(unsafe_code)]
    pub(crate) fn execute(self) {
        // SAFETY: the constructors guarantee `data` points at a live job of
        // the type `execute_fn` expects, and the exactly-once discipline in
        // the pool guarantees no double execution.
        unsafe { (self.execute_fn)(self.data) }
    }
}

/// A job whose storage lives on the publisher's stack, with a result slot and
/// a completion latch. Used by `join` and `install`.
pub(crate) struct StackJob<F, R> {
    func: Mutex<Option<F>>,
    result: Mutex<Option<std::thread::Result<R>>>,
    pub(crate) latch: Latch,
}

impl<F, R> StackJob<F, R>
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    pub(crate) fn new(f: F) -> Self {
        StackJob { func: Mutex::new(Some(f)), result: Mutex::new(None), latch: Latch::new() }
    }

    /// Erase this job into a publishable [`JobRef`].
    ///
    /// The caller promises to keep `self` alive (not return, not move it)
    /// until [`Latch::set`] has been observed on `self.latch`.
    pub(crate) fn as_job_ref(&self) -> JobRef {
        JobRef {
            data: self as *const Self as *const (),
            execute_fn: Self::execute_erased,
        }
    }

    /// Take the stored result after the latch is set.
    pub(crate) fn take_result(&self) -> std::thread::Result<R> {
        self.result
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .expect("StackJob result taken before completion")
    }

    #[allow(unsafe_code)]
    unsafe fn execute_erased(data: *const ()) {
        // SAFETY: `data` came from `as_job_ref` on a `StackJob<F, R>` whose
        // publisher keeps it alive until `latch.set()` below.
        let job = unsafe { &*(data as *const Self) };
        let f = job
            .func
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .expect("StackJob executed twice");
        let res = catch_unwind(AssertUnwindSafe(f));
        *job.result.lock().unwrap_or_else(PoisonError::into_inner) = Some(res);
        job.latch.set();
    }
}
