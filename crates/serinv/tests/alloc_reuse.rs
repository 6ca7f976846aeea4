//! Allocation-count pins: the distributed solve / selected-inverse passes on
//! a warm caller's pack, partitioned and with one partition, the warm
//! sequential factorization, and the warm sequential solve and selected
//! inversion.
//!
//! `d_pobtas` / `d_pobtasi` sit in the per-θ hot loop, so their reduced-system
//! coupling blocks must be shared across partitions, not cloned per partition
//! per call (the regression this test pins): the solve hoists one extraction
//! per separator (`sep_x` / tip) out of the parallel region, and the selected
//! inverse borrows the `sig_*` views straight from the reduced selected
//! inverse. The reduced-system pass runs on the caller's pack, so a warm
//! pack costs it no buffer growth. This test counts heap allocations around
//! steady-state calls on a 1-thread pool (deterministic scheduling) and
//! fails if the counts creep back up to per-partition-clone territory.

// A counting global allocator requires implementing the unsafe `GlobalAlloc`
// trait; the implementation only bumps a counter and delegates to `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use dalia_la::PackBuffer;
use serinv::testing::{test_matrix, test_rhs};
use serinv::{d_pobtaf, d_pobtas, d_pobtasi, Partitioning};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `ALLOCS` is process-global, and the harness runs this binary's tests on
/// concurrent threads: every test body holds this lock so no other test's
/// allocations land inside a measured window.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A test that panicked while holding the lock leaves nothing to repair:
    // the guarded value is `()`.
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn allocs_during(f: impl FnOnce()) -> usize {
    let before = ALLOCS.load(Ordering::SeqCst);
    f();
    ALLOCS.load(Ordering::SeqCst) - before
}

#[test]
fn solve_and_selinv_do_not_clone_reduced_blocks_per_partition() {
    let _serial = serial();
    // 6 partitions → 5 separators; small blocks keep the numbers readable.
    let (n, b, a) = (12, 8, 2);
    let m = test_matrix(n, b, a, 77);
    let part = Partitioning::from_sizes(&[7, 1, 1, 1, 1, 1]);
    let pool = dalia_pool::ThreadPool::new(1);

    let factor = pool.install(|| d_pobtaf(&m, &part)).unwrap();
    let rhs0 = test_rhs(m.dim(), 4);

    // Warm up once (lazy pool / pack structures), then measure steady state.
    let mut pack = PackBuffer::new();
    let mut rhs = rhs0.clone();
    pool.install(|| d_pobtas(&factor, &mut rhs, &mut pack));
    pool.install(|| d_pobtasi(&factor, &mut pack));

    let mut rhs_a = rhs0.clone();
    let solve_allocs = allocs_during(|| pool.install(|| d_pobtas(&factor, &mut rhs_a, &mut pack)));
    let selinv_allocs = allocs_during(|| {
        let _sel = pool.install(|| d_pobtasi(&factor, &mut pack));
    });

    // Steady-state calls are deterministic: a rerun allocates exactly as much.
    let mut rhs_b = rhs0.clone();
    let solve_again = allocs_during(|| pool.install(|| d_pobtas(&factor, &mut rhs_b, &mut pack)));
    let selinv_again = allocs_during(|| {
        let _sel = pool.install(|| d_pobtasi(&factor, &mut pack));
    });
    assert_eq!(solve_allocs, solve_again, "d_pobtas allocation count is nondeterministic");
    assert_eq!(selinv_allocs, selinv_again, "d_pobtasi allocation count is nondeterministic");
    eprintln!("steady-state allocations: d_pobtas = {solve_allocs}, d_pobtasi = {selinv_allocs}");

    // Absolute budgets at the measured counts. Per-partition clones would
    // cost ≥ 3 × 6 extra matrices for the solve and ≥ 5 × 5 for the selinv
    // on this layout, and a zero output filled block by block 36 more.
    assert!(
        solve_allocs <= SOLVE_ALLOC_BUDGET,
        "d_pobtas allocated {solve_allocs} times (budget {SOLVE_ALLOC_BUDGET}) — \
         are reduced solution blocks being cloned per partition again?"
    );
    assert!(
        selinv_allocs <= SELINV_ALLOC_BUDGET,
        "d_pobtasi allocated {selinv_allocs} times (budget {SELINV_ALLOC_BUDGET}) — \
         are reduced sig_* blocks cloned per partition, or output blocks allocated and replaced?"
    );
}

// The measured steady-state counts on the layout above, with no headroom:
// the selected inverse assembles its output by moving the reduced and
// partition blocks, so a single extra block allocation fails the pin.
const SOLVE_ALLOC_BUDGET: usize = 63;
const SELINV_ALLOC_BUDGET: usize = 75;

#[test]
fn one_partition_d_pobtas_and_d_pobtasi_stay_within_sequential_budget() {
    let _serial = serial();
    // One partition is the sequential factor: on a warm caller's pack the
    // distributed entry points must cost what `pobtas_with` / `pobtasi_with`
    // cost on the shape of `warm_pobtas_with_and_pobtasi_with_stay_within_budget`.
    let (n, b, a) = (4, 64, 8);
    let m = test_matrix(n, b, a, 19);
    let rhs0 = test_rhs(m.dim(), 8);
    let pool = dalia_pool::ThreadPool::new(1);
    pool.install(|| {
        let factor = d_pobtaf(&m, &Partitioning::even(n, 1)).expect("factorizes");
        let mut pack = PackBuffer::new();
        let mut x = rhs0.clone();
        d_pobtas(&factor, &mut x, &mut pack);
        let _warm = d_pobtasi(&factor, &mut pack);

        let mut x = rhs0.clone();
        let solve = allocs_during(|| d_pobtas(&factor, &mut x, &mut pack));
        let selinv = allocs_during(|| {
            let _sel = d_pobtasi(&factor, &mut pack);
        });
        eprintln!("warm allocations at P = 1: d_pobtas = {solve}, d_pobtasi = {selinv}");
        assert!(solve <= POBTAS_ALLOC_BUDGET, "warm d_pobtas at P = 1 allocated {solve} times");
        assert!(selinv <= POBTASI_ALLOC_BUDGET, "warm d_pobtasi at P = 1 allocated {selinv} times");
    });
}

#[test]
fn warm_pobtaf_with_allocates_nothing() {
    use dalia_la::PackBuffer;
    use serinv::pobtaf_with;
    let _serial = serial();

    // (3, 64, 8) puts the inner kernels exactly at the packed-path threshold;
    // b = 130 is no multiple of any tier's micro-tile, so packing pads.
    for (n, b, a) in [(3, 64, 8), (4, 130, 3)] {
        let m = test_matrix(n, b, a, 9);
        let pool = dalia_pool::ThreadPool::new(1);
        pool.install(|| {
            // Warm the pack and produce factor storage to recycle.
            let mut pack = PackBuffer::new();
            let cold = pobtaf_with(&m, None, &mut pack).expect("factorizes");
            let mut storage = Some(cold.blocks);
            let allocs = allocs_during(|| {
                let warm = pobtaf_with(&m, storage.take(), &mut pack).expect("factorizes");
                storage = Some(warm.blocks);
            });
            assert_eq!(
                allocs, 0,
                "warm pobtaf_with allocated {allocs} times at (n,b,a) = ({n},{b},{a})"
            );
        });
    }
}

#[test]
fn warm_pobtas_with_and_pobtasi_with_stay_within_budget() {
    use dalia_la::PackBuffer;
    use serinv::{pobtaf_with, pobtas_with, pobtasi_with};
    let _serial = serial();

    // The serving solve and the streaming re-pin run these two on a warm
    // pack; b = 64 with 8 right-hand sides reaches the packed kernels.
    let (n, b, a) = (4, 64, 8);
    let m = test_matrix(n, b, a, 19);
    let rhs0 = test_rhs(m.dim(), 8);
    let pool = dalia_pool::ThreadPool::new(1);
    pool.install(|| {
        let mut pack = PackBuffer::new();
        let f = pobtaf_with(&m, None, &mut pack).expect("factorizes");
        let mut x = rhs0.clone();
        pobtas_with(&f, &mut x, &mut pack);
        let _warm = pobtasi_with(&f, &mut pack);

        let mut x = rhs0.clone();
        let solve = allocs_during(|| pobtas_with(&f, &mut x, &mut pack));
        let selinv = allocs_during(|| {
            let _sel = pobtasi_with(&f, &mut pack);
        });
        eprintln!("warm allocations: pobtas_with = {solve}, pobtasi_with = {selinv}");
        assert!(solve <= POBTAS_ALLOC_BUDGET, "warm pobtas_with allocated {solve} times");
        assert!(selinv <= POBTASI_ALLOC_BUDGET, "warm pobtasi_with allocated {selinv} times");
    });
}

// The steady-state counts of the per-column loops these sweeps replaced, on
// the shape above: the sweeps must not allocate more than they did.
const POBTAS_ALLOC_BUDGET: usize = 27;
const POBTASI_ALLOC_BUDGET: usize = 39;
