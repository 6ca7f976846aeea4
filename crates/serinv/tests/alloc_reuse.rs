//! Allocation-count pin for the distributed solve / selected-inverse passes.
//!
//! `d_pobtas` / `d_pobtasi` sit in the per-θ hot loop, so their reduced-system
//! coupling blocks must be shared across partitions, not cloned per partition
//! per call (the regression this test pins): the solve hoists one extraction
//! per separator (`sep_x` / tip) out of the parallel region, and the selected
//! inverse borrows the `sig_*` views straight from the reduced selected
//! inverse. This test counts heap allocations around steady-state calls on a
//! 1-thread pool (deterministic scheduling) and fails if the counts creep
//! back up to per-partition-clone territory.

// A counting global allocator requires implementing the unsafe `GlobalAlloc`
// trait; the implementation only bumps a counter and delegates to `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

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
    let mut rhs = rhs0.clone();
    pool.install(|| d_pobtas(&factor, &mut rhs));
    pool.install(|| d_pobtasi(&factor));

    let mut rhs_a = rhs0.clone();
    let solve_allocs = allocs_during(|| pool.install(|| d_pobtas(&factor, &mut rhs_a)));
    let selinv_allocs = allocs_during(|| {
        let _sel = pool.install(|| d_pobtasi(&factor));
    });

    // Steady-state calls are deterministic: a rerun allocates exactly as much.
    let mut rhs_b = rhs0.clone();
    let solve_again = allocs_during(|| pool.install(|| d_pobtas(&factor, &mut rhs_b)));
    let selinv_again = allocs_during(|| {
        let _sel = pool.install(|| d_pobtasi(&factor));
    });
    assert_eq!(solve_allocs, solve_again, "d_pobtas allocation count is nondeterministic");
    assert_eq!(selinv_allocs, selinv_again, "d_pobtasi allocation count is nondeterministic");
    eprintln!("steady-state allocations: d_pobtas = {solve_allocs}, d_pobtasi = {selinv_allocs}");

    // Absolute budgets, measured with the shared/borrowed reduced blocks and
    // set with less headroom than the per-partition clones would cost
    // (≥ 3 × 6 extra matrices for the solve, ≥ 5 × 5 for the selinv on this
    // layout). A regression to cloning blows straight through them.
    assert!(
        solve_allocs <= SOLVE_ALLOC_BUDGET,
        "d_pobtas allocated {solve_allocs} times (budget {SOLVE_ALLOC_BUDGET}) — \
         are reduced solution blocks being cloned per partition again?"
    );
    assert!(
        selinv_allocs <= SELINV_ALLOC_BUDGET,
        "d_pobtasi allocated {selinv_allocs} times (budget {SELINV_ALLOC_BUDGET}) — \
         are reduced sig_* blocks being cloned per partition again?"
    );
}

// Empirical steady-state counts on the layout above (87 / 173) plus ~10%
// headroom — tighter than the former per-partition clone overhead.
const SOLVE_ALLOC_BUDGET: usize = 95;
const SELINV_ALLOC_BUDGET: usize = 190;

#[test]
fn warm_solve_and_selinv_take_the_zero_repack_fast_path() {
    use dalia_la::PackBuffer;
    use serinv::{pobtaf_with, pobtas_with, pobtasi_with};
    let _serial = serial();

    // b = 64 puts the inner gemm/syrk calls exactly at the packed-path
    // threshold (64·8·64 and 64³ ≥ the naive-kernel cutoff), so the solve and
    // selected inversion actually fetch panels of the registered factor.
    let (n, b, a) = (3, 64, 8);
    let m = test_matrix(n, b, a, 9);
    let pool = dalia_pool::ThreadPool::new(1);

    pool.install(|| {
        let mut pack = PackBuffer::new();
        pack.enable_panel_reuse(true);
        let factor = pobtaf_with(&m, None, &mut pack).expect("factorizes");

        // Warm pass: populates the panel cache for every factor-block panel
        // the solve and selected inverse touch.
        let mut rhs = test_rhs(m.dim(), 8);
        pobtas_with(&factor, &mut rhs, &mut pack);
        let _ = pobtasi_with(&factor, &mut pack);
        let (h1, m1) = pack.panel_stats();
        assert!(m1 > 0, "warm-up should have packed factor panels");

        // Steady state on the unchanged factor: every eligible panel fetch
        // must be served from the cache — zero repacks.
        let mut rhs2 = test_rhs(m.dim(), 8);
        pobtas_with(&factor, &mut rhs2, &mut pack);
        let _ = pobtasi_with(&factor, &mut pack);
        let (h2, m2) = pack.panel_stats();
        assert_eq!(
            m2 - m1,
            0,
            "warm solve/selinv repacked {} panels of an unchanged factor",
            m2 - m1
        );
        assert!(h2 > h1, "warm solve/selinv should hit the panel cache");
    });
}
