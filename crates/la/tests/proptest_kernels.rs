//! Parity suite: the cache-blocked, packed level-3 kernels and the blocked
//! Cholesky must match the retained naive reference kernels to 1e-12 across
//! random shapes, transposes, alpha/beta prefactors and degenerate dimensions
//! (0, 1, and sizes straddling the micro-tile and panel boundaries).

use dalia_la::blas::{self, reference, KernelTier, Side, Trans, Triangle};
use dalia_la::{chol, Matrix};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::sync::{Mutex, MutexGuard};

/// The kernel tier is process-global and [`forced_dispatch_parity_wall`]
/// switches it, while the harness runs this binary's tests on concurrent
/// threads: every test body holds this lock, so each one runs on the entry
/// tier (the one `DALIA_KERNEL_TIER` selects) and the wall never switches
/// tiers under another test. The proptest bodies take it per case; their
/// strategies only build inputs, which both sides of each comparison share.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A test that panicked while holding the lock leaves nothing to repair:
    // the guarded value is `()`.
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn rand_matrix(rng: &mut TestRng, m: usize, n: usize) -> Matrix {
    Matrix::from_fn(m, n, |_, _| rng.uniform_f64(-1.0, 1.0))
}

fn rand_trans(rng: &mut TestRng) -> Trans {
    if rng.uniform_usize(0, 2) == 0 {
        Trans::No
    } else {
        Trans::Yes
    }
}

/// Well-conditioned lower-triangular matrix with unit-order entries.
fn rand_lower(rng: &mut TestRng, n: usize) -> Matrix {
    let mut l = rand_matrix(rng, n, n);
    for j in 0..n {
        for i in 0..j {
            l[(i, j)] = 0.0;
        }
        l[(j, j)] = 1.5 + l[(j, j)].abs();
    }
    l
}

/// Random SPD matrix (scaled Gram matrix plus a diagonal shift).
fn rand_spd(rng: &mut TestRng, n: usize) -> Matrix {
    let b = rand_matrix(rng, n, n);
    let mut a = blas::matmul(&b, &b.transpose());
    a.scale(1.0 / (n.max(1) as f64));
    for i in 0..n {
        a[(i, i)] += 2.0;
    }
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gemm_blocked_matches_reference(case in Just(()).prop_perturb(|_, mut rng| {
        let m = rng.uniform_usize(0, 70);
        let n = rng.uniform_usize(0, 70);
        let k = rng.uniform_usize(0, 70);
        let ta = rand_trans(&mut rng);
        let tb = rand_trans(&mut rng);
        let alpha = rng.uniform_f64(-2.0, 2.0);
        let beta = rng.uniform_f64(-2.0, 2.0);
        let a = match ta {
            Trans::No => rand_matrix(&mut rng, m, k),
            Trans::Yes => rand_matrix(&mut rng, k, m),
        };
        let b = match tb {
            Trans::No => rand_matrix(&mut rng, k, n),
            Trans::Yes => rand_matrix(&mut rng, n, k),
        };
        let c = rand_matrix(&mut rng, m, n);
        (ta, tb, alpha, beta, a, b, c)
    })) {
        let _serial = serial();
        let (ta, tb, alpha, beta, a, b, c0) = case;
        let mut c_blk = c0.clone();
        blas::gemm(ta, tb, alpha, &a, &b, beta, &mut c_blk);
        let mut c_ref = c0;
        reference::gemm(ta, tb, alpha, &a, &b, beta, &mut c_ref);
        prop_assert!(
            c_blk.max_abs_diff(&c_ref) < 1e-12,
            "gemm mismatch {:?}/{:?} shape {:?}: {}",
            ta, tb, c_blk.shape(), c_blk.max_abs_diff(&c_ref)
        );
    }

    #[test]
    fn syrk_blocked_matches_reference(case in Just(()).prop_perturb(|_, mut rng| {
        let n = rng.uniform_usize(0, 90);
        let k = rng.uniform_usize(0, 70);
        let trans = rand_trans(&mut rng);
        let alpha = rng.uniform_f64(-2.0, 2.0);
        let beta = rng.uniform_f64(-2.0, 2.0);
        let a = match trans {
            Trans::No => rand_matrix(&mut rng, n, k),
            Trans::Yes => rand_matrix(&mut rng, k, n),
        };
        let c = rand_matrix(&mut rng, n, n);
        let full = rng.uniform_usize(0, 2) == 0;
        (trans, alpha, beta, a, c, full)
    })) {
        let _serial = serial();
        let (trans, alpha, beta, a, c0, full) = case;
        let mut c_blk = c0.clone();
        let mut c_ref = c0;
        if full {
            blas::syrk_full(trans, alpha, &a, beta, &mut c_blk);
            reference::syrk_full(trans, alpha, &a, beta, &mut c_ref);
        } else {
            blas::syrk_lower(trans, alpha, &a, beta, &mut c_blk);
            reference::syrk_lower(trans, alpha, &a, beta, &mut c_ref);
        }
        // Comparing full matrices also proves the lower-only variant left the
        // strict upper triangle untouched.
        prop_assert!(
            c_blk.max_abs_diff(&c_ref) < 1e-12,
            "syrk mismatch {:?} n={} full={}: {}",
            trans, c_blk.nrows(), full, c_blk.max_abs_diff(&c_ref)
        );
    }

    #[test]
    fn trsm_blocked_matches_reference(case in Just(()).prop_perturb(|_, mut rng| {
        let n = rng.uniform_usize(0, 80);
        let nrhs = rng.uniform_usize(0, 60);
        let side = if rng.uniform_usize(0, 2) == 0 { Side::Left } else { Side::Right };
        let trans = rand_trans(&mut rng);
        let l = rand_lower(&mut rng, n);
        let b = match side {
            Side::Left => rand_matrix(&mut rng, n, nrhs),
            Side::Right => rand_matrix(&mut rng, nrhs, n),
        };
        (side, trans, l, b)
    })) {
        let _serial = serial();
        let (side, trans, l, b0) = case;
        let mut b_blk = b0.clone();
        blas::trsm(side, Triangle::Lower, trans, &l, &mut b_blk);
        let mut b_ref = b0;
        reference::trsm(side, Triangle::Lower, trans, &l, &mut b_ref);
        prop_assert!(
            b_blk.max_abs_diff(&b_ref) < 1e-12,
            "trsm mismatch {:?}/{:?} n={}: {}",
            side, trans, l.nrows(), b_blk.max_abs_diff(&b_ref)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn potrf_blocked_matches_reference(case in Just(()).prop_perturb(|_, mut rng| {
        let n = rng.uniform_usize(0, 150);
        rand_spd(&mut rng, n)
    })) {
        let _serial = serial();
        let mut a_blk = case.clone();
        let mut a_ref = case;
        chol::potrf(&mut a_blk).unwrap();
        chol::potrf_reference(&mut a_ref).unwrap();
        prop_assert!(
            a_blk.max_abs_diff(&a_ref) < 1e-12,
            "potrf mismatch n={}: {}",
            a_blk.nrows(), a_blk.max_abs_diff(&a_ref)
        );
    }

    #[test]
    fn potrf_blocked_rejects_indefinite_like_reference(case in Just(()).prop_perturb(|_, mut rng| {
        let n = rng.uniform_usize(2, 140);
        let bad = rng.uniform_usize(0, n);
        let mut a = rand_spd(&mut rng, n);
        a[(bad, bad)] = -5.0;
        a
    })) {
        let _serial = serial();
        let mut a_blk = case.clone();
        let mut a_ref = case;
        prop_assert!(chol::potrf(&mut a_blk).is_err());
        prop_assert!(chol::potrf_reference(&mut a_ref).is_err());
    }
}

/// Forced-dispatch parity wall: the full level-3 suite (gemm / syrk / trsm /
/// potrf, including degenerate and tile-edge dimensions) must match the
/// reference loops to 1e-12 under **every** kernel tier this host supports.
/// `blas::set_kernel_tier` forces each tier in turn — so CI runs under
/// `DALIA_KERNEL_TIER=portable` and `avx2` exercise the same wall through the
/// env override too — and unsupported tiers self-skip with a logged line.
/// The entry tier is restored afterwards.
#[test]
fn forced_dispatch_parity_wall() {
    let _serial = serial();
    let entry_tier = blas::kernel_tier();
    for tier in KernelTier::ALL {
        if !blas::set_kernel_tier(tier) {
            println!("skipping {} parity wall: tier not supported on this host", tier.name());
            continue;
        }
        assert_eq!(blas::kernel_tier(), tier);
        let mut rng = TestRng::deterministic(0x5125_0000 + tier as u64);
        // Dimensions straddling both micro-tile shapes (8×4 and 16×8), the
        // 64-wide triangular panel boundary, and the packed-path threshold.
        for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 33, 64, 65, 96, 130] {
            let k = 65 + (n % 3);
            // gemm, all four transpose combinations.
            for (ta, tb) in
                [(Trans::No, Trans::No), (Trans::No, Trans::Yes), (Trans::Yes, Trans::No), (Trans::Yes, Trans::Yes)]
            {
                let a = match ta {
                    Trans::No => rand_matrix(&mut rng, n, k),
                    Trans::Yes => rand_matrix(&mut rng, k, n),
                };
                let b = match tb {
                    Trans::No => rand_matrix(&mut rng, k, n.max(1)),
                    Trans::Yes => rand_matrix(&mut rng, n.max(1), k),
                };
                let c0 = rand_matrix(&mut rng, n, n.max(1));
                let mut c_blk = c0.clone();
                blas::gemm(ta, tb, 1.1, &a, &b, -0.3, &mut c_blk);
                let mut c_ref = c0;
                reference::gemm(ta, tb, 1.1, &a, &b, -0.3, &mut c_ref);
                assert!(
                    c_blk.max_abs_diff(&c_ref) < 1e-12,
                    "gemm tier={} {ta:?}/{tb:?} n={n}",
                    tier.name()
                );
            }

            // syrk, lower and full.
            let s = rand_matrix(&mut rng, n, k);
            let c0 = rand_matrix(&mut rng, n, n);
            let mut c_blk = c0.clone();
            let mut c_ref = c0.clone();
            blas::syrk_lower(Trans::No, -0.9, &s, 0.7, &mut c_blk);
            reference::syrk_lower(Trans::No, -0.9, &s, 0.7, &mut c_ref);
            assert!(c_blk.max_abs_diff(&c_ref) < 1e-12, "syrk_lower tier={} n={n}", tier.name());
            let mut f_blk = c0.clone();
            let mut f_ref = c0;
            blas::syrk_full(Trans::Yes, 1.2, &s.transpose(), -0.4, &mut f_blk);
            reference::syrk_full(Trans::Yes, 1.2, &s.transpose(), -0.4, &mut f_ref);
            assert!(f_blk.max_abs_diff(&f_ref) < 1e-12, "syrk_full tier={} n={n}", tier.name());

            // trsm, all side/trans combinations on the lower triangle.
            let l = rand_lower(&mut rng, n);
            for (side, trans) in [
                (Side::Left, Trans::No),
                (Side::Left, Trans::Yes),
                (Side::Right, Trans::No),
                (Side::Right, Trans::Yes),
            ] {
                let b0 = match side {
                    Side::Left => rand_matrix(&mut rng, n, k),
                    Side::Right => rand_matrix(&mut rng, k, n),
                };
                let mut b_blk = b0.clone();
                blas::trsm(side, Triangle::Lower, trans, &l, &mut b_blk);
                let mut b_ref = b0;
                reference::trsm(side, Triangle::Lower, trans, &l, &mut b_ref);
                assert!(
                    b_blk.max_abs_diff(&b_ref) < 1e-12,
                    "trsm tier={} {side:?}/{trans:?} n={n}",
                    tier.name()
                );
            }

            // potrf across the panel boundary.
            let spd = rand_spd(&mut rng, n);
            let mut p_blk = spd.clone();
            let mut p_ref = spd;
            chol::potrf(&mut p_blk).unwrap();
            chol::potrf_reference(&mut p_ref).unwrap();
            assert!(p_blk.max_abs_diff(&p_ref) < 1e-12, "potrf tier={} n={n}", tier.name());
        }
    }
    assert!(blas::set_kernel_tier(entry_tier), "restoring the entry tier cannot fail");
}

/// Deterministic sweep of the dimensions where tile and panel edge handling
/// changes: 0, 1, the 8×4 micro-tile edges, and the 64-wide panel boundary.
#[test]
fn tile_and_panel_boundary_parity() {
    let _serial = serial();
    let mut rng = TestRng::deterministic(0xDA11A);
    for n in [0usize, 1, 3, 7, 8, 9, 31, 33, 63, 64, 65, 96] {
        // gemm at a boundary-straddling shape.
        let a = rand_matrix(&mut rng, n, 65);
        let b = rand_matrix(&mut rng, 65, n.max(1));
        let c0 = rand_matrix(&mut rng, n, n.max(1));
        let mut c_blk = c0.clone();
        blas::gemm(Trans::No, Trans::No, 1.1, &a, &b, -0.3, &mut c_blk);
        let mut c_ref = c0;
        reference::gemm(Trans::No, Trans::No, 1.1, &a, &b, -0.3, &mut c_ref);
        assert!(c_blk.max_abs_diff(&c_ref) < 1e-12, "gemm n={n}");

        // potrf across the panel boundary.
        let spd = rand_spd(&mut rng, n);
        let mut p_blk = spd.clone();
        let mut p_ref = spd;
        chol::potrf(&mut p_blk).unwrap();
        chol::potrf_reference(&mut p_ref).unwrap();
        assert!(p_blk.max_abs_diff(&p_ref) < 1e-12, "potrf n={n}");

        // trsm (the factorization hot path shape) at the same sizes.
        let l = rand_lower(&mut rng, n);
        let b0 = rand_matrix(&mut rng, 65, n);
        let mut b_blk = b0.clone();
        blas::trsm(Side::Right, Triangle::Lower, Trans::Yes, &l, &mut b_blk);
        let mut b_ref = b0;
        reference::trsm(Side::Right, Triangle::Lower, Trans::Yes, &l, &mut b_ref);
        assert!(b_blk.max_abs_diff(&b_ref) < 1e-12, "trsm n={n}");
    }
}
