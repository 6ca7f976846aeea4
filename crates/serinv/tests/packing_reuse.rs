//! Bitwise packing wall: a warm BTA session — one reused `PackBuffer` and
//! factor storage recycled across simulated BFGS iterations — must be
//! **bit-identical** to the plain entry points, which pack into a transient
//! workspace and factor into fresh storage per call, across the `Q_p`/`Q_c`
//! factorization pair and at 1 and 4 pinned worker threads.
//!
//! A reused workspace can only change *where* a panel is packed, never *what*
//! it contains — `pack_panel` rewrites every element it hands the
//! micro-kernel — so every factor block, solve and selected-inverse output
//! must match bit for bit. Any drift means state leaked between calls.

use dalia_la::PackBuffer;
use serinv::testing::{test_matrix, test_rhs};
use serinv::{pobtaf, pobtaf_with, pobtas, pobtas_with, pobtasi, pobtasi_with};

/// b = 64 crosses the packed-path threshold (64³ ≥ the naive cutoff), so the
/// factorization and selected inversion run the cache-blocked engine.
const SHAPE: (usize, usize, usize) = (4, 64, 8);
const ITERS: u64 = 3;

/// Run a 3-iteration "BFGS" session: per iteration, assemble fresh `Q_p` /
/// `Q_c` values, factorize both, then solve and selected-invert against the
/// conditional factor. `warm` threads one reused pack through every call and
/// recycles the previous factors' storage; otherwise every call goes through
/// the plain entry points. Returns every output bit produced.
fn session(threads: usize, warm: bool) -> Vec<u64> {
    let (n, b, a) = SHAPE;
    dalia_pool::ThreadPool::new(threads).install(|| {
        let mut pack = PackBuffer::new();
        let mut fp_store = None;
        let mut fc_store = None;
        let mut bits = Vec::new();
        for iter in 0..ITERS {
            let qp = test_matrix(n, b, a, 100 + iter);
            let qc = test_matrix(n, b, a, 200 + iter);
            let mut rhs = test_rhs(qc.dim(), 8);
            let (fp, fc, sel) = if warm {
                let fp = pobtaf_with(&qp, fp_store.take(), &mut pack).expect("qp factorizes");
                let fc = pobtaf_with(&qc, fc_store.take(), &mut pack).expect("qc factorizes");
                pobtas_with(&fc, &mut rhs, &mut pack);
                let sel = pobtasi_with(&fc, &mut pack);
                (fp, fc, sel)
            } else {
                let fp = pobtaf(&qp).expect("qp factorizes");
                let fc = pobtaf(&qc).expect("qc factorizes");
                pobtas(&fc, &mut rhs);
                let sel = pobtasi(&fc);
                (fp, fc, sel)
            };
            for f in [&fp, &fc] {
                for d in &f.blocks.diag {
                    bits.extend(d.as_slice().iter().map(|v| v.to_bits()));
                }
                for s in &f.blocks.sub {
                    bits.extend(s.as_slice().iter().map(|v| v.to_bits()));
                }
                for c in &f.blocks.arrow {
                    bits.extend(c.as_slice().iter().map(|v| v.to_bits()));
                }
                bits.extend(f.blocks.tip.as_slice().iter().map(|v| v.to_bits()));
            }
            bits.extend(rhs.as_slice().iter().map(|v| v.to_bits()));
            bits.extend(sel.diagonal().iter().map(|v| v.to_bits()));
            fp_store = Some(fp.blocks);
            fc_store = Some(fc.blocks);
        }
        bits
    })
}

#[test]
fn warm_session_is_bitwise_identical_to_transient_packs() {
    for threads in [1usize, 4] {
        let transient = session(threads, false);
        let warm = session(threads, true);
        assert_eq!(transient.len(), warm.len());
        let drift = transient.iter().zip(&warm).position(|(t, w)| t != w);
        assert_eq!(
            drift, None,
            "reused-pack session drifted from transient packs at {threads} threads (first \
             differing output word: {drift:?})"
        );
    }
}

#[test]
fn warm_session_outputs_are_thread_count_invariant() {
    // The BTA kernels are bitwise deterministic across pool widths; a reused
    // session pack must preserve that (the parallel-gemm leaves pack into
    // their own thread-local workspaces).
    assert_eq!(
        session(1, true),
        session(4, true),
        "warm-session outputs changed with the worker thread count"
    );
}
