//! Per-layer probes of a traced run: each times the public functions of one
//! crate at the workload's own shape.

use crate::stats;
use crate::workload::TARGETS_PER_REQUEST;
use dalia_core::{evaluate_gradient, InlaSession, SolverBackend};
use dalia_la::blas::{self, PackBuffer, Side, Trans, Triangle};
use dalia_la::{chol, Matrix};
use dalia_model::{CoregionalModel, ModelHyper};
use serinv::{BtaMatrix, InteriorSchedule, Partitioning, StreamPacks};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall time budget per probe; every probe runs at least [`MIN_REPS`] times.
const PROBE_BUDGET: Duration = Duration::from_millis(250);
const MIN_REPS: usize = 5;
/// Size of the gemm that gives the kernel ceiling.
const PEAK_N: usize = 512;

/// A named per-layer value with its unit.
pub type LayerMetric = (&'static str, f64, &'static str);

/// Median seconds of `call`, run until both [`MIN_REPS`] calls and
/// [`PROBE_BUDGET`] are reached. `prepare` restores inputs before each call
/// and is not timed.
fn probe<S>(mut prepare: impl FnMut() -> S, mut call: impl FnMut(S)) -> f64 {
    let start = Instant::now();
    let mut secs = Vec::new();
    while secs.len() < MIN_REPS || start.elapsed() < PROBE_BUDGET {
        let state = prepare();
        let t0 = Instant::now();
        call(state);
        secs.push(t0.elapsed().as_secs_f64());
    }
    stats::median(&secs).expect("probe ran at least once")
}

fn test_matrix(n: usize, salt: usize) -> Matrix {
    Matrix::from_fn(n, n, |i, j| {
        ((i * 31 + j * 17 + salt) % 41) as f64 / 41.0 - 0.5
    })
}

/// Symmetric positive definite `n × n` matrix (strictly diagonally dominant).
fn spd_matrix(n: usize) -> Matrix {
    Matrix::from_fn(n, n, |i, j| {
        if i == j {
            n as f64
        } else {
            ((i + j) % 7) as f64 / 14.0 - 0.2
        }
    })
}

/// Dense kernels at block size `b`, and the 512³ gemm ceiling, on one
/// worker: per-core rates, comparable with the sequential BTA kernels.
pub fn la(b: usize) -> Vec<LayerMetric> {
    let one = dalia_pool::ThreadPool::new(1);
    one.install(|| {
        let mut pack = PackBuffer::new();
        let gflops = |flops: u64, secs: f64| flops as f64 / secs / 1e9;
        let a = test_matrix(b, 3);
        let bm = test_matrix(b, 7);

        let mut c = Matrix::zeros(b, b);
        let gemm = probe(
            || (),
            |()| blas::gemm_with(&mut pack, Trans::No, Trans::Yes, -1.0, &a, &bm, 1.0, &mut c),
        );
        let spd = spd_matrix(b);
        let potrf = probe(
            || spd.clone(),
            |mut m| {
                chol::potrf_with(&mut pack, &mut m).expect("diagonally dominant matrix is SPD");
            },
        );
        let mut l = spd.clone();
        chol::potrf_with(&mut pack, &mut l).expect("diagonally dominant matrix is SPD");
        let trsm = probe(
            || a.clone(),
            |mut x| {
                blas::trsm_with(
                    &mut pack,
                    Side::Right,
                    Triangle::Lower,
                    Trans::Yes,
                    &l,
                    &mut x,
                )
            },
        );
        let syrk = probe(
            || (),
            |()| blas::syrk_lower_with(&mut pack, Trans::No, -1.0, &a, 1.0, &mut c),
        );
        let (pa, pb) = (test_matrix(PEAK_N, 5), test_matrix(PEAK_N, 11));
        let mut pc = Matrix::zeros(PEAK_N, PEAK_N);
        let peak = probe(
            || (),
            |()| blas::gemm_with(&mut pack, Trans::No, Trans::No, 1.0, &pa, &pb, 0.0, &mut pc),
        );
        let cube = (b as u64).pow(3);
        vec![
            (
                "la.gemm_gflops",
                gflops(blas::gemm_flops(b, b, b), gemm),
                "GF/s",
            ),
            (
                "la.potrf_gflops",
                gflops(chol::potrf_flops(b), potrf),
                "GF/s",
            ),
            ("la.trsm_gflops", gflops(cube, trsm), "GF/s"),
            ("la.syrk_gflops", gflops(cube, syrk), "GF/s"),
            (
                "la.gemm_peak_gflops",
                gflops(blas::gemm_flops(PEAK_N, PEAK_N, PEAK_N), peak),
                "GF/s",
            ),
        ]
    })
}

/// The leading `n` time blocks of `a`: the window before one more slice.
fn leading_blocks(a: &BtaMatrix, n: usize) -> BtaMatrix {
    BtaMatrix {
        n,
        b: a.b,
        a: a.a,
        diag: a.diag[..n].to_vec(),
        sub: a.sub[..n - 1].to_vec(),
        arrow: a.arrow[..n].to_vec(),
        tip: a.tip.clone(),
    }
}

/// BTA kernels on the workload's conditional precision `Q_c(θ₀)`, warm as a
/// solver session runs them. `peak_gflops` is the gemm ceiling of [`la`].
pub fn serinv(model: &CoregionalModel, hyper: &ModelHyper, peak_gflops: f64) -> Vec<LayerMetric> {
    let (qc, _) = model.assemble_qc_bta(hyper);
    let mut pack = PackBuffer::new();
    pack.enable_panel_reuse(true);
    let mut storage = None;
    let pobtaf = probe(
        || (),
        |()| {
            // A new θ rewrites the values, as the solver's assembly does.
            pack.invalidate_panels();
            let f = serinv::pobtaf_with(&qc, storage.take(), &mut pack).expect("Q_c(θ₀) is SPD");
            storage = Some(f.blocks);
        },
    );
    let factor = serinv::pobtaf_with(&qc, storage, &mut pack).expect("Q_c(θ₀) is SPD");

    let part = Partitioning::load_balanced(qc.n, 2, 1.6);
    let d_pobtaf = probe(
        || (),
        |()| {
            serinv::d_pobtaf(&qc, &part).expect("Q_c(θ₀) is SPD");
        },
    );
    // One served request's worth of right-hand sides.
    let rhs = Matrix::from_fn(qc.dim(), TARGETS_PER_REQUEST, |i, j| {
        ((i * 7 + j * 13) % 23) as f64 / 23.0
    });
    let pobtas = probe(
        || rhs.clone(),
        |mut x| serinv::pobtas_with(&factor, &mut x, &mut pack),
    );
    let pobtasi = probe(
        || (),
        |()| {
            serinv::pobtasi_with(&factor, &mut pack);
        },
    );
    let prefix = serinv::pobtaf(&leading_blocks(&qc, qc.n - 1)).expect("leading blocks are SPD");
    let mut packs = StreamPacks::new();
    let extend = probe(
        || prefix.clone(),
        |mut f| {
            packs.invalidate_panels();
            serinv::pobtaf_extend_scheduled(&mut f, &qc, &mut packs, InteriorSchedule::Stealable)
                .expect("Q_c(θ₀) is SPD");
        },
    );
    let gflops = qc.factorization_flops() as f64 / pobtaf / 1e9;
    vec![
        ("serinv.pobtaf_ms", pobtaf * 1e3, "ms"),
        ("serinv.pobtaf_gflops", gflops, "GF/s"),
        ("serinv.pobtaf_ceiling_frac", gflops / peak_gflops, "ratio"),
        ("serinv.d_pobtaf_ms", d_pobtaf * 1e3, "ms"),
        ("serinv.pobtas_ms", pobtas * 1e3, "ms"),
        ("serinv.pobtasi_ms", pobtasi * 1e3, "ms"),
        ("serinv.pobtaf_extend_ms", extend * 1e3, "ms"),
    ]
}

/// `Q_p` and `Q_c` assembly into warm BTA storage.
pub fn model(model: &CoregionalModel, hyper: &ModelHyper) -> Vec<LayerMetric> {
    let mut qp = model.assemble_qp_bta(hyper);
    let qp_s = probe(|| (), |()| model.assemble_qp_bta_into(hyper, &mut qp));
    let (mut qc, _) = model.assemble_qc_bta(hyper);
    let qc_s = probe(
        || (),
        |()| {
            model.assemble_qc_bta_into(hyper, &mut qc);
        },
    );
    vec![
        ("model.assemble_qp_ms", qp_s * 1e3, "ms"),
        ("model.assemble_qc_ms", qc_s * 1e3, "ms"),
    ]
}

/// The solver backend's factorization of `Q_p` and `Q_c`, and one objective
/// evaluation through the session.
pub fn solver(
    model: &Arc<CoregionalModel>,
    backend: SolverBackend,
    session: &InlaSession,
    theta0: &[f64],
) -> Vec<LayerMetric> {
    let hyper = ModelHyper::from_theta(model.dims.nv, theta0);
    let mut solver = backend.build(model);
    let factorize = probe(|| (), |()| solver.factorize(&hyper).expect("θ₀ factorizes"));
    let mut inner = Vec::new();
    let eval = probe(
        || (),
        |()| {
            let r = session.evaluate(theta0).expect("f(θ₀) evaluates");
            inner.push(r.inner_iterations as f64);
        },
    );
    vec![
        ("solver.factorize_ms", factorize * 1e3, "ms"),
        ("objective.eval_ms", eval * 1e3, "ms"),
        (
            "objective.inner_iters",
            inner.iter().sum::<f64>() / inner.len() as f64,
            "count",
        ),
    ]
}

/// One central-difference gradient (S1 fan-out) at θ₀: wall time on
/// `threads` pool workers, lane time summed over its evaluations, and the S1
/// efficiency against a one-worker pool.
pub fn gradient(session: &InlaSession, theta0: &[f64], threads: usize) -> Vec<LayerMetric> {
    const REPS: usize = 3;
    let mut wall = Vec::new();
    let mut lanes = Vec::new();
    for _ in 0..REPS {
        let t0 = Instant::now();
        let g = evaluate_gradient(session, theta0).expect("gradient at θ₀");
        wall.push(t0.elapsed().as_secs_f64());
        lanes.push(g.timers.total_seconds());
    }
    let one = dalia_pool::ThreadPool::new(1);
    let mut wall_one = Vec::new();
    for _ in 0..REPS - 1 {
        let t0 = Instant::now();
        one.install(|| evaluate_gradient(session, theta0))
            .expect("gradient at θ₀");
        wall_one.push(t0.elapsed().as_secs_f64());
    }
    let wall = stats::median(&wall).expect("reps > 0");
    let wall_one = stats::median(&wall_one).expect("reps > 0");
    vec![
        ("optimizer.gradient_ms", wall * 1e3, "ms"),
        (
            "optimizer.gradient_lane_ms",
            stats::median(&lanes).expect("reps > 0") * 1e3,
            "ms",
        ),
        (
            "optimizer.s1_efficiency",
            wall_one / (threads as f64 * wall),
            "ratio",
        ),
    ]
}
