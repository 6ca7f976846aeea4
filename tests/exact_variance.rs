//! Exact-variance wall: `VarianceMode::Exact` on a BTA snapshot reads the
//! kept selected inverse `Σ = Q_c⁻¹` (its diagonal blocks, arrow blocks and
//! tip) instead of solving. These tests hold it to the solve path, built here
//! from `PosteriorSnapshot::solve_many`, at 1e-10 relative across partition
//! counts P = 1, 2, 3 and `nv` = 1, 2, 3 with non-unit σ and λ ≠ 0. Targets
//! sit on the first, middle and last slice with non-zero covariates, so the
//! arrow (`2·a_fᵀ Σ_ft a_t`) and tip (`a_fᵀ Σ_ff a_f`) terms count. Both
//! snapshot paths are covered: `InlaResult::into_snapshot` and a streaming
//! window after one append and one retire. A tiny model is checked against a
//! dense inverse of `Q_c`.
//!
//! The second half pins `latent.sd` bitwise to `pobtasi(..).diagonal()` and
//! checks that a window and its snapshots share one `Σ`.

use dalia::core::{
    fixed_effect_summaries, BtaSigma, HyperMarginals, SelectedInverse, SnapshotFactor,
};
use dalia::la::{blas, chol};
use dalia::prelude::*;
use dalia::serinv::pobtasi;
use std::sync::Arc;

const NT: usize = 6;
const NR: usize = 2;

fn obs_at(nv: usize, t: usize) -> Vec<Observation> {
    let locs = [(0.2, 0.3), (0.7, 0.6), (0.45, 0.85), (0.85, 0.15)];
    let mut obs = Vec::new();
    for v in 0..nv {
        for (i, &(x, y)) in locs.iter().enumerate() {
            let z = ((i * 5 + t * 7 + v * 3) % 11) as f64 / 11.0 - 0.5;
            obs.push(Observation {
                var: v,
                t,
                loc: Point::new(x, y),
                covariates: vec![1.0, z],
                value: 0.3 * v as f64 - 0.1 * t as f64 + 0.8 * z + 0.2 * x * y,
            });
        }
    }
    obs
}

fn model(nv: usize, nt: usize) -> Arc<CoregionalModel> {
    let mesh = TriangleMesh::structured(Domain::unit_square(), 3, 3);
    let obs = (0..nt).flat_map(|t| obs_at(nv, t)).collect();
    Arc::new(CoregionalModel::new(&mesh, nt, 1.0, nv, NR, obs).unwrap())
}

/// Non-unit scales and non-zero couplings, so every Λ entry enters the
/// prediction rows.
fn hyper(nv: usize) -> ModelHyper {
    let mut h = ModelHyper::default_for(nv, 0.6, 2.0);
    h.sigmas = [1.7, 0.6, 2.3][..nv].to_vec();
    h.lambdas = [0.8, -0.5, 0.35][..nv * (nv - 1) / 2].to_vec();
    h
}

fn session(m: &Arc<CoregionalModel>, partitions: usize) -> InlaSession {
    InlaEngine::builder(m).settings(InlaSettings::dalia(partitions)).build().unwrap()
}

/// An `InlaResult` at `hyper` without running the optimizer: the latent
/// marginals come from the session exactly as a fit computes them.
fn result_at(s: &InlaSession, hyper: &ModelHyper) -> InlaResult {
    let theta = hyper.to_theta();
    let mean = s.evaluate(&theta).unwrap().mean;
    let latent = s.latent_marginals(hyper, mean).unwrap();
    let fixed_effects = fixed_effect_summaries(s.model(), &latent);
    InlaResult {
        hyper: HyperMarginals {
            covariance: Matrix::identity(theta.len()),
            sd: vec![1.0; theta.len()],
            mode: theta,
            clamped: 0,
        },
        hyper_mode: hyper.clone(),
        latent,
        fixed_effects,
        fobj_at_mode: 0.0,
        trace: Vec::new(),
        converged: true,
        total_seconds: 0.0,
        seconds_per_iteration: 0.0,
        timers: PhaseTimers::default(),
    }
}

/// Targets of every variable on the first, middle and last slice, with
/// non-zero covariates.
fn targets(nv: usize) -> Vec<PredictionTarget> {
    let mut out = Vec::new();
    for (k, t) in [0, NT / 2, NT - 1].into_iter().enumerate() {
        for v in 0..nv {
            let i = (k * nv + v) as f64;
            out.push(PredictionTarget {
                var: v,
                t,
                loc: Point::new(0.13 + 0.07 * i, 0.81 - 0.05 * i),
                covariates: vec![1.0 - 0.2 * i, 0.9 + 0.3 * i],
            });
        }
    }
    out
}

/// The solve path: `Z = Q_c⁻¹ Aᵀ` through the frozen factor, then
/// `sd_j = sqrt(max(a_jᵀ z_j, 0))`.
fn solve_oracle(snap: &PosteriorSnapshot, targets: &[PredictionTarget]) -> Vec<f64> {
    let design = snap.plan(targets).unwrap().design(snap.hyper_mode());
    let mut z = Matrix::zeros(snap.latent_dim(), design.nrows());
    for r in 0..design.nrows() {
        for (c, w) in design.row_iter(r) {
            z[(c, r)] = w;
        }
    }
    snap.solve_many(&mut z);
    (0..design.nrows())
        .map(|r| design.row_iter(r).map(|(c, w)| w * z.col(r)[c]).sum::<f64>().max(0.0).sqrt())
        .collect()
}

fn assert_rel_close(got: &[f64], want: &[f64], tol: f64, tag: &str) {
    assert_eq!(got.len(), want.len(), "{tag}: length mismatch");
    for (j, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g - w).abs() <= tol * w.abs(),
            "{tag}: target {j}: sd {g} vs {w} (rel {:.2e})",
            (g - w).abs() / w.abs()
        );
    }
}

fn assert_served_matches_solve(snap: &PosteriorSnapshot, nv: usize, tag: &str) {
    assert!(matches!(snap.selected_inverse(), SelectedInverse::Bta(_)), "{tag}: no kept Σ");
    let targets = targets(nv);
    let served = snap.predict_exact(&targets).unwrap();
    let oracle = solve_oracle(snap, &targets);
    assert_rel_close(&served.sd, &oracle, 1e-10, tag);
    // The plan entry point serves the same bits.
    let planned = snap.predict_planned(&snap.plan(&targets).unwrap(), VarianceMode::Exact);
    for (a, b) in planned.sd.iter().zip(&served.sd) {
        assert_eq!(a.to_bits(), b.to_bits(), "{tag}: predict_planned vs predict_exact");
    }
}

#[test]
fn served_exact_sd_matches_the_solve_path() {
    for nv in 1..=3 {
        let m = model(nv, NT);
        let h = hyper(nv);
        for partitions in 1..=3 {
            let s = session(&m, partitions);
            let result = result_at(&s, &h);

            let snap = s.snapshot(&result).unwrap();
            assert_served_matches_solve(&snap, nv, &format!("into_snapshot nv={nv} P={partitions}"));

            let mut w = s.streaming_window(&result).unwrap();
            w.append_slices(1, obs_at(nv, NT)).unwrap();
            w.retire_slices(1).unwrap();
            assert_eq!(w.nt(), NT);
            let snap = w.snapshot().unwrap();
            assert_served_matches_solve(&snap, nv, &format!("window nv={nv} P={partitions}"));
        }
    }
}

#[test]
fn tiny_model_exact_sd_matches_the_dense_inverse() {
    let (nv, nt) = (2, 3);
    let m = model(nv, nt);
    let h = hyper(nv);
    let s = session(&m, 1);
    let snap = s.snapshot(&result_at(&s, &h)).unwrap();

    let (qc, _) = m.assemble_qc_bta(&h);
    let sigma = chol::spd_inverse(&qc.to_dense()).unwrap();
    let targets: Vec<PredictionTarget> =
        targets(nv).into_iter().map(|t| PredictionTarget { t: t.t.min(nt - 1), ..t }).collect();
    let a = m.prediction_design(&h, &targets).unwrap().to_dense();
    let asat = blas::matmul(&blas::matmul(&a, &sigma), &a.transpose());
    let truth: Vec<f64> = (0..targets.len()).map(|j| asat[(j, j)].sqrt()).collect();

    let served = snap.predict_exact(&targets).unwrap();
    assert_rel_close(&served.sd, &truth, 1e-10, "dense inverse");
}

fn assert_bits_eq(a: &[f64], b: &[f64], tag: &str) {
    assert_eq!(a.len(), b.len(), "{tag}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{tag}: drift at index {i}: {x} vs {y}");
    }
}

/// `sqrt(max(v, 0))` of `pobtasi(..).diagonal()` on the snapshot's factor: the
/// marginal sds as they were computed before `Σ` was kept.
fn sd_from_pobtasi(snap: &PosteriorSnapshot) -> (Vec<f64>, Vec<f64>) {
    let SnapshotFactor::Bta(f) = snap.factor() else { panic!("BTA snapshot expected") };
    let vars = pobtasi(f).diagonal();
    let sd = vars.iter().map(|v| v.max(0.0).sqrt()).collect();
    (vars, sd)
}

#[test]
fn latent_sd_keeps_its_bits_from_fit_snapshot_and_window() {
    let m = model(1, NT);
    let theta0 = hyper(1).to_theta();
    let s = InlaEngine::builder(&m).settings(InlaSettings::dalia(1)).max_iter(2).build().unwrap();
    let result = s.run(&theta0).unwrap();
    let fit_sd = result.latent.sd.clone();

    let snap = s.snapshot(&result).unwrap();
    let (vars, sd) = sd_from_pobtasi(&snap);
    assert_bits_eq(&fit_sd, &sd, "fit");
    assert_bits_eq(&snap.latent().sd, &sd, "into_snapshot");
    assert_bits_eq(&snap.selected_inverse().diagonal(), &vars, "into_snapshot Σ diagonal");

    for partitions in [1, 2] {
        let s = session(&m, partitions);
        let mut w = s.streaming_window(&result).unwrap();
        w.append_slices(1, obs_at(1, NT)).unwrap();
        let snap = w.snapshot().unwrap();
        let (vars, sd) = sd_from_pobtasi(&snap);
        let tag = format!("append P={partitions}");
        assert_bits_eq(&snap.latent().sd, &sd, &tag);
        assert_bits_eq(&snap.selected_inverse().diagonal(), &vars, &tag);

        w.retire_slices(1).unwrap();
        let snap = w.snapshot().unwrap();
        let (vars, sd) = sd_from_pobtasi(&snap);
        let tag = format!("retire P={partitions}");
        assert_bits_eq(&snap.latent().sd, &sd, &tag);
        assert_bits_eq(&snap.selected_inverse().diagonal(), &vars, &tag);
    }
}

fn kept(sigma: &SelectedInverse) -> &Arc<BtaSigma> {
    match sigma {
        SelectedInverse::Bta(s) => s,
        SelectedInverse::Diagonal(_) => panic!("BTA selected inverse expected"),
    }
}

#[test]
fn window_and_its_snapshots_share_one_sigma() {
    let m = model(2, NT);
    let h = hyper(2);
    let s = session(&m, 2);
    let mut w = s.streaming_window(&result_at(&s, &h)).unwrap();
    w.append_slices(1, obs_at(2, NT)).unwrap();
    let a = w.snapshot().unwrap();
    let b = w.snapshot().unwrap();
    let old = kept(a.selected_inverse());
    assert!(Arc::ptr_eq(old, kept(b.selected_inverse())));
    // The window holds Σ beside its two snapshots until the next update.
    assert_eq!(Arc::strong_count(old), 3);
    // An update drops the window's hold; the old snapshots keep theirs.
    w.retire_slices(1).unwrap();
    assert_eq!(Arc::strong_count(old), 2);
    let c = w.snapshot().unwrap();
    assert!(!Arc::ptr_eq(kept(c.selected_inverse()), old));
    drop(b);
    assert_eq!(Arc::strong_count(old), 1);
    let d = w.snapshot().unwrap();
    assert!(Arc::ptr_eq(kept(c.selected_inverse()), kept(d.selected_inverse())));
}
