//! Analytic cluster performance model.
//!
//! The paper's scaling experiments ran on up to 496 GH200 superchips of the
//! Alps supercomputer, with R-INLA baselines on a Sapphire-Rapids Xeon node of
//! the Fritz machine. Neither is available in this reproduction, so the
//! benchmark harnesses combine *measured* small-scale runs of the real Rust
//! algorithms with this analytic model evaluated at paper scale. The model is
//! deliberately simple — roofline-style kernel times plus latency/bandwidth
//! communication terms driven by the exact block dimensions and partition
//! layout of the algorithms — because the quantities of interest (who wins,
//! speedup factors, scaling knees, strategy switchovers) are ratios of work
//! and communication, not absolute hardware numbers.

use crate::alloc::{allocate, AllocationInput, StrategyAllocation};
use serinv::Partitioning;

/// Hardware characteristics of one device (GPU or CPU socket group).
#[derive(Clone, Debug)]
pub struct HardwareProfile {
    /// Human-readable name.
    pub name: &'static str,
    /// Effective dense FP64 throughput (flop/s) for the block sizes at hand.
    pub flops: f64,
    /// Effective memory bandwidth (bytes/s).
    pub mem_bw: f64,
    /// Per-message network latency (s).
    pub net_latency: f64,
    /// Network bandwidth per link (bytes/s).
    pub net_bandwidth: f64,
    /// Usable device memory (bytes).
    pub mem_capacity: f64,
    /// Fixed per-objective-function-evaluation overhead (s): kernel launches,
    /// Python/framework overhead in the original, assembly of small terms.
    pub per_eval_overhead: f64,
}

/// NVIDIA GH200 superchip (Hopper GPU + Grace CPU) as deployed on Alps.
pub fn gh200() -> HardwareProfile {
    HardwareProfile {
        name: "GH200",
        // ~15 Tflop/s effective FP64 on mid-sized dense blocks (peak 67):
        // block kernels, framework overhead and non-GEMM fractions included.
        flops: 1.5e13,
        mem_bw: 3.0e12,
        net_latency: 5.0e-6,
        net_bandwidth: 1.0e11,
        mem_capacity: 90.0e9,
        per_eval_overhead: 0.3,
    }
}

/// Dual-socket Intel Sapphire Rapids node (Fritz, 2 TB partition) running the
/// shared-memory R-INLA/PARDISO baseline with 8 threads per solver instance.
pub fn xeon_fritz() -> HardwareProfile {
    HardwareProfile {
        name: "Xeon-8470",
        // ~8 cores per PARDISO instance; sparse supernodal kernels reach a
        // few hundred Gflop/s on this class of matrices.
        flops: 3.0e11,
        mem_bw: 1.2e11,
        net_latency: 1.0e-6,
        net_bandwidth: 2.0e10,
        mem_capacity: 2.0e12,
        per_eval_overhead: 0.2,
    }
}

/// Block dimensions of a BTA system.
#[derive(Clone, Copy, Debug)]
pub struct BtaDims {
    /// Number of diagonal blocks (time steps).
    pub n: usize,
    /// Diagonal block size (`n_v · n_s`).
    pub b: usize,
    /// Arrow tip size (`n_v · n_r`).
    pub a: usize,
}

impl BtaDims {
    /// Total matrix dimension.
    pub fn dim(&self) -> usize {
        self.n * self.b + self.a
    }

    /// Memory footprint (bytes) of the block-dense BTA representation (the
    /// factorization is performed in place, so this is the quantity that must
    /// fit on a single accelerator — Sec. IV-C).
    pub fn footprint_bytes(&self) -> f64 {
        (self.n * self.b * self.b
            + self.n.saturating_sub(1) * self.b * self.b
            + self.n * self.a * self.b
            + self.a * self.a) as f64
            * 8.0
    }
}

/// Flop count of a sequential BTA Cholesky factorization.
pub fn bta_factor_flops(d: &BtaDims) -> f64 {
    let (n, b, a) = (d.n as f64, d.b as f64, d.a as f64);
    n * (b * b * b / 3.0 + 2.0 * b * b * b + 2.0 * a * b * b + a * a * b) + a * a * a / 3.0
}

/// Flop count of a BTA triangular solve with `nrhs` right-hand sides.
pub fn bta_solve_flops(d: &BtaDims, nrhs: usize) -> f64 {
    let (n, b, a) = (d.n as f64, d.b as f64, d.a as f64);
    2.0 * nrhs as f64 * (n * (2.0 * b * b + 2.0 * a * b) + a * a)
}

/// Flop count of a BTA selected inversion.
pub fn bta_selinv_flops(d: &BtaDims) -> f64 {
    let (n, b, a) = (d.n as f64, d.b as f64, d.a as f64);
    n * (6.0 * b * b * b + 4.0 * a * b * b + 2.0 * a * a * b) + 2.0 * a * a * a / 3.0
}

/// Flop count of a *general* sparse Cholesky factorization of the same system
/// under a fill-reducing ordering (the PARDISO path used by R-INLA). Banded
/// fill of width ≈ 2b plus the dense arrow columns, with an empirical fill
/// overhead factor representing the irregular-sparsity penalty.
pub fn sparse_chol_flops(d: &BtaDims) -> f64 {
    let (n, b, a) = (d.n as f64, d.b as f64, d.a as f64);
    let fill_overhead = 1.5;
    fill_overhead * (n * b * (2.0 * b) * (2.0 * b) + a * a * (n * b) + a * a * a / 3.0)
}

/// Time for one dense-kernel-dominated task of `flops` floating point
/// operations and `bytes` of memory traffic on `hw` (roofline max).
pub fn kernel_time(hw: &HardwareProfile, flops: f64, bytes: f64) -> f64 {
    (flops / hw.flops).max(bytes / hw.mem_bw)
}

/// Time of a message of `bytes` between two devices.
pub fn message_time(hw: &HardwareProfile, bytes: f64) -> f64 {
    hw.net_latency + bytes / hw.net_bandwidth
}

/// Runtime of the *distributed* BTA factorization over `p` partitions with
/// load-balancing factor `lb` (Fig. 5 microbenchmark model).
pub fn d_bta_factor_time(d: &BtaDims, p: usize, lb: f64, hw: &HardwareProfile) -> f64 {
    if p <= 1 {
        return kernel_time(hw, bta_factor_flops(d), d.footprint_bytes());
    }
    let part = Partitioning::load_balanced(d.n, p, lb);
    let b = d.b as f64;
    let a = d.a as f64;
    // Per-column work: boundary partitions follow the sequential recurrence;
    // interior partitions carry the extra left-separator coupling (~3 extra
    // b³-level operations per column) — the load imbalance the paper
    // mitigates with lb > 1.
    let col_flops_boundary = b * b * b / 3.0 + 2.0 * b * b * b + 2.0 * a * b * b + a * a * b;
    let col_flops_interior = col_flops_boundary + 3.0 * b * b * b + 2.0 * a * b * b;
    let mut max_time: f64 = 0.0;
    for q in 0..p {
        let (s, e) = part.interior(q);
        let cols = (e - s) as f64;
        let per_col = if q == 0 || q == p - 1 { col_flops_boundary } else { col_flops_interior };
        let flops = cols * per_col;
        let bytes = cols * (2.0 * b * b + a * b) * 8.0;
        max_time = max_time.max(kernel_time(hw, flops, bytes));
    }
    // Reduced system: (p-1) blocks, factorized on one device.
    let reduced = BtaDims { n: (p - 1).max(1), b: d.b, a: d.a };
    let reduced_time = kernel_time(hw, bta_factor_flops(&reduced), reduced.footprint_bytes());
    // Communication: every partition ships its Schur contributions
    // (≈ 3 b² + 2 a b + a² values) to the reduced solve and receives the
    // separator factors back.
    let schur_bytes = (3.0 * b * b + 2.0 * a * b + a * a) * 8.0;
    let comm_time = 2.0 * message_time(hw, schur_bytes) * (p as f64).log2().max(1.0);
    max_time + reduced_time + comm_time
}

/// Runtime of the distributed selected inversion (same partition structure,
/// roughly 2–3× the factorization work per column).
pub fn d_bta_selinv_time(d: &BtaDims, p: usize, lb: f64, hw: &HardwareProfile) -> f64 {
    2.2 * d_bta_factor_time(d, p, lb, hw)
}

/// Runtime of the distributed triangular solve (the paper's `PPOBTAS`):
/// an order of magnitude cheaper than factorization, with a latency-dominated
/// reduced phase that limits its parallel efficiency (Fig. 5 shows ~32%).
pub fn d_bta_solve_time(d: &BtaDims, p: usize, lb: f64, hw: &HardwareProfile, nrhs: usize) -> f64 {
    if p <= 1 {
        return kernel_time(hw, bta_solve_flops(d, nrhs), d.footprint_bytes());
    }
    let part = Partitioning::load_balanced(d.n, p, lb);
    let b = d.b as f64;
    let a = d.a as f64;
    let mut max_time: f64 = 0.0;
    for q in 0..p {
        let (s, e) = part.interior(q);
        let cols = (e - s) as f64;
        let flops = 2.0 * nrhs as f64 * cols * (3.0 * b * b + 2.0 * a * b);
        let bytes = cols * (2.0 * b * b + a * b) * 8.0;
        max_time = max_time.max(kernel_time(hw, flops, bytes));
    }
    let reduced = BtaDims { n: (p - 1).max(1), b: d.b, a: d.a };
    let reduced_time = kernel_time(
        hw,
        bta_solve_flops(&reduced, nrhs),
        reduced.footprint_bytes(),
    );
    // The forward and backward sweeps serialize 2·P boundary exchanges, which
    // is what limits PPOBTAS parallel efficiency (Fig. 5).
    let comm = 2.0 * message_time(hw, b * b * 8.0) * p as f64 + 4.0 * hw.net_latency * p as f64;
    max_time + reduced_time + comm
}

/// Model dimensions of a (possibly multivariate) spatio-temporal INLA model.
#[derive(Clone, Copy, Debug)]
pub struct ModelDims {
    /// Number of response variables (univariate processes).
    pub nv: usize,
    /// Spatial mesh size per process.
    pub ns: usize,
    /// Number of time steps.
    pub nt: usize,
    /// Number of fixed effects per process.
    pub nr: usize,
    /// Number of hyperparameters.
    pub dim_theta: usize,
}

impl ModelDims {
    /// Univariate spatio-temporal model (4 hyperparameters: 3 field + 1 noise).
    pub fn univariate(ns: usize, nt: usize, nr: usize) -> Self {
        Self { nv: 1, ns, nt, nr, dim_theta: 4 }
    }

    /// Trivariate coregional model (15 hyperparameters as in the paper).
    pub fn trivariate(ns: usize, nt: usize, nr: usize) -> Self {
        Self { nv: 3, ns, nt, nr, dim_theta: 15 }
    }

    /// Block dimensions of the conditional precision matrix.
    pub fn bta_dims(&self) -> BtaDims {
        BtaDims { n: self.nt, b: self.nv * self.ns, a: self.nv * self.nr }
    }

    /// Total latent dimension `N = nv(ns·nt + nr)`.
    pub fn latent_dim(&self) -> usize {
        self.nv * (self.ns * self.nt + self.nr)
    }

    /// Parallel objective-function evaluations per BFGS iteration.
    pub fn n_feval(&self) -> usize {
        2 * self.dim_theta + 1
    }
}

/// Breakdown of one modeled INLA iteration.
#[derive(Clone, Debug)]
pub struct IterationCost {
    /// Total wall-clock seconds per BFGS iteration.
    pub total: f64,
    /// Seconds spent in the structured solver (factorizations + solves).
    pub solver: f64,
    /// Seconds spent assembling precision matrices.
    pub assembly: f64,
    /// Seconds spent in communication.
    pub comm: f64,
    /// Strategy allocation used.
    pub allocation: StrategyAllocation,
}

/// Modeled wall-clock time of one DALIA BFGS iteration on `devices` GH200-like
/// devices.
pub fn dalia_iteration_time(dims: &ModelDims, devices: usize, hw: &HardwareProfile) -> IterationCost {
    let bta = dims.bta_dims();
    let input = AllocationInput {
        n_feval: dims.n_feval(),
        model_bytes: bta.footprint_bytes(),
        device_bytes: hw.mem_capacity,
        nt: dims.nt,
    };
    let alloc = allocate(devices, &input);

    // One objective-function evaluation of the paper's GPU pipeline:
    // assemble Qp and Qc, factorize both (in parallel when S2 = 2),
    // triangular-solve for the conditional mean. The S2 term is paper-only:
    // this engine takes log|Qp| from the per-process precisions and runs no
    // second factorization.
    let lb = 1.6;
    let factor_time = d_bta_factor_time(&bta, alloc.s3, lb, hw);
    let solve_time = d_bta_solve_time(&bta, alloc.s3, lb, hw, 1);
    let nnz = (bta.n * bta.b * 10 + bta.a * bta.dim()) as f64;
    let assembly_time = (nnz * 8.0 * 4.0) / hw.mem_bw / alloc.s3 as f64 + hw.per_eval_overhead;
    let solver_per_eval = if alloc.s2 >= 2 {
        factor_time + solve_time
    } else {
        2.0 * factor_time + solve_time
    };
    let per_eval = solver_per_eval + assembly_time;

    // Evaluations are distributed over the S1 groups.
    let rounds = (dims.n_feval() as f64 / alloc.s1 as f64).ceil();
    let comm = message_time(hw, 8.0 * dims.dim_theta as f64) * (alloc.s1 as f64).log2().max(1.0)
        + 2.0 * hw.net_latency * (alloc.devices() as f64);
    let solver = rounds * solver_per_eval;
    let assembly = rounds * assembly_time;
    let total = rounds * per_eval + comm;
    IterationCost { total, solver, assembly, comm, allocation: alloc }
}

/// Modeled wall-clock time of one INLA_DIST BFGS iteration (sequential BTA
/// solver, S1 + S2 only, single-GPU solver).
pub fn inladist_iteration_time(dims: &ModelDims, devices: usize, hw: &HardwareProfile) -> IterationCost {
    let bta = dims.bta_dims();
    let factor_time = kernel_time(hw, bta_factor_flops(&bta), bta.footprint_bytes() / 3.0);
    let solve_time = kernel_time(hw, bta_solve_flops(&bta, 1), bta.footprint_bytes() / 3.0);
    let n_feval = dims.n_feval();
    let s1 = devices.min(n_feval).max(1);
    let s2 = if devices / s1 >= 2 { 2 } else { 1 };
    // INLA_DIST's solver is GPU-accelerated but has a larger per-call overhead
    // (sequential block pipeline, no batched assembly).
    let assembly_time = 3.0 * hw.per_eval_overhead;
    let solver_per_eval = if s2 >= 2 { factor_time + solve_time } else { 2.0 * factor_time + solve_time };
    let per_eval = 1.5 * solver_per_eval + assembly_time;
    let rounds = (n_feval as f64 / s1 as f64).ceil();
    let comm = message_time(hw, 8.0 * dims.dim_theta as f64) * (s1 as f64).log2().max(1.0);
    IterationCost {
        total: rounds * per_eval + comm,
        solver: rounds * 1.5 * solver_per_eval,
        assembly: rounds * assembly_time,
        comm,
        allocation: StrategyAllocation { s1, s2, s3: 1 },
    }
}

/// Modeled wall-clock time of one R-INLA BFGS iteration on the CPU baseline
/// (`s1_groups` nested OpenMP groups, PARDISO within each group).
pub fn rinla_iteration_time(dims: &ModelDims, s1_groups: usize, hw: &HardwareProfile) -> IterationCost {
    let bta = dims.bta_dims();
    let factor_time = kernel_time(hw, sparse_chol_flops(&bta), bta.footprint_bytes() / 3.0);
    let solve_time = kernel_time(hw, 4.0 * bta_solve_flops(&bta, 1), bta.footprint_bytes() / 6.0);
    let assembly_time = hw.per_eval_overhead;
    // R-INLA factorizes Qp and Qc sequentially within one evaluation.
    let per_eval = 2.0 * factor_time + solve_time + assembly_time;
    let rounds = (dims.n_feval() as f64 / s1_groups as f64).ceil();
    IterationCost {
        total: rounds * per_eval,
        solver: rounds * (2.0 * factor_time + solve_time),
        assembly: rounds * assembly_time,
        comm: 0.0,
        allocation: StrategyAllocation { s1: s1_groups, s2: 1, s3: 1 },
    }
}

/// Parallel efficiency of a strong-scaling series: `t1 / (p · tp)`.
pub fn parallel_efficiency(t1: f64, tp: f64, p: usize) -> f64 {
    t1 / (p as f64 * tp)
}

/// Weak-scaling parallel efficiency: `t1 / tp` (work per device constant).
pub fn weak_efficiency(t1: f64, tp: f64) -> f64 {
    t1 / tp
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mb1() -> ModelDims {
        // Paper dataset MB1: univariate, ns = 4002, nt = 250, nr = 6.
        ModelDims::univariate(4002, 250, 6)
    }

    fn sa1() -> ModelDims {
        // Paper dataset SA1: trivariate, ns = 1675, nt = 192, nr = 1.
        ModelDims::trivariate(1675, 192, 1)
    }

    #[test]
    fn flop_counts_scale_as_expected() {
        let d1 = BtaDims { n: 100, b: 50, a: 5 };
        let d2 = BtaDims { n: 200, b: 50, a: 5 };
        let d3 = BtaDims { n: 100, b: 100, a: 5 };
        // Linear in n.
        assert!((bta_factor_flops(&d2) / bta_factor_flops(&d1) - 2.0).abs() < 0.05);
        // Cubic in b.
        assert!(bta_factor_flops(&d3) / bta_factor_flops(&d1) > 6.0);
        // Selected inversion costs more than factorization.
        assert!(bta_selinv_flops(&d1) > bta_factor_flops(&d1));
        // Solve is much cheaper than factorization.
        assert!(bta_solve_flops(&d1, 1) < 0.1 * bta_factor_flops(&d1));
    }

    #[test]
    fn single_gpu_dalia_beats_rinla_by_about_an_order_of_magnitude() {
        // Fig. 4: on MB1, DALIA on 1 GPU is ~12.6x faster than R-INLA
        // (780 s vs ~62 s per iteration). The model should land in the right
        // ballpark (between 5x and 40x) and R-INLA should take minutes.
        let dalia = dalia_iteration_time(&mb1(), 1, &gh200());
        let rinla = rinla_iteration_time(&mb1(), 9, &xeon_fritz());
        let speedup = rinla.total / dalia.total;
        assert!(speedup > 5.0 && speedup < 40.0, "single-GPU speedup {speedup}");
        assert!(rinla.total > 100.0, "R-INLA per-iteration time {} too small", rinla.total);
    }

    #[test]
    fn dalia_strong_scaling_monotone_then_saturating() {
        let dims = sa1();
        let hw = gh200();
        let t1 = dalia_iteration_time(&dims, 1, &hw).total;
        let t31 = dalia_iteration_time(&dims, 31, &hw).total;
        let t124 = dalia_iteration_time(&dims, 124, &hw).total;
        let t496 = dalia_iteration_time(&dims, 496, &hw).total;
        assert!(t31 < t1);
        assert!(t124 <= t31 * 1.05);
        assert!(t496 <= t124 * 1.1);
        // Near-ideal scaling up to 31 devices (S1 saturation point for 15 hyperparameters).
        let eff31 = parallel_efficiency(t1, t31, 31);
        assert!(eff31 > 0.6, "efficiency at 31 devices {eff31}");
        // Far from ideal at 496 (paper reports 28.3%).
        let eff496 = parallel_efficiency(t1, t496, 496);
        assert!(eff496 < 0.6, "efficiency at 496 devices {eff496}");
        assert!(eff496 > 0.02);
    }

    #[test]
    fn three_orders_of_magnitude_over_rinla_at_scale() {
        // Fig. 7: at 496 GPUs, DALIA is ~3 orders of magnitude faster than R-INLA.
        let dims = sa1();
        let dalia = dalia_iteration_time(&dims, 496, &gh200());
        let rinla = rinla_iteration_time(&dims, 8, &xeon_fritz());
        let speedup = rinla.total / dalia.total;
        assert!(speedup > 200.0, "speedup at scale only {speedup}");
        assert!(speedup < 20000.0, "speedup at scale implausibly high {speedup}");
    }

    #[test]
    fn dalia_beats_inladist_with_s3() {
        // Fig. 4: at 18 GPUs DALIA is ~2x faster than INLA_DIST.
        let dims = mb1();
        let hw = gh200();
        let dalia = dalia_iteration_time(&dims, 18, &hw).total;
        let inladist = inladist_iteration_time(&dims, 18, &hw).total;
        assert!(inladist / dalia > 1.2, "DALIA/INLA_DIST ratio {}", inladist / dalia);
        assert!(inladist / dalia < 8.0);
    }

    #[test]
    fn memory_pressure_engages_s3() {
        // A model whose block-dense footprint exceeds one device must use S3.
        let dims = ModelDims::trivariate(4485, 48, 1);
        let cost = dalia_iteration_time(&dims, 64, &gh200());
        assert!(cost.allocation.s3 > 1, "allocation {:?}", cost.allocation);
    }

    #[test]
    fn distributed_solver_weak_scaling_efficiency_band() {
        // Fig. 5: weak scaling from 1 to 16 GPUs keeps the factorization and
        // selected inversion above ~40% parallel efficiency, and load
        // balancing (lb = 1.6) improves on the even split.
        let hw = gh200();
        let base = BtaDims { n: 128, b: 1675, a: 6 };
        let t1 = d_bta_factor_time(&base, 1, 1.0, &hw);
        for p in [2usize, 4, 8, 16] {
            let d = BtaDims { n: 128 * p, b: 1675, a: 6 };
            let tp_even = d_bta_factor_time(&d, p, 1.0, &hw);
            let tp_lb = d_bta_factor_time(&d, p, 1.6, &hw);
            let eff = weak_efficiency(t1, tp_lb);
            assert!(eff > 0.35 && eff <= 1.05, "weak efficiency at {p}: {eff}");
            assert!(tp_lb <= tp_even * 1.02, "load balancing should not hurt at {p}");
        }
    }

    #[test]
    fn triangular_solve_scales_worse_than_factorization() {
        // Fig. 5: PPOBTAS reaches only ~32% parallel efficiency at 16 GPUs
        // while factorization stays near ~59%.
        let hw = gh200();
        let base = BtaDims { n: 128, b: 1675, a: 6 };
        let t1f = d_bta_factor_time(&base, 1, 1.0, &hw);
        let t1s = d_bta_solve_time(&base, 1, 1.0, &hw, 1);
        let d16 = BtaDims { n: 128 * 16, b: 1675, a: 6 };
        let eff_f = weak_efficiency(t1f, d_bta_factor_time(&d16, 16, 1.6, &hw));
        let eff_s = weak_efficiency(t1s, d_bta_solve_time(&d16, 16, 1.6, &hw, 1));
        assert!(eff_s < eff_f, "solve efficiency {eff_s} should be below factor efficiency {eff_f}");
        // Solve remains about an order of magnitude faster in absolute terms.
        assert!(d_bta_solve_time(&d16, 16, 1.6, &hw, 1) < d_bta_factor_time(&d16, 16, 1.6, &hw));
    }

    #[test]
    fn model_dims_helpers() {
        let d = sa1();
        assert_eq!(d.n_feval(), 31);
        assert_eq!(d.latent_dim(), 3 * (1675 * 192 + 1));
        let b = d.bta_dims();
        assert_eq!(b.b, 3 * 1675);
        assert_eq!(b.a, 3);
        assert_eq!(b.dim(), d.latent_dim());
    }
}
