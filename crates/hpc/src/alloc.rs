//! Resource allocation across the three nested parallelization strategies.
//!
//! The paper (Sec. V-D) distributes added devices "across the most efficient
//! unsaturated parallelization strategy": S1 (embarrassingly parallel
//! objective-function evaluations) first, then S2 (prior/conditional
//! factorizations), then S3 (time-domain partitioned solver) — except that S3
//! is engaged *first* when the densified BTA matrix no longer fits in a single
//! device's memory.
//!
//! S2 here is the paper's GPU pipeline, which factorizes `Q_p` and `Q_c`
//! concurrently. This engine takes `log |Q_p|` from the per-process
//! precisions instead of factorizing the joint `Q_p`, so it has no S2 work;
//! the S2 degree only feeds the paper-scale model in [`crate::perfmodel`].

/// How many ways each strategy layer is parallelized.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StrategyAllocation {
    /// Number of parallel objective-function evaluation groups (≤ n_feval).
    pub s1: usize,
    /// Number of parallel precision-matrix pipelines inside one evaluation
    /// (1 or 2: the paper's GPU pipeline factorizes Qp and Qc concurrently
    /// for Gaussian data; this engine has no joint Qp factorization to run).
    pub s2: usize,
    /// Number of time-domain partitions of the distributed solver.
    pub s3: usize,
}

impl StrategyAllocation {
    /// Total number of devices used.
    pub fn devices(&self) -> usize {
        self.s1 * self.s2 * self.s3
    }
}

/// Problem-side inputs to the allocation decision.
#[derive(Clone, Copy, Debug)]
pub struct AllocationInput {
    /// Number of parallel objective-function evaluations per BFGS iteration
    /// (`2·dim(θ) + 1`).
    pub n_feval: usize,
    /// Memory footprint (bytes) of one block-dense BTA precision matrix plus
    /// solver workspace on a single device.
    pub model_bytes: f64,
    /// Usable memory per device (bytes).
    pub device_bytes: f64,
    /// Number of diagonal blocks (time steps): the maximum useful S3 degree.
    pub nt: usize,
}

/// Allocate `devices` across S1/S2/S3 following the paper's policy.
pub fn allocate(devices: usize, input: &AllocationInput) -> StrategyAllocation {
    assert!(devices >= 1);
    // Minimum S3 degree forced by memory: each partition must fit on a device.
    let mut s3_min = (input.model_bytes / input.device_bytes).ceil().max(1.0) as usize;
    s3_min = s3_min.min(input.nt.max(1)).min(devices);

    // Devices left after satisfying the memory-driven S3 split.
    let budget = (devices / s3_min).max(1);
    // S1 first, saturating at the number of parallel function evaluations.
    let s1 = budget.min(input.n_feval).max(1);
    let budget = budget / s1;
    // S2 next (Qp and Qc factorized concurrently for Gaussian likelihoods).
    let s2 = if budget >= 2 { 2 } else { 1 };
    let budget = budget / s2;
    // Remaining devices extend the time-domain partitioning (bounded by nt).
    let s3 = (s3_min * budget.max(1)).min(input.nt.max(1)).max(s3_min);
    StrategyAllocation { s1, s2, s3 }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(n_feval: usize, nt: usize, model_gb: f64, device_gb: f64) -> AllocationInput {
        AllocationInput {
            n_feval,
            model_bytes: model_gb * 1e9,
            device_bytes: device_gb * 1e9,
            nt,
        }
    }

    #[test]
    fn single_device_uses_everything_sequentially() {
        let a = allocate(1, &input(31, 100, 1.0, 90.0));
        assert_eq!(a, StrategyAllocation { s1: 1, s2: 1, s3: 1 });
    }

    #[test]
    fn devices_go_to_s1_first() {
        let a = allocate(8, &input(31, 100, 1.0, 90.0));
        assert!(a.s1 >= 8 / (a.s2 * a.s3));
        assert!(a.s1 <= 31);
        assert!(a.devices() <= 8);
    }

    #[test]
    fn s1_saturates_at_n_feval() {
        let a = allocate(512, &input(31, 512, 1.0, 90.0));
        assert!(a.s1 <= 31);
        assert!(a.s2 <= 2);
        assert!(a.devices() <= 512);
        // With plenty of devices, S3 should now be engaged.
        assert!(a.s3 > 1);
    }

    #[test]
    fn memory_pressure_forces_s3() {
        // Model needs 300 GB, device has 90 GB: S3 must be at least 4.
        let a = allocate(8, &input(31, 64, 300.0, 90.0));
        assert!(a.s3 >= 4, "allocation {a:?} does not satisfy memory constraint");
    }

    #[test]
    fn s3_never_exceeds_time_steps() {
        let a = allocate(1024, &input(9, 16, 1.0, 90.0));
        assert!(a.s3 <= 16);
    }

    #[test]
    fn allocation_never_exceeds_devices() {
        for d in [1usize, 2, 3, 7, 16, 62, 124, 496] {
            let a = allocate(d, &input(31, 192, 10.0, 90.0));
            assert!(a.devices() <= d, "{d} devices -> {a:?}");
        }
    }
}
