//! # dalia-hpc — parallel execution substrate and cluster performance model
//!
//! Stands in for the MPI + NCCL + 496-GPU substrate of the original DALIA
//! framework:
//!
//! * [`pool`] — the work-stealing fork-join thread pool (re-export of the
//!   `dalia-pool` crate) that executes the S1/S3 fan-outs,
//! * [`alloc`] — allocation of devices across the three nested
//!   parallelization strategies S1/S2/S3 following the paper's policy,
//! * [`perfmodel`] — analytic GH200/Alps and Xeon/Fritz performance model used
//!   by the benchmark harnesses to evaluate the scaling experiments at paper
//!   scale.

#![warn(missing_docs)]

pub mod alloc;
pub mod perfmodel;

/// Work-stealing fork-join thread pool (re-export of the `dalia-pool` crate).
///
/// This is the execution substrate of the workspace's parallel layers: the
/// vendored `rayon` shim's `par_iter` splits adaptively onto this pool, so
/// the S1 gradient lanes (`dalia-core`) and the S3 partition eliminations
/// (`serinv::distributed`) are balanced by stealing instead of fixed
/// chunking, and `dalia-serve` runs each request as one `install`. The pool
/// is fork-join only: `join` and `install` are its whole task model, and
/// every job is waited for by the thread that published it. See the crate
/// docs of [`dalia_pool`] for the scheduling discipline (per-worker deques,
/// LIFO pop / FIFO steal, injector channel, event-parked idle workers with
/// targeted wakes) and the determinism guarantees;
/// `crates/hpc/tests/pool_stress.rs` pins the concurrency behavior.
pub mod pool {
    pub use dalia_pool::*;
}

pub use alloc::{allocate, AllocationInput, StrategyAllocation};
pub use perfmodel::{
    bta_factor_flops, bta_selinv_flops, bta_solve_flops, d_bta_factor_time, d_bta_selinv_time,
    d_bta_solve_time, dalia_iteration_time, gh200, inladist_iteration_time, parallel_efficiency,
    rinla_iteration_time, sparse_chol_flops, weak_efficiency, xeon_fritz, BtaDims, HardwareProfile,
    IterationCost, ModelDims,
};
