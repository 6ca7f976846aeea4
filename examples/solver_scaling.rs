//! Structured-solver example: factorize, solve and selected-invert a
//! block-tridiagonal-arrowhead system sequentially and with the time-domain
//! partitioned (distributed) routines, verify they agree, and project the
//! run to cluster scale with the GH200 performance model.
//!
//! Run with: `cargo run --release --example solver_scaling`

use dalia::hpc::{d_bta_factor_time, gh200, weak_efficiency, BtaDims};
use dalia::prelude::*;
use dalia::serinv::testing;
use std::time::Instant;

fn main() {
    // A BTA system with 24 diagonal blocks of size 40 and a 4-wide arrowhead
    // (think: 24 time steps, 40 spatial nodes, 4 fixed effects).
    let (n, b, a) = (24usize, 40usize, 4usize);
    let matrix = testing::test_matrix(n, b, a, 3);
    println!("BTA system: n={n} blocks of size {b}, arrow {a}, dimension {}", matrix.dim());

    // Sequential reference.
    let t0 = Instant::now();
    let factor = pobtaf(&matrix).expect("factorization");
    println!("sequential pobtaf: {:.3} s, logdet = {:.3}", t0.elapsed().as_secs_f64(), factor.logdet().expect("SPD factor"));

    let rhs0 = testing::test_rhs(matrix.dim(), 1);
    let mut rhs = rhs0.clone();
    pobtas(&factor, &mut rhs);
    let selinv = pobtasi(&factor);
    println!("first marginal variances: {:?}", &selinv.diagonal()[..3]);

    // Distributed (partitioned) solver over 4 time-domain partitions.
    let part = Partitioning::load_balanced(n, 4, 1.6);
    let t0 = Instant::now();
    let dist = d_pobtaf(&matrix, &part).expect("distributed factorization");
    println!("\ndistributed d_pobtaf (P=4, lb=1.6): {:.3} s, logdet = {:.3}",
             t0.elapsed().as_secs_f64(), dist.logdet().expect("SPD factor"));
    let mut drhs = rhs0.clone();
    let mut pack = PackBuffer::new();
    d_pobtas(&dist, &mut drhs, &mut pack);
    let dselinv = d_pobtasi(&dist, &mut pack);
    println!("max |x_seq - x_dist| = {:.2e}", rhs.max_abs_diff(&drhs));
    let max_var_diff = selinv
        .diagonal()
        .iter()
        .zip(dselinv.diagonal())
        .fold(0.0f64, |acc, (a, b)| acc.max((a - b).abs()));
    println!("max |var_seq - var_dist| = {max_var_diff:.2e}");

    // Project to cluster scale with the performance model (Fig. 5 setting).
    println!("\nmodeled weak-scaling efficiency of the factorization on GH200 (MB2 sizes):");
    let hw = gh200();
    let base = BtaDims { n: 128, b: 1675, a: 6 };
    let t1 = d_bta_factor_time(&base, 1, 1.0, &hw);
    for p in [2usize, 4, 8, 16] {
        let d = BtaDims { n: 128 * p, b: 1675, a: 6 };
        let eff = weak_efficiency(t1, d_bta_factor_time(&d, p, 1.6, &hw));
        println!("  {p:>2} GPUs: {:.1}%", 100.0 * eff);
    }
}
