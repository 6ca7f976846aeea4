//! Fig. 5: weak-scaling parallel efficiency of the distributed Cholesky
//! factorization, selected inversion and triangular solve (dataset MB2:
//! ns = 1675, 128 time steps per process), with and without load balancing.

use dalia_bench::{header, row};
use dalia_hpc::{
    d_bta_factor_time, d_bta_selinv_time, d_bta_solve_time, gh200, weak_efficiency, BtaDims,
};
use dalia_la::PackBuffer;
use serinv::{d_pobtaf, d_pobtas, d_pobtasi, pobtaf, pobtas, pobtasi, testing, Partitioning};
use std::time::Instant;

fn main() {
    header("Fig. 5", "distributed solver weak scaling (MB2: ns=1675, 128 steps/process)");

    // ----- Measured (scaled-down, partitions executed on Rayon threads) -----
    println!("\n[measured] scaled-down blocks (b=48, a=6, 12 steps/partition), seconds:");
    println!("{}", row(&["P", "pobtaf", "pobtas", "pobtasi", "d_pobtaf", "d_pobtas", "d_pobtasi"]
        .map(String::from)));
    for p in [1usize, 2, 4] {
        let n = 12 * p;
        let m = testing::test_matrix(n, 48, 6, 3);
        let rhs0 = testing::test_rhs(m.dim(), 1);
        let t0 = Instant::now();
        let f = pobtaf(&m).unwrap();
        let t_f = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let mut r = rhs0.clone();
        pobtas(&f, &mut r);
        let t_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let _ = pobtasi(&f);
        let t_i = t0.elapsed().as_secs_f64();

        let part = Partitioning::load_balanced(n, p, 1.6);
        let t0 = Instant::now();
        let df = d_pobtaf(&m, &part).unwrap();
        let dt_f = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let mut r = rhs0.clone();
        d_pobtas(&df, &mut r, &mut PackBuffer::new());
        let dt_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let _ = d_pobtasi(&df, &mut PackBuffer::new());
        let dt_i = t0.elapsed().as_secs_f64();
        println!("{}", row(&[
            format!("{p}"),
            format!("{t_f:.4}"), format!("{t_s:.4}"), format!("{t_i:.4}"),
            format!("{dt_f:.4}"), format!("{dt_s:.4}"), format!("{dt_i:.4}"),
        ]));
    }

    // ----- Modeled at paper scale -----
    let hw = gh200();
    let base = BtaDims { n: 128, b: 1675, a: 6 };
    let t1_f = d_bta_factor_time(&base, 1, 1.0, &hw);
    let t1_i = d_bta_selinv_time(&base, 1, 1.0, &hw);
    let t1_s = d_bta_solve_time(&base, 1, 1.0, &hw, 1);
    for lb in [1.0f64, 1.6] {
        println!("\n[modeled] weak-scaling parallel efficiency on GH200, load balance = {lb}:");
        println!("{}", row(&["GPUs", "factorization", "selected inv.", "triangular solve"]
            .map(String::from)));
        for p in [1usize, 2, 4, 8, 16] {
            let d = BtaDims { n: 128 * p, b: 1675, a: 6 };
            let ef = weak_efficiency(t1_f, d_bta_factor_time(&d, p, lb, &hw));
            let ei = weak_efficiency(t1_i, d_bta_selinv_time(&d, p, lb, &hw));
            let es = weak_efficiency(t1_s, d_bta_solve_time(&d, p, lb, &hw, 1));
            println!("{}", row(&[
                format!("{p}"),
                format!("{:.1}%", 100.0 * ef),
                format!("{:.1}%", 100.0 * ei),
                format!("{:.1}%", 100.0 * es),
            ]));
        }
    }
    println!("\nPaper reference points at 16 GPUs: factorization 52.6% -> 58.8% with lb=1.6,");
    println!("selected inversion 52.8% -> 58.3%, triangular solve ~31.6%.");
}
