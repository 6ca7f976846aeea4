//! Table I: qualitative feature comparison of R-INLA, INLA_DIST and DALIA.

use dalia_bench::{header, row};

fn main() {
    header("Table I", "feature comparison of the INLA implementations");
    for r in dalia_core::feature_table() {
        println!("{}", row(&r));
    }
    println!();
    println!("DALIA-RS implements all three configurations as engine presets:");
    println!("  InlaSettings::rinla_like()   -> general sparse Cholesky, shared-memory S1 only");
    println!("  InlaSettings::inladist_like()-> sequential BTA solver, S1 only");
    println!("  InlaSettings::dalia(P)       -> distributed BTA solver, S1 + S3(P)");
}
