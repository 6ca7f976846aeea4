//! Criterion micro-benchmarks of the structured BTA solver kernels
//! (sequential and distributed), the measured counterpart of Fig. 5.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dalia_la::PackBuffer;
use serinv::{d_pobtaf, d_pobtas, d_pobtasi, pobtaf, pobtas, pobtasi, testing, Partitioning};
use std::hint::black_box;

fn bench_sequential(c: &mut Criterion) {
    let mut group = c.benchmark_group("serinv_sequential");
    group.sample_size(10);
    for &(n, b, a) in &[(16usize, 24usize, 4usize), (32, 24, 4)] {
        let m = testing::test_matrix(n, b, a, 1);
        let f = pobtaf(&m).unwrap();
        let rhs = testing::test_rhs(m.dim(), 1);
        group.bench_with_input(BenchmarkId::new("pobtaf", format!("n{n}_b{b}")), &m, |bencher, m| {
            bencher.iter(|| black_box(pobtaf(m).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("pobtas", format!("n{n}_b{b}")), &f, |bencher, f| {
            bencher.iter(|| {
                let mut r = rhs.clone();
                pobtas(f, &mut r);
                black_box(r);
            });
        });
        group.bench_with_input(BenchmarkId::new("pobtasi", format!("n{n}_b{b}")), &f, |bencher, f| {
            bencher.iter(|| black_box(pobtasi(f)));
        });
    }
    group.finish();
}

fn bench_distributed(c: &mut Criterion) {
    let mut group = c.benchmark_group("serinv_distributed");
    group.sample_size(10);
    let (n, b, a) = (32usize, 24usize, 4usize);
    let m = testing::test_matrix(n, b, a, 2);
    let rhs = testing::test_rhs(m.dim(), 1);
    for &p in &[1usize, 2, 4] {
        let part = Partitioning::load_balanced(n, p, 1.6);
        group.bench_with_input(BenchmarkId::new("d_pobtaf", format!("P{p}")), &part, |bencher, part| {
            bencher.iter(|| black_box(d_pobtaf(&m, part).unwrap()));
        });
        let f = d_pobtaf(&m, &part).unwrap();
        let mut pack = PackBuffer::new();
        group.bench_with_input(BenchmarkId::new("d_pobtas", format!("P{p}")), &f, |bencher, f| {
            bencher.iter(|| {
                let mut r = rhs.clone();
                d_pobtas(f, &mut r, &mut pack);
                black_box(r);
            });
        });
        group.bench_with_input(BenchmarkId::new("d_pobtasi", format!("P{p}")), &f, |bencher, f| {
            bencher.iter(|| black_box(d_pobtasi(f, &mut pack)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sequential, bench_distributed);
criterion_main!(benches);
