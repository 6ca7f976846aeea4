//! Public-API tests for the partitioning seam and the sequential-vs-
//! distributed factorization agreement, exercised the way downstream crates
//! consume `serinv` (through the re-exports, not the module internals).

use dalia_la::PackBuffer;
use serinv::{d_pobtaf, d_pobtas, pobtaf, pobtas, testing, Partitioning};

#[test]
fn load_balanced_block_counts_sum_to_n() {
    for &n in &[4usize, 9, 16, 31, 64, 100] {
        for &p in &[1usize, 2, 3, 4, 7] {
            if p > n {
                continue;
            }
            for &lb in &[1.0f64, 1.3, 1.6, 2.0, 3.5] {
                let part = Partitioning::load_balanced(n, p, lb);
                assert_eq!(part.num_partitions(), p, "n={n} p={p} lb={lb}");
                assert_eq!(part.num_blocks(), n, "n={n} p={p} lb={lb}");
                let total: usize = (0..p).map(|i| part.size(i)).sum();
                assert_eq!(total, n, "sizes must sum to n for n={n} p={p} lb={lb}");
            }
        }
    }
}

#[test]
fn load_balanced_partitions_are_nonempty_and_contiguous() {
    for &(n, p, lb) in &[
        (5usize, 5usize, 2.0f64),
        (6, 5, 4.0),
        (17, 6, 1.6),
        (32, 4, 1.6),
        (12, 3, 1.0),
        (50, 8, 2.5),
    ] {
        let part = Partitioning::load_balanced(n, p, lb);
        let mut expected_start = 0usize;
        for i in 0..p {
            let (s, e) = part.range(i);
            assert_eq!(s, expected_start, "partition {i} not contiguous (n={n} p={p} lb={lb})");
            assert!(e > s, "partition {i} empty (n={n} p={p} lb={lb})");
            expected_start = e;
        }
        assert_eq!(expected_start, n);
        // Separators are exactly the last block of every partition but the last.
        let seps = part.separators();
        assert_eq!(seps.len(), p - 1);
        for (i, &sep) in seps.iter().enumerate() {
            assert_eq!(sep, part.range(i).1 - 1);
        }
    }
}

#[test]
fn load_balancing_factor_shifts_work_to_boundaries() {
    // With P > 2 and a large factor, boundary partitions must own at least as
    // many blocks as every interior partition.
    let part = Partitioning::load_balanced(60, 5, 2.0);
    let sizes: Vec<usize> = (0..5).map(|i| part.size(i)).collect();
    let interior_max = sizes[1..4].iter().copied().max().unwrap();
    assert!(sizes[0] >= interior_max, "sizes {sizes:?}");
    assert!(sizes[4] >= interior_max, "sizes {sizes:?}");
}

#[test]
fn sequential_and_distributed_logdet_agree() {
    for &(n, b, a) in &[(8usize, 3usize, 2usize), (12, 4, 0), (16, 2, 3)] {
        let m = testing::test_matrix(n, b, a, 5);
        let seq = pobtaf(&m).expect("sequential factorization failed");
        for &p in &[1usize, 2, 3, 4] {
            for &lb in &[1.0f64, 1.6] {
                let part = Partitioning::load_balanced(n, p, lb);
                let dist = d_pobtaf(&m, &part).expect("distributed factorization failed");
                let (ls, ld) = (seq.logdet().unwrap(), dist.logdet().unwrap());
                assert!(
                    (ls - ld).abs() < 1e-8 * (1.0 + ls.abs()),
                    "logdet mismatch for n={n} b={b} a={a} P={p} lb={lb}: {ls} vs {ld}"
                );
            }
        }
    }
}

#[test]
fn sequential_and_distributed_solves_agree() {
    let (n, b, a) = (10usize, 3usize, 2usize);
    let m = testing::test_matrix(n, b, a, 11);
    let rhs = testing::test_rhs(m.dim(), 2);
    let seq = pobtaf(&m).unwrap();
    let mut x_seq = rhs.clone();
    pobtas(&seq, &mut x_seq);
    for &p in &[2usize, 3, 4] {
        let part = Partitioning::load_balanced(n, p, 1.6);
        let dist = d_pobtaf(&m, &part).unwrap();
        let mut x_dist = rhs.clone();
        d_pobtas(&dist, &mut x_dist, &mut PackBuffer::new());
        assert!(
            x_dist.max_abs_diff(&x_seq) < 1e-8,
            "solution mismatch for P={p}: {}",
            x_dist.max_abs_diff(&x_seq)
        );
    }
}
