//! Randomised property tests of the core invariants: partition validity, balance
//! behaviour, CSR construction and the communication substrate.
//!
//! These were originally `proptest` properties; they now run on a plain
//! seeded-RNG case loop (24 cases per property, like the old
//! `ProptestConfig::with_cases(24)`) so the workspace has no dev-dependency on
//! a shrinking framework. Failures print the generating seed, which is enough
//! to reproduce a case deterministically.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use xtrapulp_suite::core::metrics::{is_valid_partition, PartitionQuality};
use xtrapulp_suite::core::sweep::ScoreScratch;
use xtrapulp_suite::core::{baselines, Partitioner, PulpPartitioner};
use xtrapulp_suite::graph::{csr_from_edges, DistGraph, Distribution};
use xtrapulp_suite::prelude::*;

const CASES: u64 = 24;

/// A random edge list over `2..max_n` vertices, mirroring the old proptest
/// strategy: up to 400 arbitrary (possibly self-loop, possibly duplicate)
/// endpoint pairs, which `csr_from_edges` must clean up.
fn edge_list(rng: &mut SmallRng, max_n: u64) -> (u64, Vec<(u64, u64)>) {
    let n = rng.gen_range(2..max_n);
    let m = rng.gen_range(1..400usize);
    let edges = (0..m)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();
    (n, edges)
}

#[test]
fn csr_is_symmetric_and_simple() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xC5A0 + case);
        let (n, edges) = edge_list(&mut rng, 200);
        let csr = csr_from_edges(n, &edges);
        assert_eq!(csr.num_vertices() as u64, n, "case {case}");
        for (u, v) in csr.arcs() {
            assert_ne!(u, v, "case {case}: self-loop survived");
            assert!(
                csr.neighbors(v).contains(&u),
                "case {case}: arc ({u},{v}) has no reverse"
            );
        }
        for v in 0..n {
            let mut neigh = csr.neighbors(v).to_vec();
            let len = neigh.len();
            neigh.dedup();
            assert_eq!(neigh.len(), len, "case {case}: duplicate neighbours of {v}");
        }
    }
}

#[test]
fn xtrapulp_partitions_are_always_valid() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x11AA + case);
        let (n, edges) = edge_list(&mut rng, 160);
        let nparts = rng.gen_range(2..9usize);
        let nranks = rng.gen_range(1..4usize);
        let csr = csr_from_edges(n, &edges);
        let params = PartitionParams {
            num_parts: nparts,
            seed: 11,
            ..Default::default()
        };
        let parts = XtraPulpPartitioner::new(nranks).partition(&csr, &params);
        assert_eq!(parts.len(), csr.num_vertices(), "case {case}");
        assert!(is_valid_partition(&parts, nparts), "case {case}");
        // Every part's vertex count is accounted for exactly once.
        let total: usize = (0..nparts)
            .map(|p| parts.iter().filter(|&&x| x == p as i32).count())
            .sum();
        assert_eq!(total, csr.num_vertices(), "case {case}");
    }
}

#[test]
fn pulp_partitions_are_valid_and_cut_is_bounded() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x5107 + case);
        let (n, edges) = edge_list(&mut rng, 160);
        let nparts = rng.gen_range(2..8usize);
        let csr = csr_from_edges(n, &edges);
        let params = PartitionParams {
            num_parts: nparts,
            seed: 7,
            ..Default::default()
        };
        let (parts, q) = PulpPartitioner.partition_with_quality(&csr, &params);
        assert!(is_valid_partition(&parts, nparts), "case {case}");
        assert!(q.edge_cut <= csr.num_edges(), "case {case}");
        assert!(q.edge_cut_ratio <= 1.0 + 1e-12, "case {case}");
    }
}

#[test]
fn distributed_graph_conserves_edges() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xD157 + case);
        let (n, edges) = edge_list(&mut rng, 150);
        let nranks = rng.gen_range(1..5usize);
        let csr = csr_from_edges(n, &edges);
        let expected_m = csr.num_edges();
        let out = Runtime::run(nranks, |ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Hashed, n, &edges);
            (g.global_m(), g.local_arcs())
        });
        let total_arcs: u64 = out.iter().map(|(_, a)| a).sum();
        assert_eq!(total_arcs, expected_m * 2, "case {case}");
        assert!(out.iter().all(|&(m, _)| m == expected_m), "case {case}");
    }
}

#[test]
fn block_partition_is_always_near_balanced() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xB10C + case);
        let n = rng.gen_range(1..5000u64);
        let nparts = rng.gen_range(1..32usize);
        let parts = baselines::vertex_block_partition(n, nparts);
        assert_eq!(parts.len() as u64, n, "case {case}");
        assert!(is_valid_partition(&parts, nparts), "case {case}");
        let mut counts = vec![0u64; nparts];
        for &p in &parts {
            counts[p as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max - min <= 1, "case {case}: counts {counts:?}");
    }
}

#[test]
fn random_partition_covers_only_valid_parts() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x7A2D + case);
        let n = rng.gen_range(1..3000u64);
        let nparts = rng.gen_range(1..17usize);
        let seed = rng.gen_range(0..100u64);
        let parts = baselines::random_partition(n, nparts, seed);
        assert!(is_valid_partition(&parts, nparts), "case {case}");
    }
}

#[test]
fn quality_metrics_are_internally_consistent() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x9A11 + case);
        let (n, edges) = edge_list(&mut rng, 120);
        let nparts = rng.gen_range(1..6usize);
        let csr = csr_from_edges(n, &edges);
        let parts = baselines::random_partition(n, nparts, 5);
        let q = PartitionQuality::evaluate(&csr, &parts, nparts);
        assert!(q.edge_cut <= csr.num_edges(), "case {case}");
        assert!(q.max_part_cut <= q.edge_cut.max(1) * 2, "case {case}");
        assert!(
            q.vertex_imbalance >= 1.0 - 1e-9 || csr.num_vertices() == 0,
            "case {case}"
        );
    }
}

/// The sweep kernel's `ScoreScratch` against a naive per-part map: sums, the
/// first-touch order of `touched()`, reuse after `clear()`, resizing with `ensure()`
/// (including between uncleared rounds), and the zero-weight rule — adding `0` neither
/// changes a sum nor touches the part.
#[test]
fn score_scratch_matches_a_naive_per_part_map() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x5C0E + case);
        let mut p = rng.gen_range(1..40usize);
        let mut scratch = ScoreScratch::new(p);
        for round in 0..12 {
            // The model: (part, sum) in first-touch order.
            let mut model: Vec<(usize, u64)> = Vec::new();
            for _ in 0..rng.gen_range(0..200usize) {
                let part = rng.gen_range(0..p);
                let value = if rng.gen_bool(0.2) {
                    0
                } else {
                    rng.gen_range(1..1000u64)
                };
                scratch.add(part, value);
                if value > 0 {
                    match model.iter_mut().find(|(q, _)| *q == part) {
                        Some((_, sum)) => *sum += value,
                        None => model.push((part, value)),
                    }
                }
            }
            let order: Vec<usize> = model.iter().map(|&(q, _)| q).collect();
            assert_eq!(scratch.touched(), &order[..], "case {case} round {round}");
            for q in 0..p {
                let expected = model.iter().find(|(m, _)| *m == q).map_or(0, |&(_, s)| s);
                assert_eq!(
                    scratch.get(q),
                    expected,
                    "case {case} round {round} part {q}"
                );
            }
            // Start the next round with a clear, or resized without one.
            if rng.gen_bool(0.25) {
                p = rng.gen_range(1..40usize);
                scratch.ensure(p);
            } else {
                scratch.clear();
            }
            assert!(scratch.touched().is_empty(), "case {case} round {round}");
            assert!(
                (0..p).all(|q| scratch.get(q) == 0),
                "case {case} round {round}"
            );
        }
    }
}
