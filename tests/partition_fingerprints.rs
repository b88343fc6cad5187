//! Pinned partitions: FNV-1a fingerprints of the part vectors, the integer quality
//! counts and the label-propagation work counters of fixed runs.
//!
//! Every run here is deterministic for its seed (one sweep thread per rank; results
//! are identical for any thread count anyway). The constants were recorded before the
//! sweep scoring kernel moved from `f64` to integer sums and balance sweeps started
//! committing with the proposer's counts, so a pass proves those rewrites changed no
//! decision. A change that is *meant* to move partitions must re-record the constants
//! and say why.

use xtrapulp::metrics::PartitionQuality;
use xtrapulp::partitioner::assemble_gathered_parts;
use xtrapulp::{
    try_xtrapulp_partition, try_xtrapulp_partition_from, PartitionParams, PartitionResult,
    Partitioner, PulpPartitioner,
};
use xtrapulp_comm::Runtime;
use xtrapulp_gen::{GraphConfig, GraphKind};
use xtrapulp_graph::{Csr, DistGraph, Distribution, LocalId};
use xtrapulp_multilevel::MetisLikePartitioner;

const NUM_PARTS: usize = 16;

/// 64-bit FNV-1a over the little-endian bytes of `parts`.
fn fnv1a(parts: &[i32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &x in parts {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn params(seed: u64) -> PartitionParams {
    PartitionParams {
        num_parts: NUM_PARTS,
        sweep_threads: 1,
        seed,
        ..PartitionParams::default()
    }
}

fn rmat12() -> Csr {
    GraphConfig::new(
        GraphKind::Rmat {
            scale: 12,
            edge_factor: 16,
        },
        1,
    )
    .generate()
    .to_csr()
}

fn web16k() -> Csr {
    GraphConfig::new(
        GraphKind::WebCrawl {
            num_vertices: 16_384,
            avg_degree: 16,
            community_size: 256,
        },
        2,
    )
    .generate()
    .to_csr()
}

/// What a pinned run is compared on.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    parts_fnv: u64,
    edge_cut: u64,
    max_part_cut: u64,
    /// `(lp_sweeps, vertices_scored)` for runs that report them.
    work: Option<(u64, u64)>,
}

fn pin(csr: &Csr, parts: &[i32], work: Option<(u64, u64)>) -> Pin {
    let q = PartitionQuality::evaluate(csr, parts, NUM_PARTS);
    Pin {
        parts_fnv: fnv1a(parts),
        edge_cut: q.edge_cut,
        max_part_cut: q.max_part_cut,
        work,
    }
}

/// XtraPuLP on two in-process ranks (block distribution), cold or warm-started from
/// `initial`; returns the gathered part vector and `(lp_sweeps, vertices_scored)`.
fn xtrapulp_2(csr: &Csr, seed: u64, initial: Option<&[i32]>) -> (Vec<i32>, (u64, u64)) {
    let params = params(seed);
    let per_rank = Runtime::run(2, |ctx| {
        let graph = DistGraph::from_csr(ctx, Distribution::Block, csr);
        let result: PartitionResult = match initial {
            None => try_xtrapulp_partition(ctx, &graph, &params),
            Some(initial) => {
                let owned: Vec<i32> = (0..graph.n_owned())
                    .map(|v| initial[graph.global_id(v as LocalId) as usize])
                    .collect();
                try_xtrapulp_partition_from(ctx, &graph, &params, &owned)
            }
        }
        .expect("valid job");
        let pairs: Vec<(u64, i32)> = (0..graph.n_owned())
            .map(|v| (graph.global_id(v as LocalId), result.parts[v]))
            .collect();
        (pairs, (result.lp_sweeps, result.vertices_scored))
    });
    let work = per_rank[0].1;
    assert!(per_rank.iter().all(|(_, w)| *w == work), "ranks disagree");
    let parts = assemble_gathered_parts(
        csr.num_vertices(),
        NUM_PARTS,
        per_rank.into_iter().map(|(pairs, _)| pairs).collect(),
    )
    .expect("every vertex gathered");
    (parts, work)
}

#[test]
fn xtrapulp_cold_partitions_are_pinned() {
    let rmat = rmat12();
    let (parts, work) = xtrapulp_2(&rmat, 1000, None);
    assert_eq!(
        pin(&rmat, &parts, Some(work)),
        Pin {
            parts_fnv: 6725841450755606184,
            edge_cut: 40748,
            max_part_cut: 6579,
            work: Some((115, 198045)),
        },
        "R-MAT 12, 2 ranks, cold"
    );

    let web = web16k();
    let (parts, work) = xtrapulp_2(&web, 1000, None);
    assert_eq!(
        pin(&web, &parts, Some(work)),
        Pin {
            parts_fnv: 18232715799834728086,
            edge_cut: 15684,
            max_part_cut: 3189,
            work: Some((96, 533148)),
        },
        "WebCrawl 16k, 2 ranks, cold"
    );
}

#[test]
fn xtrapulp_warm_partition_is_pinned() {
    let web = web16k();
    let (cold, _) = xtrapulp_2(&web, 1000, None);
    // Perturb the converged partition: every 37th vertex moves one part over, and
    // every 101st loses its label (a freshly added vertex).
    let seed: Vec<i32> = cold
        .iter()
        .enumerate()
        .map(|(v, &x)| match v {
            _ if v % 101 == 0 => -1,
            _ if v % 37 == 0 => (x + 1) % NUM_PARTS as i32,
            _ => x,
        })
        .collect();
    let (parts, work) = xtrapulp_2(&web, 1000, Some(&seed));
    assert_eq!(
        pin(&web, &parts, Some(work)),
        Pin {
            parts_fnv: 8899458729180207305,
            edge_cut: 15126,
            max_part_cut: 3330,
            work: Some((8, 24151)),
        },
        "WebCrawl 16k, 2 ranks, perturbed warm start"
    );
}

#[test]
fn serial_pulp_partition_is_pinned() {
    let ba = GraphConfig::new(
        GraphKind::BarabasiAlbert {
            num_vertices: 8192,
            edges_per_vertex: 8,
        },
        3,
    )
    .generate()
    .to_csr();
    let parts = PulpPartitioner.try_partition(&ba, &params(1000)).unwrap();
    assert_eq!(
        pin(&ba, &parts, None),
        Pin {
            parts_fnv: 7283126607664476080,
            edge_cut: 48806,
            max_part_cut: 6639,
            work: None,
        },
        "serial PuLP, BA 8192 x 8"
    );
}

#[test]
fn multilevel_partition_is_pinned() {
    let web = web16k();
    let parts = MetisLikePartitioner::default()
        .try_partition(&web, &params(1000))
        .unwrap();
    assert_eq!(
        pin(&web, &parts, None),
        Pin {
            parts_fnv: 2879439381180940846,
            edge_cut: 10975,
            max_part_cut: 2602,
            work: None,
        },
        "MetisLike, WebCrawl 16k"
    );
}
