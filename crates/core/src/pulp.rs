//! The shared-memory PuLP baseline (Slota, Madduri, Rajamanickam, IEEE BigData 2014).
//!
//! PuLP is the prior system XtraPuLP extends: a single-node, multi-constraint,
//! multi-objective partitioner built from weighted label propagation. The paper's
//! Cluster-1 comparisons (Table II, Figs. 3–4 and 6) all report PuLP numbers.
//!
//! PuLP runs as the one-rank instance of the XtraPuLP driver. The only mechanism
//! XtraPuLP adds to PuLP's stages is the dynamic multiplier that charges each rank's
//! moves against stale part-size estimates ([`PartitionParams::multiplier`]). On one
//! rank that multiplier clamps to exactly 1.0, so every move is charged at live counts —
//! PuLP's synchronous update. Each paper stage (vertex balance/refine, edge
//! balance/refine, plus initialisation and the final rebalance) is therefore written
//! once, in [`crate::balance`], [`crate::edge_balance`] and [`crate::init`], and a PuLP
//! call builds a one-rank [`DistGraph`] and runs [`try_xtrapulp_partition`] (cold) or
//! [`try_xtrapulp_partition_from_touched`] (warm). [`PulpPartitioner`] is bit-identical
//! to `XtraPulpPartitioner::new(1)`; it keeps its own name for the experiment tables.

use xtrapulp_comm::Runtime;
use xtrapulp_graph::{Csr, DistGraph, Distribution, GlobalId};

use crate::error::PartitionError;
use crate::params::PartitionParams;
use crate::partitioner::{
    try_xtrapulp_partition, try_xtrapulp_partition_from_touched, PartitionResult, Partitioner,
    WarmStartPartitioner,
};

/// The shared-memory PuLP partitioner.
#[derive(Debug, Clone, Copy, Default)]
pub struct PulpPartitioner;

impl Partitioner for PulpPartitioner {
    fn name(&self) -> &'static str {
        "PuLP"
    }

    fn try_partition(
        &self,
        csr: &Csr,
        params: &PartitionParams,
    ) -> Result<Vec<i32>, PartitionError> {
        try_pulp_partition(csr, params)
    }
}

impl WarmStartPartitioner for PulpPartitioner {
    /// Warm-started run without delta information: the refinement frontier is seeded
    /// from every vertex (see [`try_pulp_run`] for the touched-scoped variant).
    fn try_partition_from(
        &self,
        csr: &Csr,
        params: &PartitionParams,
        initial: &[i32],
    ) -> Result<Vec<i32>, PartitionError> {
        try_pulp_run(csr, params, Some(initial), None).map(|result| result.parts)
    }
}

/// Run the PuLP-MM algorithm on an in-memory graph, rejecting malformed parameters with
/// a typed error.
pub fn try_pulp_partition(csr: &Csr, params: &PartitionParams) -> Result<Vec<i32>, PartitionError> {
    try_pulp_run(csr, params, None, None).map(|result| result.parts)
}

/// Full-accounting PuLP run, cold or warm: the whole [`PartitionResult`] — part vector,
/// sweep and scored-vertex counts, per-stage breakdown, phase timings and quality.
///
/// With `initial`, the run is warm-started from that part vector: `initial[v]` is the
/// seed part of vertex `v`, or [`UNASSIGNED`](xtrapulp_graph::UNASSIGNED) (`-1`) for
/// vertices without one (newly added ones), which adopt the majority part of their
/// assigned neighbours. When the seed still meets both balance targets only refinement
/// runs, otherwise the full cold stage schedule runs (still skipping initialisation).
/// `touched`, when given, lists the vertices the mutation delta touched (endpoints of
/// inserted/deleted edges, added vertices); the refinement frontier is then seeded from
/// them plus their one-hop neighbourhoods, so a small delta scores only its own region.
/// Without it the frontier covers every vertex. Cold runs ignore `touched`.
///
/// On one rank under the block distribution local ids are global ids and there are no
/// ghosts, so `parts` is indexed by vertex id.
pub fn try_pulp_run(
    csr: &Csr,
    params: &PartitionParams,
    initial: Option<&[i32]>,
    touched: Option<&[GlobalId]>,
) -> Result<PartitionResult, PartitionError> {
    let mut per_rank = Runtime::run(1, |ctx| {
        let graph = DistGraph::from_csr(ctx, Distribution::Block, csr);
        match initial {
            None => try_xtrapulp_partition(ctx, &graph, params),
            Some(initial) => {
                try_xtrapulp_partition_from_touched(ctx, &graph, params, initial, touched)
            }
        }
    });
    // lint: panic-ok — `Runtime::run` returns one result per rank
    per_rank
        .pop()
        .expect("a one-rank runtime returns one result")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{is_valid_partition, PartitionQuality};
    use crate::params::InitStrategy;
    use crate::partitioner::{RandomPartitioner, XtraPulpPartitioner};
    use crate::sweep::SweepMode;
    use xtrapulp_gen::{GraphConfig, GraphKind};
    use xtrapulp_graph::{csr_from_edges, UNASSIGNED};

    fn grid_csr(w: u64, h: u64) -> Csr {
        let mut e = Vec::new();
        for y in 0..h {
            for x in 0..w {
                let id = y * w + x;
                if x + 1 < w {
                    e.push((id, id + 1));
                }
                if y + 1 < h {
                    e.push((id, id + w));
                }
            }
        }
        csr_from_edges(w * h, &e)
    }

    fn run_cold(csr: &Csr, params: &PartitionParams) -> PartitionResult {
        try_pulp_run(csr, params, None, None).unwrap()
    }

    #[test]
    fn pulp_produces_balanced_low_cut_partitions_on_a_grid() {
        let csr = grid_csr(20, 20);
        let params = PartitionParams {
            num_parts: 4,
            seed: 5,
            ..Default::default()
        };
        let (parts, q) = PulpPartitioner.partition_with_quality(&csr, &params);
        assert!(is_valid_partition(&parts, 4));
        assert!(
            q.vertex_imbalance <= 1.25,
            "vertex imbalance {}",
            q.vertex_imbalance
        );
        assert!(
            q.edge_cut_ratio < 0.4,
            "edge cut ratio {}",
            q.edge_cut_ratio
        );
    }

    #[test]
    fn pulp_beats_random_on_cut() {
        let csr = grid_csr(16, 16);
        let params = PartitionParams {
            num_parts: 8,
            seed: 5,
            ..Default::default()
        };
        let (_, q_pulp) = PulpPartitioner.partition_with_quality(&csr, &params);
        let (_, q_rand) = RandomPartitioner.partition_with_quality(&csr, &params);
        assert!(q_pulp.edge_cut < q_rand.edge_cut / 2);
    }

    #[test]
    fn single_part_and_empty_graph_edge_cases() {
        let csr = grid_csr(4, 4);
        let parts = PulpPartitioner.partition(&csr, &PartitionParams::with_parts(1));
        assert!(parts.iter().all(|&p| p == 0));
        let empty = csr_from_edges(0, &[]);
        assert!(PulpPartitioner
            .partition(&empty, &PartitionParams::with_parts(4))
            .is_empty());
    }

    #[test]
    fn all_init_strategies_produce_valid_partitions() {
        let csr = grid_csr(10, 10);
        for init in [
            InitStrategy::BfsGrow,
            InitStrategy::Random,
            InitStrategy::VertexBlock,
        ] {
            let params = PartitionParams {
                num_parts: 5,
                init,
                seed: 9,
                ..Default::default()
            };
            let parts = PulpPartitioner.partition(&csr, &params);
            assert!(is_valid_partition(&parts, 5), "{init:?}");
            let q = PartitionQuality::evaluate(&csr, &parts, 5);
            assert!(q.vertex_imbalance < 1.4, "{init:?}: {}", q.vertex_imbalance);
        }
    }

    #[test]
    fn pulp_is_deterministic() {
        let csr = grid_csr(12, 12);
        let params = PartitionParams {
            num_parts: 4,
            seed: 123,
            ..Default::default()
        };
        assert_eq!(
            PulpPartitioner.partition(&csr, &params),
            PulpPartitioner.partition(&csr, &params)
        );
    }

    #[test]
    fn pulp_is_identical_across_thread_counts() {
        let csr = grid_csr(20, 20);
        let mut results = Vec::new();
        for threads in [1usize, 2, 8] {
            let params = PartitionParams {
                num_parts: 4,
                seed: 5,
                sweep_threads: threads,
                ..Default::default()
            };
            results.push(PulpPartitioner.partition(&csr, &params));
        }
        assert_eq!(results[0], results[1], "1 vs 2 threads");
        assert_eq!(results[0], results[2], "1 vs 8 threads");
    }

    #[test]
    fn frontier_and_full_sweeps_agree_on_quality() {
        let csr = grid_csr(24, 24);
        for seed in [5u64, 17] {
            let frontier = PartitionParams {
                num_parts: 4,
                seed,
                sweep_mode: SweepMode::Frontier,
                ..Default::default()
            };
            let full = PartitionParams {
                sweep_mode: SweepMode::Full,
                ..frontier
            };
            let rf = run_cold(&csr, &frontier);
            let rb = run_cold(&csr, &full);
            let qf = PartitionQuality::evaluate(&csr, &rf.parts, 4);
            let qb = PartitionQuality::evaluate(&csr, &rb.parts, 4);
            assert!(is_valid_partition(&rf.parts, 4));
            // One-sided: the frontier engine may converge further within the sweep
            // budget (better cut), but must never be more than 1% worse.
            assert!(
                qf.edge_cut as f64 <= qb.edge_cut as f64 * 1.01 + 1.0,
                "seed {seed}: frontier cut {} vs full cut {}",
                qf.edge_cut,
                qb.edge_cut
            );
            // "No worse" in the constraint sense: the frontier result must stay within
            // the configured imbalance target (plus rounding) or beat the baseline.
            let target = (1.0 + frontier.vertex_imbalance) + 0.01;
            assert!(
                qf.vertex_imbalance <= qb.vertex_imbalance.max(target),
                "seed {seed}: frontier imbalance {} vs full {} (target {target})",
                qf.vertex_imbalance,
                qb.vertex_imbalance
            );
            assert!(
                rf.vertices_scored < rb.vertices_scored,
                "seed {seed}: frontier scored {} should be below full {}",
                rf.vertices_scored,
                rb.vertices_scored
            );
        }
    }

    #[test]
    fn warm_start_from_own_result_preserves_quality_with_fewer_sweeps() {
        let csr = grid_csr(20, 20);
        let params = PartitionParams {
            num_parts: 4,
            seed: 5,
            ..Default::default()
        };
        let cold = run_cold(&csr, &params);
        let cold_q = PartitionQuality::evaluate(&csr, &cold.parts, 4);
        let warm = try_pulp_run(&csr, &params, Some(&cold.parts), None).unwrap();
        let warm_q = PartitionQuality::evaluate(&csr, &warm.parts, 4);
        assert!(is_valid_partition(&warm.parts, 4));
        assert!(
            warm.lp_sweeps < cold.lp_sweeps,
            "warm {} sweeps should be fewer than cold {}",
            warm.lp_sweeps,
            cold.lp_sweeps
        );
        // Refining an already-good partition must not blow up the cut or the balance.
        assert!(
            warm_q.edge_cut as f64 <= cold_q.edge_cut as f64 * 1.05,
            "warm cut {} vs cold cut {}",
            warm_q.edge_cut,
            cold_q.edge_cut
        );
        assert!(warm_q.vertex_imbalance <= 1.25);
    }

    #[test]
    fn touched_warm_start_scores_only_the_delta_region() {
        let csr = grid_csr(30, 30);
        let params = PartitionParams {
            num_parts: 4,
            seed: 5,
            ..Default::default()
        };
        let cold = run_cold(&csr, &params);
        // Warm start with an explicit (tiny) touched set versus no information at all.
        let blind = try_pulp_run(&csr, &params, Some(&cold.parts), None).unwrap();
        let touched: Vec<u64> = vec![0, 1, 30];
        let scoped = try_pulp_run(&csr, &params, Some(&cold.parts), Some(&touched)).unwrap();
        assert!(is_valid_partition(&scoped.parts, 4));
        assert!(
            scoped.vertices_scored * 5 <= blind.vertices_scored.max(1),
            "touched-seeded warm run scored {} vertices, blind warm run {}",
            scoped.vertices_scored,
            blind.vertices_scored
        );
    }

    #[test]
    fn converged_warm_start_exits_on_an_empty_frontier() {
        // Warm-starting from an already-converged partition with an empty touched set
        // must do (almost) no work: the frontier never fills, so no sweep runs.
        let csr = grid_csr(20, 20);
        let params = PartitionParams {
            num_parts: 4,
            seed: 5,
            ..Default::default()
        };
        let cold = run_cold(&csr, &params);
        let warm = try_pulp_run(&csr, &params, Some(&cold.parts), Some(&[])).unwrap();
        assert_eq!(
            warm.parts, cold.parts,
            "an empty delta must not move anything"
        );
        assert_eq!(warm.lp_sweeps, 0, "no touched vertices, no sweeps");
        assert_eq!(warm.vertices_scored, 0);
    }

    #[test]
    fn warm_start_assigns_unassigned_vertices_greedily() {
        let csr = grid_csr(8, 8);
        let params = PartitionParams {
            num_parts: 2,
            warm_outer_iters: 0, // seed-only: isolates the greedy assignment
            seed: 1,
            ..Default::default()
        };
        // Left half part 0, right half part 1, two unassigned interior vertices.
        let mut initial: Vec<i32> = (0..64).map(|v| if v % 8 < 4 { 0 } else { 1 }).collect();
        initial[9] = UNASSIGNED; // column 1: all neighbours in part 0
        initial[14] = UNASSIGNED; // column 6: all neighbours in part 1
        let parts = PulpPartitioner
            .try_partition_from(&csr, &params, &initial)
            .unwrap();
        assert_eq!(parts[9], 0, "majority of assigned neighbours is part 0");
        assert_eq!(parts[14], 1, "majority of assigned neighbours is part 1");
        // Everything already assigned stays put under a seed-only schedule.
        for v in 0..64 {
            if initial[v] != UNASSIGNED {
                assert_eq!(parts[v], initial[v]);
            }
        }
    }

    #[test]
    fn warm_start_rejects_bad_vectors() {
        let csr = grid_csr(4, 4);
        let params = PartitionParams::with_parts(2);
        assert!(matches!(
            PulpPartitioner.try_partition_from(&csr, &params, &[0; 3]),
            Err(PartitionError::InvalidWarmStart { .. })
        ));
        let mut bad = vec![0i32; 16];
        bad[7] = 5; // out of range for 2 parts
        assert!(matches!(
            PulpPartitioner.try_partition_from(&csr, &params, &bad),
            Err(PartitionError::InvalidWarmStart { .. })
        ));
    }

    #[test]
    fn warm_start_is_deterministic() {
        let csr = grid_csr(12, 12);
        let params = PartitionParams {
            num_parts: 4,
            seed: 11,
            ..Default::default()
        };
        let mut initial = PulpPartitioner.partition(&csr, &params);
        initial[5] = UNASSIGNED;
        initial[77] = UNASSIGNED;
        let a = PulpPartitioner
            .try_partition_from(&csr, &params, &initial)
            .unwrap();
        let b = PulpPartitioner
            .try_partition_from(&csr, &params, &initial)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn single_objective_mode_skips_edge_stage() {
        let csr = grid_csr(12, 12);
        let params = PartitionParams {
            num_parts: 4,
            edge_balance_stage: false,
            seed: 3,
            ..Default::default()
        };
        let (parts, q) = PulpPartitioner.partition_with_quality(&csr, &params);
        assert!(is_valid_partition(&parts, 4));
        assert!(q.vertex_imbalance <= 1.25);
    }

    #[test]
    fn pulp_is_one_rank_xtrapulp_cold_and_warm() {
        let presets = [
            GraphKind::WebCrawl {
                num_vertices: 2048,
                avg_degree: 12,
                community_size: 128,
            },
            GraphKind::BarabasiAlbert {
                num_vertices: 2048,
                edges_per_vertex: 6,
            },
        ];
        let one_rank = XtraPulpPartitioner::new(1);
        for kind in presets {
            let csr = GraphConfig::new(kind, 31).generate().to_csr();
            let params = PartitionParams {
                num_parts: 8,
                seed: 31,
                ..Default::default()
            };
            let pulp = PulpPartitioner.partition(&csr, &params);
            assert_eq!(pulp, one_rank.partition(&csr, &params), "{kind:?}: cold");
            // Warm from a perturbed seed: some vertices unassigned, some relabelled.
            let mut seed = pulp.clone();
            for v in (0..seed.len()).step_by(17) {
                seed[v] = if v % 2 == 0 {
                    UNASSIGNED
                } else {
                    (seed[v] + 1) % 8
                };
            }
            let warm = PulpPartitioner
                .try_partition_from(&csr, &params, &seed)
                .unwrap();
            let reference = one_rank.try_partition_from(&csr, &params, &seed).unwrap();
            assert_eq!(warm, reference, "{kind:?}: warm");
        }
    }

    #[test]
    fn pulp_meets_the_balance_targets_on_rmat() {
        // Skewed R-MAT is where PuLP needs spill moves and the final rebalance pass to
        // reach the 1.10 targets.
        let csr = GraphConfig::new(
            GraphKind::Rmat {
                scale: 11,
                edge_factor: 16,
            },
            7,
        )
        .generate()
        .to_csr();
        let params = PartitionParams {
            num_parts: 8,
            seed: 7,
            ..Default::default()
        };
        let (parts, q) = PulpPartitioner.partition_with_quality(&csr, &params);
        assert!(is_valid_partition(&parts, 8));
        // One vertex of rounding on top of the 10% slack.
        let n = csr.num_vertices() as f64;
        let vertex_bound = 1.0 + params.vertex_imbalance + 8.0 / n;
        assert!(
            q.vertex_imbalance <= vertex_bound,
            "vertex imbalance {} above {vertex_bound}",
            q.vertex_imbalance
        );
        assert!(
            q.edge_imbalance <= 1.0 + params.edge_imbalance + 8.0 / n,
            "edge imbalance {}",
            q.edge_imbalance
        );
    }
}
