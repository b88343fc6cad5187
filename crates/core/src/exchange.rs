//! The boundary update exchange (`ExchangeUpdates`, Algorithm 3 of the paper).
//!
//! After a rank reassigns some of its owned vertices, every rank that keeps a ghost copy
//! of those vertices must learn the new part labels before the next iteration. The
//! graph's [`GhostPlan`](xtrapulp_graph::GhostPlan) already lists, for every owned
//! vertex, the `(peer, index)` of each ghost copy, so the sender ships
//! `(plan index, new_part)` pairs — 8 bytes each — with one `Alltoallv`, and the
//! receiver finds the ghost at that index of its `recv` list for the sender. Neither
//! side walks adjacency or translates global ids.

use xtrapulp_comm::{CodecError, RankCtx};
use xtrapulp_graph::{DistGraph, LocalId};

use crate::sweep::Frontier;

/// One part reassignment of an owned vertex.
pub type PartUpdate = (LocalId, i32);

/// The transpose of the owned→ghost adjacency: for every ghost vertex, the owned
/// vertices adjacent to it. The frontier-driven sweeps need it because an incoming
/// ghost part change must re-activate the owned neighbourhood of that ghost, and the
/// local CSR only stores adjacency for owned vertices. Built once per partitioning run
/// in `O(local arcs)`.
#[derive(Debug, Default)]
pub struct GhostNeighborMap {
    offsets: Vec<u32>,
    owned: Vec<LocalId>,
}

impl GhostNeighborMap {
    /// Build the map for this rank's graph.
    pub fn build(graph: &DistGraph) -> GhostNeighborMap {
        let n_owned = graph.n_owned();
        let n_ghost = graph.n_ghost();
        let mut counts = vec![0u32; n_ghost + 1];
        for v in 0..n_owned {
            for &u in graph.neighbors(v as LocalId) {
                if u as usize >= n_owned {
                    counts[u as usize - n_owned + 1] += 1;
                }
            }
        }
        for i in 0..n_ghost {
            counts[i + 1] += counts[i];
        }
        let mut owned = vec![0 as LocalId; counts[n_ghost] as usize];
        let mut cursor = counts.clone();
        for v in 0..n_owned {
            for &u in graph.neighbors(v as LocalId) {
                if u as usize >= n_owned {
                    let slot = u as usize - n_owned;
                    owned[cursor[slot] as usize] = v as LocalId;
                    cursor[slot] += 1;
                }
            }
        }
        GhostNeighborMap {
            offsets: counts,
            owned,
        }
    }

    /// The owned vertices adjacent to ghost slot `slot` (i.e. local id
    /// `n_owned + slot`).
    pub fn owned_neighbors(&self, slot: usize) -> &[LocalId] {
        let start = self.offsets[slot] as usize;
        let end = self.offsets[slot + 1] as usize;
        &self.owned[start..end]
    }
}

/// Push the part labels of locally reassigned vertices to the ranks holding them as
/// ghosts, and apply the symmetric incoming updates to this rank's ghost entries in
/// `parts`.
///
/// Returns the number of ghost labels updated locally. Must be called collectively.
pub fn push_part_updates(
    ctx: &RankCtx,
    graph: &DistGraph,
    updates: &[PartUpdate],
    parts: &mut [i32],
) -> u64 {
    push_part_updates_impl(ctx, graph, updates, parts, None)
}

/// [`push_part_updates`] variant that also feeds the frontier: every owned neighbour of
/// a ghost whose part label just changed is marked active for the next sweep — the
/// distributed half of "a vertex is enqueued when it or a neighbour changed part".
/// Must be called collectively.
pub fn push_part_updates_marking(
    ctx: &RankCtx,
    graph: &DistGraph,
    updates: &[PartUpdate],
    parts: &mut [i32],
    ghosts: &GhostNeighborMap,
    frontier: &mut Frontier,
) -> u64 {
    push_part_updates_impl(ctx, graph, updates, parts, Some((ghosts, frontier)))
}

fn push_part_updates_impl(
    ctx: &RankCtx,
    graph: &DistGraph,
    updates: &[PartUpdate],
    parts: &mut [i32],
    mut marking: Option<(&GhostNeighborMap, &mut Frontier)>,
) -> u64 {
    let plan = graph.plan();
    let mut sends: Vec<Vec<(u32, i32)>> = vec![Vec::new(); ctx.nranks()];
    for &(v, new_part) in updates {
        debug_assert!(graph.is_owned(v), "only owned vertices can be reassigned");
        for &(peer, index) in plan.copies(v) {
            sends[peer as usize].push((index, new_part));
        }
    }

    let n_owned = graph.n_owned();
    let mut applied = 0u64;
    for (src, buf) in ctx.alltoallv(sends).into_iter().enumerate() {
        let slots = plan.recv(src);
        for (index, new_part) in buf {
            let index = index as usize;
            let Some(&lid) = slots.get(index) else {
                ctx.reject_frame(
                    src,
                    CodecError::IndexOutOfRange {
                        index,
                        len: slots.len(),
                    },
                );
            };
            if let Some((ghosts, frontier)) = marking.as_mut() {
                if parts[lid as usize] != new_part {
                    for &v in ghosts.owned_neighbors(lid as usize - n_owned) {
                        frontier.mark(v);
                    }
                }
            }
            parts[lid as usize] = new_part;
            applied += 1;
        }
    }
    applied
}

/// Synchronise all ghost part labels by pulling them from their owners (used after
/// non-incremental initialisation, where every label may have changed).
pub fn refresh_ghost_parts(ctx: &RankCtx, graph: &DistGraph, parts: &mut [i32]) {
    let owned = parts[..graph.n_owned()].to_vec();
    let ghosts = graph.ghost_values_i32(ctx, &owned);
    parts[graph.n_owned()..graph.n_total()].copy_from_slice(&ghosts);
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtrapulp_comm::Runtime;
    use xtrapulp_graph::{Distribution, GlobalId};

    fn ring(n: u64) -> Vec<(GlobalId, GlobalId)> {
        (0..n).map(|i| (i, (i + 1) % n)).collect()
    }

    #[test]
    fn updates_reach_all_ghost_copies() {
        let edges = ring(12);
        Runtime::run(3, |ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 12, &edges);
            // Start with everything in part 0 everywhere.
            let mut parts = vec![0i32; g.n_total()];
            // Every rank moves its first owned vertex to part (rank + 1).
            let updates: Vec<PartUpdate> = if g.n_owned() > 0 {
                parts[0] = ctx.rank() as i32 + 1;
                vec![(0, ctx.rank() as i32 + 1)]
            } else {
                vec![]
            };
            push_part_updates(ctx, &g, &updates, &mut parts);
            // Every ghost label must now equal what its owner assigned: the owner's first
            // owned vertex got `owner_rank + 1`, all others stayed 0.
            for slot in 0..g.n_ghost() {
                let lid = (g.n_owned() + slot) as LocalId;
                let owner = g.owner_of_local(lid);
                let owner_first_global: GlobalId = g
                    .distribution()
                    .owned_vertices(owner, 12, ctx.nranks())
                    .next()
                    .unwrap();
                let expected = if g.global_id(lid) == owner_first_global {
                    owner as i32 + 1
                } else {
                    0
                };
                assert_eq!(parts[lid as usize], expected);
            }
        });
    }

    #[test]
    fn empty_update_lists_are_fine() {
        let edges = ring(8);
        Runtime::run(4, |ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Cyclic, 8, &edges);
            let mut parts = vec![3i32; g.n_total()];
            let applied = push_part_updates(ctx, &g, &[], &mut parts);
            assert_eq!(applied, 0);
            assert!(parts.iter().all(|&p| p == 3));
        });
    }

    #[test]
    fn refresh_ghost_parts_pulls_owner_labels() {
        let edges = ring(10);
        Runtime::run(2, |ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 10, &edges);
            let mut parts = vec![-1i32; g.n_total()];
            // Owners label their vertices with their global id.
            for (v, part) in parts.iter_mut().enumerate().take(g.n_owned()) {
                *part = g.global_id(v as LocalId) as i32;
            }
            refresh_ghost_parts(ctx, &g, &mut parts);
            for slot in 0..g.n_ghost() {
                let lid = (g.n_owned() + slot) as LocalId;
                assert_eq!(parts[lid as usize], g.global_id(lid) as i32);
            }
        });
    }

    #[test]
    fn pushed_updates_cost_eight_payload_bytes_each() {
        let edges = ring(12);
        Runtime::run(3, |ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 12, &edges);
            let mut parts = vec![0i32; g.n_total()];
            // Move every owned vertex: each update goes once to every ghost copy.
            let updates: Vec<PartUpdate> = g.owned_vertices().map(|v| (v, 1)).collect();
            let copies: usize = updates.iter().map(|&(v, _)| g.plan().copies(v).len()).sum();
            assert_eq!(
                copies, 2,
                "both ends of a 4-vertex block are ghosts next door"
            );
            let before = ctx.stats().bytes_sent();
            let applied = push_part_updates(ctx, &g, &updates, &mut parts);
            assert_eq!(ctx.stats().bytes_sent_since(before), 8 * copies as u64);
            assert_eq!(applied, g.n_ghost() as u64);
            assert!(parts[g.n_owned()..].iter().all(|&p| p == 1));
        });
    }

    #[test]
    fn single_rank_has_no_ghosts_to_update() {
        let edges = ring(6);
        Runtime::run(1, |ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 6, &edges);
            let mut parts = vec![0i32; g.n_total()];
            let updates: Vec<PartUpdate> = (0..g.n_owned() as LocalId).map(|v| (v, 1)).collect();
            for &(v, p) in &updates {
                parts[v as usize] = p;
            }
            let applied = push_part_updates(ctx, &g, &updates, &mut parts);
            assert_eq!(applied, 0);
        });
    }
}
