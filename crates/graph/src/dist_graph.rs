//! The per-rank distributed graph: owned vertices, ghosts, and a local CSR.
//!
//! This is the reproduction of XtraPuLP's distributed one-dimensional CSR-like
//! representation. Each rank owns a subset of vertices (given by a [`Distribution`]) and
//! stores:
//!
//! * the adjacency of its owned vertices, with neighbours referenced by *local id*;
//! * a *ghost* table for the one-hop neighbourhood owned by other ranks (global id,
//!   owning rank, and global degree of each ghost);
//! * a hash map translating global ids to local ids, and a flat array for the reverse
//!   direction — exactly the scheme the paper describes;
//! * a [`GhostPlan`] pairing every ghost with its owner's copy by index, so ghost
//!   values and part updates travel without global ids or hash lookups.
//!
//! Local ids are laid out as `[0, n_owned)` for owned vertices followed by
//! `[n_owned, n_owned + n_ghost)` for ghosts, so per-vertex state (part labels, BFS
//! levels, PageRank values, ...) can be kept in a single flat vector.

use std::collections::HashMap;

use xtrapulp_comm::{CodecError, RankCtx, WireElem};

use crate::plan::GhostPlan;
use crate::{Csr, Distribution, GlobalId, LocalId};

/// Marks a global id with no local id yet in the construction scratch map.
const NO_LOCAL: LocalId = LocalId::MAX;

/// A rank-local view of a globally distributed undirected graph.
#[derive(Debug, Clone)]
pub struct DistGraph {
    global_n: u64,
    global_m: u64,
    rank: usize,
    nranks: usize,
    dist: Distribution,
    /// Global id of each owned vertex; index is the local id.
    owned_global: Vec<GlobalId>,
    /// Global id of each ghost vertex; index is `local_id - n_owned`.
    ghost_global: Vec<GlobalId>,
    /// Owning rank of each ghost vertex.
    ghost_owner: Vec<u32>,
    /// Global degree of each ghost vertex.
    ghost_degree: Vec<u64>,
    global_to_local: HashMap<GlobalId, LocalId>,
    /// Index-addressed routing of ghost values between owners and ghost copies.
    plan: GhostPlan,
    /// CSR offsets over owned vertices (length `n_owned + 1`).
    offsets: Vec<u64>,
    /// CSR adjacency in local ids (owned or ghost).
    adjacency: Vec<LocalId>,
}

impl DistGraph {
    // --------------------------------------------------------------------------------
    // Construction
    // --------------------------------------------------------------------------------

    /// Build the local graph from a globally shared undirected edge list.
    ///
    /// Every rank scans the same `edges` slice and keeps the arcs whose source it owns.
    /// This is the cheapest construction path when the whole edge list fits in shared
    /// memory (which is always the case in this reproduction).
    pub fn from_shared_edges(
        ctx: &RankCtx,
        dist: Distribution,
        global_n: u64,
        edges: &[(GlobalId, GlobalId)],
    ) -> Self {
        let rank = ctx.rank();
        let nranks = ctx.nranks();
        let mut arcs = Vec::new();
        for &(u, v) in edges {
            if u == v || u >= global_n || v >= global_n {
                continue;
            }
            if dist.owner(u, global_n, nranks) == rank {
                arcs.push((u, v));
            }
            if dist.owner(v, global_n, nranks) == rank {
                arcs.push((v, u));
            }
        }
        Self::from_owned_arcs(ctx, dist, global_n, arcs)
    }

    /// Build the local graph from a globally shared [`Csr`].
    ///
    /// Rows may be unsorted or carry duplicates and self-loops (as
    /// [`Csr::from_parts`] allows); construction normalises them.
    pub fn from_csr(ctx: &RankCtx, dist: Distribution, csr: &Csr) -> Self {
        let global_n = csr.num_vertices() as u64;
        let owned_global = dist
            .owned_vertices(ctx.rank(), global_n, ctx.nranks())
            .collect();
        Self::from_rows(ctx, dist, global_n, owned_global, |_, u, row| {
            row.extend_from_slice(csr.neighbors(u))
        })
    }

    /// Build the local graph when each rank holds an arbitrary chunk of the global edge
    /// list (e.g. each rank generated part of the graph). Edges are shuffled to the
    /// owners of both endpoints with an all-to-all exchange, mirroring how the original
    /// code ingests distributed graph files.
    pub fn from_local_edges(
        ctx: &RankCtx,
        dist: Distribution,
        global_n: u64,
        edges: Vec<(GlobalId, GlobalId)>,
    ) -> Self {
        let rank = ctx.rank();
        let nranks = ctx.nranks();
        let mut sends: Vec<Vec<(GlobalId, GlobalId)>> = vec![Vec::new(); nranks];
        let mut my_arcs = Vec::new();
        for (u, v) in edges {
            if u == v || u >= global_n || v >= global_n {
                continue;
            }
            let ou = dist.owner(u, global_n, nranks);
            let ov = dist.owner(v, global_n, nranks);
            if ou == rank {
                my_arcs.push((u, v));
            } else {
                sends[ou].push((u, v));
            }
            if ov == rank {
                my_arcs.push((v, u));
            } else {
                sends[ov].push((v, u));
            }
        }
        let received = ctx.alltoallv(sends);
        for buf in received {
            my_arcs.extend(buf);
        }
        Self::from_owned_arcs(ctx, dist, global_n, my_arcs)
    }

    /// Build from directed arcs whose source is owned by this rank. Duplicates are
    /// removed; ghost metadata (owner, degree) is fetched collectively.
    fn from_owned_arcs(
        ctx: &RankCtx,
        dist: Distribution,
        global_n: u64,
        mut arcs: Vec<(GlobalId, GlobalId)>,
    ) -> Self {
        let owned_global = dist
            .owned_vertices(ctx.rank(), global_n, ctx.nranks())
            .collect();
        arcs.sort_unstable();
        // Sorted by source, so each owned vertex's row is the next run of arcs.
        let mut rest = arcs.as_slice();
        Self::from_rows(ctx, dist, global_n, owned_global, |_, u, row| {
            while let Some((&(a, v), tail)) = rest.split_first() {
                if a > u {
                    break;
                }
                if a == u {
                    row.push(v);
                }
                rest = tail;
            }
        })
    }

    /// Construction core shared by every constructor: streams each owned vertex's row
    /// straight into the local CSR, then builds the ghost exchange plan.
    ///
    /// `fill_row(lu, gu, row)` appends the neighbour global ids of owned vertex `gu`
    /// (local id `lu`) to the empty `row`, in any order, possibly with duplicates and
    /// self-loops, which are dropped here. `owned_global` must be ascending, so ghost
    /// local ids are assigned in first-seen order over rows sorted by `(u, v)`.
    fn from_rows(
        ctx: &RankCtx,
        dist: Distribution,
        global_n: u64,
        owned_global: Vec<GlobalId>,
        mut fill_row: impl FnMut(usize, GlobalId, &mut Vec<GlobalId>),
    ) -> Self {
        let rank = ctx.rank();
        let nranks = ctx.nranks();
        let n_owned = owned_global.len();

        // Dense global→local scratch map. The input graph or delta is global on every
        // rank, so a `global_n`-sized table adds no asymptotic memory, and it replaces
        // the per-arc hashing a map keyed by global id would cost.
        let mut local_of = vec![NO_LOCAL; global_n as usize];
        for (lid, &g) in owned_global.iter().enumerate() {
            local_of[g as usize] = lid as LocalId;
        }
        let mut offsets = Vec::with_capacity(n_owned + 1);
        offsets.push(0u64);
        let mut adjacency: Vec<LocalId> = Vec::new();
        let mut ghost_global: Vec<GlobalId> = Vec::new();
        let mut row = Vec::new();
        for (lu, &gu) in owned_global.iter().enumerate() {
            row.clear();
            fill_row(lu, gu, &mut row);
            if !row.is_sorted() {
                row.sort_unstable();
            }
            row.dedup();
            for &gv in &row {
                if gv == gu {
                    continue;
                }
                let lid = &mut local_of[gv as usize];
                if *lid == NO_LOCAL {
                    *lid = (n_owned + ghost_global.len()) as LocalId;
                    ghost_global.push(gv);
                }
                adjacency.push(*lid);
            }
            offsets.push(adjacency.len() as u64);
        }

        let ghost_owner: Vec<u32> = ghost_global
            .iter()
            .map(|&g| dist.owner(g, global_n, nranks) as u32)
            .collect();
        let mut global_to_local = HashMap::with_capacity(n_owned + ghost_global.len());
        for (lid, &g) in owned_global.iter().chain(&ghost_global).enumerate() {
            global_to_local.insert(g, lid as LocalId);
        }

        // Global undirected edge count: every arc's source is owned by exactly one rank,
        // and each undirected edge produces two arcs overall.
        let local_arcs = adjacency.len() as u64;
        let global_m = ctx.allreduce_scalar_sum_u64(local_arcs) / 2;

        // The exchange plan. Each rank asks the owners for its ghosts in slot order; an
        // owner's translation of that request is its `send` list for the asker.
        let mut requests: Vec<Vec<GlobalId>> = vec![Vec::new(); nranks];
        let mut recv: Vec<Vec<LocalId>> = vec![Vec::new(); nranks];
        for (slot, (&g, &owner)) in ghost_global.iter().zip(&ghost_owner).enumerate() {
            requests[owner as usize].push(g);
            recv[owner as usize].push((n_owned + slot) as LocalId);
        }
        // Every rank computes owners with the same distribution, so a request only
        // names vertices this rank owns. Anything else is skipped, never indexed, and
        // the shortened list fails the asker's length check in the degree pull below.
        let send: Vec<Vec<LocalId>> = ctx
            .alltoallv(requests)
            .into_iter()
            .map(|wanted| {
                wanted
                    .into_iter()
                    .filter_map(|g| {
                        let lid = *local_of.get(usize::try_from(g).ok()?)?;
                        ((lid as usize) < n_owned).then_some(lid)
                    })
                    .collect()
            })
            .collect();
        drop(local_of);

        let mut graph = DistGraph {
            global_n,
            global_m,
            rank,
            nranks,
            dist,
            plan: GhostPlan::new(n_owned, send, recv),
            owned_global,
            ghost_global,
            ghost_owner,
            ghost_degree: Vec::new(),
            global_to_local,
            offsets,
            adjacency,
        };

        // Ghost global degrees weight the balance phase's neighbour counts; they ride the
        // plan like every other ghost value.
        let owned_degrees: Vec<u64> = (0..graph.n_owned())
            .map(|v| graph.degree_owned(v as LocalId))
            .collect();
        graph.ghost_degree = graph.ghost_values_u64(ctx, &owned_degrees);
        graph.account_ghosts();
        graph
    }

    // --------------------------------------------------------------------------------
    // Delta application
    // --------------------------------------------------------------------------------

    /// Apply a [`GraphDelta`](crate::delta::GraphDelta) collectively, producing the
    /// updated per-rank graph.
    ///
    /// When vertex ownership is stable under the delta (always for `Cyclic`, `Hashed`
    /// and `Explicit` distributions; for `Block` when no vertices are added), the rebuild
    /// is incremental: owned local ids are preserved, and each owned vertex's sorted
    /// adjacency row is merged with the delta in one linear pass and streamed through the
    /// same construction core as a cold build, which re-assigns ghost slots, rebuilds the
    /// exchange plan and re-fetches the ghost metadata (owner, degree). Growing a `Block`
    /// distribution shifts the ownership of existing vertices, so that case falls back to
    /// migrating the surviving arcs to their new owners with one all-to-all exchange —
    /// still without touching the original edge list. Growing an `Explicit` distribution extends its ownership
    /// table by hashing the new tail vertices to ranks ([`Distribution::grown`]):
    /// existing owners are untouched, so the incremental path applies.
    ///
    /// Every rank must pass an identical delta. Must be called collectively.
    ///
    /// # Panics
    ///
    /// Panics if the delta's base vertex count does not match.
    pub fn apply_delta(&self, ctx: &RankCtx, delta: &crate::delta::GraphDelta) -> Self {
        assert_eq!(
            delta.base_n(),
            self.global_n,
            "delta was built against a graph with {} vertices, this graph has {}",
            delta.base_n(),
            self.global_n
        );
        let stable = match &self.dist {
            Distribution::Cyclic | Distribution::Hashed | Distribution::Explicit(_) => true,
            Distribution::Block => delta.added_vertices() == 0,
        };
        if stable {
            self.apply_delta_stable(ctx, delta)
        } else {
            self.apply_delta_migrating(ctx, delta)
        }
    }

    /// Incremental rebuild for deltas that do not move any existing vertex between ranks.
    fn apply_delta_stable(&self, ctx: &RankCtx, delta: &crate::delta::GraphDelta) -> Self {
        let nranks = self.nranks;
        let new_n = delta.new_n();
        // Deterministic and prefix-stable, so existing owners are unchanged and every
        // rank agrees on the owners of the new tail (a no-op clone for the functional
        // distributions and for non-growing deltas).
        let dist = self.dist.grown(new_n, nranks);

        // Owned vertices: the old set is preserved (ownership is stable), new vertices
        // owned by this rank are appended, keeping owned local ids valid and sorted.
        let mut owned_global = self.owned_global.clone();
        let old_n_owned = owned_global.len();
        owned_global
            .extend((self.global_n..new_n).filter(|&g| dist.owner(g, new_n, nranks) == self.rank));

        // Merge each owned row with the delta in global-id space. Rows are sorted by
        // neighbour global id, so this is linear and the merged row needs no sort.
        Self::from_rows(ctx, dist, new_n, owned_global, |lu, gu, row| {
            if lu < old_n_owned {
                crate::delta::merge_row(
                    self.neighbors(lu as LocalId)
                        .iter()
                        .map(|&lv| self.global_id(lv)),
                    delta.inserts_from(gu),
                    delta.deletes_from(gu),
                    row,
                );
            } else {
                row.extend(delta.inserts_from(gu).iter().map(|&(_, v)| v));
            }
        })
    }

    /// Migration rebuild for deltas that shift existing-vertex ownership (growing a
    /// `Block` distribution): surviving arcs are shuffled to their new owners, insertion
    /// arcs are claimed directly by their new owners (the delta is globally shared).
    fn apply_delta_migrating(&self, ctx: &RankCtx, delta: &crate::delta::GraphDelta) -> Self {
        let rank = self.rank;
        let nranks = self.nranks;
        let new_n = delta.new_n();
        let mut sends: Vec<Vec<(GlobalId, GlobalId)>> = vec![Vec::new(); nranks];
        let mut mine: Vec<(GlobalId, GlobalId)> = Vec::new();
        for lu in 0..self.n_owned() {
            let gu = self.owned_global[lu];
            let new_owner = self.dist.owner(gu, new_n, nranks);
            for &lv in self.neighbors(lu as LocalId) {
                let gv = self.global_id(lv);
                if delta.is_deleted(gu, gv) {
                    continue;
                }
                if new_owner == rank {
                    mine.push((gu, gv));
                } else {
                    sends[new_owner].push((gu, gv));
                }
            }
        }
        for &(u, v) in delta.insert_arcs() {
            if self.dist.owner(u, new_n, nranks) == rank {
                mine.push((u, v));
            }
        }
        for buf in ctx.alltoallv(sends) {
            mine.extend(buf);
        }
        Self::from_owned_arcs(ctx, self.dist.clone(), new_n, mine)
    }

    // --------------------------------------------------------------------------------
    // Sizes and identity
    // --------------------------------------------------------------------------------

    /// Number of vertices owned by this rank.
    pub fn n_owned(&self) -> usize {
        self.owned_global.len()
    }

    /// Number of ghost vertices (neighbours owned by other ranks).
    pub fn n_ghost(&self) -> usize {
        self.ghost_global.len()
    }

    /// Owned plus ghost vertices: the length required for per-vertex state vectors.
    pub fn n_total(&self) -> usize {
        self.n_owned() + self.n_ghost()
    }

    /// Number of vertices in the global graph.
    pub fn global_n(&self) -> u64 {
        self.global_n
    }

    /// Number of undirected edges in the global graph.
    pub fn global_m(&self) -> u64 {
        self.global_m
    }

    /// Number of directed arcs stored on this rank (the local workload measure the edge
    /// balance phase equalises).
    pub fn local_arcs(&self) -> u64 {
        self.adjacency.len() as u64
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks the graph is distributed over.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// The ownership function used to distribute the graph.
    pub fn distribution(&self) -> Distribution {
        self.dist.clone()
    }

    /// Approximate heap footprint of this rank's ghost tables in bytes: the
    /// ghost global-id, owner, and degree arrays, the ghosts' share of the
    /// global→local map (keyed entries at ~24 bytes each with hash-table
    /// overhead), and the exchange plan's `send`/`recv` and `(peer, index)`
    /// arrays.
    pub fn ghost_bytes(&self) -> u64 {
        let n_ghost = self.ghost_global.len() as u64;
        n_ghost * (8 + 4 + 8) + n_ghost * 24 + self.plan.approx_bytes()
    }

    /// Approximate heap footprint of the whole rank-local graph in bytes:
    /// owned-id and CSR arrays, the full global→local map, and
    /// [`ghost_bytes`](DistGraph::ghost_bytes).
    pub fn approx_bytes(&self) -> u64 {
        let owned = self.owned_global.len() as u64 * (8 + 24); // ids + map share
        let csr = self.offsets.len() as u64 * 8 + self.adjacency.len() as u64 * 4;
        owned + csr + self.ghost_bytes()
    }

    /// Publish this rank's ghost-table bytes to the memory-accounting plane
    /// (`mem_bytes{subsystem="ghost_tables_rank<r>"}`). Called on every
    /// (re)build so the gauge tracks the latest epoch's tables.
    fn account_ghosts(&self) {
        xtrapulp_obs::mem::set(
            &format!("ghost_tables_rank{}", self.rank),
            self.ghost_bytes(),
        );
    }

    // --------------------------------------------------------------------------------
    // Topology accessors
    // --------------------------------------------------------------------------------

    /// Neighbours (as local ids) of an owned vertex.
    pub fn neighbors(&self, v: LocalId) -> &[LocalId] {
        debug_assert!(
            (v as usize) < self.n_owned(),
            "neighbors() requires an owned vertex"
        );
        let start = self.offsets[v as usize] as usize;
        let end = self.offsets[v as usize + 1] as usize;
        &self.adjacency[start..end]
    }

    /// Degree of an owned vertex.
    pub fn degree_owned(&self, v: LocalId) -> u64 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Degree of any local vertex: the local degree for owned vertices, the global degree
    /// (fetched from the owner at construction time) for ghosts.
    pub fn degree(&self, v: LocalId) -> u64 {
        let v = v as usize;
        if v < self.n_owned() {
            self.degree_owned(v as LocalId)
        } else {
            self.ghost_degree[v - self.n_owned()]
        }
    }

    /// Is this local id an owned vertex (as opposed to a ghost)?
    pub fn is_owned(&self, v: LocalId) -> bool {
        (v as usize) < self.n_owned()
    }

    /// Global id of a local vertex (owned or ghost).
    pub fn global_id(&self, v: LocalId) -> GlobalId {
        let v = v as usize;
        if v < self.n_owned() {
            self.owned_global[v]
        } else {
            self.ghost_global[v - self.n_owned()]
        }
    }

    /// Local id of a global vertex if it is known to this rank (owned or ghost).
    pub fn local_id(&self, g: GlobalId) -> Option<LocalId> {
        self.global_to_local.get(&g).copied()
    }

    /// The rank that owns a local vertex.
    pub fn owner_of_local(&self, v: LocalId) -> usize {
        let v = v as usize;
        if v < self.n_owned() {
            self.rank
        } else {
            self.ghost_owner[v - self.n_owned()] as usize
        }
    }

    /// The rank that owns a global vertex.
    pub fn owner_of_global(&self, g: GlobalId) -> usize {
        self.dist.owner(g, self.global_n, self.nranks)
    }

    /// Iterate over owned vertices as local ids.
    pub fn owned_vertices(&self) -> impl Iterator<Item = LocalId> + '_ {
        0..self.n_owned() as LocalId
    }

    /// Global ids of this rank's ghosts, indexed by `local_id - n_owned()`.
    pub fn ghost_globals(&self) -> &[GlobalId] {
        &self.ghost_global
    }

    /// The ghost exchange plan: which owned vertices each peer holds as ghosts, and
    /// which ghosts each peer owns, paired by index.
    pub fn plan(&self) -> &GhostPlan {
        &self.plan
    }

    // --------------------------------------------------------------------------------
    // Ghost exchange
    // --------------------------------------------------------------------------------

    /// Pull one `u64` value per ghost vertex from the ghosts' owners.
    ///
    /// `owned_values[v]` must hold the value of owned vertex `v` on every rank. The
    /// result is indexed by ghost slot (`local_id - n_owned()`).
    pub fn ghost_values_u64(&self, ctx: &RankCtx, owned_values: &[u64]) -> Vec<u64> {
        self.ghost_values_with(ctx, |v| owned_values[v as usize])
    }

    /// Pull one `f64` value per ghost vertex from the ghosts' owners.
    pub fn ghost_values_f64(&self, ctx: &RankCtx, owned_values: &[f64]) -> Vec<f64> {
        self.ghost_values_with(ctx, |v| owned_values[v as usize])
    }

    /// Pull one `i32` value per ghost vertex from the ghosts' owners (used for part
    /// labels and component/level ids).
    pub fn ghost_values_i32(&self, ctx: &RankCtx, owned_values: &[i32]) -> Vec<i32> {
        self.ghost_values_with(ctx, |v| owned_values[v as usize])
    }

    /// Generic ghost exchange over the [`GhostPlan`]: every owner pushes
    /// `value_of(local_owned_id)` for each entry of its `send` lists, and every rank
    /// scatters what arrives into the matching `recv` slots. One `alltoallv`, no global
    /// ids on the wire, no hash lookups.
    pub fn ghost_values_with<T, F>(&self, ctx: &RankCtx, value_of: F) -> Vec<T>
    where
        T: WireElem + Default,
        F: Fn(LocalId) -> T,
    {
        let pushed: Vec<Vec<T>> = (0..self.nranks)
            .map(|t| self.plan.send(t).iter().map(|&v| value_of(v)).collect())
            .collect();
        let n_owned = self.n_owned();
        let mut out = vec![T::default(); self.n_ghost()];
        for (owner, values) in ctx.alltoallv(pushed).into_iter().enumerate() {
            let slots = self.plan.recv(owner);
            // One value per entry of the owner's `send` list for this rank, which pairs
            // index by index with `slots`; any other length is a broken plan.
            if values.len() != slots.len() {
                ctx.reject_frame(
                    owner,
                    CodecError::BadLength {
                        expected: slots.len() * T::SIZE,
                        got: values.len() * T::SIZE,
                    },
                );
            }
            for (&lid, value) in slots.iter().zip(values) {
                out[lid as usize - n_owned] = value;
            }
        }
        out
    }

    /// Convenience: extend a per-owned-vertex state vector to cover ghosts too, by
    /// pulling ghost values from their owners. The result has length `n_total()`.
    pub fn extend_with_ghosts_u64(&self, ctx: &RankCtx, owned_values: &[u64]) -> Vec<u64> {
        let mut full = owned_values.to_vec();
        full.extend(self.ghost_values_u64(ctx, owned_values));
        full
    }

    /// Cut statistics for a local part assignment covering owned + ghost vertices:
    /// returns `(local_cut_arcs, per_part_cut_arcs)` where a cut arc is an owned arc
    /// whose endpoints are in different parts.
    pub fn local_cut(&self, parts: &[i32], num_parts: usize) -> (u64, Vec<u64>) {
        assert!(parts.len() >= self.n_total());
        let mut cut = 0u64;
        let mut per_part = vec![0u64; num_parts];
        for v in 0..self.n_owned() {
            let pv = parts[v];
            for &u in self.neighbors(v as LocalId) {
                let pu = parts[u as usize];
                if pv != pu {
                    cut += 1;
                    if pv >= 0 {
                        per_part[pv as usize] += 1;
                    }
                    if pu >= 0 {
                        per_part[pu as usize] += 1;
                    }
                }
            }
        }
        (cut, per_part)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr_from_edges;
    use xtrapulp_comm::Runtime;

    /// A small graph used across tests: two triangles joined by one bridge edge.
    ///   0-1-2-0   3-4-5-3   2-3 bridge
    fn two_triangles() -> Vec<(GlobalId, GlobalId)> {
        vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]
    }

    #[test]
    fn single_rank_holds_whole_graph() {
        let edges = two_triangles();
        let out = Runtime::run(1, |ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 6, &edges);
            (g.n_owned(), g.n_ghost(), g.global_m(), g.local_arcs())
        });
        assert_eq!(out[0], (6, 0, 7, 14));
    }

    #[test]
    fn multi_rank_block_distribution_builds_ghosts() {
        let edges = two_triangles();
        let out = Runtime::run(2, |ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 6, &edges);
            assert_eq!(g.global_n(), 6);
            assert_eq!(g.global_m(), 7);
            assert_eq!(g.n_owned(), 3);
            // Rank 0 owns {0,1,2}; vertex 2's neighbour 3 is a ghost. Symmetrically for rank 1.
            assert_eq!(g.n_ghost(), 1);
            let ghost_global = g.ghost_globals()[0];
            let expected_ghost = if ctx.rank() == 0 { 3 } else { 2 };
            assert_eq!(ghost_global, expected_ghost);
            // Ghost degree equals the global degree of the bridge endpoint (3).
            assert_eq!(g.degree(g.n_owned() as LocalId), 3);
            g.local_arcs()
        });
        assert_eq!(out.iter().sum::<u64>(), 14);
    }

    /// Block, Cyclic, Hashed and an Explicit table that matches none of them.
    fn all_distributions(n: u64, nranks: usize) -> Vec<Distribution> {
        let owners: Vec<i32> = (0..n)
            .map(|v| ((v * 7 + 3) % nranks as u64) as i32)
            .collect();
        vec![
            Distribution::Block,
            Distribution::Cyclic,
            Distribution::Hashed,
            Distribution::from_parts(&owners),
        ]
    }

    #[test]
    fn from_csr_and_from_shared_edges_agree() {
        let edges = two_triangles();
        let clean = csr_from_edges(6, &edges);
        // The same graph with unsorted rows, duplicates and self-loops, all of which
        // `Csr::from_parts` accepts and construction must normalise away.
        let messy = Csr::from_parts(
            vec![0, 3, 6, 11, 15, 17, 19],
            vec![
                2, 1, 2, // 0
                2, 0, 0, // 1
                3, 1, 2, 0, 1, // 2
                5, 4, 2, 3, // 3
                5, 3, // 4
                4, 3, // 5
            ],
        );
        for nranks in [1usize, 2, 3] {
            for dist in all_distributions(6, nranks) {
                Runtime::run(nranks, |ctx| {
                    let shared = DistGraph::from_shared_edges(ctx, dist.clone(), 6, &edges);
                    for csr in [&clean, &messy] {
                        assert_same_graph(&DistGraph::from_csr(ctx, dist.clone(), csr), &shared);
                    }
                });
            }
        }
    }

    /// A 40-vertex graph with a ring, strided chords and a hub, so every rank pair
    /// exchanges ghosts on up to 8 ranks under each distribution.
    fn plan_graph() -> Vec<(GlobalId, GlobalId)> {
        let mut edges: Vec<_> = (0..40u64).map(|i| (i, (i + 1) % 40)).collect();
        edges.extend((0..40u64).map(|i| (i, (i * 7 + 3) % 40)));
        edges.extend((1..40u64).step_by(3).map(|i| (0, i)));
        edges
    }

    /// One rank's plan in global ids: `(send, recv)` lists per peer.
    type PlanGlobals = (Vec<Vec<GlobalId>>, Vec<Vec<GlobalId>>);

    /// Check the plan's rank-local invariants and return it in global ids.
    fn plan_globals(g: &DistGraph) -> PlanGlobals {
        let plan = g.plan();
        let mut covered = vec![false; g.n_ghost()];
        for t in 0..g.nranks() {
            for &lid in plan.recv(t) {
                assert_eq!(
                    g.owner_of_local(lid),
                    t,
                    "recv[{t}] holds a ghost of rank {t}"
                );
                let slot = lid as usize - g.n_owned();
                assert!(!covered[slot], "ghost slot {slot} listed twice");
                covered[slot] = true;
            }
            for (index, &v) in plan.send(t).iter().enumerate() {
                assert!(g.is_owned(v));
                assert!(plan.copies(v).contains(&(t as u32, index as u32)));
            }
        }
        assert!(covered.iter().all(|&c| c), "every ghost has an owner entry");
        let copies: usize = g.owned_vertices().map(|v| plan.copies(v).len()).sum();
        let sent: usize = (0..g.nranks()).map(|t| plan.send(t).len()).sum();
        assert_eq!(copies, sent, "copies() is the transpose of send()");
        let ids =
            |list: &[LocalId]| -> Vec<GlobalId> { list.iter().map(|&v| g.global_id(v)).collect() };
        (
            (0..g.nranks()).map(|t| ids(plan.send(t))).collect(),
            (0..g.nranks()).map(|t| ids(plan.recv(t))).collect(),
        )
    }

    #[test]
    fn exchange_plan_pairs_every_ghost_with_its_owner() {
        use crate::delta::GraphDelta;
        let edges = plan_graph();
        let csr = csr_from_edges(40, &edges);
        // Without growth every distribution takes the stable path; growth makes `Block`
        // migrate while the others stay stable.
        let deltas = [
            GraphDelta::new(40, 0, &[(1, 20), (5, 33)], &[(0, 1), (3, 24)]),
            GraphDelta::new(40, 3, &[(40, 0), (41, 17), (42, 40)], &[(10, 11)]),
        ];
        for nranks in [1usize, 2, 3, 8] {
            for dist in all_distributions(40, nranks) {
                let built = Runtime::run(nranks, |ctx| {
                    let chunk: Vec<_> = edges
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i % nranks == ctx.rank())
                        .map(|(_, &e)| e)
                        .collect();
                    let shared = DistGraph::from_shared_edges(ctx, dist.clone(), 40, &edges);
                    let mut graphs = vec![
                        DistGraph::from_csr(ctx, dist.clone(), &csr),
                        DistGraph::from_local_edges(ctx, dist.clone(), 40, chunk),
                    ];
                    graphs.extend(deltas.iter().map(|d| shared.apply_delta(ctx, d)));
                    graphs.push(shared);
                    graphs.iter().map(plan_globals).collect::<Vec<_>>()
                });
                for build in 0..built[0].len() {
                    for (owner, plans) in built.iter().enumerate() {
                        for (t, peer) in built.iter().enumerate() {
                            assert_eq!(
                                plans[build].0[t], peer[build].1[owner],
                                "{dist:?} on {nranks} ranks, build {build}: send[{t}] on \
                                 rank {owner} vs recv[{owner}] on rank {t}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn from_local_edges_shuffles_to_owners() {
        let edges = two_triangles();
        let out = Runtime::run(3, |ctx| {
            // Each rank starts with a disjoint slice of the edge list.
            let chunk: Vec<_> = edges
                .iter()
                .enumerate()
                .filter(|(i, _)| i % ctx.nranks() == ctx.rank())
                .map(|(_, &e)| e)
                .collect();
            let g = DistGraph::from_local_edges(ctx, Distribution::Block, 6, chunk);
            let h = DistGraph::from_shared_edges(ctx, Distribution::Block, 6, &edges);
            assert_eq!(g.local_arcs(), h.local_arcs());
            assert_eq!(g.n_ghost(), h.n_ghost());
            g.global_m()
        });
        assert!(out.iter().all(|&m| m == 7));
    }

    #[test]
    fn duplicate_and_self_loop_edges_are_cleaned() {
        let mut edges = two_triangles();
        edges.push((0, 1));
        edges.push((1, 0));
        edges.push((4, 4));
        let out = Runtime::run(2, |ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 6, &edges);
            g.global_m()
        });
        assert!(out.iter().all(|&m| m == 7));
    }

    #[test]
    fn global_local_id_round_trip() {
        let edges = two_triangles();
        Runtime::run(3, |ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Hashed, 6, &edges);
            for v in 0..g.n_total() as LocalId {
                let gid = g.global_id(v);
                assert_eq!(g.local_id(gid), Some(v));
            }
            for v in g.owned_vertices() {
                assert!(g.is_owned(v));
                assert_eq!(g.owner_of_local(v), ctx.rank());
                assert_eq!(g.owner_of_global(g.global_id(v)), ctx.rank());
            }
            for ghost_slot in 0..g.n_ghost() {
                let lid = (g.n_owned() + ghost_slot) as LocalId;
                assert!(!g.is_owned(lid));
                assert_ne!(g.owner_of_local(lid), ctx.rank());
            }
        });
    }

    #[test]
    fn ghost_degrees_match_global_degrees() {
        let edges = two_triangles();
        let csr = csr_from_edges(6, &edges);
        Runtime::run(3, |ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Cyclic, 6, &edges);
            for slot in 0..g.n_ghost() {
                let lid = (g.n_owned() + slot) as LocalId;
                assert_eq!(g.degree(lid), csr.degree(g.global_id(lid)));
            }
        });
    }

    #[test]
    fn ghost_values_pull_owner_values() {
        let edges = two_triangles();
        Runtime::run(2, |ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 6, &edges);
            // Every owned vertex's value is 1000 + its global id.
            let owned: Vec<u64> = (0..g.n_owned())
                .map(|v| 1000 + g.global_id(v as LocalId))
                .collect();
            let before = ctx.stats().alltoallv_calls();
            let ghosts = g.ghost_values_u64(ctx, &owned);
            assert_eq!(
                ctx.stats().alltoallv_calls() - before,
                1,
                "one round per pull"
            );
            for (slot, &gv) in ghosts.iter().enumerate() {
                assert_eq!(gv, 1000 + g.ghost_globals()[slot]);
            }
            let full = g.extend_with_ghosts_u64(ctx, &owned);
            assert_eq!(full.len(), g.n_total());
        });
    }

    #[test]
    fn ranks_that_disagree_on_the_plan_fail_typed() {
        use xtrapulp_comm::{CommError, TransportError};
        let edges = two_triangles();
        let mut rt = Runtime::new(2);
        // Ranks must share one distribution. Here they do not, so rank 0 cannot place
        // one of rank 1's ghost requests and the ghost-degree pull comes up short.
        let err = rt
            .try_execute(|ctx| {
                let dist = if ctx.rank() == 0 {
                    Distribution::Block
                } else {
                    Distribution::Cyclic
                };
                DistGraph::from_shared_edges(ctx, dist, 6, &edges).n_ghost()
            })
            .unwrap_err();
        assert!(
            matches!(
                err,
                CommError::Transport(TransportError::Codec {
                    peer: 0,
                    source: CodecError::BadLength {
                        expected: 24,
                        got: 16
                    }
                })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn local_cut_counts_cut_arcs() {
        let edges = two_triangles();
        let out = Runtime::run(2, |ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 6, &edges);
            // Parts: global vertices 0..2 in part 0, 3..5 in part 1 -> only the bridge is cut.
            let parts: Vec<i32> = (0..g.n_total() as LocalId)
                .map(|v| if g.global_id(v) < 3 { 0 } else { 1 })
                .collect();
            let (cut, per_part) = g.local_cut(&parts, 2);
            (cut, per_part)
        });
        // Each rank sees the bridge arc once (from its owned endpoint).
        let total_cut: u64 = out.iter().map(|(c, _)| c).sum();
        assert_eq!(total_cut, 2); // one undirected edge seen as one arc per rank
        for (_, per_part) in &out {
            assert_eq!(per_part.len(), 2);
        }
    }

    /// Assert that `updated` is structurally identical to a from-scratch build of the
    /// post-delta edge list: same ownership, ghosts, degrees and per-vertex adjacency.
    fn assert_same_graph(a: &DistGraph, b: &DistGraph) {
        assert_eq!(a.global_n(), b.global_n());
        assert_eq!(a.global_m(), b.global_m());
        assert_eq!(a.n_owned(), b.n_owned());
        assert_eq!(a.n_ghost(), b.n_ghost());
        assert_eq!(a.local_arcs(), b.local_arcs());
        for v in 0..a.n_total() as LocalId {
            assert_eq!(a.global_id(v), b.global_id(v));
            assert_eq!(a.degree(v), b.degree(v));
        }
        for v in 0..a.n_owned() as LocalId {
            let na: Vec<GlobalId> = a.neighbors(v).iter().map(|&u| a.global_id(u)).collect();
            let nb: Vec<GlobalId> = b.neighbors(v).iter().map(|&u| b.global_id(u)).collect();
            assert_eq!(na, nb);
        }
        for v in 0..a.n_total() as LocalId {
            assert_eq!(a.local_id(a.global_id(v)), Some(v));
            assert_eq!(a.owner_of_local(v), b.owner_of_local(v));
        }
        for t in 0..a.nranks() {
            assert_eq!(a.plan().send(t), b.plan().send(t));
            assert_eq!(a.plan().recv(t), b.plan().recv(t));
        }
    }

    #[test]
    fn apply_delta_stable_matches_from_scratch() {
        use crate::delta::GraphDelta;
        let edges = two_triangles();
        // Delete the bridge, insert a new bridge and grow by one vertex hooked to both
        // triangles. Cyclic/Hashed ownership is stable under growth.
        let delta = GraphDelta::new(6, 1, &[(1, 4), (6, 0), (6, 5)], &[(2, 3)]);
        let mut new_edges: Vec<_> = edges.iter().copied().filter(|&e| e != (2, 3)).collect();
        new_edges.extend([(1, 4), (6, 0), (6, 5)]);
        for dist in [Distribution::Cyclic, Distribution::Hashed] {
            for nranks in [1usize, 3] {
                Runtime::run(nranks, |ctx| {
                    let g = DistGraph::from_shared_edges(ctx, dist.clone(), 6, &edges);
                    let updated = g.apply_delta(ctx, &delta);
                    let scratch = DistGraph::from_shared_edges(ctx, dist.clone(), 7, &new_edges);
                    assert_same_graph(&updated, &scratch);
                });
            }
        }
    }

    #[test]
    fn apply_delta_explicit_growth_hashes_tail_to_owners() {
        use crate::delta::GraphDelta;
        use crate::distribution::splitmix64;
        let edges = two_triangles();
        let nranks = 3usize;
        // Explicit ownership (vertex v owned by rank v % 3), then grow by 2 vertices.
        let owners: Vec<i32> = (0..6).map(|v| (v % nranks as u64) as i32).collect();
        let dist = Distribution::from_parts(&owners);
        let delta = GraphDelta::new(6, 2, &[(6, 0), (7, 6), (7, 3)], &[(2, 3)]);
        let mut new_edges: Vec<_> = edges.iter().copied().filter(|&e| e != (2, 3)).collect();
        new_edges.extend([(6, 0), (7, 6), (7, 3)]);
        Runtime::run(nranks, |ctx| {
            let g = DistGraph::from_shared_edges(ctx, dist.clone(), 6, &edges);
            let updated = g.apply_delta(ctx, &delta);
            // Existing vertices keep their owners; the tail is hashed.
            assert_eq!(updated.global_n(), 8);
            for v in 0..6u64 {
                assert_eq!(updated.owner_of_global(v), (v % nranks as u64) as usize);
            }
            for v in 6..8u64 {
                assert_eq!(
                    updated.owner_of_global(v),
                    (splitmix64(v) % nranks as u64) as usize
                );
            }
            // The incremental rebuild matches a from-scratch build over the grown table.
            let grown = dist.grown(8, ctx.nranks());
            let scratch = DistGraph::from_shared_edges(ctx, grown, 8, &new_edges);
            assert_same_graph(&updated, &scratch);
        });
    }

    #[test]
    fn apply_delta_block_growth_migrates_ownership() {
        use crate::delta::GraphDelta;
        let edges = two_triangles();
        // Growing a block distribution remaps existing vertices; the migration path must
        // still reproduce the from-scratch build exactly.
        let delta = GraphDelta::new(6, 4, &[(6, 0), (7, 8), (9, 3)], &[(0, 1)]);
        let mut new_edges: Vec<_> = edges.iter().copied().filter(|&e| e != (0, 1)).collect();
        new_edges.extend([(6, 0), (7, 8), (9, 3)]);
        Runtime::run(3, |ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 6, &edges);
            let updated = g.apply_delta(ctx, &delta);
            let scratch = DistGraph::from_shared_edges(ctx, Distribution::Block, 10, &new_edges);
            assert_same_graph(&updated, &scratch);
        });
    }

    #[test]
    fn apply_delta_deletions_drop_orphaned_ghosts() {
        use crate::delta::GraphDelta;
        let edges = two_triangles();
        Runtime::run(2, |ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 6, &edges);
            assert_eq!(g.n_ghost(), 1); // the bridge endpoint
            let updated = g.apply_delta(ctx, &GraphDelta::new(6, 0, &[], &[(2, 3)]));
            assert_eq!(
                updated.n_ghost(),
                0,
                "deleting the bridge orphans the ghost"
            );
            assert_eq!(updated.global_m(), 6);
            // The stale ghost id must no longer resolve.
            let stale = if ctx.rank() == 0 { 3 } else { 2 };
            assert_eq!(updated.local_id(stale), None);
        });
    }

    #[test]
    fn apply_delta_empty_delta_is_identity() {
        use crate::delta::GraphDelta;
        let edges = two_triangles();
        Runtime::run(2, |ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 6, &edges);
            let updated = g.apply_delta(ctx, &GraphDelta::new(6, 0, &[], &[]));
            assert_same_graph(&updated, &g);
        });
    }

    #[test]
    fn apply_delta_chains_across_epochs() {
        use crate::delta::GraphDelta;
        // Apply two successive deltas and compare against one from-scratch build.
        let edges = two_triangles();
        Runtime::run(3, |ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Cyclic, 6, &edges);
            let g1 = g.apply_delta(ctx, &GraphDelta::new(6, 1, &[(6, 2), (6, 3)], &[]));
            let g2 = g1.apply_delta(ctx, &GraphDelta::new(7, 0, &[(0, 4)], &[(6, 2)]));
            let mut final_edges = edges.clone();
            final_edges.extend([(6, 3), (0, 4)]);
            let scratch = DistGraph::from_shared_edges(ctx, Distribution::Cyclic, 7, &final_edges);
            assert_same_graph(&g2, &scratch);
        });
    }

    #[test]
    fn empty_rank_is_tolerated() {
        // More ranks than vertices: some ranks own nothing.
        let edges = vec![(0u64, 1u64)];
        let out = Runtime::run(4, |ctx| {
            let g = DistGraph::from_shared_edges(ctx, Distribution::Block, 2, &edges);
            (g.n_owned(), g.global_m())
        });
        let total_owned: usize = out.iter().map(|(n, _)| n).sum();
        assert_eq!(total_owned, 2);
        assert!(out.iter().all(|&(_, m)| m == 1));
    }
}
