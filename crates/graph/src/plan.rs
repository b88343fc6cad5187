//! The ghost exchange plan: which owned vertices each peer holds as ghosts, and where.
//!
//! Every ghost value that crosses ranks — ghost degrees, part labels, PageRank
//! contributions, component labels — travels between the same pairs of slots: the
//! owner's copy of a vertex and each ghost copy of it on another rank. The plan fixes
//! that pairing once, at construction, as two index lists per peer rank `t`:
//!
//! * `send[t]`: the owned local ids that `t` holds as ghosts, in `t`'s ghost-slot order;
//! * `recv[t]`: this rank's ghost local ids owned by `t`, in the same order.
//!
//! Entry `i` of the owner's `send[t]` and entry `i` of `t`'s `recv[owner]` name the same
//! global vertex, so a message can address a ghost by its index in these lists instead
//! of by global id. For the sender side of part updates the plan also keeps the
//! transpose of `send`: for every owned vertex, the `(peer, index)` pair of each of its
//! ghost copies.

use crate::LocalId;

/// Index-addressed routing of ghost traffic for one rank (see the module docs).
#[derive(Debug, Clone)]
pub struct GhostPlan {
    send: Vec<Vec<LocalId>>,
    recv: Vec<Vec<LocalId>>,
    /// Offsets into `copies`, one row per owned vertex (length `n_owned + 1`).
    copy_offsets: Vec<u32>,
    /// `(peer, index into send[peer])` of every ghost copy, grouped by owned vertex.
    copies: Vec<(u32, u32)>,
}

impl GhostPlan {
    /// Assemble a plan from its per-peer lists. Every id in `send` must be owned
    /// (`< n_owned`).
    pub(crate) fn new(n_owned: usize, send: Vec<Vec<LocalId>>, recv: Vec<Vec<LocalId>>) -> Self {
        let mut copy_offsets = vec![0u32; n_owned + 1];
        for &v in send.iter().flatten() {
            copy_offsets[v as usize + 1] += 1;
        }
        for i in 0..n_owned {
            copy_offsets[i + 1] += copy_offsets[i];
        }
        let mut cursor = copy_offsets.clone();
        let mut copies = vec![(0u32, 0u32); copy_offsets[n_owned] as usize];
        for (peer, list) in send.iter().enumerate() {
            for (index, &v) in list.iter().enumerate() {
                copies[cursor[v as usize] as usize] = (peer as u32, index as u32);
                cursor[v as usize] += 1;
            }
        }
        GhostPlan {
            send,
            recv,
            copy_offsets,
            copies,
        }
    }

    /// The owned local ids rank `peer` holds as ghosts, in `peer`'s ghost-slot order.
    pub fn send(&self, peer: usize) -> &[LocalId] {
        &self.send[peer]
    }

    /// This rank's ghost local ids owned by rank `peer`, in the order of `peer`'s
    /// [`send`](GhostPlan::send) list for this rank.
    pub fn recv(&self, peer: usize) -> &[LocalId] {
        &self.recv[peer]
    }

    /// The `(peer, index)` of every ghost copy of owned vertex `v`: rank `peer` holds
    /// `v` at position `index` of [`send(peer)`](GhostPlan::send).
    pub fn copies(&self, v: LocalId) -> &[(u32, u32)] {
        let start = self.copy_offsets[v as usize] as usize;
        let end = self.copy_offsets[v as usize + 1] as usize;
        &self.copies[start..end]
    }

    /// Heap footprint of the plan's arrays in bytes.
    pub fn approx_bytes(&self) -> u64 {
        let ids: usize = self.send.iter().chain(&self.recv).map(Vec::len).sum();
        (ids * 4 + self.copy_offsets.len() * 4 + self.copies.len() * 8) as u64
    }
}
