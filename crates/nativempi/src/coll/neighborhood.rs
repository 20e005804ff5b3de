//! Neighborhood (sparse) collectives over virtual topologies (MPI-3
//! §7.6 semantics on the engine's byte-level surface).
//!
//! A rank's *neighbor list* is derived from its communicator's attached
//! topology ([`crate::topology`]):
//!
//! * **Cartesian** — `2 * ndims` slots: for each dimension `d`, slot
//!   `2d` is the *source* of `cart_shift(d, +1)` (the negative-direction
//!   neighbor) and slot `2d + 1` the *destination*. Off-grid neighbors
//!   of non-periodic dimensions are `PROC_NULL`: nothing is transferred
//!   and the corresponding result part is empty.
//! * **Graph** — the rank's adjacency list, in edge order. Multigraph
//!   edges are supported as long as multiplicities are symmetric; a
//!   rank may neighbor itself (the transfer is a local move).
//!
//! [`Engine::ineighbor_alltoallv`] sends block `j` to neighbor `j` and
//! receives block `j` from neighbor `j`. Because a transfer `me → peer` lands in
//! the *peer's* slot for the reciprocal edge, each send is tagged with
//! the **receiver's** slot index — this is what keeps the degenerate
//! two-rank periodic ring (where both of a rank's neighbors are the
//! same process) correctly paired over plain FIFO matching.
//!
//! That launcher is the engine's one neighbourhood entry point. It
//! builds an ordinary `CollSchedule` (see `super::nb`): one exchange
//! round plus an assembly compute, so the nonblocking form comes
//! straight from the progress engine, tag windows are drawn like every
//! other collective's, and hybrid `NodeMap` fabrics need no special
//! casing (the transfers are point-to-point pairs routed by the device).
//! A blocking form is the launcher followed by [`Engine::wait_outcome`];
//! an allgather is the exchange of one payload replicated per neighbor,
//! and an equal-chunk alltoall is the exchange of evenly split chunks
//! (the binding's `rs` surface builds both).

use crate::coll::nb::{CollOutcome, CollSchedule, Round};
use crate::comm::CommHandle;
use crate::error::{err, ErrorClass, Result};
use crate::request::RequestId;
use crate::topology::Topology;
use crate::types::PROC_NULL;
use crate::Engine;

/// Where one result part comes from, resolved when the schedule's
/// assembly compute runs.
enum PartSrc {
    /// Filled by the receive posted into this slot.
    Recv(usize),
    /// A self-neighbor transfer: the chunk moved locally.
    Local(Vec<u8>),
    /// `PROC_NULL` neighbor: nothing arrives.
    Null,
}

/// The send/receive pairing a topology induces on one rank.
struct NeighborSpec {
    /// Receive peer per slot (`PROC_NULL` entries included).
    peers: Vec<i32>,
    /// Per send block: `(destination peer, slot index at the receiver)`.
    sends: Vec<(i32, usize)>,
}

impl Engine {
    /// The rank's neighbor list in slot order (`PROC_NULL` entries
    /// included) — the shape of every `neighbor_*` result.
    pub fn topo_neighbors(&self, comm: CommHandle) -> Result<Vec<i32>> {
        Ok(self.neighbor_spec(comm)?.peers)
    }

    fn neighbor_spec(&self, comm: CommHandle) -> Result<NeighborSpec> {
        match &self.comm(comm)?.topology {
            Some(Topology::Cart { dims, .. }) => {
                let ndims = dims.len();
                let mut peers = Vec::with_capacity(2 * ndims);
                let mut sends = Vec::with_capacity(2 * ndims);
                for d in 0..ndims {
                    let (src, dst) = self.cart_shift(comm, d, 1)?;
                    peers.push(src);
                    peers.push(dst);
                    // On a grid, `src`'s positive-direction neighbor is
                    // this rank, so a block sent to `src` lands in its
                    // slot `2d + 1` — and symmetrically for `dst`.
                    sends.push((src, 2 * d + 1));
                    sends.push((dst, 2 * d));
                }
                Ok(NeighborSpec { peers, sends })
            }
            Some(Topology::Graph { .. }) => {
                let me = self.comm_rank(comm)?;
                let adj = self.graph_neighbors(comm, me)?;
                let peers: Vec<i32> = adj.iter().map(|&p| p as i32).collect();
                let mut sends = Vec::with_capacity(adj.len());
                for (j, &peer) in adj.iter().enumerate() {
                    // k-th edge me→peer pairs with the k-th edge peer→me
                    // (multigraph-safe, requires symmetric multiplicity).
                    let occurrence = adj[..j].iter().filter(|&&q| q == peer).count();
                    let peer_adj = self.graph_neighbors(comm, peer)?;
                    let remote_slot = peer_adj
                        .iter()
                        .enumerate()
                        .filter(|&(_, &q)| q == me)
                        .map(|(i, _)| i)
                        .nth(occurrence);
                    let Some(remote_slot) = remote_slot else {
                        return err(
                            ErrorClass::Topology,
                            format!(
                                "asymmetric graph topology: rank {me} lists {peer} as a \
                                 neighbor more often than {peer} lists {me}"
                            ),
                        );
                    };
                    sends.push((peer as i32, remote_slot));
                }
                Ok(NeighborSpec { peers, sends })
            }
            None => err(
                ErrorClass::Topology,
                "neighborhood collective on a communicator without a topology",
            ),
        }
    }

    /// `MPI_Ineighbor_alltoallv` (byte-level): send `chunks[j]` to
    /// neighbor `j`, receive one part per neighbor. Chunk lengths may be
    /// ragged. Completes with the parts concatenated in slot order;
    /// [`Engine::wait_outcome`] returns them apart, one per slot
    /// (`PROC_NULL` slots yield empty parts). Every neighbourhood form
    /// is this call (see the module docs).
    pub fn ineighbor_alltoallv(
        &mut self,
        comm: CommHandle,
        chunks: &[Vec<u8>],
    ) -> Result<RequestId> {
        self.check_live()?;
        let spec = self.neighbor_spec(comm)?;
        let degree = spec.peers.len();
        if chunks.len() != degree {
            return err(
                ErrorClass::Count,
                format!(
                    "neighbor alltoall needs one chunk per neighbor: got {}, topology degree {degree}",
                    chunks.len()
                ),
            );
        }
        if degree == 0 {
            return self.coll_immediate(CollOutcome::Parts(Vec::new()));
        }
        let me = self.comm_rank(comm)? as i32;
        let win = self.alloc_tag_window(comm);
        let mut schedule = CollSchedule::new();
        let mut round = Round::new();

        let mut parts: Vec<PartSrc> = Vec::with_capacity(degree);
        for (j, &peer) in spec.peers.iter().enumerate() {
            if peer == PROC_NULL {
                parts.push(PartSrc::Null);
            } else if peer == me {
                // Filled below from the matching self-send.
                parts.push(PartSrc::Local(Vec::new()));
            } else {
                let slot = schedule.empty();
                round = round.recv(peer as usize, win.tag(j), slot);
                parts.push(PartSrc::Recv(slot));
            }
        }
        for (k, &(dest, remote_slot)) in spec.sends.iter().enumerate() {
            if dest == PROC_NULL {
                continue;
            }
            if dest == me {
                // Self-neighbor: my block k lands in my own slot
                // `remote_slot` without touching the wire.
                parts[remote_slot] = PartSrc::Local(chunks[k].clone());
            } else {
                let slot = schedule.filled(chunks[k].clone());
                round = round.send(dest as usize, win.tag(remote_slot), slot);
            }
        }
        round = round.compute(move |ctx| {
            let assembled = parts
                .iter()
                .map(|src| match src {
                    PartSrc::Recv(slot) => ctx.take(*slot),
                    PartSrc::Local(data) => Ok(data.clone()),
                    PartSrc::Null => Ok(Vec::new()),
                })
                .collect::<Result<Vec<_>>>()?;
            ctx.set_outcome(CollOutcome::Parts(assembled));
            Ok(())
        });
        schedule.push(round);
        // No algorithm selection happens here: the `coll` trace events
        // carry no (op, algorithm) label.
        self.coll_start(comm, schedule, None)
    }
}

#[cfg(test)]
mod tests {
    use crate::comm::{CommHandle, COMM_WORLD};
    use crate::error::Result;
    use crate::types::PROC_NULL;
    use crate::{Engine, Universe};
    use mpi_transport::DeviceKind;

    /// The blocking exchange: the one launcher, then its outcome.
    fn exchange(engine: &mut Engine, comm: CommHandle, chunks: &[Vec<u8>]) -> Result<Vec<Vec<u8>>> {
        let req = engine.ineighbor_alltoallv(comm, chunks)?;
        Engine::expect_parts(engine.wait_outcome(req)?)
    }

    #[test]
    fn cart_ring_alltoall_exchanges_with_both_neighbors() {
        // Periodic ring of 4: every rank sends distinct blocks left and
        // right and must receive its neighbors' facing blocks.
        Universe::run(4, DeviceKind::ShmFast, |engine| {
            let cart = engine
                .cart_create(COMM_WORLD, &[4], &[true], false)
                .unwrap()
                .unwrap();
            let rank = engine.comm_rank(cart).unwrap();
            let chunks = vec![vec![rank as u8; 4], vec![rank as u8 + 100; 4]];
            let parts = exchange(engine, cart, &chunks).unwrap();
            let left = (rank + 3) % 4;
            let right = (rank + 1) % 4;
            // Slot 0 ← left neighbor's positive-direction block; slot 1
            // ← right neighbor's negative-direction block.
            assert_eq!(parts[0], vec![left as u8 + 100; 4]);
            assert_eq!(parts[1], vec![right as u8; 4]);
        })
        .unwrap();
    }

    #[test]
    fn two_rank_periodic_ring_pairs_blocks_correctly() {
        // Degenerate case: both neighbors are the same process; the
        // receiver-slot tagging must keep the two blocks apart.
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            let cart = engine
                .cart_create(COMM_WORLD, &[2], &[true], false)
                .unwrap()
                .unwrap();
            let rank = engine.comm_rank(cart).unwrap();
            let chunks = vec![vec![10 + rank as u8], vec![20 + rank as u8]];
            let parts = exchange(engine, cart, &chunks).unwrap();
            let peer = 1 - rank;
            assert_eq!(
                parts[0],
                vec![20 + peer as u8],
                "slot 0 gets peer's positive block"
            );
            assert_eq!(
                parts[1],
                vec![10 + peer as u8],
                "slot 1 gets peer's negative block"
            );
        })
        .unwrap();
    }

    #[test]
    fn non_periodic_edges_yield_empty_parts() {
        Universe::run(3, DeviceKind::ShmFast, |engine| {
            let cart = engine
                .cart_create(COMM_WORLD, &[3], &[false], false)
                .unwrap()
                .unwrap();
            let rank = engine.comm_rank(cart).unwrap();
            let neighbors = engine.topo_neighbors(cart).unwrap();
            let chunks = vec![vec![rank as u8; 2]; 2];
            let parts = exchange(engine, cart, &chunks).unwrap();
            for (j, &peer) in neighbors.iter().enumerate() {
                if peer == PROC_NULL {
                    assert!(parts[j].is_empty());
                } else {
                    assert_eq!(parts[j], vec![peer as u8; 2]);
                }
            }
        })
        .unwrap();
    }

    #[test]
    fn size_one_periodic_dim_is_a_self_exchange() {
        Universe::run(1, DeviceKind::ShmFast, |engine| {
            let cart = engine
                .cart_create(COMM_WORLD, &[1], &[true], false)
                .unwrap()
                .unwrap();
            let parts = exchange(engine, cart, &[vec![1, 2], vec![3, 4]]).unwrap();
            // Both neighbors are self: negative block arrives in the
            // positive slot and vice versa.
            assert_eq!(parts, vec![vec![3, 4], vec![1, 2]]);
        })
        .unwrap();
    }

    #[test]
    fn graph_ring_alltoall_matches_adjacency_order() {
        // Ring of 4 as a graph: rank i neighbors (i-1, i+1) mod 4 — the
        // same index/edges shape the topology tests use.
        Universe::run(4, DeviceKind::ShmFast, |engine| {
            let index = vec![2, 4, 6, 8];
            let edges = vec![1, 3, 0, 2, 1, 3, 2, 0];
            let graph = engine
                .graph_create(COMM_WORLD, &index, &edges, false)
                .unwrap()
                .unwrap();
            let rank = engine.comm_rank(graph).unwrap();
            let neighbors = engine.topo_neighbors(graph).unwrap();
            let chunks: Vec<Vec<u8>> = neighbors
                .iter()
                .map(|&p| vec![(10 * rank + p as usize) as u8])
                .collect();
            let parts = exchange(engine, graph, &chunks).unwrap();
            // Neighbor j sent us the block it addressed to us.
            for (j, &p) in neighbors.iter().enumerate() {
                assert_eq!(parts[j], vec![(10 * p as usize + rank) as u8]);
            }
        })
        .unwrap();
    }

    #[test]
    fn no_topology_is_rejected() {
        Universe::run(1, DeviceKind::ShmFast, |engine| {
            let error = exchange(engine, COMM_WORLD, &[]).unwrap_err();
            assert_eq!(error.class, crate::ErrorClass::Topology);
        })
        .unwrap();
    }

    #[test]
    fn chunk_count_mismatch_is_rejected() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            let cart = engine
                .cart_create(COMM_WORLD, &[2], &[true], false)
                .unwrap()
                .unwrap();
            let error = exchange(engine, cart, &[vec![1]]).unwrap_err();
            assert_eq!(error.class, crate::ErrorClass::Count);
        })
        .unwrap();
    }
}
