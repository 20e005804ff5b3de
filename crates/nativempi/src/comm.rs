//! Communicator management: context ids, `dup`, `split`, `create`,
//! comparison and the built-in `MPI_COMM_WORLD` / `MPI_COMM_SELF`.
//!
//! Every communicator owns two private context ids — one for point-to-point
//! traffic and one for collectives — so that traffic on different
//! communicators (and collective vs p2p traffic on the same communicator)
//! can never match each other. New context ids are agreed collectively by
//! an allreduce(MAX) over the parent communicator, exactly the scheme small
//! MPI implementations use.
//!
//! A communicator's state lives in one place, its [`CommRecord`]: the two
//! context ids, the group, this rank's place in it, an attached topology,
//! and three counters that every member advances in the same order and
//! so keeps equal without communication — the collective tag-window
//! sequence, the collective start count that stamps trace events, and
//! the RMA window sequence. A new communicator starts them at 0, and
//! [`Engine::comm_free`] drops them with the record. Outside the record
//! the engine keeps only what is keyed by context id (the matching
//! queues, whose frames can arrive before the record exists or after it
//! is gone) and the schedule templates cached per communicator.

use crate::coll::{CollDesc, Payload};
use crate::error::{err, ErrorClass, MpiError, Result};
use crate::group::{CompareResult, Group};
use crate::topology::Topology;
use crate::types::UNDEFINED;
use crate::Engine;

/// Handle to a communicator within one engine.
pub type CommHandle = usize;

/// Handle of `MPI_COMM_WORLD`.
pub const COMM_WORLD: CommHandle = 0;
/// Handle of `MPI_COMM_SELF`.
pub const COMM_SELF: CommHandle = 1;

/// Internal record of one communicator.
#[derive(Debug, Clone)]
pub struct CommRecord {
    /// Context id used by point-to-point operations.
    pub context_p2p: u32,
    /// Context id used by collective operations.
    pub context_coll: u32,
    /// The communicator's group (ordered world ranks).
    pub group: Group,
    /// This process's rank within the group, if it is a member.
    pub my_rank: Option<usize>,
    /// Attached virtual topology, if any.
    pub topology: Option<Topology>,
    /// Collective tag-window sequence (see [`crate::coll::nb`]).
    pub(crate) coll_seq: u64,
    /// Collectives started: the causal stamp of their trace events.
    /// Several tag windows may go to one collective; this moves once.
    pub(crate) coll_causal_seq: u64,
    /// RMA windows created (see [`crate::rma`]).
    pub(crate) win_seq: u64,
}

impl CommRecord {
    fn new(
        (context_p2p, context_coll): (u32, u32),
        group: Group,
        my_rank: Option<usize>,
        topology: Option<Topology>,
    ) -> CommRecord {
        CommRecord {
            context_p2p,
            context_coll,
            group,
            my_rank,
            topology,
            coll_seq: 0,
            coll_causal_seq: 0,
            win_seq: 0,
        }
    }

    /// The context of collective or point-to-point traffic.
    pub(crate) fn context(&self, collective: bool) -> u32 {
        if collective {
            self.context_coll
        } else {
            self.context_p2p
        }
    }

    /// Number of processes in the communicator.
    pub fn size(&self) -> usize {
        self.group.size()
    }
}

impl Engine {
    pub(crate) fn install_builtin_comms(&mut self) {
        // COMM_WORLD: contexts 0 (p2p) and 1 (coll).
        let world = CommRecord::new(
            (0, 1),
            Group::world(self.world_size),
            Some(self.world_rank),
            None,
        );
        // COMM_SELF: contexts 2 and 3.
        let selfc = CommRecord::new(
            (2, 3),
            Group::from_ranks(vec![self.world_rank]).expect("single rank group"),
            Some(0),
            None,
        );
        self.comms = vec![Some(world), Some(selfc)];
        self.next_context = 4;
    }

    pub(crate) fn comm(&self, comm: CommHandle) -> Result<&CommRecord> {
        self.comms
            .get(comm)
            .and_then(|c| c.as_ref())
            .ok_or_else(|| {
                MpiError::new(
                    ErrorClass::Comm,
                    format!("invalid communicator handle {comm}"),
                )
            })
    }

    pub(crate) fn comm_mut(&mut self, comm: CommHandle) -> Result<&mut CommRecord> {
        self.comms
            .get_mut(comm)
            .and_then(|c| c.as_mut())
            .ok_or_else(|| {
                MpiError::new(
                    ErrorClass::Comm,
                    format!("invalid communicator handle {comm}"),
                )
            })
    }

    fn register_comm(&mut self, record: CommRecord) -> CommHandle {
        let handle = self.comms.len();
        self.comms.push(Some(record));
        handle
    }

    /// `MPI_Comm_rank`: this process's rank within `comm`.
    pub fn comm_rank(&self, comm: CommHandle) -> Result<usize> {
        self.comm(comm)?.my_rank.ok_or_else(|| {
            MpiError::new(
                ErrorClass::Comm,
                "process is not a member of this communicator",
            )
        })
    }

    /// `MPI_Comm_size`.
    pub fn comm_size(&self, comm: CommHandle) -> Result<usize> {
        Ok(self.comm(comm)?.size())
    }

    /// `MPI_Comm_group`: the communicator's group.
    pub fn comm_group(&self, comm: CommHandle) -> Result<Group> {
        Ok(self.comm(comm)?.group.clone())
    }

    /// `MPI_Comm_compare`.
    pub fn comm_compare(&self, a: CommHandle, b: CommHandle) -> Result<CompareResult> {
        if a == b {
            // Verify the handle is valid before declaring identity.
            self.comm(a)?;
            return Ok(CompareResult::Ident);
        }
        let ca = self.comm(a)?;
        let cb = self.comm(b)?;
        Ok(match ca.group.compare(&cb.group) {
            CompareResult::Ident => CompareResult::Congruent,
            other => other,
        })
    }

    /// `MPI_Comm_free`. The built-in communicators cannot be freed.
    pub fn comm_free(&mut self, comm: CommHandle) -> Result<()> {
        if comm == COMM_WORLD || comm == COMM_SELF {
            return err(ErrorClass::Comm, "cannot free a built-in communicator");
        }
        let record = self
            .comms
            .get_mut(comm)
            .and_then(|c| c.take())
            .ok_or_else(|| {
                MpiError::new(
                    ErrorClass::Comm,
                    format!("invalid communicator handle {comm}"),
                )
            })?;
        // The record took its counters with it. Close its contexts too:
        // receives still posted on them complete as cancelled — their
        // match can never arrive, and dropping them would hang a later
        // wait() — and frames still in flight for them are dropped on
        // arrival instead of parking unmatchably forever.
        for context in [record.context_p2p, record.context_coll] {
            for req in self.matching.close(context) {
                self.requests
                    .insert(req, crate::request::RequestState::Cancelled);
            }
        }
        // Cached schedule templates are keyed to the communicator: drop
        // them with it, or dup/free churn grows the cache.
        self.sched_cache.retain(|key, _| key.comm != comm);
        Ok(())
    }

    /// Agree on a fresh pair of context ids across all members of `parent`.
    ///
    /// Collective over `parent`. Every member proposes its local
    /// `next_context`; the maximum is adopted by everyone, guaranteeing the
    /// pair is unused on every member.
    pub(crate) fn allocate_context_pair(&mut self, parent: CommHandle) -> Result<(u32, u32)> {
        let proposal = self.next_context;
        let agreed = self.allreduce_u32_max(parent, proposal)?;
        self.next_context = agreed + 2;
        Ok((agreed, agreed + 1))
    }

    /// `MPI_Comm_dup`: same group, fresh context ids. Collective.
    pub fn comm_dup(&mut self, comm: CommHandle) -> Result<CommHandle> {
        self.check_live()?;
        let contexts = self.allocate_context_pair(comm)?;
        let src = self.comm(comm)?;
        let record = CommRecord::new(
            contexts,
            src.group.clone(),
            src.my_rank,
            src.topology.clone(),
        );
        Ok(self.register_comm(record))
    }

    /// `MPI_Comm_create`: a new communicator containing only the processes
    /// of `group` (which must be a subset of `comm`'s group, identical on
    /// all callers). Collective over `comm`. Returns `None` on processes
    /// that are not members of `group`.
    pub fn comm_create(&mut self, comm: CommHandle, group: &Group) -> Result<Option<CommHandle>> {
        self.check_live()?;
        let parent_group = self.comm(comm)?.group.clone();
        for &r in group.ranks() {
            if parent_group.rank_of(r).is_none() {
                return err(
                    ErrorClass::Group,
                    format!("world rank {r} is not a member of the parent communicator"),
                );
            }
        }
        let contexts = self.allocate_context_pair(comm)?;
        let my_rank = group.rank_of(self.world_rank);
        if my_rank.is_none() {
            return Ok(None);
        }
        let record = CommRecord::new(contexts, group.clone(), my_rank, None);
        Ok(Some(self.register_comm(record)))
    }

    /// `MPI_Comm_split`: partition `comm` by `color`; ranks within each new
    /// communicator are ordered by `key`, ties broken by rank in `comm`.
    /// A color of [`UNDEFINED`] yields `None`. Collective over `comm`.
    pub fn comm_split(
        &mut self,
        comm: CommHandle,
        color: i32,
        key: i32,
    ) -> Result<Option<CommHandle>> {
        self.check_live()?;
        let my_rank = self.comm_rank(comm)?;
        let size = self.comm_size(comm)?;
        // Allgather (color, key) from every member over the collective
        // context of the parent.
        let mine = [color.to_le_bytes(), key.to_le_bytes()].concat();
        let outcome = self.coll_run(comm, &CollDesc::Allgather, Payload::Bytes(&mine))?;
        let all = Self::expect_parts(outcome)?;
        let mut entries: Vec<(i32, i32, usize)> = Vec::with_capacity(size);
        for (rank, bytes) in all.iter().enumerate() {
            if bytes.len() != 8 {
                return err(ErrorClass::Intern, "malformed split exchange");
            }
            let c = i32::from_le_bytes(bytes[0..4].try_into().unwrap());
            let k = i32::from_le_bytes(bytes[4..8].try_into().unwrap());
            entries.push((c, k, rank));
        }
        let contexts = self.allocate_context_pair(comm)?;
        if color == UNDEFINED {
            return Ok(None);
        }
        // Members with my color, ordered by (key, parent rank).
        let mut members: Vec<(i32, usize)> = entries
            .iter()
            .filter(|(c, _, _)| *c == color)
            .map(|(_, k, r)| (*k, *r))
            .collect();
        members.sort();
        let parent_group = self.comm(comm)?.group.clone();
        let world_ranks: Vec<usize> = members
            .iter()
            .map(|(_, parent_rank)| parent_group.world_rank(*parent_rank))
            .collect::<Result<Vec<_>>>()?;
        let group = Group::from_ranks(world_ranks)?;
        let my_new_rank = members.iter().position(|(_, r)| *r == my_rank);
        let record = CommRecord::new(contexts, group, my_new_rank, None);
        Ok(Some(self.register_comm(record)))
    }

    /// Translate a rank in `comm` to the world rank the transport uses.
    pub fn world_rank_of(&self, comm: CommHandle, rank: usize) -> Result<usize> {
        self.comm(comm)?.group.world_rank(rank)
    }

    // ---------------------------------------------------------------------
    // Node topology queries (see the fabric's NodeMap)
    // ---------------------------------------------------------------------

    /// Node id of `rank` (a rank *in `comm`*): which node of the
    /// fabric's [`mpi_transport::NodeMap`] that process lives on.
    pub fn node_of(&self, comm: CommHandle, rank: usize) -> Result<usize> {
        let world = self.world_rank_of(comm, rank)?;
        Ok(self.nodes.node_of(world))
    }

    /// The leader of this process's node within `comm`: the
    /// lowest-ranked member of `comm` placed on the same node. Leaders
    /// are the ranks that carry the inter-node traffic of the
    /// hierarchical collectives (see [`crate::coll::hier`]).
    pub fn node_leader(&self, comm: CommHandle) -> Result<usize> {
        let my_rank = self.comm_rank(comm)?;
        let my_node = self.node_of(comm, my_rank)?;
        for rank in 0..self.comm_size(comm)? {
            if self.node_of(comm, rank)? == my_node {
                return Ok(rank);
            }
        }
        unreachable!("this rank is always on its own node");
    }

    /// Split `comm` into per-node sub-communicators (one communicator
    /// per node, members ordered by their rank in `comm`) — the
    /// `MPI_Comm_split_type(COMM_TYPE_SHARED)` shape. Collective over
    /// `comm`; every member receives its node's communicator.
    pub fn comm_split_node(&mut self, comm: CommHandle) -> Result<CommHandle> {
        let my_rank = self.comm_rank(comm)?;
        let color = self.node_of(comm, my_rank)? as i32;
        self.comm_split(comm, color, my_rank as i32)?
            .ok_or_else(|| MpiError::new(ErrorClass::Intern, "node split returned no communicator"))
    }

    /// Translate a world rank to its rank in `comm`, if it is a member.
    pub(crate) fn comm_rank_of_world(
        &self,
        comm: CommHandle,
        world: usize,
    ) -> Result<Option<usize>> {
        Ok(self.comm(comm)?.group.rank_of(world))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;
    use mpi_transport::DeviceKind;

    /// The node topology queries: node_of / node_leader /
    /// comm_split_node over a 2×2 placement, including on a
    /// sub-communicator whose ranks are not world ranks.
    #[test]
    fn node_topology_queries_follow_the_node_map() {
        use crate::UniverseConfig;
        use mpi_transport::NodeMap;
        let mut config = UniverseConfig::new(4, DeviceKind::Hybrid);
        config.fabric.nodes = NodeMap::regular(2, 2);
        Universe::run_with_config(config, |engine| {
            let rank = engine.world_rank();
            assert_eq!(engine.my_node(), rank / 2);
            assert_eq!(engine.node_of(COMM_WORLD, 3).unwrap(), 1);
            assert_eq!(engine.node_leader(COMM_WORLD).unwrap(), (rank / 2) * 2);

            // Per-node split: two communicators of two ranks each,
            // ordered by world rank.
            let node_comm = engine.comm_split_node(COMM_WORLD).unwrap();
            assert_eq!(engine.comm_size(node_comm).unwrap(), 2);
            assert_eq!(engine.comm_rank(node_comm).unwrap(), rank % 2);
            // Within the node everyone is on one node: leader is rank 0.
            assert_eq!(engine.node_leader(node_comm).unwrap(), 0);

            // On a reversed-order sub-communicator the leader is still
            // the lowest *comm* rank of the node.
            let rev = engine
                .comm_split(COMM_WORLD, 0, -(rank as i32))
                .unwrap()
                .unwrap();
            // rev order: world ranks [3, 2, 1, 0]; node of rev-rank 0 = 1.
            assert_eq!(engine.node_of(rev, 0).unwrap(), 1);
            let my_rev = engine.comm_rank(rev).unwrap();
            let expected_leader = if rank >= 2 { 0 } else { 2 };
            assert_eq!(
                engine.node_leader(rev).unwrap(),
                expected_leader,
                "{my_rev}"
            );
        })
        .unwrap();
    }

    /// Freeing a communicator releases everything it owned: dup/free
    /// churn with point-to-point traffic, a collective and an RMA window
    /// on every dup leaves only the built-ins' state and one tombstone
    /// per freed context.
    #[test]
    fn comm_free_releases_matching_queue_state() {
        use crate::types::SendMode;
        const CYCLES: usize = 10;
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            for _ in 0..CYCLES {
                let dup = engine.comm_dup(COMM_WORLD).unwrap();
                // Traffic on the dup materializes its queue entries.
                if engine.world_rank() == 0 {
                    engine.send(dup, 1, 1, b"x", SendMode::Standard).unwrap();
                    engine.recv(dup, 1, 2, None).unwrap();
                } else {
                    engine.recv(dup, 0, 1, None).unwrap();
                    engine.send(dup, 0, 2, b"y", SendMode::Standard).unwrap();
                }
                engine
                    .coll_run(dup, &CollDesc::Barrier, Payload::Bytes(&[]))
                    .unwrap();
                let win = engine.win_create(dup, vec![0; 8]).unwrap();
                engine.win_free(win).unwrap();
                engine
                    .coll_run(COMM_WORLD, &CollDesc::Barrier, Payload::Bytes(&[]))
                    .unwrap();
                engine.comm_free(dup).unwrap();
            }
            let live: Vec<CommHandle> = (0..engine.comms.len())
                .filter(|&c| engine.comm(c).is_ok())
                .collect();
            assert_eq!(live, [COMM_WORLD, COMM_SELF]);
            let open = engine.matching.open_contexts();
            assert!(
                open.iter().all(|&context| context < 4),
                "freed contexts still hold queues: {open:?}"
            );
            assert_eq!(engine.matching.closed_contexts(), 2 * CYCLES);
            assert!(engine.sched_cache.keys().all(|key| key.comm < 2));
            assert!(engine.windows.is_empty());
        })
        .unwrap();
    }

    /// A receive still posted when its communicator is freed completes
    /// as cancelled — a later wait() must not hang on a match that can
    /// never arrive.
    #[test]
    fn comm_free_cancels_stranded_posted_receives() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            let dup = engine.comm_dup(COMM_WORLD).unwrap();
            let req = engine
                .irecv(dup, 1 - engine.world_rank() as i32, 7, None)
                .unwrap();
            engine.comm_free(dup).unwrap();
            let completion = engine.wait(req).unwrap();
            assert!(completion.status.cancelled, "stranded receive must cancel");
        })
        .unwrap();
    }

    /// A frame that was in flight when its communicator was freed is
    /// dropped on arrival — it must not resurrect the freed context's
    /// unexpected queue (which could never be matched again).
    #[test]
    fn in_flight_traffic_for_a_freed_comm_is_dropped() {
        use crate::types::SendMode;
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            let dup = engine.comm_dup(COMM_WORLD).unwrap();
            let dup_context = engine.comm(dup).unwrap().context_p2p;
            if engine.world_rank() == 0 {
                // Eager send on the dup (completes locally), then a world
                // message to sequence the peer.
                engine
                    .send(dup, 1, 3, b"stale", SendMode::Standard)
                    .unwrap();
                engine
                    .send(COMM_WORLD, 1, 4, b"after", SendMode::Standard)
                    .unwrap();
            } else {
                // Free the dup before touching the transport: the dup
                // frame is processed afterwards and must be discarded.
                engine.comm_free(dup).unwrap();
                let (data, _) = engine.recv(COMM_WORLD, 0, 4, None).unwrap();
                assert_eq!(&data[..], b"after");
                assert!(
                    !engine.matching.open_contexts().contains(&dup_context),
                    "freed-context queue was resurrected"
                );
            }
        })
        .unwrap();
    }

    #[test]
    fn builtin_comms_exist() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            assert_eq!(engine.comm_size(COMM_WORLD).unwrap(), 2);
            assert_eq!(engine.comm_size(COMM_SELF).unwrap(), 1);
            assert_eq!(engine.comm_rank(COMM_SELF).unwrap(), 0);
            let g = engine.comm_group(COMM_WORLD).unwrap();
            assert_eq!(g.size(), 2);
        })
        .unwrap();
    }

    #[test]
    fn builtin_comms_cannot_be_freed() {
        Universe::run(1, DeviceKind::ShmFast, |engine| {
            assert!(engine.comm_free(COMM_WORLD).is_err());
            assert!(engine.comm_free(COMM_SELF).is_err());
        })
        .unwrap();
    }

    #[test]
    fn dup_is_congruent_not_identical() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            let dup = engine.comm_dup(COMM_WORLD).unwrap();
            assert_eq!(
                engine.comm_compare(COMM_WORLD, dup).unwrap(),
                CompareResult::Congruent
            );
            assert_eq!(engine.comm_compare(dup, dup).unwrap(), CompareResult::Ident);
            assert_eq!(engine.comm_size(dup).unwrap(), 2);
            engine.comm_free(dup).unwrap();
            assert!(engine.comm_rank(dup).is_err());
        })
        .unwrap();
    }

    #[test]
    fn split_partitions_by_color_and_orders_by_key() {
        Universe::run(4, DeviceKind::ShmFast, |engine| {
            let rank = engine.world_rank() as i32;
            // ranks 0,2 -> color 0; ranks 1,3 -> color 1; key reverses order
            let new = engine
                .comm_split(COMM_WORLD, rank % 2, -rank)
                .unwrap()
                .expect("every rank gets a communicator");
            assert_eq!(engine.comm_size(new).unwrap(), 2);
            let my_new_rank = engine.comm_rank(new).unwrap();
            // higher world rank has smaller key, so it becomes rank 0
            if rank >= 2 {
                assert_eq!(my_new_rank, 0);
            } else {
                assert_eq!(my_new_rank, 1);
            }
        })
        .unwrap();
    }

    #[test]
    fn split_with_undefined_color_returns_none() {
        Universe::run(3, DeviceKind::ShmFast, |engine| {
            let rank = engine.world_rank() as i32;
            let color = if rank == 0 { UNDEFINED } else { 7 };
            let got = engine.comm_split(COMM_WORLD, color, 0).unwrap();
            if rank == 0 {
                assert!(got.is_none());
            } else {
                let comm = got.unwrap();
                assert_eq!(engine.comm_size(comm).unwrap(), 2);
            }
        })
        .unwrap();
    }

    #[test]
    fn comm_create_selects_subgroup() {
        Universe::run(4, DeviceKind::ShmFast, |engine| {
            let world_group = engine.comm_group(COMM_WORLD).unwrap();
            let evens = world_group.incl(&[0, 2]).unwrap();
            let got = engine.comm_create(COMM_WORLD, &evens).unwrap();
            if engine.world_rank() % 2 == 0 {
                let comm = got.expect("member of the new communicator");
                assert_eq!(engine.comm_size(comm).unwrap(), 2);
                assert_eq!(engine.comm_rank(comm).unwrap(), engine.world_rank() / 2);
            } else {
                assert!(got.is_none());
            }
        })
        .unwrap();
    }
}
