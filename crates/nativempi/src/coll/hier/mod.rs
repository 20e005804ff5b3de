//! Leader-based hierarchical collectives for multi-fabric jobs.
//!
//! On a cluster-shaped fabric (see [`mpi_transport::NodeMap`] and the
//! `hybrid` device) the flat algorithms waste the expensive link: a
//! binomial-tree allreduce happily pairs ranks on different nodes in
//! every round, so the inter-node link carries the payload O(log P)
//! times. The classic fix — what MVAPICH/Open MPI do, and what the
//! topology-aware communicator hierarchies of the C++ MPI-4.0 interface
//! line of work formalize — is a **leader scheme**:
//!
//! 1. **intra-node phase** — every node folds (or gathers) its members'
//!    contributions into the node *leader* (the lowest-ranked member on
//!    that node) over the cheap shared-memory class;
//! 2. **inter-node phase** — the leaders, one per node, run the ordinary
//!    flat schedule among themselves over the expensive link — this
//!    module *reuses* the [`tree`] and [`rd`] builders verbatim,
//!    relabelled onto the leader subgroup through the `Subgroup` view
//!    of the schedule machinery;
//! 3. **intra-node phase** — every leader broadcasts (or scatters) the
//!    result back to its node over the cheap class.
//!
//! The inter-node link therefore carries each payload the minimum
//! number of times — once per node pair the flat leader schedule needs —
//! instead of once per *rank* pair, which is exactly the
//! fewer-inter-node-traversals-per-byte win the benchmark cells measure.
//!
//! ## Schedule composition
//!
//! Every operation here is an ordinary `CollSchedule`: the three
//! phases are just consecutive rounds, so the hierarchical collectives
//! are nonblocking-capable for free: a bcast, reduce, allreduce,
//! barrier or allgather launched over a hybrid fabric
//! ([`Engine::coll_launch`](crate::Engine::coll_launch)) runs through the
//! same progress engine as everything else, and its blocking form
//! ([`Engine::coll_run`](crate::Engine::coll_run)) is that launch
//! followed by a wait. The intra-node phases are the [`linear`] builders
//! over the node subgroup (a node is small and its fabric
//! cheap; O(n) fan-in there beats paying extra rounds), the inter-node
//! phase is the binomial tree — or recursive doubling when the leader
//! count is a power of two — over the leader subgroup.
//!
//! ## Byte-identity
//!
//! Reductions stay byte-identical to the linear rank-ordered fold under
//! the same rules the flat algorithms obey ([`OrderPolicy`](super::tuning::OrderPolicy)):
//!
//! * the intra-node fold runs in ascending comm-rank order (the linear
//!   builder over the ascending member list), and the leader phase folds
//!   node partials in ascending leader order;
//! * on a **contiguous** placement (each node's members form one
//!   consecutive comm-rank block, blocks ascending — every block and
//!   `AxB` spec produces this) the composition is a re-association of
//!   the rank-ordered fold, so `Ordered` operations (user functions,
//!   MAXLOC/MINLOC, float MAX/MIN) are admitted;
//! * on a non-contiguous placement (`0,1,0,1`-style maps) the fold
//!   re-orders operands, so only `Any`-order operations qualify —
//!   [`supported`](super::tuning::supported) encodes both rules and the
//!   selector falls back to the flat algorithms otherwise, exactly like
//!   the ring;
//! * floating `SUM`/`PROD` (`Sequential`) never run hierarchically.
//!
//! The data movers (bcast/allgather/barrier) move bytes verbatim, so
//! they are unconditionally byte-identical; the cross-algorithm
//! equivalence suite runs the full transcript with `hier` pinned over
//! hybrid fabrics at several node shapes, degenerate maps included.
//!
//! ## Tag-window accounting across the two levels
//!
//! A hierarchical collective spans up to three wire phases, and two of
//! them (the leader phase of allreduce/allgather on a non-power-of-two
//! leader count) are themselves composites — so each operation draws a
//! **fixed number of tag windows** from the per-communicator sequence
//! (3 for barrier/bcast/reduce, 4 for allreduce/allgather), on *every*
//! rank, leaders or not. The count must not depend on this rank's role
//! or on the leader-count's parity: window allocation is local (no
//! communication), and MPI's same-order rule only guarantees symmetry if
//! every rank advances the sequence identically. Unused windows on a
//! given rank are simply never referenced. Within each window the reused
//! flat builders number their rounds exactly as they do at top level,
//! and the two ends of every edge agree on the window by construction
//! (both sides allocate the same sequence numbers).

use mpi_transport::NodeMap;

use super::nb::{CollSchedule, Round, SlotId, Subgroup, TagWindow};
use super::tuning::TopoHint;
use super::{frame_entries, linear, rd, tree, unframe_entries};
use crate::ops::Op;
use crate::types::PrimitiveKind;

/// A communicator's members grouped by node: the precomputed view the
/// hierarchical schedules (and the tuning layer) work from. All ranks
/// here are *comm* ranks.
#[derive(Debug, Clone)]
pub(crate) struct CommTopology {
    /// `groups[g]` = members of node-group `g`, ascending comm rank;
    /// groups ordered by their lowest member, so `groups[g][0]` — the
    /// node's *leader* — are ascending across `g`.
    groups: Vec<Vec<usize>>,
    /// Node-group index of every comm rank.
    group_of: Vec<usize>,
    /// `leaders[g] = groups[g][0]`.
    leaders: Vec<usize>,
    /// Whether every group is one consecutive comm-rank block and the
    /// blocks appear in ascending order (see the module docs:
    /// order-preserving reductions require this).
    contiguous: bool,
}

impl CommTopology {
    /// Group a communicator's members (given as world ranks, in comm
    /// rank order) by the fabric's node map.
    pub(crate) fn new(world_ranks: &[usize], nodes: &NodeMap) -> CommTopology {
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut group_ids: Vec<usize> = Vec::new(); // node id of each group
        let mut group_of = Vec::with_capacity(world_ranks.len());
        for (comm_rank, &world) in world_ranks.iter().enumerate() {
            let node = nodes.node_of(world);
            let g = match group_ids.iter().position(|&id| id == node) {
                Some(g) => g,
                None => {
                    group_ids.push(node);
                    groups.push(Vec::new());
                    groups.len() - 1
                }
            };
            groups[g].push(comm_rank);
            group_of.push(g);
        }
        let contiguous = group_of.windows(2).all(|w| w[0] <= w[1]);
        let leaders = groups.iter().map(|g| g[0]).collect();
        CommTopology {
            groups,
            group_of,
            leaders,
            contiguous,
        }
    }

    /// Number of members.
    pub(crate) fn size(&self) -> usize {
        self.group_of.len()
    }

    /// True when there is real hierarchy to exploit: more than one node
    /// *and* at least one node with more than one member. Degenerate
    /// shapes collapse to the flat algorithms through the tuning layer.
    pub(crate) fn is_hierarchical(&self) -> bool {
        self.leaders.len() > 1 && self.leaders.len() < self.size()
    }

    /// The summary the tuning layer keys on.
    pub(crate) fn hint(&self) -> TopoHint {
        TopoHint {
            hierarchical: self.is_hierarchical(),
            contiguous: self.contiguous,
        }
    }

    /// Leader (comm rank) of the node `rank` lives on.
    fn leader_of(&self, rank: usize) -> usize {
        self.leaders[self.group_of[rank]]
    }

    /// This rank's node group, its index within it, and its leader
    /// index (== group index) among the leaders.
    fn placement(&self, rank: usize) -> (&[usize], usize, usize) {
        let g = self.group_of[rank];
        let group = &self.groups[g];
        let idx = group
            .iter()
            .position(|&r| r == rank)
            .expect("rank is in its own group");
        (group, idx, g)
    }
}

/// Hierarchical barrier: intra-node fan-in to the leaders, tree barrier
/// among the leaders, intra-node release.
pub(crate) fn barrier(
    s: &mut CollSchedule,
    [w_in, w_lead, w_out]: [TagWindow; 3],
    rank: usize,
    topo: &CommTopology,
) {
    let (group, my_idx, g) = topo.placement(rank);
    let n = group.len();
    let leaders = &topo.leaders;
    // Intra fan-in (linear: nodes are small and their fabric cheap).
    if n > 1 {
        linear_fan_in(s, w_in, group, my_idx);
    }
    // Leaders synchronize over the inter-node link.
    if my_idx == 0 {
        tree::barrier(&mut Subgroup::new(s, leaders), w_lead, g, leaders.len());
    }
    // Intra release.
    if n > 1 {
        linear_fan_out(s, w_out, group, my_idx);
    }
}

/// Zero-byte linear fan-in of a node group to its leader (index 0).
fn linear_fan_in(s: &mut CollSchedule, win: TagWindow, group: &[usize], my_idx: usize) {
    let tag = win.tag(0);
    if my_idx == 0 {
        let mut collect = Round::new();
        for &member in &group[1..] {
            let slot = s.empty();
            collect = collect.recv(member, tag, slot);
        }
        s.push(collect);
    } else {
        let signal = s.filled(Vec::new());
        s.push(Round::new().send(group[0], tag, signal));
    }
}

/// Zero-byte linear release of a node group from its leader.
fn linear_fan_out(s: &mut CollSchedule, win: TagWindow, group: &[usize], my_idx: usize) {
    let tag = win.tag(0);
    if my_idx == 0 {
        let signal = s.filled(Vec::new());
        let mut release = Round::new();
        for &member in &group[1..] {
            release = release.send(member, tag, signal);
        }
        s.push(release);
    } else {
        let ack = s.empty();
        s.push(Round::new().recv(group[0], tag, ack));
    }
}

/// Hierarchical broadcast: one hop from the root to its node leader (if
/// they differ), tree bcast among the leaders, linear bcast within each
/// node. The payload ends up in slot `data` on every rank.
#[allow(clippy::too_many_arguments)]
pub(crate) fn bcast(
    s: &mut CollSchedule,
    [w_in, w_lead, w_out]: [TagWindow; 3],
    rank: usize,
    topo: &CommTopology,
    root: usize,
    data: SlotId,
) {
    let (group, my_idx, g) = topo.placement(rank);
    let leaders = &topo.leaders;
    let root_leader = topo.leader_of(root);
    // Hop: a non-leader root hands the payload to its node leader.
    if root != root_leader {
        if rank == root {
            s.push(Round::new().send(root_leader, w_in.tag(0), data));
        } else if rank == root_leader {
            s.push(Round::new().recv(root, w_in.tag(0), data));
        }
    }
    // Leaders broadcast over the inter-node link, rooted at the root's
    // leader (reusing the flat binomial tree over the leader subgroup).
    if my_idx == 0 {
        let root_g = topo.group_of[root];
        tree::bcast(
            &mut Subgroup::new(s, leaders),
            w_lead,
            g,
            leaders.len(),
            root_g,
            data,
        );
    }
    // Each leader fans out within its node.
    if group.len() > 1 {
        linear::bcast(
            &mut Subgroup::new(s, group),
            w_out,
            my_idx,
            group.len(),
            0,
            data,
        );
    }
}

/// Hierarchical reduce: intra-node linear fold to the leaders (ascending
/// comm-rank order), tree reduce among the leaders (node partials folded
/// in ascending leader order), one hop to a non-leader root. Returns the
/// slot holding the result on the root (meaningless elsewhere).
#[allow(clippy::too_many_arguments)]
pub(crate) fn reduce(
    s: &mut CollSchedule,
    [w_in, w_lead, w_out]: [TagWindow; 3],
    rank: usize,
    topo: &CommTopology,
    root: usize,
    send: SlotId,
    kind: PrimitiveKind,
    count: usize,
    op: Op,
) -> SlotId {
    let (group, my_idx, g) = topo.placement(rank);
    let leaders = &topo.leaders;
    let root_g = topo.group_of[root];
    let root_leader = topo.leaders[root_g];

    // Intra-node fold into the leader.
    let partial = if group.len() > 1 {
        linear::reduce(
            &mut Subgroup::new(s, group),
            w_in,
            my_idx,
            group.len(),
            0,
            send,
            kind,
            count,
            op.clone(),
        )
    } else {
        send
    };

    // Leaders fold the node partials toward the root's leader.
    let reduced = if my_idx == 0 {
        tree::reduce(
            &mut Subgroup::new(s, leaders),
            w_lead,
            g,
            leaders.len(),
            root_g,
            partial,
            kind,
            count,
            op,
        )
    } else {
        partial
    };

    // Hop: deliver to a non-leader root.
    if root == root_leader {
        reduced
    } else if rank == root_leader {
        s.push(Round::new().send(root, w_out.tag(0), reduced));
        reduced
    } else if rank == root {
        let out = s.empty();
        s.push(Round::new().recv(root_leader, w_out.tag(0), out));
        out
    } else {
        reduced
    }
}

/// Hierarchical allreduce: intra-node fold to the leaders, allreduce
/// among the leaders (recursive doubling when their count is a power of
/// two, tree reduce + tree bcast otherwise), intra-node bcast. Returns
/// the slot holding the full reduction on every rank.
#[allow(clippy::too_many_arguments)]
pub(crate) fn allreduce(
    s: &mut CollSchedule,
    [w_in, w_lead_a, w_lead_b, w_out]: [TagWindow; 4],
    rank: usize,
    topo: &CommTopology,
    send: SlotId,
    kind: PrimitiveKind,
    count: usize,
    op: Op,
) -> SlotId {
    let (group, my_idx, g) = topo.placement(rank);
    let leaders = &topo.leaders;
    let n = group.len();

    let partial = if n > 1 {
        linear::reduce(
            &mut Subgroup::new(s, group),
            w_in,
            my_idx,
            n,
            0,
            send,
            kind,
            count,
            op.clone(),
        )
    } else {
        send
    };

    let full = if my_idx == 0 {
        let lsub = &mut Subgroup::new(s, leaders);
        let len = leaders.len();
        if len.is_power_of_two() {
            rd::allreduce(lsub, w_lead_a, g, len, partial, kind, count, op)
        } else {
            let reduced = tree::reduce(lsub, w_lead_a, g, len, 0, partial, kind, count, op);
            tree::bcast(lsub, w_lead_b, g, len, 0, reduced);
            reduced
        }
    } else {
        s.empty()
    };

    if n > 1 {
        linear::bcast(&mut Subgroup::new(s, group), w_out, my_idx, n, 0, full);
    }
    full
}

/// Hierarchical allgather(v): intra-node gather to the leaders (framed,
/// re-keyed to comm ranks), allgather of the node aggregates among the
/// leaders, intra-node bcast of the merged frame. Returns the slot
/// holding everyone's framed `(comm rank, payload)` entries on every
/// rank (finalized into rank-ordered parts by the dispatch layer).
#[allow(clippy::too_many_arguments)]
pub(crate) fn allgather(
    s: &mut CollSchedule,
    [w_in, w_lead_a, w_lead_b, w_out]: [TagWindow; 4],
    rank: usize,
    topo: &CommTopology,
    send: SlotId,
) -> SlotId {
    let (group, my_idx, g) = topo.placement(rank);
    let leaders = &topo.leaders;
    let n = group.len();

    // Intra-node gather. The linear builder frames entries by subgroup
    // index; the leader re-keys them to comm ranks before they go
    // inter-node.
    let raw = linear::gather(&mut Subgroup::new(s, group), w_in, my_idx, n, 0, send);
    let node_frame = s.empty();
    if my_idx == 0 {
        let members = group.to_vec();
        s.push(Round::new().compute(move |ctx| {
            let wire = ctx.take(raw)?;
            let entries: Vec<(u32, Vec<u8>)> = unframe_entries(&wire)?
                .into_iter()
                .map(|(idx, payload)| (members[idx as usize] as u32, payload))
                .collect();
            ctx.put(node_frame, frame_entries(&entries));
            ctx.recycle(wire);
            Ok(())
        }));
    }

    // Leaders exchange the node aggregates.
    let outer = if my_idx == 0 {
        let lsub = &mut Subgroup::new(s, leaders);
        let len = leaders.len();
        if len.is_power_of_two() {
            rd::allgather(lsub, w_lead_a, g, len, node_frame)
        } else {
            let gathered = tree::gather(lsub, w_lead_a, g, len, 0, node_frame);
            tree::bcast(lsub, w_lead_b, g, len, 0, gathered);
            gathered
        }
    } else {
        s.empty()
    };

    // Leaders fan the merged picture back out within their nodes.
    if n > 1 {
        linear::bcast(&mut Subgroup::new(s, group), w_out, my_idx, n, 0, outer);
    }

    // Flatten the frame-of-frames into one comm-rank-keyed frame.
    let out = s.empty();
    s.push(Round::new().compute(move |ctx| {
        let wire = ctx.take(outer)?;
        let mut entries: Vec<(u32, Vec<u8>)> = Vec::new();
        for (_, node_frame) in unframe_entries(&wire)? {
            entries.extend(unframe_entries(&node_frame)?);
        }
        ctx.put(out, frame_entries(&entries));
        ctx.recycle(wire);
        Ok(())
    }));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo(assignment: &[usize]) -> CommTopology {
        let nodes = NodeMap::from_assignment(assignment.to_vec());
        let world: Vec<usize> = (0..assignment.len()).collect();
        CommTopology::new(&world, &nodes)
    }

    #[test]
    fn groups_leaders_and_contiguity() {
        let t = topo(&[0, 0, 1, 1, 1, 2]);
        assert_eq!(t.groups, vec![vec![0, 1], vec![2, 3, 4], vec![5]]);
        assert_eq!(t.leaders, vec![0, 2, 5]);
        assert!(t.contiguous);
        assert!(t.is_hierarchical());
        assert_eq!(t.leader_of(4), 2);
        let (group, idx, g) = t.placement(3);
        assert_eq!((group, idx, g), (&[2usize, 3, 4][..], 1, 1));
    }

    #[test]
    fn round_robin_maps_are_hierarchical_but_not_contiguous() {
        let t = topo(&[0, 1, 0, 1]);
        assert_eq!(t.groups, vec![vec![0, 2], vec![1, 3]]);
        assert_eq!(t.leaders, vec![0, 1]);
        assert!(!t.contiguous);
        assert!(t.is_hierarchical());
        assert!(t.hint().hierarchical);
        assert!(!t.hint().contiguous);
    }

    #[test]
    fn degenerate_maps_are_not_hierarchical() {
        assert!(!topo(&[0, 0, 0, 0]).is_hierarchical(), "one node");
        assert!(!topo(&[0, 1, 2, 3]).is_hierarchical(), "one rank per node");
        // Both still report contiguous (they are trivially ordered).
        assert!(topo(&[0, 0, 0, 0]).hint().contiguous);
    }

    #[test]
    fn subcommunicator_topology_uses_member_world_ranks() {
        // World: nodes [0,0,1,1]; a sub-communicator of world ranks
        // [1, 3] has one member per node -> degenerate.
        let nodes = NodeMap::regular(2, 2);
        let t = CommTopology::new(&[1, 3], &nodes);
        assert_eq!(t.groups, vec![vec![0], vec![1]]);
        assert!(!t.is_hierarchical());
        // [0, 1, 3]: node 0 holds comm ranks {0, 1}, node 1 holds {2}.
        let t = CommTopology::new(&[0, 1, 3], &nodes);
        assert_eq!(t.groups, vec![vec![0, 1], vec![2]]);
        assert!(t.is_hierarchical());
        assert_eq!(t.leaders, vec![0, 2]);
    }
}
