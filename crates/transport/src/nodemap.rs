//! Rank → node placement for multi-fabric jobs.
//!
//! The paper runs every job over a single native device — all ranks talk
//! through the same fabric. Real clusters are hierarchical: ranks on one
//! *node* share memory, ranks on different nodes cross a network link
//! that is orders of magnitude slower. A [`NodeMap`] records that
//! placement (which node each rank lives on), the [`hybrid`](crate::hybrid)
//! device routes traffic by it, and the collective tuning layer above
//! selects hierarchical (leader-based) algorithms when the map is
//! non-trivial.
//!
//! ## Spec strings
//!
//! [`NodeMap::parse`] accepts three spellings (the `MPIJAVA_NODES`
//! environment override uses the same grammar):
//!
//! | spec | meaning |
//! |------|---------|
//! | `"4"` | 4 nodes, ranks block-split as evenly as possible |
//! | `"2x4"` | 2 nodes × 4 ranks per node (block assignment; product must equal the job size) |
//! | `"0,0,1,1"` | explicit per-rank node ids (one entry per rank) |
//!
//! Node ids are normalized to dense `0..num_nodes` in order of first
//! appearance, so `"5,5,9,9"` and `"0,0,1,1"` describe the same map.

/// Placement of every rank onto a node. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeMap {
    /// `assignment[rank]` = dense node id of that rank.
    assignment: Vec<usize>,
    /// Number of distinct nodes.
    num_nodes: usize,
}

impl NodeMap {
    /// Every rank on one node (the single-fabric default).
    pub fn flat(size: usize) -> NodeMap {
        NodeMap {
            assignment: vec![0; size],
            num_nodes: if size == 0 { 0 } else { 1 },
        }
    }

    /// `nodes × ranks_per_node` block placement: ranks `0..r` on node 0,
    /// `r..2r` on node 1, and so on.
    pub fn regular(nodes: usize, ranks_per_node: usize) -> NodeMap {
        let assignment = (0..nodes * ranks_per_node)
            .map(|rank| rank / ranks_per_node.max(1))
            .collect();
        NodeMap::from_assignment(assignment)
    }

    /// `size` ranks block-split across `nodes` nodes as evenly as
    /// possible (the first `size % nodes` nodes get one extra rank).
    pub fn split(size: usize, nodes: usize) -> NodeMap {
        let nodes = nodes.clamp(1, size.max(1));
        let base = size / nodes;
        let extra = size % nodes;
        let mut assignment = Vec::with_capacity(size);
        for node in 0..nodes {
            let len = base + usize::from(node < extra);
            assignment.extend(std::iter::repeat_n(node, len));
        }
        NodeMap::from_assignment(assignment)
    }

    /// Explicit per-rank node ids. Ids are normalized to dense
    /// `0..num_nodes` in order of first appearance.
    pub fn from_assignment(raw: Vec<usize>) -> NodeMap {
        let mut dense: Vec<usize> = Vec::new();
        let assignment = raw
            .into_iter()
            .map(|id| match dense.iter().position(|&d| d == id) {
                Some(at) => at,
                None => {
                    dense.push(id);
                    dense.len() - 1
                }
            })
            .collect();
        NodeMap {
            assignment,
            num_nodes: dense.len(),
        }
    }

    /// Parse a placement spec for a job of `size` ranks (see the module
    /// docs for the grammar). Errors carry a human-readable reason.
    pub fn parse(spec: &str, size: usize) -> Result<NodeMap, String> {
        let spec = spec.trim();
        if spec.is_empty() {
            return Err("empty node spec".into());
        }
        if spec.contains(',') {
            let ids: Result<Vec<usize>, _> = spec
                .split(',')
                .map(|part| part.trim().parse::<usize>())
                .collect();
            let ids = ids.map_err(|_| format!("unparsable node id list {spec:?}"))?;
            if ids.len() != size {
                return Err(format!(
                    "node id list has {} entries for {size} ranks",
                    ids.len()
                ));
            }
            return Ok(NodeMap::from_assignment(ids));
        }
        if let Some((nodes, per_node)) = spec.split_once(['x', 'X']) {
            let nodes: usize = nodes
                .trim()
                .parse()
                .map_err(|_| format!("unparsable node count in {spec:?}"))?;
            let per_node: usize = per_node
                .trim()
                .parse()
                .map_err(|_| format!("unparsable ranks-per-node in {spec:?}"))?;
            if nodes == 0 || per_node == 0 {
                return Err(format!("zero dimension in node spec {spec:?}"));
            }
            let placed = nodes.checked_mul(per_node);
            if placed != Some(size) {
                let placed = placed.map_or("more than usize::MAX".into(), |n| n.to_string());
                return Err(format!(
                    "node spec {spec:?} places {placed} ranks but the job has {size}"
                ));
            }
            return Ok(NodeMap::regular(nodes, per_node));
        }
        let nodes: usize = spec
            .parse()
            .map_err(|_| format!("unparsable node spec {spec:?}"))?;
        if nodes == 0 {
            return Err("node count must be at least 1".into());
        }
        if nodes > size {
            return Err(format!("{nodes} nodes for only {size} ranks"));
        }
        Ok(NodeMap::split(size, nodes))
    }

    /// Number of ranks the map places.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// True for the zero-rank map.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Number of distinct nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Node id of `rank`.
    pub fn node_of(&self, rank: usize) -> usize {
        self.assignment[rank]
    }

    /// The raw per-rank assignment (dense node ids).
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// True when every rank shares one node (single-fabric semantics).
    pub fn is_flat(&self) -> bool {
        self.num_nodes <= 1
    }

    /// True when the map has real hierarchy to exploit: more than one
    /// node *and* at least one node holding more than one rank. The two
    /// degenerate shapes — everything on one node, one rank per node —
    /// behave exactly like a single fabric, and the collective tuning
    /// layer collapses them to the flat algorithms.
    pub fn is_hierarchical(&self) -> bool {
        self.num_nodes > 1 && self.num_nodes < self.assignment.len()
    }

    /// Do ranks `a` and `b` share a node?
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.assignment[a] == self.assignment[b]
    }

    /// The ranks placed on `node`, ascending.
    pub fn ranks_on_node(&self, node: usize) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter_map(|(rank, &n)| (n == node).then_some(rank))
            .collect()
    }

    /// The lowest rank on `node` — the node's *leader* in the
    /// hierarchical collective schemes.
    pub fn leader_of(&self, node: usize) -> Option<usize> {
        self.assignment.iter().position(|&n| n == node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_map_is_one_node() {
        let m = NodeMap::flat(4);
        assert_eq!(m.len(), 4);
        assert_eq!(m.num_nodes(), 1);
        assert!(m.is_flat());
        assert!(!m.is_hierarchical());
        assert!(m.same_node(0, 3));
        assert_eq!(m.ranks_on_node(0), vec![0, 1, 2, 3]);
        assert_eq!(m.leader_of(0), Some(0));
    }

    #[test]
    fn regular_blocks_and_leaders() {
        let m = NodeMap::regular(2, 3);
        assert_eq!(m.assignment(), &[0, 0, 0, 1, 1, 1]);
        assert!(m.is_hierarchical());
        assert_eq!(m.ranks_on_node(1), vec![3, 4, 5]);
        assert_eq!(m.leader_of(1), Some(3));
        assert!(m.same_node(3, 5));
        assert!(!m.same_node(2, 3));
    }

    #[test]
    fn split_distributes_remainder_to_early_nodes() {
        let m = NodeMap::split(7, 3);
        assert_eq!(m.assignment(), &[0, 0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn assignment_ids_are_normalized() {
        let m = NodeMap::from_assignment(vec![5, 5, 9, 9, 5]);
        assert_eq!(m.assignment(), &[0, 0, 1, 1, 0]);
        assert_eq!(m.num_nodes(), 2);
        // Round-robin maps are legal, just non-contiguous.
        let rr = NodeMap::from_assignment(vec![0, 1, 0, 1]);
        assert!(rr.is_hierarchical());
        assert_eq!(rr.ranks_on_node(0), vec![0, 2]);
    }

    #[test]
    fn degenerate_one_rank_per_node_is_not_hierarchical() {
        let m = NodeMap::from_assignment(vec![0, 1, 2, 3]);
        assert_eq!(m.num_nodes(), 4);
        assert!(!m.is_flat());
        assert!(!m.is_hierarchical());
    }

    #[test]
    fn parse_all_three_spellings() {
        assert_eq!(
            NodeMap::parse("2", 8).unwrap(),
            NodeMap::regular(2, 4),
            "bare node count"
        );
        assert_eq!(NodeMap::parse(" 2x4 ", 8).unwrap(), NodeMap::regular(2, 4));
        assert_eq!(
            NodeMap::parse("0,0,1,1", 4).unwrap(),
            NodeMap::regular(2, 2)
        );
        assert_eq!(NodeMap::parse("3", 7).unwrap(), NodeMap::split(7, 3));
    }

    #[test]
    fn parse_rejects_inconsistent_specs() {
        assert!(NodeMap::parse("", 4).is_err());
        assert!(
            NodeMap::parse("2x3", 8).is_err(),
            "6 ranks placed, 8 in job"
        );
        assert!(NodeMap::parse("0x4", 0).is_err());
        assert!(NodeMap::parse("0,0,1", 4).is_err(), "3 entries for 4 ranks");
        assert!(NodeMap::parse("a,b", 2).is_err());
        assert!(NodeMap::parse("9", 4).is_err(), "more nodes than ranks");
        assert!(NodeMap::parse("banana", 4).is_err());
        // `nodes * per_node` overflows: rejected, never wrapped or panicked.
        assert!(NodeMap::parse("4294967296x4294967296", 2).is_err());
        assert!(NodeMap::parse("9223372036854775810x2", 4).is_err());
    }
}
