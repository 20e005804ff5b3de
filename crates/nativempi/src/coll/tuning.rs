//! Size-aware algorithm selection: (operation, communicator size, payload
//! bytes, reduction-order policy) → [`CollAlgorithm`].
//!
//! ## Selection table
//!
//! ## Topology-aware selection
//!
//! When the fabric's node map makes the communicator *hierarchical*
//! (more than one node, at least one node with several members — see
//! [`TopoHint`]), barrier / bcast / allgather / reduce / allreduce
//! prefer the leader-based [`hier`](super::hier) schedules: the
//! inter-node link is the scarce resource, and the hierarchical wire
//! pattern crosses it the minimum number of times regardless of
//! payload, so no payload axis is needed. Reductions additionally
//! respect the order rules: `Ordered` operations require a contiguous
//! placement (see the `hier` module docs), `Sequential` ones never run
//! hierarchically. On flat and degenerate maps (everything on one node,
//! one rank per node) the hint is non-hierarchical and the table below
//! applies unchanged — including under a pinned
//! `MPIJAVA_COLL_ALG=hier`, which then falls back like any other
//! unsupported pin.
//!
//! | op | comm size | payload | algorithm |
//! |---|---|---|---|
//! | *hierarchical map* (barrier/bcast/allgather/reduce/allreduce) | any | any | hier (order rules permitting) |
//! | barrier | power of two | — | recursive doubling |
//! | barrier | other | — | binomial tree |
//! | bcast | ≥ 2 | any | binomial tree |
//! | gather / scatter | 2–3 | any | linear |
//! | gather / scatter | ≥ 4 | any | binomial tree |
//! | allgather | power of two | any | recursive doubling |
//! | allgather | other | any | ring |
//! | alltoall | any | any | linear (posted pairwise) |
//! | reduce | any | [`OrderPolicy::Sequential`] op | linear |
//! | reduce | ≥ 2 | other ops | binomial tree |
//! | allreduce | any | `Sequential` op | linear |
//! | allreduce | ≥ 2 | `Any`-order op, ≥ [`RING_PAYLOAD_BYTES`] | ring |
//! | allreduce | power of two | small / `Ordered` op | recursive doubling |
//! | allreduce | other | small / `Ordered` op | binomial tree |
//! | reduce-scatter | ≥ 2 | `Any`-order op, ≥ [`RING_PAYLOAD_BYTES`] | ring |
//! | reduce-scatter | any | otherwise | linear |
//! | scan | any | any | linear (the op *is* a sequential chain) |
//!
//! Payload-aware rows exist only for the reduction family, where MPI
//! guarantees `count × datatype` is identical on every rank, so every rank
//! computes the same `bytes` and the selection cannot diverge. The pure
//! data-movement collectives (bcast, gather(v), scatter(v), allgather(v),
//! alltoall(v)) are selected on communicator size alone: their per-rank
//! contributions may legally differ (the `v` variants), and a selection
//! keyed on a local length would pick different wire patterns on
//! different ranks and deadlock.
//!
//! ## Reduction-order policies
//!
//! Every algorithm must reproduce the linear baseline bit-for-bit (the
//! cross-algorithm equivalence suite enforces it), which constrains how a
//! reduction may be re-associated or commuted — see [`OrderPolicy`].

use super::algorithm::CollAlgorithm;
use crate::ops::{Op, PredefinedOp};
use crate::types::PrimitiveKind;

/// Payload size (bytes) from which the ring pattern is preferred for
/// allreduce / reduce-scatter: below it the O(P) round count dominates,
/// above it the all-links-busy bandwidth term wins.
pub const RING_PAYLOAD_BYTES: usize = 16 * 1024;

/// The collective operations the engine dispatches (tag windows are
/// allocated per schedule from the per-communicator sequence counter —
/// see [`super::nb`] — so the discriminant no longer keys the tag
/// space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollOp {
    Barrier,
    Bcast,
    Gather,
    Scatter,
    Allgather,
    Alltoall,
    Reduce,
    Allreduce,
    ReduceScatter,
    Scan,
}

impl CollOp {
    /// Every operation, in declaration order. Index positions are stable
    /// (trace events store `op as usize` and resolve labels at dump
    /// time through this table).
    pub const ALL: [CollOp; 10] = [
        CollOp::Barrier,
        CollOp::Bcast,
        CollOp::Gather,
        CollOp::Scatter,
        CollOp::Allgather,
        CollOp::Alltoall,
        CollOp::Reduce,
        CollOp::Allreduce,
        CollOp::ReduceScatter,
        CollOp::Scan,
    ];

    /// Stable lowercase label (used in trace dumps and bench output).
    pub fn label(self) -> &'static str {
        match self {
            CollOp::Barrier => "barrier",
            CollOp::Bcast => "bcast",
            CollOp::Gather => "gather",
            CollOp::Scatter => "scatter",
            CollOp::Allgather => "allgather",
            CollOp::Alltoall => "alltoall",
            CollOp::Reduce => "reduce",
            CollOp::Allreduce => "allreduce",
            CollOp::ReduceScatter => "reduce_scatter",
            CollOp::Scan => "scan",
        }
    }

    /// Position in [`CollOp::ALL`] (the trace-event encoding).
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&o| o == self).unwrap_or(0)
    }
}

/// How freely a reduction may be re-associated and commuted while staying
/// byte-identical to the rank-ordered sequential fold of the linear
/// baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderPolicy {
    /// Exact under any association *and* commutation: the predefined
    /// integer / bitwise / logical operations. Every algorithm applies.
    Any,
    /// Exactly associative, but operands must keep rank order:
    /// user-defined operations (MPI requires them to be associative, and
    /// this engine promises them rank order), `MAXLOC`/`MINLOC` (the
    /// tie-break prefers the lower rank) and float `MAX`/`MIN` (order
    /// decides which NaN-free operand survives a tie). Tree and
    /// recursive-doubling merges preserve rank order; the ring's rotated
    /// fold does not.
    Ordered,
    /// Not even associative at the bit level: floating `SUM`/`PROD`.
    /// Only the sequential linear fold is byte-stable.
    Sequential,
}

/// Node-topology summary of one communicator, consulted by the
/// selection functions. Produced by the engine from the fabric's
/// [`NodeMap`](mpi_transport::NodeMap) and the communicator's member
/// list; [`TopoHint::FLAT`] describes a single-fabric communicator and
/// keeps the pre-topology behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopoHint {
    /// More than one node and at least one node with several members —
    /// the leader scheme has something to exploit.
    pub hierarchical: bool,
    /// Every node's members form one consecutive comm-rank block, blocks
    /// ascending — the hierarchical fold preserves rank order, so
    /// `Ordered` reductions are admissible.
    pub contiguous: bool,
}

impl TopoHint {
    /// A single-fabric communicator (no hierarchy; trivially ordered).
    pub const FLAT: TopoHint = TopoHint {
        hierarchical: false,
        contiguous: true,
    };
}

impl Default for TopoHint {
    fn default() -> Self {
        TopoHint::FLAT
    }
}

/// Classify how a reduction of `kind` under `op` may be reordered.
pub fn order_policy(op: &Op, kind: PrimitiveKind) -> OrderPolicy {
    use PrimitiveKind as K;
    match op {
        Op::User(_) => OrderPolicy::Ordered,
        Op::Predefined(p) => match (p, kind) {
            (PredefinedOp::Maxloc | PredefinedOp::Minloc, _) => OrderPolicy::Ordered,
            (
                PredefinedOp::Sum | PredefinedOp::Prod,
                K::Float | K::Double | K::Float2 | K::Double2,
            ) => OrderPolicy::Sequential,
            (PredefinedOp::Max | PredefinedOp::Min, K::Float | K::Double) => OrderPolicy::Ordered,
            _ => OrderPolicy::Any,
        },
    }
}

/// Can `alg` implement `op` on a communicator of `size` ranks under
/// `policy`, over a fabric described by `topo`? (`size` is ≥ 2 here;
/// single-rank communicators take the fast path before selection.)
pub fn supported(
    alg: CollAlgorithm,
    op: CollOp,
    size: usize,
    policy: OrderPolicy,
    topo: TopoHint,
) -> bool {
    use CollAlgorithm as A;
    use CollOp as O;
    match alg {
        // The linear baseline implements everything.
        A::Linear => true,
        A::BinomialTree => match op {
            O::Barrier | O::Bcast | O::Gather | O::Scatter => true,
            O::Reduce | O::Allreduce => policy != OrderPolicy::Sequential,
            _ => false,
        },
        A::RecursiveDoubling => {
            size.is_power_of_two()
                && match op {
                    O::Barrier | O::Allgather => true,
                    O::Allreduce => policy != OrderPolicy::Sequential,
                    _ => false,
                }
        }
        A::Ring => match op {
            O::Allgather => true,
            O::Allreduce | O::ReduceScatter => policy == OrderPolicy::Any,
            _ => false,
        },
        // The leader scheme needs real hierarchy, and its reductions
        // re-associate across node boundaries: rank order survives only
        // on contiguous placements (see the hier module docs).
        A::Hierarchical => {
            topo.hierarchical
                && match op {
                    O::Barrier | O::Bcast | O::Allgather => true,
                    O::Reduce | O::Allreduce => match policy {
                        OrderPolicy::Any => true,
                        OrderPolicy::Ordered => topo.contiguous,
                        OrderPolicy::Sequential => false,
                    },
                    _ => false,
                }
        }
    }
}

/// Does the node topology bear on selecting for `op`? Only where a
/// hierarchical schedule exists; for the rest the engine skips deriving
/// the communicator's [`TopoHint`] altogether.
pub fn topology_matters(op: CollOp) -> bool {
    let most_permissive = TopoHint {
        hierarchical: true,
        contiguous: true,
    };
    supported(
        CollAlgorithm::Hierarchical,
        op,
        2,
        OrderPolicy::Any,
        most_permissive,
    )
}

/// The tuned choice from the table in the module docs. Always returns an
/// algorithm [`supported`] for the inputs.
pub fn tuned(
    op: CollOp,
    size: usize,
    bytes: usize,
    policy: OrderPolicy,
    topo: TopoHint,
) -> CollAlgorithm {
    use CollAlgorithm as A;
    use CollOp as O;
    // Topology first: on a hierarchical map the inter-node link
    // dominates, and the leader scheme minimizes its traversals for
    // every payload size (order rules permitting — `supported` encodes
    // them, and the ops it rejects fall through to the flat table).
    if supported(A::Hierarchical, op, size, policy, topo) {
        return A::Hierarchical;
    }
    match op {
        O::Barrier => {
            if size.is_power_of_two() {
                A::RecursiveDoubling
            } else {
                A::BinomialTree
            }
        }
        O::Bcast => A::BinomialTree,
        O::Gather | O::Scatter => {
            if size >= 4 {
                A::BinomialTree
            } else {
                A::Linear
            }
        }
        O::Allgather => {
            if size.is_power_of_two() {
                A::RecursiveDoubling
            } else {
                A::Ring
            }
        }
        O::Alltoall | O::Scan => A::Linear,
        O::Reduce => {
            if policy == OrderPolicy::Sequential {
                A::Linear
            } else {
                A::BinomialTree
            }
        }
        O::Allreduce => match policy {
            OrderPolicy::Sequential => A::Linear,
            OrderPolicy::Any if bytes >= RING_PAYLOAD_BYTES => A::Ring,
            _ => {
                if size.is_power_of_two() {
                    A::RecursiveDoubling
                } else {
                    A::BinomialTree
                }
            }
        },
        O::ReduceScatter => {
            if policy == OrderPolicy::Any && bytes >= RING_PAYLOAD_BYTES {
                A::Ring
            } else {
                A::Linear
            }
        }
    }
}

/// Final selection: a forced algorithm (env or programmatic) wins when it
/// can implement the operation, otherwise the tuned choice applies.
pub fn select(
    op: CollOp,
    size: usize,
    bytes: usize,
    policy: OrderPolicy,
    topo: TopoHint,
    forced: Option<CollAlgorithm>,
) -> CollAlgorithm {
    let fallback = tuned(op, size, bytes, policy, topo);
    debug_assert!(supported(fallback, op, size, policy, topo));
    match forced {
        Some(alg) if supported(alg, op, size, policy, topo) => alg,
        _ => fallback,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn tuned_choice_is_always_supported() {
        let ops = [
            CollOp::Barrier,
            CollOp::Bcast,
            CollOp::Gather,
            CollOp::Scatter,
            CollOp::Allgather,
            CollOp::Alltoall,
            CollOp::Reduce,
            CollOp::Allreduce,
            CollOp::ReduceScatter,
            CollOp::Scan,
        ];
        let topos = [
            TopoHint::FLAT,
            TopoHint {
                hierarchical: true,
                contiguous: true,
            },
            TopoHint {
                hierarchical: true,
                contiguous: false,
            },
        ];
        for op in ops {
            for size in [2usize, 3, 4, 5, 8, 12, 16] {
                for bytes in [0usize, 64, RING_PAYLOAD_BYTES, 1 << 20] {
                    for policy in [
                        OrderPolicy::Any,
                        OrderPolicy::Ordered,
                        OrderPolicy::Sequential,
                    ] {
                        for topo in topos {
                            let alg = tuned(op, size, bytes, policy, topo);
                            assert!(
                                supported(alg, op, size, policy, topo),
                                "{op:?} size={size} bytes={bytes} {policy:?} {topo:?} -> {alg:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn large_commutative_allreduce_goes_ring() {
        assert_eq!(
            tuned(
                CollOp::Allreduce,
                8,
                64 * 1024,
                OrderPolicy::Any,
                TopoHint::FLAT
            ),
            CollAlgorithm::Ring
        );
        assert_eq!(
            tuned(CollOp::Allreduce, 8, 64, OrderPolicy::Any, TopoHint::FLAT),
            CollAlgorithm::RecursiveDoubling
        );
        assert_eq!(
            tuned(CollOp::Allreduce, 6, 64, OrderPolicy::Any, TopoHint::FLAT),
            CollAlgorithm::BinomialTree
        );
    }

    #[test]
    fn sequential_ops_stay_linear_everywhere() {
        for op in [CollOp::Reduce, CollOp::Allreduce, CollOp::ReduceScatter] {
            for topo in [
                TopoHint::FLAT,
                TopoHint {
                    hierarchical: true,
                    contiguous: true,
                },
            ] {
                assert_eq!(
                    tuned(op, 8, 1 << 20, OrderPolicy::Sequential, topo),
                    CollAlgorithm::Linear
                );
            }
        }
    }

    #[test]
    fn hierarchical_maps_prefer_hier_and_degenerate_ones_collapse() {
        let hier = TopoHint {
            hierarchical: true,
            contiguous: true,
        };
        let scattered = TopoHint {
            hierarchical: true,
            contiguous: false,
        };
        for op in [
            CollOp::Barrier,
            CollOp::Bcast,
            CollOp::Allgather,
            CollOp::Reduce,
            CollOp::Allreduce,
        ] {
            assert_eq!(
                tuned(op, 8, 1 << 20, OrderPolicy::Any, hier),
                CollAlgorithm::Hierarchical,
                "{op:?}"
            );
        }
        // Ordered reductions need a contiguous placement; data movers
        // do not care.
        assert_eq!(
            tuned(CollOp::Allreduce, 8, 64, OrderPolicy::Ordered, hier),
            CollAlgorithm::Hierarchical
        );
        assert_eq!(
            tuned(CollOp::Allreduce, 8, 64, OrderPolicy::Ordered, scattered),
            CollAlgorithm::RecursiveDoubling
        );
        assert_eq!(
            tuned(CollOp::Bcast, 8, 0, OrderPolicy::Any, scattered),
            CollAlgorithm::Hierarchical
        );
        // Ops outside the hierarchical set keep their flat choices.
        assert_eq!(
            tuned(CollOp::Alltoall, 8, 0, OrderPolicy::Any, hier),
            CollAlgorithm::Linear
        );
        // A flat (or degenerate) map never selects hier, and a forced
        // hier pin falls back to the tuned flat choice.
        assert_eq!(
            tuned(CollOp::Allreduce, 8, 64, OrderPolicy::Any, TopoHint::FLAT),
            CollAlgorithm::RecursiveDoubling
        );
        assert_eq!(
            select(
                CollOp::Allreduce,
                8,
                64,
                OrderPolicy::Any,
                TopoHint::FLAT,
                Some(CollAlgorithm::Hierarchical),
            ),
            CollAlgorithm::RecursiveDoubling
        );
    }

    #[test]
    fn forced_algorithm_falls_back_when_unsupported() {
        // Recursive doubling cannot run on a 5-rank communicator.
        let got = select(
            CollOp::Allreduce,
            5,
            64,
            OrderPolicy::Any,
            TopoHint::FLAT,
            Some(CollAlgorithm::RecursiveDoubling),
        );
        assert_eq!(got, CollAlgorithm::BinomialTree);
        // Ring cannot preserve rank order for user ops.
        let got = select(
            CollOp::ReduceScatter,
            8,
            1 << 20,
            OrderPolicy::Ordered,
            TopoHint::FLAT,
            Some(CollAlgorithm::Ring),
        );
        assert_eq!(got, CollAlgorithm::Linear);
        // A supported forced choice wins over the tuned one.
        let got = select(
            CollOp::Bcast,
            8,
            0,
            OrderPolicy::Any,
            TopoHint::FLAT,
            Some(CollAlgorithm::Linear),
        );
        assert_eq!(got, CollAlgorithm::Linear);
    }

    #[test]
    fn order_policy_classification() {
        use crate::ops::{Op, PredefinedOp};
        use PrimitiveKind as K;
        let sum = Op::Predefined(PredefinedOp::Sum);
        assert_eq!(order_policy(&sum, K::Int), OrderPolicy::Any);
        assert_eq!(order_policy(&sum, K::Double), OrderPolicy::Sequential);
        let max = Op::Predefined(PredefinedOp::Max);
        assert_eq!(order_policy(&max, K::Float), OrderPolicy::Ordered);
        assert_eq!(order_policy(&max, K::Long), OrderPolicy::Any);
        let maxloc = Op::Predefined(PredefinedOp::Maxloc);
        assert_eq!(order_policy(&maxloc, K::Int2), OrderPolicy::Ordered);
        let user = Op::User(Arc::new(|_, _, _, _| Ok(())));
        assert_eq!(order_policy(&user, K::Int), OrderPolicy::Ordered);
    }
}
