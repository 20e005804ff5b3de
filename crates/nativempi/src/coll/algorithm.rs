//! The collective algorithm identifiers and the `MPIJAVA_COLL_ALG`
//! override.
//!
//! Which wire pattern a collective uses is normally decided by the tuning
//! table in [`tuning`](super::tuning). For ablations the choice can be
//! pinned, either programmatically
//! ([`UniverseConfig::coll_algorithm`](crate::UniverseConfig::coll_algorithm),
//! `MpiRuntime::coll_algorithm` in the binding) or through the
//! [`COLL_ALG_ENV`] environment variable (one knob of
//! [`env::overlay`](crate::env::overlay), which holds the precedence rule
//! and what a malformed value does). A pinned algorithm that cannot
//! implement the requested operation (see
//! [`tuning::supported`](super::tuning::supported)) falls back to the
//! tuned choice, so a forced run is always correct — just possibly less
//! interesting.

use std::fmt;
use std::str::FromStr;

/// Environment variable pinning the collective algorithm for ablations:
/// `MPIJAVA_COLL_ALG=linear|tree|rd|ring|hier`. Unset, empty
/// or `auto` keeps the tuned size-aware selection.
pub const COLL_ALG_ENV: &str = "MPIJAVA_COLL_ALG";

/// The collective wire patterns the engine implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollAlgorithm {
    /// Root-centric fan-in/fan-out — the paper-faithful baseline the seed
    /// shipped with. O(P) serialized latency at the root, but the only
    /// pattern that reproduces the *sequential* rank-ordered reduction
    /// fold bit-for-bit (which floating `SUM`/`PROD` require).
    Linear,
    /// Binomial tree: barrier, bcast, gather, scatter, reduce. O(log P)
    /// rounds; reductions merge sibling rank blocks left-to-right, so any
    /// associative operation (all MPI operations, by contract) reduces in
    /// rank order.
    BinomialTree,
    /// Recursive doubling: barrier, allgather, allreduce on power-of-two
    /// communicators. O(log P) rounds with pairwise exchanges.
    RecursiveDoubling,
    /// Ring: allgather, reduce-scatter, allreduce (reduce-scatter +
    /// allgather). O(P) rounds but every link is busy every round, so it
    /// has the best bandwidth term for large payloads.
    Ring,
    /// Leader-based hierarchical collectives for multi-fabric jobs
    /// (see [`super::hier`]): reduce/gather intra-node to the node
    /// leader over the cheap fabric, run the flat tree/recursive-
    /// doubling schedule among the leaders over the expensive one, then
    /// broadcast intra-node — the inter-node link carries each payload
    /// the minimum number of times. The tuned selector picks this
    /// automatically when the fabric's node map is non-trivial; on a
    /// flat (or one-rank-per-node) map it falls back to the flat
    /// algorithms.
    Hierarchical,
}

impl CollAlgorithm {
    /// Every algorithm, in ablation-sweep order.
    pub const ALL: [CollAlgorithm; 5] = [
        CollAlgorithm::Linear,
        CollAlgorithm::BinomialTree,
        CollAlgorithm::RecursiveDoubling,
        CollAlgorithm::Ring,
        CollAlgorithm::Hierarchical,
    ];

    /// Position in [`CollAlgorithm::ALL`] (the trace-event encoding).
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&a| a == self).unwrap_or(0)
    }

    /// Stable label used in benchmark output and accepted by [`FromStr`].
    pub fn label(self) -> &'static str {
        match self {
            CollAlgorithm::Linear => "linear",
            CollAlgorithm::BinomialTree => "tree",
            CollAlgorithm::RecursiveDoubling => "rd",
            CollAlgorithm::Ring => "ring",
            CollAlgorithm::Hierarchical => "hier",
        }
    }

    /// Parse an override value: `Ok(None)` for the explicit no-override
    /// spellings (empty, `auto`), `Ok(Some(_))` for a recognized
    /// algorithm, `Err(())` for anything else (which the overlay warns
    /// about and ignores, so a typo in an ablation run cannot silently
    /// measure the wrong algorithm).
    #[allow(clippy::result_unit_err)] // mirrors the FromStr impl's unit error
    pub fn parse_override(value: &str) -> std::result::Result<Option<CollAlgorithm>, ()> {
        let trimmed = value.trim();
        if trimmed.is_empty() || trimmed.eq_ignore_ascii_case("auto") {
            return Ok(None);
        }
        trimmed.parse().map(Some)
    }
}

impl fmt::Display for CollAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for CollAlgorithm {
    type Err = ();

    fn from_str(s: &str) -> std::result::Result<CollAlgorithm, ()> {
        match s.trim().to_ascii_lowercase().as_str() {
            "linear" => Ok(CollAlgorithm::Linear),
            "tree" | "binomial" | "binomial-tree" => Ok(CollAlgorithm::BinomialTree),
            "rd" | "recursive-doubling" | "recursive_doubling" => {
                Ok(CollAlgorithm::RecursiveDoubling)
            }
            "ring" => Ok(CollAlgorithm::Ring),
            "hier" | "hierarchical" => Ok(CollAlgorithm::Hierarchical),
            _ => Err(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip_through_fromstr() {
        for alg in CollAlgorithm::ALL {
            assert_eq!(alg.label().parse::<CollAlgorithm>().unwrap(), alg);
        }
    }

    #[test]
    fn aliases_and_rejections() {
        assert_eq!(
            "recursive-doubling".parse::<CollAlgorithm>().unwrap(),
            CollAlgorithm::RecursiveDoubling
        );
        assert_eq!(
            "Binomial".parse::<CollAlgorithm>().unwrap(),
            CollAlgorithm::BinomialTree
        );
        assert!("auto".parse::<CollAlgorithm>().is_err());
        assert!("".parse::<CollAlgorithm>().is_err());
        assert!("quantum".parse::<CollAlgorithm>().is_err());
    }

    /// Satellite: the env-override parser distinguishes "explicitly no
    /// override" from "unrecognized" (which the overlay warns about and
    /// rejects) instead of silently defaulting either way.
    #[test]
    fn env_override_parsing_rejects_unknown_values_explicitly() {
        // Recognized algorithms pass through.
        assert_eq!(
            CollAlgorithm::parse_override("ring"),
            Ok(Some(CollAlgorithm::Ring))
        );
        assert_eq!(
            CollAlgorithm::parse_override("  Binomial-Tree  "),
            Ok(Some(CollAlgorithm::BinomialTree))
        );
        // The deliberate no-override spellings.
        assert_eq!(CollAlgorithm::parse_override(""), Ok(None));
        assert_eq!(CollAlgorithm::parse_override("  "), Ok(None));
        assert_eq!(CollAlgorithm::parse_override("auto"), Ok(None));
        assert_eq!(CollAlgorithm::parse_override("AUTO"), Ok(None));
        // Anything else is an error, not a silent default.
        assert_eq!(CollAlgorithm::parse_override("quantum"), Err(()));
        assert_eq!(CollAlgorithm::parse_override("treee"), Err(()));
        assert_eq!(CollAlgorithm::parse_override("linear,ring"), Err(()));
    }
}
