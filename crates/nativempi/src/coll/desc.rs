//! The collective descriptor: one value that says *which* collective a
//! call is and with what parameters, from which everything the dispatch
//! needs is derived — the [`CollOp`], the tuning inputs, the payload
//! validation, the single-rank outcome and the schedule-cache key.
//!
//! The descriptor borrows (`&Op`, `&[usize]`), so describing a transient
//! call allocates nothing; a persistent operation owns its reduction
//! operator through the same type (`Cow::Owned`, `CollDesc<'static>`).
//! The per-call contribution travels beside it as a [`Payload`]. See the
//! [parent module](super) for the descriptor → plan → launcher flow.
//!
//! Both types are public because they are the binding's entry point
//! too: the `mpijava` crate builds one descriptor per collective call,
//! on every surface and in every call mode.

use std::borrow::Cow;

use super::nb::cache::{OpKey, SchedKey};
use super::nb::CollOutcome;
use super::tuning::{self, CollOp, OrderPolicy};
use super::CollAlgorithm;
use crate::comm::CommHandle;
use crate::error::{err, ErrorClass, MpiError, Result};
use crate::ops::Op;
use crate::types::PrimitiveKind;

/// The `(kind, count, op)` triple of the reduction family: build it with
/// [`Reduction::borrowed`] for a call, [`Reduction::owned`] for a
/// persistent operation's `CollDesc<'static>`.
pub struct Reduction<'a> {
    pub(crate) kind: PrimitiveKind,
    /// Elements reduced; for reduce-scatter the total over all ranks.
    pub(crate) count: usize,
    pub(crate) op: Cow<'a, Op>,
}

impl<'a> Reduction<'a> {
    /// A transient call's reduction: nothing is cloned.
    pub fn borrowed(kind: PrimitiveKind, count: usize, op: &'a Op) -> Reduction<'a> {
        Reduction {
            kind,
            count,
            op: Cow::Borrowed(op),
        }
    }

    /// A persistent operation's reduction, owning its operator.
    pub fn owned(kind: PrimitiveKind, count: usize, op: &Op) -> Reduction<'static> {
        Reduction {
            kind,
            count,
            op: Cow::Owned(op.clone()),
        }
    }
}

/// One collective operation and its parameters. The comments name the
/// [`Payload`] each rank passes and the [`CollOutcome`] it gets back.
pub enum CollDesc<'a> {
    /// No payload; [`CollOutcome::Done`].
    Barrier,
    /// The root's bytes (ignored elsewhere); the root's buffer on
    /// every rank.
    Bcast {
        /// The broadcasting rank.
        root: usize,
    },
    /// Every rank's bytes; the parts at the root, `Done` elsewhere.
    Gather {
        /// The gathering rank.
        root: usize,
    },
    /// One chunk per rank at the root (`Chunks(None)` elsewhere); this
    /// rank's chunk.
    Scatter {
        /// The scattering rank.
        root: usize,
    },
    /// Every rank's bytes; the parts on every rank.
    Allgather,
    /// One chunk per destination rank; the chunk from every rank.
    Alltoall,
    /// The reduction input; the result at the root, `Done` elsewhere.
    Reduce {
        /// The rank the result goes to.
        root: usize,
        /// What is reduced, and how.
        red: Reduction<'a>,
    },
    /// The reduction input; the result on every rank.
    Allreduce(Reduction<'a>),
    /// The whole input vector; this rank's `counts[rank]` elements of
    /// the result.
    ReduceScatter {
        /// Reduced elements per rank.
        counts: &'a [usize],
        /// What is reduced (`count`: the sum of `counts`), and how.
        red: Reduction<'a>,
    },
    /// The reduction input; the fold over ranks `0..=rank`.
    Scan(Reduction<'a>),
}

/// This rank's contribution to one collective call.
pub enum Payload<'a> {
    /// `*_init`: the contribution arrives with each start, so the plan
    /// validates and builds without one.
    Deferred,
    /// Borrowed bytes, copied exactly once: into the schedule's input
    /// slot.
    Bytes(&'a [u8]),
    /// Owned bytes, moved into the schedule's input slot, not copied:
    /// `ibcast`'s buffer, and a reduction's `Cow::Owned` contribution —
    /// the classic surface's marshalled buffer, which so becomes the
    /// ring's one buffer and, on an allreduce, the result.
    Owned(Vec<u8>),
    /// One chunk per destination rank (scatter at the root, alltoall);
    /// `None` at scatter's non-root ranks.
    Chunks(Option<&'a [Vec<u8>]>),
}

impl<'a> From<Cow<'a, [u8]>> for Payload<'a> {
    fn from(bytes: Cow<'a, [u8]>) -> Payload<'a> {
        match bytes {
            Cow::Borrowed(b) => Payload::Bytes(b),
            Cow::Owned(v) => Payload::Owned(v),
        }
    }
}

impl<'a> Payload<'a> {
    fn byte_len(&self) -> Option<usize> {
        match self {
            Payload::Bytes(b) => Some(b.len()),
            Payload::Owned(v) => Some(v.len()),
            Payload::Deferred | Payload::Chunks(_) => None,
        }
    }

    pub(crate) fn chunks(&self) -> Option<&'a [Vec<u8>]> {
        match self {
            Payload::Chunks(chunks) => *chunks,
            _ => None,
        }
    }

    /// The first `need` bytes (as returned by [`CollDesc::need`]) as an
    /// owned buffer: moved when already owned, otherwise the call's one
    /// staging copy.
    pub(crate) fn into_vec(self, need: usize) -> Vec<u8> {
        match self {
            Payload::Owned(mut v) => {
                v.truncate(need);
                v
            }
            Payload::Bytes(b) => b[..need].to_vec(),
            Payload::Deferred | Payload::Chunks(_) => Vec::new(),
        }
    }
}

impl<'a> CollDesc<'a> {
    /// `counts[i]` reduced elements go to rank `i`. An overflowing total
    /// saturates, which `CollDesc::need` then rejects.
    pub fn reduce_scatter(counts: &'a [usize], kind: PrimitiveKind, op: &'a Op) -> CollDesc<'a> {
        let total = counts.iter().fold(0usize, |sum, &c| sum.saturating_add(c));
        CollDesc::ReduceScatter {
            counts,
            red: Reduction::borrowed(kind, total, op),
        }
    }

    pub(crate) fn op(&self) -> CollOp {
        match self {
            CollDesc::Barrier => CollOp::Barrier,
            CollDesc::Bcast { .. } => CollOp::Bcast,
            CollDesc::Gather { .. } => CollOp::Gather,
            CollDesc::Scatter { .. } => CollOp::Scatter,
            CollDesc::Allgather => CollOp::Allgather,
            CollDesc::Alltoall => CollOp::Alltoall,
            CollDesc::Reduce { .. } => CollOp::Reduce,
            CollDesc::Allreduce(_) => CollOp::Allreduce,
            CollDesc::ReduceScatter { .. } => CollOp::ReduceScatter,
            CollDesc::Scan(_) => CollOp::Scan,
        }
    }

    /// The root rank (0 for the unrooted operations).
    fn root(&self) -> usize {
        match self {
            CollDesc::Bcast { root }
            | CollDesc::Gather { root }
            | CollDesc::Scatter { root }
            | CollDesc::Reduce { root, .. } => *root,
            _ => 0,
        }
    }

    fn reduction(&self) -> Option<&Reduction<'a>> {
        match self {
            CollDesc::Reduce { red, .. }
            | CollDesc::Allreduce(red)
            | CollDesc::ReduceScatter { red, .. }
            | CollDesc::Scan(red) => Some(red),
            _ => None,
        }
    }

    /// Validate the call on a communicator of `size` ranks and return
    /// the bytes `rank` contributes (what [`Payload::into_vec`] stages).
    /// The one place root, chunk-count, element-count and buffer-length
    /// errors come from, for the transient and the persistent forms.
    pub(crate) fn need(&self, rank: usize, size: usize, payload: &Payload<'_>) -> Result<usize> {
        let label = self.op().label();
        let root = self.root();
        if root >= size {
            return err(
                ErrorClass::Root,
                format!("root {root} out of range for communicator of size {size}"),
            );
        }
        let per_rank_entries = match self {
            CollDesc::Scatter { .. } if rank == root => match payload.chunks() {
                Some(chunks) => Some(chunks.len()),
                None => return err(ErrorClass::Buffer, "root must supply scatter chunks"),
            },
            CollDesc::Alltoall => Some(payload.chunks().map_or(0, <[_]>::len)),
            CollDesc::ReduceScatter { counts, .. } => Some(counts.len()),
            _ => None,
        };
        if let Some(got) = per_rank_entries.filter(|&got| got != size) {
            return err(
                ErrorClass::Count,
                format!("{label} needs one entry per rank ({size}), got {got}"),
            );
        }
        let Some(red) = self.reduction() else {
            let contributes = match self {
                CollDesc::Barrier => false,
                CollDesc::Bcast { .. } => rank == root,
                _ => true,
            };
            return Ok(payload.byte_len().filter(|_| contributes).unwrap_or(0));
        };
        let need = red.count.checked_mul(red.kind.size()).ok_or_else(|| {
            MpiError::new(
                ErrorClass::Count,
                format!("{label}: {} elements overflow the byte count", red.count),
            )
        })?;
        match payload.byte_len() {
            Some(have) if have < need => err(
                ErrorClass::Count,
                format!("{label}: buffer has {have} bytes, need {need}"),
            ),
            _ => Ok(need),
        }
    }

    /// What the call delivers on a single-rank communicator, where no
    /// frame moves: the rank's own contribution in the operation's
    /// outcome shape.
    pub(crate) fn solo_outcome(&self, payload: Payload<'_>, need: usize) -> CollOutcome {
        let first_chunk = || payload.chunks().map_or_else(Vec::new, |c| c[0].clone());
        match self {
            CollDesc::Barrier => CollOutcome::Done,
            CollDesc::Scatter { .. } => CollOutcome::Buffer(first_chunk()),
            CollDesc::Alltoall => CollOutcome::Parts(vec![first_chunk()]),
            CollDesc::Gather { .. } | CollDesc::Allgather => {
                CollOutcome::Parts(vec![payload.into_vec(need)])
            }
            _ => CollOutcome::Buffer(payload.into_vec(need)),
        }
    }

    /// The selector's `(bytes, policy)` inputs. Only the reduction
    /// family is payload-aware: MPI guarantees `count × kind` is the
    /// same on every rank, whereas a data mover's local length is not
    /// (see the [`tuning`] module docs).
    pub(crate) fn tuning_inputs(&self, need: usize) -> (usize, OrderPolicy) {
        match self.reduction() {
            Some(red) => (need, tuning::order_policy(&red.op, red.kind)),
            None => (0, OrderPolicy::Any),
        }
    }

    /// The schedule-cache key: everything a schedule's wire structure
    /// and baked-in compute closures depend on, except the payload bytes
    /// (which travel through the input slot). The length-independent
    /// data movers key on root alone; reductions add `(kind, count, op)`
    /// because their computes capture all three.
    pub(crate) fn cache_key(&self, comm: CommHandle, alg: CollAlgorithm) -> SchedKey {
        SchedKey {
            comm,
            alg,
            op: self.op(),
            root: self.root(),
            reduction: self
                .reduction()
                .map(|red| (red.kind, red.count, OpKey::of(&red.op))),
            counts: match self {
                CollDesc::ReduceScatter { counts, .. } => counts.to_vec(),
                _ => Vec::new(),
            },
        }
    }
}
