//! Ring collective schedules: allgather, reduce-scatter and allreduce
//! for bandwidth-bound payloads — see [`super::nb`] for the schedule
//! machinery.
//!
//! Every rank talks only to its neighbours — send to `(rank + 1) % P`,
//! receive from `(rank - 1) % P` — and every link carries data every
//! round, so for a payload of `n` bytes the per-rank traffic is
//! `n · (P-1)/P` regardless of `P`: the best bandwidth term of any
//! algorithm, at the price of O(P) rounds of latency.
//!
//! The reduce-scatter and the allreduce run over **one buffer**: the
//! schedule's input slot, holding this rank's whole contribution, cut
//! into `P` segments by byte bounds fixed at build time. A round sends
//! a segment straight out of that slot (a `send_range`), and its compute
//! folds the segment received from the previous rank into its range in
//! place — or, in the allreduce's allgather half, copies it there. The
//! slot itself is the allreduce's result, and the reduce-scatter's once
//! its own segment is moved to the front. No segment is staged, nothing
//! is joined, and the payload reaches the schedule only through its
//! input slot, so these schedules are templatable like any other.
//!
//! The ring reduce-scatter folds each segment in the rotated order
//! `s+1, s+2, …, s` (wrapping), *not* rank order, so the tuning layer
//! only selects it for reductions whose [`OrderPolicy`](super::tuning::OrderPolicy)
//! is `Any` — the exactly commutative-and-associative integer/bitwise
//! operations, for which every fold order is byte-identical.

use super::nb::{Round, Sched, SlotId, TagWindow};
use crate::error::{err, ErrorClass, Result};
use crate::ops::Op;
use crate::types::PrimitiveKind;

/// Ring allgather: round `r` shifts the block that originated at rank
/// `(rank - r) % P` one step around the ring. The owner of each incoming
/// block is implied by the round number, so per-rank lengths may differ
/// (allgatherv) without framing. `own` is this rank's block; the
/// returned slots hold all blocks in rank order when the schedule
/// completes.
pub(crate) fn allgather(
    s: &mut impl Sched,
    win: TagWindow,
    rank: usize,
    size: usize,
    own: SlotId,
) -> Vec<SlotId> {
    let next = (rank + 1) % size;
    let prev = (rank + size - 1) % size;
    let parts: Vec<SlotId> = (0..size)
        .map(|owner| if owner == rank { own } else { s.empty() })
        .collect();
    for round in 0..size - 1 {
        let send_owner = (rank + size - round) % size;
        let recv_owner = (rank + size - round - 1) % size;
        s.push(
            Round::new()
                .recv(prev, win.tag(round), parts[recv_owner])
                .send(next, win.tag(round), parts[send_owner]),
        );
    }
    parts
}

/// Byte bounds of `counts[i]`-element segments: segment `i` of a buffer
/// is `bounds[i]..bounds[i + 1]`.
pub(crate) fn bounds(counts: &[usize], elem: usize) -> Vec<usize> {
    std::iter::once(0)
        .chain(counts.iter().scan(0, |end, &c| {
            *end += c * elem;
            Some(*end)
        }))
        .collect()
}

/// Ring reduce-scatter over `data` (see the module docs): segment `t`
/// starts at rank `t + 1`, travels once around the ring picking up every
/// rank's contribution, and ends fully reduced in segment `rank` of this
/// rank's `data`. Requires an `Any`-order operation.
#[allow(clippy::too_many_arguments)]
pub(crate) fn reduce_scatter(
    s: &mut impl Sched,
    win: TagWindow,
    rank: usize,
    size: usize,
    data: SlotId,
    bounds: &[usize],
    kind: PrimitiveKind,
    op: Op,
) {
    let elem = kind.size();
    let first = rank + size - 1;
    rounds(
        s,
        win,
        rank,
        size,
        data,
        bounds,
        first,
        move |incoming, seg| op.apply(incoming, seg, kind, seg.len() / elem),
    );
}

/// Ring allreduce over `data`: the reduce-scatter into `P` near-equal
/// segments, then an allgather of the reduced segments back into the
/// same buffer, which then holds the result.
#[allow(clippy::too_many_arguments)]
pub(crate) fn allreduce(
    s: &mut impl Sched,
    [w1, w2]: [TagWindow; 2],
    rank: usize,
    size: usize,
    data: SlotId,
    kind: PrimitiveKind,
    count: usize,
    op: Op,
) {
    let (base, extra) = (count / size, count % size);
    let counts: Vec<usize> = (0..size).map(|i| base + usize::from(i < extra)).collect();
    let bounds = bounds(&counts, kind.size());
    reduce_scatter(s, w1, rank, size, data, &bounds, kind, op);
    rounds(s, w2, rank, size, data, &bounds, rank, |incoming, seg| {
        seg.copy_from_slice(incoming);
        Ok(())
    });
}

/// The `P - 1` rounds both halves share: round `r` sends segment
/// `first - r` (mod `P`) of `data` to the next rank and hands the
/// segment that arrives from the previous rank to `merge` together with
/// the range `first - r - 1` of `data`.
#[allow(clippy::too_many_arguments)]
fn rounds(
    s: &mut impl Sched,
    win: TagWindow,
    rank: usize,
    size: usize,
    data: SlotId,
    bounds: &[usize],
    first: usize,
    merge: impl Fn(&[u8], &mut [u8]) -> Result<()> + Clone + Send + Sync + 'static,
) {
    let next = (rank + 1) % size;
    let prev = (rank + size - 1) % size;
    let incoming = s.empty();
    for round in 0..size - 1 {
        let send = (first + size - round) % size;
        let recv = (first + size - round - 1) % size;
        let (lo, hi) = (bounds[recv], bounds[recv + 1]);
        let merge = merge.clone();
        s.push(
            Round::new()
                .recv(prev, win.tag(round), incoming)
                .send_range(next, win.tag(round), data, bounds[send], bounds[send + 1])
                .compute(move |ctx| {
                    let incoming = ctx.take(incoming)?;
                    let merged = match ctx.get_mut(data)?.get_mut(lo..hi) {
                        Some(seg) if seg.len() == incoming.len() => merge(&incoming, seg),
                        _ => err(ErrorClass::Count, "ring partners disagree on counts"),
                    };
                    ctx.recycle(incoming);
                    merged
                }),
        );
    }
}
