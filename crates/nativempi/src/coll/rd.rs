//! Recursive-doubling collective schedules for power-of-two
//! communicators: barrier, allgather and allreduce in log2(P) pairwise
//! exchange rounds (see [`super::nb`] for the schedule machinery).
//!
//! In round `k` every rank exchanges with `rank ^ 2^k` — one receive and
//! one send posted together (receive first, the deadlock-free order).
//! After round `k` each rank holds the data (or partial reduction) of its
//! aligned block of `2^(k+1)` ranks, so the blocks merged in each round
//! are *adjacent* in rank order — the allreduce keeps the lower block on
//! the left of every combine and therefore preserves operand order for
//! non-commutative (but associative) operations, exactly like the
//! binomial tree.
//!
//! Non-power-of-two communicators are rejected by the tuning layer
//! ([`supported`](super::tuning::supported)); the dispatcher falls back to
//! tree or ring there.

use super::nb::{Round, Sched, SlotId, TagWindow};
use super::{frame_entries, unframe_entries};
use crate::error::{err, ErrorClass};
use crate::ops::Op;
use crate::types::PrimitiveKind;

/// Pairwise-exchange barrier: after round `k` every rank has heard
/// (transitively) from its aligned block of `2^(k+1)` ranks.
pub(crate) fn barrier(s: &mut impl Sched, win: TagWindow, rank: usize, size: usize) {
    debug_assert!(size.is_power_of_two());
    let mut mask = 1usize;
    let mut round = 0usize;
    while mask < size {
        let partner = rank ^ mask;
        let incoming = s.empty();
        let signal = s.filled(Vec::new());
        s.push(Round::new().recv(partner, win.tag(round), incoming).send(
            partner,
            win.tag(round),
            signal,
        ));
        mask <<= 1;
        round += 1;
    }
}

/// Recursive-doubling allgather: each round exchanges the framed
/// `(rank, payload)` entries accumulated so far, doubling coverage. The
/// returned slot holds everyone's framed entries on every rank.
pub(crate) fn allgather(
    s: &mut impl Sched,
    win: TagWindow,
    rank: usize,
    size: usize,
    send: SlotId,
) -> SlotId {
    debug_assert!(size.is_power_of_two());
    let acc = s.empty();
    s.push(Round::new().compute(move |ctx| {
        let own = ctx.take(send)?;
        ctx.put(acc, frame_entries(&[(rank as u32, &own)]));
        ctx.recycle(own);
        Ok(())
    }));
    let mut mask = 1usize;
    let mut round = 0usize;
    while mask < size {
        let partner = rank ^ mask;
        let incoming = s.empty();
        s.push(
            Round::new()
                .recv(partner, win.tag(round), incoming)
                .send(partner, win.tag(round), acc)
                .compute(move |ctx| {
                    let wire = ctx.take(incoming)?;
                    let held = ctx.take(acc)?;
                    let mut entries = unframe_entries(&held)?;
                    entries.extend(unframe_entries(&wire)?);
                    ctx.put(acc, frame_entries(&entries));
                    ctx.recycle(wire);
                    ctx.recycle(held);
                    Ok(())
                }),
        );
        mask <<= 1;
        round += 1;
    }
    acc
}

/// Recursive-doubling allreduce: each round exchanges the partial
/// reduction of the rank's aligned block and merges it with the
/// partner's adjacent block, lower block on the left. The returned slot
/// holds the full reduction on every rank.
#[allow(clippy::too_many_arguments)]
pub(crate) fn allreduce(
    s: &mut impl Sched,
    win: TagWindow,
    rank: usize,
    size: usize,
    acc: SlotId,
    kind: PrimitiveKind,
    count: usize,
    op: Op,
) -> SlotId {
    debug_assert!(size.is_power_of_two());
    let mut mask = 1usize;
    let mut round = 0usize;
    while mask < size {
        let partner = rank ^ mask;
        let incoming = s.empty();
        let op = op.clone();
        s.push(
            Round::new()
                .recv(partner, win.tag(round), incoming)
                .send(partner, win.tag(round), acc)
                .compute(move |ctx| {
                    let incoming = ctx.take(incoming)?;
                    let current = ctx.take(acc)?;
                    if incoming.len() != current.len() {
                        return err(ErrorClass::Count, "allreduce partners disagree on count");
                    }
                    // Partner's block is the lower (left) operand.
                    let (left, mut merged) = if partner < rank {
                        (current, incoming)
                    } else {
                        (incoming, current)
                    };
                    op.apply(&left, &mut merged, kind, count)?;
                    ctx.put(acc, merged);
                    ctx.recycle(left);
                    Ok(())
                }),
        );
        mask <<= 1;
        round += 1;
    }
    acc
}
