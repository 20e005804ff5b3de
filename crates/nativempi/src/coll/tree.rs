//! Binomial-tree collective schedules: barrier, bcast, gather, scatter
//! and reduce in O(log P) levels, built as round-based `CollSchedule`s
//! (see [`super::nb`]).
//!
//! ## The tree
//!
//! For the rooted data movers (bcast, gather, scatter) ranks are relabeled
//! relative to the root (`relative = (rank + size - root) % size`) and the
//! classic binomial tree is built over the relative space: the node with
//! relative id `v` and lowest set bit `m` is a child of `v ^ m`, and the
//! subtree below `v` covers relative ids `[v, v + m)`. Data movement is
//! insensitive to the relabeling, so any root costs the same.
//!
//! Tags encode the tree *level* (`mask.trailing_zeros()`), not the
//! schedule round position: the two ends of an edge sit at different
//! round indices of their local schedules, but agree on the level.
//!
//! ## Rank-ordered reduction
//!
//! The reduce schedule deliberately does *not* relabel: it always reduces
//! over the untranslated rank space toward rank 0, so each merge combines
//! two *adjacent* rank blocks left-to-right — `[r, r+m) ∘ [r+m, r+2m)` —
//! preserving operand order for non-commutative operations, with a
//! balanced association that any associative operation (MPI's contract)
//! cannot distinguish from the linear fold. The children's contributions
//! are received concurrently but folded strictly in mask order. If the
//! caller's root is not rank 0, the result is forwarded with one extra
//! message: one hop buys order preservation for every root.

use super::nb::{Round, Sched, SlotId, TagWindow};
use super::{frame_entries, unframe_entries};
use crate::error::{err, ErrorClass, MpiError, Result};
use crate::ops::Op;
use crate::types::PrimitiveKind;

/// Fan-out levels of the tree barrier start here so they cannot collide
/// with fan-in levels (both fit: log2(P) < 32 for any practical P).
const FAN_OUT_ROUNDS: usize = 32;

/// Tag level of the root-forwarding hop of the tree reduce.
const FORWARD_ROUND: usize = super::nb::ROUND_SPACE - 1;

/// Binomial fan-in to rank 0, binomial fan-out back.
pub(crate) fn barrier(s: &mut impl Sched, win: TagWindow, rank: usize, size: usize) {
    // Fan-in: collect the children's signals, then signal the parent.
    let mut fan_in = Round::new();
    let mut parent: Option<(usize, i32)> = None;
    let mut mask = 1usize;
    while mask < size {
        let level = mask.trailing_zeros() as usize;
        if rank & mask != 0 {
            parent = Some((rank ^ mask, win.tag(level)));
            break;
        }
        let child = rank | mask;
        if child < size {
            let slot = s.empty();
            fan_in = fan_in.recv(child, win.tag(level), slot);
        }
        mask <<= 1;
    }
    s.push(fan_in);
    if let Some((parent, tag)) = parent {
        let signal = s.filled(Vec::new());
        s.push(Round::new().send(parent, tag, signal));
    }
    // Fan-out (a zero-byte binomial bcast from rank 0).
    let mut mask = if rank == 0 {
        size.next_power_of_two()
    } else {
        let low = rank & rank.wrapping_neg();
        let slot = s.empty();
        s.push(Round::new().recv(
            rank ^ low,
            win.tag(FAN_OUT_ROUNDS + low.trailing_zeros() as usize),
            slot,
        ));
        low
    };
    mask >>= 1;
    let mut fan_out = Round::new();
    while mask > 0 {
        let child = rank | mask;
        if child != rank && child < size {
            let signal = s.filled(Vec::new());
            fan_out = fan_out.send(
                child,
                win.tag(FAN_OUT_ROUNDS + mask.trailing_zeros() as usize),
                signal,
            );
        }
        mask >>= 1;
    }
    s.push(fan_out);
}

/// Binomial bcast: each node receives the payload once from its parent
/// and forwards it to all of its children. The payload lives in slot
/// `data` (pre-filled on the root) on every rank when the schedule
/// completes.
pub(crate) fn bcast(
    s: &mut impl Sched,
    win: TagWindow,
    rank: usize,
    size: usize,
    root: usize,
    data: SlotId,
) {
    let relative = (rank + size - root) % size;
    let mut mask = if relative == 0 {
        size.next_power_of_two()
    } else {
        let low = relative & relative.wrapping_neg();
        let parent = ((relative ^ low) + root) % size;
        s.push(Round::new().recv(parent, win.tag(low.trailing_zeros() as usize), data));
        low
    };
    mask >>= 1;
    let mut forward = Round::new();
    while mask > 0 {
        let child_rel = relative | mask;
        if child_rel != relative && child_rel < size {
            let child = (child_rel + root) % size;
            forward = forward.send(child, win.tag(mask.trailing_zeros() as usize), data);
        }
        mask >>= 1;
    }
    s.push(forward);
}

/// Binomial gather: each node collects its subtree's framed
/// `(rank, payload)` entries, then hands the batch to its parent. The
/// framing carries explicit ranks, so per-rank lengths may differ
/// (gatherv). The returned slot holds everyone's framed entries on the
/// root.
pub(crate) fn gather(
    s: &mut impl Sched,
    win: TagWindow,
    rank: usize,
    size: usize,
    root: usize,
    send: SlotId,
) -> SlotId {
    let relative = (rank + size - root) % size;
    let out = s.empty();
    let mut collect = Round::new();
    let mut children: Vec<SlotId> = Vec::new();
    let mut mask = 1usize;
    while mask < size && relative & mask == 0 {
        let child_rel = relative | mask;
        if child_rel < size {
            let child = (child_rel + root) % size;
            let slot = s.empty();
            children.push(slot);
            collect = collect.recv(child, win.tag(mask.trailing_zeros() as usize), slot);
        }
        mask <<= 1;
    }
    // `mask` is now the lowest set bit of `relative` (when non-zero).
    collect = collect.compute(move |ctx| {
        let own = ctx.take(send)?;
        let mut entries: Vec<(u32, Vec<u8>)> = vec![(rank as u32, own)];
        for &slot in &children {
            let wire = ctx.take(slot)?;
            entries.extend(unframe_entries(&wire)?);
            ctx.recycle(wire);
        }
        ctx.put(out, frame_entries(&entries));
        for (_, payload) in entries {
            ctx.recycle(payload);
        }
        Ok(())
    });
    s.push(collect);
    if relative != 0 {
        let parent = ((relative ^ mask) + root) % size;
        s.push(Round::new().send(parent, win.tag(mask.trailing_zeros() as usize), out));
    }
    out
}

/// Binomial scatter: the root seeds the framed chunks of all ranks; every
/// node receives its subtree's framed entries from its parent, carves off
/// each child's subtree (furthest subtree first, exactly the blocking
/// partition order) and forwards it, keeping its own chunk in `out`.
pub(crate) fn scatter(
    s: &mut impl Sched,
    win: TagWindow,
    rank: usize,
    size: usize,
    root: usize,
    chunks: Option<&[Vec<u8>]>,
    out: SlotId,
) {
    // The root frames the caller's chunks into a build-time slot:
    // payload baked into the schedule, never reusable as a template.
    s.uncacheable();
    let relative = (rank + size - root) % size;
    let incoming = s.empty();
    let top_mask = if relative == 0 {
        let chunks = chunks.expect("validated by the dispatch layer");
        // Frame straight from the caller's chunks (one copy, onto the
        // framed wire image) — no per-chunk clone first.
        let entries: Vec<(u32, &[u8])> = chunks
            .iter()
            .enumerate()
            .map(|(r, c)| (r as u32, c.as_slice()))
            .collect();
        s.fill(incoming, frame_entries(&entries));
        size.next_power_of_two()
    } else {
        relative & relative.wrapping_neg()
    };

    // Child list in furthest-subtree-first order, with one outgoing slot
    // per child: (child rank, child_rel, subtree mask, slot).
    let mut child_list: Vec<(usize, usize, usize, SlotId)> = Vec::new();
    let mut forward = Round::new();
    let mut mask = top_mask >> 1;
    while mask > 0 {
        let child_rel = relative | mask;
        if child_rel != relative && child_rel < size {
            let child = (child_rel + root) % size;
            let slot = s.empty();
            forward = forward.send(child, win.tag(mask.trailing_zeros() as usize), slot);
            child_list.push((child, child_rel, mask, slot));
        }
        mask >>= 1;
    }

    let partition = move |ctx: &mut super::nb::SchedCtx<'_>| -> Result<()> {
        let wire = ctx.take(incoming)?;
        let mut entries = unframe_entries(&wire)?;
        ctx.recycle(wire);
        for &(_, child_rel, mask, slot) in &child_list {
            // The child's subtree covers relative ids [child_rel, child_rel + mask).
            let (subtree, keep): (Vec<_>, Vec<_>) = entries.into_iter().partition(|(r, _)| {
                let rel = (*r as usize + size - root) % size;
                rel >= child_rel && rel < child_rel + mask
            });
            entries = keep;
            ctx.put(slot, frame_entries(&subtree));
        }
        let own = entries
            .into_iter()
            .find(|(r, _)| *r as usize == rank)
            .map(|(_, payload)| payload)
            .ok_or_else(|| MpiError::new(ErrorClass::Intern, "scatter frame missed own rank"))?;
        ctx.put(out, own);
        Ok(())
    };

    if relative == 0 {
        s.push(Round::new().compute(partition));
    } else {
        let low = top_mask;
        let parent = ((relative ^ low) + root) % size;
        s.push(
            Round::new()
                .recv(parent, win.tag(low.trailing_zeros() as usize), incoming)
                .compute(partition),
        );
    }
    s.push(forward);
}

/// Binomial reduce toward rank 0 over the untranslated rank space
/// (children's contributions folded strictly in mask order; see the
/// module docs), then one forwarding hop if the root is not rank 0. The
/// returned slot holds the result on the root.
#[allow(clippy::too_many_arguments)]
pub(crate) fn reduce(
    s: &mut impl Sched,
    win: TagWindow,
    rank: usize,
    size: usize,
    root: usize,
    send: SlotId,
    kind: PrimitiveKind,
    count: usize,
    op: Op,
) -> SlotId {
    let acc = s.empty();
    let mut collect = Round::new();
    let mut children: Vec<SlotId> = Vec::new();
    let mut parent: Option<(usize, i32)> = None;
    let mut mask = 1usize;
    while mask < size {
        let level = mask.trailing_zeros() as usize;
        if rank & mask != 0 {
            parent = Some((rank ^ mask, win.tag(level)));
            break;
        }
        let child = rank | mask;
        if child < size {
            let slot = s.empty();
            children.push(slot);
            collect = collect.recv(child, win.tag(level), slot);
        }
        mask <<= 1;
    }
    let need = kind.size() * count;
    collect = collect.compute(move |ctx| {
        let mut folded = ctx.take(send)?;
        for &slot in &children {
            let data = ctx.take(slot)?;
            if data.len() < need {
                return err(ErrorClass::Count, "reduce contribution too short");
            }
            // The child holds the fold of ranks [child, child + mask),
            // all above our block: accumulator stays the left operand.
            op.apply(&data[..need], &mut folded, kind, count)?;
            ctx.recycle(data);
        }
        ctx.put(acc, folded);
        Ok(())
    });
    s.push(collect);
    if let Some((parent, tag)) = parent {
        s.push(Round::new().send(parent, tag, acc));
    }
    match (rank, root) {
        (0, 0) => acc,
        (0, _) => {
            s.push(Round::new().send(root, win.tag(FORWARD_ROUND), acc));
            acc
        }
        (r, _) if r == root => {
            let out = s.empty();
            s.push(Round::new().recv(0, win.tag(FORWARD_ROUND), out));
            out
        }
        _ => acc,
    }
}
