//! The linear (root-centric) collective schedules — the paper-faithful
//! baseline the seed shipped with, re-expressed as round-based
//! `CollSchedule`s for the nonblocking progress engine
//! (see [`super::nb`]).
//!
//! Fan-in / fan-out through a single root: O(P) messages with all traffic
//! serialized at the root. With the rank counts of the paper's experiments
//! (2–8) they are within a small constant of the tree algorithms, and the
//! strictly sequential rank-order fold is the *reference semantics* every
//! other algorithm must reproduce byte-for-byte — it is also the only
//! pattern that keeps floating `SUM`/`PROD` bit-stable, which is why the
//! tuning layer pins those to `Linear`.
//!
//! These builders never dispatch back through the selector: the linear
//! composites (allgather = gather + bcast, reduce-scatter = reduce +
//! scatter), assembled in the dispatch layer, call the linear builders
//! directly so a forced-`Linear` run is linear all the way down.

use super::frame_entries;
use super::nb::{CollOutcome, Round, Sched, SlotId, TagWindow};
use crate::error::{err, ErrorClass};
use crate::ops::Op;
use crate::types::PrimitiveKind;

/// Linear fan-in to rank 0 followed by fan-out.
pub(crate) fn barrier(s: &mut impl Sched, win: TagWindow, rank: usize, size: usize) {
    let fan_in = win.tag(0);
    let fan_out = win.tag(1);
    if rank == 0 {
        let mut gather = Round::new();
        for src in 1..size {
            let slot = s.empty();
            gather = gather.recv(src, fan_in, slot);
        }
        s.push(gather);
        let signal = s.filled(Vec::new());
        let mut release = Round::new();
        for dst in 1..size {
            release = release.send(dst, fan_out, signal);
        }
        s.push(release);
    } else {
        let signal = s.filled(Vec::new());
        s.push(Round::new().send(0, fan_in, signal));
        let ack = s.empty();
        s.push(Round::new().recv(0, fan_out, ack));
    }
}

/// The root sends the payload (slot `data`) to every other rank; the
/// result ends up in `data` on every rank.
pub(crate) fn bcast(
    s: &mut impl Sched,
    win: TagWindow,
    rank: usize,
    size: usize,
    root: usize,
    data: SlotId,
) {
    let tag = win.tag(0);
    if rank == root {
        let mut fan_out = Round::new();
        for dst in 0..size {
            if dst != root {
                fan_out = fan_out.send(dst, tag, data);
            }
        }
        s.push(fan_out);
    } else {
        s.push(Round::new().recv(root, tag, data));
    }
}

/// The root receives one contribution per rank; the returned slot holds
/// the framed `(rank, payload)` entries of *all* ranks on the root
/// (meaningless elsewhere). Framing carries explicit ranks, so per-rank
/// lengths may differ (gatherv).
pub(crate) fn gather(
    s: &mut impl Sched,
    win: TagWindow,
    rank: usize,
    size: usize,
    root: usize,
    send: SlotId,
) -> SlotId {
    let tag = win.tag(0);
    let out = s.empty();
    if rank == root {
        let mut collect = Round::new();
        let mut sources: Vec<(usize, SlotId)> = Vec::with_capacity(size - 1);
        for src in 0..size {
            if src != root {
                let slot = s.empty();
                sources.push((src, slot));
                collect = collect.recv(src, tag, slot);
            }
        }
        collect = collect.compute(move |ctx| {
            let mut entries: Vec<(u32, Vec<u8>)> = Vec::with_capacity(size);
            entries.push((root as u32, ctx.take(send)?));
            for &(src, slot) in &sources {
                entries.push((src as u32, ctx.take(slot)?));
            }
            ctx.put(out, frame_entries(&entries));
            for (_, payload) in entries {
                ctx.recycle(payload);
            }
            Ok(())
        });
        s.push(collect);
    } else {
        s.push(Round::new().send(root, tag, send));
    }
    out
}

/// The root sends each rank the contents of its per-destination slot
/// (`dest_slots`, rank order, filled at build time or by an earlier
/// compute); every rank's chunk lands in `out`.
pub(crate) fn scatter(
    s: &mut impl Sched,
    win: TagWindow,
    rank: usize,
    size: usize,
    root: usize,
    dest_slots: Option<Vec<SlotId>>,
    out: SlotId,
) {
    let tag = win.tag(0);
    // The per-destination chunks live in build-time slots: payload baked
    // into the schedule, never reusable as a template.
    s.uncacheable();
    if rank == root {
        let dest_slots = dest_slots.expect("validated by the dispatch layer");
        debug_assert_eq!(dest_slots.len(), size);
        let own = dest_slots[root];
        let mut fan_out = Round::new();
        for (dst, &slot) in dest_slots.iter().enumerate() {
            if dst != root {
                fan_out = fan_out.send(dst, tag, slot);
            }
        }
        fan_out = fan_out.compute(move |ctx| {
            let chunk = ctx.take(own)?;
            ctx.put(out, chunk);
            Ok(())
        });
        s.push(fan_out);
    } else {
        s.push(Round::new().recv(root, tag, out));
    }
}

/// Posted pairwise exchange: every receive is posted before any send
/// (one round), then the transposed chunks are assembled. Sets the
/// `Parts` outcome directly.
pub(crate) fn alltoall(
    s: &mut impl Sched,
    win: TagWindow,
    rank: usize,
    size: usize,
    chunks: &[Vec<u8>],
) {
    let tag = win.tag(0);
    let mut exchange = Round::new();
    let mut sources: Vec<(usize, SlotId)> = Vec::with_capacity(size - 1);
    for src in 0..size {
        if src != rank {
            let slot = s.empty();
            sources.push((src, slot));
            exchange = exchange.recv(src, tag, slot);
        }
    }
    for (dst, chunk) in chunks.iter().enumerate() {
        if dst != rank {
            let slot = s.filled(chunk.clone());
            exchange = exchange.send(dst, tag, slot);
        }
    }
    let own = chunks[rank].clone();
    exchange = exchange.compute(move |ctx| {
        let mut out: Vec<Vec<u8>> = vec![Vec::new(); size];
        out[rank] = own.clone();
        for &(src, slot) in &sources {
            out[src] = ctx.take(slot)?;
        }
        ctx.set_outcome(CollOutcome::Parts(out));
        Ok(())
    });
    s.push(exchange);
    // The chunks were staged into build-time slots above: payload baked
    // into the schedule, never reusable as a template.
    s.uncacheable();
}

/// Collect contributions at the root and fold them strictly in rank
/// order — the reference fold for every other reduction algorithm. The
/// returned slot holds the accumulator on the root (meaningless
/// elsewhere).
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
    let tag = win.tag(0);
    let out = s.empty();
    if rank == root {
        let mut collect = Round::new();
        let mut sources: Vec<(usize, SlotId)> = Vec::with_capacity(size - 1);
        for src in 0..size {
            if src != root {
                let slot = s.empty();
                sources.push((src, slot));
                collect = collect.recv(src, tag, slot);
            }
        }
        collect = collect.compute(move |ctx| {
            let need = kind.size() * count;
            let mut contributions: Vec<Vec<u8>> = vec![Vec::new(); size];
            contributions[root] = ctx.take(send)?;
            for &(src, slot) in &sources {
                let data = ctx.take(slot)?;
                if data.len() < need {
                    return err(ErrorClass::Count, "reduce contribution too short");
                }
                contributions[src] = data;
            }
            let mut contributions = contributions.into_iter();
            let mut acc = contributions.next().unwrap_or_default();
            acc.truncate(need);
            for contribution in contributions {
                op.apply(&contribution[..need], &mut acc, kind, count)?;
                ctx.recycle(contribution);
            }
            ctx.put(out, acc);
            Ok(())
        });
        s.push(collect);
    } else {
        s.push(Round::new().send(root, tag, send));
    }
    out
}

/// Inclusive prefix pipeline: receive the prefix of the lower ranks,
/// fold the own contribution (slot `send`), pass it on. Returns the
/// accumulator slot.
#[allow(clippy::too_many_arguments)]
pub(crate) fn scan(
    s: &mut impl Sched,
    win: TagWindow,
    rank: usize,
    size: usize,
    send: SlotId,
    kind: PrimitiveKind,
    count: usize,
    op: Op,
) -> SlotId {
    let tag = win.tag(0);
    let acc = s.empty();
    if rank > 0 {
        let prefix = s.empty();
        s.push(
            Round::new()
                .recv(rank - 1, tag, prefix)
                .compute(move |ctx| {
                    // acc = prefix op own (rank order: lower ranks first).
                    let own = ctx.take(send)?;
                    let mut folded = ctx.take(prefix)?;
                    op.apply(&own, &mut folded, kind, count)?;
                    ctx.put(acc, folded);
                    ctx.recycle(own);
                    Ok(())
                }),
        );
    } else {
        s.push(Round::new().compute(move |ctx| {
            let own = ctx.take(send)?;
            ctx.put(acc, own);
            Ok(())
        }));
    }
    if rank + 1 < size {
        s.push(Round::new().send(rank + 1, tag, acc));
    }
    acc
}
