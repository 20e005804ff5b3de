//! Pipelined (segmented chain) broadcast for huge payloads, as a
//! *dynamically extended* schedule (see [`super::nb`]).
//!
//! ## Why a chain, not the binomial tree
//!
//! Segmenting the binomial tree buys nothing: the root there feeds
//! ⌈log₂ P⌉ subtrees, so its outgoing link must carry `log₂ P` full
//! copies of the payload — exactly the tree's critical path — and no
//! amount of pipelining below the root can shrink the root's own
//! serialization. The classic pipelined broadcast therefore streams the
//! segments along a **chain** in rank order: every rank receives each
//! segment from its predecessor and forwards it to its successor once,
//! so every link (the root's included) carries the payload exactly once.
//! With `P` ranks, `S` segments and `T` the time to push the whole
//! payload over one link, completion drops from the tree's
//! `⌈log₂ P⌉ × T` to `(P - 2 + S) × T / S` — for 8 ranks and 8+
//! segments, well under half — at the price of O(P) small-message
//! latency, which is why this algorithm is strictly an opt-in for large
//! payloads.
//!
//! ## Protocol
//!
//! Non-root ranks do not know the payload length up front (the engine's
//! `bcast` buffer argument is root-sized only at the root), so the
//! stream opens with an 8-byte length header on tag round 0; the
//! segments follow on tag rounds `1..`, cycling within the window (safe:
//! the transport is FIFO per rank pair, and every segment flows between
//! the same neighbour pair in order). Because the segment count is only
//! known once the header arrives, a non-root rank's schedule is built at
//! *run time*: the header round's compute extends the schedule with the
//! streaming rounds. Each streaming round forwards segment *k*
//! downstream while the receive for segment *k+1* is already posted, so
//! the successor starts receiving *k* while the predecessor pushes
//! *k+1* — the overlap the algorithm exists for.
//!
//! Segments are a fixed 32 KiB (`SEGMENT_LEN`): the chain is the only
//! place the engine segments a payload, so there is no knob for it.
//!
//! ## Selection
//!
//! The tuned selector never picks this algorithm on its own: bcast is
//! selected payload-blind (per-rank buffer lengths legally differ before
//! the call, so a payload-keyed choice could diverge across ranks — see
//! [`super::tuning`]), and without a payload axis the plain tree is the
//! safe default. Pin it with `MPIJAVA_COLL_ALG=pipelined`,
//! [`Engine::set_coll_algorithm`] or `MpiRuntime::coll_algorithm`.
//! Results are byte-identical to every other bcast algorithm (the
//! equivalence suite includes the pipelined run).
//!
//! [`Engine::set_coll_algorithm`]: crate::Engine::set_coll_algorithm

use super::nb::{Round, Sched, SlotId, TagWindow, ROUND_SPACE};
use crate::error::{err, ErrorClass};

/// Segment size of the pipelined chain. 32 KiB keeps eight-plus
/// segments in flight for the payloads where pipelining matters
/// (≥ 256 KiB) without drowning the stream in per-segment overhead.
const SEGMENT_LEN: usize = 32 * 1024;

/// Tag for segment `index`: rounds 1.. of the window, cycling, never
/// touching the header's round 0.
fn chunk_tag(win: TagWindow, index: usize) -> i32 {
    win.tag(1 + (index % (ROUND_SPACE - 1)))
}

/// Pipelined segmented chain broadcast (see the module docs).
/// Byte-identical to the tree / linear bcast schedules; the payload ends
/// up in slot `data` on every rank.
pub(crate) fn bcast(
    s: &mut impl Sched,
    win: TagWindow,
    rank: usize,
    size: usize,
    root: usize,
    data: SlotId,
) {
    let seg = SEGMENT_LEN;
    // Chain neighbours in root-relative rank order: root → root+1 →
    // … → root-1 (wrapping), so any root costs the same.
    let relative = (rank + size - root) % size;
    let prev = (relative > 0).then(|| (relative - 1 + root) % size);
    let next = (relative + 1 < size).then(|| (relative + 1 + root) % size);
    let header_tag = win.tag(0);

    let Some(prev) = prev else {
        // Root: total (and thus the whole schedule) is known at build
        // time. Announce the length, then stream the segments as
        // zero-extra-copy slices of the payload slot.
        let total = s.len_of(data);
        if let Some(next) = next {
            let header = s.filled((total as u64).to_le_bytes().to_vec());
            s.push(Round::new().send(next, header_tag, header));
            let segments = total.div_ceil(seg);
            for index in 0..segments {
                let start = index * seg;
                let end = (start + seg).min(total);
                s.push(Round::new().send_range(next, chunk_tag(win, index), data, start, end));
            }
        }
        return;
    };

    // Non-root: receive the header, then extend the schedule with the
    // streaming rounds (count only known now).
    let header_slot = s.empty();
    s.push(
        Round::new()
            .recv(prev, header_tag, header_slot)
            .compute(move |ctx| {
                let header = ctx.take(header_slot)?;
                if header.len() != 8 {
                    return err(ErrorClass::Intern, "malformed pipelined bcast header");
                }
                let total = u64::from_le_bytes(header[..8].try_into().unwrap()) as usize;
                // Stale contents (a non-root caller's old buffer) are
                // replaced by the assembled stream.
                ctx.put(data, Vec::with_capacity(total));
                let segments = total.div_ceil(seg);
                let seg_slots: Vec<SlotId> = (0..segments).map(|_| ctx.alloc(None)).collect();

                // Forward the header downstream; the receive for segment
                // 0 is posted in the same round so the stream can start
                // landing while the header travels on.
                let mut opening = Round::new();
                if let Some(next) = next {
                    let fwd = ctx.alloc(Some(header));
                    opening = opening.send(next, header_tag, fwd);
                }
                if segments > 0 {
                    opening = opening.recv(prev, chunk_tag(win, 0), seg_slots[0]);
                }
                ctx.push_round(opening);

                for index in 0..segments {
                    let start = index * seg;
                    let expected = (start + seg).min(total) - start;
                    let slot = seg_slots[index];
                    let mut round = Round::new();
                    // Forward segment `index` downstream *before*
                    // appending locally…
                    if let Some(next) = next {
                        round = round.send(next, chunk_tag(win, index), slot);
                    }
                    // …while the receive for `index + 1` is already
                    // posted (receives are posted before sends).
                    if index + 1 < segments {
                        round = round.recv(prev, chunk_tag(win, index + 1), seg_slots[index + 1]);
                    }
                    round = round.compute(move |ctx| {
                        let chunk = ctx.take(slot)?;
                        if chunk.len() != expected {
                            return err(ErrorClass::Intern, "pipelined bcast segment length skew");
                        }
                        ctx.get_mut(data)?.extend_from_slice(&chunk);
                        ctx.recycle(chunk);
                        Ok(())
                    });
                    ctx.push_round(round);
                }
                Ok(())
            }),
    );
}

#[cfg(test)]
mod tests {
    use super::SEGMENT_LEN as SEG;
    use crate::coll::nb::ROUND_SPACE;
    use crate::comm::COMM_WORLD;
    use crate::universe::Universe;
    use crate::CollAlgorithm;
    use mpi_transport::DeviceKind;

    fn pipelined_bcast_roundtrip(size: usize, root: usize, len: usize) {
        Universe::run(size, DeviceKind::ShmFast, move |engine| {
            engine.set_coll_algorithm(Some(CollAlgorithm::Pipelined));
            let expected: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut buf = if engine.world_rank() == root {
                expected.clone()
            } else {
                vec![0xEE; 3] // stale contents must be replaced
            };
            engine.bcast(COMM_WORLD, root, &mut buf).unwrap();
            assert_eq!(buf, expected, "size={size} root={root} len={len}");
        })
        .unwrap();
    }

    #[test]
    fn pipelined_bcast_matches_on_many_shapes() {
        // Empty, one byte, exactly one segment, several with a ragged
        // tail; pow2 and odd communicator sizes; root at both ends.
        for (size, root) in [(2usize, 0usize), (3, 2), (4, 1), (8, 0), (8, 5)] {
            for len in [0usize, 1, SEG, 3 * SEG + 7] {
                pipelined_bcast_roundtrip(size, root, len);
            }
        }
    }

    #[test]
    fn more_segments_than_the_tag_window_still_works() {
        // More segments than ROUND_SPACE: tags wrap within the window;
        // the per-pair FIFO keeps the stream ordered.
        for (size, root) in [(2usize, 0usize), (3, 2), (4, 1), (8, 0), (8, 5)] {
            pipelined_bcast_roundtrip(size, root, (ROUND_SPACE + 2) * SEG + 5);
        }
    }

    /// The nonblocking form of the pipelined bcast: the schedule extends
    /// itself once the header arrives, driven purely by `test`.
    #[test]
    fn nonblocking_pipelined_bcast_completes_via_test() {
        Universe::run(3, DeviceKind::ShmFast, |engine| {
            engine.set_coll_algorithm(Some(CollAlgorithm::Pipelined));
            let expected: Vec<u8> = (0..5 * SEG + 3).map(|i| (i % 239) as u8).collect();
            let buf = if engine.world_rank() == 0 {
                expected.clone()
            } else {
                Vec::new()
            };
            let req = engine.ibcast(COMM_WORLD, 0, buf).unwrap();
            let completion = loop {
                if let Some(completion) = engine.test(req).unwrap() {
                    break completion;
                }
                std::thread::yield_now();
            };
            assert_eq!(completion.data.unwrap(), expected);
        })
        .unwrap();
    }
}
