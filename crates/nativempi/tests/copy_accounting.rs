//! Copy-accounting regression suite: pins the zero-copy datapath's copy
//! counts through the engine's `bytes_copied` statistic so the property
//! cannot silently regress.
//!
//! The contract (see the copy inventory in `mpi_native::p2p`'s module
//! docs), asserted on every transport device:
//!
//! * eager send (slice API)      — exactly **1** payload copy (staging)
//! * rendezvous send (slice API) — exactly **1** payload copy (staging)
//! * `send` of a `Bytes` (owned)  — exactly **0** payload copies
//! * `recv_into`                 — exactly **1** payload copy (delivery)
//!
//! `bytes_copied` counts *bytes*, so "exactly one copy" is asserted as
//! `bytes_copied == payload length` — a double copy or an extra staging
//! hop shows up as a multiple, a skipped copy as a shortfall.

use bytes::Bytes;
use mpi_native::comm::COMM_WORLD;
use mpi_native::{SendMode, Universe};
use mpi_transport::DeviceKind;
use std::borrow::Cow;

const DEVICES: [DeviceKind; 3] = [DeviceKind::ShmFast, DeviceKind::ShmP4, DeviceKind::Tcp];

/// One payload length per protocol regime, plus awkward odd sizes.
const LEN: usize = 60_000;

#[test]
fn eager_send_costs_exactly_one_copy() {
    for device in DEVICES {
        Universe::run(2, device, |engine| {
            engine.set_eager_threshold(1 << 20); // everything eager
            let payload = vec![3u8; LEN];
            if engine.world_rank() == 0 {
                engine
                    .send(COMM_WORLD, 1, 1, &payload, SendMode::Standard)
                    .unwrap();
                assert_eq!(engine.stats().eager_sends, 1, "{device:?}");
                assert_eq!(
                    engine.stats().bytes_copied,
                    LEN as u64,
                    "eager send must stage the payload exactly once ({device:?})"
                );
            } else {
                let mut buf = vec![0u8; LEN];
                engine.recv_into(COMM_WORLD, 0, 1, &mut buf).unwrap();
                assert_eq!(buf, payload);
            }
        })
        .unwrap();
    }
}

#[test]
fn rendezvous_send_costs_exactly_one_copy() {
    for device in DEVICES {
        Universe::run(2, device, |engine| {
            engine.set_eager_threshold(1024); // force rendezvous
            let payload = vec![4u8; LEN];
            if engine.world_rank() == 0 {
                engine
                    .send(COMM_WORLD, 1, 2, &payload, SendMode::Standard)
                    .unwrap();
                assert_eq!(engine.stats().rendezvous_sends, 1, "{device:?}");
                assert_eq!(
                    engine.stats().bytes_copied,
                    LEN as u64,
                    "rendezvous send must stage the payload exactly once, \
                     shipping the held buffer without re-copying ({device:?})"
                );
            } else {
                let mut buf = vec![0u8; LEN];
                engine.recv_into(COMM_WORLD, 0, 2, &mut buf).unwrap();
                assert_eq!(buf, payload);
            }
        })
        .unwrap();
    }
}

#[test]
fn recv_into_costs_exactly_one_copy() {
    for device in DEVICES {
        for (eager_threshold, what) in [(1 << 20, "eager"), (1024usize, "rendezvous")] {
            Universe::run(2, device, move |engine| {
                engine.set_eager_threshold(eager_threshold);
                if engine.world_rank() == 0 {
                    engine
                        .send(COMM_WORLD, 1, 3, &vec![5u8; LEN], SendMode::Standard)
                        .unwrap();
                } else {
                    let mut buf = vec![0u8; LEN];
                    let status = engine.recv_into(COMM_WORLD, 0, 3, &mut buf).unwrap();
                    assert_eq!(status.count_bytes, LEN);
                    assert_eq!(buf, vec![5u8; LEN]);
                    assert_eq!(
                        engine.stats().bytes_copied,
                        LEN as u64,
                        "{what} recv_into must copy the payload exactly once ({device:?})"
                    );
                }
            })
            .unwrap();
        }
    }
}

#[test]
fn owned_bytes_send_copies_nothing() {
    for device in DEVICES {
        for (eager_threshold, what) in [(1 << 20, "eager"), (1024usize, "rendezvous")] {
            Universe::run(2, device, move |engine| {
                engine.set_eager_threshold(eager_threshold);
                if engine.world_rank() == 0 {
                    let payload = Bytes::from(vec![6u8; LEN]);
                    engine
                        .send(COMM_WORLD, 1, 4, payload, SendMode::Standard)
                        .unwrap();
                    assert_eq!(
                        engine.stats().bytes_copied,
                        0,
                        "{what} send of a Bytes must not copy the payload ({device:?})"
                    );
                } else {
                    let (data, _) = engine.recv(COMM_WORLD, 0, 4, None).unwrap();
                    assert_eq!(data, vec![6u8; LEN]);
                    // Handing out the completion `Bytes` is copy-free too.
                    assert_eq!(engine.stats().bytes_copied, 0, "{device:?}");
                }
            })
            .unwrap();
        }
    }
}

/// The counter tracks cumulative traffic: a ping-pong of N messages of
/// length L counts N×L per side for the slice APIs (1 copy each way on
/// send, 1 on recv_into).
#[test]
fn copy_accounting_is_cumulative_over_a_pingpong() {
    Universe::run(2, DeviceKind::ShmFast, |engine| {
        let rank = engine.world_rank();
        let peer = (1 - rank) as i32;
        let (stag, rtag) = if rank == 0 { (1, 2) } else { (2, 1) };
        let payload = vec![rank as u8; 2048];
        let mut buf = vec![0u8; 2048];
        const ROUNDS: u64 = 5;
        for _ in 0..ROUNDS {
            if rank == 0 {
                engine
                    .send(COMM_WORLD, peer, stag, &payload, SendMode::Standard)
                    .unwrap();
                engine.recv_into(COMM_WORLD, peer, rtag, &mut buf).unwrap();
            } else {
                engine.recv_into(COMM_WORLD, peer, rtag, &mut buf).unwrap();
                engine
                    .send(COMM_WORLD, peer, stag, &payload, SendMode::Standard)
                    .unwrap();
            }
        }
        assert_eq!(engine.stats().bytes_copied, ROUNDS * 2 * 2048);
    })
    .unwrap();
}

// ---------------------------------------------------------------------
// One-sided (RMA) copy accounting. The window datapath reuses the
// zero-copy machinery, so the same inventory holds:
//
// * `win_put` / `win_accumulate` (slice) — exactly 1 origin staging copy
//   (the header shares its buffer and is not counted)
// * target-side apply of a put          — exactly 1 copy (into the region)
// * `win_get` reply                     — exactly 1 target staging copy
// * `win_get_take` (owned handout)      — exactly 0 origin copies
// * `win_get_take_into`                 — exactly 1 origin delivery copy
// ---------------------------------------------------------------------

#[test]
fn rma_put_slice_stages_once() {
    for device in DEVICES {
        Universe::run(2, device, |engine| {
            let rank = engine.world_rank();
            let win = engine.win_create(COMM_WORLD, vec![0u8; LEN]).unwrap();
            engine.win_fence(win).unwrap();
            if rank == 0 {
                engine.win_put(win, 1, 0, &vec![8u8; LEN]).unwrap();
                assert_eq!(
                    engine.stats().bytes_copied,
                    LEN as u64,
                    "slice put must stage exactly once ({device:?})"
                );
            }
            engine.win_fence(win).unwrap();
            if rank == 0 {
                assert_eq!(engine.stats().bytes_copied, LEN as u64, "{device:?}");
            } else {
                // The target pays exactly one apply copy per put.
                assert_eq!(engine.stats().bytes_copied, LEN as u64, "{device:?}");
                let region = engine.win_region(win).unwrap();
                assert!(region.iter().all(|&b| b == 8));
            }
            engine.win_free(win).unwrap();
        })
        .unwrap();
    }
}

#[test]
fn rma_get_take_is_copy_free_and_take_into_copies_once() {
    for device in DEVICES {
        Universe::run(2, device, |engine| {
            let rank = engine.world_rank();
            let seed = if rank == 1 {
                vec![5u8; LEN]
            } else {
                vec![0u8; LEN]
            };
            let win = engine.win_create(COMM_WORLD, seed).unwrap();
            engine.win_fence(win).unwrap();
            if rank == 0 {
                let get = engine.win_get(win, 1, 0, LEN).unwrap();
                engine.win_fence(win).unwrap();
                let data = engine.win_get_take(win, get).unwrap();
                assert_eq!(data.as_ref(), vec![5u8; LEN]);
                assert_eq!(
                    engine.stats().bytes_copied,
                    0,
                    "owned get handout must be copy-free ({device:?})"
                );
                engine.recycle(data);
                let get = engine.win_get(win, 1, 0, LEN).unwrap();
                engine.win_fence(win).unwrap();
                let mut buf = vec![0u8; LEN];
                engine.win_get_take_into(win, get, &mut buf).unwrap();
                assert_eq!(buf, vec![5u8; LEN]);
                assert_eq!(
                    engine.stats().bytes_copied,
                    LEN as u64,
                    "get take_into is the single delivery copy ({device:?})"
                );
            } else {
                engine.win_fence(win).unwrap();
                engine.win_fence(win).unwrap();
                // Serving each get stages one reply copy of the region.
                assert_eq!(engine.stats().bytes_copied, 2 * LEN as u64, "{device:?}");
            }
            engine.win_free(win).unwrap();
        })
        .unwrap();
    }
}

/// The RMA operation counters (`rma_puts`, `rma_gets`, `rma_bytes`,
/// `epochs`) track origin-side traffic: accumulates count as puts, and
/// every closed epoch — fence or unlock — bumps `epochs`.
#[test]
fn rma_counters_track_operations_and_epochs() {
    use mpi_native::{PredefinedOp, PrimitiveKind};
    Universe::run(2, DeviceKind::ShmFast, |engine| {
        let rank = engine.world_rank();
        let win = engine.win_create(COMM_WORLD, vec![0u8; 64]).unwrap();
        engine.win_fence(win).unwrap();
        if rank == 0 {
            engine.win_put(win, 1, 0, &[1u8; 16]).unwrap();
            engine
                .win_accumulate(
                    win,
                    1,
                    16,
                    &16i32.to_le_bytes(),
                    PrimitiveKind::Int,
                    PredefinedOp::Sum,
                )
                .unwrap();
        }
        engine.win_fence(win).unwrap();
        if rank == 0 {
            let get = engine.win_get(win, 1, 0, 8).unwrap();
            engine.win_fence(win).unwrap();
            let data = engine.win_get_take(win, get).unwrap();
            engine.recycle(data);
            engine.win_lock(win, 1).unwrap();
            engine.win_put(win, 1, 32, &[2u8; 8]).unwrap();
            engine.win_unlock(win, 1).unwrap();
            let stats = engine.stats();
            assert_eq!(stats.rma_puts, 3, "2 puts + 1 accumulate");
            assert_eq!(stats.rma_gets, 1);
            assert_eq!(stats.rma_bytes, (16 + 4 + 8 + 8) as u64);
            assert_eq!(stats.epochs, 4, "3 fences + 1 unlock");
        } else {
            engine.win_fence(win).unwrap();
            // Keep the passive-target exchange progressing.
            let (flag, _) = engine.recv(COMM_WORLD, 0, 99, None).unwrap();
            assert_eq!(flag.as_ref(), b"done");
            assert_eq!(engine.stats().epochs, 3, "targets only close fences");
        }
        if rank == 0 {
            engine
                .send(COMM_WORLD, 1, 99, b"done", SendMode::Standard)
                .unwrap();
        }
        engine.win_free(win).unwrap();
    })
    .unwrap();
}

/// A persistent allreduce's `start()`/`wait()` cycle stages no new
/// copies over its transient twin: the pre-built template re-binds the
/// payload through exactly the same staging path, so the steady-state
/// `bytes_copied` delta per iteration must not exceed the transient
/// collective's.
#[test]
fn persistent_allreduce_stages_no_new_copies_over_transient() {
    use mpi_native::coll::{CollDesc, Payload, Reduction};
    use mpi_native::{Op, PredefinedOp, PrimitiveKind};
    for device in DEVICES {
        Universe::run(2, device, |engine| {
            let sum = Op::Predefined(PredefinedOp::Sum);
            let count = 1024usize;
            let payload: Vec<u8> = (0..count as i32).flat_map(|i| i.to_le_bytes()).collect();
            let allreduce =
                CollDesc::Allreduce(Reduction::borrowed(PrimitiveKind::Int, count, &sum));

            // Warm both paths so the schedule cache and staging pools
            // are in steady state before anything is measured.
            let req = engine
                .coll_launch(COMM_WORLD, &allreduce, Payload::Bytes(&payload))
                .unwrap();
            engine.wait(req).unwrap();
            let persistent = CollDesc::Allreduce(Reduction::owned(PrimitiveKind::Int, count, &sum));
            let pid = engine.coll_init(COMM_WORLD, persistent, None).unwrap();
            engine.start(pid, Cow::Borrowed(&payload)).unwrap();
            engine.wait(pid).unwrap();

            let base = engine.stats().bytes_copied;
            let req = engine
                .coll_launch(COMM_WORLD, &allreduce, Payload::Bytes(&payload))
                .unwrap();
            engine.wait(req).unwrap();
            let transient = engine.stats().bytes_copied - base;

            let base = engine.stats().bytes_copied;
            engine.start(pid, Cow::Borrowed(&payload)).unwrap();
            engine.wait(pid).unwrap();
            let persistent = engine.stats().bytes_copied - base;

            assert!(
                persistent <= transient,
                "persistent start()+wait() copied {persistent} bytes vs \
                 transient {transient} ({device:?})"
            );
            engine.request_free(pid).unwrap();
        })
        .unwrap();
    }
}

/// The staging pool recycles buffers: after a warm-up round trip, a
/// steady-state ping-pong on the shared-memory device reuses the pooled
/// staging allocation instead of growing it (observable indirectly: the
/// copy counts stay exact, and spent receive buffers feed later sends —
/// this test pins the accounting through pool churn).
#[test]
fn pool_recycling_does_not_distort_the_accounting() {
    Universe::run(2, DeviceKind::ShmFast, |engine| {
        let rank = engine.world_rank();
        let peer = (1 - rank) as i32;
        let (stag, rtag) = if rank == 0 { (1, 2) } else { (2, 1) };
        let payload = vec![9u8; 16 * 1024];
        let mut buf = vec![0u8; 16 * 1024];
        for round in 0..8u64 {
            if rank == 0 {
                engine
                    .send(COMM_WORLD, peer, stag, &payload, SendMode::Standard)
                    .unwrap();
                engine.recv_into(COMM_WORLD, peer, rtag, &mut buf).unwrap();
            } else {
                engine.recv_into(COMM_WORLD, peer, rtag, &mut buf).unwrap();
                engine
                    .send(COMM_WORLD, peer, stag, &payload, SendMode::Standard)
                    .unwrap();
            }
            assert_eq!(
                engine.stats().bytes_copied,
                (round + 1) * 2 * 16 * 1024,
                "copy count drifted at round {round}"
            );
        }
    })
    .unwrap();
}
