//! Rendezvous data into windows, end to end through the classic surface.
//!
//! Every granted send ships frames of at most its grant. A `Recv` into a
//! window that fits the message is granted chunks of the eager
//! threshold's size and copies each chunk into place as it lands; any
//! other receive is granted the whole message as one frame. A blocking
//! dense `Send` (or `Ssend`) is announced before anything is staged and
//! stages its window one granted chunk at a time; a held payload (an
//! `Isend`, or an owned buffer's `send_bytes`) ships as slices of
//! itself. These tests pin the edges of that protocol, each in both
//! marshal modes: a length that is no multiple of the chunk, an
//! announcement that beats its receive, two senders streaming to one
//! `ANY_SOURCE` receiver, a window too short (`Truncate`), `Ssend`'s
//! completion rule, receives without a window (granted one frame, so
//! still zero-copy), a held send into a window (granted chunks like any
//! other), a sender killed mid-stream or a receiver killed before its
//! grant, and a collective round whose peer dies before its data lands
//! (`RankFailed` in every case).
//!
//! The `MPIJAVA_*` environment applies: CI runs the file again with
//! every send a rendezvous and with the background progress thread on.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use bytes::Bytes;
use mpi_native::p2p::RENDEZVOUS_CHUNK;
use mpi_transport::FaultPlan;
use mpijava::{
    Datatype, ErrorClass, Intracomm, JniConfig, MarshalMode, MpiResult, MpiRuntime, Op,
    TraceConfig, MPI,
};

/// One chunk more than 1 MiB holds, and seven bytes into it.
const ODD: usize = (1 << 20) + 7;
const MODES: [MarshalMode; 2] = [MarshalMode::Copy, MarshalMode::Pin];

fn runtime(ranks: usize, marshal: MarshalMode) -> MpiRuntime {
    MpiRuntime::new(ranks).jni(JniConfig {
        marshal,
        ..JniConfig::default()
    })
}

/// `len` bytes that differ per `seed` and per position.
fn payload(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i % 251) as u8 ^ seed.wrapping_mul(37))
        .collect()
}

/// Run `body` on two ranks in each marshal mode, then finalize.
fn on_two_ranks(body: impl Fn(&MPI, usize, MarshalMode) -> MpiResult<()> + Send + Sync) {
    for marshal in MODES {
        runtime(2, marshal)
            .run(|mpi| {
                let rank = mpi.comm_world().rank()?;
                body(mpi, rank, marshal)?;
                mpi.finalize()
            })
            .unwrap_or_else(|e| panic!("{marshal:?}: {e}"));
    }
}

#[test]
fn a_length_that_is_no_multiple_of_the_chunk_arrives_whole() {
    on_two_ranks(|mpi, rank, marshal| {
        let world = mpi.comm_world();
        let byte = Datatype::byte();
        let sent = payload(ODD, 1);
        if rank == 0 {
            world.send(&sent, 0, ODD, &byte, 1, 3)?;
        } else {
            // One spare byte past the message must stay untouched.
            let mut window = vec![0xAA; ODD + 1];
            let status = world.recv(&mut window, 0, ODD + 1, &byte, 0, 3)?;
            assert_eq!(status.count_bytes(), ODD, "{marshal:?}");
            assert_eq!(&window[..ODD], &sent[..], "{marshal:?}");
            assert_eq!(window[ODD], 0xAA, "{marshal:?}: past the message");
        }
        Ok(())
    });
}

#[test]
fn an_announcement_that_beats_its_receive_still_streams() {
    on_two_ranks(|mpi, rank, marshal| {
        let world = mpi.comm_world();
        let byte = Datatype::byte();
        let sent = payload(ODD, 2);
        if rank == 0 {
            world.send(&sent, 0, ODD, &byte, 1, 4)?;
        } else {
            // Wait until the announcement is parked before posting.
            while world.iprobe(0, 4)?.is_none() {
                std::thread::yield_now();
            }
            let before = mpi.engine_stats().unexpected_hits;
            let mut window = vec![0; ODD];
            world.recv(&mut window, 0, ODD, &byte, 0, 4)?;
            assert_eq!(mpi.engine_stats().unexpected_hits, before + 1);
            assert_eq!(window, sent, "{marshal:?}");
        }
        Ok(())
    });
}

#[test]
fn two_senders_stream_to_one_any_source_receiver() {
    for marshal in MODES {
        runtime(3, marshal)
            .run(|mpi| {
                let world = mpi.comm_world();
                let byte = Datatype::byte();
                let rank = world.rank()?;
                if rank == 0 {
                    let mut seen = [false; 3];
                    for _ in 0..2 {
                        let mut window = vec![0; ODD];
                        let status = world.recv(&mut window, 0, ODD, &byte, MPI::ANY_SOURCE, 5)?;
                        let src = status.source() as usize;
                        assert_eq!(status.count_bytes(), ODD);
                        assert!(window == payload(ODD, src as u8), "{marshal:?}: from {src}");
                        seen[src] = true;
                    }
                    assert_eq!(seen, [false, true, true], "{marshal:?}");
                } else {
                    world.send(&payload(ODD, rank as u8), 0, ODD, &byte, 0, 5)?;
                }
                mpi.finalize()
            })
            .unwrap();
    }
}

#[test]
fn a_window_shorter_than_the_message_truncates_without_a_hang() {
    on_two_ranks(|mpi, rank, marshal| {
        let world = mpi.comm_world();
        let byte = Datatype::byte();
        let sent = payload(ODD, 6);
        if rank == 0 {
            world.send(&sent, 0, ODD, &byte, 1, 6)?;
            world.send(&sent, 0, ODD, &byte, 1, 7)?;
        } else {
            let mut short = vec![0u8; ODD / 2];
            let error = world
                .recv(&mut short, 0, ODD / 2, &byte, 0, 6)
                .expect_err("the window is too short");
            assert_eq!(error.class, ErrorClass::Truncate, "{marshal:?}: {error}");
            // The pair is still in step: the next message streams.
            let mut window = vec![0; ODD];
            world.recv(&mut window, 0, ODD, &byte, 0, 7)?;
            assert_eq!(window, sent, "{marshal:?}");
        }
        Ok(())
    });
}

#[test]
fn ssend_completes_only_after_the_match() {
    for len in [5, ODD] {
        let posted = AtomicBool::new(false);
        on_two_ranks(|mpi, rank, marshal| {
            let world = mpi.comm_world();
            let byte = Datatype::byte();
            let sent = payload(len, 8);
            if rank == 0 {
                posted.store(false, Ordering::SeqCst);
                world.barrier()?;
                world.ssend(&sent, 0, len, &byte, 1, 8)?;
                assert!(
                    posted.load(Ordering::SeqCst),
                    "{marshal:?}, {len} B: Ssend returned before the receive"
                );
            } else {
                world.barrier()?;
                std::thread::sleep(Duration::from_millis(30));
                posted.store(true, Ordering::SeqCst);
                let mut window = vec![0; len];
                world.recv(&mut window, 0, len, &byte, 0, 8)?;
                assert_eq!(window, sent, "{marshal:?}, {len} B");
            }
            Ok(())
        });
    }
}

/// A receive without a window — a `Bytes` receive or an `Irecv` — is
/// granted the whole message as one frame: the engine copies nothing
/// on its side, as before streaming.
#[test]
fn receives_without_a_window_stay_zero_copy() {
    on_two_ranks(|mpi, rank, marshal| {
        let world = mpi.comm_world();
        let byte = Datatype::byte();
        let sent = payload(ODD, 9);
        if rank == 0 {
            world.send(&sent, 0, ODD, &byte, 1, 9)?;
            world.send(&sent, 0, ODD, &byte, 1, 10)?;
        } else {
            let before = mpi.engine_stats().bytes_copied;
            let (data, status) = mpi.with_engine(|e| e.recv(world.handle(), 0, 9, Some(ODD)))?;
            assert_eq!((status.count_bytes, &data[..]), (ODD, &sent[..]));
            let mut window = vec![0; ODD];
            world.irecv(&mut window, 0, ODD, &byte, 0, 10)?.wait()?;
            assert_eq!(window, sent, "{marshal:?}");
            let copied = mpi.engine_stats().bytes_copied - before;
            assert_eq!(copied, 0, "{marshal:?}: engine copies on the receive side");
        }
        Ok(())
    });
}

/// A held payload — a classic `Isend`, or the `rs` `send_bytes` of a
/// buffer the caller owns — ships in grant-sized slices like a blocking
/// send's window: a `Recv` into a window that fits it takes the
/// announcement plus one data frame per chunk, and copies each chunk
/// into place once, 1 MiB in all.
#[test]
fn a_held_send_into_a_window_lands_in_granted_chunks() {
    const LEN: usize = 1 << 20;
    let frames = 1 + LEN.div_ceil(RENDEZVOUS_CHUNK) as i64;
    for marshal in MODES {
        runtime(2, marshal)
            .trace(TraceConfig::counters())
            .run(|mpi| {
                let world = mpi.comm_world();
                let byte = Datatype::byte();
                let frames_sent = || mpi.metrics_snapshot().pvar("transport.frames_sent");
                for (tag, owned) in [(14, false), (15, true)] {
                    let sent = payload(LEN, tag as u8);
                    if world.rank()? == 0 {
                        let before = frames_sent().expect("frame counters are on");
                        if owned {
                            send_owned(&world, Bytes::from(sent), 1, tag)?;
                        } else {
                            world.isend(&sent, 0, LEN, &byte, 1, tag)?.wait()?;
                        }
                        let shipped = frames_sent().unwrap() - before;
                        assert_eq!(shipped, frames, "{marshal:?}, owned {owned}: frames");
                    } else {
                        let before = mpi.engine_stats().bytes_copied;
                        let mut window = vec![0; LEN];
                        world.recv(&mut window, 0, LEN, &byte, 0, tag)?;
                        assert!(window == sent, "{marshal:?}, owned {owned}: payload");
                        let copied = mpi.engine_stats().bytes_copied - before;
                        assert_eq!(copied, LEN as u64, "{marshal:?}, owned {owned}: copies");
                    }
                }
                mpi.finalize()
            })
            .unwrap_or_else(|e| panic!("{marshal:?}: {e}"));
    }
}

/// The `rs` surface's zero-copy blocking send, kept out of the classic
/// code's scope (its trait shadows the classic `send`).
fn send_owned(world: &Intracomm, data: Bytes, dest: i32, tag: i32) -> MpiResult<()> {
    use mpijava::rs::Communicator;
    world.send_bytes(data, dest, tag)
}

/// The sender dies before its fourth frame: the announcement and two
/// chunks are out. The receive waiting for the rest fails with
/// `RankFailed` once the lease runs out, instead of hanging.
#[test]
fn a_sender_killed_mid_stream_fails_the_receive() {
    for marshal in MODES {
        runtime(2, marshal)
            .lease(Duration::from_millis(200))
            .faults(FaultPlan::parse("kill:0@4").unwrap())
            .run(|mpi| {
                let world = mpi.comm_world();
                let byte = Datatype::byte();
                let sent = payload(ODD, 11);
                let error = if world.rank()? == 0 {
                    world.send(&sent, 0, ODD, &byte, 1, 11)
                } else {
                    let mut window = vec![0u8; ODD];
                    let got = world.recv(&mut window, 0, ODD, &byte, 0, 11);
                    let landed = mpi.engine_stats().bytes_received as usize;
                    assert!(0 < landed && landed < ODD, "{marshal:?}: {landed} B landed");
                    mpi.finalize()?;
                    got.map(drop)
                }
                .expect_err("the stream cannot finish");
                assert_eq!(error.class, ErrorClass::RankFailed, "{marshal:?}: {error}");
                Ok(())
            })
            .unwrap();
    }
}

/// The receiver dies before it grants (its first frame is its last): the
/// streamed send waiting for the grant fails with `RankFailed`.
#[test]
fn a_receiver_killed_before_its_grant_fails_the_send() {
    for marshal in MODES {
        runtime(2, marshal)
            .lease(Duration::from_millis(200))
            .faults(FaultPlan::parse("kill:1@1").unwrap())
            .run(|mpi| {
                let world = mpi.comm_world();
                let byte = Datatype::byte();
                let sent = payload(ODD, 12);
                let error = if world.rank()? == 0 {
                    let sent = world.send(&sent, 0, ODD, &byte, 1, 12);
                    mpi.finalize()?;
                    sent
                } else {
                    world.send(&sent[..1], 0, 1, &byte, 0, 13)
                }
                .expect_err("nobody grants the stream");
                assert_eq!(error.class, ErrorClass::RankFailed, "{marshal:?}: {error}");
                Ok(())
            })
            .unwrap();
    }
}

/// A collective round at rendezvous size: a 1 MiB allreduce on two ranks
/// runs the ring, whose 512 KiB segments are held payloads granted to
/// the schedule's slot receives. Rank 1 dies on its second frame, so
/// nothing of its segment ever lands: rank 0's allreduce fails with
/// `RankFailed` once the lease runs out, instead of hanging.
#[test]
fn a_peer_killed_before_its_round_data_lands_fails_the_collective() {
    const COUNT: usize = (1 << 20) / 4;
    for marshal in MODES {
        runtime(2, marshal)
            .lease(Duration::from_millis(200))
            .faults(FaultPlan::parse("kill:1@2").unwrap())
            .run(|mpi| {
                let world = mpi.comm_world();
                let rank = world.rank()?;
                let send = vec![rank as i32 + 1; COUNT];
                let mut recv = vec![0i32; COUNT];
                let int = Datatype::int();
                let got = world.allreduce(&send, 0, &mut recv, 0, COUNT, &int, &Op::sum());
                if rank == 0 {
                    let landed = mpi.engine_stats().bytes_received;
                    assert_eq!(landed, 0, "{marshal:?}: {landed} B of the round landed");
                    mpi.finalize()?;
                }
                let error = got.expect_err("the round cannot finish");
                assert_eq!(error.class, ErrorClass::RankFailed, "{marshal:?}: {error}");
                Ok(())
            })
            .unwrap();
    }
}
