//! Steady-state heap allocations of small classic operations, counted
//! by a process-wide counting allocator.
//!
//! Two ranks on `ShmFast` warm up, then run `CALLS` more calls while the
//! allocator counts; a row's figures are the counts divided by ranks ×
//! calls. The test's own buffers are allocated before the window opens.
//! Every payload buffer's life ends in the engine's staging pool, and a
//! cached schedule replays its template's rounds by reference, so:
//!
//! | row | allocations ≥ 1 KiB | smaller ones |
//! |---|---|---|
//! | classic `Copy` `Allreduce`, 1024 `INT` `SUM` (recursive doubling) | 0 | ≤ 6 |
//! | classic `Copy` `Allreduce`, 262144 `INT` `SUM` (ring) | 0 | — |
//! | classic `Sendrecv`, 1024 `DOUBLE` (a halo row) | 0 | 0 |
//! | classic `Send` + `Recv` ping-pong, 1 MiB `BYTE` (streamed) | 0 | 0 |
//! | classic `Copy` `Send` + `Recv` ping-pong, 1 `BYTE` | 0 | 0 |
//! | `rs` batch: 16 `isend`s / `irecv_into`s of 64 `u8`, one `wait_all` | ≤ 1 | ≤ 9 |
//! | classic `Copy` `Reduce` to rank 0, 1024 `INT` `SUM` | ≤ 0.75 | — |
//! | `Bytes::new()`, `Bytes::default()`, `Frame::control(..)` | 0 | 0 |
//!
//! A reduce moves buffers one way: the non-root's send staging buffer
//! ends in the root's pool, so the non-root allocates it afresh on every
//! call: 0.5 per rank, and a little more when the non-root runs ahead
//! and the root's queue of early arrivals grows. Its own input is left
//! in its schedule's slot store, and only the retiring schedule's sweep
//! returns it to the pool; without the sweep the non-root allocates
//! twice per call (1.0 per rank).
//!
//! A payload of at most 64 bytes (`bytes::INLINE_CAP`) is staged inside
//! its `Bytes`, and a basic datatype's typemap is a shared static, so a
//! small message allocates nothing between the caller's buffer and the
//! receiver's. What the `rs` batch still allocates per rank is the
//! `Vec` of its 16 requests (1 KiB), the statuses `wait_all` returns
//! (the requests' buffer, reused and shrunk: one `realloc`), and on the
//! receiver one boxed buffer capture per `irecv_into` (8 per rank).
//!
//! A streamed 1 MiB message is eight 128 KiB chunks: the receiver pools
//! each chunk as the `Bytes` it landed in, and its next send refills
//! that buffer in place, so no chunk allocates even the reference count
//! a fresh `Bytes` needs (an unstreamed message allocated one). A
//! `Sendrecv` stages its send the same way: the binding hands each
//! received row back to the pool as the `Bytes` it arrived in, and the
//! next row's send refills it.
//!
//! The rows run in one test, one after another: a second test thread
//! would allocate inside another row's window. The `MPIJAVA_*`
//! environment applies, so the same counts are checked with the
//! background progress thread on and with every send a rendezvous.
//!
//! The `rs` batch's 16 frames from one source can outrun the receiver in
//! any mode. The receiving rank's `Mailbox` inbox (the `VecDeque` its
//! `push` appends to, in `mpi-transport`'s `mailbox.rs`) is built with
//! 64 slots, so that burst never grows it; built empty, it doubled from
//! 8 to 16 slots (a 1,024 to 2,048-byte `realloc`) inside the window
//! whenever the warm-up had never queued 9 frames, and the row read just
//! over its bound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Barrier;

use bytes::Bytes;
use mpi_transport::{Frame, FrameHeader, FrameKind};
use mpijava::{Datatype, Intracomm, JniConfig, MarshalMode, MpiRuntime, Op, TypedRequest};

/// Counts every allocation (and every `realloc`, which may move) while
/// `COUNTING` is set, split at 1 KiB.
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LARGE: AtomicU64 = AtomicU64::new(0);
static SMALL: AtomicU64 = AtomicU64::new(0);

const LARGE_BYTES: usize = 1024;

fn count(size: usize) {
    if COUNTING.load(Relaxed) {
        let counter = if size >= LARGE_BYTES { &LARGE } else { &SMALL };
        counter.fetch_add(1, Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; counting touches only atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const RANKS: usize = 2;
const WARMUP: usize = 50;
const CALLS: usize = 200;

/// Allocations per rank per call inside one counting window.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PerCall {
    large: f64,
    small: f64,
}

fn open_window() {
    LARGE.store(0, Relaxed);
    SMALL.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
}

fn close_window(ops: usize) -> PerCall {
    COUNTING.store(false, Relaxed);
    PerCall {
        large: LARGE.load(Relaxed) as f64 / ops as f64,
        small: SMALL.load(Relaxed) as f64 / ops as f64,
    }
}

/// Run `call` on both ranks: `WARMUP` uncounted calls, then `CALLS`
/// counted ones. `setup` builds a rank's send and receive buffers,
/// outside the window.
fn measure<T, S, F>(setup: S, call: F) -> PerCall
where
    S: Fn(usize) -> (Vec<T>, Vec<T>) + Send + Sync,
    F: Fn(&Intracomm, &[T], &mut [T]) + Send + Sync,
{
    let gate = Barrier::new(RANKS);
    let jni = JniConfig {
        marshal: MarshalMode::Copy,
        ..JniConfig::default()
    };
    let counts = MpiRuntime::new(RANKS)
        .jni(jni)
        .run(|mpi| {
            let world = mpi.comm_world();
            let (send, mut recv) = setup(world.rank()?);
            for _ in 0..WARMUP {
                call(&world, &send, &mut recv);
            }
            let lead = gate.wait().is_leader();
            if lead {
                open_window();
            }
            gate.wait();
            for _ in 0..CALLS {
                call(&world, &send, &mut recv);
            }
            gate.wait();
            let counts = lead.then(|| close_window(RANKS * CALLS));
            mpi.finalize()?;
            Ok(counts)
        })
        .unwrap();
    counts.into_iter().flatten().next().unwrap()
}

/// Classic `Allreduce` of `count` `INT`s with `SUM`.
fn allreduce(count: usize) -> PerCall {
    let (int, sum) = (Datatype::int(), Op::sum());
    measure(
        |rank| {
            (
                (0..count as i32).map(|i| i ^ rank as i32).collect(),
                vec![0; count],
            )
        },
        |world, send, recv| {
            world
                .allreduce(send, 0, recv, 0, count, &int, &sum)
                .unwrap();
            black_box(recv);
        },
    )
}

/// Classic `Reduce` of 1024 `INT`s with `SUM` to rank 0.
fn reduce_to_root() -> PerCall {
    const COUNT: usize = 1024;
    let (int, sum) = (Datatype::int(), Op::sum());
    measure(
        |rank| (vec![rank as i32; COUNT], vec![0; COUNT]),
        |world, send, recv| {
            world
                .reduce(send, 0, recv, 0, COUNT, &int, &sum, 0)
                .unwrap();
            black_box(recv);
        },
    )
}

/// Classic `Sendrecv` of a 1024-`DOUBLE` row with the other rank.
fn sendrecv_row() -> PerCall {
    const COUNT: usize = 1024;
    let double = Datatype::double();
    measure(
        |rank| (vec![rank as f64; COUNT], vec![0.0; COUNT]),
        |world, send, recv| {
            let peer = 1 - world.rank().unwrap() as i32;
            world
                .sendrecv(
                    send, 0, COUNT, &double, peer, 3, recv, 0, COUNT, &double, peer, 3,
                )
                .unwrap();
            black_box(recv);
        },
    )
}

/// Classic ping-pong of `len` `BYTE`s: rank 0 sends and receives,
/// rank 1 receives and sends back.
fn pingpong(len: usize) -> PerCall {
    let byte = Datatype::byte();
    measure(
        |rank| (vec![rank as u8; len], vec![0; len]),
        |world, send, recv| {
            if world.rank().unwrap() == 0 {
                world.send(send, 0, len, &byte, 1, 9).unwrap();
                world.recv(recv, 0, len, &byte, 1, 9).unwrap();
            } else {
                world.recv(recv, 0, len, &byte, 0, 9).unwrap();
                world.send(send, 0, len, &byte, 0, 9).unwrap();
            }
            black_box(recv);
        },
    )
}

/// An `rs` batch of 16 messages of 64 `u8`: rank 1 posts an
/// `irecv_into` into each 64-byte chunk of its buffer, then rank 0 an
/// `isend` of each chunk of its own, and each rank waits for its batch
/// with one `TypedRequest::wait_all`. The ranks meet outside MPI between
/// the two postings, so every message finds its receive posted and the
/// sender is never batches ahead of the receiver.
fn rs_batch() -> PerCall {
    use mpijava::rs::Communicator;
    const MSGS: usize = 16;
    const LEN: usize = 64;
    let posted_all = Barrier::new(RANKS);
    measure(
        |rank| (vec![rank as u8; MSGS * LEN], vec![0; MSGS * LEN]),
        |world, send, recv| {
            let mut posted = Vec::with_capacity(MSGS);
            if world.rank().unwrap() == 0 {
                posted_all.wait();
                for msg in send.chunks_exact(LEN) {
                    posted.push(Communicator::isend(world, msg, 1, 5).unwrap());
                }
            } else {
                for slot in recv.chunks_exact_mut(LEN) {
                    posted.push(Communicator::irecv_into(world, slot, 0, 5).unwrap());
                }
                posted_all.wait();
            }
            TypedRequest::wait_all(posted).unwrap();
            black_box(recv);
        },
    )
}

/// An empty `Bytes` and a control frame, built on this thread alone.
fn empty_payloads() -> PerCall {
    const N: usize = 1000;
    let header = FrameHeader {
        kind: FrameKind::RendezvousRequest,
        src: 0,
        dst: 1,
        tag: 7,
        context: 0,
        token: 1,
        msg_len: 4096,
    };
    open_window();
    for _ in 0..N {
        black_box(Bytes::new());
        black_box(Bytes::default());
        black_box(Frame::control(black_box(header)));
    }
    close_window(N)
}

/// One row of the table in the module docs: what was measured, and the
/// most allocations per rank per call it may make.
struct Row {
    name: &'static str,
    got: PerCall,
    large_max: f64,
    small_max: Option<f64>,
}

#[test]
fn small_operations_allocate_nothing_payload_sized_in_steady_state() {
    let row = |name, got, large_max, small_max| Row {
        name,
        got,
        large_max,
        small_max,
    };
    let rows = [
        row(
            "allreduce 1024 INT (recursive doubling)",
            allreduce(1024),
            0.0,
            Some(6.0),
        ),
        row("allreduce 262144 INT (ring)", allreduce(262_144), 0.0, None),
        row("sendrecv 1024 DOUBLE", sendrecv_row(), 0.0, Some(0.0)),
        row("pingpong 1 MiB BYTE", pingpong(1 << 20), 0.0, Some(0.0)),
        row("pingpong 1 BYTE", pingpong(1), 0.0, Some(0.0)),
        row(
            "rs batch of 16 isend / irecv_into of 64 u8",
            rs_batch(),
            1.0,
            Some(9.0),
        ),
        row("reduce 1024 INT to rank 0", reduce_to_root(), 0.75, None),
        row(
            "Bytes::new, Bytes::default, Frame::control",
            empty_payloads(),
            0.0,
            Some(0.0),
        ),
    ];
    let table: String = rows
        .iter()
        .map(|r| {
            format!(
                "\n  {}: {:.3} >= 1 KiB, {:.3} smaller",
                r.name, r.got.large, r.got.small
            )
        })
        .collect();
    println!("allocations per rank per call:{table}");
    for r in &rows {
        assert!(
            r.got.large <= r.large_max,
            "{}: more than {} allocations >= 1 KiB per call{table}",
            r.name,
            r.large_max
        );
        if let Some(max) = r.small_max {
            assert!(
                r.got.small <= max,
                "{}: more than {max} small allocations per call{table}",
                r.name
            );
        }
    }
}
