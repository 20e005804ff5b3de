//! RMA epoch-semantics suite: the one-sided subsystem implements
//! *applied-at-sync* (IBM-style) memory semantics, and this file pins
//! the visible consequences on every device:
//!
//! * a `put` is invisible at the target until the closing `fence`
//!   (even while the target actively drives its progress engine);
//! * concurrent `accumulate`s from multiple origins in one epoch are
//!   deterministic (applied in origin-rank order);
//! * concurrent `put`s to the same location resolve to the
//!   highest-ranked origin (rank-order application);
//! * `get` results are redeemable only after a covering sync;
//! * passive-target epochs (`lock`/`put`/`flush`/`unlock`) expose the
//!   holder's operations at `flush`, and the lock serializes origins;
//! * `win_free` and `finalize` refuse un-synced epochs;
//! * everything above survives the rendezvous datapath (tiny eager
//!   threshold, large payloads) and hybrid fabrics;
//! * an operation outside its target's window fails the covering sync
//!   once, with `Buffer`, and the next epoch works on every rank;
//! * every operation is one message: a fence epoch of the halo's torus
//!   pattern sends an exact number of frames per rank.

use mpi_native::comm::COMM_WORLD;
use std::time::Duration;

use mpi_native::{
    Engine, ErrorClass, NodeMap, PredefinedOp, PrimitiveKind, SendMode, TraceConfig, Universe,
    UniverseConfig, DEFAULT_EAGER_THRESHOLD,
};
use mpi_transport::DeviceKind;

const DEVICES: [DeviceKind; 3] = [DeviceKind::ShmFast, DeviceKind::ShmP4, DeviceKind::Tcp];

fn ints(values: &[i32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn read_ints(bytes: &[u8]) -> Vec<i32> {
    bytes
        .chunks_exact(4)
        .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// Origin puts, then hands the target a two-sided flag; the target's
/// receive drives its progress engine (ingesting and parsing the RMA
/// traffic), yet the region must stay untouched until the fence lands.
fn put_invisible_until_fence(engine: &mut Engine) {
    let rank = engine.world_rank();
    let win = engine.win_create(COMM_WORLD, vec![0u8; 64]).unwrap();
    engine.win_fence(win).unwrap(); // open the epoch
    if rank == 0 {
        engine.win_put(win, 1, 8, &[0xAB; 16]).unwrap();
        engine
            .send(COMM_WORLD, 1, 17, b"put-issued", SendMode::Standard)
            .unwrap();
    } else if rank == 1 {
        // Receiving parks on the transport until the flag frame arrives,
        // which necessarily drives progress past the put's arrival on
        // the shm paths — and the op must still not be applied.
        let (data, _) = engine.recv(COMM_WORLD, 0, 17, None).unwrap();
        assert_eq!(data.as_ref(), b"put-issued");
        assert_eq!(
            engine.win_region(win).unwrap(),
            &[0u8; 64][..],
            "put became visible before the closing fence"
        );
    }
    engine.win_fence(win).unwrap();
    if rank == 1 {
        let region = engine.win_region(win).unwrap();
        assert_eq!(&region[8..24], &[0xAB; 16]);
        assert_eq!(&region[..8], &[0u8; 8]);
        assert_eq!(&region[24..], &[0u8; 40]);
    }
    engine.win_free(win).unwrap();
}

/// Every rank accumulates into rank 0 and puts into rank `size - 1`
/// concurrently in one epoch; rank-order application makes both
/// deterministic: the sum for the accumulate, the highest-ranked
/// origin's value for the overlapping puts.
fn concurrent_origins_are_deterministic(engine: &mut Engine) {
    let rank = engine.world_rank();
    let size = engine.world_size();
    let win = engine
        .win_create(COMM_WORLD, ints(&[100, 200, 300]))
        .unwrap();
    engine.win_fence(win).unwrap();
    engine
        .win_accumulate(
            win,
            0,
            0,
            &ints(&[rank as i32 + 1, 2 * (rank as i32 + 1)]),
            PrimitiveKind::Int,
            PredefinedOp::Sum,
        )
        .unwrap();
    engine
        .win_put(win, size - 1, 8, &ints(&[1000 + rank as i32]))
        .unwrap();
    engine.win_fence(win).unwrap();
    let region = read_ints(engine.win_region(win).unwrap());
    if rank == 0 {
        let n = size as i32;
        assert_eq!(region[0], 100 + n * (n + 1) / 2);
        assert_eq!(region[1], 200 + n * (n + 1));
    }
    if rank == size - 1 {
        // Origins apply in rank order within the epoch, so the last
        // rank's put wins the overlap.
        assert_eq!(region[2], 1000 + size as i32 - 1);
    }
    engine.win_free(win).unwrap();
}

/// Gets resolve at the fence; taking one earlier is refused.
fn get_resolves_at_fence(engine: &mut Engine) {
    let rank = engine.world_rank();
    let size = engine.world_size();
    let seed = ints(&[rank as i32 * 10, rank as i32 * 10 + 1]);
    let win = engine.win_create(COMM_WORLD, seed).unwrap();
    engine.win_fence(win).unwrap();
    let peer = (rank + 1) % size;
    let get = engine.win_get(win, peer, 0, 8).unwrap();
    let early = engine.win_get_take(win, get);
    assert!(
        early.is_err(),
        "get was redeemable before any synchronization"
    );
    engine.win_fence(win).unwrap();
    let data = engine.win_get_take(win, get).unwrap();
    assert_eq!(
        read_ints(data.as_ref()),
        vec![peer as i32 * 10, peer as i32 * 10 + 1]
    );
    engine.recycle(data);
    engine.win_free(win).unwrap();
}

/// Passive target: rank 0 locks rank 1, puts, and flushes — the value
/// is applied at the target while the target merely makes progress
/// (two-sided flag handshake, no target-side RMA call). A second
/// origin's lock serializes behind the first.
fn passive_target_flush_exposes_and_lock_serializes(engine: &mut Engine) {
    let rank = engine.world_rank();
    let size = engine.world_size();
    let win = engine.win_create(COMM_WORLD, vec![0u8; 16]).unwrap();
    if size >= 3 {
        // Rank 2 locks first and holds while it writes; rank 0 queues.
        match rank {
            2 => {
                engine.win_lock(win, 1).unwrap();
                engine
                    .send(COMM_WORLD, 0, 31, b"locked", SendMode::Standard)
                    .unwrap();
                engine.win_put(win, 1, 0, &ints(&[7])).unwrap();
                engine.win_unlock(win, 1).unwrap();
            }
            0 => {
                let (flag, _) = engine.recv(COMM_WORLD, 2, 31, None).unwrap();
                assert_eq!(flag.as_ref(), b"locked");
                // Blocks until rank 2 unlocks; the accumulate then runs
                // against the already-applied put.
                engine.win_lock(win, 1).unwrap();
                engine
                    .win_accumulate(
                        win,
                        1,
                        0,
                        &ints(&[5]),
                        PrimitiveKind::Int,
                        PredefinedOp::Sum,
                    )
                    .unwrap();
                engine.win_flush(win, 1).unwrap();
                let get = engine.win_get(win, 1, 0, 4).unwrap();
                engine.win_flush(win, 1).unwrap();
                let data = engine.win_get_take(win, get).unwrap();
                assert_eq!(read_ints(data.as_ref()), vec![12]);
                engine.recycle(data);
                engine.win_unlock(win, 1).unwrap();
                engine
                    .send(COMM_WORLD, 1, 32, b"done", SendMode::Standard)
                    .unwrap();
            }
            1 => {
                // The target only makes progress (inside recv) — no RMA
                // calls of its own until the origins are done.
                let (flag, _) = engine.recv(COMM_WORLD, 0, 32, None).unwrap();
                assert_eq!(flag.as_ref(), b"done");
                assert_eq!(read_ints(&engine.win_region(win).unwrap()[..4]), vec![12]);
            }
            _ => {}
        }
    } else if size == 2 {
        if rank == 0 {
            engine.win_lock(win, 1).unwrap();
            engine.win_put(win, 1, 4, &ints(&[42])).unwrap();
            engine.win_flush(win, 1).unwrap();
            let get = engine.win_get(win, 1, 4, 4).unwrap();
            engine.win_flush(win, 1).unwrap();
            let data = engine.win_get_take(win, get).unwrap();
            assert_eq!(read_ints(data.as_ref()), vec![42]);
            engine.recycle(data);
            engine.win_unlock(win, 1).unwrap();
            engine
                .send(COMM_WORLD, 1, 33, b"done", SendMode::Standard)
                .unwrap();
        } else {
            let (flag, _) = engine.recv(COMM_WORLD, 0, 33, None).unwrap();
            assert_eq!(flag.as_ref(), b"done");
            assert_eq!(read_ints(&engine.win_region(win).unwrap()[4..8]), vec![42]);
        }
    }
    engine.win_free(win).unwrap();
}

/// `win_free` refuses an epoch that was never synced; `finalize`
/// refuses open windows — then both succeed after cleanup.
fn teardown_refusals(engine: &mut Engine) {
    let rank = engine.world_rank();
    let win = engine.win_create(COMM_WORLD, vec![0u8; 8]).unwrap();
    engine.win_fence(win).unwrap();
    if rank == 0 {
        engine
            .win_put(win, 1 % engine.world_size(), 0, &[1, 2])
            .unwrap();
        let refused = engine.win_free(win).unwrap_err();
        assert!(refused.message.contains("un-synced"), "{}", refused.message);
    }
    let refused = engine.finalize().unwrap_err();
    assert!(
        refused.message.contains("open RMA windows") || refused.message.contains("un-synced"),
        "{}",
        refused.message
    );
    engine.win_fence(win).unwrap();
    engine.win_free(win).unwrap();
}

fn full_suite(engine: &mut Engine) {
    put_invisible_until_fence(engine);
    concurrent_origins_are_deterministic(engine);
    get_resolves_at_fence(engine);
    passive_target_flush_exposes_and_lock_serializes(engine);
    teardown_refusals(engine);
}

#[test]
fn put_stays_invisible_until_fence_on_every_device() {
    for device in DEVICES {
        for size in [2usize, 3, 4] {
            Universe::run(size, device, put_invisible_until_fence).unwrap();
        }
    }
}

#[test]
fn concurrent_origins_apply_in_rank_order_on_every_device() {
    for device in DEVICES {
        for size in [2usize, 3, 4] {
            Universe::run(size, device, concurrent_origins_are_deterministic).unwrap();
        }
    }
}

#[test]
fn gets_resolve_at_the_fence_on_every_device() {
    for device in DEVICES {
        for size in [2usize, 3, 4] {
            Universe::run(size, device, get_resolves_at_fence).unwrap();
        }
    }
}

#[test]
fn passive_target_epochs_hold_on_every_device() {
    for device in DEVICES {
        for size in [2usize, 3, 4] {
            Universe::run(
                size,
                device,
                passive_target_flush_exposes_and_lock_serializes,
            )
            .unwrap();
        }
    }
}

#[test]
fn teardown_refusals_hold_on_every_device() {
    for device in DEVICES {
        for size in [2usize, 3] {
            Universe::run(size, device, teardown_refusals).unwrap();
        }
    }
}

#[test]
fn epoch_semantics_hold_on_hybrid_fabrics() {
    for (size, per_node) in [(4usize, 2usize), (4, 1), (6, 3)] {
        let nodes = NodeMap::from_assignment((0..size).map(|r| r / per_node).collect());
        let mut config = UniverseConfig::new(size, DeviceKind::Hybrid);
        config.fabric.nodes = nodes;
        Universe::run_with_config(config, full_suite).unwrap();
    }
}

/// Tiny eager threshold: even the 17-byte RMA headers ride the
/// rendezvous protocol, so operations and fence markers must survive
/// out-of-band grants.
#[test]
fn epoch_semantics_survive_an_all_rendezvous_regime() {
    for size in [2usize, 3] {
        let mut config = UniverseConfig::new(size, DeviceKind::ShmFast);
        config.eager_threshold = 2;
        Universe::run_with_config(config, full_suite).unwrap();
    }
}

/// Large payloads over rendezvous: a put far above the eager limit
/// arrives whole before application, and a get reply can trail its
/// flush-ack without being lost.
#[test]
fn large_transfers_ride_the_rendezvous_path() {
    let mut config = UniverseConfig::new(2, DeviceKind::ShmFast);
    config.eager_threshold = 1024;
    Universe::run_with_config(config, |engine| {
        let rank = engine.world_rank();
        let len = 200_000usize;
        let win = engine.win_create(COMM_WORLD, vec![0u8; len]).unwrap();
        engine.win_fence(win).unwrap();
        if rank == 0 {
            let payload: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            engine.win_put(win, 1, 0, &payload).unwrap();
        }
        engine.win_fence(win).unwrap();
        if rank == 1 {
            let region = engine.win_region(win).unwrap();
            assert!((0..len).all(|i| region[i] == (i * 31 % 251) as u8));
        }
        // Passive-target get of the full region: the rendezvous reply
        // outlives the flush ack.
        if rank == 1 {
            engine.win_lock(win, 0).unwrap();
            let get = engine.win_get(win, 0, 0, len).unwrap();
            engine.win_unlock(win, 0).unwrap();
            let data = engine.win_get_take(win, get).unwrap();
            assert_eq!(data.len(), len);
            assert_eq!(data.as_ref(), vec![0u8; len]);
            engine.recycle(data);
        } else {
            // Keep the target's progress engine turning until the peer
            // reports completion.
            let (flag, _) = engine.recv(COMM_WORLD, 1, 55, None).unwrap();
            assert_eq!(flag.as_ref(), b"ok");
        }
        if rank == 1 {
            engine
                .send(COMM_WORLD, 0, 55, b"ok", SendMode::Standard)
                .unwrap();
        }
        engine.win_free(win).unwrap();
    })
    .unwrap();
}

/// Run `f` on two `ShmFast` ranks, failing instead of hanging when the
/// job is not done by a deadline.
fn within_deadline(f: impl Fn(&mut Engine) + Send + Sync + 'static) {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || done.send(Universe::run(2, DeviceKind::ShmFast, f)));
    finished
        .recv_timeout(Duration::from_secs(60))
        .expect("the job hung")
        .unwrap();
}

/// `bad_origin` puts (or gets) 4 bytes at offset 100 of its peer's
/// 8-byte window. The target skips the operation and its fence fails
/// once with `Buffer`; a bad get is still answered, so its origin's
/// fence and the take fail too, while a bad put's origin sees `Ok`.
/// The next epoch then works on both ranks.
fn out_of_range_fence_epoch(engine: &mut Engine, bad_origin: usize, get: bool) {
    let rank = engine.world_rank();
    let target = 1 - bad_origin;
    let win = engine.win_create(COMM_WORLD, vec![0u8; 8]).unwrap();
    engine.win_fence(win).unwrap();
    let mut pending = None;
    if rank == bad_origin && get {
        pending = Some(engine.win_get(win, target, 100, 4).unwrap());
    } else if rank == bad_origin {
        engine.win_put(win, target, 100, &[1, 2, 3, 4]).unwrap();
    }
    let fenced = engine.win_fence(win);
    if rank == target || get {
        assert_eq!(fenced.unwrap_err().class, ErrorClass::Buffer, "rank {rank}");
    } else {
        fenced.unwrap();
    }
    if let Some(pending) = pending {
        let taken = engine.win_get_take(win, pending);
        assert_eq!(taken.unwrap_err().class, ErrorClass::Buffer);
    }
    if rank == bad_origin {
        engine.win_put(win, target, 4, &[9; 4]).unwrap();
    }
    engine.win_fence(win).unwrap();
    if rank == target {
        assert_eq!(engine.win_region(win).unwrap(), &[0, 0, 0, 0, 9, 9, 9, 9]);
    }
    engine.win_free(win).unwrap();
    engine.finalize().unwrap();
}

#[test]
fn an_out_of_range_put_fails_one_fence_and_the_next_epoch_works() {
    for bad_origin in [0, 1] {
        within_deadline(move |engine| out_of_range_fence_epoch(engine, bad_origin, false));
    }
}

#[test]
fn an_out_of_range_get_fails_both_fences_and_the_next_epoch_works() {
    for bad_origin in [0, 1] {
        within_deadline(move |engine| out_of_range_fence_epoch(engine, bad_origin, true));
    }
}

/// Passive target: the origin's unlock reports its out-of-range put
/// through the flush-ack, the lock is released all the same, and the
/// next passive epoch applies normally.
#[test]
fn an_out_of_range_passive_put_fails_its_unlock_and_the_lock_is_released() {
    for bad_origin in [0, 1] {
        within_deadline(move |engine| {
            let rank = engine.world_rank();
            let target = 1 - bad_origin;
            let win = engine.win_create(COMM_WORLD, vec![0u8; 8]).unwrap();
            if rank == bad_origin {
                engine.win_lock(win, target).unwrap();
                engine.win_put(win, target, 100, &[1; 4]).unwrap();
                let unlocked = engine.win_unlock(win, target);
                assert_eq!(unlocked.unwrap_err().class, ErrorClass::Buffer);
                engine.win_lock(win, target).unwrap();
                engine.win_put(win, target, 0, &[7; 4]).unwrap();
                engine.win_unlock(win, target).unwrap();
                engine
                    .send(COMM_WORLD, target as i32, 5, b"done", SendMode::Standard)
                    .unwrap();
            } else {
                engine.recv(COMM_WORLD, bad_origin as i32, 5, None).unwrap();
                assert_eq!(engine.win_region(win).unwrap(), &[7, 7, 7, 7, 0, 0, 0, 0]);
            }
            engine.win_free(win).unwrap();
            engine.finalize().unwrap();
        });
    }
}

/// The put+fence halo on a 2×2 periodic torus, counted in frames: each
/// of 4 ranks puts one block into each of its peers' neighbour slots
/// (slots 0 and 1 of `rank ^ 2`, slots 2 and 3 of `rank ^ 1`), then
/// fences. Per epoch a rank sends one message per put and a marker to
/// every rank, itself included: 8 frames at 64 KiB. At 256 KiB, above
/// the eager limit, each put is an announcement and a data frame, and
/// the rank grants its 4 incoming puts as a target: 16 frames. A
/// grant can fall into a neighbouring epoch when a faster peer's next
/// announcement arrives inside a slower rank's fence, so only the sum
/// over whole epochs, counted from before the first put to the end of
/// the last fence, is exact.
#[test]
fn a_torus_fence_epoch_sends_one_message_per_put() {
    const EPOCHS: i64 = 3;
    for (block, frames_per_epoch) in [(64 << 10, 8), (256 << 10, 16)] {
        let config = UniverseConfig {
            eager_threshold: DEFAULT_EAGER_THRESHOLD,
            trace: TraceConfig::counters(),
            ..UniverseConfig::new(4, DeviceKind::ShmFast)
        };
        Universe::run_with_config(config, move |engine| {
            let rank = engine.world_rank();
            let frames_sent = |engine: &Engine| {
                let snapshot = engine.metrics_snapshot();
                snapshot.pvar("transport.frames_sent").expect("counters on")
            };
            let win = engine.win_create(COMM_WORLD, vec![0u8; 4 * block]).unwrap();
            let before = frames_sent(engine);
            for epoch in 0..EPOCHS {
                let stamp = vec![epoch as u8 + 1; block];
                for slot in 0..4 {
                    let target = if slot < 2 { rank ^ 2 } else { rank ^ 1 };
                    engine.win_put(win, target, slot * block, &stamp).unwrap();
                }
                engine.win_fence(win).unwrap();
            }
            let sent = frames_sent(engine) - before;
            assert_eq!(
                sent,
                EPOCHS * frames_per_epoch,
                "rank {rank}, {block} B blocks"
            );
            let region = engine.win_region(win).unwrap();
            assert!(region.iter().all(|&b| b == EPOCHS as u8));
            engine.win_free(win).unwrap();
        })
        .unwrap();
    }
}
