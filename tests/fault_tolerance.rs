//! Fault tolerance over the spool transport (and fault-injected shm).
//!
//! The scenarios the engine must survive *deterministically*:
//!
//! * a rank dies mid-collective → every survivor's blocking call errors
//!   with [`ErrorClass::RankFailed`] within two lease windows, instead
//!   of hanging — on the spool device (real death: the heartbeat lease
//!   goes stale) and on shm with an injected kill (the [`FaultPlan`]
//!   records the death and peers observe it after one lease);
//! * survivors can still `finalize()` cleanly with operations
//!   outstanding (the abort-outstanding path);
//! * a late-joining rank attaches to a persistent spool root and drains
//!   the frames that accumulated while it was away;
//! * a checkpointed rank restarts with its allocator counters past
//!   every value it ever handed out, and receives frames spooled for it
//!   across the restart;
//! * injected drop/delay faults hit exactly the named frame.

use std::time::{Duration, Instant};

use mpi_native::coll::{CollDesc, Payload};
use mpi_native::comm::COMM_WORLD;
use mpi_native::ops::{Op, PredefinedOp};
use mpi_native::types::SendMode;
use mpi_native::{ErrorClass, PrimitiveKind, Universe, UniverseConfig};
use mpi_transport::spool::SpoolDevice;
use mpi_transport::{DeviceKind, FaultPlan};
use mpijava::{Datatype, MpiRuntime};

/// Short lease so the detection tests run fast; the 2× bound below is
/// the acceptance criterion, not tuned slack.
const LEASE: Duration = Duration::from_millis(300);

/// A throwaway persistent spool root (unique per test, cleaned up by
/// the test itself).
fn scratch_root(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("mpijava-ft-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

#[test]
fn a_killed_rank_surfaces_rank_failed_on_every_spool_survivor() {
    let mut config = UniverseConfig::new(3, DeviceKind::Spool);
    config.fabric.lease = LEASE;
    let results = Universe::run_with_config(config, |engine| {
        let rank = engine.world_rank();
        if rank == 2 {
            // Die without finalizing: the endpoint drops and the lease
            // goes stale — the real-crash shape, as seen by peers.
            return None;
        }
        let start = Instant::now();
        let err = engine
            .allreduce(
                COMM_WORLD,
                &(rank as i64).to_le_bytes(),
                PrimitiveKind::Long,
                1,
                &Op::Predefined(PredefinedOp::Sum),
            )
            .expect_err("the collective names a dead rank");
        let elapsed = start.elapsed();
        assert_eq!(err.class, ErrorClass::RankFailed, "{err}");
        assert!(
            err.message.contains('2'),
            "the error names the dead rank: {err}"
        );
        assert!(
            elapsed < 2 * LEASE,
            "detected in {elapsed:?}, budget {:?}",
            2 * LEASE
        );
        assert_eq!(engine.failed_ranks(), vec![2]);
        // Survivors shut down cleanly even though the collective died.
        engine.finalize().expect("finalize after failure");
        Some(elapsed)
    })
    .unwrap();
    assert!(results[0].is_some() && results[1].is_some());
}

#[test]
fn a_fault_injected_kill_behaves_the_same_over_shm() {
    let plan = FaultPlan::parse("kill:2@1").unwrap();
    let mut config = UniverseConfig::new(3, DeviceKind::ShmFast);
    config.fabric.lease = LEASE;
    config.fabric.faults = plan;
    Universe::run_with_config(config, |engine| {
        let rank = engine.world_rank();
        if rank == 2 {
            // The victim's very first send hits the injected kill.
            let err = engine
                .send(COMM_WORLD, 0, 1, b"doomed", SendMode::Standard)
                .expect_err("the injected kill fires on the first send");
            assert_eq!(err.class, ErrorClass::RankFailed, "{err}");
            return;
        }
        let start = Instant::now();
        let err = engine
            .allreduce(
                COMM_WORLD,
                &(rank as i64).to_le_bytes(),
                PrimitiveKind::Long,
                1,
                &Op::Predefined(PredefinedOp::Sum),
            )
            .expect_err("the collective names the killed rank");
        assert_eq!(err.class, ErrorClass::RankFailed, "{err}");
        assert!(
            start.elapsed() < 2 * LEASE,
            "detected in {:?}, budget {:?}",
            start.elapsed(),
            2 * LEASE
        );
        engine.finalize().expect("finalize after failure");
    })
    .unwrap();
}

#[test]
fn finalize_aborts_outstanding_operations_after_a_death() {
    let mut config = UniverseConfig::new(3, DeviceKind::Spool);
    config.fabric.lease = LEASE;
    Universe::run_with_config(config, |engine| {
        let rank = engine.world_rank();
        if rank == 2 {
            return;
        }
        // An irecv from the soon-dead rank stays outstanding across the
        // failed collective and must not wedge finalize.
        let req = engine.irecv(COMM_WORLD, 2, 77, None).unwrap();
        // So does a collective the dead rank never joins.
        let barrier = engine
            .coll_launch(COMM_WORLD, &CollDesc::Barrier, Payload::Bytes(&[]))
            .unwrap();
        let err = engine
            .allreduce(
                COMM_WORLD,
                &1i64.to_le_bytes(),
                PrimitiveKind::Long,
                1,
                &Op::Predefined(PredefinedOp::Sum),
            )
            .expect_err("allreduce with a dead member");
        assert_eq!(err.class, ErrorClass::RankFailed);
        engine.finalize().expect("finalize aborts the leftovers");
        // The aborted requests complete with the failure, never a hang,
        // whatever their kind.
        for id in [req, barrier] {
            assert_eq!(engine.wait(id).unwrap_err().class, ErrorClass::RankFailed);
        }
    })
    .unwrap();
}

#[test]
fn a_late_joining_rank_attaches_and_drains_the_spool() {
    let root = scratch_root("latejoin");
    let mut config = UniverseConfig::new(2, DeviceKind::Spool);
    config.fabric.spool_dir = Some(root.clone());
    config.fabric.lease = LEASE;
    Universe::run_with_config(config, |engine| {
        if engine.world_rank() == 0 {
            // Rank 1 never picks this up in-job; it stays spooled.
            engine
                .send(COMM_WORLD, 1, 7, b"kept for later", SendMode::Standard)
                .unwrap();
        }
    })
    .unwrap();

    // The job is gone; the frame survives on disk. A fresh process
    // (here: a fresh endpoint + engine) re-attaches and drains it.
    let endpoint = SpoolDevice::attach(&root, 1, 2, LEASE).unwrap();
    let mut engine = Universe::restore(Box::new(endpoint)).unwrap();
    let (data, status) = engine.recv(COMM_WORLD, 0, 7, None).unwrap();
    assert_eq!(&data[..], b"kept for later");
    assert_eq!(status.source, 0);
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn checkpoint_restart_recovers_counters_and_spooled_frames() {
    let root = scratch_root("checkpoint");
    let mut config = UniverseConfig::new(2, DeviceKind::Spool);
    config.fabric.spool_dir = Some(root.clone());
    config.fabric.lease = LEASE;
    Universe::run_with_config(config, |engine| {
        let rank = engine.world_rank();
        // Advance rank 1's token allocator past its initial value, then
        // checkpoint, then leave one undelivered frame in its inbox.
        if rank == 1 {
            let (data, _) = engine.recv(COMM_WORLD, 0, 3, None).unwrap();
            assert_eq!(&data[..], b"before");
            engine
                .send(COMM_WORLD, 0, 4, b"ack", SendMode::Standard)
                .unwrap();
            let record = Universe::checkpoint(engine).unwrap();
            assert!(record.is_file());
        } else {
            engine
                .send(COMM_WORLD, 1, 3, b"before", SendMode::Standard)
                .unwrap();
            let _ = engine.recv(COMM_WORLD, 1, 4, None).unwrap();
            // Sent after the peer's checkpoint or not — immaterial: the
            // spool keeps it until rank 1 (restarted) claims it.
            engine
                .send(COMM_WORLD, 1, 9, b"across the restart", SendMode::Standard)
                .unwrap();
        }
    })
    .unwrap();

    let endpoint = SpoolDevice::attach(&root, 1, 2, LEASE).unwrap();
    let mut engine = Universe::restore(Box::new(endpoint)).unwrap();
    let (data, _) = engine.recv(COMM_WORLD, 0, 9, None).unwrap();
    assert_eq!(&data[..], b"across the restart");
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn an_rma_fence_with_a_dead_rank_errors_instead_of_hanging() {
    let mut config = UniverseConfig::new(3, DeviceKind::Spool);
    config.fabric.lease = LEASE;
    Universe::run_with_config(config, |engine| {
        let rank = engine.world_rank();
        let win = engine.win_create(COMM_WORLD, vec![0u8; 64]).unwrap();
        engine.win_fence(win).unwrap(); // epoch open: everyone alive
        if rank == 2 {
            return; // dies holding the epoch
        }
        let err = engine
            .win_fence(win)
            .expect_err("the closing fence waits on a dead rank");
        assert_eq!(err.class, ErrorClass::RankFailed, "{err}");
        engine.finalize().expect("finalize after failure");
    })
    .unwrap();
}

#[test]
fn injected_drops_and_delays_hit_exactly_the_named_frame() {
    // Drop: the first frame 0→1 vanishes; the second arrives and is the
    // one the receive matches.
    MpiRuntime::new(2)
        .faults(FaultPlan::parse("drop:0->1@1").unwrap())
        .run(|mpi| {
            let world = mpi.comm_world();
            if world.rank()? == 0 {
                world.send(b"lost", 0, 4, &Datatype::byte(), 1, 4)?;
                world.send(b"kept", 0, 4, &Datatype::byte(), 1, 4)?;
            } else {
                let mut buf = [0u8; 4];
                world.recv(&mut buf, 0, 4, &Datatype::byte(), 0, 4)?;
                assert_eq!(&buf, b"kept");
            }
            mpi.finalize()?;
            Ok(())
        })
        .unwrap();

    // Delay: the first frame 0→1 is held for 150 ms before delivery.
    let hold = Duration::from_millis(150);
    MpiRuntime::new(2)
        .faults(FaultPlan::parse("delay:0->1@1:150ms").unwrap())
        .run(|mpi| {
            let world = mpi.comm_world();
            if world.rank()? == 0 {
                world.send(b"slow", 0, 4, &Datatype::byte(), 1, 5)?;
            } else {
                let start = Instant::now();
                let mut buf = [0u8; 4];
                world.recv(&mut buf, 0, 4, &Datatype::byte(), 0, 5)?;
                // The receiver's clock starts a hair after the sender's,
                // so allow half the injected delay as scheduling skew.
                assert!(
                    start.elapsed() >= hold / 2,
                    "arrived in {:?}, injected delay {hold:?}",
                    start.elapsed()
                );
                assert_eq!(&buf, b"slow");
            }
            mpi.finalize()?;
            Ok(())
        })
        .unwrap();
}
