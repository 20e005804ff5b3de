//! Background-progress-thread integration suite: with
//! `MpiRuntime::progress(ProgressMode::Thread)` (or
//! `MPIJAVA_PROGRESS=thread`), every rank owns a polling thread that
//! drives its engine whenever the application thread is busy computing.
//!
//! The headline regression here is one-sided passive-target RMA: a
//! `lock`/`put`/`unlock` epoch must complete while the *target* rank is
//! compute-bound and makes no MPI calls at all — without the thread,
//! the origin would stall until the target next entered the library.

use std::time::{Duration, Instant};

use mpijava::rs::Communicator;
use mpijava::{DeviceKind, MpiRuntime, NodeMap, Op, ProgressMode};

/// The two fabrics the RMA regression pins: pure shared memory and the
/// two-node hybrid (where the lock request crosses the inter-node
/// bridge and the grant still must come back unprompted).
fn thread_runtimes(size: usize) -> Vec<(&'static str, MpiRuntime)> {
    vec![
        (
            "SM/shm-fast",
            MpiRuntime::new(size).progress(ProgressMode::Thread),
        ),
        (
            "MM/hybrid-2node",
            MpiRuntime::new(size)
                .device(DeviceKind::Hybrid)
                .nodes(NodeMap::split(size, 2))
                .progress(ProgressMode::Thread),
        ),
    ]
}

/// Passive-target RMA completes while the target computes: the target
/// sleeps ~900 ms without touching MPI, and the origin's whole
/// `lock`/`put`/`unlock` epoch must finish well inside that window —
/// the grant and the applied put are driven by the target's progress
/// thread alone.
#[test]
fn passive_target_rma_completes_while_the_target_computes() {
    for (name, runtime) in thread_runtimes(2) {
        runtime
            .run(|mpi| {
                let world = mpi.comm_world();
                let rank = world.rank()?;
                let mut region = vec![0i32; 16];
                let win = world.win_create(&mut region)?;
                world.barrier()?;
                if rank == 0 {
                    let start = Instant::now();
                    win.lock(1)?;
                    win.put(1, 0, &[42i32; 16])?;
                    let mut win = win;
                    win.unlock(1)?;
                    let elapsed = start.elapsed();
                    assert!(
                        elapsed < Duration::from_millis(600),
                        "passive-target epoch took {elapsed:?} against a \
                         compute-bound target — the progress thread is not \
                         granting locks"
                    );
                    world.barrier()?;
                    win.free()?;
                } else {
                    // Compute-bound: no MPI calls during the epoch.
                    std::thread::sleep(Duration::from_millis(900));
                    // The progress thread had the engine to itself for
                    // the whole sleep — it must have been polling.
                    assert!(mpi.engine_stats().progress_thread_polls > 0);
                    world.barrier()?;
                    win.free()?;
                    assert_eq!(region, vec![42i32; 16]);
                }
                mpi.finalize()
            })
            .unwrap_or_else(|e| panic!("{name}: {e:?}"));
    }
}

/// A nonblocking collective completes in the background while every
/// rank computes: after the compute phase the *first* completion probe
/// already reports done — no manual progress calls were needed during
/// the overlap window.
#[test]
fn iallreduce_completes_in_the_background_with_no_manual_progress() {
    MpiRuntime::new(4)
        .progress(ProgressMode::Thread)
        .run(|mpi| {
            let world = mpi.comm_world();
            let rank = world.rank()?;
            let send = vec![rank as i32 + 1; 1024];
            let mut recv = vec![0i32; 1024];
            {
                let mut req = world.iall_reduce(&send, &mut recv, Op::sum())?;
                // "Compute" without a single test() call.
                std::thread::sleep(Duration::from_millis(150));
                assert!(
                    req.test()?.is_some(),
                    "collective should have completed during the compute phase"
                );
            }
            assert_eq!(recv, vec![10i32; 1024]); // 1 + 2 + 3 + 4
            assert!(mpi.engine_stats().progress_thread_polls > 0);
            mpi.finalize()
        })
        .unwrap();
}

/// The whole surface — blocking collectives, point-to-point, and
/// persistent operations — behaves identically under the progress
/// thread, on every device.
#[test]
fn full_surface_works_under_the_progress_thread_on_every_device() {
    for (name, runtime) in mpijava_suite::test_runtimes(4) {
        runtime
            .progress(ProgressMode::Thread)
            .run(|mpi| {
                let world = mpi.comm_world();
                let rank = world.rank()?;
                let size = world.size()?;

                // Blocking collective.
                let send = vec![rank as i32 + 1; 16];
                let mut recv = vec![0i32; 16];
                world.all_reduce(&send, &mut recv, Op::sum())?;
                assert_eq!(recv, vec![10i32; 16]);

                // Point-to-point ring.
                let next = ((rank + 1) % size) as i32;
                let prev = ((rank + size - 1) % size) as i32;
                let mut from_prev = vec![0i32; 4];
                world.sendrecv(&[rank as i32; 4], next, 1, &mut from_prev, prev, 1)?;
                assert_eq!(from_prev, vec![prev; 4]);

                // Persistent collective, two iterations.
                let mut preduce = vec![0i32; 16];
                {
                    let mut req = world.all_reduce_init(&send, &mut preduce, Op::sum())?;
                    for _ in 0..2 {
                        req.start()?;
                        req.wait()?;
                    }
                }
                assert_eq!(preduce, vec![10i32; 16]);

                world.barrier()?;
                // Give the progress thread an idle window (the engine
                // lock is free while this rank "computes"), then check
                // it has been polling.
                std::thread::sleep(Duration::from_millis(10));
                assert!(mpi.engine_stats().progress_thread_polls > 0);
                mpi.finalize()
            })
            .unwrap_or_else(|e| panic!("{name}: {e:?}"));
    }
}

/// `init_thread` reports `THREAD_MULTIPLE` whatever was requested (the
/// engine is mutex-serialized, so full multithreading is always safe),
/// and the level is queryable afterwards.
#[test]
fn thread_level_is_always_multiple() {
    use mpi_native::{Universe, UniverseConfig};
    use mpijava::{JniConfig, MPIException, ThreadLevel, MPI};
    Universe::launch(UniverseConfig::new(2, DeviceKind::ShmFast), |engine| {
        let (mpi, provided) = MPI::init_thread(engine, JniConfig::default(), ThreadLevel::Funneled);
        assert_eq!(provided, ThreadLevel::Multiple);
        assert_eq!(mpi.query_thread(), ThreadLevel::Multiple);
        mpi.comm_world().barrier()?;
        mpi.finalize()
    })
    .unwrap_or_else(|e: MPIException| panic!("{e}"));
}
