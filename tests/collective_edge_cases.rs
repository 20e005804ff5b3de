//! Edge-case tests for the collective layer: zero-length contributions to
//! gather/scatter/allgather/alltoall and zero-count reductions, on all
//! three transport devices (`shm-fast`, `shm-p4`, `tcp`). These run
//! through the classic paper-faithful surface, so they cover the whole
//! stack: wrapper packing, the simulated JNI boundary, and the engine's
//! tuned algorithm selection.

use std::borrow::Cow;

use mpijava::{Datatype, Op};
use mpijava_suite::test_runtimes;

#[test]
fn gatherv_with_zero_length_contributions() {
    for (label, runtime) in test_runtimes(4) {
        runtime
            .run(|mpi| {
                let world = mpi.comm_world();
                let rank = world.rank()?;
                let size = world.size()?;
                // Even ranks contribute nothing; odd ranks contribute `rank` ints.
                let send: Vec<i32> = if rank % 2 == 0 {
                    Vec::new()
                } else {
                    vec![rank as i32; rank]
                };
                let counts: Vec<usize> =
                    (0..size).map(|r| if r % 2 == 0 { 0 } else { r }).collect();
                let displs: Vec<usize> = counts
                    .iter()
                    .scan(0usize, |acc, &c| {
                        let d = *acc;
                        *acc += c;
                        Some(d)
                    })
                    .collect();
                let total: usize = counts.iter().sum();
                let mut recv = vec![-1i32; total];
                world.gatherv(
                    &send,
                    0,
                    send.len(),
                    &Datatype::int(),
                    &mut recv,
                    0,
                    &counts,
                    &displs,
                    &Datatype::int(),
                    1,
                )?;
                if rank == 1 {
                    for r in 0..size {
                        let at = displs[r];
                        assert_eq!(&recv[at..at + counts[r]], vec![r as i32; counts[r]]);
                    }
                }
                Ok(())
            })
            .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

#[test]
fn scatterv_with_zero_length_chunks() {
    for (label, runtime) in test_runtimes(4) {
        runtime
            .run(|mpi| {
                let world = mpi.comm_world();
                let rank = world.rank()?;
                let size = world.size()?;
                let counts: Vec<usize> =
                    (0..size).map(|r| if r == 2 { 0 } else { r + 1 }).collect();
                let displs: Vec<usize> = counts
                    .iter()
                    .scan(0usize, |acc, &c| {
                        let d = *acc;
                        *acc += c;
                        Some(d)
                    })
                    .collect();
                let total: usize = counts.iter().sum();
                let send: Vec<i32> = (0..total as i32).collect();
                let mut recv = vec![-7i32; counts[rank]];
                world.scatterv(
                    &send,
                    0,
                    &counts,
                    &displs,
                    &Datatype::int(),
                    &mut recv,
                    0,
                    counts[rank],
                    &Datatype::int(),
                    0,
                )?;
                let expect: Vec<i32> =
                    (displs[rank] as i32..(displs[rank] + counts[rank]) as i32).collect();
                assert_eq!(recv, expect);
                Ok(())
            })
            .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

#[test]
fn allgatherv_with_zero_length_contributions() {
    for (label, runtime) in test_runtimes(3) {
        runtime
            .run(|mpi| {
                let world = mpi.comm_world();
                let rank = world.rank()?;
                let size = world.size()?;
                let send: Vec<i32> = vec![rank as i32 * 100; rank]; // rank 0 sends nothing
                let counts: Vec<usize> = (0..size).collect();
                let displs: Vec<usize> = counts
                    .iter()
                    .scan(0usize, |acc, &c| {
                        let d = *acc;
                        *acc += c;
                        Some(d)
                    })
                    .collect();
                let total: usize = counts.iter().sum();
                let mut recv = vec![-1i32; total];
                world.allgatherv(
                    &send,
                    0,
                    send.len(),
                    &Datatype::int(),
                    &mut recv,
                    0,
                    &counts,
                    &displs,
                    &Datatype::int(),
                )?;
                for r in 0..size {
                    assert_eq!(
                        &recv[displs[r]..displs[r] + counts[r]],
                        vec![r as i32 * 100; r]
                    );
                }
                Ok(())
            })
            .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

#[test]
fn alltoallv_with_zero_length_chunks() {
    for (label, runtime) in test_runtimes(3) {
        runtime
            .run(|mpi| {
                let world = mpi.comm_world();
                let rank = world.rank()?;
                let size = world.size()?;
                // Rank r sends (r + d) % 2 ints to rank d: half the chunks are empty.
                let scounts: Vec<usize> = (0..size).map(|d| (rank + d) % 2).collect();
                let sdispls: Vec<usize> = scounts
                    .iter()
                    .scan(0usize, |acc, &c| {
                        let d = *acc;
                        *acc += c;
                        Some(d)
                    })
                    .collect();
                let stotal: usize = scounts.iter().sum();
                let send = vec![rank as i32; stotal];
                let rcounts: Vec<usize> = (0..size).map(|s| (s + rank) % 2).collect();
                let rdispls: Vec<usize> = rcounts
                    .iter()
                    .scan(0usize, |acc, &c| {
                        let d = *acc;
                        *acc += c;
                        Some(d)
                    })
                    .collect();
                let rtotal: usize = rcounts.iter().sum();
                let mut recv = vec![-1i32; rtotal];
                world.alltoallv(
                    &send,
                    0,
                    &scounts,
                    &sdispls,
                    &Datatype::int(),
                    &mut recv,
                    0,
                    &rcounts,
                    &rdispls,
                    &Datatype::int(),
                )?;
                for s in 0..size {
                    assert_eq!(
                        &recv[rdispls[s]..rdispls[s] + rcounts[s]],
                        vec![s as i32; rcounts[s]]
                    );
                }
                Ok(())
            })
            .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

#[test]
fn zero_count_reduce_and_allreduce() {
    for (label, runtime) in test_runtimes(3) {
        runtime
            .run(|mpi| {
                let world = mpi.comm_world();
                let send: [i32; 0] = [];
                let mut recv: [i32; 0] = [];
                world.reduce(&send, 0, &mut recv, 0, 0, &Datatype::int(), &Op::sum(), 1)?;
                world.allreduce(&send, 0, &mut recv, 0, 0, &Datatype::int(), &Op::max())?;
                // A zero-element scan is legal too.
                world.scan(&send, 0, &mut recv, 0, 0, &Datatype::int(), &Op::sum())?;
                Ok(())
            })
            .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

/// Element counts come from the caller: a count whose byte size (or, for
/// reduce_scatter, whose sum) overflows `usize` must be rejected as
/// `ErrorClass::Count` — it used to wrap to a small `need` in release
/// builds (passing validation) and panic in debug builds. Checked at the
/// engine boundary, where the unchecked arithmetic lived, on the
/// transient and the `*_init` paths; the rejected calls touch no wire,
/// so the communicator stays usable.
#[test]
fn overflowing_element_counts_are_count_errors() {
    use mpi_native::comm::COMM_WORLD;
    use mpi_native::{ErrorClass, PredefinedOp, PrimitiveKind, Universe};
    const HUGE: usize = 1 << 62;
    for device in [
        mpijava::DeviceKind::ShmFast,
        mpijava::DeviceKind::ShmP4,
        mpijava::DeviceKind::Tcp,
    ] {
        Universe::run(2, device, |engine| {
            let sum = mpi_native::Op::Predefined(PredefinedOp::Sum);
            let int = PrimitiveKind::Int;
            let send = [0u8; 16];
            let class = |r: Result<(), mpi_native::MpiError>| r.unwrap_err().class;

            let r = engine.reduce(COMM_WORLD, 0, &send, int, HUGE, &sum);
            assert_eq!(class(r.map(drop)), ErrorClass::Count, "reduce");
            let r = engine.allreduce(COMM_WORLD, &send, int, HUGE, &sum);
            assert_eq!(class(r.map(drop)), ErrorClass::Count, "allreduce");
            let r = engine.iallreduce(COMM_WORLD, &send, int, HUGE, &sum);
            assert_eq!(class(r.map(drop)), ErrorClass::Count, "iallreduce");
            let r = engine.scan(COMM_WORLD, &send, int, HUGE, &sum);
            assert_eq!(class(r.map(drop)), ErrorClass::Count, "scan");

            // reduce_scatter: the product overflows, the sum overflows,
            // and (1-byte elements) the saturated sum exceeds any buffer.
            for (counts, kind) in [
                ([HUGE, 0], int),
                ([usize::MAX, 1], int),
                ([usize::MAX, 1], PrimitiveKind::Byte),
            ] {
                let r = engine.reduce_scatter(COMM_WORLD, &send, &counts, kind, &sum);
                assert_eq!(class(r.map(drop)), ErrorClass::Count, "{counts:?}");
            }

            let r = engine.reduce_init(COMM_WORLD, 0, int, HUGE, &sum);
            assert_eq!(class(r.map(drop)), ErrorClass::Count, "reduce_init");
            let r = engine.allreduce_init(COMM_WORLD, int, HUGE, &sum);
            assert_eq!(class(r.map(drop)), ErrorClass::Count, "allreduce_init");

            // A persistent start with a short buffer reports the same
            // class from the same routine as the transient form.
            let op = engine.allreduce_init(COMM_WORLD, int, 8, &sum).unwrap();
            let r = engine.start(op, Cow::Borrowed(&send));
            assert_eq!(class(r), ErrorClass::Count, "short persistent start");
            assert_eq!(
                engine.persistent_active(),
                0,
                "a failed start leaves it inactive"
            );
            engine.request_free(op).unwrap();

            engine.barrier(COMM_WORLD).unwrap();
        })
        .unwrap_or_else(|e| panic!("{device:?}: {e}"));
    }
}
