//! Functionality tests, point-to-point category (paper §3.4: the IBM MPI
//! test suite translated to the binding). Each scenario runs under both
//! shared-memory devices and the TCP device, mirroring the paper running
//! the suite in SM and DM modes.

use mpijava::{Datatype, ErrorClass, MpiRuntime, Request, MPI};
use mpijava_suite::test_runtimes;

#[test]
fn blocking_send_recv_all_basic_types() {
    for (label, runtime) in test_runtimes(2) {
        runtime
            .run(|mpi| {
                let world = mpi.comm_world();
                let rank = world.rank()?;
                if rank == 0 {
                    world.send(&[1i8, -2, 3], 0, 3, &Datatype::byte(), 1, 1)?;
                    world.send(&[100i16, -200], 0, 2, &Datatype::short(), 1, 2)?;
                    world.send(&[1i32, 2, 3, 4], 0, 4, &Datatype::int(), 1, 3)?;
                    world.send(&[5i64, -6], 0, 2, &Datatype::long(), 1, 4)?;
                    world.send(&[1.5f32, 2.5], 0, 2, &Datatype::float(), 1, 5)?;
                    world.send(&[3.25f64], 0, 1, &Datatype::double(), 1, 6)?;
                    world.send(&[true, false, true], 0, 3, &Datatype::boolean(), 1, 7)?;
                    let chars: Vec<u16> = "ok".encode_utf16().collect();
                    world.send(&chars, 0, 2, &Datatype::char(), 1, 8)?;
                } else {
                    let mut b = [0i8; 3];
                    world.recv(&mut b, 0, 3, &Datatype::byte(), 0, 1)?;
                    assert_eq!(b, [1, -2, 3]);
                    let mut s = [0i16; 2];
                    world.recv(&mut s, 0, 2, &Datatype::short(), 0, 2)?;
                    assert_eq!(s, [100, -200]);
                    let mut i = [0i32; 4];
                    world.recv(&mut i, 0, 4, &Datatype::int(), 0, 3)?;
                    assert_eq!(i, [1, 2, 3, 4]);
                    let mut l = [0i64; 2];
                    world.recv(&mut l, 0, 2, &Datatype::long(), 0, 4)?;
                    assert_eq!(l, [5, -6]);
                    let mut f = [0f32; 2];
                    world.recv(&mut f, 0, 2, &Datatype::float(), 0, 5)?;
                    assert_eq!(f, [1.5, 2.5]);
                    let mut d = [0f64; 1];
                    world.recv(&mut d, 0, 1, &Datatype::double(), 0, 6)?;
                    assert_eq!(d, [3.25]);
                    let mut bo = [false; 3];
                    world.recv(&mut bo, 0, 3, &Datatype::boolean(), 0, 7)?;
                    assert_eq!(bo, [true, false, true]);
                    let mut c = [0u16; 2];
                    world.recv(&mut c, 0, 2, &Datatype::char(), 0, 8)?;
                    assert_eq!(String::from_utf16_lossy(&c), "ok");
                }
                Ok(())
            })
            .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

#[test]
fn send_modes_standard_buffered_synchronous_ready() {
    for (label, runtime) in test_runtimes(2) {
        runtime
            .run(|mpi| {
                let world = mpi.comm_world();
                let rank = world.rank()?;
                let data = [7i32, 8, 9];
                if rank == 0 {
                    world.send(&data, 0, 3, &Datatype::int(), 1, 1)?;
                    mpi.buffer_attach(1 << 16)?;
                    world.bsend(&data, 0, 3, &Datatype::int(), 1, 2)?;
                    mpi.buffer_detach()?;
                    world.ssend(&data, 0, 3, &Datatype::int(), 1, 3)?;
                    // For rsend, wait until the peer says its receive is posted.
                    let mut token = [0u8; 1];
                    world.recv(&mut token, 0, 1, &Datatype::byte(), 1, 90)?;
                    world.rsend(&data, 0, 3, &Datatype::int(), 1, 4)?;
                } else {
                    let mut buf = [0i32; 3];
                    for tag in 1..=3 {
                        world.recv(&mut buf, 0, 3, &Datatype::int(), 0, tag)?;
                        assert_eq!(buf, data);
                        buf = [0; 3];
                    }
                    let mut req = world.irecv(&mut buf, 0, 3, &Datatype::int(), 0, 4)?;
                    world.send(&[1u8], 0, 1, &Datatype::byte(), 0, 90)?;
                    req.wait()?;
                    drop(req);
                    assert_eq!(buf, data);
                }
                Ok(())
            })
            .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

#[test]
fn nonblocking_isend_irecv_wait_test() {
    for (label, runtime) in test_runtimes(2) {
        runtime
            .run(|mpi| {
                let world = mpi.comm_world();
                let rank = world.rank()?;
                if rank == 0 {
                    let data: Vec<f64> = (0..1000).map(|i| i as f64).collect();
                    let mut req = world.isend(&data, 0, 1000, &Datatype::double(), 1, 11)?;
                    let status = req.wait()?;
                    assert!(!status.test_cancelled());
                } else {
                    let mut buf = vec![0f64; 1000];
                    let mut req = world.irecv(&mut buf, 0, 1000, &Datatype::double(), 0, 11)?;
                    let status = req.wait()?;
                    drop(req);
                    assert_eq!(status.get_count(&Datatype::double()), Some(1000));
                    assert_eq!(buf[999], 999.0);
                }
                Ok(())
            })
            .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

#[test]
fn waitall_and_waitany_across_sources() {
    MpiRuntime::new(4)
        .run(|mpi| {
            let world = mpi.comm_world();
            let rank = world.rank()?;
            if rank == 0 {
                let mut bufs = vec![[0i32; 1]; 3];
                let mut iter = bufs.iter_mut();
                let mut requests: Vec<Request> = Vec::new();
                for src in 1..4 {
                    let buf = iter.next().unwrap();
                    requests.push(world.irecv(buf, 0, 1, &Datatype::int(), src, 5)?);
                }
                let statuses = Request::wait_all(&mut requests)?;
                assert_eq!(statuses.len(), 3);
                for (i, s) in statuses.iter().enumerate() {
                    assert_eq!(s.source(), (i + 1) as i32);
                }
                drop(requests);
                assert_eq!(bufs, vec![[10], [20], [30]]);
            } else {
                world.send(&[rank as i32 * 10], 0, 1, &Datatype::int(), 0, 5)?;
            }
            Ok(())
        })
        .unwrap();
}

#[test]
fn wildcards_any_source_any_tag() {
    MpiRuntime::new(3)
        .run(|mpi| {
            let world = mpi.comm_world();
            let rank = world.rank()?;
            if rank == 0 {
                let mut seen_sources = std::collections::HashSet::new();
                for _ in 0..2 {
                    let mut buf = [0i32; 1];
                    let status = world.recv(
                        &mut buf,
                        0,
                        1,
                        &Datatype::int(),
                        MPI::ANY_SOURCE,
                        MPI::ANY_TAG,
                    )?;
                    assert_eq!(buf[0], status.source() * 100 + status.tag());
                    seen_sources.insert(status.source());
                }
                assert_eq!(seen_sources.len(), 2);
            } else {
                let tag = rank as i32 + 40;
                world.send(&[rank as i32 * 100 + tag], 0, 1, &Datatype::int(), 0, tag)?;
            }
            Ok(())
        })
        .unwrap();
}

#[test]
fn probe_then_receive_exact_size() {
    MpiRuntime::new(2)
        .run(|mpi| {
            let world = mpi.comm_world();
            if world.rank()? == 0 {
                let data: Vec<i32> = (0..37).collect();
                world.send(&data, 0, 37, &Datatype::int(), 1, 13)?;
            } else {
                assert!(world.iprobe(0, 999)?.is_none());
                let status = world.probe(0, 13)?;
                let n = status.get_count(&Datatype::int()).unwrap();
                assert_eq!(n, 37);
                let mut buf = vec![0i32; n];
                world.recv(&mut buf, 0, n, &Datatype::int(), 0, 13)?;
                assert_eq!(buf[36], 36);
            }
            Ok(())
        })
        .unwrap();
}

/// A probe checks its envelope as a receive does: `PROC_NULL` answers at
/// once with an empty status, a source outside the communicator is a
/// `Rank` error and a bad tag a `Tag` error. None of them waits for a
/// message. The job runs under a deadline because a probe that skips the
/// checks never returns.
#[test]
fn probe_checks_its_envelope_like_a_receive() {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let result = MpiRuntime::new(2).run(|mpi| {
            let world = mpi.comm_world();
            let status = world.probe(MPI::PROC_NULL, 5)?;
            assert_eq!(status.source(), MPI::PROC_NULL);
            assert_eq!(status.tag(), MPI::ANY_TAG);
            assert_eq!(status.get_count(&Datatype::byte()), Some(0));
            let status = world.iprobe(MPI::PROC_NULL, 5)?;
            assert_eq!(status.map(|s| s.source()), Some(MPI::PROC_NULL));
            for source in [2, -7] {
                assert_eq!(world.probe(source, 5).unwrap_err().class, ErrorClass::Rank);
                assert_eq!(world.iprobe(source, 5).unwrap_err().class, ErrorClass::Rank);
            }
            assert_eq!(world.probe(0, -5).unwrap_err().class, ErrorClass::Tag);
            assert_eq!(world.iprobe(0, -5).unwrap_err().class, ErrorClass::Tag);
            Ok(())
        });
        let _ = done.send(result);
    });
    finished
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("a probe did not return")
        .unwrap();
}

#[test]
fn persistent_requests_round_trip_repeatedly() {
    MpiRuntime::new(2)
        .run(|mpi| {
            let world = mpi.comm_world();
            let rank = world.rank()?;
            const ROUNDS: usize = 8;
            if rank == 0 {
                let mut data = [0i32; 4];
                let mut request = world.send_init(&data, 0, 4, &Datatype::int(), 1, 21)?;
                for round in 0..ROUNDS {
                    // The buffer is re-marshalled at every Start; but since the
                    // Prequest borrows it immutably we vary nothing here and
                    // simply verify repeated delivery.
                    request.start()?;
                    request.wait()?;
                    let _ = round;
                }
                request.free()?;
                data[0] = 1; // buffer usable again after free
                assert_eq!(data[0], 1);
            } else {
                let mut buf = [9i32; 4];
                let mut request = world.recv_init(&mut buf, 0, 4, &Datatype::int(), 0, 21)?;
                for _ in 0..ROUNDS {
                    request.start()?;
                    let status = request.wait()?;
                    assert_eq!(status.get_count(&Datatype::int()), Some(4));
                }
                request.free()?;
            }
            Ok(())
        })
        .unwrap();
}

#[test]
fn sendrecv_ring_rotation() {
    MpiRuntime::new(4)
        .run(|mpi| {
            let world = mpi.comm_world();
            let rank = world.rank()? as i32;
            let size = world.size()? as i32;
            let right = (rank + 1) % size;
            let left = (rank + size - 1) % size;
            let send = [rank; 8];
            let mut recv = [0i32; 8];
            let status = world.sendrecv(
                &send,
                0,
                8,
                &Datatype::int(),
                right,
                3,
                &mut recv,
                0,
                8,
                &Datatype::int(),
                left,
                3,
            )?;
            assert_eq!(status.source(), left);
            assert!(recv.iter().all(|&v| v == left));
            Ok(())
        })
        .unwrap();
}

#[test]
fn proc_null_and_truncation_behaviour() {
    MpiRuntime::new(2)
        .run(|mpi| {
            let world = mpi.comm_world();
            let rank = world.rank()?;
            // Sends and receives involving PROC_NULL complete immediately.
            world.send(&[1i32], 0, 1, &Datatype::int(), MPI::PROC_NULL, 0)?;
            let mut empty = [0i32; 1];
            let status = world.recv(&mut empty, 0, 1, &Datatype::int(), MPI::PROC_NULL, 0)?;
            assert_eq!(status.source(), MPI::PROC_NULL);
            assert_eq!(status.get_count(&Datatype::int()), Some(0));

            // A message larger than the posted receive is a truncation error.
            if rank == 0 {
                world.send(&[0i64; 16], 0, 16, &Datatype::long(), 1, 70)?;
            } else {
                let mut small = [0i64; 4];
                let err = world
                    .recv(&mut small, 0, 4, &Datatype::long(), 0, 70)
                    .unwrap_err();
                assert_eq!(err.class, mpijava::ErrorClass::Truncate);
            }
            Ok(())
        })
        .unwrap();
}

#[test]
fn offsets_address_subwindows_like_java_offsets() {
    MpiRuntime::new(2)
        .run(|mpi| {
            let world = mpi.comm_world();
            if world.rank()? == 0 {
                let buf: Vec<i32> = (0..20).collect();
                // send elements 5..13
                world.send(&buf, 5, 8, &Datatype::int(), 1, 2)?;
            } else {
                let mut buf = vec![0i32; 20];
                world.recv(&mut buf, 10, 8, &Datatype::int(), 0, 2)?;
                assert_eq!(&buf[10..18], &[5, 6, 7, 8, 9, 10, 11, 12]);
                assert!(buf[..10].iter().all(|&v| v == 0));
                assert!(buf[18..].iter().all(|&v| v == 0));
            }
            Ok(())
        })
        .unwrap();
}
