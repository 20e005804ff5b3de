//! End-to-end tests of the idiomatic API surface (`mpijava::rs`): the
//! `Communicator` trait with slice-native, datatype-inferred methods and
//! RAII `TypedRequest` nonblocking ops, run through every fabric
//! configuration of the functionality suite (shm-fast, shm-p4, tcp).
//!
//! Note the structure: the `Communicator` trait is imported *inside* each
//! test function, never at file scope. The trait's short method names
//! (`send`, `sendrecv`, ...) intentionally shadow the classic Java-style
//! methods once in scope, and the equivalence test at the bottom needs to
//! call the classic surface unshadowed from the same file.

use mpijava::MpiResult;
use mpijava_suite::test_runtimes;

/// Every call site in this suite: zero explicit `Datatype`, offset, or
/// count arguments — the slices carry all three.

#[test]
fn send_recv_roundtrip_on_every_device() {
    for (name, runtime) in test_runtimes(2) {
        runtime
            .run(|mpi| {
                use mpijava::rs::Communicator;
                let world = mpi.comm_world();
                if world.rank()? == 0 {
                    let msg: Vec<i32> = (0..257).collect();
                    world.send(&msg[..], 1, 42)?;
                    // Sub-range send: ordinary slicing replaces (offset, count).
                    world.send(&msg[100..110], 1, 43)?;
                } else {
                    let mut buf = vec![0i32; 257];
                    let status = world.recv_into(&mut buf, 0, 42)?;
                    assert_eq!(status.count_elements::<i32>(), Some(257), "{name}");
                    assert_eq!(buf, (0..257).collect::<Vec<_>>(), "{name}");

                    let mut window = vec![0i32; 10];
                    world.recv_into(&mut window, 0, 43)?;
                    assert_eq!(window, (100..110).collect::<Vec<_>>(), "{name}");
                }
                mpi.finalize()
            })
            .unwrap_or_else(|e| panic!("{name}: {e:?}"));
    }
}

#[test]
fn sendrecv_exchanges_heterogeneous_element_types() {
    for (name, runtime) in test_runtimes(2) {
        runtime
            .run(|mpi| {
                use mpijava::rs::Communicator;
                let world = mpi.comm_world();
                let rank = world.rank()? as i32;
                let peer = 1 - rank;
                let send: Vec<f64> = (0..16).map(|i| (rank * 100 + i) as f64).collect();
                let mut recv = vec![0f64; 16];
                let status = world.sendrecv(&send, peer, 7, &mut recv, peer, 7)?;
                assert_eq!(status.source(), peer, "{name}");
                let expected: Vec<f64> = (0..16).map(|i| (peer * 100 + i) as f64).collect();
                assert_eq!(recv, expected, "{name}");
                mpi.finalize()
            })
            .unwrap_or_else(|e| panic!("{name}: {e:?}"));
    }
}

#[test]
fn broadcast_and_reductions_on_every_device() {
    for (name, runtime) in test_runtimes(3) {
        runtime
            .run(|mpi| {
                use mpijava::rs::Communicator;
                let world = mpi.comm_world();
                let rank = world.rank()?;
                let size = world.size()?;

                // broadcast: root's contents reach every rank.
                let mut buf = if rank == 0 {
                    (0..32).map(|i| i as f64).collect::<Vec<_>>()
                } else {
                    vec![0f64; 32]
                };
                world.broadcast(&mut buf, 0)?;
                assert_eq!(buf, (0..32).map(|i| i as f64).collect::<Vec<_>>(), "{name}");

                // reduce to root, then all_reduce everywhere.
                let contribution = vec![rank as i64 + 1; 8];
                let mut reduced = vec![0i64; 8];
                world.reduce_into(&contribution, &mut reduced, mpijava::Op::sum(), 0)?;
                let expected_sum = (size * (size + 1) / 2) as i64;
                if rank == 0 {
                    assert_eq!(reduced, vec![expected_sum; 8], "{name}");
                }

                let mut all = vec![0i64; 8];
                world.all_reduce(&contribution, &mut all, mpijava::Op::sum())?;
                assert_eq!(all, vec![expected_sum; 8], "{name}");

                // scan: inclusive prefix sums by rank.
                let mut prefix = vec![0i64; 8];
                world.scan_into(&contribution, &mut prefix, mpijava::Op::sum())?;
                let expected_prefix = ((rank + 1) * (rank + 2) / 2) as i64;
                assert_eq!(prefix, vec![expected_prefix; 8], "{name}");

                mpi.finalize()
            })
            .unwrap_or_else(|e| panic!("{name}: {e:?}"));
    }
}

#[test]
fn gather_scatter_family_infers_counts_from_slices() {
    for (name, runtime) in test_runtimes(3) {
        runtime
            .run(|mpi| {
                use mpijava::rs::Communicator;
                let world = mpi.comm_world();
                let rank = world.rank()?;
                let size = world.size()?;

                // gather: root assembles per-rank chunks in rank order.
                let mine = vec![rank as i32; 4];
                let mut gathered = if rank == 0 {
                    vec![-1i32; 4 * size]
                } else {
                    Vec::new()
                };
                world.gather_into(&mine, &mut gathered, 0)?;
                if rank == 0 {
                    for r in 0..size {
                        assert_eq!(&gathered[r * 4..(r + 1) * 4], &[r as i32; 4], "{name}");
                    }
                }

                // all_gather: everyone assembles the same picture.
                let mut everywhere = vec![-1i32; 4 * size];
                world.all_gather(&mine, &mut everywhere)?;
                for r in 0..size {
                    assert_eq!(&everywhere[r * 4..(r + 1) * 4], &[r as i32; 4], "{name}");
                }

                // scatter: each rank gets its own chunk of the root's buffer.
                let send = if rank == 0 {
                    (0..(2 * size) as i32).collect::<Vec<_>>()
                } else {
                    Vec::new()
                };
                let mut chunk = vec![0i32; 2];
                world.scatter_from(&send, &mut chunk, 0)?;
                assert_eq!(chunk, vec![2 * rank as i32, 2 * rank as i32 + 1], "{name}");

                // all_to_all: rank r's block b lands at rank b's block r.
                let send_all: Vec<i32> = (0..size as i32).map(|b| (rank as i32) * 10 + b).collect();
                let mut recv_all = vec![-1i32; size];
                world.all_to_all(&send_all, &mut recv_all)?;
                let expected: Vec<i32> = (0..size as i32).map(|r| r * 10 + rank as i32).collect();
                assert_eq!(recv_all, expected, "{name}");

                mpi.finalize()
            })
            .unwrap_or_else(|e| panic!("{name}: {e:?}"));
    }
}

#[test]
fn nonblocking_roundtrip_with_typed_requests() {
    for (name, runtime) in test_runtimes(2) {
        runtime
            .run(|mpi| {
                use mpijava::rs::{Communicator, TypedRequest};
                let world = mpi.comm_world();
                if world.rank()? == 0 {
                    let a: Vec<i32> = (0..64).collect();
                    let b = vec![9i16; 32];
                    // Heterogeneous batch: i32 send + i16 send completed together.
                    let requests = vec![world.isend(&a, 1, 1)?, world.isend(&b, 1, 2)?];
                    let statuses = TypedRequest::wait_all(requests)?;
                    assert_eq!(statuses.len(), 2, "{name}");
                } else {
                    let mut a = vec![0i32; 64];
                    let mut b = vec![0i16; 32];
                    {
                        let ra = world.irecv_into(&mut a, 0, 1)?;
                        let mut rb = world.irecv_into(&mut b, 0, 2)?;
                        // Poll one, block on the other.
                        let status = ra.wait()?;
                        assert_eq!(status.count_elements::<i32>(), Some(64), "{name}");
                        loop {
                            if rb.test()?.is_some() {
                                break;
                            }
                            std::thread::yield_now();
                        }
                        assert!(rb.is_complete(), "{name}");
                        // wait() after test() observed completion returns
                        // the cached status instead of erroring.
                        let status = rb.wait()?;
                        assert_eq!(status.count_elements::<i16>(), Some(32), "{name}");
                    }
                    assert_eq!(a, (0..64).collect::<Vec<_>>(), "{name}");
                    assert_eq!(b, vec![9i16; 32], "{name}");
                }
                mpi.finalize()
            })
            .unwrap_or_else(|e| panic!("{name}: {e:?}"));
    }
}

#[test]
fn free_releases_a_never_matching_receive() {
    for (name, runtime) in test_runtimes(2) {
        runtime
            .run(|mpi| {
                use mpijava::rs::Communicator;
                let world = mpi.comm_world();
                if world.rank()? == 1 {
                    let mut orphan = vec![0u8; 16];
                    // No rank ever sends tag 999: a plain drop would block
                    // forever, free() is the escape hatch.
                    let request = world.irecv_into(&mut orphan, 0, 999)?;
                    request.free()?;
                }
                // Both ranks still communicate normally afterwards.
                let rank = world.rank()? as i32;
                let mut got = vec![0i32; 1];
                world.sendrecv(&[rank][..], 1 - rank, 1, &mut got, 1 - rank, 1)?;
                assert_eq!(got[0], 1 - rank, "{name}");
                mpi.finalize()
            })
            .unwrap_or_else(|e| panic!("{name}: {e:?}"));
    }
}

#[test]
fn free_after_rendezvous_match_discards_the_data_cleanly() {
    // A large (rendezvous-protocol) message whose receive is freed after
    // the envelope has already matched: the in-flight data frame must be
    // discarded by the engine, not surfaced as an internal error from
    // whatever the rank does next.
    for (name, runtime) in test_runtimes(2) {
        runtime
            .eager_threshold(1024)
            .run(|mpi| {
                use mpijava::rs::Communicator;
                let world = mpi.comm_world();
                let rank = world.rank()? as i32;
                if rank == 0 {
                    world.send(&vec![7u8; 1 << 16][..], 1, 30)?;
                } else {
                    // Wait for the envelope so the irecv below matches the
                    // rendezvous RTS immediately, then abandon it.
                    world.probe(0, 30)?;
                    let mut big = vec![0u8; 1 << 16];
                    let request = world.irecv_into(&mut big, 0, 30)?;
                    request.free()?;
                }
                // Unrelated traffic afterwards must be unaffected.
                let mut got = vec![0i32; 1];
                world.sendrecv(&[rank][..], 1 - rank, 31, &mut got, 1 - rank, 31)?;
                assert_eq!(got[0], 1 - rank, "{name}");
                mpi.finalize()
            })
            .unwrap_or_else(|e| panic!("{name}: {e:?}"));
    }
}

#[test]
fn panic_with_pending_request_does_not_hang() {
    // Unwinding with a pending never-matching receive used to block
    // forever inside TypedRequest::drop; it must instead withdraw the
    // request and let the panic surface as the job error.
    let result = mpijava::MpiRuntime::new(2).run(|mpi| {
        use mpijava::rs::Communicator;
        let world = mpi.comm_world();
        if world.rank()? == 0 {
            let mut orphan = vec![0u8; 4];
            let _pending = world.irecv_into(&mut orphan, 1, 77)?;
            panic!("deliberate");
        }
        // Blocks until rank 0's abort unblocks it.
        let mut buf = vec![0u8; 1];
        let _ = world.recv_into(&mut buf, 0, 78);
        Ok(())
    });
    assert!(result.is_err(), "panic must surface as a job error");
}

#[test]
fn dropping_a_pending_request_completes_it() {
    for (name, runtime) in test_runtimes(2) {
        runtime
            .run(|mpi| {
                use mpijava::rs::Communicator;
                let world = mpi.comm_world();
                if world.rank()? == 0 {
                    world.send(&[41i32, 42, 43][..], 1, 5)?;
                } else {
                    let mut buf = vec![0i32; 3];
                    {
                        // Never explicitly waited on: the drop at the end
                        // of this block must complete the receive before
                        // the borrow of `buf` is released.
                        let _request = world.irecv_into(&mut buf, 0, 5)?;
                    }
                    assert_eq!(buf, vec![41, 42, 43], "{name}");
                }
                mpi.finalize()
            })
            .unwrap_or_else(|e| panic!("{name}: {e:?}"));
    }
}

#[test]
fn object_transport_without_datatype_plumbing() {
    #[derive(Clone, Debug, PartialEq)]
    struct Particle {
        position: (f64, f64),
        charge: i32,
        label: String,
    }

    impl mpijava::Serializable for Particle {
        fn write_object(&self, out: &mut mpijava::ObjectOutputStream) {
            out.write(&self.position);
            out.write(&self.charge);
            out.write(&self.label);
        }
        fn read_object(input: &mut mpijava::ObjectInputStream<'_>) -> MpiResult<Self> {
            Ok(Particle {
                position: input.read()?,
                charge: input.read()?,
                label: input.read()?,
            })
        }
    }

    for (name, runtime) in test_runtimes(2) {
        runtime
            .run(|mpi| {
                use mpijava::rs::Communicator;
                let world = mpi.comm_world();
                let original = Particle {
                    position: (1.5, -2.25),
                    charge: -1,
                    label: "electron".to_string(),
                };
                if world.rank()? == 0 {
                    world.send_obj(&original, 1, 9)?;
                } else {
                    let (received, status) = world.recv_obj::<Particle>(0, 9)?;
                    assert_eq!(received, original, "{name}");
                    assert_eq!(status.source(), 0, "{name}");
                }
                // Object broadcast: every rank ends with the root's value.
                let seed = if world.rank()? == 0 {
                    original.clone()
                } else {
                    Particle {
                        position: (0.0, 0.0),
                        charge: 0,
                        label: String::new(),
                    }
                };
                let shared = world.broadcast_obj(&seed, 0)?;
                assert_eq!(shared, original, "{name}");
                mpi.finalize()
            })
            .unwrap_or_else(|e| panic!("{name}: {e:?}"));
    }
}

/// The trait is the polymorphism story: one generic halo-exchange routine
/// works for a plain `Intracomm` and a `Cartcomm` alike — no `Deref`
/// gymnastics.
#[test]
fn generic_code_over_any_communicator() {
    use mpijava::rs::Communicator;

    fn ring_exchange<C: Communicator>(comm: &C) -> MpiResult<Vec<i32>> {
        let rank = comm.rank()? as i32;
        let size = comm.size()? as i32;
        let right = (rank + 1) % size;
        let left = (rank + size - 1) % size;
        let send = vec![rank; 4];
        let mut recv = vec![-1i32; 4];
        comm.sendrecv(&send, right, 3, &mut recv, left, 3)?;
        Ok(recv)
    }

    mpijava::MpiRuntime::new(4)
        .run(|mpi| {
            let world = mpi.comm_world();
            let rank = world.rank()? as i32;
            let size = world.size()? as i32;
            let left = (rank + size - 1) % size;

            // Through the plain intracommunicator...
            assert_eq!(ring_exchange(&world)?, vec![left; 4]);

            // ...and through a periodic 1-d cartesian communicator, where
            // the same generic routine and the topology queries coexist.
            let cart = world
                .create_cart(&[4], &[true], false)?
                .expect("all ranks participate");
            let got = ring_exchange(&cart)?;
            let shift = cart.shift(0, 1)?;
            assert_eq!(got, vec![shift.rank_source; 4]);

            mpi.finalize()
        })
        .unwrap();
}

// ----------------------------------------------------------------------
// Classic ⇄ idiomatic equivalence
// ----------------------------------------------------------------------

/// A fixed communication schedule (ring sendrecv, broadcast, allreduce,
/// allgather) executed once per surface. `Communicator` is deliberately
/// NOT in scope here so the classic Java-style calls resolve through the
/// `Deref` chain exactly as in the IBM suite.
fn classic_schedule(mpi: &mpijava::MPI) -> MpiResult<Vec<u8>> {
    use mpijava::{Datatype, Op};
    let world = mpi.comm_world();
    let rank = world.rank()? as i32;
    let size = world.size()? as i32;
    let right = (rank + 1) % size;
    let left = (rank + size - 1) % size;

    let send: Vec<i32> = (0..8).map(|i| rank * 1000 + i).collect();
    let mut ring = vec![0i32; 8];
    world.sendrecv(
        &send,
        0,
        8,
        &Datatype::int(),
        right,
        11,
        &mut ring,
        0,
        8,
        &Datatype::int(),
        left,
        11,
    )?;

    let mut shared = vec![0f64; 6];
    if rank == 0 {
        shared = (0..6).map(|i| i as f64 * 0.5).collect();
    }
    world.bcast(&mut shared, 0, 6, &Datatype::double(), 0)?;

    let mut sums = vec![0i32; 8];
    world.allreduce(&ring, 0, &mut sums, 0, 8, &Datatype::int(), &Op::sum())?;

    let mut all = vec![0i32; 8 * size as usize];
    world.allgather(
        &ring,
        0,
        8,
        &Datatype::int(),
        &mut all,
        0,
        8,
        &Datatype::int(),
    )?;

    mpi.finalize()?;
    Ok(wire_image(&ring, &shared, &sums, &all))
}

/// The same schedule through the idiomatic surface.
fn idiomatic_schedule(mpi: &mpijava::MPI) -> MpiResult<Vec<u8>> {
    use mpijava::rs::Communicator;
    use mpijava::Op;
    let world = mpi.comm_world();
    let rank = world.rank()? as i32;
    let size = world.size()? as i32;
    let right = (rank + 1) % size;
    let left = (rank + size - 1) % size;

    let send: Vec<i32> = (0..8).map(|i| rank * 1000 + i).collect();
    let mut ring = vec![0i32; 8];
    world.sendrecv(&send, right, 11, &mut ring, left, 11)?;

    let mut shared = vec![0f64; 6];
    if rank == 0 {
        shared = (0..6).map(|i| i as f64 * 0.5).collect();
    }
    world.broadcast(&mut shared, 0)?;

    let mut sums = vec![0i32; 8];
    world.all_reduce(&ring, &mut sums, Op::sum())?;

    let mut all = vec![0i32; 8 * size as usize];
    world.all_gather(&ring, &mut all)?;

    mpi.finalize()?;
    Ok(wire_image(&ring, &shared, &sums, &all))
}

fn wire_image(ring: &[i32], shared: &[f64], sums: &[i32], all: &[i32]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend(ring.iter().flat_map(|v| v.to_le_bytes()));
    out.extend(shared.iter().flat_map(|v| v.to_le_bytes()));
    out.extend(sums.iter().flat_map(|v| v.to_le_bytes()));
    out.extend(all.iter().flat_map(|v| v.to_le_bytes()));
    out
}

#[test]
fn classic_and_idiomatic_results_are_byte_identical() {
    for (name, runtime) in test_runtimes(3) {
        let classic = runtime
            .run(classic_schedule)
            .unwrap_or_else(|e| panic!("{name} classic: {e:?}"));
        let idiomatic = runtime
            .run(idiomatic_schedule)
            .unwrap_or_else(|e| panic!("{name} idiomatic: {e:?}"));
        assert_eq!(
            classic, idiomatic,
            "{name}: per-rank results must match bit-for-bit"
        );
    }
}

/// Tentpole: the node-topology surface of the idiomatic API over a real
/// hybrid fabric — node_of / my_node / node_leader queries and the
/// per-node communicator split, including collectives on the node
/// communicator.
#[test]
fn node_topology_queries_and_split_by_node() {
    use mpijava::{DeviceKind, MpiRuntime, NodeMap};
    MpiRuntime::new(6)
        .device(DeviceKind::Hybrid)
        .nodes(NodeMap::regular(3, 2))
        .run(|mpi| {
            use mpijava::rs::Communicator;
            let world = mpi.comm_world();
            let rank = world.rank()?;

            assert_eq!(world.my_node()?, rank / 2);
            assert_eq!(world.node_of(5)?, 2);
            assert_eq!(world.node_leader()?, (rank / 2) * 2);

            // Per-node split: three communicators of two ranks each.
            let node = world.split_by_node()?;
            assert_eq!(node.size()?, 2);
            assert_eq!(node.rank()?, rank % 2);
            let mut sum = [0i32];
            node.all_reduce(&[world.rank()? as i32], &mut sum, mpijava::Op::sum())?;
            // Ranks 2n and 2n+1 share a node: sum = 4n + 1.
            assert_eq!(sum, [4 * (rank as i32 / 2) + 1]);

            // On a single-fabric job all of this degrades gracefully:
            // COMM_SELF has one member on one node.
            let selfc = mpi.comm_self();
            assert_eq!(selfc.node_leader()?, 0);
            mpi.finalize()
        })
        .unwrap();
}

/// The tuned selector picks the hierarchical algorithms on a hybrid
/// fabric automatically, and the results match a flat run bit-for-bit
/// (the full matrix lives in the engine's coll_equivalence suite; this
/// is the rs-surface spot check).
#[test]
fn hybrid_fabric_collectives_match_flat_results() {
    use mpijava::{DeviceKind, MpiRuntime, NodeMap};
    let flat = MpiRuntime::new(4);
    let hybrid = MpiRuntime::new(4)
        .device(DeviceKind::Hybrid)
        .nodes(NodeMap::regular(2, 2));
    let run = |rt: &MpiRuntime| {
        rt.run(|mpi| {
            use mpijava::rs::Communicator;
            let world = mpi.comm_world();
            let rank = world.rank()? as i32;
            let mut sum = [0i32; 3];
            world.all_reduce(&[rank, rank * rank, 7], &mut sum, mpijava::Op::sum())?;
            let mut all = vec![0i32; 4];
            world.all_gather(&[rank * 3], &mut all)?;
            let mut cast = [0i32; 5];
            if rank == 3 {
                cast = [9, 8, 7, 6, 5];
            }
            world.broadcast(&mut cast, 3)?;
            mpi.finalize()?;
            Ok((sum, all, cast))
        })
        .unwrap()
    };
    assert_eq!(run(&flat), run(&hybrid));
}

/// The `rs` neighbourhood collectives: on a non-periodic line and on a
/// periodic 2×2 torus, the blocking and `i*` forms of
/// `neighbor_all_gather` / `neighbor_all_to_all` deliver the same blocks.
/// A `PROC_NULL` slot yields an empty part from the blocking form and
/// leaves its block of `recv` untouched in the `i*` form; a ragged `send`
/// or a `recv` of the wrong length is a `Count` error.
#[test]
fn neighbourhood_collectives_blocking_and_nonblocking_agree() {
    use mpijava::rs::Communicator;
    use mpijava::{ErrorClass, MPI};

    const UNTOUCHED: i32 = -1;
    const CHUNK: usize = 3;
    // What cart rank `r` gathers out, and the `CHUNK`-element blocks of
    // its total exchange, block `j` addressed to neighbour slot `j`.
    let gather_send = |r: usize| vec![10 * r as i32 + 1, 10 * r as i32 + 2];
    let exchange_send = |r: usize, degree: usize| {
        (0..degree * CHUNK)
            .map(|k| 100 * r as i32 + k as i32)
            .collect()
    };

    let check = |cart: &mpijava::Cartcomm, label: &str| -> MpiResult<()> {
        let rank = cart.rank()?;
        let neighbors = cart.topo_neighbors()?;
        let degree = neighbors.len();

        let send = gather_send(rank);
        let parts = cart.neighbor_all_gather(&send)?;
        let mut flat = vec![UNTOUCHED; degree * send.len()];
        cart.ineighbor_all_gather(&send, &mut flat)?.wait()?;
        for (j, &peer) in neighbors.iter().enumerate() {
            let block = &flat[j * send.len()..(j + 1) * send.len()];
            if peer == MPI::PROC_NULL {
                assert!(parts[j].is_empty(), "{label} gather slot {j}");
                assert!(
                    block.iter().all(|&v| v == UNTOUCHED),
                    "{label} gather slot {j}"
                );
            } else {
                assert_eq!(
                    parts[j],
                    gather_send(peer as usize),
                    "{label} gather slot {j}"
                );
                assert_eq!(block, &parts[j][..], "{label} gather slot {j}");
            }
        }

        let send: Vec<i32> = exchange_send(rank, degree);
        let parts = cart.neighbor_all_to_all(&send)?;
        let mut flat = vec![UNTOUCHED; send.len()];
        cart.ineighbor_all_to_all(&send, &mut flat)?.wait()?;
        for (j, &peer) in neighbors.iter().enumerate() {
            let block = &flat[j * CHUNK..(j + 1) * CHUNK];
            if peer == MPI::PROC_NULL {
                assert!(parts[j].is_empty(), "{label} exchange slot {j}");
                assert!(
                    block.iter().all(|&v| v == UNTOUCHED),
                    "{label} exchange slot {j}"
                );
            } else {
                // Slot `2d` is the source of a `+1` shift in dimension
                // `d` and slot `2d + 1` its destination, so the peer in
                // slot `j` addressed its block `j ^ 1` to this rank.
                let theirs: Vec<i32> = exchange_send(peer as usize, degree);
                let expected = &theirs[(j ^ 1) * CHUNK..((j ^ 1) + 1) * CHUNK];
                assert_eq!(parts[j], expected, "{label} exchange slot {j}");
                assert_eq!(block, expected, "{label} exchange slot {j}");
            }
        }

        let class = |r: MpiResult<()>| r.expect_err("a Count error").class;
        let ragged: Vec<i32> = vec![0; degree * CHUNK + 1];
        let mut recv = vec![0i32; ragged.len()];
        assert_eq!(
            class(cart.neighbor_all_to_all(&ragged).map(drop)),
            ErrorClass::Count
        );
        let r = cart.ineighbor_all_to_all(&ragged, &mut recv).map(drop);
        assert_eq!(class(r), ErrorClass::Count, "{label} ragged i*");
        let mut short = vec![0i32; send.len() - 1];
        let r = cart.ineighbor_all_to_all(&send, &mut short).map(drop);
        assert_eq!(class(r), ErrorClass::Count, "{label} short recv");
        let r = cart
            .ineighbor_all_gather(&gather_send(rank), &mut short)
            .map(drop);
        assert_eq!(class(r), ErrorClass::Count, "{label} short gather recv");
        Ok(())
    };

    for (name, runtime) in test_runtimes(4) {
        runtime
            .run(|mpi| {
                let world = mpi.comm_world();
                let line = world.create_cart(&[4], &[false], false)?.expect("a member");
                check(&line, &format!("{name} line"))?;
                let torus = world
                    .create_cart(&[2, 2], &[true, true], false)?
                    .expect("a member");
                check(&torus, &format!("{name} torus"))?;
                mpi.finalize()
            })
            .unwrap_or_else(|e| panic!("{name}: {e:?}"));
    }
}
