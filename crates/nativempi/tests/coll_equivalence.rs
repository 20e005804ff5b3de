//! Cross-algorithm equivalence suite: every collective must produce
//! byte-identical results under the linear, binomial-tree,
//! recursive-doubling, ring and pipelined algorithms (and under the tuned
//! default selector), on communicator sizes {1, 2, 3, 4, 5, 8}, across
//! all three transport devices — including non-commutative user
//! operations and `MAXLOC`/`MINLOC` with ties.
//!
//! Each rank executes a fixed transcript of collectives and serializes
//! every result into a byte log; the per-rank logs of a forced-algorithm
//! run are compared against the forced-`Linear` baseline. A forced
//! algorithm that cannot implement an operation (recursive doubling on
//! five ranks, ring under an order-preserving reduction) falls back
//! through the tuning layer, so the comparison also covers the fallback
//! paths.

use std::borrow::Cow;
use std::sync::Arc;

use mpi_native::comm::COMM_WORLD;
use mpi_native::request::Completion;
use mpi_native::{
    CollAlgorithm, Engine, NodeMap, Op, PredefinedOp, PrimitiveKind, Universe, UniverseConfig,
};
use mpi_transport::DeviceKind;

fn ints(values: &[i32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Non-commutative but exactly associative user operation: elements are
/// `(m, c)` pairs encoding the affine map `x -> m*x + c` over wrapping
/// i32 arithmetic, combined by function composition.
fn affine_compose() -> Op {
    Op::User(Arc::new(|incoming, acc, _kind, count| {
        for i in 0..count {
            let at = i * 8;
            let ma = i32::from_le_bytes(acc[at..at + 4].try_into().unwrap());
            let ca = i32::from_le_bytes(acc[at + 4..at + 8].try_into().unwrap());
            let mi = i32::from_le_bytes(incoming[at..at + 4].try_into().unwrap());
            let ci = i32::from_le_bytes(incoming[at + 4..at + 8].try_into().unwrap());
            let m = ma.wrapping_mul(mi);
            let c = ma.wrapping_mul(ci).wrapping_add(ca);
            acc[at..at + 4].copy_from_slice(&m.to_le_bytes());
            acc[at + 4..at + 8].copy_from_slice(&c.to_le_bytes());
        }
        Ok(())
    }))
}

fn log_result(log: &mut Vec<u8>, op_id: u8, bytes: &[u8]) {
    log.push(op_id);
    log.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    log.extend_from_slice(bytes);
}

/// The payload a request's completion delivers (empty if none).
fn bytes(completion: Completion) -> Vec<u8> {
    completion.data.map(Vec::from).unwrap_or_default()
}

fn log_parts(log: &mut Vec<u8>, op_id: u8, parts: &[Vec<u8>]) {
    let mut flat = Vec::new();
    for p in parts {
        flat.extend_from_slice(&(p.len() as u32).to_le_bytes());
        flat.extend_from_slice(p);
    }
    log_result(log, op_id, &flat);
}

/// The transcript every rank runs; returns the serialized result log.
fn transcript(engine: &mut Engine) -> Vec<u8> {
    let rank = engine.world_rank();
    let size = engine.world_size();
    let sum = Op::Predefined(PredefinedOp::Sum);
    let maxloc = Op::Predefined(PredefinedOp::Maxloc);
    let minloc = Op::Predefined(PredefinedOp::Minloc);
    let mut log = Vec::new();

    engine.barrier(COMM_WORLD).unwrap();
    log_result(&mut log, 0, b"barrier-ok");

    // Bcast from both ends of the communicator, lengths that are not
    // multiples of anything interesting.
    for (op_id, root, len) in [(1u8, 0usize, 37usize), (2, size - 1, 133)] {
        let mut buf = if rank == root {
            (0..len)
                .map(|i| (i as u8).wrapping_mul(7).wrapping_add(root as u8))
                .collect()
        } else {
            Vec::new()
        };
        engine.bcast(COMM_WORLD, root, &mut buf).unwrap();
        log_result(&mut log, op_id, &buf);
    }

    // Gatherv: variable lengths, including a zero-length contribution.
    let root = size / 2;
    let send = vec![rank as u8; rank % 3];
    if let Some(parts) = engine.gather(COMM_WORLD, root, &send).unwrap() {
        log_parts(&mut log, 3, &parts);
    }

    // Scatterv: variable chunks, including zero-length ones.
    let chunks: Option<Vec<Vec<u8>>> = if rank == root {
        Some(
            (0..size)
                .map(|r| vec![r as u8 ^ 0x5a; (r * 2) % 5])
                .collect(),
        )
    } else {
        None
    };
    let mine = engine.scatter(COMM_WORLD, root, chunks.as_deref()).unwrap();
    log_result(&mut log, 4, &mine);

    // Allgatherv: variable lengths.
    let contribution: Vec<u8> = (0..(rank + 2) * 3).map(|i| (i + rank) as u8).collect();
    let parts = engine.allgather(COMM_WORLD, &contribution).unwrap();
    log_parts(&mut log, 5, &parts);

    // Alltoallv with some zero-length chunks.
    let chunks: Vec<Vec<u8>> = (0..size)
        .map(|d| vec![(rank * 16 + d) as u8; (rank + d) % 4])
        .collect();
    let got = engine.alltoall(COMM_WORLD, &chunks).unwrap();
    log_parts(&mut log, 6, &got);

    // Integer sum reduce to a non-zero root (exercises the tree's
    // root-forwarding hop), plus a zero-count reduce.
    let send = ints(&[rank as i32 + 1, (rank as i32 + 1) * -10, 7]);
    let reduced = engine
        .reduce(COMM_WORLD, size - 1, &send, PrimitiveKind::Int, 3, &sum)
        .unwrap();
    if let Some(data) = reduced {
        log_result(&mut log, 7, &data);
    }
    let empty = engine
        .reduce(COMM_WORLD, 0, &[], PrimitiveKind::Int, 0, &sum)
        .unwrap();
    if let Some(data) = empty {
        log_result(&mut log, 8, &data);
    }

    // MAXLOC / MINLOC with deliberate value ties (tie-break must prefer
    // the lower rank under every algorithm).
    let pairs = ints(&[(rank % 2) as i32, rank as i32, 5, rank as i32]);
    let got = engine
        .reduce(COMM_WORLD, 0, &pairs, PrimitiveKind::Int2, 2, &maxloc)
        .unwrap();
    if let Some(data) = got {
        log_result(&mut log, 9, &data);
    }
    let got = engine
        .allreduce(COMM_WORLD, &pairs, PrimitiveKind::Int2, 2, &minloc)
        .unwrap();
    log_result(&mut log, 10, &got);

    // Non-commutative associative user op, reduce and allreduce.
    let affine = affine_compose();
    let own = ints(&[rank as i32 * 2 + 3, rank as i32 + 1, 3, rank as i32 - 2]);
    let got = engine
        .reduce(COMM_WORLD, 0, &own, PrimitiveKind::Int2, 2, &affine)
        .unwrap();
    if let Some(data) = got {
        log_result(&mut log, 11, &data);
    }
    let got = engine
        .allreduce(COMM_WORLD, &own, PrimitiveKind::Int2, 2, &affine)
        .unwrap();
    log_result(&mut log, 12, &got);

    // Integer allreduce: a count below the communicator size (ring gets
    // empty segments), and a larger vector.
    let got = engine
        .allreduce(
            COMM_WORLD,
            &ints(&[rank as i32]),
            PrimitiveKind::Int,
            1,
            &sum,
        )
        .unwrap();
    log_result(&mut log, 13, &got);
    let vector: Vec<i32> = (0i32..2048)
        .map(|i| i.wrapping_mul(rank as i32 + 1))
        .collect();
    let got = engine
        .allreduce(COMM_WORLD, &ints(&vector), PrimitiveKind::Int, 2048, &sum)
        .unwrap();
    log_result(&mut log, 14, &got);

    // Reduce-scatter with uneven counts including a zero.
    let counts: Vec<usize> = (0..size)
        .map(|r| if r == 0 { 0 } else { r % 3 + 1 })
        .collect();
    let total: usize = counts.iter().sum();
    let vec: Vec<i32> = (0..total as i32).map(|i| i + rank as i32).collect();
    let got = engine
        .reduce_scatter(COMM_WORLD, &ints(&vec), &counts, PrimitiveKind::Int, &sum)
        .unwrap();
    log_result(&mut log, 15, &got);

    // Scan.
    let got = engine
        .scan(
            COMM_WORLD,
            &ints(&[rank as i32 + 1, 2]),
            PrimitiveKind::Int,
            2,
            &sum,
        )
        .unwrap();
    log_result(&mut log, 16, &got);

    // Collectives on a split communicator (sub-comm sizes and roots differ
    // from world; also exercises the engine-internal allgather/allreduce
    // used by comm_split itself under every algorithm).
    let sub = engine
        .comm_split(COMM_WORLD, (rank % 2) as i32, rank as i32)
        .unwrap()
        .unwrap();
    let got = engine
        .allreduce(sub, &ints(&[rank as i32 + 5]), PrimitiveKind::Int, 1, &sum)
        .unwrap();
    log_result(&mut log, 17, &got);
    let sub_size = engine.comm_size(sub).unwrap();
    let sub_root = sub_size - 1;
    let sub_rank = engine.comm_rank(sub).unwrap();
    let mut buf = if sub_rank == sub_root {
        vec![rank as u8; 21]
    } else {
        Vec::new()
    };
    engine.bcast(sub, sub_root, &mut buf).unwrap();
    log_result(&mut log, 18, &buf);

    log
}

fn run_transcript(
    size: usize,
    device: DeviceKind,
    alg: Option<CollAlgorithm>,
    eager_threshold: Option<usize>,
) -> Vec<Vec<u8>> {
    let mut config = UniverseConfig::new(size, device);
    config.coll_algorithm = alg;
    config.eager_threshold = eager_threshold;
    Universe::run_with_config(config, transcript).unwrap()
}

fn assert_equivalence(device: DeviceKind, eager_threshold: Option<usize>) {
    for size in [1usize, 2, 3, 4, 5, 8] {
        let baseline = run_transcript(size, device, Some(CollAlgorithm::Linear), eager_threshold);
        let candidates = [
            None, // the tuned default selector
            Some(CollAlgorithm::BinomialTree),
            Some(CollAlgorithm::RecursiveDoubling),
            Some(CollAlgorithm::Ring),
            Some(CollAlgorithm::Pipelined),
        ];
        for alg in candidates {
            let got = run_transcript(size, device, alg, eager_threshold);
            assert_eq!(
                got, baseline,
                "transcript diverged from linear: device={device:?} size={size} alg={alg:?}"
            );
        }
    }
}

/// How [`twin_transcript`] issues its collectives.
#[derive(Clone, Copy, Debug, PartialEq)]
enum TwinStyle {
    Blocking,
    /// `i*` + `wait` / `test`.
    Nonblocking,
    /// The five operations with a `*_init` form are initialized once, up
    /// front, and started/waited at their transcript step (the
    /// allgather handle serves two steps with different lengths);
    /// gather and scatter, which have none, run blocking.
    Persistent,
}

/// The seven nonblocking collectives plus a concurrent-in-flight block,
/// executed blockingly, through `i* + wait`/`test`, or through persistent
/// `*_init` + start/wait, logging every result. All variants issue the
/// same logical collectives in the same order (the standard's rule), so
/// their logs must be byte-identical: a request completes with a
/// gather-family result as one buffer, so the blocking run logs its
/// parts concatenated in rank order.
fn twin_transcript(engine: &mut Engine, style: TwinStyle) -> Vec<u8> {
    let rank = engine.world_rank();
    let size = engine.world_size();
    let sum = Op::Predefined(PredefinedOp::Sum);
    let affine = affine_compose();
    let mut log = Vec::new();

    // Persistent handles, in transcript order: barrier, bcast, allgather,
    // reduce, allreduce, then the in-flight block's allreduce and bcast.
    let persistent = (style == TwinStyle::Persistent).then(|| {
        [
            engine.barrier_init(COMM_WORLD),
            engine.bcast_init(COMM_WORLD, size - 1, 53),
            engine.allgather_init(COMM_WORLD),
            engine.reduce_init(COMM_WORLD, size - 1, PrimitiveKind::Int2, 2, &affine),
            engine.allreduce_init(COMM_WORLD, PrimitiveKind::Int, 512, &sum),
            engine.allreduce_init(COMM_WORLD, PrimitiveKind::Int, 1, &sum),
            engine.bcast_init(COMM_WORLD, 0, 37),
        ]
        .map(Result::unwrap)
    });
    let run_persistent = |engine: &mut Engine, slot: usize, payload: &[u8]| -> Completion {
        let id = persistent.expect("persistent style")[slot];
        engine.start(id, Cow::Borrowed(payload)).unwrap();
        engine.wait(id).unwrap()
    };

    // barrier
    match style {
        TwinStyle::Blocking => engine.barrier(COMM_WORLD).unwrap(),
        TwinStyle::Nonblocking => {
            let req = engine.ibarrier(COMM_WORLD).unwrap();
            engine.wait(req).unwrap();
        }
        TwinStyle::Persistent => {
            run_persistent(engine, 0, &[]);
        }
    }
    log_result(&mut log, 0, b"barrier-ok");

    // bcast (root at the top end, length prime-ish)
    let root = size - 1;
    let payload: Vec<u8> = (0..53u8).map(|i| i.wrapping_mul(3)).collect();
    let mut buf = if rank == root { payload } else { vec![0xEE; 2] };
    match style {
        TwinStyle::Blocking => engine.bcast(COMM_WORLD, root, &mut buf).unwrap(),
        TwinStyle::Nonblocking => {
            let req = engine
                .ibcast(COMM_WORLD, root, std::mem::take(&mut buf))
                .unwrap();
            buf = bytes(engine.wait(req).unwrap());
        }
        TwinStyle::Persistent => buf = bytes(run_persistent(engine, 1, &buf)),
    }
    log_result(&mut log, 1, &buf);

    // gatherv (variable lengths incl. empty)
    let root = size / 2;
    let send = vec![rank as u8; rank % 3];
    let gathered = if style == TwinStyle::Nonblocking {
        let req = engine.igather(COMM_WORLD, root, &send).unwrap();
        engine.wait(req).unwrap().data.map(Vec::from)
    } else {
        let parts = engine.gather(COMM_WORLD, root, &send).unwrap();
        parts.map(|parts| parts.concat())
    };
    if let Some(all) = gathered {
        log_result(&mut log, 2, &all);
    }

    // scatterv (variable chunks incl. empty)
    let chunks: Option<Vec<Vec<u8>>> = if rank == root {
        Some(
            (0..size)
                .map(|r| vec![r as u8 ^ 0xA7; (r * 3) % 4])
                .collect(),
        )
    } else {
        None
    };
    let mine = if style == TwinStyle::Nonblocking {
        let req = engine
            .iscatter(COMM_WORLD, root, chunks.as_deref())
            .unwrap();
        bytes(engine.wait(req).unwrap())
    } else {
        engine.scatter(COMM_WORLD, root, chunks.as_deref()).unwrap()
    };
    log_result(&mut log, 3, &mine);

    // allgatherv
    let contribution: Vec<u8> = (0..(rank + 1) * 2).map(|i| (i * 7 + rank) as u8).collect();
    let all = match style {
        TwinStyle::Blocking => engine
            .allgather(COMM_WORLD, &contribution)
            .unwrap()
            .concat(),
        TwinStyle::Nonblocking => {
            let req = engine.iallgather(COMM_WORLD, &contribution).unwrap();
            bytes(engine.wait(req).unwrap())
        }
        TwinStyle::Persistent => bytes(run_persistent(engine, 2, &contribution)),
    };
    log_result(&mut log, 4, &all);

    // reduce to a non-zero root (non-commutative user op)
    let own = ints(&[rank as i32 * 2 + 3, rank as i32 + 1, 3, rank as i32 - 2]);
    let reduced = match style {
        TwinStyle::Blocking => engine
            .reduce(COMM_WORLD, size - 1, &own, PrimitiveKind::Int2, 2, &affine)
            .unwrap(),
        TwinStyle::Nonblocking => {
            let req = engine
                .ireduce(COMM_WORLD, size - 1, &own, PrimitiveKind::Int2, 2, &affine)
                .unwrap();
            engine.wait(req).unwrap().data.map(Vec::from)
        }
        TwinStyle::Persistent => run_persistent(engine, 3, &own).data.map(Vec::from),
    };
    if let Some(data) = reduced {
        log_result(&mut log, 5, &data);
    }

    // allreduce (completed through non-parking test-polling in the
    // nonblocking variant)
    let vector: Vec<i32> = (0i32..512)
        .map(|i| i.wrapping_mul(rank as i32 + 1))
        .collect();
    let got = match style {
        TwinStyle::Blocking => engine
            .allreduce(COMM_WORLD, &ints(&vector), PrimitiveKind::Int, 512, &sum)
            .unwrap(),
        TwinStyle::Nonblocking => {
            let req = engine
                .iallreduce(COMM_WORLD, &ints(&vector), PrimitiveKind::Int, 512, &sum)
                .unwrap();
            loop {
                if let Some(completion) = engine.test(req).unwrap() {
                    break bytes(completion);
                }
                std::thread::yield_now();
            }
        }
        TwinStyle::Persistent => bytes(run_persistent(engine, 4, &ints(&vector))),
    };
    log_result(&mut log, 6, &got);

    // Several collectives in flight concurrently (distinct tag
    // windows), completed in reverse order. The blocking variant issues
    // the same collectives in the same order, one at a time.
    let red_in = ints(&[rank as i32 + 2]);
    let mut bcast_buf = if rank == 0 {
        vec![0x5Au8; 37]
    } else {
        Vec::new()
    };
    let gather_in = [rank as u8; 2];
    match style {
        TwinStyle::Blocking => {
            let red = engine
                .allreduce(COMM_WORLD, &red_in, PrimitiveKind::Int, 1, &sum)
                .unwrap();
            engine.bcast(COMM_WORLD, 0, &mut bcast_buf).unwrap();
            let parts = engine.allgather(COMM_WORLD, &gather_in).unwrap();
            log_result(&mut log, 7, &parts.concat());
            log_result(&mut log, 8, &bcast_buf);
            log_result(&mut log, 9, &red);
        }
        TwinStyle::Nonblocking => {
            let r1 = engine
                .iallreduce(COMM_WORLD, &red_in, PrimitiveKind::Int, 1, &sum)
                .unwrap();
            let r2 = engine.ibcast(COMM_WORLD, 0, bcast_buf).unwrap();
            let r3 = engine.iallgather(COMM_WORLD, &gather_in).unwrap();
            log_result(&mut log, 7, &bytes(engine.wait(r3).unwrap()));
            log_result(&mut log, 8, &bytes(engine.wait(r2).unwrap()));
            log_result(&mut log, 9, &bytes(engine.wait(r1).unwrap()));
        }
        TwinStyle::Persistent => {
            let [_, _, allgather, _, _, allreduce, bcast] = persistent.expect("persistent style");
            engine.start(allreduce, Cow::Borrowed(&red_in)).unwrap();
            engine.start(bcast, Cow::Borrowed(&bcast_buf)).unwrap();
            engine.start(allgather, Cow::Borrowed(&gather_in)).unwrap();
            log_result(&mut log, 7, &bytes(engine.wait(allgather).unwrap()));
            log_result(&mut log, 8, &bytes(engine.wait(bcast).unwrap()));
            log_result(&mut log, 9, &bytes(engine.wait(allreduce).unwrap()));
        }
    }
    for id in persistent.into_iter().flatten() {
        engine.request_free(id).unwrap();
    }

    log
}

fn run_twin_transcript(
    size: usize,
    device: DeviceKind,
    alg: Option<CollAlgorithm>,
    style: TwinStyle,
) -> Vec<Vec<u8>> {
    let mut config = UniverseConfig::new(size, device);
    config.coll_algorithm = alg;
    Universe::run_with_config(config, move |engine| twin_transcript(engine, style)).unwrap()
}

/// Satellite: every nonblocking and every persistent collective is
/// byte-identical to its blocking twin, sizes {1, 2, 3, 5, 8} × devices
/// × algorithms, including several collectives in flight concurrently
/// on distinct tag windows.
fn assert_nonblocking_twins(device: DeviceKind) {
    for size in [1usize, 2, 3, 5, 8] {
        for alg in [
            None,
            Some(CollAlgorithm::Linear),
            Some(CollAlgorithm::BinomialTree),
            Some(CollAlgorithm::RecursiveDoubling),
            Some(CollAlgorithm::Ring),
            Some(CollAlgorithm::Pipelined),
        ] {
            let blocking = run_twin_transcript(size, device, alg, TwinStyle::Blocking);
            for style in [TwinStyle::Nonblocking, TwinStyle::Persistent] {
                assert_eq!(
                    run_twin_transcript(size, device, alg, style),
                    blocking,
                    "{style:?} diverged from blocking twin: device={device:?} size={size} alg={alg:?}"
                );
            }
        }
    }
}

/// One hybrid-fabric configuration: `size` ranks block-placed
/// `ranks_per_node` to a node (the last node takes the remainder).
fn hybrid_config(size: usize, ranks_per_node: usize, alg: Option<CollAlgorithm>) -> UniverseConfig {
    let nodes = NodeMap::from_assignment((0..size).map(|r| r / ranks_per_node).collect());
    let mut config = UniverseConfig::new(size, DeviceKind::Hybrid).with_nodes(nodes);
    config.coll_algorithm = alg;
    config
}

/// Satellite: the full transcript (blocking *and* the nonblocking twin)
/// with `hier` over hybrid fabrics at sizes {4, 6, 8} × node sizes
/// {1, 2, 4} — including the degenerate one-node and one-rank-per-node
/// maps, which must collapse to the flat algorithms — byte-compared
/// against the forced-`Linear` run on the *same* fabric. The tuned
/// selector (`None`) is included since it auto-picks `hier` on the
/// hierarchical maps.
#[test]
fn hier_is_byte_identical_over_hybrid_fabrics() {
    for size in [4usize, 6, 8] {
        for ranks_per_node in [1usize, 2, 4] {
            let baseline = Universe::run_with_config(
                hybrid_config(size, ranks_per_node, Some(CollAlgorithm::Linear)),
                transcript,
            )
            .unwrap();
            for alg in [None, Some(CollAlgorithm::Hierarchical)] {
                let got =
                    Universe::run_with_config(hybrid_config(size, ranks_per_node, alg), transcript)
                        .unwrap();
                assert_eq!(
                    got, baseline,
                    "hybrid transcript diverged from linear: size={size} \
                     ranks_per_node={ranks_per_node} alg={alg:?}"
                );
            }

            // Nonblocking and persistent twins under forced hier: must
            // match both their own blocking run and the linear blocking
            // run.
            let hier_twin = |style| {
                Universe::run_with_config(
                    hybrid_config(size, ranks_per_node, Some(CollAlgorithm::Hierarchical)),
                    move |engine| twin_transcript(engine, style),
                )
                .unwrap()
            };
            let blocking = hier_twin(TwinStyle::Blocking);
            for style in [TwinStyle::Nonblocking, TwinStyle::Persistent] {
                assert_eq!(
                    hier_twin(style),
                    blocking,
                    "hier {style:?} twin diverged: size={size} ranks_per_node={ranks_per_node}"
                );
            }
            let linear_twin = Universe::run_with_config(
                hybrid_config(size, ranks_per_node, Some(CollAlgorithm::Linear)),
                |engine| twin_transcript(engine, TwinStyle::Blocking),
            )
            .unwrap();
            assert_eq!(
                blocking, linear_twin,
                "hier twin transcript diverged from linear: size={size} \
                 ranks_per_node={ranks_per_node}"
            );
        }
    }
}

/// A non-contiguous (round-robin) placement: the data movers still run
/// hierarchically and must stay byte-identical; `Ordered` reductions
/// fall back to the flat algorithms through the tuning layer (asserted
/// implicitly — any wrong fold order would diverge from linear).
#[test]
fn hier_survives_non_contiguous_round_robin_placements() {
    for size in [4usize, 6, 8] {
        let nodes = NodeMap::from_assignment((0..size).map(|r| r % 2).collect());
        let make = |alg| {
            let mut config =
                UniverseConfig::new(size, DeviceKind::Hybrid).with_nodes(nodes.clone());
            config.coll_algorithm = alg;
            config
        };
        let baseline =
            Universe::run_with_config(make(Some(CollAlgorithm::Linear)), transcript).unwrap();
        for alg in [None, Some(CollAlgorithm::Hierarchical)] {
            let got = Universe::run_with_config(make(alg), transcript).unwrap();
            assert_eq!(
                got, baseline,
                "round-robin transcript diverged from linear: size={size} alg={alg:?}"
            );
        }
    }
}

#[test]
fn nonblocking_twins_are_byte_identical_on_shm_fast() {
    assert_nonblocking_twins(DeviceKind::ShmFast);
}

#[test]
fn nonblocking_twins_are_byte_identical_on_shm_p4() {
    assert_nonblocking_twins(DeviceKind::ShmP4);
}

#[test]
fn nonblocking_twins_are_byte_identical_on_tcp() {
    assert_nonblocking_twins(DeviceKind::Tcp);
}

#[test]
fn algorithms_are_byte_identical_on_shm_fast() {
    assert_equivalence(DeviceKind::ShmFast, None);
}

#[test]
fn algorithms_are_byte_identical_on_shm_p4() {
    assert_equivalence(DeviceKind::ShmP4, None);
}

#[test]
fn algorithms_are_byte_identical_on_tcp() {
    assert_equivalence(DeviceKind::Tcp, None);
}

/// Force the rendezvous protocol for essentially every frame: the
/// posted-before-send exchange pattern of the tree/rd/ring schedules must
/// not deadlock when payloads need an ack round-trip.
#[test]
fn algorithms_survive_a_tiny_eager_threshold() {
    assert_equivalence(DeviceKind::ShmFast, Some(256));
}

// ---------------------------------------------------------------------
// Neighborhood collectives: the schedule-built sparse exchanges must be
// byte-identical to a hand-rolled isend/irecv reference, and the
// `ineighbor_*` twins byte-identical to the blocking forms (each result
// logged as its parts concatenated in slot order, which is what a
// request's completion carries).
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum NeighborStyle {
    Blocking,
    /// Two schedules in flight concurrently, completed in reverse order.
    Nonblocking,
    /// User-tag point-to-point reference.
    HandRolled,
}

/// Per-send-block `(destination, slot index at the receiver)` derived
/// from first principles — `cart_shift` reciprocity for grids,
/// occurrence-matched adjacency for graphs — so the reference does not
/// lean on the engine's own pairing code.
fn reference_sends(engine: &Engine, comm: usize) -> Vec<(i32, usize)> {
    if let Ok(ndims) = engine.cartdim_get(comm) {
        let mut sends = Vec::new();
        for d in 0..ndims {
            let (src, dst) = engine.cart_shift(comm, d, 1).unwrap();
            // A block sent to `src` is `src`'s positive-direction
            // arrival, slot 2d + 1 — and symmetrically for `dst`.
            sends.push((src, 2 * d + 1));
            sends.push((dst, 2 * d));
        }
        return sends;
    }
    let me = engine.comm_rank(comm).unwrap();
    let adj = engine.graph_neighbors(comm, me).unwrap();
    let mut sends = Vec::new();
    for (j, &peer) in adj.iter().enumerate() {
        let occurrence = adj[..j].iter().filter(|&&q| q == peer).count();
        let peer_adj = engine.graph_neighbors(comm, peer).unwrap();
        let remote = peer_adj
            .iter()
            .enumerate()
            .filter(|&(_, &q)| q == me)
            .map(|(i, _)| i)
            .nth(occurrence)
            .unwrap();
        sends.push((peer as i32, remote));
    }
    sends
}

/// The same sparse exchange as `neighbor_alltoallv`, built from
/// ordinary user-tag point-to-point: each send is tagged with the slot
/// index the block occupies at the receiver (the MPI-3 §7.6 pairing).
fn hand_rolled_neighbor_alltoallv(
    engine: &mut Engine,
    comm: usize,
    chunks: &[Vec<u8>],
) -> Vec<Vec<u8>> {
    const TAG0: i32 = 7000;
    let me = engine.comm_rank(comm).unwrap() as i32;
    let peers = engine.topo_neighbors(comm).unwrap();
    let sends = reference_sends(engine, comm);
    let mut parts: Vec<Vec<u8>> = vec![Vec::new(); peers.len()];
    let mut recv_reqs = Vec::new();
    for (j, &peer) in peers.iter().enumerate() {
        if peer != mpi_native::PROC_NULL && peer != me {
            recv_reqs.push((j, engine.irecv(comm, peer, TAG0 + j as i32, None).unwrap()));
        }
    }
    let mut send_reqs = Vec::new();
    for (k, &(dest, remote)) in sends.iter().enumerate() {
        if dest == mpi_native::PROC_NULL {
            continue;
        }
        if dest == me {
            parts[remote] = chunks[k].clone();
        } else {
            send_reqs.push(
                engine
                    .isend(
                        comm,
                        dest,
                        TAG0 + remote as i32,
                        &chunks[k],
                        mpi_native::SendMode::Standard,
                    )
                    .unwrap(),
            );
        }
    }
    for (j, req) in recv_reqs {
        let completion = engine.wait(req).unwrap();
        parts[j] = completion.data.unwrap().as_ref().to_vec();
    }
    for req in send_reqs {
        engine.wait(req).unwrap();
    }
    parts
}

fn neighbor_exchange(
    engine: &mut Engine,
    comm: usize,
    style: NeighborStyle,
    log: &mut Vec<u8>,
    op_base: u8,
) {
    let rank = engine.comm_rank(comm).unwrap();
    let degree = engine.topo_neighbors(comm).unwrap().len();
    // Ragged per-slot chunks (alltoallv shape) and a replicated
    // allgather payload.
    let chunks: Vec<Vec<u8>> = (0..degree)
        .map(|j| vec![(rank * 16 + j) as u8; (rank + j) % 3 + 1])
        .collect();
    let payload: Vec<u8> = (0..5).map(|i| (rank * 7 + i) as u8).collect();
    match style {
        NeighborStyle::Blocking => {
            let parts = engine.neighbor_alltoallv(comm, &chunks).unwrap();
            log_result(log, op_base, &parts.concat());
            let parts = engine.neighbor_allgather(comm, &payload).unwrap();
            log_result(log, op_base + 1, &parts.concat());
        }
        NeighborStyle::Nonblocking => {
            let r1 = engine.ineighbor_alltoallv(comm, &chunks).unwrap();
            let r2 = engine.ineighbor_allgather(comm, &payload).unwrap();
            let g2 = bytes(engine.wait(r2).unwrap());
            let g1 = bytes(engine.wait(r1).unwrap());
            log_result(log, op_base, &g1);
            log_result(log, op_base + 1, &g2);
        }
        NeighborStyle::HandRolled => {
            let parts = hand_rolled_neighbor_alltoallv(engine, comm, &chunks);
            log_result(log, op_base, &parts.concat());
            let replicated = vec![payload.clone(); degree];
            let parts = hand_rolled_neighbor_alltoallv(engine, comm, &replicated);
            log_result(log, op_base + 1, &parts.concat());
        }
    }
}

fn neighbor_transcript(engine: &mut Engine, style: NeighborStyle) -> Vec<u8> {
    let size = engine.world_size();
    let mut log = Vec::new();

    // 1D periodic ring: degenerate both-neighbors-same-peer pairing at
    // size 2, pure self-exchange at size 1.
    let ring = engine
        .cart_create(COMM_WORLD, &[size], &[true], false)
        .unwrap()
        .unwrap();
    neighbor_exchange(engine, ring, style, &mut log, 20);

    // 2D grid with one periodic and one open dimension (PROC_NULL
    // slots off the open edges).
    if size >= 4 && size.is_multiple_of(2) {
        let grid = engine
            .cart_create(COMM_WORLD, &[size / 2, 2], &[true, false], false)
            .unwrap()
            .unwrap();
        neighbor_exchange(engine, grid, style, &mut log, 30);
    }

    // Graph ring: same shape as the 1D cart but addressed through
    // adjacency lists (slot order differs from the cart slot order).
    if size >= 3 {
        let mut index = Vec::new();
        let mut edges = Vec::new();
        for r in 0..size {
            edges.push((r + size - 1) % size);
            edges.push((r + 1) % size);
            index.push(edges.len());
        }
        let graph = engine
            .graph_create(COMM_WORLD, &index, &edges, false)
            .unwrap()
            .unwrap();
        neighbor_exchange(engine, graph, style, &mut log, 40);
    }
    log
}

fn run_neighbor_transcript(config: UniverseConfig, style: NeighborStyle) -> Vec<Vec<u8>> {
    Universe::run_with_config(config, move |engine| neighbor_transcript(engine, style)).unwrap()
}

fn assert_neighbor_equivalence(
    make: impl Fn(usize) -> UniverseConfig,
    sizes: &[usize],
    label: &str,
) {
    for &size in sizes {
        let baseline = run_neighbor_transcript(make(size), NeighborStyle::HandRolled);
        for style in [NeighborStyle::Blocking, NeighborStyle::Nonblocking] {
            let got = run_neighbor_transcript(make(size), style);
            let which = if style == NeighborStyle::Blocking {
                "blocking"
            } else {
                "nonblocking"
            };
            assert_eq!(
                got, baseline,
                "{which} neighbor exchange diverged from hand-rolled: {label} size={size}"
            );
        }
    }
}

#[test]
fn neighbor_collectives_match_hand_rolled_on_shm_fast() {
    assert_neighbor_equivalence(
        |size| UniverseConfig::new(size, DeviceKind::ShmFast),
        &[1, 2, 4, 6],
        "shm-fast",
    );
}

#[test]
fn neighbor_collectives_match_hand_rolled_on_shm_p4() {
    assert_neighbor_equivalence(
        |size| UniverseConfig::new(size, DeviceKind::ShmP4),
        &[2, 4, 6],
        "shm-p4",
    );
}

#[test]
fn neighbor_collectives_match_hand_rolled_on_tcp() {
    assert_neighbor_equivalence(
        |size| UniverseConfig::new(size, DeviceKind::Tcp),
        &[2, 4, 6],
        "tcp",
    );
}

#[test]
fn neighbor_collectives_match_hand_rolled_on_hybrid_two_nodes() {
    assert_neighbor_equivalence(
        |size| {
            let nodes = NodeMap::from_assignment((0..size).map(|r| r / size.div_ceil(2)).collect());
            UniverseConfig::new(size, DeviceKind::Hybrid).with_nodes(nodes)
        },
        &[4, 6],
        "hybrid-2n",
    );
}

/// The sparse exchanges must also survive an all-rendezvous regime.
#[test]
fn neighbor_collectives_survive_a_tiny_eager_threshold() {
    assert_neighbor_equivalence(
        |size| {
            let mut config = UniverseConfig::new(size, DeviceKind::ShmFast);
            config.eager_threshold = Some(2);
            config
        },
        &[2, 4, 6],
        "shm-fast eager=2",
    );
}
