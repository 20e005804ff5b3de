//! The MPI_T-style observability subsystem, end to end:
//!
//! * event-trace integrity under the background progress thread —
//!   monotonic timestamps, balanced begin/end pairs, and event counts
//!   that agree exactly with the [`EngineStats`] counters — across the
//!   shared-memory, distributed-memory, and multi-fabric device
//!   classes;
//! * the metrics registry: `engine.*` pvars mirroring the counters,
//!   queue gauges, latency histograms, snapshot/reset semantics;
//! * `off` mode records nothing (and `counters` records no events but
//!   does feed the histograms);
//! * the fault drill of the acceptance criteria: a rank killed
//!   mid-allreduce over the spool device leaves per-rank JSONL trace
//!   files that `tracemerge` combines into valid Chrome `trace_event`
//!   JSON showing the collective rounds, the victim's observed
//!   heartbeats, and the survivors' `rank_failed` markers.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::time::Duration;

use mpi_bench::tracemerge;
use mpijava::rs::Communicator as _;
use mpijava::{
    DeviceKind, EngineStats, EventKind, EventPhase, MpiRuntime, NodeMap, Op, ProgressMode,
    TraceConfig, TraceEvent, TraceMode,
};

/// The three device classes of the integrity matrix (SM, DM, MM).
fn traced_runtimes(size: usize) -> Vec<(&'static str, MpiRuntime)> {
    vec![
        ("SM/shm-fast", MpiRuntime::new(size)),
        ("DM/tcp", MpiRuntime::new(size).device(DeviceKind::Tcp)),
        (
            "MM/hybrid-2node",
            MpiRuntime::new(size)
                .device(DeviceKind::Hybrid)
                .nodes(NodeMap::split(size, 2)),
        ),
    ]
}

/// A throwaway scratch directory (unique per test, cleaned by the test).
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mpijava-obs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Count events of one (kind, phase) pair.
fn count(events: &[TraceEvent], kind: EventKind, phase: EventPhase) -> u64 {
    events
        .iter()
        .filter(|e| e.kind == kind && e.phase == phase)
        .count() as u64
}

/// The integrity contract for one rank's ring against its counters.
fn assert_ring_integrity(label: &str, rank: usize, events: &[TraceEvent], stats: &EngineStats) {
    // Timestamps are monotonic (the ring is dumped oldest-first and
    // every record reads the engine's private monotonic clock).
    for pair in events.windows(2) {
        assert!(
            pair[0].ts_ns <= pair[1].ts_ns,
            "{label} rank {rank}: timestamps out of order ({} > {})",
            pair[0].ts_ns,
            pair[1].ts_ns
        );
    }
    // Every interval kind is balanced: as many E as B records.
    let mut begins: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut ends: BTreeMap<&'static str, u64> = BTreeMap::new();
    for e in events {
        match e.phase {
            EventPhase::Begin => *begins.entry(e.kind.name()).or_default() += 1,
            EventPhase::End => *ends.entry(e.kind.name()).or_default() += 1,
            EventPhase::Instant => {}
        }
    }
    for (kind, b) in &begins {
        assert_eq!(
            Some(b),
            ends.get(kind),
            "{label} rank {rank}: unbalanced begin/end for {kind}"
        );
    }
    for kind in ends.keys() {
        assert!(
            begins.contains_key(kind),
            "{label} rank {rank}: end without begin for {kind}"
        );
    }
    // Event counts agree exactly with the EngineStats counters (the
    // ring capacity is far above this workload, so nothing was
    // overwritten and the two tallies must be identical).
    let cases = [
        (EventKind::SendEager, EventPhase::Begin, stats.eager_sends),
        (
            EventKind::SendRendezvous,
            EventPhase::Begin,
            stats.rendezvous_sends,
        ),
        (
            EventKind::RecvPosted,
            EventPhase::Instant,
            stats.posted_hits,
        ),
        (
            EventKind::RecvUnexpected,
            EventPhase::Instant,
            stats.unexpected_hits,
        ),
        (EventKind::RmaPut, EventPhase::Instant, stats.rma_puts),
        (EventKind::RmaGet, EventPhase::Instant, stats.rma_gets),
        (EventKind::RmaEpoch, EventPhase::Instant, stats.epochs),
    ];
    for (kind, phase, counter) in cases {
        assert_eq!(
            count(events, kind, phase),
            counter,
            "{label} rank {rank}: {} events disagree with the counter",
            kind.name()
        );
    }
}

/// One workload touching every traced subsystem: an eager ring
/// exchange, a rendezvous ring exchange, an allreduce, and a fenced
/// RMA put epoch.
fn traced_workload(world: &mpijava::Intracomm, rank: usize, size: usize) -> mpijava::MpiResult<()> {
    let next = ((rank + 1) % size) as i32;
    let prev = ((rank + size - 1) % size) as i32;

    // Eager (64 B, far below the 1 KiB threshold the runtime pins).
    let small = vec![rank as u8; 64];
    let mut small_in = vec![0u8; 64];
    world.sendrecv(&small, next, 1, &mut small_in, prev, 1)?;

    // Rendezvous (8 KiB, far above it).
    let large = vec![rank as u8; 8 * 1024];
    let mut large_in = vec![0u8; 8 * 1024];
    world.sendrecv(&large, next, 2, &mut large_in, prev, 2)?;

    // A collective with a multi-round schedule.
    let send = vec![rank as i32; 128];
    let mut recv = vec![0i32; 128];
    world.all_reduce(&send, &mut recv, Op::sum())?;

    // A fenced one-sided epoch: everyone puts one byte into the
    // neighbor's window.
    let mut pane = vec![0u8; 64];
    {
        let mut win = world.win_create(&mut pane)?;
        win.fence()?;
        win.put(next as usize, 0, &[rank as u8])?;
        win.fence()?;
    }
    Ok(())
}

#[test]
fn event_rings_agree_with_counters_under_the_progress_thread() {
    const SIZE: usize = 4;
    for (label, runtime) in traced_runtimes(SIZE) {
        let runtime = runtime
            .eager_threshold(1024)
            .progress(ProgressMode::Thread)
            .trace(TraceConfig::events());
        let per_rank = runtime
            .run(|mpi| {
                let world = mpi.comm_world();
                let rank = world.rank()?;
                let size = world.size()?;
                traced_workload(&world, rank, size)?;
                // Quiesce before reading: a barrier ensures every
                // rendezvous ACK has shipped its data (closing the
                // SendRendezvous interval) on every rank.
                world.barrier()?;
                let events = mpi.with_engine(|e| e.trace_events());
                let stats = mpi.engine_stats();
                mpi.finalize()?;
                Ok((rank, events, stats))
            })
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        for (rank, events, stats) in per_rank {
            assert!(
                !events.is_empty(),
                "{label} rank {rank}: events mode recorded nothing"
            );
            assert_ring_integrity(label, rank, &events, &stats);
            // The workload guarantees activity in every traced class.
            assert!(stats.eager_sends >= 1, "{label} rank {rank}");
            assert!(stats.rendezvous_sends >= 1, "{label} rank {rank}");
            assert!(stats.rma_puts >= 1, "{label} rank {rank}");
            assert!(stats.epochs >= 2, "{label} rank {rank}");
            assert!(
                count(&events, EventKind::Coll, EventPhase::Begin) >= 1,
                "{label} rank {rank}: no collective interval"
            );
            assert!(
                count(&events, EventKind::CollRound, EventPhase::Begin) >= 1,
                "{label} rank {rank}: no collective rounds"
            );
        }
    }
}

#[test]
fn metrics_registry_mirrors_counters_and_feeds_histograms() {
    let per_rank = MpiRuntime::new(2)
        .eager_threshold(1024)
        .trace(TraceConfig::counters())
        .run(|mpi| {
            let world = mpi.comm_world();
            let rank = world.rank()?;
            let size = world.size()?;
            traced_workload(&world, rank, size)?;
            let snapshot = world.metrics_snapshot();
            let stats = world.stats();
            // Histograms then reset; counters must survive the reset.
            world.metrics_reset();
            let after = world.metrics_snapshot();
            mpi.finalize()?;
            Ok((rank, snapshot, stats, after))
        })
        .unwrap();
    for (rank, snapshot, stats, after) in per_rank {
        assert_eq!(snapshot.rank, rank);
        let pvar = |name: &str| {
            snapshot
                .pvar(name)
                .unwrap_or_else(|| panic!("rank {rank}: missing pvar {name}"))
        };
        assert_eq!(pvar("engine.eager_sends") as u64, stats.eager_sends);
        assert_eq!(
            pvar("engine.rendezvous_sends") as u64,
            stats.rendezvous_sends
        );
        assert_eq!(pvar("engine.rma_puts") as u64, stats.rma_puts);
        assert_eq!(pvar("engine.bytes_sent") as u64, stats.bytes_sent);
        // Queue gauges exist and have drained back to zero.
        assert_eq!(pvar("p2p.posted_depth"), 0);
        assert_eq!(pvar("p2p.unexpected_depth"), 0);
        assert_eq!(pvar("coll.outstanding"), 0);
        assert_eq!(pvar("rma.windows_open"), 0);
        // counters mode samples the p2p match latency.
        let hist = snapshot
            .histogram("p2p.latency")
            .expect("p2p.latency histogram");
        assert!(
            hist.count >= 1,
            "rank {rank}: latency histogram never sampled"
        );
        // Reset clears histograms but never the monotonic counters.
        assert_eq!(
            after.histogram("p2p.latency").map(|h| h.count),
            Some(0),
            "rank {rank}: reset left histogram samples"
        );
        assert_eq!(
            after.pvar("engine.eager_sends").map(|v| v as u64),
            Some(stats.eager_sends),
            "rank {rank}: reset clobbered a counter"
        );
    }
}

#[test]
fn off_mode_records_no_events_and_counters_mode_no_ring() {
    for (mode, label) in [(TraceMode::Off, "off"), (TraceMode::Counters, "counters")] {
        let trace = TraceConfig {
            mode,
            ..TraceConfig::default()
        };
        let per_rank = MpiRuntime::new(2)
            .eager_threshold(1024)
            .trace(trace)
            .run(|mpi| {
                let world = mpi.comm_world();
                let rank = world.rank()?;
                let size = world.size()?;
                traced_workload(&world, rank, size)?;
                let events = mpi.with_engine(|e| e.trace_events());
                let dumped = mpi.with_engine(|e| e.dump_trace())?;
                let stats = mpi.engine_stats();
                mpi.finalize()?;
                Ok((events, dumped, stats))
            })
            .unwrap();
        for (events, dumped, stats) in per_rank {
            assert!(events.is_empty(), "{label}: ring must stay empty");
            assert!(dumped.is_none(), "{label}: nothing to dump");
            // The always-on counters keep counting regardless of mode.
            assert!(stats.eager_sends >= 1);
            assert!(stats.rendezvous_sends >= 1);
        }
    }
}

#[test]
fn per_peer_liveness_gauges_surface_on_the_spool_device() {
    let root = scratch_dir("liveness");
    let per_rank = MpiRuntime::new(2)
        .device(DeviceKind::Spool)
        .spool_dir(&root)
        .trace(TraceConfig::counters())
        .run(|mpi| {
            let world = mpi.comm_world();
            world.barrier()?;
            let snapshot = world.metrics_snapshot();
            world.barrier()?;
            mpi.finalize()?;
            Ok(snapshot)
        })
        .unwrap();
    for snapshot in per_rank {
        let peer = 1 - snapshot.rank;
        let age = snapshot.pvar(&format!("failure.peer{peer}.heartbeat_age_ms"));
        let lease = snapshot.pvar(&format!("failure.peer{peer}.lease_ms"));
        let dead = snapshot.pvar(&format!("failure.peer{peer}.dead"));
        assert!(age.is_some(), "missing heartbeat age gauge for {peer}");
        assert!(lease.unwrap_or(0) > 0, "missing lease gauge for {peer}");
        assert_eq!(dead, Some(0), "live peer reported dead");
        // A freshly-heartbeating peer is well inside its lease.
        assert!(
            age.unwrap() <= lease.unwrap(),
            "peer {peer} heartbeat {age:?}ms older than its {lease:?}ms lease mid-job"
        );
    }
    std::fs::remove_dir_all(&root).unwrap();
}

/// The acceptance drill: rank 2 of 3 dies mid-allreduce over the spool
/// device. Every rank's ring reaches disk — the victim dumps
/// explicitly (it never finalizes, exactly like a real crash victim
/// with a signal handler), the survivors auto-dump at finalize — and
/// `tracemerge` combines them into valid Chrome trace JSON showing the
/// collective rounds, the victim's observed heartbeats, and the
/// survivors' `rank_failed` markers.
#[test]
fn killed_rank_mid_allreduce_leaves_a_mergeable_timeline() {
    const LEASE: Duration = Duration::from_millis(300);
    let root = scratch_dir("killdrill");
    let trace_dir = root.join("trace");
    let per_rank = MpiRuntime::new(3)
        .device(DeviceKind::Spool)
        .spool_dir(&root)
        .lease(LEASE)
        .trace(TraceConfig::events())
        .trace_dir(&trace_dir)
        .run(|mpi| {
            let world = mpi.comm_world();
            let rank = world.rank()?;
            // A clean collective first, so every ring (including the
            // victim's) holds coll/coll_round intervals.
            let send = vec![rank as i32; 64];
            let mut recv = vec![0i32; 64];
            world.all_reduce(&send, &mut recv, Op::sum())?;
            if rank == 2 {
                // Die mid-job: dump the ring (a finalize will never
                // run), then return — the endpoint drops and the lease
                // goes stale.
                mpi.dump_trace_to(mpi.with_engine(|e| e.trace_dir()).unwrap())?;
                return Ok(None);
            }
            let err = world
                .all_reduce(&send, &mut recv, Op::sum())
                .expect_err("the second allreduce names a dead rank");
            // The RankFailed error carries the observed staleness.
            let message = err.to_string();
            assert!(message.contains("rank 2 failed"), "{message}");
            assert!(message.contains("heartbeat"), "{message}");
            // Finalize auto-dumps this rank's ring into the trace dir.
            mpi.finalize()?;
            Ok(Some(message))
        })
        .unwrap();
    assert!(per_rank[0].is_some() && per_rank[1].is_some() && per_rank[2].is_none());

    // Three per-rank files, merged + validated through the same library
    // code the tracemerge binary runs.
    let traces = tracemerge::load_trace_dir(&trace_dir).expect("per-rank dumps");
    assert_eq!(traces.len(), 3, "one dump per rank");
    assert!(traces.iter().all(|t| t.mode == "events"));
    let out = root.join("trace.json");
    let summary = tracemerge::merge_dir_to_file(&trace_dir, &out).expect("merge + validate");
    assert_eq!(summary.tracks.len(), 3, "one timeline track per rank");
    for name in ["coll", "coll_round", "lease_observed", "rank_failed"] {
        assert!(
            summary.names.contains(name),
            "merged timeline is missing {name} events (has: {:?})",
            summary.names
        );
    }
    // The survivors (not the victim) carry the rank_failed markers.
    let text = std::fs::read_to_string(&out).unwrap();
    let doc = tracemerge::Json::parse(&text).unwrap();
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    let failed_tracks: std::collections::BTreeSet<i64> = events
        .iter()
        .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("rank_failed"))
        .filter_map(|e| e.get("tid").and_then(|t| t.as_i64()))
        .collect();
    assert_eq!(
        failed_tracks.into_iter().collect::<Vec<_>>(),
        vec![0, 1],
        "rank_failed markers sit on the survivors' tracks"
    );
    std::fs::remove_dir_all(&root).unwrap();
}

/// A dump directory with a rank's file missing (lost scratch volume,
/// crashed before its signal handler ran) must still merge and analyze:
/// the surviving tracks render, the causal pass tolerates the hole, and
/// the absent rank simply has no profile.
#[test]
fn merge_and_analysis_tolerate_a_missing_rank_dump() {
    let root = scratch_dir("missingrank");
    let trace_dir = root.join("trace");
    MpiRuntime::new(3)
        .eager_threshold(1024)
        .trace(TraceConfig::events())
        .trace_dir(&trace_dir)
        .run(|mpi| {
            let world = mpi.comm_world();
            let rank = world.rank()?;
            let size = world.size()?;
            traced_workload(&world, rank, size)?;
            mpi.finalize()?;
            Ok(())
        })
        .unwrap();

    // Lose rank 1's dump.
    let victim = trace_dir.join("trace-rank00001.jsonl");
    assert!(victim.exists(), "expected {}", victim.display());
    std::fs::remove_file(&victim).unwrap();

    let out = root.join("trace.json");
    let summary = tracemerge::merge_dir_to_file(&trace_dir, &out).expect("merge survives the hole");
    assert_eq!(
        summary.tracks.into_iter().collect::<Vec<_>>(),
        vec![0, 2],
        "only the surviving ranks have tracks"
    );

    let analysis = mpi_bench::causal::analyze_dir(&trace_dir).expect("analysis survives the hole");
    assert_eq!(analysis.ranks, vec![0, 2]);
    assert_eq!(analysis.world_size, 3, "meta still names the full world");
    assert!(analysis.profile(0).is_some() && analysis.profile(2).is_some());
    assert!(analysis.profile(1).is_none(), "no dump, no profile");
    // The report renders without panicking on the gap.
    let _ = analysis.render_report();
    std::fs::remove_dir_all(&root).unwrap();
}

/// Regression: a `coll` Begin event is labelled with the (operation,
/// algorithm) pair its schedule was planned with, in every call mode.
/// The label used to travel through a side channel that `*_init` left
/// stale (the next collective was traced as the init's operation),
/// that operations without a selection step never wrote (`unknown`),
/// and that persistent starts never saw (`unknown`).
#[test]
fn coll_events_carry_the_planned_operation_in_every_call_mode() {
    use mpi_native::coll::{CollDesc, Payload, Reduction};
    use mpi_native::comm::COMM_WORLD;
    use mpi_native::{CollOp, PredefinedOp, PrimitiveKind, Universe, UniverseConfig};
    let config = UniverseConfig {
        trace: TraceConfig::events(),
        ..UniverseConfig::new(2, DeviceKind::ShmFast)
    };
    let per_rank = Universe::run_with_config(config, |engine| {
        let sum = mpi_native::Op::Predefined(PredefinedOp::Sum);
        let one = 1i32.to_le_bytes();
        let red = Reduction::owned(PrimitiveKind::Int, 1, &sum);
        let persistent = engine
            .coll_init(COMM_WORLD, CollDesc::Allreduce(red), None)
            .unwrap();
        let chunks = Payload::Chunks(Some(&[vec![1], vec![2]]));
        engine
            .coll_run(COMM_WORLD, &CollDesc::Alltoall, chunks)
            .unwrap();
        let scan = CollDesc::Scan(Reduction::borrowed(PrimitiveKind::Int, 1, &sum));
        engine
            .coll_run(COMM_WORLD, &scan, Payload::Bytes(&one))
            .unwrap();
        for _ in 0..2 {
            engine.start(persistent, Cow::Borrowed(&one)).unwrap();
            engine.wait(persistent).unwrap();
        }
        engine.request_free(persistent).unwrap();
        engine.trace_events()
    })
    .unwrap();
    let expected = [
        CollOp::Alltoall,
        CollOp::Scan,
        CollOp::Allreduce,
        CollOp::Allreduce,
    ]
    .map(|op| op.index() as i64);
    for (rank, events) in per_rank.iter().enumerate() {
        let begins: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| e.kind == EventKind::Coll && e.phase == EventPhase::Begin)
            .collect();
        let ops: Vec<i64> = begins.iter().map(|e| e.a).collect();
        assert_eq!(ops, expected, "rank {rank}: coll Begin op labels");
        assert!(
            begins.iter().all(|e| e.b >= 0),
            "rank {rank}: a planned collective was traced without its algorithm"
        );
    }
}

/// One job configuration, two launchers. The same settings given to
/// `UniverseConfig::with_*` and to the `MpiRuntime` builder (a view of
/// the same struct) must configure identical engines, and the two
/// launchers must fail identically: `MpiRuntime` used to rebuild the
/// fabric and the panic tail by hand, so a zero-rank job was a
/// `Transport` error there and a rank panic lost its rank.
#[test]
fn universe_and_mpiruntime_are_one_launcher() {
    use mpi_native::{CollAlgorithm, Engine, ErrorClass, Universe, UniverseConfig};
    type Knobs = (usize, Option<CollAlgorithm>, TraceConfig, Vec<usize>);
    fn knobs(engine: &Engine) -> Knobs {
        let placement: Vec<usize> = (0..engine.world_size())
            .map(|rank| engine.node_map().node_of(rank))
            .collect();
        (
            engine.eager_threshold(),
            engine.coll_algorithm(),
            engine.trace_config(),
            placement,
        )
    }
    let trace = TraceConfig::events().with_capacity(512);
    let mut config = UniverseConfig {
        eager_threshold: 4096,
        coll_algorithm: Some(CollAlgorithm::Ring),
        trace,
        ..UniverseConfig::new(4, DeviceKind::Hybrid)
    };
    config.fabric.nodes = NodeMap::regular(2, 2);
    let runtime = MpiRuntime::new(4)
        .device(DeviceKind::Hybrid)
        .eager_threshold(4096)
        .coll_algorithm(CollAlgorithm::Ring)
        .trace(trace)
        .nodes(NodeMap::regular(2, 2));
    let from_universe = Universe::run_with_config(config, |engine| knobs(engine)).unwrap();
    let from_runtime = runtime
        .run(|mpi| Ok(mpi.with_engine(|engine| knobs(engine))))
        .unwrap();
    assert_eq!(from_universe, from_runtime);
    let ring = Some(CollAlgorithm::Ring);
    let expected: Knobs = (4096, ring, trace, vec![0, 0, 1, 1]);
    assert_eq!(from_universe, vec![expected; 4]);

    // A job of zero ranks is the caller's mistake, whoever launches it.
    let universe = Universe::run(0, DeviceKind::ShmFast, |_| ()).unwrap_err();
    let runtime = MpiRuntime::new(0).run(|_| Ok(())).unwrap_err();
    assert_eq!(universe.class, ErrorClass::Arg);
    assert_eq!(
        (runtime.class, runtime.message),
        (universe.class, universe.message)
    );

    // A rank panic names the rank and carries the message. Rank 0 blocks
    // in a receive only the abort can end, so the error is rank 1's.
    let universe = Universe::run(2, DeviceKind::ShmFast, |engine| {
        if engine.world_rank() == 1 {
            panic!("boom {}", 7);
        }
        let _ = engine.recv(mpi_native::COMM_WORLD, 1, 99, None);
    })
    .unwrap_err();
    let runtime = MpiRuntime::new(2)
        .run(|mpi| {
            let world = mpi.comm_world();
            if world.rank()? == 1 {
                panic!("boom {}", 7);
            }
            let _ = world.recv_into(&mut [0u8; 1], 1, 99);
            Ok(())
        })
        .unwrap_err();
    assert_eq!(universe.class, ErrorClass::Aborted);
    assert_eq!(universe.message, "rank 1 panicked: boom 7");
    assert_eq!(
        (runtime.class, runtime.message),
        (universe.class, universe.message)
    );
}
