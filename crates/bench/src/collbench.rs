//! The collective cells `benchmark/` cannot run: they need more than two
//! ranks, a modelled link or a second progress mode. Each kind backs a
//! gate of the `collectives` binary:
//!
//! * [`measure_overlap`] — how much of an `iallreduce` hides behind
//!   injected compute, under manual and thread progress;
//! * [`measure_persistent`] — a persistent allreduce against its
//!   transient twin;
//! * [`run_hier_suite`] — the hierarchical collectives against the flat
//!   algorithms over a hybrid two-node fabric.
//!
//! [`measure`] is the one flat latency cell left: the `ablations` binary
//! prints the algorithm axis with it.
//!
//! Every measurement runs through the `mpijava` wrapper (the paper's
//! stack), with the engine's collective algorithm either left to the
//! tuned selector (`"auto"`) or pinned per run via
//! [`MpiRuntime::coll_algorithm`]. The reduction payload is `MPI.INT`
//! with `MPI.SUM`, whose order policy admits every algorithm. Cells whose
//! pinned algorithm cannot implement the operation are skipped
//! ([`algorithm_applies`]) rather than silently measuring the tuned
//! fallback under a wrong label.
//!
//! ## The modelled link
//!
//! [`measure`] attaches a [`DeviceProfile`] charging [`LINK_NS_PER_BYTE`]
//! per payload byte plus [`LINK_PER_MESSAGE_US`] per frame on the send
//! path — a ~256 MB/s link. The charge occupies the modelled *link*, not
//! the CPU (it yields while waiting), so transfers on different rank
//! pairs overlap in wall time exactly as independent links do. This
//! matters because collective algorithm choice is about link-level
//! concurrency: on a CI container with fewer cores than ranks, raw wall
//! clock degenerates to total-bytes-moved (identical across algorithms)
//! and measures only scheduler noise.

use std::time::{Duration, Instant};

use mpijava::{
    CollAlgorithm, Datatype, DeviceKind, DeviceProfile, MpiRuntime, NetworkModel, NodeMap, Op,
    ProgressMode, TraceConfig,
};

/// Modelled link cost per payload byte (4 ns/B ≈ a 256 MB/s link — the
/// bandwidth regime of the paper's SM-mode curves, scaled up a decade).
pub const LINK_NS_PER_BYTE: f64 = 4.0;
/// Modelled fixed cost per frame (microseconds).
pub const LINK_PER_MESSAGE_US: u64 = 1;

/// The default modelled link (see the module docs).
pub fn modelled_link() -> DeviceProfile {
    DeviceProfile {
        per_message_cost: std::time::Duration::from_micros(LINK_PER_MESSAGE_US),
        per_byte_cost_ns: LINK_NS_PER_BYTE,
    }
}

/// The same ~256 MB/s link as [`modelled_link`], expressed as a
/// [`NetworkModel`] (frames held until their due instant) instead of a
/// [`DeviceProfile`] (busy-wait on the send path). The distinction is
/// what the overlap cells exist to measure: a `DeviceProfile` charge
/// occupies the *sending thread*, so no amount of nonblocking API can
/// hide it behind compute; the `NetworkModel` charge occupies the
/// *link* — the sender returns immediately and the payload arrives
/// `latency + bytes/bandwidth` later — which is how real interconnect
/// hardware behaves and what communication/computation overlap can
/// actually hide.
pub fn modelled_overlap_link() -> NetworkModel {
    NetworkModel::new(
        Duration::from_micros(LINK_PER_MESSAGE_US),
        1e9 / LINK_NS_PER_BYTE,
    )
}

/// One measured cell of the hybrid-fabric sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CollRecord {
    /// Collective name: `bcast`, `allreduce`.
    pub op: String,
    /// Fabric label (`hybrid-2n`, `hybrid-4n`).
    pub device: String,
    /// Algorithm label (`auto` for the tuned selector).
    pub algorithm: String,
    /// Total payload bytes of the collective.
    pub payload_bytes: usize,
    /// Wall microseconds per collective call (rank 0, steady state).
    pub us_per_op: f64,
}

/// One measured cell of the communication/computation overlap bench:
/// how much of an `iallreduce`'s communication time the rank can hide
/// behind injected compute. Under [`ProgressMode::Manual`] the
/// collective is progressed by periodic `test()` calls (progress
/// happens inside `test`/`wait`, the default model); under
/// [`ProgressMode::Thread`] the background progress thread drives the
/// schedule and the compute loop makes **zero** manual `test()` calls.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlapRecord {
    /// Device label (`shm-fast`, ...).
    pub device: String,
    /// Algorithm label (`auto` for the tuned selector).
    pub algorithm: String,
    /// Progress mode label (`manual` or `thread`).
    pub progress: String,
    /// Manual `test()` calls issued per overlapped operation (0 under
    /// the progress thread — that is the cell's point).
    pub manual_tests_per_op: u64,
    /// Total payload bytes of the allreduce.
    pub payload_bytes: usize,
    /// Communicator size.
    pub ranks: usize,
    /// Blocking `allreduce` wall time (µs, rank 0 mean).
    pub comm_us: f64,
    /// Injected compute alone (µs).
    pub compute_us: f64,
    /// `iallreduce` + chunked compute + `wait` wall time (µs).
    pub overlapped_us: f64,
    /// Fraction of the communication time hidden behind the compute:
    /// `(comm + compute - overlapped) / comm`, clamped to [0, 1].
    pub overlap_ratio: f64,
}

/// Measure one overlap cell (see [`OverlapRecord`]). The collective runs
/// over the due-time [`modelled_overlap_link`]; the injected compute is
/// a thread sleep (the thread is genuinely unavailable for MPI progress,
/// which is the property that matters, and it stays robust on
/// oversubscribed CI machines). The compute is sized at ~1.5× the
/// measured blocking communication time and split into ~24 chunks; under
/// [`ProgressMode::Manual`] a `test()` call runs between chunks, under
/// [`ProgressMode::Thread`] the chunks are pure sleep — zero manual
/// progress calls, the background thread does all of it.
pub fn measure_overlap(
    device: DeviceKind,
    alg: Option<CollAlgorithm>,
    ranks: usize,
    payload_bytes: usize,
    reps: usize,
    progress: ProgressMode,
) -> OverlapRecord {
    let link = modelled_overlap_link();
    let mut runtime = MpiRuntime::new(ranks)
        .device(device)
        .network(link)
        .eager_threshold(1 << 22)
        .progress(progress);
    if let Some(alg) = alg {
        runtime = runtime.coll_algorithm(alg);
    }
    let per_rank = runtime
        .run(move |mpi| {
            use mpijava::rs::Communicator as _;
            let world = mpi.comm_world();
            let rank = world.rank()?;
            let count = (payload_bytes / 4).max(1);
            let send: Vec<i32> = (0..count as i32)
                .map(|i| i.wrapping_mul(rank as i32 + 1))
                .collect();
            let mut recv = vec![0i32; count];

            // Warm up once, then measure the full
            // (comm, compute, overlapped) triple in three independent
            // rounds and keep the round that hid the most — the same
            // best-of-N discipline the latency cells use, applied to
            // the whole triple at once so the three phases of the
            // winning round share one scheduling regime instead of
            // being cherry-picked from different ones.
            world.all_reduce(&send, &mut recv, Op::sum())?;
            let mut best: Option<(f64, f64, f64)> = None;
            for _ in 0..3 {
                // Blocking communication time.
                world.barrier()?;
                let start = Instant::now();
                for _ in 0..reps {
                    world.all_reduce(&send, &mut recv, Op::sum())?;
                }
                world.barrier()?;
                let comm_us = start.elapsed().as_secs_f64() * 1e6 / reps as f64;

                // Inject ~1.5x that much compute. In manual mode it is
                // split into chunks with a test() between them so the
                // schedule advances while "computing"; under the
                // progress thread the compute is one solid block — no
                // progress calls, no artificial chunking — which is
                // exactly the usage the mode exists for. The compute
                // time is *measured*, not assumed: OS sleep granularity
                // overshoots short chunks, and the overlap arithmetic
                // needs the real injected duration.
                let chunks = if progress == ProgressMode::Manual {
                    24usize
                } else {
                    1usize
                };
                let chunk = Duration::from_secs_f64(comm_us * 1.5 / chunks as f64 / 1e6);
                world.barrier()?;
                let start = Instant::now();
                for _ in 0..reps {
                    for _ in 0..chunks {
                        std::thread::sleep(chunk);
                    }
                }
                // Close with a barrier exactly like the other two
                // phases do, so the barrier's cost cancels out of
                // `overlapped - compute` instead of being billed as
                // unhidden communication.
                world.barrier()?;
                let compute_us = start.elapsed().as_secs_f64() * 1e6 / reps as f64;

                world.barrier()?;
                let start = Instant::now();
                for _ in 0..reps {
                    let mut req = world.iall_reduce(&send, &mut recv, Op::sum())?;
                    for _ in 0..chunks {
                        std::thread::sleep(chunk); // the injected compute
                        if progress == ProgressMode::Manual {
                            let _ = req.test()?; // progress the schedule
                        }
                    }
                    req.wait()?;
                }
                world.barrier()?;
                let overlapped_us = start.elapsed().as_secs_f64() * 1e6 / reps as f64;

                let hidden = |(c, k, o): (f64, f64, f64)| ((c + k - o) / c).clamp(0.0, 1.0);
                let round = (comm_us, compute_us, overlapped_us);
                if best.is_none_or(|b| hidden(round) > hidden(b)) {
                    best = Some(round);
                }
            }
            Ok(best.expect("at least one overlap round"))
        })
        .expect("overlap bench run");
    let (comm_us, compute_us, overlapped_us) = per_rank[0];
    let hidden = (comm_us + compute_us - overlapped_us).max(0.0);
    OverlapRecord {
        device: device.label().to_string(),
        algorithm: algorithm_label(alg),
        progress: progress.to_string(),
        manual_tests_per_op: if progress == ProgressMode::Manual {
            24
        } else {
            0
        },
        payload_bytes,
        ranks,
        comm_us,
        compute_us,
        overlapped_us,
        overlap_ratio: (hidden / comm_us).clamp(0.0, 1.0),
    }
}

/// One measured cell of the persistent-collective bench: per-call
/// latency of a persistent allreduce (`all_reduce_init` once, then
/// `start()`/`wait()` per call over the cached schedule template)
/// against its transient twin (`all_reduce` per call, which re-enters
/// argument validation, algorithm dispatch, and the schedule-cache
/// lookup every time). Raw wall clock, no modelled link — the cell
/// exists to expose exactly the per-call software overhead the
/// persistent path amortizes, which a modelled link charge would
/// drown. Beside the times, the engine's schedule-cache counters over
/// the timed persistent loops: a start that replays its pinned template
/// looks nothing up and adds no hit and no miss, so any count there is
/// a re-plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistentRecord {
    /// Device label (`shm-fast`, ...).
    pub device: String,
    /// Total payload bytes of the allreduce.
    pub payload_bytes: usize,
    /// Communicator size.
    pub ranks: usize,
    /// Transient `all_reduce` wall microseconds per call (rank 0, best
    /// of three windows).
    pub transient_us: f64,
    /// Persistent `start()`+`wait()` wall microseconds per call.
    pub persistent_us: f64,
    /// `transient_us / persistent_us` (>1 = persistent faster).
    pub speedup: f64,
    /// Persistent `start()`s in the timed loops (rank 0).
    pub starts: u64,
    /// `sched_cache_hits` those loops added (rank 0).
    pub sched_cache_hits: u64,
    /// `sched_cache_misses` those loops added (rank 0).
    pub sched_cache_misses: u64,
}

/// Measure one persistent-vs-transient allreduce cell (see
/// [`PersistentRecord`]). Both paths are warmed first so the schedule
/// cache and staging pools are in steady state; each is then timed as
/// the best of three barrier-fenced windows of `reps` calls.
pub fn measure_persistent(
    device: DeviceKind,
    ranks: usize,
    payload_bytes: usize,
    reps: usize,
    warmup: usize,
) -> PersistentRecord {
    let runtime = MpiRuntime::new(ranks)
        .device(device)
        .eager_threshold(1 << 20);
    let per_rank = runtime
        .run(move |mpi| {
            use mpijava::rs::Communicator as _;
            let world = mpi.comm_world();
            let rank = world.rank()?;
            let count = (payload_bytes / 4).max(1);
            let send: Vec<i32> = (0..count as i32)
                .map(|i| i.wrapping_mul(rank as i32 + 1))
                .collect();
            let mut recv = vec![0i32; count];

            for _ in 0..warmup {
                world.all_reduce(&send, &mut recv, Op::sum())?;
            }
            let mut transient_us = f64::INFINITY;
            let mut persistent_us = f64::INFINITY;
            let (mut hits, mut misses) = (0, 0);
            {
                // The persistent handle owns its receive borrow for
                // its whole lifetime, so the transient side keeps its
                // own buffer.
                let mut precv = vec![0i32; count];
                let mut req = world.all_reduce_init(&send, &mut precv, Op::sum())?;
                for _ in 0..warmup {
                    req.start()?;
                    req.wait()?;
                }
                // Interleave the windows (transient, persistent,
                // transient, ...) rather than running one side's three
                // windows back to back: any slow phase of the host —
                // frequency drift, a background task — then lands on
                // both sides instead of silently biasing whichever ran
                // through it.
                for _ in 0..3 {
                    world.barrier()?;
                    let start = Instant::now();
                    for _ in 0..reps {
                        world.all_reduce(&send, &mut recv, Op::sum())?;
                    }
                    world.barrier()?;
                    transient_us =
                        transient_us.min(start.elapsed().as_secs_f64() * 1e6 / reps as f64);

                    world.barrier()?;
                    let before = mpi.engine_stats();
                    let start = Instant::now();
                    for _ in 0..reps {
                        req.start()?;
                        req.wait()?;
                    }
                    let after = mpi.engine_stats();
                    world.barrier()?;
                    hits += after.sched_cache_hits - before.sched_cache_hits;
                    misses += after.sched_cache_misses - before.sched_cache_misses;
                    persistent_us =
                        persistent_us.min(start.elapsed().as_secs_f64() * 1e6 / reps as f64);
                }
                req.free()?;
            }
            Ok((transient_us, persistent_us, hits, misses))
        })
        .expect("persistent bench run");
    let (transient_us, persistent_us, sched_cache_hits, sched_cache_misses) = per_rank[0];
    PersistentRecord {
        device: device.label().to_string(),
        payload_bytes,
        ranks,
        transient_us,
        persistent_us,
        speedup: transient_us / persistent_us,
        starts: 3 * reps as u64,
        sched_cache_hits,
        sched_cache_misses,
    }
}

fn algorithm_label(alg: Option<CollAlgorithm>) -> String {
    alg.map_or_else(|| "auto".to_string(), |a| a.label().to_string())
}

/// Measure one (op, algorithm, payload) cell on `shm-fast` over the
/// [`modelled_link`]: microseconds per call, best of three timed
/// windows, each opened *and closed* by a barrier so the clock covers
/// the whole collective completing on every rank (not just the
/// measuring rank's local part).
///
/// The eager threshold is raised above every measured payload:
/// collective schedules post their receives before the matching sends,
/// so the rendezvous handshake would be pure per-hop overhead here, and
/// real MPI implementations use separate (higher) protocol switch-over
/// points for collectives for exactly that reason.
pub fn measure(
    op: &'static str,
    alg: Option<CollAlgorithm>,
    ranks: usize,
    payload_bytes: usize,
    reps: usize,
    warmup: usize,
) -> f64 {
    // Tracing pinned off so an ambient MPIJAVA_TRACE cannot change what
    // a row measures (same rule as the algorithm axis).
    let mut runtime = MpiRuntime::new(ranks)
        .device(DeviceKind::ShmFast)
        .profile(modelled_link())
        .eager_threshold(1 << 20)
        .trace(TraceConfig::off());
    if let Some(alg) = alg {
        runtime = runtime.coll_algorithm(alg);
    }
    measure_runtime(runtime, op, payload_bytes, reps, warmup)
}

/// [`measure`] against a fully-built runtime — also the entry point for
/// the hybrid-fabric (`hier`-vs-flat) cells, whose runtimes carry a node
/// map and an inter-node link model rather than a flat device profile.
pub fn measure_runtime(
    runtime: MpiRuntime,
    op: &'static str,
    payload_bytes: usize,
    reps: usize,
    warmup: usize,
) -> f64 {
    let per_rank = runtime
        .run(move |mpi| {
            let world = mpi.comm_world();
            let rank = world.rank()?;
            let size = world.size()?;
            let count = (payload_bytes / 4).max(1);
            let send: Vec<i32> = (0..count as i32)
                .map(|i| i.wrapping_mul(rank as i32 + 1))
                .collect();
            let mut recv = vec![0i32; count];
            let mut bytes = vec![rank as u8; payload_bytes.max(1)];
            let contrib_count = (count / size).max(1);
            let contrib = vec![rank as i32; contrib_count];
            let mut gathered = vec![0i32; contrib_count * size];
            let mut run_once = || -> mpijava::MpiResult<()> {
                match op {
                    "barrier" => world.barrier(),
                    "bcast" => {
                        let len = bytes.len();
                        world.bcast(&mut bytes, 0, len, &Datatype::byte(), 0)
                    }
                    "allreduce" => {
                        world.allreduce(&send, 0, &mut recv, 0, count, &Datatype::int(), &Op::sum())
                    }
                    "allgather" => world.allgather(
                        &contrib,
                        0,
                        contrib_count,
                        &Datatype::int(),
                        &mut gathered,
                        0,
                        contrib_count,
                        &Datatype::int(),
                    ),
                    other => panic!("unknown collective {other}"),
                }
            };
            for _ in 0..warmup {
                run_once()?;
            }
            let mut best = f64::INFINITY;
            for _ in 0..3 {
                world.barrier()?;
                let start = Instant::now();
                for _ in 0..reps {
                    run_once()?;
                }
                world.barrier()?;
                best = best.min(start.elapsed().as_secs_f64() * 1e6 / reps as f64);
            }
            Ok(best)
        })
        .expect("collective bench run");
    per_rank[0]
}

/// Can a pinned algorithm implement a benched op on `ranks` ranks at
/// all? (The benched workloads — byte bcast, `MPI.INT` + `MPI.SUM`
/// reductions — all carry the `Any` order policy, so only the op/size
/// and topology axes matter.) `hierarchical` describes the fabric the
/// cell runs over (`true` for the hybrid hier-vs-flat cells). Mirrors
/// the engine's own applicability rules; cells that fail this are
/// skipped so no row mislabels a fallback run.
pub fn algorithm_applies(
    alg: Option<CollAlgorithm>,
    op: &str,
    ranks: usize,
    hierarchical: bool,
) -> bool {
    use mpi_native::coll::tuning::{supported, CollOp, OrderPolicy, TopoHint};
    let Some(alg) = alg else {
        return true; // "auto" always applies
    };
    let coll_op = match op {
        "barrier" => CollOp::Barrier,
        "bcast" => CollOp::Bcast,
        "allreduce" => CollOp::Allreduce,
        "allgather" => CollOp::Allgather,
        other => panic!("unknown collective {other}"),
    };
    let topo = TopoHint {
        hierarchical,
        contiguous: true,
    };
    supported(alg, coll_op, ranks, OrderPolicy::Any, topo)
}

/// The modelled inter-node link of the hybrid cells: the due-time
/// gigabit model (125 MB/s, 30 µs one-way latency). Deliberately slower
/// than the ~256 MB/s intra-fabric model — an inter-node link *is* the
/// slow resource, and making it genuinely slower than the memcpy-bound
/// intra-node floor is what lets the cells resolve the quantity the
/// hierarchical algorithms optimize: inter-node traversals per byte.
pub fn modelled_internode_link() -> NetworkModel {
    NetworkModel::gigabit()
}

/// Specification of the hybrid-fabric `hier`-vs-flat sweep: for each
/// node count, `ranks` are block-placed onto that many nodes, intra-node
/// traffic is free (shm-class) and inter-node traffic crosses the
/// due-time [`modelled_internode_link`] — so the numbers isolate exactly
/// the quantity the hierarchical algorithms optimize, inter-node
/// traversals per byte.
#[derive(Debug, Clone)]
pub struct HierBenchSpec {
    pub ranks: usize,
    /// Node counts to sweep (ranks block-split across each).
    pub node_counts: Vec<usize>,
    /// `None` = tuned (`auto`, which picks hier on these fabrics);
    /// pinned algorithms for the flat baselines.
    pub algorithms: Vec<Option<CollAlgorithm>>,
    pub ops: Vec<&'static str>,
    pub payloads: Vec<usize>,
    pub reps: usize,
    pub warmup: usize,
}

impl Default for HierBenchSpec {
    fn default() -> HierBenchSpec {
        HierBenchSpec {
            ranks: 8,
            node_counts: vec![2, 4],
            algorithms: vec![
                None,
                Some(CollAlgorithm::Hierarchical),
                Some(CollAlgorithm::BinomialTree),
                Some(CollAlgorithm::Linear),
            ],
            ops: vec!["allreduce", "bcast"],
            payloads: vec![1024, 64 * 1024, 256 * 1024, 1024 * 1024],
            reps: 5,
            warmup: 2,
        }
    }
}

/// One cell of the hybrid-fabric sweep: `ranks` block-placed on
/// `nodes` nodes, free intra-node fabric, gigabit due-time inter-node
/// link (see [`HierBenchSpec`]). Exposed separately so a gate can
/// re-measure a single pair in fresh processes when a first sample
/// lands badly on a loaded host.
pub fn measure_hier_cell(
    ranks: usize,
    nodes: usize,
    alg: Option<CollAlgorithm>,
    op: &'static str,
    payload: usize,
    reps: usize,
    warmup: usize,
) -> f64 {
    let mut runtime = MpiRuntime::new(ranks)
        .device(DeviceKind::Hybrid)
        .nodes(NodeMap::split(ranks, nodes))
        .inter_network(modelled_internode_link())
        .eager_threshold(1 << 22);
    if let Some(alg) = alg {
        runtime = runtime.coll_algorithm(alg);
    }
    measure_runtime(runtime, op, payload, reps, warmup)
}

/// Run the hybrid-fabric sweep; cells are labelled
/// `device = "hybrid-<nodes>n"`. `progress` fires once per finished
/// cell.
pub fn run_hier_suite(
    spec: &HierBenchSpec,
    mut progress: impl FnMut(&CollRecord),
) -> Vec<CollRecord> {
    let mut records = Vec::new();
    // The algorithm axis is the *innermost* loop so the cells a gate
    // compares (hier vs the flat tree at one payload) run back to back
    // under the same host conditions — spreading them across the sweep
    // lets load drift masquerade as an algorithmic difference.
    for &nodes in &spec.node_counts {
        let device_label = format!("hybrid-{nodes}n");
        for op in spec.ops.iter().copied() {
            for &payload in &spec.payloads {
                for &alg in &spec.algorithms {
                    if !algorithm_applies(alg, op, spec.ranks, true) {
                        continue;
                    }
                    let us = measure_hier_cell(
                        spec.ranks,
                        nodes,
                        alg,
                        op,
                        payload,
                        spec.reps,
                        spec.warmup,
                    );
                    let record = CollRecord {
                        op: op.to_string(),
                        device: device_label.clone(),
                        algorithm: algorithm_label(alg),
                        payload_bytes: payload,
                        us_per_op: us,
                    };
                    progress(&record);
                    records.push(record);
                }
            }
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny overlap cell completes and reports a sane ratio (the
    /// headline ≥50% claim is asserted at full scale by the
    /// `collectives` binary, not here — CI machines are small).
    #[test]
    fn overlap_cell_measures_without_hanging() {
        let record = measure_overlap(
            DeviceKind::ShmFast,
            None,
            2,
            64 * 1024,
            1,
            ProgressMode::Manual,
        );
        assert!(record.comm_us > 0.0);
        assert!(record.compute_us > 0.0);
        assert!(record.overlapped_us > 0.0);
        assert!((0.0..=1.0).contains(&record.overlap_ratio));
        assert_eq!(record.progress, "manual");
    }

    /// The thread-mode overlap cell completes with zero manual test()
    /// calls and still reports a sane ratio.
    #[test]
    fn thread_mode_overlap_cell_needs_no_manual_tests() {
        let record = measure_overlap(
            DeviceKind::ShmFast,
            None,
            2,
            64 * 1024,
            1,
            ProgressMode::Thread,
        );
        assert_eq!(record.manual_tests_per_op, 0);
        assert_eq!(record.progress, "thread");
        assert!((0.0..=1.0).contains(&record.overlap_ratio));
    }

    /// A tiny persistent cell completes and reports both latencies (the
    /// persistent ≤ transient gate runs at real scale in the
    /// `collectives` binary), and every timed start replayed its template
    /// without planning: no cache hit, no miss.
    #[test]
    fn persistent_cell_measures_without_hanging() {
        let record = measure_persistent(DeviceKind::ShmFast, 2, 1024, 5, 2);
        assert!(record.transient_us > 0.0);
        assert!(record.persistent_us > 0.0);
        assert!(record.speedup > 0.0);
        assert_eq!(record.starts, 15);
        assert_eq!(record.sched_cache_hits, 0);
        assert_eq!(record.sched_cache_misses, 0);
    }

    /// A pinned algorithm that cannot run an op is skipped, not timed
    /// under a wrong label; one that can is measured.
    #[test]
    fn inapplicable_cells_are_skipped_and_applicable_ones_measure() {
        let tree = Some(CollAlgorithm::BinomialTree);
        assert!(!algorithm_applies(tree, "allgather", 2, false));
        assert!(algorithm_applies(tree, "allreduce", 2, false));
        assert!(algorithm_applies(None, "allgather", 2, false));
        assert!(measure("allreduce", tree, 2, 256, 2, 1) > 0.0);
        assert!(measure("barrier", None, 2, 0, 2, 1) > 0.0);
    }
}
