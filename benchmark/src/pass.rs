//! One pass: bring the ranks up under the harness rules, warm up, time
//! windows until the budget is used, verify, tear down.

use std::time::{Duration, Instant};

use mpi_transport::{DeviceKind, Fabric, FabricConfig};
use mpijava::{JniConfig, MarshalMode, MpiResult, MpiRuntime, TraceConfig, MPI};

use crate::harness::{Budget, Gate, Meter, Span, StopOnDrop, WindowRec};
use crate::kernels::{Echo, Kernel};
use crate::stats::median;
use crate::sys::{pin_to_core, Usage};
use crate::workloads::KernelSpec;

/// Engine and jni counters of one rank. Indexed by the constants below
/// so that deltas and cross-rank sums are one loop.
pub type Counts = [u64; 9];
pub const MSGS: usize = 0;
pub const RENDEZVOUS: usize = 1;
pub const BYTES_COPIED: usize = 2;
pub const POSTED_HITS: usize = 3;
pub const UNEXPECTED_HITS: usize = 4;
pub const SCHED_HITS: usize = 5;
pub const SCHED_MISSES: usize = 6;
pub const JNI_CALLS: usize = 7;
pub const JNI_BYTES: usize = 8;

fn read_counts(mpi: &MPI) -> Counts {
    let e = mpi.engine_stats();
    let j = mpi.jni_stats();
    [
        e.eager_sends + e.rendezvous_sends,
        e.rendezvous_sends,
        e.bytes_copied,
        e.posted_hits,
        e.unexpected_hits,
        e.sched_cache_hits,
        e.sched_cache_misses,
        j.calls,
        j.bytes_in + j.bytes_out,
    ]
}

/// How long a pass warms up and measures, and what it records.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub warm: Budget,
    pub timed: Budget,
    /// Record spans (first operation of every window).
    pub traced: bool,
    /// Corrupt the first expected value on rank 0 (`--inject-fail`).
    pub inject: bool,
}

impl Plan {
    /// Warm up for 5% of `seconds`, then measure for `seconds`.
    pub fn timed(seconds: f64, smoke: bool) -> Plan {
        let budget = |share: f64, smoke_windows| Budget {
            time: Duration::from_secs_f64(seconds * share),
            max_windows: if smoke { smoke_windows } else { usize::MAX },
        };
        Plan {
            warm: budget(0.05, 2),
            timed: budget(1.0, 8),
            traced: false,
            inject: false,
        }
    }

    /// A fixed number of windows, for passes that only count.
    pub fn counted(windows: usize) -> Plan {
        let budget = |max_windows| Budget {
            time: Duration::MAX,
            max_windows,
        };
        Plan {
            warm: budget(1),
            timed: budget(windows),
            traced: false,
            inject: false,
        }
    }
}

/// The names a pass's spans carry.
#[derive(Debug, Clone, Copy)]
pub struct Labels {
    pub level: &'static str,
    pub parent: Option<&'static str>,
}

struct RankOut {
    windows: Vec<WindowRec>,
    attempted: u64,
    failed: u64,
    /// Counter deltas over the timed phase.
    counts: Counts,
    usage: Usage,
    spans: Vec<Span>,
    core: Option<usize>,
}

/// What a pass measured.
pub struct PassOut {
    /// Rank 0's timed windows.
    pub windows: Vec<WindowRec>,
    /// Operations rank 0 checked (warm-up included) and, over all ranks,
    /// how many checks failed.
    pub attempted: u64,
    pub failed: u64,
    /// Counter deltas over the timed phase, summed over ranks.
    pub counts: Counts,
    /// Process resource use over the timed phase.
    pub usage: Usage,
    pub spans: Vec<Span>,
    /// The core each rank pinned itself to (`None`: the kernel refused).
    pub cores: Vec<Option<usize>>,
}

impl PassOut {
    pub fn ops(&self) -> u64 {
        self.windows.iter().map(|w| w.ops).sum()
    }

    pub fn us_per_op(&self) -> Vec<f64> {
        self.windows.iter().map(WindowRec::us_per_op).collect()
    }

    pub fn op_us_p50(&self) -> f64 {
        median(&self.us_per_op())
    }

    pub fn pinned(&self) -> bool {
        self.cores.iter().all(Option::is_some)
    }

    /// A timed-phase counter per timed operation.
    pub fn per_op(&self, index: usize) -> f64 {
        self.counts[index] as f64 / self.ops() as f64
    }

    fn merge(ranks: Vec<RankOut>) -> PassOut {
        let mut counts = Counts::default();
        for r in &ranks {
            for (total, c) in counts.iter_mut().zip(r.counts) {
                *total += c;
            }
        }
        let failed: u64 = ranks.iter().map(|r| r.failed).sum();
        let cores = ranks.iter().map(|r| r.core).collect();
        let lead = ranks.into_iter().next().expect("rank 0");
        PassOut {
            failed: failed.min(lead.attempted),
            attempted: lead.attempted,
            windows: lead.windows,
            counts,
            usage: lead.usage,
            spans: lead.spans,
            cores,
        }
    }
}

/// Pin the calling rank thread to core `rank % nproc`: rank threads are
/// the only busy threads and must neither share nor switch cores. Called
/// before the rank allocates anything.
fn pin_rank(rank: usize, nproc: usize) -> Option<usize> {
    let core = rank % nproc;
    pin_to_core(core).then_some(core)
}

/// One rank's part of a pass. `counts` reads the rank's counters.
fn rank_body(
    rank: usize,
    core: Option<usize>,
    gate: &Gate,
    plan: &Plan,
    labels: Labels,
    kernel: &mut dyn Kernel,
    counts: &dyn Fn() -> Counts,
) -> MpiResult<RankOut> {
    let mut meter = Meter::new(labels.level, labels.parent, plan.traced && rank == 0);
    let mut usage = Usage::default();
    let mut delta = Counts::default();
    // Counter readings at every window boundary; rank 0 alone knows
    // where the warm-up ends, so the others keep all of them.
    let mut marks = vec![counts()];
    let mut step = |m: &mut Meter| -> MpiResult<()> {
        kernel.window(m)?;
        marks.push(counts());
        Ok(())
    };
    if rank == 0 {
        if plan.inject {
            meter.inject_fail_at(0);
        }
        let _release_followers = StopOnDrop(gate);
        gate.lead(plan.warm, &mut meter, &mut step)?;
        gate.end_warm_up(meter.windows.len());
        meter.discard_windows();
        let before = Usage::now();
        gate.lead(plan.timed, &mut meter, &mut step)?;
        usage = Usage::now().since(&before);
    } else {
        gate.follow(&mut meter, &mut step)?;
    }
    let warm_windows = gate.warm_windows();
    kernel.finish(&mut meter)?;
    let last = marks.last().expect("initial mark");
    for (d, (end, start)) in delta.iter_mut().zip(last.iter().zip(marks[warm_windows])) {
        *d = end - start;
    }
    Ok(RankOut {
        windows: std::mem::take(&mut meter.windows),
        attempted: meter.attempted,
        failed: meter.failed,
        counts: delta,
        usage,
        spans: meter.take_spans(),
        core,
    })
}

/// The runtime every pass uses: shm-fast device and library defaults for
/// everything but the marshal mode and the event ring under test.
pub fn runtime(ranks: usize, marshal: MarshalMode, events: bool) -> MpiRuntime {
    let rt = MpiRuntime::new(ranks)
        .device(DeviceKind::ShmFast)
        .jni(JniConfig {
            marshal,
            ..JniConfig::default()
        });
    if events {
        rt.trace(TraceConfig::events())
    } else {
        rt
    }
}

/// Run `spec`'s kernel on every rank of `runtime` under `plan`.
pub fn mpi_pass(
    runtime: &MpiRuntime,
    nproc: usize,
    plan: Plan,
    labels: Labels,
    spec: &KernelSpec,
) -> MpiResult<PassOut> {
    let gate = Gate::default();
    let ranks = runtime.run(|mpi| {
        let rank = mpi.comm_world().rank()?;
        let core = pin_rank(rank, nproc);
        let mut kernel = spec.build(mpi)?;
        let out = rank_body(rank, core, &gate, &plan, labels, &mut *kernel, &|| {
            read_counts(mpi)
        });
        // A rank that cannot go on must not leave its peer parked.
        let out = out.unwrap_or_else(|e| panic!("rank {rank} failed: {e}"));
        drop(kernel);
        mpi.finalize()?;
        Ok(out)
    })?;
    Ok(PassOut::merge(ranks))
}

/// The transport level: the same loop over two bare endpoints.
pub fn transport_pass(
    nproc: usize,
    plan: Plan,
    labels: Labels,
    (size, seed, pairs): (usize, u64, u64),
) -> MpiResult<PassOut> {
    let endpoints = Fabric::build(FabricConfig::new(2, DeviceKind::ShmFast))
        .map_err(mpi_native::MpiError::from)?
        .into_endpoints();
    let gate = Gate::default();
    let ranks = std::thread::scope(|scope| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .enumerate()
            .map(|(rank, endpoint)| {
                let gate = &gate;
                scope.spawn(move || {
                    let core = pin_rank(rank, nproc);
                    let mut kernel = Echo::new(endpoint, size, seed, pairs);
                    rank_body(rank, core, gate, &plan, labels, &mut kernel, &|| {
                        Counts::default()
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("transport rank panicked"))
            .collect::<MpiResult<Vec<_>>>()
    })?;
    Ok(PassOut::merge(ranks))
}

/// Median wall time of a bring-up/tear-down cycle: construct the
/// runtime, spawn and pin the ranks, `MPI::init`, build the workload's
/// communicators and buffers, one barrier, finalize, join. Runs at least
/// `min_cycles` cycles and keeps going, up to `max_cycles`, until
/// `budget` is spent: a 0.1 ms cycle needs many repeats for a steady
/// median, a 3 ms one cannot afford them. Returns `(median, cycles)`.
pub fn setup_seconds(
    nproc: usize,
    (min_cycles, max_cycles): (usize, usize),
    budget: Duration,
    spec: &KernelSpec,
) -> MpiResult<(f64, usize)> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_cycles || (times.len() < max_cycles && start.elapsed() < budget) {
        let t = Instant::now();
        runtime(2, MarshalMode::Copy, false).run(|mpi| {
            let world = mpi.comm_world();
            pin_rank(world.rank()?, nproc);
            let kernel = spec.build(mpi)?;
            world.barrier()?;
            drop(kernel);
            mpi.finalize()
        })?;
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((median(&times), times.len()))
}
