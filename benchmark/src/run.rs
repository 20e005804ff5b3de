//! The two kinds of run of one workload: the end-to-end run, and the
//! separate traced run that climbs the layer ladder.

use std::time::Duration;

use mpijava::{MarshalMode, MpiResult};

use crate::harness::Span;
use crate::json::{obj, Json};
use crate::pass::{
    mpi_pass, runtime, setup_seconds, transport_pass, Labels, PassOut, Plan, BYTES_COPIED,
    JNI_BYTES, JNI_CALLS, MSGS, POSTED_HITS, RENDEZVOUS, SCHED_HITS, SCHED_MISSES, UNEXPECTED_HITS,
};
use crate::stats::{median, percentile, tail_percentile};
use crate::sys::{peak_rss_mib, pin_to_core};
use crate::workloads::{
    Family, KernelSpec, Level, Scale, Shared, Surface, Which, Workload, LADDER,
};

/// End-to-end metrics: `(name, unit)`, as declared in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 2] = [("op_us_p50", "us"), ("setup_s", "s")];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 23] = [
    ("transport.shm_us", "us"),
    ("engine.p2p_self_us", "us"),
    ("engine.coll_self_us", "us"),
    ("core.jni_self_us", "us"),
    ("core.jni_pin_self_us", "us"),
    ("core.rs_self_us", "us"),
    ("engine.msgs_per_op", "count"),
    ("engine.bytes_copied_per_op", "B"),
    ("engine.bytes_copied_per_payload_byte", "B/B"),
    ("engine.rendezvous_share", "share"),
    ("engine.posted_hit_share", "share"),
    ("engine.sched_cache_hit_share", "share"),
    ("jni.calls_per_op", "count"),
    ("jni.bytes_marshalled_per_op", "B"),
    ("engine.sched_cache_hit_share_p4", "share"),
    ("engine.bytes_copied_per_op_p4", "B"),
    ("cpu_us_per_op", "us"),
    ("vol_ctx_switches_per_op", "count"),
    ("minor_faults_per_op", "count"),
    ("peak_rss_mib", "MiB"),
    ("surface.comm_share", "share"),
    ("trace.events_overhead_pct", "%"),
    ("harness.span_overhead_pct", "%"),
];

/// Labels of a pass that records no spans.
const NO_SPANS: Labels = Labels {
    level: "untraced",
    parent: None,
};

/// Bring-up/tear-down cycles behind `setup_s`: at least the first,
/// then more while the second lasts, at most the third.
const SETUP_CYCLES: (usize, Duration, usize) = (30, Duration::from_secs(1), 1000);

/// Everything a run needs besides the workload.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    pub nproc: usize,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    pub inject_fail: bool,
}

/// What one run of one workload produced.
pub struct RunOut {
    pub attempted: u64,
    pub failed: u64,
    /// Every rank of every pass pinned itself.
    pub pinned: bool,
    /// The core each rank of the workload's own pass ran on.
    pub cores: Vec<Option<usize>>,
    /// The declared metrics, in declaration order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Printed and stored beside the metrics; never gated.
    pub info: Vec<(String, Json)>,
    pub spans: Vec<Span>,
}

/// What the workload's ranks share. For the Jacobi workload this runs
/// the plain single-threaded baseline, on a pinned thread before any
/// rank exists, and returns its time per step.
fn shared_inputs(w: &Workload, s: &Settings) -> (Shared, Option<f64>) {
    if w.surface != Surface::Jacobi {
        return (Shared::default(), None);
    }
    let shape = s.scale.jacobi();
    let (reference, step_us) = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                pin_to_core(0);
                shape.serial_reference(s.seed)
            })
            .join()
            .expect("serial reference panicked")
    });
    let shared = Shared {
        reference,
        ..Shared::default()
    };
    (shared, Some(step_us))
}

impl Settings {
    fn spec<'a>(&self, workload: &'a Workload, which: Which<'a>) -> KernelSpec<'a> {
        KernelSpec {
            workload,
            which,
            seed: self.seed,
            scale: self.scale,
        }
    }

    /// A two-rank pass over the library's default configuration.
    fn pass(&self, spec: &KernelSpec, plan: Plan, labels: Labels) -> MpiResult<PassOut> {
        let rt = runtime(2, MarshalMode::Copy, false);
        mpi_pass(&rt, self.nproc, plan, labels, spec)
    }
}

/// The end-to-end run: `setup_s` from bring-up cycles, then one
/// untraced measured pass.
pub fn end_to_end(w: &Workload, s: &Settings) -> MpiResult<RunOut> {
    let (shared, serial_step_us) = shared_inputs(w, s);
    let surface = s.spec(w, Which::Surface(&shared));
    let (min_cycles, budget, max_cycles) = SETUP_CYCLES;
    let cycles = if s.scale.smoke {
        (3, 3)
    } else {
        (min_cycles, max_cycles)
    };
    let (setup_s, cycles) = setup_seconds(s.nproc, cycles, budget, &surface)?;
    let mut plan = Plan::timed(s.seconds, s.scale.smoke);
    plan.inject = s.inject_fail;
    let pass = s.pass(&surface, plan, NO_SPANS)?;
    let per_op = pass.us_per_op();
    let p50 = median(&per_op);
    let tail = tail_percentile(per_op.len());
    let mut info = vec![
        (format!("op_us_p{tail}"), percentile(&per_op, tail).into()),
        ("windows".into(), per_op.len().into()),
        ("op_us_by_window".into(), per_op.clone().into()),
        ("ops_per_window".into(), w.ops_per_window(&s.scale).into()),
        ("timed_ops".into(), pass.ops().into()),
        (
            "fail_share".into(),
            (pass.failed as f64 / pass.attempted as f64).into(),
        ),
        (w.rate_unit.into(), w.rate(p50).into()),
        ("setup_cycles".into(), cycles.into()),
        ("peak_rss_mib".into(), peak_rss_mib().into()),
    ];
    if let Some(us) = serial_step_us {
        info.push(("serial_step_us".into(), us.into()));
    }
    Ok(RunOut {
        attempted: pass.attempted,
        failed: pass.failed,
        pinned: pass.pinned(),
        cores: pass.cores,
        metrics: vec![("op_us_p50", p50, "us"), ("setup_s", setup_s, "s")],
        info,
        spans: Vec::new(),
    })
}

fn share(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64
}

fn overhead_pct(with: f64, without: f64) -> f64 {
    (with - without) / without * 100.0
}

/// The traced run: the same operation at every level of the ladder, the
/// workload itself with and without spans, the engine level with the
/// event ring on, and the collective counts at four ranks. End-to-end
/// metrics are never taken from here.
pub fn traced(w: &Workload, s: &Settings) -> MpiResult<RunOut> {
    // Ten timed passes share the run's seconds.
    let slice = s.seconds / 10.0;
    let untraced = Plan::timed(slice, s.scale.smoke);
    let traced = Plan {
        traced: true,
        ..untraced
    };
    let (shared, serial_step_us) = shared_inputs(w, s);

    let mut spans = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut pinned = true;
    let mut tally = |pass: &mut PassOut| {
        attempted += pass.attempted;
        failed += pass.failed;
        pinned &= pass.pinned();
        spans.append(&mut pass.spans);
    };

    // The ladder, bottom up.
    let mut rows = Vec::new();
    for level in LADDER {
        let labels = Labels {
            level: level.name(),
            parent: level.parent(w.family).map(Level::name),
        };
        let mut pass = if level == Level::Transport {
            let echo = (w.payload, s.seed, s.scale.units(w.p2p_pairs, false));
            transport_pass(s.nproc, traced, labels, echo)?
        } else {
            let rt = runtime(2, level.marshal(), false);
            mpi_pass(
                &rt,
                s.nproc,
                traced,
                labels,
                &s.spec(w, Which::Level(level)),
            )?
        };
        tally(&mut pass);
        rows.push((level, pass.op_us_p50(), pass));
    }
    let us = |level: Level| {
        rows.iter()
            .find(|(l, ..)| *l == level)
            .expect("every level ran")
            .1
    };
    let self_us = |level: Level| us(level) - level.parent(w.family).map_or(0.0, us);

    // The engine level of this family again, event ring on.
    let engine = match w.family {
        Family::P2p => Level::EngineP2p,
        Family::Coll => Level::EngineColl,
    };
    let mut events = mpi_pass(
        &runtime(2, MarshalMode::Copy, true),
        s.nproc,
        untraced,
        NO_SPANS,
        &s.spec(w, Which::Level(engine)),
    )?;
    tally(&mut events);

    // The workload itself, without and with spans.
    let surface = Labels {
        level: "surface",
        parent: Some(match w.surface {
            Surface::PingPong | Surface::Allreduce => Level::ClassicCopy.name(),
            Surface::Stream | Surface::Jacobi => Level::Rs.name(),
        }),
    };
    let workload = s.spec(w, Which::Surface(&shared));
    let mut plain = s.pass(&workload, untraced, NO_SPANS)?;
    tally(&mut plain);
    let mut spanned = s.pass(&workload, traced, surface)?;
    tally(&mut spanned);

    // Collective counts at four ranks: counts only, four ranks
    // oversubscribe two cores.
    let mut p4 = mpi_pass(
        &runtime(4, MarshalMode::Copy, false),
        s.nproc,
        Plan::counted(4),
        NO_SPANS,
        &s.spec(w, Which::CollCounts),
    )?;
    tally(&mut p4);

    let timed_ns: u64 = plain.windows.iter().map(|w| w.timed_ns).sum();
    let comm_ns: u64 = plain.windows.iter().map(|w| w.comm_ns).sum();
    let plain_ops = plain.ops() as f64;
    let c = &plain.counts;
    // One value per declared metric, in `PER_LAYER`'s order.
    let values: [f64; PER_LAYER.len()] = [
        us(Level::Transport),
        self_us(Level::EngineP2p),
        self_us(Level::EngineColl),
        self_us(Level::ClassicCopy),
        self_us(Level::ClassicPin),
        self_us(Level::Rs),
        plain.per_op(MSGS),
        plain.per_op(BYTES_COPIED),
        plain.per_op(BYTES_COPIED) / w.payload as f64,
        share(c[RENDEZVOUS], c[MSGS]),
        share(c[POSTED_HITS], c[POSTED_HITS] + c[UNEXPECTED_HITS]),
        share(c[SCHED_HITS], c[SCHED_HITS] + c[SCHED_MISSES]),
        plain.per_op(JNI_CALLS),
        plain.per_op(JNI_BYTES),
        share(
            p4.counts[SCHED_HITS],
            p4.counts[SCHED_HITS] + p4.counts[SCHED_MISSES],
        ),
        p4.per_op(BYTES_COPIED),
        plain.usage.cpu_us / plain_ops,
        plain.usage.vol_ctx_switches / plain_ops,
        plain.usage.minor_faults / plain_ops,
        peak_rss_mib(),
        share(comm_ns, timed_ns),
        overhead_pct(events.op_us_p50(), us(engine)),
        overhead_pct(spanned.op_us_p50(), plain.op_us_p50()),
    ];
    let metrics = PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect();

    let ladder: Vec<Json> = rows
        .iter()
        .map(|(level, _, pass)| {
            obj([
                ("level", Json::from(level.name())),
                (
                    "parent",
                    level
                        .parent(w.family)
                        .map_or(Json::Null, |p| p.name().into()),
                ),
                ("op_us_p50", us(*level).into()),
                ("self_us", self_us(*level).into()),
                ("windows", pass.windows.len().into()),
                ("msgs_per_op", pass.per_op(MSGS).into()),
                ("bytes_copied_per_op", pass.per_op(BYTES_COPIED).into()),
                ("jni_bytes_per_op", pass.per_op(JNI_BYTES).into()),
            ])
        })
        .collect();
    let mut info = vec![
        ("ladder".to_string(), Json::Arr(ladder)),
        ("surface_op_us_p50".into(), plain.op_us_p50().into()),
        (
            "surface_traced_op_us_p50".into(),
            spanned.op_us_p50().into(),
        ),
        ("phases".into(), phase_shares(&spans)),
    ];
    if let Some(us) = serial_step_us {
        info.push(("serial_step_us".into(), us.into()));
    }
    Ok(RunOut {
        attempted,
        failed,
        pinned,
        cores: plain.cores,
        metrics,
        info,
        spans,
    })
}

/// Median duration of every child span of the traced surface pass, in
/// microseconds (post/wait on the stream, compute/exchange/residual on
/// the Jacobi step, send/recv on a ping-pong).
fn phase_shares(spans: &[Span]) -> Json {
    let mut names: Vec<&str> = Vec::new();
    for s in spans {
        if s.level == "surface" && s.name != "op" && !names.contains(&s.name) {
            names.push(s.name);
        }
    }
    obj(names.into_iter().map(|name| {
        let durations: Vec<f64> = spans
            .iter()
            .filter(|s| s.level == "surface" && s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        (format!("{name}_us_p50"), median(&durations).into())
    }))
}
