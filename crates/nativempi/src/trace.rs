//! MPI_T-style observability: event tracing, metrics registry, export.
//!
//! MPI inherits a profiling culture — the PMPI shim of MPI-1, formalized
//! by MPI 3+ as the *tool information interface* (`MPI_T`): named
//! performance variables (pvars) a tool can enumerate, read, and reset at
//! runtime. This module gives the engine that third eye, in three layers:
//!
//! 1. **Event tracing** — a fixed-capacity per-rank ring buffer of
//!    timestamped [`TraceEvent`] records. Recording is allocation-free on
//!    the hot path: the ring is preallocated when tracing is configured,
//!    and a full ring overwrites the oldest record (counting
//!    [`Tracer::dropped`]). Every emit goes through a single engine hook
//!    that begins with a branch on [`TraceMode`], so `MPIJAVA_TRACE=off`
//!    costs one predictable compare per site.
//! 2. **Metrics registry** — [`MetricsSnapshot`], an MPI_T-flavored named
//!    variable table: every [`EngineStats`](crate::EngineStats) counter
//!    re-registered as an `engine.*` pvar, live gauges (posted/unexpected
//!    queue depth, in-flight collective schedules, per-peer heartbeat age
//!    and lease deadline), transport frame counters, and log₂-bucket
//!    latency histograms with approximate quantiles.
//! 3. **Export** — each rank dumps its ring as JSONL (one meta line, then
//!    one line per event) into `MPIJAVA_TRACE_DIR`, a configured
//!    directory, or `<spool root>/trace`; the `tracemerge` tool in the
//!    bench crate merges per-rank files into one Chrome
//!    `trace_event`-format timeline with one track per rank.
//!
//! # Event schema
//!
//! Events are fixed-size (`ts_ns`, kind, phase, five `i64` argument
//! slots); argument names are applied at dump time, off the hot path.
//! Kinds use only as many slots as their schema names:
//!
//! | kind | phase | `a` | `b` | `c` | `d` | `e` |
//! |---|---|---|---|---|---|---|
//! | `send_eager` | B/E | peer | tag | bytes | token | |
//! | `send_rendezvous` | B/E | peer | tag | bytes | token | |
//! | `recv_posted` | i | peer | tag | bytes | token | wait_ns |
//! | `recv_unexpected` | i | peer | tag | bytes | token | wait_ns |
//! | `rendezvous_grant` | i | peer | token | bytes | | |
//! | `rendezvous_data` | i | peer | token | bytes | | |
//! | `coll` | B/E | op index | algorithm index | schedule id | ctx | cseq |
//! | `coll_round` | B/E | schedule id | round index | transfers | ctx | cseq |
//! | `rma_put` | i | target | bytes | window | | |
//! | `rma_get` | i | target | bytes | window | | |
//! | `rma_epoch` | i | window | passive (0/1) | epochs so far | | |
//! | `lease_observed` | i | peer | heartbeat age (ms) | lease (ms) | | |
//! | `rank_failed` | i | peer | staleness (ms) | lease (ms) | | |
//! | `progress_burst` | i | total polls | burst size | 0 | | |
//!
//! # Causal stamps
//!
//! The `d`/`e` slots carry *matchable identifiers* so events join across
//! ranks without guessing:
//!
//! * **p2p**: every frame a sender dispatches carries a per-sender
//!   sequence token (allocated for eager and rendezvous alike). The
//!   token is stamped on the send interval and echoed on the receiver's
//!   `recv_posted`/`recv_unexpected` instant, so `(sender, token)` is a
//!   globally unique join key for one message. `wait_ns` on the receive
//!   side records how long the receiver waited (posted → arrival) or
//!   how long the payload sat unclaimed (arrival → match).
//! * **collectives**: the local schedule `id` is a per-rank request
//!   number and is *not* comparable across ranks. The `(ctx, cseq)`
//!   stamp is: the communicator's collective context id (identical on
//!   every member) and a per-communicator causal sequence number bumped
//!   once per collective start. MPI semantics require every member to
//!   call collectives on a communicator in the same order, so
//!   `(ctx, cseq, round)` matches round brackets rank-to-rank.
//!
//! # Wait-state classes
//!
//! When interval sampling is on, every matched receive also classifies
//! *why* the rank waited, keyed off the engine's tag-space layout (user
//! tags ≥ 0; collective tag windows at or below the collective base;
//! RMA window channels at or below the RMA base):
//!
//! * `late_sender` — a posted user-tag receive waited for the arrival.
//! * `late_receiver` — a user-tag payload arrived before the receive
//!   was posted and sat in the unexpected queue.
//! * `coll_imbalance` — collective-tag waiting on either side: a posted
//!   round receive waited for a peer that entered late, or the rank
//!   itself reached its round after the peer's data had already
//!   arrived (unexpected residency — the rank *is* the straggler's
//!   victim-turned-latecomer).
//! * `rma_target` — an RMA-channel receive or residency (lock grants,
//!   fetch replies): the passive target is starved of progress.
//!
//! Totals and log₂ histograms per class surface as `engine.wait.*`
//! pvars/histograms in [`MetricsSnapshot`], and the per-event `wait_ns`
//! stamp lets the offline analyzer recompute the same classification.
//!
//! # End-to-end walkthrough: trace → merge → analyze → record
//!
//! 1. **Trace**: run with `MPIJAVA_TRACE=events` (optionally
//!    `events:<capacity>`) and `MPIJAVA_TRACE_DIR=<dir>`; each rank dumps
//!    `trace-rank<k>.jsonl` at finalize (or on demand via
//!    `dump_trace_to`). The meta line carries `dropped` — if it is
//!    nonzero the ring wrapped and the oldest history is gone; grow the
//!    capacity before trusting whole-run analysis.
//! 2. **Merge**: `tracemerge <dir> -o trace.json` produces one Chrome
//!    `trace_event` timeline (load in `chrome://tracing` or Perfetto),
//!    one track per rank, on the one trace clock (see below).
//! 3. **Analyze**: `traceanalyze <dir> --json analysis.json` matches
//!    sends to receives by `(sender, token)` and collective rounds by
//!    `(ctx, cseq, round)`, classifies wait states, attributes blame to
//!    the rank that was waited on, and extracts the global critical path
//!    with a compute / send / wait / transport breakdown. The
//!    human-readable report always prints; `--json` adds the
//!    schema-versioned machine output. `--drill straggler|killcoll`
//!    runs the CI acceptance workloads end to end and gates on them.
//! 4. **Record**: `traceanalyze <dir> --json analysis.json` writes the
//!    analysis as schema-versioned JSON (`causal-analysis-v2`), the
//!    artifact to keep or compare between runs. The gate is the drills'
//!    exit status; CI also checks that the schema tag is present and
//!    that its smoke run reports `early_receives` 0.
//!
//! **One trace epoch per process**: every engine in a process takes
//! its monotonic origin and that origin's wall-clock anchor
//! (`start_unix_ns`) from one pair read once, the first time any
//! engine is built. Every rank of an in-process (thread-per-rank) job
//! therefore stamps `ts_ns` on one clock, and the dumps' anchors agree
//! exactly: nothing is left to estimate. A receive is never stamped
//! before the `B` of the send it matches (both protocols stamp `B`
//! before the first frame leaves), which `traceanalyze` reports as
//! `early_receives`. Dumps written by separate processes align by their
//! anchors alone, as well as the hosts' wall clocks agree; a nonzero
//! `early_receives` is then the disagreement, reported, not corrected.
//!
//! Begin/End pairs are emitted only where closure is provable from the
//! engine's own state machine (an eager send completes within its
//! dispatch; a rendezvous send ends when the data ships on ACK; a
//! collective ends at harvest or quiesce), so a trace from a healthy run
//! has balanced pairs per kind — the integrity tests assert exactly that.
//! Everything that has no natural interval is an instant (`i`).
//!
//! # Overhead model
//!
//! * `off` — one enum compare per emit site; the always-compiled
//!   [`EngineStats`](crate::EngineStats) counters are the only cost.
//!   Gated at ≤3% on the pingpong latency bench.
//! * `counters` — adds two monotonic clock reads per sampled interval
//!   (posted-receive latency, unexpected-queue residency, collective
//!   round duration) feeding the log₂ histograms, plus transport frame
//!   counters. Gated at ≤10%.
//! * `events` — adds one 56-byte ring store per event. The ring is
//!   bounded ([`DEFAULT_TRACE_CAPACITY`] records unless
//!   `events:<capacity>` says otherwise, and never more than
//!   [`MAX_TRACE_CAPACITY`]), so a long run costs constant memory and
//!   drops its oldest history, never its newest.

use std::fmt;
use std::io::{self, Write};
use std::time::Duration;

use crate::coll::{CollAlgorithm, CollOp};

/// How much observability the engine records. See the module docs for
/// the overhead model and the `MPIJAVA_TRACE` grammar in [`crate::env`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Counters only (the always-on [`crate::EngineStats`] block).
    #[default]
    Off,
    /// Plus latency/duration histograms and transport frame counters.
    Counters,
    /// Plus the event ring buffer and the finalize-time JSONL dump.
    Events,
}

impl TraceMode {
    /// The grammar token for this mode (`off` / `counters` / `events`).
    pub fn label(self) -> &'static str {
        match self {
            TraceMode::Off => "off",
            TraceMode::Counters => "counters",
            TraceMode::Events => "events",
        }
    }

    /// Parse one mode token. Accepts the canonical labels plus the usual
    /// aliases (`none`/`0` for off, `count` for counters).
    pub fn parse(s: &str) -> Option<TraceMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => Some(TraceMode::Off),
            "counters" | "count" => Some(TraceMode::Counters),
            "events" | "trace" => Some(TraceMode::Events),
            _ => None,
        }
    }
}

impl fmt::Display for TraceMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Default event-ring capacity (records, not bytes) when
/// `MPIJAVA_TRACE=events` does not name one.
pub const DEFAULT_TRACE_CAPACITY: usize = 64 * 1024;

/// The largest event ring a rank preallocates: 2^24 records, about
/// 0.9 GiB per rank at 56 bytes each. `MPIJAVA_TRACE=events:<capacity>`
/// above it is malformed, and [`TraceConfig::with_capacity`] clamps to it.
pub const MAX_TRACE_CAPACITY: usize = 1 << 24;

/// Parsed trace configuration: a [`TraceMode`] plus the event-ring
/// capacity used when the mode is [`TraceMode::Events`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Recording level.
    pub mode: TraceMode,
    /// Ring capacity in events (ignored unless `mode` is `Events`).
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::off()
    }
}

impl TraceConfig {
    /// Tracing disabled (counters only).
    pub fn off() -> TraceConfig {
        TraceConfig {
            mode: TraceMode::Off,
            capacity: DEFAULT_TRACE_CAPACITY,
        }
    }

    /// Histogram/frame-counter sampling, no event ring.
    pub fn counters() -> TraceConfig {
        TraceConfig {
            mode: TraceMode::Counters,
            capacity: DEFAULT_TRACE_CAPACITY,
        }
    }

    /// Full event recording at the default ring capacity.
    pub fn events() -> TraceConfig {
        TraceConfig {
            mode: TraceMode::Events,
            capacity: DEFAULT_TRACE_CAPACITY,
        }
    }

    /// Override the event-ring capacity (records; clamped to
    /// `1..=`[`MAX_TRACE_CAPACITY`]).
    pub fn with_capacity(mut self, capacity: usize) -> TraceConfig {
        self.capacity = capacity.clamp(1, MAX_TRACE_CAPACITY);
        self
    }

    /// Parse the `off|counters|events[:capacity]` grammar (the value
    /// grammar of `MPIJAVA_TRACE`). Returns `None` on anything it does
    /// not recognize — callers decide how loudly to complain.
    pub fn parse(s: &str) -> Option<TraceConfig> {
        let s = s.trim();
        if let Some((mode, cap)) = s.split_once(':') {
            let mode = TraceMode::parse(mode)?;
            if mode != TraceMode::Events {
                return None; // a capacity only makes sense with a ring
            }
            let capacity: usize = cap
                .trim()
                .parse()
                .ok()
                .filter(|c| (1..=MAX_TRACE_CAPACITY).contains(c))?;
            return Some(TraceConfig::events().with_capacity(capacity));
        }
        TraceMode::parse(s).map(|mode| TraceConfig {
            mode,
            capacity: DEFAULT_TRACE_CAPACITY,
        })
    }
}

impl fmt::Display for TraceConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.mode == TraceMode::Events && self.capacity != DEFAULT_TRACE_CAPACITY {
            write!(f, "events:{}", self.capacity)
        } else {
            f.write_str(self.mode.label())
        }
    }
}

/// What kind of engine activity an event records. See the schema table
/// in the module docs for the per-kind meaning of the argument slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Eager-protocol send (interval spans the dispatch).
    SendEager,
    /// Rendezvous-protocol send (begins at request, ends at data ship).
    SendRendezvous,
    /// Arrival matched an already-posted receive.
    RecvPosted,
    /// Receive matched a message from the unexpected queue.
    RecvUnexpected,
    /// Receiver granted a rendezvous request (sent the ACK).
    RendezvousGrant,
    /// Rendezvous payload fully reassembled at the receiver.
    RendezvousData,
    /// One collective operation (begin at schedule start, end at
    /// harvest or failure quiesce).
    Coll,
    /// One round of a collective schedule.
    CollRound,
    /// One-sided put/accumulate issued from this rank.
    RmaPut,
    /// One-sided get issued from this rank.
    RmaGet,
    /// RMA synchronization epoch completed (fence or unlock).
    RmaEpoch,
    /// Failure detector observed a peer's heartbeat lease state.
    LeaseObserved,
    /// A rank was declared failed.
    RankFailed,
    /// Background progress thread completed a poll burst.
    ProgressBurst,
}

impl EventKind {
    /// Dump-time name of this kind.
    pub fn name(self) -> &'static str {
        self.meta().0
    }

    /// Dump-time argument names for the argument slots (`a` onward).
    /// A kind uses exactly as many slots as it has names; the rest stay
    /// zero and are not written to the dump.
    fn meta(self) -> (&'static str, &'static [&'static str]) {
        match self {
            EventKind::SendEager => ("send_eager", &["peer", "tag", "bytes", "token"]),
            EventKind::SendRendezvous => ("send_rendezvous", &["peer", "tag", "bytes", "token"]),
            EventKind::RecvPosted => ("recv_posted", &["peer", "tag", "bytes", "token", "wait_ns"]),
            EventKind::RecvUnexpected => (
                "recv_unexpected",
                &["peer", "tag", "bytes", "token", "wait_ns"],
            ),
            EventKind::RendezvousGrant => ("rendezvous_grant", &["peer", "token", "bytes"]),
            EventKind::RendezvousData => ("rendezvous_data", &["peer", "token", "bytes"]),
            EventKind::Coll => ("coll", &["op", "alg", "id", "ctx", "cseq"]),
            EventKind::CollRound => ("coll_round", &["id", "round", "transfers", "ctx", "cseq"]),
            EventKind::RmaPut => ("rma_put", &["target", "bytes", "win"]),
            EventKind::RmaGet => ("rma_get", &["target", "bytes", "win"]),
            EventKind::RmaEpoch => ("rma_epoch", &["win", "passive", "epochs"]),
            EventKind::LeaseObserved => ("lease_observed", &["peer", "age_ms", "lease_ms"]),
            EventKind::RankFailed => ("rank_failed", &["peer", "staleness_ms", "lease_ms"]),
            EventKind::ProgressBurst => ("progress_burst", &["polls", "burst", "_"]),
        }
    }
}

/// Begin/End bracket or point-in-time marker, mirroring the Chrome
/// `trace_event` phase letters (`B`, `E`, `i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventPhase {
    /// Interval opens.
    Begin,
    /// Interval closes.
    End,
    /// Instantaneous marker.
    Instant,
}

impl EventPhase {
    /// Chrome `trace_event` phase letter.
    pub fn letter(self) -> &'static str {
        match self {
            EventPhase::Begin => "B",
            EventPhase::End => "E",
            EventPhase::Instant => "i",
        }
    }
}

/// One fixed-size trace record. Timestamps are nanoseconds since the
/// process's trace epoch (every engine's monotonic `start_time`); the
/// dump meta line carries the epoch's wall-clock anchor, which lets
/// `tracemerge` align rings from different processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the process's trace epoch (monotonic).
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Interval bracket or instant.
    pub phase: EventPhase,
    /// First argument slot (per-kind meaning; see module docs).
    pub a: i64,
    /// Second argument slot.
    pub b: i64,
    /// Third argument slot.
    pub c: i64,
    /// Fourth argument slot (causal stamp: p2p token, coll ctx).
    pub d: i64,
    /// Fifth argument slot (causal stamp: recv wait, coll cseq).
    pub e: i64,
}

/// Why a rank waited in a matched receive — the cross-rank wait-state
/// taxonomy (Scalasca's vocabulary) classified live at the match site
/// from the engine's tag-space layout. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitClass {
    /// Posted user-tag receive waited for the matching arrival.
    LateSender,
    /// Arrival sat in the unexpected queue before the receive was posted.
    LateReceiver,
    /// Collective-tag receive waited: a peer entered its round late.
    CollImbalance,
    /// RMA-channel receive waited: passive target starved of progress.
    RmaTarget,
}

impl WaitClass {
    /// All classes, in pvar/report order.
    pub const ALL: [WaitClass; 4] = [
        WaitClass::LateSender,
        WaitClass::LateReceiver,
        WaitClass::CollImbalance,
        WaitClass::RmaTarget,
    ];

    /// Pvar/report label.
    pub fn label(self) -> &'static str {
        match self {
            WaitClass::LateSender => "late_sender",
            WaitClass::LateReceiver => "late_receiver",
            WaitClass::CollImbalance => "coll_imbalance",
            WaitClass::RmaTarget => "rma_target",
        }
    }

    /// Classify a *posted-receive* wait by the tag space the message
    /// travelled in.
    pub fn for_posted_tag(tag: i32, coll_tag_base: i32, rma_tag_base: i32) -> WaitClass {
        if tag <= rma_tag_base {
            WaitClass::RmaTarget
        } else if tag <= coll_tag_base {
            WaitClass::CollImbalance
        } else {
            WaitClass::LateSender
        }
    }

    /// Classify an *unexpected-queue* residency by the same tag spaces.
    /// Only user-tag traffic is a true [`WaitClass::LateReceiver`]; in
    /// the collective and RMA channels the "receiver" is a rank arriving
    /// late to its own round (imbalance) or a target starved of progress
    /// — blaming the user's receive order there would be misdirection.
    pub fn for_unexpected_tag(tag: i32, coll_tag_base: i32, rma_tag_base: i32) -> WaitClass {
        if tag <= rma_tag_base {
            WaitClass::RmaTarget
        } else if tag <= coll_tag_base {
            WaitClass::CollImbalance
        } else {
            WaitClass::LateReceiver
        }
    }
}

/// Log₂-bucketed duration histogram: bucket *i* holds samples whose
/// nanosecond value has bit length *i* (so bucket 0 is exactly 0 ns,
/// bucket 10 is 512–1023 ns, …). 48 buckets cover ~78 hours.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; 48],
    count: u64,
    total_ns: u64,
    max_ns: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: [0; 48],
            count: 0,
            total_ns: 0,
            max_ns: 0,
        }
    }
}

impl LogHistogram {
    /// Record one duration sample.
    pub fn record(&mut self, ns: u64) {
        let idx = (64 - ns.leading_zeros() as usize).min(self.buckets.len() - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (ns).
    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }

    /// Upper bound (ns) of the bucket where the cumulative count crosses
    /// quantile `q` — an over-estimate by at most 2×, which is the
    /// resolution a log₂ sketch buys.
    fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= target {
                return if idx == 0 { 0 } else { (1u64 << idx) - 1 };
            }
        }
        self.max_ns
    }

    /// Flatten into a named [`HistSnapshot`].
    pub fn snapshot(&self, name: &str) -> HistSnapshot {
        HistSnapshot {
            name: name.to_string(),
            count: self.count,
            total_ns: self.total_ns,
            max_ns: self.max_ns,
            p50_ns: self.quantile_ns(0.50),
            p90_ns: self.quantile_ns(0.90),
            p99_ns: self.quantile_ns(0.99),
        }
    }

    fn reset(&mut self) {
        *self = LogHistogram::default();
    }
}

/// MPI_T pvar classes this registry distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PvarClass {
    /// Monotonically increasing count since start (or last reset).
    Counter,
    /// Point-in-time level that can go up and down.
    Gauge,
}

/// One named performance variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pvar {
    /// Dotted name, e.g. `engine.eager_sends` or `failure.peer2.age_ms`.
    pub name: String,
    /// Counter or gauge.
    pub class: PvarClass,
    /// Current value.
    pub value: i64,
}

/// Flattened histogram statistics for a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Histogram name, e.g. `p2p.latency`.
    pub name: String,
    /// Recorded samples.
    pub count: u64,
    /// Sum of all samples (ns).
    pub total_ns: u64,
    /// Largest sample (ns).
    pub max_ns: u64,
    /// Median, to log₂ bucket resolution (ns).
    pub p50_ns: u64,
    /// 90th percentile (ns).
    pub p90_ns: u64,
    /// 99th percentile (ns).
    pub p99_ns: u64,
}

/// A point-in-time read of the whole registry: pvars plus histograms.
/// Obtained from `Engine::metrics_snapshot` (and re-surfaced by the
/// `mpijava` crate); reset with `Engine::metrics_reset`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// World rank the snapshot was taken on.
    pub rank: usize,
    /// Named counters and gauges.
    pub pvars: Vec<Pvar>,
    /// Latency/duration histograms.
    pub histograms: Vec<HistSnapshot>,
}

impl MetricsSnapshot {
    /// Look up a pvar value by name.
    pub fn pvar(&self, name: &str) -> Option<i64> {
        self.pvars.iter().find(|p| p.name == name).map(|p| p.value)
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

/// The per-rank recorder: mode, preallocated event ring, histograms.
/// Owned by the engine; every emit goes through `Engine`'s inline hook,
/// which bails on the mode before touching a clock.
#[derive(Debug)]
pub struct Tracer {
    mode: TraceMode,
    capacity: usize,
    ring: Vec<TraceEvent>,
    /// Next write slot once the ring is full (= oldest record).
    head: usize,
    dropped: u64,
    /// Posted-receive completion latency and unexpected-queue residency.
    pub(crate) p2p_latency: LogHistogram,
    /// Collective round duration (transfers posted → transfers drained).
    pub(crate) coll_round: LogHistogram,
    /// Per-class wait time, indexed by [`WaitClass::ALL`] order.
    pub(crate) waits: [LogHistogram; 4],
}

impl Tracer {
    /// Build a tracer; the event ring is preallocated here (and only
    /// here) so recording never allocates.
    pub fn new(config: TraceConfig) -> Tracer {
        let capacity = config.capacity.clamp(1, MAX_TRACE_CAPACITY);
        let ring = if config.mode == TraceMode::Events {
            Vec::with_capacity(capacity)
        } else {
            Vec::new()
        };
        Tracer {
            mode: config.mode,
            capacity,
            ring,
            head: 0,
            dropped: 0,
            p2p_latency: LogHistogram::default(),
            coll_round: LogHistogram::default(),
            waits: Default::default(),
        }
    }

    /// Current mode.
    pub fn mode(&self) -> TraceMode {
        self.mode
    }

    /// The configuration this tracer was built from.
    pub fn config(&self) -> TraceConfig {
        TraceConfig {
            mode: self.mode,
            capacity: self.capacity,
        }
    }

    /// True when the event ring records (`events` mode).
    #[inline]
    pub fn events_on(&self) -> bool {
        self.mode == TraceMode::Events
    }

    /// True when interval sampling (histograms) is on — `counters` or
    /// `events` mode.
    #[inline]
    pub fn timing_on(&self) -> bool {
        self.mode != TraceMode::Off
    }

    /// Records overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Record one classified wait sample (the caller has already checked
    /// [`Tracer::timing_on`]).
    #[inline]
    pub(crate) fn note_wait(&mut self, class: WaitClass, ns: u64) {
        self.waits[class as usize].record(ns);
    }

    /// Per-class wait histogram, read-only.
    pub fn wait_hist(&self, class: WaitClass) -> &LogHistogram {
        &self.waits[class as usize]
    }

    /// Append one record. The caller has already checked
    /// [`Tracer::events_on`] and read the clock.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record(
        &mut self,
        ts_ns: u64,
        kind: EventKind,
        phase: EventPhase,
        a: i64,
        b: i64,
        c: i64,
        d: i64,
        e: i64,
    ) {
        let ev = TraceEvent {
            ts_ns,
            kind,
            phase,
            a,
            b,
            c,
            d,
            e,
        };
        if self.ring.len() < self.capacity {
            self.ring.push(ev);
        } else {
            self.ring[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Recorded events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.ring.len());
        out.extend_from_slice(&self.ring[self.head..]);
        out.extend_from_slice(&self.ring[..self.head]);
        out
    }

    /// Number of records currently in the ring.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Clear the ring and histograms (capacity and mode are kept).
    pub fn reset(&mut self) {
        self.ring.clear();
        self.head = 0;
        self.dropped = 0;
        self.p2p_latency.reset();
        self.coll_round.reset();
        for h in &mut self.waits {
            h.reset();
        }
    }

    /// Write the ring as JSONL: one meta line, then one line per event
    /// with named arguments. All values are numeric or fixed labels, so
    /// the writer needs no string escaping.
    pub fn write_jsonl(&self, w: &mut dyn Write, meta: &DumpMeta) -> io::Result<()> {
        writeln!(
            w,
            "{{\"meta\":true,\"rank\":{},\"size\":{},\"device\":\"{}\",\"mode\":\"{}\",\
             \"capacity\":{},\"recorded\":{},\"dropped\":{},\"start_unix_ns\":{}}}",
            meta.rank,
            meta.size,
            meta.device,
            self.mode.label(),
            self.capacity,
            self.ring.len(),
            self.dropped,
            meta.start_unix_ns,
        )?;
        for ev in self.events() {
            let (name, args) = ev.kind.meta();
            write!(
                w,
                "{{\"ts_ns\":{},\"name\":\"{}\",\"ph\":\"{}\",\"args\":{{",
                ev.ts_ns,
                name,
                ev.phase.letter()
            )?;
            let slots = [ev.a, ev.b, ev.c, ev.d, ev.e];
            match ev.kind {
                EventKind::Coll => {
                    // Resolve op/algorithm indices to their labels so the
                    // merged timeline reads `allreduce/recursive_doubling`
                    // instead of a pair of enum ordinals.
                    write!(
                        w,
                        "\"op\":\"{}\",\"alg\":\"{}\",\"id\":{},\"ctx\":{},\"cseq\":{}",
                        op_label(ev.a),
                        alg_label(ev.b),
                        ev.c,
                        ev.d,
                        ev.e
                    )?;
                }
                _ => {
                    for (i, name) in args.iter().enumerate() {
                        if i > 0 {
                            write!(w, ",")?;
                        }
                        write!(w, "\"{}\":{}", name, slots[i])?;
                    }
                }
            }
            writeln!(w, "}}}}")?;
        }
        Ok(())
    }
}

/// Per-rank identity stamped on the first line of a JSONL dump; carries
/// the wall-clock anchor (`start_unix_ns`) that lets `tracemerge` align
/// the monotonic per-rank timestamps onto one timeline.
#[derive(Debug, Clone)]
pub struct DumpMeta {
    /// World rank that owns the ring.
    pub rank: usize,
    /// World size of the job.
    pub size: usize,
    /// Transport device label (e.g. `spool`).
    pub device: String,
    /// `SystemTime` at the process's trace epoch, as nanoseconds since
    /// the Unix epoch: the same for every rank of an in-process job.
    pub start_unix_ns: u128,
}

fn op_label(idx: i64) -> &'static str {
    usize::try_from(idx)
        .ok()
        .and_then(|i| CollOp::ALL.get(i).copied())
        .map(CollOp::label)
        .unwrap_or("unknown")
}

fn alg_label(idx: i64) -> &'static str {
    usize::try_from(idx)
        .ok()
        .and_then(|i| CollAlgorithm::ALL.get(i).copied())
        .map(CollAlgorithm::label)
        .unwrap_or("unknown")
}

/// Helper for gauge pvars derived from peer liveness: milliseconds,
/// saturating into the `i64` pvar slot.
pub(crate) fn millis_i64(d: Duration) -> i64 {
    i64::try_from(d.as_millis()).unwrap_or(i64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_config_grammar() {
        assert_eq!(TraceConfig::parse("off"), Some(TraceConfig::off()));
        assert_eq!(TraceConfig::parse(" NONE "), Some(TraceConfig::off()));
        assert_eq!(
            TraceConfig::parse("counters"),
            Some(TraceConfig::counters())
        );
        assert_eq!(TraceConfig::parse("events"), Some(TraceConfig::events()));
        assert_eq!(
            TraceConfig::parse("events:4096"),
            Some(TraceConfig::events().with_capacity(4096))
        );
        assert_eq!(TraceConfig::parse("events:0"), None);
        let max = format!("events:{MAX_TRACE_CAPACITY}");
        assert_eq!(
            TraceConfig::parse(&max),
            Some(TraceConfig::events().with_capacity(MAX_TRACE_CAPACITY))
        );
        assert_eq!(
            TraceConfig::parse(&format!("events:{}", MAX_TRACE_CAPACITY + 1)),
            None
        );
        assert_eq!(TraceConfig::parse(&format!("events:{}", usize::MAX)), None);
        assert_eq!(TraceConfig::parse("counters:16"), None);
        assert_eq!(TraceConfig::parse("verbose"), None);
        assert_eq!(TraceConfig::parse(""), None);
    }

    #[test]
    fn ring_capacity_is_clamped_to_one_through_the_ceiling() {
        let capacity = |c| TraceConfig::events().with_capacity(c).capacity;
        assert_eq!(capacity(0), 1);
        assert_eq!(capacity(4096), 4096);
        assert_eq!(capacity(MAX_TRACE_CAPACITY), MAX_TRACE_CAPACITY);
        assert_eq!(capacity(MAX_TRACE_CAPACITY + 1), MAX_TRACE_CAPACITY);
        assert_eq!(capacity(usize::MAX), MAX_TRACE_CAPACITY);
        assert_eq!(std::mem::size_of::<TraceEvent>(), 56);
        // A hand-written config past the ceiling is clamped, not allocated.
        let huge = TraceConfig {
            capacity: usize::MAX,
            ..TraceConfig::counters()
        };
        assert_eq!(Tracer::new(huge).capacity, MAX_TRACE_CAPACITY);
    }

    /// A `coll` event stores its operation and algorithm as indices into
    /// `CollOp::ALL` / `CollAlgorithm::ALL`, and the dump writes them
    /// back as labels: every index reads its own label, and anything
    /// outside the tables reads `unknown`.
    #[test]
    fn coll_event_indices_decode_to_their_labels() {
        for alg in CollAlgorithm::ALL {
            assert_eq!(alg_label(alg.index() as i64), alg.label());
        }
        for op in CollOp::ALL {
            assert_eq!(op_label(op.index() as i64), op.label());
        }
        for idx in [-1, CollAlgorithm::ALL.len() as i64] {
            assert_eq!(alg_label(idx), "unknown");
        }
        for idx in [-1, CollOp::ALL.len() as i64] {
            assert_eq!(op_label(idx), "unknown");
        }
    }

    #[test]
    fn trace_config_display_roundtrips() {
        for s in ["off", "counters", "events", "events:512"] {
            let cfg = TraceConfig::parse(s).unwrap();
            assert_eq!(TraceConfig::parse(&cfg.to_string()), Some(cfg));
        }
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let mut t = Tracer::new(TraceConfig::events().with_capacity(4));
        for i in 0..6 {
            t.record(
                i,
                EventKind::RecvPosted,
                EventPhase::Instant,
                i as i64,
                0,
                0,
                0,
                0,
            );
        }
        let evs = t.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(t.dropped(), 2);
        let ts: Vec<u64> = evs.iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, vec![2, 3, 4, 5]);
    }

    #[test]
    fn ring_does_not_allocate_after_init() {
        let mut t = Tracer::new(TraceConfig::events().with_capacity(8));
        let cap_before = t.ring.capacity();
        for i in 0..100 {
            t.record(i, EventKind::SendEager, EventPhase::Instant, 0, 0, 0, 0, 0);
        }
        assert_eq!(t.ring.capacity(), cap_before);
    }

    #[test]
    fn off_mode_allocates_no_ring() {
        let t = Tracer::new(TraceConfig::off());
        assert_eq!(t.ring.capacity(), 0);
        assert!(!t.events_on());
        assert!(!t.timing_on());
        assert!(Tracer::new(TraceConfig::counters()).timing_on());
    }

    #[test]
    fn histogram_quantiles_bucket_resolution() {
        let mut h = LogHistogram::default();
        for _ in 0..90 {
            h.record(100); // bucket 7 (64..127)
        }
        for _ in 0..10 {
            h.record(10_000); // bucket 14 (8192..16383)
        }
        let s = h.snapshot("t");
        assert_eq!(s.count, 100);
        assert_eq!(s.max_ns, 10_000);
        assert_eq!(s.p50_ns, 127);
        assert_eq!(s.p99_ns, 16_383);
    }

    #[test]
    fn jsonl_dump_has_meta_and_named_args() {
        let mut t = Tracer::new(TraceConfig::events().with_capacity(8));
        t.record(10, EventKind::SendEager, EventPhase::Begin, 1, 7, 64, 5, 0);
        t.record(20, EventKind::SendEager, EventPhase::End, 1, 7, 64, 5, 0);
        t.record(30, EventKind::Coll, EventPhase::Begin, 7, 2, 42, 9, 3);
        let mut buf = Vec::new();
        t.write_jsonl(
            &mut buf,
            &DumpMeta {
                rank: 3,
                size: 4,
                device: "spool".into(),
                start_unix_ns: 123,
            },
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"meta\":true"));
        assert!(lines[0].contains("\"rank\":3"));
        assert!(lines[0].contains("\"start_unix_ns\":123"));
        assert!(lines[1].contains("\"name\":\"send_eager\""));
        assert!(lines[1].contains("\"ph\":\"B\""));
        assert!(lines[1].contains("\"peer\":1"));
        assert!(lines[1].contains("\"token\":5"));
        assert!(lines[3].contains("\"op\":\"allreduce\""));
        assert!(lines[3].contains("\"id\":42"));
        assert!(lines[3].contains("\"ctx\":9"));
        assert!(lines[3].contains("\"cseq\":3"));
    }

    #[test]
    fn wait_class_tag_space() {
        const COLL: i32 = -1000;
        const RMA: i32 = -1_048_576;
        assert_eq!(
            WaitClass::for_posted_tag(0, COLL, RMA),
            WaitClass::LateSender
        );
        assert_eq!(
            WaitClass::for_posted_tag(99, COLL, RMA),
            WaitClass::LateSender
        );
        assert_eq!(
            WaitClass::for_posted_tag(-1000, COLL, RMA),
            WaitClass::CollImbalance
        );
        assert_eq!(
            WaitClass::for_posted_tag(-5000, COLL, RMA),
            WaitClass::CollImbalance
        );
        assert_eq!(
            WaitClass::for_posted_tag(RMA, COLL, RMA),
            WaitClass::RmaTarget
        );
        assert_eq!(
            WaitClass::for_posted_tag(RMA - 2, COLL, RMA),
            WaitClass::RmaTarget
        );
    }

    #[test]
    fn wait_histograms_accumulate_per_class() {
        let mut t = Tracer::new(TraceConfig::counters());
        t.note_wait(WaitClass::LateSender, 100);
        t.note_wait(WaitClass::LateSender, 200);
        t.note_wait(WaitClass::CollImbalance, 50);
        assert_eq!(t.wait_hist(WaitClass::LateSender).count(), 2);
        assert_eq!(t.wait_hist(WaitClass::LateSender).total_ns(), 300);
        assert_eq!(t.wait_hist(WaitClass::CollImbalance).count(), 1);
        assert_eq!(t.wait_hist(WaitClass::RmaTarget).count(), 0);
        t.reset();
        assert_eq!(t.wait_hist(WaitClass::LateSender).count(), 0);
    }
}
