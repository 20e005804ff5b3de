//! Cross-rank causal analysis of per-rank trace dumps: matched messages,
//! wait-state profiling with blame attribution, collective skews and the
//! global critical path.
//!
//! The engine stamps matchable identifiers into its trace events (see
//! `mpi_native::trace`): every p2p protocol interval carries the
//! sender's frame `token` — globally unique as the pair
//! `(sender, token)` — and every collective interval carries the
//! communicator-symmetric `(ctx, cseq)` pair. Those stamps let this
//! module join the per-rank JSONL dumps ([`crate::tracemerge`] parses
//! them) into one happens-before structure without any global
//! identifiers being agreed on at runtime:
//!
//! * a **send** `B`/`E` pair on rank *s* with token *t* is the cause of
//!   the `recv_posted`/`recv_unexpected` instant on the rank whose
//!   `peer` argument is *s* and whose `token` argument is *t*;
//! * **collective** intervals on different ranks describe the same
//!   operation exactly when their `(ctx, cseq)` stamps agree.
//!
//! # One clock
//!
//! Every engine in a process stamps its events on the process's one
//! trace epoch (see `mpi_native::trace`), so the dumps of an in-process
//! job share a clock and their `start_unix_ns` anchors agree exactly.
//! Dumps written by separate processes align by their anchors alone,
//! which are only as good as the hosts' wall clocks. Nothing here
//! estimates or corrects clocks: [`Analysis::early_receives`] counts the
//! matched receives stamped before their send began, 0 on one clock, so
//! a dump set whose clocks disagree reports it instead of being
//! silently "corrected".
//!
//! # Wait-state profiles
//!
//! Every matched receive in a dump carries the time the match waited
//! (`wait_ns`): posted-queue residency for `recv_posted`,
//! unexpected-queue residency for `recv_unexpected`. The classification
//! mirrors the engine's live `engine.wait.*` pvars (Scalasca's
//! vocabulary) and splits by the tag space the message travelled in:
//! user tags are **late-sender** (posted) or **late-receiver**
//! (unexpected residency — the receiver showed up after the data),
//! collective tags are **collective imbalance** on either side (a
//! posted round receive waited for a late peer, or the rank itself
//! reached its round after the peer's data), RMA channel tags
//! **rma-target** (progress-starved passive target). Posted waits
//! blame the sending peer; unexpected residency blames the rank
//! itself — it is the one that arrived late, whatever the class.
//!
//! # Critical path
//!
//! The global critical path is recovered by walking the happens-before
//! structure backwards from the globally last event: at a matched
//! receive the predecessor is whichever of (local previous event,
//! matching send's `E`) is later in aligned time; everywhere else it is
//! the local previous event. Each step contributes one segment:
//!
//! * **send** — the step spans a send `B`→`E` interval (this is where a
//!   slow or fault-delayed transmit shows up, because the engine
//!   brackets the transport-level send inside the interval);
//! * **wait** — the step ends in a matched receive whose `wait_ns`
//!   covers the span (the rank sat blocked);
//! * **transport** — a cross-rank hop from send `E` to receive
//!   completion (attributed to the wire, not to either rank);
//! * **compute** — everything else between two local events.
//!
//! Per-rank shares divide the path time spent on each rank's segments
//! (transport hops are unattributed) by the end-to-end path time; a
//! straggler that holds everyone else up collects the dominant share.
//!
//! The JSON emitted by [`Analysis::to_json`] (what `traceanalyze
//! --json` writes) is schema-versioned ([`ANALYSIS_SCHEMA`]) so a reader
//! can refuse to compare incompatible shapes.
//!
//! # Drills
//!
//! [`run_straggler_drill`] and [`run_killcoll_drill`] are the CI
//! acceptance workloads: a fault-injected straggler inside an allreduce
//! over a modelled link (the analysis must blame the straggler and
//! recover the planted delays exactly), and the kill-mid-allreduce
//! spool drill (the analysis must still complete from a victim's
//! force-dump mixed with survivor dumps).

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

use mpi_native::WaitClass;
use mpijava::rs::Communicator as _;
use mpijava::{
    CollAlgorithm, DeviceKind, FaultAction, FaultPlan, MpiRuntime, NetworkModel, Op, TraceConfig,
};

use crate::tracemerge::{anchors, escape, load_trace_dir, ArgValue, RankEvent, RankTrace};

/// Schema tag stamped into [`Analysis::to_json`] output. Bump on any
/// incompatible shape change.
pub const ANALYSIS_SCHEMA: &str = "causal-analysis-v2";

/// The engine's collective tag ceiling (`p2p::COLLECTIVE_TAG_BASE`).
/// Duplicated here because the analysis reads *dumps*, which must stay
/// interpretable without linking the engine that wrote them.
pub const COLLECTIVE_TAG_BASE: i32 = -1000;

/// The engine's RMA channel tag ceiling (`rma::RMA_TAG_BASE`).
pub const RMA_TAG_BASE: i32 = -1_048_576;

// ---------------------------------------------------------------------
// Event helpers
// ---------------------------------------------------------------------

/// Integer argument lookup on a parsed event.
fn arg(ev: &RankEvent, key: &str) -> Option<i64> {
    ev.args.iter().find_map(|(k, v)| match v {
        ArgValue::Int(n) if k == key => Some(*n),
        _ => None,
    })
}

/// String argument lookup on a parsed event.
fn arg_str<'a>(ev: &'a RankEvent, key: &str) -> Option<&'a str> {
    ev.args.iter().find_map(|(k, v)| match v {
        ArgValue::Str(s) if k == key => Some(s.as_str()),
        _ => None,
    })
}

fn is_send(name: &str) -> bool {
    name == "send_eager" || name == "send_rendezvous"
}

fn is_recv(name: &str) -> bool {
    name == "recv_posted" || name == "recv_unexpected"
}

/// Position of a class in [`WaitClass::ALL`] (stable report order).
fn class_index(class: WaitClass) -> usize {
    WaitClass::ALL.iter().position(|&c| c == class).unwrap_or(0)
}

/// Classify one matched-receive event the way the engine's live
/// `engine.wait.*` pvars do.
fn classify(ev: &RankEvent) -> WaitClass {
    let tag = arg(ev, "tag").unwrap_or(0) as i32;
    if ev.name == "recv_unexpected" {
        WaitClass::for_unexpected_tag(tag, COLLECTIVE_TAG_BASE, RMA_TAG_BASE)
    } else {
        WaitClass::for_posted_tag(tag, COLLECTIVE_TAG_BASE, RMA_TAG_BASE)
    }
}

// ---------------------------------------------------------------------
// Wait-state profiles
// ---------------------------------------------------------------------

/// Aggregate of one wait class on one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitBucket {
    /// Matched receives classified here.
    pub count: u64,
    /// Total nanoseconds waited.
    pub total_ns: u64,
    /// Longest single wait.
    pub max_ns: u64,
}

/// One rank's wait-state profile.
#[derive(Debug, Clone)]
pub struct RankWaitProfile {
    /// The rank this profile describes.
    pub rank: usize,
    /// Buckets in [`WaitClass::ALL`] order.
    pub classes: [WaitBucket; 4],
    /// Nanoseconds of waiting attributed to each rank (posted waits
    /// blame the sending peer; unexpected residency blames `rank`
    /// itself).
    pub blame_ns: BTreeMap<usize, u64>,
}

impl RankWaitProfile {
    /// The bucket for one class.
    pub fn bucket(&self, class: WaitClass) -> &WaitBucket {
        &self.classes[class_index(class)]
    }

    /// Total wait across all classes.
    pub fn total_wait_ns(&self) -> u64 {
        self.classes.iter().map(|b| b.total_ns).sum()
    }

    /// The class holding the most waited time, `None` if the rank never
    /// waited.
    pub fn dominant(&self) -> Option<WaitClass> {
        WaitClass::ALL
            .into_iter()
            .max_by_key(|&c| self.bucket(c).total_ns)
            .filter(|&c| self.bucket(c).total_ns > 0)
    }
}

fn wait_profiles(traces: &[RankTrace]) -> Vec<RankWaitProfile> {
    traces
        .iter()
        .map(|trace| {
            let mut profile = RankWaitProfile {
                rank: trace.rank,
                classes: [WaitBucket::default(); 4],
                blame_ns: BTreeMap::new(),
            };
            for ev in &trace.events {
                if !is_recv(&ev.name) {
                    continue;
                }
                let Some(wait) = arg(ev, "wait_ns") else {
                    continue;
                };
                let wait = wait.max(0) as u64;
                let class = classify(ev);
                let bucket = &mut profile.classes[class_index(class)];
                bucket.count += 1;
                bucket.total_ns += wait;
                bucket.max_ns = bucket.max_ns.max(wait);
                if wait > 0 {
                    // Posted waits blame the sender; unexpected
                    // residency blames this rank, whatever its class —
                    // it is the one that arrived after the data.
                    let blamed = if ev.name == "recv_unexpected" {
                        trace.rank
                    } else {
                        arg(ev, "peer").unwrap_or(trace.rank as i64).max(0) as usize
                    };
                    *profile.blame_ns.entry(blamed).or_default() += wait;
                }
            }
            profile
        })
        .collect()
}

// ---------------------------------------------------------------------
// Collective skew
// ---------------------------------------------------------------------

/// Per-rank durations of one collective operation, joined across ranks
/// by its `(ctx, cseq)` causal stamp.
#[derive(Debug, Clone)]
pub struct CollSkew {
    /// Communicator context id (identical on every member).
    pub ctx: i64,
    /// Per-communicator collective sequence number.
    pub cseq: i64,
    /// Operation label from the `coll` Begin event (e.g. `allreduce`).
    pub op: String,
    /// `(rank, duration_ns)` for every rank whose dump holds both
    /// brackets of this collective.
    pub durations_ns: Vec<(usize, u64)>,
    /// Slowest minus fastest member duration.
    pub skew_ns: u64,
}

fn collective_skews(traces: &[RankTrace], anchor: &[i64]) -> Vec<CollSkew> {
    // (ctx, cseq) -> per-rank (begin, end, op).
    #[derive(Default)]
    struct Entry {
        op: String,
        spans: Vec<(usize, i64, i64)>,
    }
    let mut by_stamp: BTreeMap<(i64, i64), Entry> = BTreeMap::new();
    for (i, trace) in traces.iter().enumerate() {
        let mut open: HashMap<(i64, i64), i64> = HashMap::new();
        for ev in &trace.events {
            if ev.name != "coll" {
                continue;
            }
            let (Some(ctx), Some(cseq)) = (arg(ev, "ctx"), arg(ev, "cseq")) else {
                continue;
            };
            let ts = anchor[i] + ev.ts_ns as i64;
            match ev.ph {
                'B' => {
                    open.insert((ctx, cseq), ts);
                    let entry = by_stamp.entry((ctx, cseq)).or_default();
                    if entry.op.is_empty() {
                        entry.op = arg_str(ev, "op").unwrap_or("?").to_string();
                    }
                }
                'E' => {
                    if let Some(begin) = open.remove(&(ctx, cseq)) {
                        by_stamp
                            .entry((ctx, cseq))
                            .or_default()
                            .spans
                            .push((trace.rank, begin, ts));
                    }
                }
                _ => {}
            }
        }
    }
    by_stamp
        .into_iter()
        .filter(|(_, entry)| !entry.spans.is_empty())
        .map(|((ctx, cseq), entry)| {
            let durations_ns: Vec<(usize, u64)> = entry
                .spans
                .iter()
                .map(|&(rank, b, e)| (rank, e.saturating_sub(b).max(0) as u64))
                .collect();
            let max = durations_ns.iter().map(|&(_, d)| d).max().unwrap_or(0);
            let min = durations_ns.iter().map(|&(_, d)| d).min().unwrap_or(0);
            CollSkew {
                ctx,
                cseq,
                op: entry.op,
                durations_ns,
                skew_ns: max - min,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Critical path
// ---------------------------------------------------------------------

/// What one critical-path segment's time was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Local work between two events on the owning rank.
    Compute,
    /// A send `B`→`E` interval (transport-level transmit, including any
    /// fault-injected delay the endpoint imposed).
    Send,
    /// The owning rank sat blocked in a matched receive.
    Wait,
    /// Cross-rank hop: matched send `E` to receive completion.
    Transport,
}

impl SegmentKind {
    /// Stable label for JSON and reports.
    pub fn label(self) -> &'static str {
        match self {
            SegmentKind::Compute => "compute",
            SegmentKind::Send => "send",
            SegmentKind::Wait => "wait",
            SegmentKind::Transport => "transport",
        }
    }
}

/// One tile of the critical path, in aligned nanoseconds since the
/// earliest trace anchor.
#[derive(Debug, Clone)]
pub struct PathSegment {
    /// Owning rank; `None` for transport hops.
    pub rank: Option<usize>,
    /// Time class.
    pub kind: SegmentKind,
    /// Aligned start.
    pub start_ns: i64,
    /// Aligned end (`>= start_ns`).
    pub end_ns: i64,
    /// Name of the event the segment runs into (what the time was
    /// spent *reaching*).
    pub at: String,
}

impl PathSegment {
    /// Segment length.
    pub fn duration_ns(&self) -> u64 {
        (self.end_ns - self.start_ns).max(0) as u64
    }
}

/// The recovered global critical path.
#[derive(Debug, Clone, Default)]
pub struct CriticalPath {
    /// Segments in forward time order, tiling the path end to end.
    pub segments: Vec<PathSegment>,
    /// End-to-end path time (sum of segment durations).
    pub total_ns: u64,
    /// Time in [`SegmentKind::Compute`] segments.
    pub compute_ns: u64,
    /// Time in [`SegmentKind::Send`] segments.
    pub send_ns: u64,
    /// Time in [`SegmentKind::Wait`] segments.
    pub wait_ns: u64,
    /// Time in [`SegmentKind::Transport`] segments.
    pub transport_ns: u64,
    /// Path time on each rank's segments (transport is unattributed).
    pub rank_ns: BTreeMap<usize, u64>,
}

impl CriticalPath {
    /// Fraction of the path spent on `rank`'s segments.
    pub fn rank_share(&self, rank: usize) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        *self.rank_ns.get(&rank).unwrap_or(&0) as f64 / self.total_ns as f64
    }

    /// The rank holding the largest share, if any rank holds time.
    pub fn dominant_rank(&self) -> Option<usize> {
        self.rank_ns
            .iter()
            .filter(|&(_, &ns)| ns > 0)
            .max_by_key(|&(_, &ns)| ns)
            .map(|(&r, _)| r)
    }
}

fn critical_path(traces: &[RankTrace], anchor: &[i64]) -> CriticalPath {
    let n = traces.len();
    let mut path = CriticalPath::default();
    if n == 0 {
        return path;
    }
    let index_of: HashMap<usize, usize> = traces
        .iter()
        .enumerate()
        .map(|(i, t)| (t.rank, i))
        .collect();
    // Aligned timestamps, parallel to each trace's event list.
    let ats: Vec<Vec<i64>> = traces
        .iter()
        .enumerate()
        .map(|(i, t)| {
            t.events
                .iter()
                .map(|ev| anchor[i] + ev.ts_ns as i64)
                .collect()
        })
        .collect();
    let send_site = send_sites(traces);
    // Start at the globally last event.
    let Some((mut r, mut e)) = (0..n)
        .filter(|&i| !traces[i].events.is_empty())
        .map(|i| (i, traces[i].events.len() - 1))
        .max_by_key(|&(i, e)| ats[i][e])
    else {
        return path;
    };
    let total_events: usize = traces.iter().map(|t| t.events.len()).sum();
    let mut segments: Vec<PathSegment> = Vec::new();
    // Causes are acyclic, so the walk terminates; the cap is a backstop
    // against a malformed dump (e.g. duplicate tokens after a restart).
    for _ in 0..total_events.saturating_mul(2) + 16 {
        let ev = &traces[r].events[e];
        let t = ats[r][e];
        let local = (e > 0).then(|| ats[r][e - 1]);
        let remote: Option<(usize, usize, i64)> = if is_recv(&ev.name) {
            arg(ev, "peer")
                .zip(arg(ev, "token"))
                .and_then(|(peer, token)| {
                    let &si = index_of.get(&(peer as usize))?;
                    let [begin, Some(end)] = *send_site.get(&(si, token))? else {
                        return None;
                    };
                    // A rendezvous send's E is stamped when its last data
                    // frame ships, which can be after this receive: the
                    // path then came over the wire from its B, stamped
                    // before the announcement left.
                    let se = begin.filter(|_| ats[si][end] > t).unwrap_or(end);
                    Some((si, se, ats[si][se]))
                })
        } else {
            None
        };
        match (local, remote) {
            // Cross-rank hop: the matching send ended after everything
            // local — the path came over the wire.
            (local, Some((si, se, sent))) if local.is_none_or(|lt| sent >= lt) => {
                segments.push(PathSegment {
                    rank: None,
                    kind: SegmentKind::Transport,
                    start_ns: sent.min(t),
                    end_ns: t,
                    at: ev.name.clone(),
                });
                (r, e) = (si, se);
            }
            (Some(lt), _) => {
                let rank = Some(traces[r].rank);
                let prev = &traces[r].events[e - 1];
                let send_pair = ev.ph == 'E'
                    && is_send(&ev.name)
                    && prev.ph == 'B'
                    && prev.name == ev.name
                    && arg(prev, "token") == arg(ev, "token");
                if send_pair {
                    segments.push(PathSegment {
                        rank,
                        kind: SegmentKind::Send,
                        start_ns: lt,
                        end_ns: t,
                        at: ev.name.clone(),
                    });
                } else {
                    let wait = if is_recv(&ev.name) {
                        arg(ev, "wait_ns").unwrap_or(0).max(0)
                    } else {
                        0
                    };
                    // The walk runs backwards in time, so the later
                    // segment, the wait, goes first.
                    let wait_start = (t - wait).max(lt);
                    if wait > 0 && t > wait_start {
                        segments.push(PathSegment {
                            rank,
                            kind: SegmentKind::Wait,
                            start_ns: wait_start,
                            end_ns: t,
                            at: ev.name.clone(),
                        });
                    }
                    if wait_start > lt {
                        segments.push(PathSegment {
                            rank,
                            kind: SegmentKind::Compute,
                            start_ns: lt,
                            end_ns: wait_start,
                            at: ev.name.clone(),
                        });
                    }
                }
                e -= 1;
            }
            (None, _) => break,
        }
    }
    segments.retain(|s| s.end_ns > s.start_ns);
    segments.reverse();
    for seg in &segments {
        let d = seg.duration_ns();
        path.total_ns += d;
        match seg.kind {
            SegmentKind::Compute => path.compute_ns += d,
            SegmentKind::Send => path.send_ns += d,
            SegmentKind::Wait => path.wait_ns += d,
            SegmentKind::Transport => path.transport_ns += d,
        }
        if let Some(rank) = seg.rank {
            *path.rank_ns.entry(rank).or_default() += d;
        }
    }
    path.segments = segments;
    path
}

// ---------------------------------------------------------------------
// The analysis
// ---------------------------------------------------------------------

/// Everything the causal pass learned from one trace directory.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Ranks with a dump present, ascending.
    pub ranks: Vec<usize>,
    /// World size as stamped by the dumps (max over files; a missing
    /// dump does not shrink it).
    pub world_size: usize,
    /// `(rank, dropped)` for ranks whose ring overwrote events — their
    /// profiles and the path are lower bounds.
    pub dropped: Vec<(usize, u64)>,
    /// Receives joined to their sending interval via `(sender, token)`.
    pub messages_matched: usize,
    /// Matched receives stamped before the `B` of the send they match:
    /// 0 on one clock, so anything else means the dumps' clocks
    /// disagree (see the module docs).
    pub early_receives: usize,
    /// Per-rank wait-state profiles, in `ranks` order.
    pub wait_profiles: Vec<RankWaitProfile>,
    /// Collectives joined across ranks via `(ctx, cseq)`.
    pub collectives: Vec<CollSkew>,
    /// The global critical path.
    pub critical_path: CriticalPath,
}

impl Analysis {
    /// The wait profile of one rank.
    pub fn profile(&self, rank: usize) -> Option<&RankWaitProfile> {
        self.wait_profiles.iter().find(|p| p.rank == rank)
    }

    /// Schema-versioned JSON (hand-rolled; no dependencies).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"schema\": \"{ANALYSIS_SCHEMA}\",\n  \"world_size\": {},\n  \"ranks\": {:?},\n",
            self.world_size, self.ranks
        );
        let dropped: Vec<String> = self
            .dropped
            .iter()
            .map(|(r, d)| format!("{{\"rank\": {r}, \"dropped\": {d}}}"))
            .collect();
        let _ = writeln!(out, "  \"dropped\": [{}],", dropped.join(", "));
        let _ = writeln!(
            out,
            "  \"messages_matched\": {},\n  \"early_receives\": {},",
            self.messages_matched, self.early_receives
        );
        out.push_str("  \"waits\": [\n");
        for (i, p) in self.wait_profiles.iter().enumerate() {
            let _ = write!(out, "    {{\"rank\": {}, ", p.rank);
            match p.dominant() {
                Some(c) => {
                    let _ = write!(out, "\"dominant\": \"{}\", ", c.label());
                }
                None => out.push_str("\"dominant\": null, "),
            }
            out.push_str("\"classes\": {");
            for (j, class) in WaitClass::ALL.into_iter().enumerate() {
                let b = p.bucket(class);
                let _ = write!(
                    out,
                    "{}\"{}\": {{\"count\": {}, \"total_ns\": {}, \"max_ns\": {}}}",
                    if j > 0 { ", " } else { "" },
                    class.label(),
                    b.count,
                    b.total_ns,
                    b.max_ns
                );
            }
            out.push_str("}, \"blame_ns\": {");
            for (j, (peer, ns)) in p.blame_ns.iter().enumerate() {
                let _ = write!(out, "{}\"{peer}\": {ns}", if j > 0 { ", " } else { "" });
            }
            let _ = writeln!(
                out,
                "}}}}{}",
                if i + 1 < self.wait_profiles.len() {
                    ","
                } else {
                    ""
                }
            );
        }
        out.push_str("  ],\n  \"collectives\": [\n");
        for (i, c) in self.collectives.iter().enumerate() {
            let durations: Vec<String> = c
                .durations_ns
                .iter()
                .map(|(r, d)| format!("\"{r}\": {d}"))
                .collect();
            let _ = writeln!(
                out,
                "    {{\"ctx\": {}, \"cseq\": {}, \"op\": \"{}\", \"skew_ns\": {}, \
                 \"durations_ns\": {{{}}}}}{}",
                c.ctx,
                c.cseq,
                escape(&c.op),
                c.skew_ns,
                durations.join(", "),
                if i + 1 < self.collectives.len() {
                    ","
                } else {
                    ""
                }
            );
        }
        let cp = &self.critical_path;
        let _ = write!(
            out,
            "  ],\n  \"critical_path\": {{\n    \"total_ns\": {}, \"compute_ns\": {}, \
             \"send_ns\": {}, \"wait_ns\": {}, \"transport_ns\": {},\n    \"rank_share\": {{",
            cp.total_ns, cp.compute_ns, cp.send_ns, cp.wait_ns, cp.transport_ns
        );
        for (i, rank) in self.ranks.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{rank}\": {:.4}",
                if i > 0 { ", " } else { "" },
                cp.rank_share(*rank)
            );
        }
        out.push_str("},\n    \"segments\": [\n");
        for (i, seg) in cp.segments.iter().enumerate() {
            let rank = seg
                .rank
                .map(|r| r.to_string())
                .unwrap_or_else(|| "null".into());
            let _ = writeln!(
                out,
                "      {{\"rank\": {rank}, \"kind\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"at\": \"{}\"}}{}",
                seg.kind.label(),
                seg.start_ns,
                seg.end_ns,
                escape(&seg.at),
                if i + 1 < cp.segments.len() { "," } else { "" }
            );
        }
        out.push_str("    ]\n  }\n}\n");
        out
    }

    /// Human-readable report.
    pub fn render_report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "causal analysis: {} of {} ranks, {} matched messages, \
             {} received before their send began",
            self.ranks.len(),
            self.world_size,
            self.messages_matched,
            self.early_receives
        );
        for (rank, dropped) in &self.dropped {
            let _ = writeln!(
                out,
                "  warning: rank {rank} ring dropped {dropped} events — its numbers are lower bounds"
            );
        }
        out.push_str("wait states:\n");
        for p in &self.wait_profiles {
            match p.dominant() {
                Some(class) => {
                    let b = p.bucket(class);
                    let blames: Vec<String> = p
                        .blame_ns
                        .iter()
                        .map(|(peer, ns)| format!("rank {peer} for {}", fmt_ns(*ns)))
                        .collect();
                    let _ = writeln!(
                        out,
                        "  rank {}: dominant {} ({} waits, {} total, max {}); blames {}",
                        p.rank,
                        class.label(),
                        b.count,
                        fmt_ns(b.total_ns),
                        fmt_ns(b.max_ns),
                        blames.join(", ")
                    );
                }
                None => {
                    let _ = writeln!(out, "  rank {}: never waited", p.rank);
                }
            }
        }
        if !self.collectives.is_empty() {
            out.push_str("collectives:\n");
            for c in &self.collectives {
                let _ = writeln!(
                    out,
                    "  {} ctx={} cseq={}: skew {}",
                    c.op,
                    c.ctx,
                    c.cseq,
                    fmt_ns(c.skew_ns)
                );
            }
        }
        let cp = &self.critical_path;
        let pct = |ns: u64| {
            if cp.total_ns == 0 {
                0.0
            } else {
                100.0 * ns as f64 / cp.total_ns as f64
            }
        };
        let _ = writeln!(
            out,
            "critical path: {} end-to-end — compute {} ({:.0}%), send {} ({:.0}%), \
             wait {} ({:.0}%), transport {} ({:.0}%)",
            fmt_ns(cp.total_ns),
            fmt_ns(cp.compute_ns),
            pct(cp.compute_ns),
            fmt_ns(cp.send_ns),
            pct(cp.send_ns),
            fmt_ns(cp.wait_ns),
            pct(cp.wait_ns),
            fmt_ns(cp.transport_ns),
            pct(cp.transport_ns)
        );
        let mut shares: Vec<(usize, u64)> = cp.rank_ns.iter().map(|(&r, &ns)| (r, ns)).collect();
        shares.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
        let shares: Vec<String> = shares
            .iter()
            .map(|&(r, _)| format!("rank {r} {:.1}%", 100.0 * cp.rank_share(r)))
            .collect();
        let _ = writeln!(out, "  rank share: {}", shares.join(", "));
        out
    }
}

/// Render nanoseconds at a human scale.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Every send's `B` and `E` event indices, keyed by `(sender index,
/// token)`.
fn send_sites(traces: &[RankTrace]) -> HashMap<(usize, i64), [Option<usize>; 2]> {
    let mut sites: HashMap<(usize, i64), [Option<usize>; 2]> = HashMap::new();
    for (i, trace) in traces.iter().enumerate() {
        for (e, ev) in trace.events.iter().enumerate() {
            let Some(token) = arg(ev, "token").filter(|_| is_send(&ev.name)) else {
                continue;
            };
            let site = sites.entry((i, token)).or_default();
            match ev.ph {
                'B' => site[0] = Some(e),
                'E' => site[1] = Some(e),
                _ => {}
            }
        }
    }
    sites
}

/// Join every receive to the send it matches by `(sender, token)`:
/// returns how many joined and how many of those are stamped before
/// their send's `B` (see [`Analysis::early_receives`]).
fn match_receives(traces: &[RankTrace], anchor: &[i64]) -> (usize, usize) {
    let index_of: HashMap<usize, usize> = traces
        .iter()
        .enumerate()
        .map(|(i, t)| (t.rank, i))
        .collect();
    let sends = send_sites(traces);
    let (mut matched, mut early) = (0, 0);
    for (j, trace) in traces.iter().enumerate() {
        for ev in trace.events.iter().filter(|ev| is_recv(&ev.name)) {
            let send = arg(ev, "peer")
                .zip(arg(ev, "token"))
                .and_then(|(peer, token)| {
                    let &i = index_of.get(&(peer as usize))?;
                    Some((i, sends.get(&(i, token))?))
                });
            if let Some((i, &[begin, Some(_)])) = send {
                matched += 1;
                let began = begin.map(|b| anchor[i] + traces[i].events[b].ts_ns as i64);
                early += usize::from(began.is_some_and(|b| anchor[j] + (ev.ts_ns as i64) < b));
            }
        }
    }
    (matched, early)
}

/// Run the full causal pass over parsed traces.
pub fn analyze(traces: &[RankTrace]) -> Result<Analysis, String> {
    if traces.is_empty() {
        return Err("no traces to analyze".into());
    }
    let anchor = anchors(traces);
    let (messages_matched, early_receives) = match_receives(traces, &anchor);
    Ok(Analysis {
        ranks: traces.iter().map(|t| t.rank).collect(),
        world_size: traces.iter().map(|t| t.size).max().unwrap_or(0),
        dropped: traces
            .iter()
            .filter(|t| t.dropped > 0)
            .map(|t| (t.rank, t.dropped))
            .collect(),
        messages_matched,
        early_receives,
        wait_profiles: wait_profiles(traces),
        collectives: collective_skews(traces, &anchor),
        critical_path: critical_path(traces, &anchor),
    })
}

/// Load a trace directory (tolerating missing ranks) and analyze it.
pub fn analyze_dir(dir: &Path) -> Result<Analysis, String> {
    analyze(&load_trace_dir(dir)?)
}

// ---------------------------------------------------------------------
// CI drills
// ---------------------------------------------------------------------

/// The imbalanced-allreduce drill of the acceptance criteria.
#[derive(Debug, Clone)]
pub struct StragglerDrillSpec {
    /// World size: a power of two, so that the gate can count
    /// recursive-doubling rounds (`log2(ranks)`).
    pub ranks: usize,
    /// The rank whose outgoing frames are fault-delayed.
    pub straggler: usize,
    /// Injected per-frame delay.
    pub delay: Duration,
    /// How many of the allreduce's leading frames per outgoing link are
    /// delayed.
    pub delayed_frames: u64,
    /// Allreduce payload in `i32`s (kept small: the eager path keeps
    /// one frame per round hop, so the delay lands exactly once per
    /// round).
    pub payload_ints: usize,
}

impl Default for StragglerDrillSpec {
    fn default() -> Self {
        StragglerDrillSpec {
            ranks: 4,
            straggler: 2,
            delay: Duration::from_millis(25),
            delayed_frames: 1,
            payload_ints: 64,
        }
    }
}

/// Run a barrier, then a recursive-doubling allreduce over a modelled
/// link with one fault-delayed straggler, dumping per-rank traces into
/// `trace_dir`, then analyze them. The barrier starts every rank's
/// allreduce within a message latency of the others, so each member's
/// duration measures the planted delays rather than thread start-up.
/// The returned analysis is expected to blame the straggler and recover
/// the delays — [`check_straggler_attribution`] encodes the gate.
pub fn run_straggler_drill(
    trace_dir: &Path,
    spec: &StragglerDrillSpec,
) -> Result<Analysis, String> {
    let mut plan = FaultPlan::none();
    for peer in 0..spec.ranks {
        if peer == spec.straggler {
            continue;
        }
        // The barrier sends the first frame on each of the straggler's
        // recursive-doubling links (and none on the others).
        for nth in 2..=spec.delayed_frames + 1 {
            plan = plan.with(FaultAction::DelayFrame {
                src: spec.straggler,
                dst: peer,
                nth,
                delay: spec.delay,
            });
        }
    }
    let payload = spec.payload_ints;
    MpiRuntime::new(spec.ranks)
        // A due-time modelled link keeps the transport term visible and
        // deterministic next to the injected delay.
        .network(NetworkModel::new(Duration::from_micros(50), 1e9))
        .coll_algorithm(CollAlgorithm::RecursiveDoubling)
        .faults(plan)
        .trace(TraceConfig::events())
        .trace_dir(trace_dir)
        .run(move |mpi| {
            let world = mpi.comm_world();
            let rank = world.rank()?;
            let send = vec![rank as i32; payload];
            let mut recv = vec![0i32; payload];
            world.barrier()?;
            world.all_reduce(&send, &mut recv, Op::sum())?;
            mpi.finalize()?;
            Ok(())
        })
        .map_err(|e| format!("straggler drill failed to run: {e:?}"))?;
    analyze_dir(trace_dir)
}

/// How far a recovered time may sit from the planted delay: scheduling
/// noise on a loaded host, well under one delay, so that a window still
/// tells one delay from none or two. A delayed send sleeps inside its
/// interval, so it cannot run short; the allreduce's per-rank durations
/// start at each rank's own barrier exit, so they can run short by the
/// ranks' start misalignment (on a 2-vCPU host the skew read down to
/// 24.5 ms for a 25 ms delay).
const PLANTED_SLACK: Duration = Duration::from_millis(10);

/// The acceptance gate on [`run_straggler_drill`]'s analysis, checked
/// against the planted truth:
///
/// * blame: every non-straggler rank's dominant wait state is
///   collective imbalance, and the straggler holds at least half the
///   critical path;
/// * `2 × ranks × log2(ranks)` matched messages (the barrier and the
///   allreduce send one message per rank per recursive-doubling round);
/// * exactly `log2(ranks) × delayed_frames` critical-path `send`
///   segments last at least `delay`: all on the straggler, each under
///   `delay + PLANTED_SLACK`;
/// * the allreduce joins `ranks` durations, each at least
///   `delay - PLANTED_SLACK`, with a skew within `PLANTED_SLACK` of
///   `delay` (the straggler's round-1 partner waits for both delays,
///   the others for one);
/// * no receive is stamped before its send began.
pub fn check_straggler_attribution(
    analysis: &Analysis,
    spec: &StragglerDrillSpec,
) -> Result<(), String> {
    for rank in 0..spec.ranks {
        if rank == spec.straggler {
            continue;
        }
        let profile = analysis
            .profile(rank)
            .ok_or_else(|| format!("rank {rank} left no trace dump"))?;
        match profile.dominant() {
            Some(WaitClass::CollImbalance) => {}
            other => {
                return Err(format!(
                    "rank {rank}: dominant wait state is {:?}, expected coll_imbalance \
                     (profile: {:?})",
                    other.map(WaitClass::label),
                    profile.classes
                ));
            }
        }
    }
    let share = analysis.critical_path.rank_share(spec.straggler);
    if share < 0.5 {
        return Err(format!(
            "straggler rank {} holds only {:.1}% of the critical path (gate: >=50%); \
             rank_ns: {:?}",
            spec.straggler,
            100.0 * share,
            analysis.critical_path.rank_ns
        ));
    }
    check_one_clock(analysis)?;
    let rounds = spec.ranks.ilog2() as usize;
    if analysis.messages_matched != 2 * spec.ranks * rounds {
        return Err(format!(
            "{} matched messages, expected {} (2 collectives x {} ranks x {rounds} rounds)",
            analysis.messages_matched,
            2 * spec.ranks * rounds,
            spec.ranks
        ));
    }
    let delay = spec.delay;
    let (floor, ceiling) = (delay.saturating_sub(PLANTED_SLACK), delay + PLANTED_SLACK);
    let ns = |d: Duration| d.as_nanos() as u64;
    let delayed: Vec<(Option<usize>, u64)> = analysis
        .critical_path
        .segments
        .iter()
        .filter(|s| s.kind == SegmentKind::Send && s.duration_ns() >= ns(delay))
        .map(|s| (s.rank, s.duration_ns()))
        .collect();
    let expected = rounds * spec.delayed_frames as usize;
    if delayed.len() != expected
        || delayed
            .iter()
            .any(|&(rank, d)| rank != Some(spec.straggler) || d >= ns(ceiling))
    {
        return Err(format!(
            "critical-path sends of at least {delay:?} as (rank, ns): {delayed:?}; expected \
             {expected}, all on rank {} and each under {ceiling:?}",
            spec.straggler
        ));
    }
    let coll = analysis
        .collectives
        .iter()
        .find(|c| c.op == "allreduce")
        .ok_or("the allreduce did not join across ranks")?;
    if coll.durations_ns.len() != spec.ranks
        || coll.durations_ns.iter().any(|&(_, d)| d < ns(floor))
        || !(ns(floor)..ns(ceiling)).contains(&coll.skew_ns)
    {
        return Err(format!(
            "allreduce durations (rank, ns) {:?}, skew {} ns; expected {} ranks each at \
             least {floor:?} and a skew in [{floor:?}, {ceiling:?})",
            coll.durations_ns, coll.skew_ns, spec.ranks
        ));
    }
    Ok(())
}

/// On one clock no receive precedes the send it matches.
fn check_one_clock(analysis: &Analysis) -> Result<(), String> {
    match analysis.early_receives {
        0 => Ok(()),
        n => Err(format!(
            "{n} matched receives are stamped before their send began (one clock: expected 0)"
        )),
    }
}

/// The kill-mid-allreduce spool drill, analysis edition: rank `size-1`
/// force-dumps its ring and dies (no finalize), the survivors see the
/// failure and finalize normally; the causal pass must still complete
/// over the mixed victim/survivor dumps, join the clean first allreduce
/// across all ranks and find no receive stamped before its send.
/// Returns the analysis.
pub fn run_killcoll_drill(root: &Path, size: usize) -> Result<Analysis, String> {
    let trace_dir = root.join("trace");
    let victim = size - 1;
    MpiRuntime::new(size)
        .device(DeviceKind::Spool)
        .spool_dir(root)
        .lease(Duration::from_millis(300))
        .trace(TraceConfig::events())
        .trace_dir(&trace_dir)
        .run(move |mpi| {
            let world = mpi.comm_world();
            let rank = world.rank()?;
            let send = vec![rank as i32; 64];
            let mut recv = vec![0i32; 64];
            world.all_reduce(&send, &mut recv, Op::sum())?;
            if rank == victim {
                mpi.dump_trace_to(mpi.with_engine(|e| e.trace_dir()).unwrap())?;
                return Ok(());
            }
            // The second allreduce names a dead rank; both outcomes
            // (error or stall-then-error) end with a finalize dump.
            let _ = world.all_reduce(&send, &mut recv, Op::sum());
            mpi.finalize()?;
            Ok(())
        })
        .map_err(|e| format!("killcoll drill failed to run: {e:?}"))?;
    let analysis = analyze_dir(&trace_dir)?;
    if analysis.ranks.len() != size {
        return Err(format!(
            "expected {size} dumps (victim force-dump + survivors), found ranks {:?}",
            analysis.ranks
        ));
    }
    if !analysis.collectives.iter().any(|c| c.op == "allreduce") {
        return Err("the clean first allreduce did not join across ranks".into());
    }
    check_one_clock(&analysis)?;
    Ok(analysis)
}

// ---------------------------------------------------------------------
// Tests (synthetic dumps; the live drills run in tests/causal_analysis)
// ---------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracemerge::{parse_rank_trace, Json};

    fn meta(rank: usize, start_unix_ns: u64) -> String {
        format!(
            "{{\"meta\":true,\"rank\":{rank},\"size\":2,\"device\":\"shm\",\"mode\":\"events\",\
             \"capacity\":1024,\"recorded\":0,\"dropped\":0,\"start_unix_ns\":{start_unix_ns}}}"
        )
    }

    fn ev(ts: u64, name: &str, ph: char, args: &str) -> String {
        format!("{{\"ts_ns\":{ts},\"name\":\"{name}\",\"ph\":\"{ph}\",\"args\":{{{args}}}}}")
    }

    #[test]
    fn wait_profiles_classify_by_tag_space_and_blame_peers() {
        let r0 = [
            meta(0, 0),
            // User-tag posted wait: late sender, blames rank 1.
            ev(
                1000,
                "recv_posted",
                'i',
                "\"peer\":1,\"tag\":5,\"bytes\":8,\"token\":1,\"wait_ns\":700",
            ),
            // Collective-tag posted wait: imbalance, blames rank 1.
            ev(
                2000,
                "recv_posted",
                'i',
                "\"peer\":1,\"tag\":-1001,\"bytes\":8,\"token\":2,\"wait_ns\":5000",
            ),
            // Unexpected residency: late receiver, blames self.
            ev(
                3000,
                "recv_unexpected",
                'i',
                "\"peer\":1,\"tag\":5,\"bytes\":8,\"token\":3,\"wait_ns\":300",
            ),
            // RMA-channel posted wait.
            ev(
                4000,
                "recv_posted",
                'i',
                "\"peer\":1,\"tag\":-1048580,\"bytes\":8,\"token\":4,\"wait_ns\":900",
            ),
            // Collective-tag unexpected residency: the rank was late to
            // its own round — imbalance, but still blames itself.
            ev(
                5000,
                "recv_unexpected",
                'i',
                "\"peer\":1,\"tag\":-1002,\"bytes\":8,\"token\":5,\"wait_ns\":400",
            ),
        ]
        .join("\n");
        let traces = vec![parse_rank_trace(&r0).unwrap()];
        let profiles = wait_profiles(&traces);
        let p = &profiles[0];
        assert_eq!(p.bucket(WaitClass::LateSender).total_ns, 700);
        assert_eq!(p.bucket(WaitClass::CollImbalance).total_ns, 5400);
        assert_eq!(p.bucket(WaitClass::LateReceiver).total_ns, 300);
        assert_eq!(p.bucket(WaitClass::RmaTarget).total_ns, 900);
        assert_eq!(p.dominant(), Some(WaitClass::CollImbalance));
        assert_eq!(p.blame_ns.get(&1), Some(&6600)); // 700 + 5000 + 900
        assert_eq!(p.blame_ns.get(&0), Some(&700)); // unexpected = self
    }

    /// A two-rank late-sender chain: rank 1 computes 9us, sends 1us;
    /// rank 0 waits 9.5us for it. The path must run over rank 1's
    /// compute+send, hop the wire, and leave rank 0 with only the
    /// trailing slice — so rank 1 dominates.
    #[test]
    fn critical_path_follows_the_matched_send() {
        let r0 = [
            meta(0, 0),
            ev(
                100,
                "coll",
                'B',
                "\"op\":\"allreduce\",\"alg\":\"rd\",\"id\":1,\"ctx\":7,\"cseq\":1",
            ),
            ev(
                10_600,
                "recv_posted",
                'i',
                "\"peer\":1,\"tag\":-1001,\"bytes\":8,\"token\":1,\"wait_ns\":9500",
            ),
            ev(
                10_700,
                "coll",
                'E',
                "\"op\":\"allreduce\",\"alg\":\"rd\",\"id\":1,\"ctx\":7,\"cseq\":1",
            ),
        ]
        .join("\n");
        let r1 = [
            meta(1, 0),
            ev(
                200,
                "coll",
                'B',
                "\"op\":\"allreduce\",\"alg\":\"rd\",\"id\":1,\"ctx\":7,\"cseq\":1",
            ),
            ev(
                9_200,
                "send_eager",
                'B',
                "\"peer\":0,\"tag\":-1001,\"bytes\":8,\"token\":1",
            ),
            ev(
                10_200,
                "send_eager",
                'E',
                "\"peer\":0,\"tag\":-1001,\"bytes\":8,\"token\":1",
            ),
            ev(
                10_300,
                "coll",
                'E',
                "\"op\":\"allreduce\",\"alg\":\"rd\",\"id\":1,\"ctx\":7,\"cseq\":1",
            ),
        ]
        .join("\n");
        let traces = vec![
            parse_rank_trace(&r0).unwrap(),
            parse_rank_trace(&r1).unwrap(),
        ];
        let analysis = analyze(&traces).unwrap();
        let cp = &analysis.critical_path;
        // Path: rank0 coll E <- recv (hop) <- rank1 send E <- send B
        // (send seg) <- coll B (compute seg) — rank 1 owns ~10us of the
        // ~10.6us path.
        assert!(cp.total_ns > 0);
        assert!(
            cp.rank_share(1) > 0.8,
            "rank 1 should dominate: {:?}",
            cp.rank_ns
        );
        assert!(cp.send_ns >= 1000, "the send interval is on the path");
        assert_eq!(cp.transport_ns, 400); // 10_600 - 10_200
        assert_eq!(analysis.messages_matched, 1);
        // The collective joined across ranks on (ctx, cseq).
        assert_eq!(analysis.collectives.len(), 1);
        assert_eq!(analysis.collectives[0].durations_ns.len(), 2);
        assert_eq!(analysis.collectives[0].op, "allreduce");
    }

    /// A rendezvous send whose E is stamped after the receive it
    /// matches (its last data frame shipped late): the path hops from
    /// the receive to the send's B, so it never runs forward in time
    /// and the wire hop has a length. Before the send, the sender
    /// computed and then waited in a receive that matches nothing here;
    /// its wait must follow its compute on the path.
    #[test]
    fn critical_path_hops_to_the_begin_of_a_send_that_ends_after_its_receive() {
        let send = |ts: u64, ph: char| {
            let args = "\"peer\":0,\"tag\":7,\"bytes\":262144,\"token\":1";
            ev(ts, "send_rendezvous", ph, args)
        };
        let recv = |ts: u64, peer: u32, token: u32| {
            let args =
                format!("\"peer\":{peer},\"tag\":7,\"bytes\":8,\"token\":{token},\"wait_ns\":300");
            ev(ts, "recv_posted", 'i', &args)
        };
        let r0 = [
            meta(0, 0),
            ev(100, "mark", 'i', ""),
            recv(3000, 1, 1),
            ev(6000, "mark", 'i', ""),
        ]
        .join("\n");
        let r1 = [
            meta(1, 0),
            ev(200, "mark", 'i', ""),
            recv(800, 0, 9),
            send(1000, 'B'),
            send(5000, 'E'),
        ]
        .join("\n");
        let traces = [r0, r1].map(|t| parse_rank_trace(&t).unwrap());
        let cp = analyze(&traces).unwrap().critical_path;
        for pair in cp.segments.windows(2) {
            assert!(pair[1].start_ns >= pair[0].end_ns, "{:?}", cp.segments);
        }
        assert_eq!(cp.transport_ns, 2000, "{:?}", cp.segments); // 3000 - 1000
        assert_eq!((cp.send_ns, cp.wait_ns), (0, 300));
    }

    #[test]
    fn analysis_json_is_parseable_and_schema_stamped() {
        let r0 = [
            meta(0, 0),
            ev(
                1000,
                "recv_posted",
                'i',
                "\"peer\":0,\"tag\":5,\"bytes\":8,\"token\":1,\"wait_ns\":700",
            ),
        ]
        .join("\n");
        let traces = vec![parse_rank_trace(&r0).unwrap()];
        let analysis = analyze(&traces).unwrap();
        let json = analysis.to_json();
        let doc = Json::parse(&json).expect("analysis JSON parses");
        assert_eq!(
            doc.get("schema").and_then(|s| s.as_str()),
            Some(ANALYSIS_SCHEMA)
        );
        assert!(doc.get("critical_path").is_some());
        assert_eq!(doc.get("early_receives").and_then(Json::as_i64), Some(0));
        let report = analysis.render_report();
        assert!(report.contains("wait states"));
    }

    /// A dump is input from a file: an event name or an `op` label
    /// holding `"` or `\` must come out of `to_json` escaped.
    #[test]
    fn analysis_json_escapes_strings_from_the_dump() {
        let odd = r#"odd \"name\" \\ here"#;
        let coll = r#""op":"all\"re\\duce","alg":"rd","id":1,"ctx":7,"cseq":1"#;
        let r0 = [
            meta(0, 0),
            ev(100, "coll", 'B', coll),
            ev(200, odd, 'i', ""),
            ev(300, "coll", 'E', coll),
        ]
        .join("\n");
        let analysis = analyze(&[parse_rank_trace(&r0).unwrap()]).unwrap();
        let doc = Json::parse(&analysis.to_json()).expect("analysis JSON parses");
        let collectives = doc.get("collectives").and_then(Json::as_arr).unwrap();
        let op = collectives[0].get("op").and_then(Json::as_str);
        assert_eq!(op, Some(r#"all"re\duce"#));
        let segments = doc.get("critical_path").and_then(|cp| cp.get("segments"));
        let at: Vec<&str> = segments
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(|seg| seg.get("at").and_then(Json::as_str))
            .collect();
        assert!(at.contains(&r#"odd "name" \ here"#), "{at:?}");
    }

    /// Two messages from rank 0 to rank 1 on one anchor: the first is
    /// received 500 ns before its send began, the second after it ended.
    #[test]
    fn a_receive_stamped_before_its_send_began_is_early() {
        let send = |ts: u64, ph: char, token: u32| {
            let args = format!("\"peer\":1,\"tag\":7,\"bytes\":8,\"token\":{token}");
            ev(ts, "send_eager", ph, &args)
        };
        let recv = |ts: u64, token: u32| {
            let args = format!("\"peer\":0,\"tag\":7,\"bytes\":8,\"token\":{token},\"wait_ns\":0");
            ev(ts, "recv_posted", 'i', &args)
        };
        let r0 = [
            meta(0, 0),
            send(1000, 'B', 1),
            send(2000, 'E', 1),
            send(3000, 'B', 2),
            send(3500, 'E', 2),
        ]
        .join("\n");
        let r1 = [meta(1, 0), recv(500, 1), recv(4000, 2)].join("\n");
        let traces = [r0, r1].map(|t| parse_rank_trace(&t).unwrap());
        let analysis = analyze(&traces).unwrap();
        assert_eq!(analysis.messages_matched, 2);
        assert_eq!(analysis.early_receives, 1);
        assert!(analysis
            .render_report()
            .contains("1 received before their send began"));
    }

    #[test]
    fn empty_ring_and_missing_token_events_are_tolerated() {
        // A rank that recorded nothing (empty ring) and a rank whose
        // events carry no causal stamps (pre-stamp dump) both analyze.
        let r0 = meta(0, 0);
        let r1 = [
            meta(1, 0),
            ev(100, "send_eager", 'B', "\"peer\":0,\"tag\":7,\"bytes\":8"),
            ev(200, "send_eager", 'E', "\"peer\":0,\"tag\":7,\"bytes\":8"),
        ]
        .join("\n");
        let traces = vec![
            parse_rank_trace(&r0).unwrap(),
            parse_rank_trace(&r1).unwrap(),
        ];
        let analysis = analyze(&traces).unwrap();
        assert_eq!(analysis.messages_matched, 0);
        assert!(analysis.critical_path.total_ns > 0 || analysis.critical_path.segments.is_empty());
    }
}
