//! # mpi-native
//!
//! A from-scratch MPI-1.1 message-passing engine, playing the role of the
//! *native MPI library* (MPICH / WMPI) that the mpiJava wrapper of
//! Baker, Carpenter, Fox, Ko & Lim (IPPS 1999) binds to through JNI.
//!
//! The engine is deliberately structured like a small MPICH: a *device*
//! (from the `mpi-transport` crate) moves byte frames between ranks, and
//! this crate layers on top of it
//!
//! * message **matching** (context id, source, tag, wildcards,
//!   non-overtaking order) and the eager / rendezvous protocols
//!   ([`p2p`]),
//! * blocking, non-blocking and **persistent requests** with the full
//!   `Wait*`/`Test*` families ([`request`]),
//! * **groups** and their set algebra ([`group`]),
//! * **communicators** with private context ids, `dup`/`split`/`create`
//!   ([`comm`]),
//! * **collective operations** — barrier, broadcast, gather(v), scatter(v),
//!   allgather(v), alltoall(v), reduce, allreduce, reduce-scatter, scan —
//!   built over point-to-point on a separate collective context as a
//!   pluggable algorithm subsystem ([`coll`]): linear (paper-faithful
//!   baseline), binomial tree, recursive doubling and ring wire patterns
//!   behind a size-aware selector ([`coll::tuning`]) with an
//!   `MPIJAVA_COLL_ALG` override for ablations,
//! * **reduction operations** including `MAXLOC`/`MINLOC` and user
//!   functions ([`ops`]),
//! * **derived datatypes** and pack/unpack ([`datatype`], [`pack`]),
//! * **virtual topologies** (cartesian and graph, [`topology`]),
//! * environment services — `Wtime`, processor name, abort
//!   ([`mod@env`]),
//! * an MPI_T-flavored **observability subsystem** ([`trace`]): per-rank
//!   event tracing into a preallocated ring, a named-variable metrics
//!   registry ([`Engine::metrics_snapshot`]), and finalize-time JSONL
//!   dumps that the benchmark crate's `tracemerge` tool folds into one
//!   Chrome-traceable cross-rank timeline (`MPIJAVA_TRACE` grammar in
//!   [`mod@env`]),
//! * a [`universe::Universe`] launcher that plays `mpirun`, creating one
//!   engine per rank over a shared fabric and running them on threads.
//!
//! Every rank owns exactly one [`Engine`]; all MPI calls of that rank go
//! through it. The object-oriented binding of the paper is implemented in
//! the `mpijava` crate on top of this engine.

pub mod checkpoint;
pub mod coll;
pub mod comm;
pub mod datatype;
pub mod env;
pub mod error;
pub mod failure;
pub mod group;
mod matching;
pub mod ops;
pub mod p2p;
pub mod pack;
pub mod request;
pub mod rma;
pub mod topology;
pub mod trace;
pub mod types;
pub mod universe;

pub use coll::{CollAlgorithm, CollOp, COLL_ALG_ENV};
pub use comm::{CommHandle, COMM_SELF, COMM_WORLD};
pub use datatype::DatatypeDef;
pub use error::{ErrorClass, MpiError, Result};
pub use group::{CompareResult, Group};
pub use mpi_transport::NodeMap;
pub use ops::{Op, PredefinedOp};
pub use p2p::SendBuf;
pub use request::RequestId;
pub use rma::WinHandle;
pub use trace::{
    EventKind, EventPhase, HistSnapshot, MetricsSnapshot, Pvar, PvarClass, TraceConfig, TraceEvent,
    TraceMode, WaitClass,
};
pub use types::{PrimitiveKind, SendMode, StatusInfo, ANY_SOURCE, ANY_TAG, PROC_NULL, UNDEFINED};
pub use universe::{Universe, UniverseConfig};

use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;
use std::sync::OnceLock;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use mpi_transport::Endpoint;

use comm::CommRecord;
use matching::Matching;
use p2p::PendingRendezvous;
use request::Requests;

/// The one hasher of the engine's integer-keyed tables ([`IdMap`],
/// [`IdSet`]): a multiply and a rotate per integer, where SipHash runs
/// rounds per key. Their keys — request ids, context ids, rendezvous
/// tokens — are issued by the job itself, so no outside party can craft
/// keys that collide.
#[derive(Default)]
pub(crate) struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// A table keyed by ids the job issues, hashed by [`IdHasher`].
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
/// A set of ids the job issues, hashed by [`IdHasher`].
pub(crate) type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// Counters the engine keeps about its own activity. The benchmark harness
/// reads these to report, e.g., how many messages went eager vs rendezvous.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct EngineStats {
    /// Messages sent with the eager protocol.
    pub eager_sends: u64,
    /// Messages sent with the rendezvous protocol.
    pub rendezvous_sends: u64,
    /// Messages that were matched from the unexpected queue.
    pub unexpected_hits: u64,
    /// Messages that matched an already-posted receive on arrival.
    pub posted_hits: u64,
    /// Total payload bytes sent (excluding engine control traffic).
    pub bytes_sent: u64,
    /// Total payload bytes received.
    pub bytes_received: u64,
    /// Payload bytes the engine datapath physically copied (send-side
    /// staging, [`Engine::recv_into`] delivery —
    /// the copy inventory in [`p2p`]'s module docs lists every site).
    /// The copy-accounting regression suite pins eager sends, rendezvous
    /// sends and `recv_into` at exactly one payload copy each through
    /// this counter.
    pub bytes_copied: u64,
    /// One-sided `put`/`accumulate` operations issued from this rank
    /// (origin-side count; see [`rma`]).
    pub rma_puts: u64,
    /// One-sided `get` operations issued from this rank (origin side).
    pub rma_gets: u64,
    /// Payload bytes moved by one-sided operations issued from this rank
    /// (put/accumulate payloads out, get replies requested in).
    pub rma_bytes: u64,
    /// RMA synchronization epochs this rank has completed: one per
    /// returned [`Engine::win_fence`], plus one per completed
    /// [`Engine::win_unlock`] passive-target epoch.
    pub epochs: u64,
    /// Collective calls served from the schedule cache (template
    /// instantiated instead of rebuilt; see the schedule-caching section
    /// of [`coll::nb`]). A persistent `start()` that replays its pinned
    /// template looks nothing up and counts neither here nor in
    /// `sched_cache_misses`.
    pub sched_cache_hits: u64,
    /// Cacheable collective calls that had to build their schedule from
    /// scratch (cold key, or the tag-window sequence wrapped
    /// mid-allocation).
    pub sched_cache_misses: u64,
    /// Progress-poll iterations executed by a background progress thread
    /// on this engine's behalf (see the `MPIJAVA_PROGRESS` grammar in
    /// [`mod@env`]).
    pub progress_thread_polls: u64,
}

/// Per-rank MPI engine. See the crate documentation.
pub struct Engine {
    pub(crate) endpoint: Box<dyn Endpoint>,
    pub(crate) world_rank: usize,
    pub(crate) world_size: usize,
    /// Rank → node placement of the fabric (flat unless the job was
    /// launched with a [`NodeMap`]). Drives the topology queries and the
    /// hierarchical collective tuning.
    pub(crate) nodes: NodeMap,
    /// Every communicator by handle, with its per-communicator state
    /// (see [`comm`]); a freed one leaves `None`, handles are not reused.
    pub(crate) comms: Vec<Option<CommRecord>>,
    pub(crate) next_context: u32,
    /// Every pending operation of this rank, one id space (see [`request`]).
    pub(crate) requests: Requests,
    pub(crate) next_request: u64,
    /// Every context's posted and unexpected FIFOs and the freed-context
    /// tombstones (see [`p2p`]'s matching notes).
    pub(crate) matching: Matching,
    /// Every rendezvous this rank announced that its receiver has not
    /// granted yet, by token (see [`p2p`]'s protocol notes).
    pub(crate) pending_rendezvous: IdMap<u64, PendingRendezvous>,
    /// The receive request each granted rendezvous completes, keyed by
    /// `(sender world rank, sender token)` — tokens are only unique per
    /// sender, and concurrent collectives legally have several senders
    /// at the same token count.
    pub(crate) awaiting_rendezvous_data: IdMap<(u32, u64), u64>,
    pub(crate) next_token: u64,
    pub(crate) eager_threshold: usize,
    /// Recycled payload staging buffers (see the copy inventory in
    /// [`p2p`]'s module docs).
    pub(crate) send_pool: p2p::SendPool,
    pub(crate) attached_buffer: Option<p2p::BsendBuffer>,
    pub(crate) start_time: Instant,
    pub(crate) processor_name: String,
    pub(crate) finalized: bool,
    pub(crate) aborted: bool,
    pub(crate) stats: EngineStats,
    pub(crate) forced_coll_alg: Option<coll::CollAlgorithm>,
    /// Built-schedule templates, keyed per rank on the local call shape
    /// (see the schedule-caching section of [`coll::nb`]).
    pub(crate) sched_cache: HashMap<coll::nb::cache::SchedKey, coll::nb::cache::SchedTemplate>,
    /// Open one-sided memory windows, keyed by [`rma::WinHandle`] value
    /// (see [`rma`]'s epoch model and tag accounting).
    pub(crate) windows: HashMap<u64, rma::WindowState>,
    pub(crate) next_win: u64,
    /// World ranks declared dead (lease expiry or fault-plan kill).
    /// Membership is permanent; see [`mod@failure`].
    pub(crate) failed_ranks: HashSet<usize>,
    /// Throttle clock for [`mod@failure`]'s transport liveness polls.
    pub(crate) last_failure_poll: Option<Instant>,
    /// Observability state: mode flags, the preallocated event ring and
    /// the latency histograms (see [`trace`]).
    pub(crate) tracer: trace::Tracer,
    /// Configured trace-dump directory (the job configuration's
    /// `trace_dir`); `None` leaves the spool-root fallback (see
    /// [`Engine::dump_trace`]).
    trace_dir: Option<std::path::PathBuf>,
    /// Wall-clock anchor of `start_time`, written into every trace
    /// dump's meta line so `tracemerge` can align per-rank timelines.
    /// Both come from [`trace_epoch`].
    start_unix_ns: u128,
}

/// The process's one trace epoch: a monotonic origin and its wall-clock
/// anchor, read together once. Every engine in the process takes both,
/// so every rank's `ts_ns` is on one clock and the dumps' anchors agree
/// exactly (see [`trace`]'s one-epoch rule).
fn trace_epoch() -> (Instant, u128) {
    static EPOCH: OnceLock<(Instant, u128)> = OnceLock::new();
    *EPOCH.get_or_init(|| {
        let unix = SystemTime::now().duration_since(UNIX_EPOCH);
        (Instant::now(), unix.map(|d| d.as_nanos()).unwrap_or(0))
    })
}

/// A rank that unwinds takes the job down with it: an engine dropped
/// while its thread is panicking broadcasts the abort notification, so
/// peers blocked on this rank error out instead of hanging — whichever
/// launcher (or hand-written harness) owns the engine, and wherever the
/// engine has been moved to (the binding keeps it behind a per-rank
/// lock).
impl Drop for Engine {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // Best effort, never panics: `abort` ignores send failures.
            let _ = self.abort(COMM_WORLD, 1);
        }
    }
}

/// Default payload size (bytes) above which standard-mode sends switch from
/// the eager to the rendezvous protocol. Matches the order of magnitude at
/// which the paper's SM-mode curves converge (Figure 5: offsets vanish
/// around 256 KB).
pub const DEFAULT_EAGER_THRESHOLD: usize = 128 * 1024;

impl Engine {
    /// Build an engine for one rank over the given endpoint.
    ///
    /// This is `MPI_Init` for a single rank; most users go through
    /// [`Universe::run`](universe::Universe::run), which builds the fabric
    /// and one engine per rank. A hand-built engine is a job of its own
    /// as far as configuration goes: it reads the environment once,
    /// through [`UniverseConfig::new`] (the `MPIJAVA_*` overlay,
    /// [`env::overlay`]).
    pub fn new(endpoint: Box<dyn Endpoint>) -> Engine {
        let config = UniverseConfig::new(endpoint.size(), endpoint.kind());
        Engine::with_config(endpoint, &config)
    }

    /// Build one rank's engine from a job configuration: the one place
    /// the per-engine knobs (eager limit, collective algorithm, trace,
    /// trace dir) are applied, for the launcher and for [`Engine::new`]
    /// alike.
    pub(crate) fn with_config(endpoint: Box<dyn Endpoint>, config: &UniverseConfig) -> Engine {
        let (start_time, start_unix_ns) = trace_epoch();
        let world_rank = endpoint.rank();
        let world_size = endpoint.size();
        let nodes = endpoint.node_map().clone();
        let mut engine = Engine {
            endpoint,
            world_rank,
            world_size,
            nodes,
            comms: Vec::new(),
            next_context: 0,
            requests: Requests::default(),
            next_request: 1,
            matching: Matching::default(),
            pending_rendezvous: IdMap::default(),
            awaiting_rendezvous_data: IdMap::default(),
            next_token: 1,
            eager_threshold: config.eager_threshold,
            send_pool: p2p::SendPool::default(),
            attached_buffer: None,
            start_time,
            processor_name: format!("rank-{world_rank}.mpijava-rs.local"),
            finalized: false,
            aborted: false,
            stats: EngineStats::default(),
            forced_coll_alg: config.coll_algorithm,
            sched_cache: HashMap::new(),
            windows: HashMap::new(),
            next_win: 1,
            failed_ranks: HashSet::new(),
            last_failure_poll: None,
            tracer: trace::Tracer::new(config.trace),
            trace_dir: config.trace_dir.clone(),
            start_unix_ns,
        };
        engine.install_builtin_comms();
        engine
    }

    /// Override the eager/rendezvous switch-over point (bytes) this
    /// engine was configured with (see [`env::EAGER_LIMIT_ENV`]).
    pub fn set_eager_threshold(&mut self, bytes: usize) {
        self.eager_threshold = bytes;
    }

    /// Current eager/rendezvous switch-over point (bytes).
    pub fn eager_threshold(&self) -> usize {
        self.eager_threshold
    }

    /// The pinned collective algorithm, if any: the job configuration's
    /// `coll_algorithm` or `MPIJAVA_COLL_ALG`, applied on every rank alike.
    pub fn coll_algorithm(&self) -> Option<coll::CollAlgorithm> {
        self.forced_coll_alg
    }

    /// This process's rank in `MPI_COMM_WORLD`.
    pub fn world_rank(&self) -> usize {
        self.world_rank
    }

    /// Number of processes in `MPI_COMM_WORLD`.
    pub fn world_size(&self) -> usize {
        self.world_size
    }

    /// Rank → node placement of the fabric (flat unless the job was
    /// launched with a [`NodeMap`] / `MPIJAVA_NODES`).
    pub fn node_map(&self) -> &NodeMap {
        &self.nodes
    }

    /// The node this rank lives on.
    pub fn my_node(&self) -> usize {
        self.nodes.node_of(self.world_rank)
    }

    /// Activity counters (see [`EngineStats`]).
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    // ---- observability (see the [`trace`] module) -------------------

    /// The active trace configuration.
    pub fn trace_config(&self) -> trace::TraceConfig {
        self.tracer.config()
    }

    /// The directory [`Engine::dump_trace`] would write to, if any: the
    /// configured one (job configuration or `MPIJAVA_TRACE_DIR`), else
    /// `<spool root>/trace` when the fabric has a spool.
    pub fn trace_dir(&self) -> Option<std::path::PathBuf> {
        self.trace_dir
            .clone()
            .or_else(|| self.endpoint.spool_dir().map(|root| root.join("trace")))
    }

    /// The recorded events, oldest first (empty unless the mode is
    /// [`TraceMode::Events`]). Timestamps are nanoseconds on the
    /// engine's private monotonic clock.
    pub fn trace_events(&self) -> Vec<trace::TraceEvent> {
        self.tracer.events()
    }

    /// A point-in-time read of the metrics registry: every
    /// [`EngineStats`] counter as an `engine.*` pvar, queue-depth and
    /// in-flight gauges, per-peer `failure.*` liveness gauges when the
    /// device tracks leases, `transport.*` frame counters when the
    /// fabric was built with frame counters, and the latency histograms
    /// (recorded only when the mode is at least
    /// [`TraceMode::Counters`]).
    pub fn metrics_snapshot(&self) -> trace::MetricsSnapshot {
        use trace::{Pvar, PvarClass};
        let s = &self.stats;
        let counter = |name: &str, value: u64| Pvar {
            name: name.to_string(),
            class: PvarClass::Counter,
            value: value as i64,
        };
        let gauge = |name: String, value: i64| Pvar {
            name,
            class: PvarClass::Gauge,
            value,
        };
        let (posted_depth, unexpected_depth) = self.matching.depths();
        let mut pvars = vec![
            counter("engine.eager_sends", s.eager_sends),
            counter("engine.rendezvous_sends", s.rendezvous_sends),
            counter("engine.unexpected_hits", s.unexpected_hits),
            counter("engine.posted_hits", s.posted_hits),
            counter("engine.bytes_sent", s.bytes_sent),
            counter("engine.bytes_received", s.bytes_received),
            counter("engine.bytes_copied", s.bytes_copied),
            counter("engine.rma_puts", s.rma_puts),
            counter("engine.rma_gets", s.rma_gets),
            counter("engine.rma_bytes", s.rma_bytes),
            counter("engine.epochs", s.epochs),
            counter("engine.sched_cache_hits", s.sched_cache_hits),
            counter("engine.sched_cache_misses", s.sched_cache_misses),
            counter("engine.progress_thread_polls", s.progress_thread_polls),
            counter("engine.trace.dropped", self.tracer.dropped()),
            gauge("p2p.posted_depth".to_string(), posted_depth as i64),
            gauge("p2p.unexpected_depth".to_string(), unexpected_depth as i64),
            gauge(
                "coll.outstanding".to_string(),
                self.coll_outstanding() as i64,
            ),
            gauge("rma.windows_open".to_string(), self.windows.len() as i64),
        ];
        for peer in self.endpoint.peer_liveness() {
            let prefix = format!("failure.peer{}", peer.rank);
            if let Some(age) = peer.heartbeat_age {
                pvars.push(gauge(
                    format!("{prefix}.heartbeat_age_ms"),
                    trace::millis_i64(age),
                ));
            }
            pvars.push(gauge(
                format!("{prefix}.lease_ms"),
                trace::millis_i64(peer.lease),
            ));
            pvars.push(gauge(format!("{prefix}.dead"), peer.dead as i64));
        }
        if let Some(f) = self.endpoint.frame_stats() {
            pvars.push(counter("transport.frames_sent", f.frames_sent));
            pvars.push(counter("transport.frames_received", f.frames_received));
            pvars.push(counter("transport.bytes_sent", f.bytes_sent));
            pvars.push(counter("transport.bytes_received", f.bytes_received));
        }
        let mut histograms = vec![
            self.tracer.p2p_latency.snapshot("p2p.latency"),
            self.tracer.coll_round.snapshot("coll.round_duration"),
        ];
        for class in trace::WaitClass::ALL {
            let h = self.tracer.wait_hist(class);
            pvars.push(counter(
                &format!("engine.wait.{}_count", class.label()),
                h.count(),
            ));
            pvars.push(counter(
                &format!("engine.wait.{}_ns", class.label()),
                h.total_ns(),
            ));
            histograms.push(h.snapshot(&format!("wait.{}", class.label())));
        }
        trace::MetricsSnapshot {
            rank: self.world_rank,
            pvars,
            histograms,
        }
    }

    /// Reset the trace ring and the latency histograms. [`EngineStats`]
    /// counters are cumulative and are not touched.
    pub fn metrics_reset(&mut self) {
        self.tracer.reset();
    }

    /// Dump the recorded events as JSONL into the resolved trace
    /// directory (see [`Engine::trace_dir`]), one file per rank named
    /// `trace-rank<r>.jsonl`. Returns the written path, or `None` when
    /// the mode is not [`TraceMode::Events`] or no directory is
    /// configured. Runs automatically from [`Engine::finalize`].
    pub fn dump_trace(&self) -> Result<Option<std::path::PathBuf>> {
        if !self.tracer.events_on() {
            return Ok(None);
        }
        match self.trace_dir() {
            Some(dir) => self.dump_trace_to(dir).map(Some),
            None => Ok(None),
        }
    }

    /// Dump the recorded events as JSONL into `dir` (created if needed),
    /// regardless of whether a trace directory is configured. This is
    /// how a rank that will never reach [`Engine::finalize`] — e.g. one
    /// about to die in a fault drill — preserves its timeline.
    pub fn dump_trace_to(&self, dir: impl Into<std::path::PathBuf>) -> Result<std::path::PathBuf> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| {
            error::MpiError::new(
                ErrorClass::Other,
                format!("creating trace dir {}: {e}", dir.display()),
            )
        })?;
        let path = dir.join(format!("trace-rank{:05}.jsonl", self.world_rank));
        let meta = trace::DumpMeta {
            rank: self.world_rank,
            size: self.world_size,
            device: self.endpoint.kind().label().to_string(),
            start_unix_ns: self.start_unix_ns,
        };
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path).map_err(|e| {
            error::MpiError::new(
                ErrorClass::Other,
                format!("creating {}: {e}", path.display()),
            )
        })?);
        self.tracer.write_jsonl(&mut file, &meta).map_err(|e| {
            error::MpiError::new(
                ErrorClass::Other,
                format!("writing {}: {e}", path.display()),
            )
        })?;
        use std::io::Write as _;
        file.flush().map_err(|e| {
            error::MpiError::new(
                ErrorClass::Other,
                format!("flushing {}: {e}", path.display()),
            )
        })?;
        Ok(path)
    }

    /// Nanoseconds since the process's trace epoch (the clock event
    /// timestamps use).
    #[inline]
    pub(crate) fn clock_ns(&self) -> u64 {
        self.start_time.elapsed().as_nanos() as u64
    }

    /// Record a trace event stamped now. `args` fills the event's five
    /// slots `a..e` (named per kind in the dump; `d`/`e` carry the causal
    /// stamps — tokens on p2p intervals, `(ctx, cseq)` on collective
    /// brackets — and are 0 elsewhere). One branch when events are off
    /// — the hot-path cost the `MPIJAVA_TRACE=off` overhead gate pins.
    #[inline]
    pub(crate) fn emit(
        &mut self,
        kind: trace::EventKind,
        phase: trace::EventPhase,
        args: [i64; 5],
    ) {
        if self.tracer.events_on() {
            let ts = self.clock_ns();
            self.emit_at(ts, kind, phase, args);
        }
    }

    /// [`Engine::emit`] with a caller-supplied timestamp (for sites that
    /// already read the clock for a histogram sample).
    #[inline]
    pub(crate) fn emit_at(
        &mut self,
        ts_ns: u64,
        kind: trace::EventKind,
        phase: trace::EventPhase,
        [a, b, c, d, e]: [i64; 5],
    ) {
        if self.tracer.events_on() {
            self.tracer.record(ts_ns, kind, phase, a, b, c, d, e);
        }
    }

    /// True once [`Engine::finalize`] has run.
    pub fn is_finalized(&self) -> bool {
        self.finalized
    }

    /// `MPI_Finalize`: no further communication is allowed afterwards.
    ///
    /// The engine checks that no receive is still posted and no rendezvous
    /// is still outstanding, mirroring the standard's requirement that all
    /// pending communication is completed before finalizing.
    ///
    /// After a rank failure (or an abort) the usual leak checks would
    /// refuse forever — a survivor's outstanding operations toward the
    /// dead rank can never complete — so this path instead tears them
    /// down and finalizes cleanly (see [`mod@failure`]); requests left
    /// behind report the failure on a late `wait` instead of hanging.
    pub fn finalize(&mut self) -> Result<()> {
        if self.finalized {
            return error::err(ErrorClass::NotInitialized, "finalize called twice");
        }
        if !self.failed_ranks.is_empty() || self.aborted {
            self.abort_outstanding();
            self.autodump_trace();
            self.finalized = true;
            return Ok(());
        }
        if self.rma_open_epoch() {
            return error::err(
                ErrorClass::Other,
                "finalize called with an un-synced RMA epoch",
            );
        }
        if !self.windows.is_empty() {
            return error::err(ErrorClass::Other, "finalize called with open RMA windows");
        }
        if self.matching.depths().0 > 0
            || !self.pending_rendezvous.is_empty()
            || self.coll_outstanding() > 0
        {
            return error::err(
                ErrorClass::Other,
                "finalize called with outstanding communication",
            );
        }
        if self.persistent_active() > 0 {
            return error::err(
                ErrorClass::Other,
                "finalize called with started persistent operations (wait them first)",
            );
        }
        self.autodump_trace();
        self.finalized = true;
        Ok(())
    }

    /// Finalize-time trace dump: best-effort, never turns a clean
    /// shutdown into an error (a rank dying in a fault drill still wants
    /// the survivors' dumps to land).
    fn autodump_trace(&self) {
        if let Err(e) = self.dump_trace() {
            eprintln!(
                "warning: rank {} could not dump its trace: {e}",
                self.world_rank
            );
        }
    }

    /// True while background-completable work is in flight on this
    /// engine: an outstanding collective schedule, an un-acked
    /// rendezvous handshake, or an open RMA epoch. A background
    /// progress thread polls *hot* (yielding, microsecond cadence)
    /// while this holds — the due-time link models release frames at
    /// their arrival instants, and a sleeping poller would add its
    /// whole sleep quantum of latency to every serial hop of a
    /// schedule — and falls back to sleeping between polls otherwise.
    pub fn background_work_pending(&self) -> bool {
        self.coll_outstanding() > 0 || !self.pending_rendezvous.is_empty() || self.rma_open_epoch()
    }

    /// Record one background progress-thread poll against this engine
    /// (drives [`EngineStats::progress_thread_polls`]). Every 1024th
    /// poll drops a `progress_burst` instant into the trace so merged
    /// timelines show where the background thread was spinning.
    pub fn note_progress_thread_poll(&mut self) {
        self.stats.progress_thread_polls += 1;
        if self.stats.progress_thread_polls.is_multiple_of(1024) {
            let total = self.stats.progress_thread_polls as i64;
            self.emit(
                trace::EventKind::ProgressBurst,
                trace::EventPhase::Instant,
                [total, 1024, 0, 0, 0],
            );
        }
    }

    pub(crate) fn check_live(&self) -> Result<()> {
        if self.finalized {
            return error::err(ErrorClass::NotInitialized, "MPI already finalized");
        }
        if self.aborted {
            return error::err(ErrorClass::Aborted, "job aborted");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_transport::{DeviceKind, Fabric, FabricConfig};

    fn pair() -> (Engine, Engine) {
        let mut eps = Fabric::build(FabricConfig::new(2, DeviceKind::ShmFast))
            .unwrap()
            .into_endpoints();
        let b = Engine::new(eps.pop().unwrap());
        let a = Engine::new(eps.pop().unwrap());
        (a, b)
    }

    #[test]
    fn engine_reports_rank_and_size() {
        let (a, b) = pair();
        assert_eq!(a.world_rank(), 0);
        assert_eq!(b.world_rank(), 1);
        assert_eq!(a.world_size(), 2);
        assert_eq!(b.world_size(), 2);
    }

    #[test]
    fn finalize_is_idempotent_error() {
        let (mut a, _b) = pair();
        a.finalize().unwrap();
        assert!(a.is_finalized());
        assert!(a.finalize().is_err());
        assert!(a.check_live().is_err());
    }

    /// Every engine in a process stamps on the one trace epoch, however
    /// far apart they are built, so their dumps' anchors agree exactly.
    #[test]
    fn engines_in_one_process_share_the_trace_epoch() {
        let (a, b) = pair();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let (c, _d) = pair();
        assert_eq!(a.start_unix_ns, b.start_unix_ns);
        assert_eq!(a.start_unix_ns, c.start_unix_ns);
        assert_eq!(a.start_time, c.start_time);
    }

    #[test]
    fn eager_threshold_is_configurable() {
        let (mut a, _b) = pair();
        assert_eq!(a.eager_threshold(), DEFAULT_EAGER_THRESHOLD);
        a.set_eager_threshold(1024);
        assert_eq!(a.eager_threshold(), 1024);
    }
}
