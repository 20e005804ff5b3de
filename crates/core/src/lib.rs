//! # mpijava — an object-oriented Rust interface to MPI
//!
//! A faithful reproduction of the API described in
//! *mpiJava: An Object-Oriented Java Interface to MPI*
//! (Baker, Carpenter, Fox, Ko, Lim — IPPS/SPDP 1999 workshop), implemented
//! in Rust on top of the [`mpi_native`] engine (the stand-in for the native
//! MPI libraries — MPICH, WMPI — the paper binds to through JNI).
//!
//! ## Class hierarchy (paper Figure 1)
//!
//! | mpiJava class | this crate |
//! |---|---|
//! | `MPI`        | [`MPI`] (per-rank environment object)        |
//! | `Comm`       | [`comm::Comm`]                               |
//! | `Intracomm`  | [`intracomm::Intracomm`]                     |
//! | `Cartcomm`   | [`cartcomm::Cartcomm`]                       |
//! | `Graphcomm`  | [`graphcomm::Graphcomm`]                     |
//! | `Group`      | [`group::Group`]                             |
//! | `Datatype`   | [`datatype::Datatype`]                       |
//! | `Status`     | [`status::Status`]                           |
//! | `Request`    | [`request::Request`]                         |
//! | `Prequest`   | [`request::Prequest`]                        |
//! | `Op`         | [`op::Op`]                                   |
//! | `MPIException` | [`exception::MPIException`]                |
//!
//! Java statics do not translate directly to a thread-per-rank Rust
//! program, so `MPI.Init` becomes [`MpiRuntime::run`]: it plays `mpirun`,
//! starting one thread per rank and handing each an [`MPI`] environment
//! whose `comm_world()` is that rank's `MPI.COMM_WORLD`.
//!
//! ```no_run
//! use mpijava::{Datatype, MpiRuntime};
//!
//! // The paper's Figure 3 "Hello there" program, two ranks.
//! MpiRuntime::new(2).run(|mpi| {
//!     let world = mpi.comm_world();
//!     if world.rank()? == 0 {
//!         let msg: Vec<u16> = "Hello, there".encode_utf16().collect();
//!         world.send(&msg, 0, msg.len(), &Datatype::char(), 1, 99)?;
//!     } else {
//!         let mut buf = vec![0u16; 20];
//!         let status = world.recv(&mut buf, 0, 20, &Datatype::char(), 0, 99)?;
//!         let n = status.get_count(&Datatype::char()).unwrap();
//!         println!("received: {}", String::from_utf16_lossy(&buf[..n]));
//!     }
//!     mpi.finalize()
//! }).unwrap();
//! ```
//!
//! ## The layers of the paper's Figure 4
//!
//! | paper layer | here |
//! |---|---|
//! | `MPIprog.java` + `import mpi.*` | your program + this crate |
//! | JNI C stubs | [`jni`] (simulated, measurable boundary) |
//! | Native MPI library | the [`mpi_native`] engine |
//! | OS / network | the `mpi-transport` devices (SHM, p4-style, TCP + link model) |
//!
//! ## Two API surfaces: classic (paper-faithful) and idiomatic ([`rs`])
//!
//! The classes above reproduce mpiJava's Java argument conventions
//! exactly — that is the paper's contract, and the IBM test suite runs
//! against it unchanged. The [`rs`] module layers an idiomatic Rust
//! surface on top: the [`rs::Communicator`] trait (implemented by
//! [`Intracomm`], [`Cartcomm`] and [`Graphcomm`]) whose methods are
//! slice-native and infer the [`Datatype`] from the buffer element type
//! ([`BufferElement::datatype`]). Both surfaces cross the same simulated
//! JNI boundary, so the paper's overhead measurements apply to either.
//!
//! | classic (Java conventions) | idiomatic ([`rs::Communicator`]) |
//! |---|---|
//! | `send(buf, off, count, datatype, dest, tag)` | [`send(&buf[off..off+count], dest, tag)`](rs::Communicator::send) |
//! | `recv(buf, off, count, datatype, src, tag)` | [`recv_into(&mut buf[..], src, tag)`](rs::Communicator::recv_into) |
//! | `sendrecv(sbuf, soff, scount, stype, dest, stag, rbuf, roff, rcount, rtype, src, rtag)` | [`sendrecv(&sbuf, dest, stag, &mut rbuf, src, rtag)`](rs::Communicator::sendrecv) |
//! | `isend(buf, off, count, datatype, dest, tag)` → [`Request`] | [`isend(&buf, dest, tag)`](rs::Communicator::isend) → [`rs::TypedRequest`] |
//! | `irecv(buf, off, count, datatype, src, tag)` → [`Request`] | [`irecv_into(&mut buf, src, tag)`](rs::Communicator::irecv_into) → [`rs::TypedRequest`] |
//! | `Request::wait_all(&mut [...])` | [`TypedRequest::wait_all(batch)`](request::TypedRequest::wait_all), or drop the handles |
//! | `bcast(buf, off, count, datatype, root)` | [`broadcast(&mut buf, root)`](rs::Communicator::broadcast) |
//! | `reduce(sbuf, soff, rbuf, roff, count, datatype, op, root)` | [`reduce_into(&sbuf, &mut rbuf, Op::sum(), root)`](rs::Communicator::reduce_into) |
//! | `allreduce(sbuf, soff, rbuf, roff, count, datatype, op)` | [`all_reduce(&sbuf, &mut rbuf, Op::sum())`](rs::Communicator::all_reduce) |
//! | `scan(sbuf, soff, rbuf, roff, count, datatype, op)` | [`scan_into(&sbuf, &mut rbuf, Op::sum())`](rs::Communicator::scan_into) |
//! | `gather(sbuf, soff, scount, stype, rbuf, roff, rcount, rtype, root)` | [`gather_into(&sbuf, &mut rbuf, root)`](rs::Communicator::gather_into) |
//! | `allgather(sbuf, soff, scount, stype, rbuf, roff, rcount, rtype)` | [`all_gather(&sbuf, &mut rbuf)`](rs::Communicator::all_gather) |
//! | `scatter(sbuf, soff, scount, stype, rbuf, roff, rcount, rtype, root)` | [`scatter_from(&sbuf, &mut rbuf, root)`](rs::Communicator::scatter_from) |
//! | `alltoall(sbuf, soff, scount, stype, rbuf, roff, rcount, rtype)` | [`all_to_all(&sbuf, &mut rbuf)`](rs::Communicator::all_to_all) |
//! | `send_object(&[obj], 0, 1, dest, tag)` | [`send_obj(&obj, dest, tag)`](rs::Communicator::send_obj) |
//! | `recv_object::<T>(1, src, tag)` | [`recv_obj::<T>(src, tag)`](rs::Communicator::recv_obj) |
//! | `bcast_object(&[obj], root)` | [`broadcast_obj(&obj, root)`](rs::Communicator::broadcast_obj) |
//! | `status.get_count(&Datatype::char())` | [`status.count_elements::<u16>()`](Status::count_elements) |
//! | — (mpiJava is MPI-1: no one-sided ops) | [`win_create(&mut buf)`](rs::Communicator::win_create) → [`rs::Window`] with `put` / `get` / `accumulate` and `fence` / `lock` / `flush` / `unlock` epochs |
//! | — (no neighborhood collectives) | [`topo_neighbors()`](rs::Communicator::topo_neighbors), [`neighbor_all_gather(&buf)`](rs::Communicator::neighbor_all_gather), [`neighbor_all_to_all(&buf)`](rs::Communicator::neighbor_all_to_all) on `Cartcomm` / `Graphcomm` |
//! | `shift(direction, disp)` → `ShiftParms` | [`cart_shift(direction, disp)`](rs::CartCommunicator::cart_shift) → `(src, dst)` |
//! | `coords(rank)` / `get().coords` | [`cart_coords(rank)`](rs::CartCommunicator::cart_coords) / [`my_coords()`](rs::CartCommunicator::my_coords) |
//! | `neighbours(rank)` | [`neighbors()`](rs::GraphCommunicator::neighbors) (own adjacency) |
//!
//! The classic names stay reachable on the same objects (via `Deref`)
//! as long as the trait is not imported; see the [`rs`] module docs for
//! the one shadowing caveat when both styles share a source file.
//!
//! ### Nonblocking collectives: the third column
//!
//! Every collective additionally has a futures-style nonblocking form on
//! the idiomatic surface. The returned [`rs::TypedRequest`] is the same
//! handle type the point-to-point `isend`/`irecv_into` return, so one
//! heterogeneous [`TypedRequest::wait_all`](request::TypedRequest::wait_all)
//! batch can mix the two. Blocking collectives are themselves
//! `start + wait` over the *same* engine schedules (see
//! `mpi_native::coll::nb`), so the two forms cannot diverge; results are
//! byte-identical, enforced by the cross-algorithm equivalence suite.
//!
//! | classic (blocking) | idiomatic blocking | idiomatic nonblocking |
//! |---|---|---|
//! | `barrier()` | [`barrier()`](rs::Communicator::barrier) | [`ibarrier()`](rs::Communicator::ibarrier) |
//! | `bcast(buf, off, count, ty, root)` | [`broadcast(&mut buf, root)`](rs::Communicator::broadcast) | [`ibroadcast(&mut buf, root)`](rs::Communicator::ibroadcast) |
//! | `reduce(...)` | [`reduce_into(...)`](rs::Communicator::reduce_into) | [`ireduce_into(...)`](rs::Communicator::ireduce_into) |
//! | `allreduce(...)` | [`all_reduce(...)`](rs::Communicator::all_reduce) | [`iall_reduce(...)`](rs::Communicator::iall_reduce) |
//! | `gather(...)` | [`gather_into(...)`](rs::Communicator::gather_into) | [`igather_into(...)`](rs::Communicator::igather_into) |
//! | `allgather(...)` | [`all_gather(...)`](rs::Communicator::all_gather) | [`iall_gather(...)`](rs::Communicator::iall_gather) |
//! | `scatter(...)` | [`scatter_from(...)`](rs::Communicator::scatter_from) | [`iscatter_from(...)`](rs::Communicator::iscatter_from) |
//! | `alltoall(...)` | [`all_to_all(...)`](rs::Communicator::all_to_all) | [`iall_to_all(...)`](rs::Communicator::iall_to_all) |
//! | `reduce_scatter(...)` | — (classic only) | [`ireduce_scatter_into(...)`](rs::Communicator::ireduce_scatter_into) (equal counts) |
//! | `scan(...)` | [`scan_into(...)`](rs::Communicator::scan_into) | [`iscan_into(...)`](rs::Communicator::iscan_into) |
//! | — (no classic neighborhood ops) | [`neighbor_all_gather(...)`](rs::Communicator::neighbor_all_gather) | [`ineighbor_all_gather(...)`](rs::Communicator::ineighbor_all_gather) |
//! | — | [`neighbor_all_to_all(...)`](rs::Communicator::neighbor_all_to_all) | [`ineighbor_all_to_all(...)`](rs::Communicator::ineighbor_all_to_all) |
//!
//! ### Persistent operations: the fourth column
//!
//! Operations issued repeatedly with the same shape — the halo exchange
//! of an iterative solver, the allreduce of every optimizer step — pay
//! the argument validation, algorithm selection, and (for collectives)
//! schedule construction on *every* call. The persistent forms hoist
//! that one-time cost into an `*_init` call and make each iteration a
//! cheap [`start()`](rs::PersistentRequest::start) /
//! [`wait()`](rs::PersistentRequest::wait) pair over a
//! [`rs::PersistentRequest`], mirroring `MPI_Send_init` / `MPI_Start`
//! and the MPI-4 persistent collectives. Collective `*_init` calls are
//! collective and pin a pre-built engine schedule (see
//! `mpi_native::coll::nb`'s schedule cache), so `start()` replays the
//! wire pattern without rebuilding it.
//!
//! | blocking | nonblocking | persistent (init + start/wait) |
//! |---|---|---|
//! | `send(...)` | [`isend(...)`](rs::Communicator::isend) | [`send_init(...)`](rs::Communicator::send_init) |
//! | `recv_into(...)` | [`irecv_into(...)`](rs::Communicator::irecv_into) | [`recv_init(...)`](rs::Communicator::recv_init) |
//! | `barrier()` | [`ibarrier()`](rs::Communicator::ibarrier) | [`barrier_init()`](rs::Communicator::barrier_init) |
//! | `broadcast(...)` | [`ibroadcast(...)`](rs::Communicator::ibroadcast) | [`broadcast_init(...)`](rs::Communicator::broadcast_init) |
//! | `reduce_into(...)` | [`ireduce_into(...)`](rs::Communicator::ireduce_into) | [`reduce_init_into(...)`](rs::Communicator::reduce_init_into) |
//! | `all_reduce(...)` | [`iall_reduce(...)`](rs::Communicator::iall_reduce) | [`all_reduce_init(...)`](rs::Communicator::all_reduce_init) |
//! | `all_gather(...)` | [`iall_gather(...)`](rs::Communicator::iall_gather) | [`all_gather_init(...)`](rs::Communicator::all_gather_init) |
//!
//! The classic surface keeps its paper-faithful persistent pair:
//! `Comm.Send_init` / `Comm.Recv_init` returning a [`Prequest`].
//!
//! A persistent send re-reads its buffer on every `start()`, the C idiom
//! of reusing the buffer by address: under [`MarshalMode::Pin`] by
//! reference — the engine stages its one copy straight from the
//! caller's slice — and under [`MarshalMode::Copy`] through one boundary
//! copy, whose buffer the engine sends as it is. A persistent collective
//! does the same: each `start()` marshals its send slice (a broadcast
//! root: its buffer) in through the same seam as the blocking and
//! nonblocking forms, and each completion stores the outcome into the
//! receive slice through it, so all three forms count the same
//! `jni.bytes_in` / `bytes_out`. Both shells and every other request are
//! views of one pending-operation machine (see [`request`]).
//!
//! ### Progress: manual (default) and background-thread
//!
//! By default progress happens inside `test()`/`wait()` calls (and
//! inside any blocking engine entry point): interleave occasional
//! `test()` calls with computation to overlap communication and
//! computation — the `icollectives` overlap cells of the collectives
//! benchmark measure exactly that.
//!
//! With [`MpiRuntime::progress`]`(`[`ProgressMode::Thread`]`)` (or
//! `MPIJAVA_PROGRESS=thread` in the environment) each rank additionally
//! runs a background progress thread that keeps draining the engine —
//! nonblocking-collective schedules, rendezvous handshakes, and
//! passive-target RMA — while the application computes, so overlap
//! requires **zero** manual `test()` calls and a one-sided `lock`/`put`
//! hits a compute-bound target without waiting for it to enter an MPI
//! call. The engine is serialized behind a mutex, so the binding
//! provides [`ThreadLevel::Multiple`] regardless of the level requested
//! through [`MPI::init_thread`] (the progress thread itself only needs
//! `Serialized`).
//!
//! ### Observability: counters, metrics, and cross-rank timelines
//!
//! The engine underneath every communicator carries an MPI_T-style
//! observability subsystem (mpiJava predates the MPI_T tools interface
//! by over a decade; this is the one deliberate modernization). Three
//! modes, selected per run by [`MpiRuntime::trace`] /
//! [`UniverseConfig::trace`](mpi_native::UniverseConfig::trace) or the
//! `MPIJAVA_TRACE` environment variable
//! (`off | counters | events[:capacity]`; programmatic wins):
//!
//! | mode | cost | what you get |
//! |---|---|---|
//! | `off` (default) | one branch per hook | [`EngineStats`] counters only |
//! | `counters` | + clock reads | latency/duration histograms, transport frame counters |
//! | `events` | + ring writes | per-rank event ring, dumped to JSONL at finalize |
//!
//! Reading them, cheapest to richest:
//!
//! * [`rs::Communicator::stats`] (or [`MPI::engine_stats`]) — the raw
//!   [`EngineStats`] counters: eager vs rendezvous sends, posted vs
//!   unexpected matches, bytes moved/copied, RMA and schedule-cache
//!   activity. Always on.
//! * [`rs::Communicator::metrics_snapshot`] (or
//!   [`MPI::metrics_snapshot`]) — a [`MetricsSnapshot`] of named
//!   performance variables: every counter as an `engine.*` pvar,
//!   queue-depth gauges (`p2p.posted_depth`, `coll.outstanding`, …),
//!   per-peer liveness gauges (`failure.peer<N>.heartbeat_age_ms`),
//!   `transport.*` frame counters, and the `p2p.latency` /
//!   `coll.round_duration` histograms.
//!   [`rs::Communicator::metrics_reset`] clears the resettables;
//!   monotonic counters are never reset.
//! * In `events` mode every rank records p2p protocol intervals,
//!   collective rounds, RMA epochs, and failure-detector observations
//!   into a fixed-capacity ring (allocation-free, overwrite-oldest).
//!   [`MPI::finalize`] dumps it as `trace-rank<NNNNN>.jsonl` into
//!   `MPIJAVA_TRACE_DIR` / [`MpiRuntime::trace_dir`] (on the spool
//!   device, `<spool>/trace` by default), and the `tracemerge` binary
//!   in `mpi-bench` merges all ranks into one wall-clock-aligned Chrome
//!   `trace_event` timeline — one track per rank, loadable in
//!   `chrome://tracing` or Perfetto. A rank that dies without
//!   finalizing can still be post-mortemed: survivors' dumps record its
//!   last observed heartbeats and the `rank_failed` declaration, and
//!   [`MPI::dump_trace_to`] force-dumps from a signal-handler-style
//!   escape hatch.

pub mod buffer;
pub mod cartcomm;
pub mod comm;
pub mod datatype;
pub mod exception;
pub mod graphcomm;
pub mod group;
pub mod intracomm;
pub mod jni;
pub mod op;
pub mod request;
pub mod rs;
pub mod serial;
pub mod status;
pub mod window;

pub use buffer::BufferElement;
pub use cartcomm::{CartParms, Cartcomm, ShiftParms};
pub use comm::Comm;
pub use datatype::Datatype;
pub use exception::{MPIException, MpiResult};
pub use graphcomm::{GraphParms, Graphcomm};
pub use group::Group;
pub use intracomm::Intracomm;
pub use jni::{JniConfig, JniStatsSnapshot, MarshalMode};
pub use op::Op;
pub use request::{PersistentRequest, Prequest, Request, TypedRequest};
pub use serial::{ObjectInputStream, ObjectOutputStream, Serializable};
pub use status::Status;
pub use window::{GetToken, Window};

// Re-export the pieces of the lower layers that appear in this crate's API.
pub use mpi_native::env::{
    ProgressMode, FAULT_ENV, LEASE_MS_ENV, PROGRESS_ENV, SPOOL_DIR_ENV, TRACE_DIR_ENV, TRACE_ENV,
};
pub use mpi_native::{
    CollAlgorithm, CompareResult, EngineStats, ErrorClass, EventKind, EventPhase, HistSnapshot,
    MetricsSnapshot, PrimitiveKind, Pvar, PvarClass, TraceConfig, TraceEvent, TraceMode, WaitClass,
};
pub use mpi_transport::{
    DeviceKind, DeviceProfile, FaultAction, FaultPlan, NetworkModel, NodeMap, DEFAULT_LEASE,
};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use mpi_native::comm::{COMM_SELF, COMM_WORLD};
use mpi_native::{Engine, Universe, UniverseConfig};
use parking_lot::Mutex;

/// Per-rank shared state: the engine (native MPI library) plus the
/// simulated JNI boundary. Every class of the binding holds an
/// `Arc<RankEnv>`.
pub(crate) struct RankEnv {
    pub(crate) engine: Mutex<Engine>,
    pub(crate) jni: jni::JniBoundary,
}

impl RankEnv {
    /// Hand a spent payload buffer to the engine's staging pool, where
    /// the next marshal copy or send of this rank picks it up. A buffer
    /// the pool would refuse is dropped here without taking the engine
    /// lock, so a small message's buffer costs no lock.
    pub(crate) fn hand_back(&self, spent: impl Spent) {
        if Engine::pool_accepts(spent.capacity()) {
            spent.give(&mut self.engine.lock());
        }
    }
}

/// A payload buffer the binding has stored and is done with: an engine
/// result (`Vec`), or a completion (`Bytes`), kept as it is so that a
/// later staged send refills it without allocating; the pool keeps a
/// completion only when this was its last reference.
pub(crate) trait Spent: AsRef<[u8]> {
    /// The capacity of its allocation (0 for an inline `Bytes`).
    fn capacity(&self) -> usize;
    fn give(self, engine: &mut Engine);
}

impl Spent for Vec<u8> {
    fn capacity(&self) -> usize {
        Vec::capacity(self)
    }

    fn give(self, engine: &mut Engine) {
        engine.pool_put(self);
    }
}

impl Spent for bytes::Bytes {
    fn capacity(&self) -> usize {
        bytes::Bytes::capacity(self)
    }

    fn give(self, engine: &mut Engine) {
        engine.recycle(self);
    }
}

/// Thread support levels of `MPI_Init_thread` (MPI-2 §8.7).
///
/// The engine sits behind a per-rank mutex, so every call is internally
/// serialized and the binding always *provides*
/// [`Multiple`](ThreadLevel::Multiple) — the requested level passed to
/// [`MPI::init_thread`] is a floor, never a cap. The background
/// progress thread ([`ProgressMode::Thread`]) needs `Serialized`
/// internally, which is therefore always available.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ThreadLevel {
    /// `MPI_THREAD_SINGLE`: only one thread will execute.
    #[default]
    Single,
    /// `MPI_THREAD_FUNNELED`: only the main thread makes MPI calls.
    Funneled,
    /// `MPI_THREAD_SERIALIZED`: any thread, one at a time.
    Serialized,
    /// `MPI_THREAD_MULTIPLE`: any thread, concurrently.
    Multiple,
}

/// Handle to one rank's background progress thread
/// ([`ProgressMode::Thread`]): a loop that opportunistically takes the
/// engine lock and drives one full progress sweep — incoming frames,
/// nonblocking-collective schedules, rendezvous handshakes, and the RMA
/// windows — then yields. Blocking MPI calls are untouched
/// (they progress the engine themselves while holding the lock); the
/// thread's contribution is progress while the application computes
/// *outside* MPI calls. Dropping the handle stops and joins the thread.
struct ProgressThread {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ProgressThread {
    /// Interval between polls while the engine is idle (no in-flight
    /// work) or the application thread holds the lock (a blocking call
    /// progresses the engine itself).
    const POLL_INTERVAL: std::time::Duration = std::time::Duration::from_micros(20);
    /// Interval closing each busy-poll burst while work *is* in
    /// flight. The thread then polls in bursts: [`Self::BUSY_BURST`]
    /// yield-separated polls (near-zero latency whenever a core is
    /// free, so due frames release on time) followed by one short
    /// sleep (so a rank-per-core-starved machine still gets its
    /// application threads scheduled — pure spinning would crowd them
    /// out and cost more than the poll latency it saves).
    const BUSY_POLL_INTERVAL: std::time::Duration = std::time::Duration::from_micros(5);
    /// Yield-separated polls per busy burst.
    const BUSY_BURST: u32 = 2;

    fn spawn(env: Arc<RankEnv>) -> ProgressThread {
        let stop = Arc::new(AtomicBool::new(false));
        let observed = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("mpijava-progress".into())
            .spawn(move || {
                let mut burst = 0u32;
                while !observed.load(Ordering::Relaxed) {
                    let mut hot = false;
                    if let Some(mut engine) = env.engine.try_lock() {
                        if engine.is_finalized() || engine.is_aborted() {
                            break;
                        }
                        // A progress error (e.g. a peer's abort landing)
                        // surfaces at the application's next engine
                        // call; the thread just keeps the pump running.
                        let _ = engine.progress_poll();
                        engine.note_progress_thread_poll();
                        hot = engine.background_work_pending();
                    }
                    if hot && burst < Self::BUSY_BURST {
                        burst += 1;
                        std::thread::yield_now();
                    } else {
                        burst = 0;
                        std::thread::sleep(if hot {
                            Self::BUSY_POLL_INTERVAL
                        } else {
                            Self::POLL_INTERVAL
                        });
                    }
                }
            })
            .expect("spawn progress thread");
        ProgressThread {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for ProgressThread {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// The `MPI` class of the binding: global services for one rank
/// (the paper's `MPI.Init`, `MPI.Finalize`, `MPI.COMM_WORLD`, `MPI.Wtime`,
/// constants, and the predefined datatypes of Figure 2 via [`Datatype`]).
pub struct MPI {
    env: Arc<RankEnv>,
    world: Intracomm,
    self_comm: Intracomm,
    thread_level: ThreadLevel,
}

impl MPI {
    /// `MPI.ANY_SOURCE`
    pub const ANY_SOURCE: i32 = mpi_native::ANY_SOURCE;
    /// `MPI.ANY_TAG`
    pub const ANY_TAG: i32 = mpi_native::ANY_TAG;
    /// `MPI.PROC_NULL`
    pub const PROC_NULL: i32 = mpi_native::PROC_NULL;
    /// `MPI.UNDEFINED`
    pub const UNDEFINED: i32 = mpi_native::UNDEFINED;
    /// `MPI.TAG_UB`
    pub const TAG_UB: i32 = mpi_native::types::TAG_UB;

    /// Wrap an already-initialized engine (this is `MPI.Init`; normally
    /// called for you by [`MpiRuntime::run`]).
    pub fn init(engine: Engine, jni_config: JniConfig) -> MPI {
        Self::init_thread(engine, jni_config, ThreadLevel::Single).0
    }

    /// `MPI.Init_thread(required)`: like [`init`](MPI::init), also
    /// returning the *provided* thread level. The engine is serialized
    /// behind a per-rank mutex, so every request is granted
    /// [`ThreadLevel::Multiple`].
    pub fn init_thread(
        engine: Engine,
        jni_config: JniConfig,
        required: ThreadLevel,
    ) -> (MPI, ThreadLevel) {
        let provided = required.max(ThreadLevel::Multiple);
        let env = Arc::new(RankEnv {
            engine: Mutex::new(engine),
            jni: jni::JniBoundary::new(jni_config),
        });
        let world = Intracomm::new(Arc::clone(&env), COMM_WORLD);
        let self_comm = Intracomm::new(Arc::clone(&env), COMM_SELF);
        (
            MPI {
                env,
                world,
                self_comm,
                thread_level: provided,
            },
            provided,
        )
    }

    /// `MPI.Query_thread()`: the provided thread support level
    /// ([`ThreadLevel::Multiple`] — see [`MPI::init_thread`]).
    pub fn query_thread(&self) -> ThreadLevel {
        self.thread_level
    }

    /// `MPI.COMM_WORLD`.
    pub fn comm_world(&self) -> Intracomm {
        self.world.clone()
    }

    /// `MPI.COMM_SELF`.
    pub fn comm_self(&self) -> Intracomm {
        self.self_comm.clone()
    }

    /// `MPI.Wtime()`.
    pub fn wtime(&self) -> f64 {
        self.env.engine.lock().wtime()
    }

    /// `MPI.Wtick()`.
    pub fn wtick(&self) -> f64 {
        self.env.engine.lock().wtick()
    }

    /// `MPI.Get_processor_name()`.
    pub fn get_processor_name(&self) -> String {
        self.env.engine.lock().processor_name().to_string()
    }

    /// `MPI.Initialized()`.
    pub fn initialized(&self) -> bool {
        !self.env.engine.lock().is_finalized()
    }

    /// `MPI.Finalize()`.
    pub fn finalize(&self) -> MpiResult<()> {
        self.env.jni.enter("MPI.Finalize");
        Ok(self.env.engine.lock().finalize()?)
    }

    /// `MPI.Buffer_attach(size)` (for `Bsend`).
    pub fn buffer_attach(&self, size: usize) -> MpiResult<()> {
        self.env.jni.enter("MPI.Buffer_attach");
        Ok(self.env.engine.lock().buffer_attach(size)?)
    }

    /// `MPI.Buffer_detach()`: returns the detached capacity.
    pub fn buffer_detach(&self) -> MpiResult<usize> {
        self.env.jni.enter("MPI.Buffer_detach");
        Ok(self.env.engine.lock().buffer_detach()?)
    }

    /// Counters of the simulated JNI boundary (calls, bytes marshalled).
    pub fn jni_stats(&self) -> JniStatsSnapshot {
        self.env.jni.stats()
    }

    /// Counters of the underlying engine (eager vs rendezvous, bytes).
    pub fn engine_stats(&self) -> EngineStats {
        self.env.engine.lock().stats().clone()
    }

    /// MPI_T-style snapshot of this rank's performance variables:
    /// every [`EngineStats`] counter as a named pvar, queue-depth and
    /// liveness gauges, transport frame counters (when enabled), and the
    /// latency histograms. See `mpi_native::trace` for the registry.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.env.engine.lock().metrics_snapshot()
    }

    /// Reset the resettable metrics (histograms and the trace ring);
    /// monotonic engine counters are unaffected.
    pub fn metrics_reset(&self) {
        self.env.engine.lock().metrics_reset()
    }

    /// Dump this rank's trace ring as JSONL into `dir`
    /// (`trace-rank{NNNNN}.jsonl`), regardless of whether a trace
    /// directory was configured — the escape hatch for a rank that will
    /// never reach `finalize` (e.g. a fault-drill victim). Returns the
    /// file written.
    pub fn dump_trace_to(
        &self,
        dir: impl Into<std::path::PathBuf>,
    ) -> MpiResult<std::path::PathBuf> {
        Ok(self.env.engine.lock().dump_trace_to(dir)?)
    }

    /// Direct access to the engine, used by the benchmark harness to run
    /// the "native C MPI" baseline on exactly the same substrate the
    /// wrapper uses (the paper's WMPI-C / MPICH-C series).
    pub fn with_engine<R>(&self, f: impl FnOnce(&mut Engine) -> R) -> R {
        f(&mut self.env.engine.lock())
    }
}

/// Job launcher: plays `mpirun` + `MPI.Init` for an SPMD closure.
///
/// A view of the engine's one job configuration, [`UniverseConfig`], plus
/// the one setting only the binding has (the JNI boundary).
/// [`MpiRuntime::new`] makes that configuration, so it reads the
/// `MPIJAVA_*` environment once, there; every builder method below then
/// writes the `UniverseConfig` field of the same name (a fabric setting
/// in its `fabric`), which wins over the environment — the rule and the
/// knob table are on [`mpi_native::env::overlay`].
#[derive(Debug, Clone)]
pub struct MpiRuntime {
    config: UniverseConfig,
    jni: JniConfig,
}

impl MpiRuntime {
    /// `size` ranks over the optimised shared-memory device, configured
    /// from the defaults and the `MPIJAVA_*` environment.
    pub fn new(size: usize) -> MpiRuntime {
        MpiRuntime {
            config: UniverseConfig::new(size, DeviceKind::ShmFast),
            jni: JniConfig::default(),
        }
    }

    /// Select the transport device (`ShmFast` ~ WMPI, `ShmP4` ~ MPICH,
    /// `Tcp` ~ the distributed-memory configuration).
    pub fn device(mut self, device: DeviceKind) -> Self {
        self.config.fabric.kind = device;
        self
    }

    /// Attach a link model (used for DM-mode experiments).
    pub fn network(mut self, network: NetworkModel) -> Self {
        self.config.fabric.network = network;
        self
    }

    /// Attach a synthetic per-message device cost (calibration).
    pub fn profile(mut self, profile: DeviceProfile) -> Self {
        self.config.fabric.profile = profile;
        self
    }

    /// Place ranks on nodes (see [`NodeMap`]): the `Hybrid` device
    /// routes intra-node traffic over the shm-class path and inter-node
    /// traffic over the modelled link, the engine's topology queries
    /// report the placement, and the collective tuner auto-selects the
    /// hierarchical algorithms when the map is non-trivial.
    pub fn nodes(mut self, nodes: NodeMap) -> Self {
        self.config.fabric.nodes = nodes;
        self
    }

    /// Attach an inter-node link model (hybrid device).
    pub fn inter_network(mut self, network: NetworkModel) -> Self {
        self.config.fabric.inter_network = network;
        self
    }

    /// Override the eager/rendezvous threshold.
    pub fn eager_threshold(mut self, bytes: usize) -> Self {
        self.config.eager_threshold = bytes;
        self
    }

    /// Pin the collective algorithm on every rank, overriding the
    /// size-aware tuning table (ablations; see `mpi_native::coll`). The
    /// classic and idiomatic collective surfaces both route through the
    /// engine's selector, so the pin affects either API uniformly.
    pub fn coll_algorithm(mut self, alg: CollAlgorithm) -> Self {
        self.config.coll_algorithm = Some(alg);
        self
    }

    /// Select the progress model (see [`ProgressMode`]):
    /// [`Thread`](ProgressMode::Thread) runs one background progress
    /// thread per rank, so nonblocking operations, rendezvous pipelines
    /// and passive-target RMA advance while the application computes —
    /// zero manual `test()` calls.
    pub fn progress(mut self, mode: ProgressMode) -> Self {
        self.config.progress = mode;
        self
    }

    /// Keep spooled frames under `dir` across process lifetimes
    /// ([`DeviceKind::Spool`] only) — the substrate for late-join and
    /// checkpoint/restart.
    pub fn spool_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.config.fabric.spool_dir = Some(dir.into());
        self
    }

    /// Set the heartbeat lease for failure detection: a rank whose lease
    /// goes unrefreshed for longer than this is reported dead to its
    /// peers, and blocking calls naming it error with
    /// [`ErrorClass::RankFailed`] instead of hanging (default
    /// [`DEFAULT_LEASE`]).
    pub fn lease(mut self, lease: std::time::Duration) -> Self {
        self.config.fabric.lease = lease;
        self
    }

    /// Inject a deterministic [`FaultPlan`] (kill/drop/delay — testing
    /// tool).
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.config.fabric.faults = faults;
        self
    }

    /// Select the observability mode on every rank (see [`TraceConfig`]):
    /// `counters` adds latency histograms and transport frame counters
    /// to the always-on [`EngineStats`]; `events` additionally records
    /// begin/end/instant events into a per-rank ring dumped as JSONL at
    /// finalize (default [`TraceMode::Off`]).
    pub fn trace(mut self, trace: TraceConfig) -> Self {
        self.config.trace = trace;
        self
    }

    /// Directory for the per-rank JSONL trace dumps (created if
    /// needed); without one (and without `MPIJAVA_TRACE_DIR`) the dumps
    /// go to `<spool>/trace` on the spool device, else nowhere.
    pub fn trace_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.config.trace_dir = Some(dir.into());
        self
    }

    /// Configure the simulated JNI boundary (marshal mode, per-call cost).
    pub fn jni(mut self, config: JniConfig) -> Self {
        self.jni = config;
        self
    }

    /// Start `size` ranks, each running `f` with its own [`MPI`]
    /// environment, and return the per-rank results in rank order:
    /// [`Universe::launch`] plus `MPI.Init` and, in
    /// [`ProgressMode::Thread`], the background progress thread around
    /// `f` (stopped and joined before the rank's result is returned).
    pub fn run<T, F>(&self, f: F) -> MpiResult<Vec<T>>
    where
        T: Send,
        F: Fn(&MPI) -> MpiResult<T> + Send + Sync,
    {
        Universe::launch(self.config.clone(), |engine| {
            let mpi = MPI::init(engine, self.jni);
            let _progress = (self.config.progress == ProgressMode::Thread)
                .then(|| ProgressThread::spawn(Arc::clone(&mpi.env)));
            f(&mpi)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_there_figure_3() {
        // The minimal program of the paper's Figure 3, adapted to Rust.
        MpiRuntime::new(2)
            .run(|mpi| {
                let world = mpi.comm_world();
                let myrank = world.rank()?;
                if myrank == 0 {
                    let message: Vec<u16> = "Hello, there".encode_utf16().collect();
                    world.send(&message, 0, message.len(), &Datatype::char(), 1, 99)?;
                } else {
                    let mut message = vec![0u16; 20];
                    let status = world.recv(&mut message, 0, 20, &Datatype::char(), 0, 99)?;
                    let n = status.get_count(&Datatype::char()).unwrap();
                    assert_eq!(String::from_utf16_lossy(&message[..n]), "Hello, there");
                }
                mpi.finalize()?;
                Ok(())
            })
            .unwrap();
    }

    #[test]
    fn constants_match_the_engine() {
        assert_eq!(MPI::ANY_SOURCE, -1);
        assert_eq!(MPI::ANY_TAG, -1);
        // Constant-true by construction; the test pins the contract.
        #[allow(clippy::assertions_on_constants)]
        {
            assert!(MPI::PROC_NULL < 0 && MPI::UNDEFINED < 0);
        }
    }

    #[test]
    fn wtime_and_processor_name_are_usable() {
        MpiRuntime::new(1)
            .run(|mpi| {
                assert!(mpi.wtime() >= 0.0);
                assert!(mpi.wtick() > 0.0 && mpi.wtick() < 1e-3);
                assert!(!mpi.get_processor_name().is_empty());
                assert!(mpi.initialized());
                Ok(())
            })
            .unwrap();
    }

    #[test]
    fn jni_stats_count_wrapper_traffic() {
        let results = MpiRuntime::new(2)
            .run(|mpi| {
                let world = mpi.comm_world();
                let rank = world.rank()?;
                let data = vec![rank as i32; 256];
                let mut recv = vec![0i32; 256];
                let peer = (1 - rank) as i32;
                world.sendrecv(
                    &data,
                    0,
                    256,
                    &Datatype::int(),
                    peer,
                    0,
                    &mut recv,
                    0,
                    256,
                    &Datatype::int(),
                    peer,
                    0,
                )?;
                Ok(mpi.jni_stats())
            })
            .unwrap();
        for stats in results {
            assert!(stats.calls >= 2);
            assert!(stats.bytes_in >= 1024);
            assert!(stats.bytes_out >= 1024);
        }
    }

    #[test]
    fn panics_become_errors_not_hangs() {
        let result = MpiRuntime::new(2).run(|mpi| {
            let world = mpi.comm_world();
            if world.rank()? == 0 {
                panic!("deliberate");
            }
            let mut buf = [0u8; 1];
            // Never satisfied; must be unblocked by the abort.
            let _ = world.recv(&mut buf, 0, 1, &Datatype::byte(), 0, 1234);
            Ok(())
        });
        assert!(result.is_err());
    }
}
