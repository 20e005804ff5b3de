//! The idiomatic Rust API surface (`mpijava::rs`).
//!
//! The classic classes of this crate reproduce mpiJava's Java argument
//! conventions verbatim — `send(buf, offset, count, datatype, dest, tag)`
//! with `Deref` chains standing in for class inheritance. That surface is
//! the paper's contract and stays untouched; this module layers the API a
//! Rust caller would actually want on top of it:
//!
//! * **Trait-based polymorphism**: [`Communicator`] is implemented by
//!   [`Intracomm`], [`Cartcomm`](crate::Cartcomm) and
//!   [`Graphcomm`](crate::Graphcomm), so generic code says
//!   `fn exchange<C: Communicator>(comm: &C)` instead of leaning on
//!   `Deref` coercions.
//! * **Datatype inference**: the element type of the buffer determines the
//!   MPI datatype via [`BufferElement::datatype`] — no `MPI.INT` at call
//!   sites, and no way to pass the *wrong* one.
//! * **Slice-native buffers**: Java's `(buf, offset, count)` triple is a
//!   Rust slice. Sub-ranges are ordinary slicing: `&buf[3..8]`.
//! * **RAII nonblocking ops**: [`isend`](Communicator::isend) /
//!   [`irecv_into`](Communicator::irecv_into) return a lifetime-bound
//!   [`TypedRequest`] that completes on drop and whose
//!   [`wait`](TypedRequest::wait) consumes the handle.
//! * **Nonblocking collectives**: [`ibarrier`](Communicator::ibarrier),
//!   [`ibroadcast`](Communicator::ibroadcast),
//!   [`iall_reduce`](Communicator::iall_reduce),
//!   [`iall_to_all`](Communicator::iall_to_all),
//!   [`ireduce_scatter_into`](Communicator::ireduce_scatter_into),
//!   [`iscan_into`](Communicator::iscan_into) & friends return the
//!   same [`TypedRequest`] handles, so one heterogeneous
//!   [`TypedRequest::wait_all`] batch mixes point-to-point and
//!   collective completion; blocking collectives are `start + wait`
//!   over the same engine schedules (see the crate docs' three-column
//!   table).
//! * **Persistent operations**: [`send_init`](Communicator::send_init) /
//!   [`recv_init`](Communicator::recv_init) and the persistent
//!   collectives ([`barrier_init`](Communicator::barrier_init),
//!   [`broadcast_init`](Communicator::broadcast_init),
//!   [`reduce_init_into`](Communicator::reduce_init_into),
//!   [`all_reduce_init`](Communicator::all_reduce_init),
//!   [`all_gather_init`](Communicator::all_gather_init)) return a
//!   reusable [`PersistentRequest`] whose `start()`/`wait()` pairs
//!   replay the operation without re-paying validation, algorithm
//!   selection, or schedule construction (see the crate docs' persistent
//!   column).
//! * **Node topology** (multi-fabric jobs):
//!   [`node_of`](Communicator::node_of) /
//!   [`my_node`](Communicator::my_node) /
//!   [`node_leader`](Communicator::node_leader) report the fabric's
//!   rank → node placement, and
//!   [`split_by_node`](Communicator::split_by_node) yields the per-node
//!   sub-communicator (the `MPI_Comm_split_type(COMM_TYPE_SHARED)`
//!   shape). On hybrid fabrics the collective tuner routes through the
//!   node leaders automatically (see `mpi_native::coll::hier`).
//! * **Zero-copy byte sends**: [`send_bytes`](Communicator::send_bytes) /
//!   [`isend_bytes`](Communicator::isend_bytes) move an owned
//!   refcounted buffer onto the engine's zero-copy datapath without a
//!   single payload copy.
//! * **Object transport without `MPI.OBJECT` plumbing**:
//!   [`send_obj`](Communicator::send_obj) / [`recv_obj`](Communicator::recv_obj)
//!   are generic over [`Serializable`].
//!
//! Every method crosses the simulated JNI boundary through the classic
//! seam, exactly as the paper's measurements require — the idiomatic
//! surface is sugar, not a bypass. Point-to-point methods delegate to
//! the classic methods; every collective, blocking, `i*` or `*_init`, is
//! one call of the classic surface's collective launcher under the
//! classic method's boundary name, so its input marshals in through
//! `Comm::pack_buffer` and its outcome is stored through
//! `Comm::unpack_buffer` like the classic twin's.
//!
//! The paper's Figure 3 program, idiomatic form:
//!
//! ```no_run
//! use mpijava::rs::Communicator;
//! use mpijava::MpiRuntime;
//!
//! MpiRuntime::new(2).run(|mpi| {
//!     let world = mpi.comm_world();
//!     if world.rank()? == 0 {
//!         let msg: Vec<u16> = "Hello, there".encode_utf16().collect();
//!         world.send(&msg[..], 1, 99)?;
//!     } else {
//!         let mut buf = vec![0u16; 20];
//!         let status = world.recv_into(&mut buf, 0, 99)?;
//!         let n = status.count_elements::<u16>().unwrap();
//!         println!("received: {}", String::from_utf16_lossy(&buf[..n]));
//!     }
//!     mpi.finalize()
//! }).unwrap();
//! ```
//!
//! ## Mixing surfaces in one source file: the shadowing caveat
//!
//! The trait's short names shadow the classic Java-style methods for any
//! type that implements [`Communicator`] once the trait is imported:
//! method resolution finds the trait impl on `Intracomm` *before* it
//! tries the `Deref` to [`Comm`] that the classic inherent
//! methods live behind. With the trait imported at file scope, the
//! classic six-argument `send` no longer resolves:
//!
//! ```compile_fail
//! use mpijava::rs::Communicator; // file-wide import shadows classic names
//! use mpijava::{Datatype, MpiRuntime};
//!
//! MpiRuntime::new(2).run(|mpi| {
//!     let world = mpi.comm_world();
//!     // ERROR: this now resolves to rs::Communicator::send(buf, dest, tag),
//!     // which takes three arguments, not six.
//!     world.send(&[1u8], 0, 1, &Datatype::byte(), 1, 7)?;
//!     Ok(())
//! }).unwrap();
//! ```
//!
//! The idiom: import the trait *scoped* — inside the function (or inner
//! module) that wants the idiomatic surface, anonymously via
//! `use ... as _;` since only the methods are needed, not the name. The
//! rest of the file keeps the classic resolution:
//!
//! ```
//! use mpijava::{Datatype, MpiRuntime};
//!
//! /// Idiomatic half: the trait import is contained to this function.
//! fn sum_of_ranks(world: &mpijava::Intracomm) -> mpijava::MpiResult<i32> {
//!     use mpijava::rs::Communicator as _;
//!     let mut total = [0i32];
//!     world.all_reduce(&[world.rank()? as i32], &mut total, mpijava::Op::sum())?;
//!     Ok(total[0])
//! }
//!
//! MpiRuntime::new(2).run(|mpi| {
//!     let world = mpi.comm_world();
//!     let rank = world.rank()?; // classic Comm::Rank via Deref — un-shadowed here
//!     assert_eq!(sum_of_ranks(&world)?, 1);
//!     // The classic six-argument Send/Recv still resolve in this scope.
//!     if rank == 0 {
//!         world.send(&[42u8], 0, 1, &Datatype::byte(), 1, 7)?;
//!     } else {
//!         let mut buf = [0u8];
//!         world.recv(&mut buf, 0, 1, &Datatype::byte(), 0, 7)?;
//!         assert_eq!(buf[0], 42);
//!     }
//!     Ok(())
//! }).unwrap();
//! ```
//!
//! Escape hatch when both surfaces must share one scope: call the classic
//! form fully qualified, `Comm::send(&world, buf, off, count, ty, dest,
//! tag)` — inherent methods named explicitly ignore trait shadowing.

use std::borrow::Borrow;
use std::sync::Arc;

use mpi_native::coll::{CollDesc, CollOutcome, Reduction};
use mpi_native::{ErrorClass, MpiError, SendMode, PROC_NULL};

use crate::buffer::{bytes_of, store_bytes, BufferElement};
use crate::comm::{Array, Comm, Shape};
use crate::exception::{MPIException, MpiResult};
use crate::intracomm::{Intracomm, Mode};
use crate::op::Op;
use crate::request::{Capture, Pending};
use crate::serial::Serializable;
use crate::status::Status;

pub use crate::request::{PersistentRequest, TypedRequest};
pub use crate::window::{GetToken, Window};

/// Polymorphic communication interface over every intra-communicator
/// class of the binding.
///
/// All methods are slice-native and infer the MPI datatype from the
/// buffer element type; see the [module docs](crate::rs) for the design
/// and the [crate docs](crate) for the classic ⇄ idiomatic method table.
pub trait Communicator {
    /// The underlying intra-communicator (the one required method;
    /// everything else is provided on top of it).
    fn as_intracomm(&self) -> &Intracomm;

    /// The underlying base communicator.
    fn as_comm(&self) -> &Comm {
        self.as_intracomm()
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// This process's rank in the communicator (`Comm.Rank()`).
    fn rank(&self) -> MpiResult<usize> {
        self.as_comm().rank()
    }

    /// Number of processes in the communicator (`Comm.Size()`).
    fn size(&self) -> MpiResult<usize> {
        self.as_comm().size()
    }

    // ------------------------------------------------------------------
    // Observability
    // ------------------------------------------------------------------

    /// Counters of this rank's engine (eager vs rendezvous sends, bytes,
    /// collective and RMA activity) — always on, at every trace mode.
    fn stats(&self) -> crate::EngineStats {
        self.as_comm().env.engine.lock().stats().clone()
    }

    /// MPI_T-style snapshot of this rank's performance variables: the
    /// [`EngineStats`](crate::EngineStats) counters as named pvars,
    /// queue-depth and peer-liveness gauges, transport frame counters
    /// (when enabled), and the latency histograms.
    fn metrics_snapshot(&self) -> crate::MetricsSnapshot {
        self.as_comm().env.engine.lock().metrics_snapshot()
    }

    /// Reset the resettable metrics (histograms and the event ring);
    /// monotonic engine counters are unaffected.
    fn metrics_reset(&self) {
        self.as_comm().env.engine.lock().metrics_reset()
    }

    // ------------------------------------------------------------------
    // Blocking point-to-point
    // ------------------------------------------------------------------

    /// Send the whole slice to `dest` (classic `Send(buf, 0, buf.len(),
    /// T::datatype(), dest, tag)`).
    fn send<T: BufferElement>(&self, buf: &[T], dest: i32, tag: i32) -> MpiResult<()> {
        self.as_comm()
            .send(buf, 0, buf.len(), &T::datatype(), dest, tag)
    }

    /// Receive into the whole slice from `source`, returning the
    /// [`Status`] (classic `Recv`). Receiving fewer elements than
    /// `buf.len()` is fine; `status.count_elements::<T>()` says how many
    /// arrived.
    ///
    /// The same call as the classic `Recv` with the datatype inferred:
    /// the engine's one delivery copy lands in `buf`'s own memory (see
    /// [`crate::buffer`]), and the simulated JNI crossing is counted.
    fn recv_into<T: BufferElement>(
        &self,
        buf: &mut [T],
        source: i32,
        tag: i32,
    ) -> MpiResult<Status> {
        let count = buf.len();
        self.as_comm()
            .recv(buf, 0, count, &T::datatype(), source, tag)
    }

    /// Combined send + receive (classic `Sendrecv`), with independent
    /// element types for the two directions.
    fn sendrecv<S: BufferElement, R: BufferElement>(
        &self,
        send: &[S],
        dest: i32,
        send_tag: i32,
        recv: &mut [R],
        source: i32,
        recv_tag: i32,
    ) -> MpiResult<Status> {
        let recv_count = recv.len();
        self.as_comm().sendrecv(
            send,
            0,
            send.len(),
            &S::datatype(),
            dest,
            send_tag,
            recv,
            0,
            recv_count,
            &R::datatype(),
            source,
            recv_tag,
        )
    }

    // ------------------------------------------------------------------
    // Non-blocking point-to-point
    // ------------------------------------------------------------------

    /// Start a non-blocking send of the whole slice (classic `Isend`).
    ///
    /// The payload is marshalled at call time (exactly like the classic
    /// method), so the returned request does not need the buffer to stay
    /// borrowed; the lifetime bound keeps the handle from outliving the
    /// scope that produced it.
    fn isend<'buf, T: BufferElement>(
        &self,
        buf: &'buf [T],
        dest: i32,
        tag: i32,
    ) -> MpiResult<TypedRequest<'buf>> {
        let request = self
            .as_comm()
            .isend(buf, 0, buf.len(), &T::datatype(), dest, tag)?;
        Ok(request.op.into())
    }

    /// Start a non-blocking receive into the whole slice (classic
    /// `Irecv`). The buffer stays mutably borrowed by the returned
    /// [`TypedRequest`] until it completes — waited on explicitly or on
    /// drop — so the type system rules out reading a half-filled buffer.
    fn irecv_into<'buf, T: BufferElement>(
        &self,
        buf: &'buf mut [T],
        source: i32,
        tag: i32,
    ) -> MpiResult<TypedRequest<'buf>> {
        let count = buf.len();
        let request = self
            .as_comm()
            .irecv(buf, 0, count, &T::datatype(), source, tag)?;
        Ok(request.op.into())
    }

    // ------------------------------------------------------------------
    // Zero-copy byte transport (engine `Bytes` datapath)
    // ------------------------------------------------------------------

    /// Blocking zero-copy send of an owned [`bytes::Bytes`] payload:
    /// delegates straight to the engine's `send`, which moves the
    /// refcounted buffer onto the wire without copying a single payload
    /// byte (the engine's `bytes_copied` statistic does not move on this
    /// path — pinned by the copy-accounting suite).
    fn send_bytes(&self, data: bytes::Bytes, dest: i32, tag: i32) -> MpiResult<()> {
        let comm = self.as_comm();
        comm.env.jni.enter("Comm.Send[bytes]");
        let mut engine = comm.env.engine.lock();
        engine.send(comm.handle, dest, tag, data, SendMode::Standard)?;
        Ok(())
    }

    /// Nonblocking zero-copy send of an owned [`bytes::Bytes`] payload
    /// (see [`send_bytes`](Communicator::send_bytes)). The payload is
    /// owned by the engine from the moment of the call, so the returned
    /// handle carries no buffer borrow.
    fn isend_bytes(
        &self,
        data: bytes::Bytes,
        dest: i32,
        tag: i32,
    ) -> MpiResult<TypedRequest<'static>> {
        let comm = self.as_comm();
        comm.env.jni.enter("Comm.Isend[bytes]");
        let mut engine = comm.env.engine.lock();
        let copied_before = engine.stats().bytes_copied;
        let id = engine.isend(comm.handle, dest, tag, data, SendMode::Standard)?;
        debug_assert_eq!(
            engine.stats().bytes_copied,
            copied_before,
            "zero-copy send path must not copy payload bytes"
        );
        drop(engine);
        Ok(Pending::new(&comm.env, id, ()).into())
    }

    // ------------------------------------------------------------------
    // Collectives
    // ------------------------------------------------------------------
    //
    // Every collective below is one `Intracomm::collective` call over
    // whole-slice sides, under the classic method's boundary name: the
    // blocking, nonblocking and persistent forms of an operation marshal
    // the same bytes through the same seam.

    /// Synchronize every rank (classic `Barrier`).
    fn barrier(&self) -> MpiResult<()> {
        self.as_intracomm().barrier()
    }

    /// Broadcast the root's slice contents to every rank (classic
    /// `Bcast`). Every rank passes a buffer of the same length.
    fn broadcast<T: BufferElement>(&self, buf: &mut [T], root: usize) -> MpiResult<()> {
        let mode = Mode::Blocking(CollDesc::Bcast { root });
        let buf = Array::whole(buf);
        self.as_intracomm()
            .collective("Intracomm.Bcast", mode, (), buf)
    }

    /// Element-wise reduction of `send` into the root's `recv` (classic
    /// `Reduce`). Non-root ranks still pass a `recv` slice of the same
    /// length; it is left untouched. (Named `reduce_into` because the
    /// classic 8-argument `Reduce` is an inherent method of [`Intracomm`]
    /// and inherent names win method resolution over trait names.)
    fn reduce_into<T: BufferElement>(
        &self,
        send: &[T],
        recv: &mut [T],
        op: impl Borrow<Op>,
        root: usize,
    ) -> MpiResult<()> {
        let red = reduction::<T>(send.len(), op.borrow());
        let mode = Mode::Blocking(CollDesc::Reduce { root, red });
        let (send, recv) = (Array::whole(send), Array::whole(recv));
        self.as_intracomm()
            .collective("Intracomm.Reduce", mode, send, recv)
    }

    /// Element-wise reduction delivered to every rank (classic
    /// `Allreduce`): `world.all_reduce(&buf, &mut out, Op::sum())`.
    fn all_reduce<T: BufferElement>(
        &self,
        send: &[T],
        recv: &mut [T],
        op: impl Borrow<Op>,
    ) -> MpiResult<()> {
        let mode = Mode::Blocking(CollDesc::Allreduce(reduction::<T>(send.len(), op.borrow())));
        let (send, recv) = (Array::whole(send), Array::whole(recv));
        self.as_intracomm()
            .collective("Intracomm.Allreduce", mode, send, recv)
    }

    /// Inclusive prefix reduction (classic `Scan`).
    fn scan_into<T: BufferElement>(
        &self,
        send: &[T],
        recv: &mut [T],
        op: impl Borrow<Op>,
    ) -> MpiResult<()> {
        let mode = Mode::Blocking(CollDesc::Scan(reduction::<T>(send.len(), op.borrow())));
        let (send, recv) = (Array::whole(send), Array::whole(recv));
        self.as_intracomm()
            .collective("Intracomm.Scan", mode, send, recv)
    }

    /// Gather every rank's `send` slice to the root (classic `Gather`).
    /// The root's `recv` holds `size * send.len()` elements in rank
    /// order; non-root ranks may pass an empty slice.
    fn gather_into<T: BufferElement>(
        &self,
        send: &[T],
        recv: &mut [T],
        root: usize,
    ) -> MpiResult<()> {
        let mode = Mode::Blocking(CollDesc::Gather { root });
        let recv = Array::of(recv, Shape::Each(send.len()));
        self.as_intracomm()
            .collective("Intracomm.Gather", mode, Array::whole(send), recv)
    }

    /// Gather every rank's `send` slice to every rank (classic
    /// `Allgather`). `recv` holds `size * send.len()` elements.
    fn all_gather<T: BufferElement>(&self, send: &[T], recv: &mut [T]) -> MpiResult<()> {
        let mode = Mode::Blocking(CollDesc::Allgather);
        let recv = Array::of(recv, Shape::Each(send.len()));
        self.as_intracomm()
            .collective("Intracomm.Allgather", mode, Array::whole(send), recv)
    }

    /// Scatter equal chunks of the root's `send` slice (classic
    /// `Scatter`): each rank receives `recv.len()` elements, so the
    /// root's `send` holds `size * recv.len()`; non-root ranks may pass
    /// an empty `send`.
    fn scatter_from<T: BufferElement>(
        &self,
        send: &[T],
        recv: &mut [T],
        root: usize,
    ) -> MpiResult<()> {
        let mode = Mode::Blocking(CollDesc::Scatter { root });
        let send = Array::of(send, Shape::Each(recv.len()));
        self.as_intracomm()
            .collective("Intracomm.Scatter", mode, send, Array::whole(recv))
    }

    /// Total exchange (classic `Alltoall`): every rank sends
    /// `send.len() / size` elements to each peer and receives the same
    /// amount from each, so `send` and `recv` both hold `size * chunk`
    /// elements.
    fn all_to_all<T: BufferElement>(&self, send: &[T], recv: &mut [T]) -> MpiResult<()> {
        let mode = Mode::Blocking(CollDesc::Alltoall);
        let split = Shape::Split(send.len());
        let (send, recv) = (Array::of(send, split), Array::of(recv, split));
        self.as_intracomm()
            .collective("Intracomm.Alltoall", mode, send, recv)
    }

    // ------------------------------------------------------------------
    // Nonblocking collectives (schedule-driven; see `mpi_native::coll::nb`)
    // ------------------------------------------------------------------
    //
    // Each `i*` method starts the collective's schedule and returns a
    // futures-style [`TypedRequest`]: poll it with
    // [`test`](TypedRequest::test), block with
    // [`wait`](TypedRequest::wait), or batch it — heterogeneously, mixed
    // with `isend`/`irecv_into` point-to-point handles — through
    // [`TypedRequest::wait_all`]. Progress happens inside `test`/`wait`
    // calls (and inside any blocking engine entry point), so interleave
    // occasional `test()` calls with computation to overlap the two —
    // the `icollectives` benchmark measures exactly that. Every rank of
    // the communicator must start the same collectives in the same
    // order (the standard's nonblocking-collective rule); results are
    // byte-identical to the blocking twins, which run the same schedules
    // over the same marshalled input.

    /// Nonblocking barrier (`MPI_Ibarrier`): the returned request
    /// completes once every rank has entered the barrier.
    fn ibarrier(&self) -> MpiResult<TypedRequest<'static>> {
        let mode = Mode::Nonblocking(CollDesc::Barrier);
        self.as_intracomm()
            .collective("Intracomm.Ibarrier", mode, (), ())
    }

    /// Nonblocking broadcast (`MPI_Ibcast`): the root's slice contents
    /// are captured at call time; every rank's `buf` holds them on
    /// completion. Every rank passes a buffer of the same length.
    fn ibroadcast<'buf, T: BufferElement>(
        &self,
        buf: &'buf mut [T],
        root: usize,
    ) -> MpiResult<TypedRequest<'buf>> {
        let mode = Mode::Nonblocking(CollDesc::Bcast { root });
        let buf = Array::whole(buf);
        self.as_intracomm()
            .collective("Intracomm.Ibcast", mode, (), buf)
    }

    /// Nonblocking reduction to the root (`MPI_Ireduce`); non-root
    /// ranks' `recv` slices are left untouched.
    fn ireduce_into<'buf, T: BufferElement>(
        &self,
        send: &[T],
        recv: &'buf mut [T],
        op: impl Borrow<Op>,
        root: usize,
    ) -> MpiResult<TypedRequest<'buf>> {
        let red = reduction::<T>(send.len(), op.borrow());
        let mode = Mode::Nonblocking(CollDesc::Reduce { root, red });
        let (send, recv) = (Array::whole(send), Array::whole(recv));
        self.as_intracomm()
            .collective("Intracomm.Ireduce", mode, send, recv)
    }

    /// Nonblocking allreduce (`MPI_Iallreduce`): `recv` holds the full
    /// reduction on every rank when the request completes.
    fn iall_reduce<'buf, T: BufferElement>(
        &self,
        send: &[T],
        recv: &'buf mut [T],
        op: impl Borrow<Op>,
    ) -> MpiResult<TypedRequest<'buf>> {
        let red = reduction::<T>(send.len(), op.borrow());
        let mode = Mode::Nonblocking(CollDesc::Allreduce(red));
        let (send, recv) = (Array::whole(send), Array::whole(recv));
        self.as_intracomm()
            .collective("Intracomm.Iallreduce", mode, send, recv)
    }

    /// Nonblocking gather (`MPI_Igather`): the root's `recv` holds
    /// `size * send.len()` elements in rank order on completion;
    /// non-root ranks may pass an empty `recv`.
    fn igather_into<'buf, T: BufferElement>(
        &self,
        send: &[T],
        recv: &'buf mut [T],
        root: usize,
    ) -> MpiResult<TypedRequest<'buf>> {
        let mode = Mode::Nonblocking(CollDesc::Gather { root });
        let recv = Array::of(recv, Shape::Each(send.len()));
        let comm = self.as_intracomm();
        comm.collective("Intracomm.Igather", mode, Array::whole(send), recv)
    }

    /// Nonblocking allgather (`MPI_Iallgather`): `recv` holds
    /// `size * send.len()` elements in rank order on every rank.
    fn iall_gather<'buf, T: BufferElement>(
        &self,
        send: &[T],
        recv: &'buf mut [T],
    ) -> MpiResult<TypedRequest<'buf>> {
        let mode = Mode::Nonblocking(CollDesc::Allgather);
        let recv = Array::of(recv, Shape::Each(send.len()));
        let comm = self.as_intracomm();
        comm.collective("Intracomm.Iallgather", mode, Array::whole(send), recv)
    }

    /// Nonblocking scatter (`MPI_Iscatter`): each rank receives
    /// `recv.len()` elements, so the root's `send` holds
    /// `size * recv.len()` (captured at call time); non-root ranks may
    /// pass an empty `send`.
    fn iscatter_from<'buf, T: BufferElement>(
        &self,
        send: &[T],
        recv: &'buf mut [T],
        root: usize,
    ) -> MpiResult<TypedRequest<'buf>> {
        let mode = Mode::Nonblocking(CollDesc::Scatter { root });
        let send = Array::of(send, Shape::Each(recv.len()));
        let comm = self.as_intracomm();
        comm.collective("Intracomm.Iscatter", mode, send, Array::whole(recv))
    }

    /// Nonblocking total exchange (`MPI_Ialltoall`): every rank sends
    /// `send.len() / size` elements to each peer; `recv` (same length as
    /// `send`) holds the chunks received from every rank, in rank order,
    /// on completion.
    fn iall_to_all<'buf, T: BufferElement>(
        &self,
        send: &[T],
        recv: &'buf mut [T],
    ) -> MpiResult<TypedRequest<'buf>> {
        let mode = Mode::Nonblocking(CollDesc::Alltoall);
        let split = Shape::Split(send.len());
        let (send, recv) = (Array::of(send, split), Array::of(recv, split));
        self.as_intracomm()
            .collective("Intracomm.Ialltoall", mode, send, recv)
    }

    /// Nonblocking reduce-scatter (`MPI_Ireduce_scatter` with equal
    /// counts, i.e. `MPI_Reduce_scatter_block`): the `size * recv.len()`
    /// elements of `send` are reduced element-wise across all ranks and
    /// rank `i` receives the `i`-th `recv.len()`-element block. Every
    /// rank must pass the same `recv` length.
    fn ireduce_scatter_into<'buf, T: BufferElement>(
        &self,
        send: &[T],
        recv: &'buf mut [T],
        op: impl Borrow<Op>,
    ) -> MpiResult<TypedRequest<'buf>> {
        let comm = self.as_intracomm();
        let counts = vec![recv.len(); comm.env.engine.lock().comm_size(comm.handle)?];
        let desc = CollDesc::reduce_scatter(&counts, T::KIND, op.borrow().engine_op());
        let mode = Mode::Nonblocking(desc);
        let send = Array::of(send, Shape::Each(recv.len()));
        comm.collective("Intracomm.Ireduce_scatter", mode, send, Array::whole(recv))
    }

    /// Nonblocking inclusive prefix reduction (`MPI_Iscan`): `recv`
    /// holds the fold of ranks `0..=self` on completion.
    fn iscan_into<'buf, T: BufferElement>(
        &self,
        send: &[T],
        recv: &'buf mut [T],
        op: impl Borrow<Op>,
    ) -> MpiResult<TypedRequest<'buf>> {
        let mode = Mode::Nonblocking(CollDesc::Scan(reduction::<T>(send.len(), op.borrow())));
        let (send, recv) = (Array::whole(send), Array::whole(recv));
        self.as_intracomm()
            .collective("Intracomm.Iscan", mode, send, recv)
    }

    // ------------------------------------------------------------------
    // Persistent operations (MPI_Send_init / MPI_Start and the MPI-4
    // persistent collectives; see the crate docs' persistent column)
    // ------------------------------------------------------------------
    //
    // Each `*_init` builds a reusable [`PersistentRequest`]: the
    // one-time costs — validation, algorithm selection, and (for
    // collectives) schedule construction over pinned tag windows — are
    // paid here, and every `start()`/`wait()` iteration replays the
    // operation against the captured buffers. The collective `*_init`
    // calls are themselves collective: every rank must call them in the
    // same order relative to other collectives on the communicator, and
    // successive `start()`s must also line up rank-for-rank (the
    // standard's persistent-collective rule).

    /// Persistent send (`MPI_Send_init`): each
    /// [`start()`](PersistentRequest::start) re-marshals the captured
    /// slice's *current* contents and sends them to `dest` — the C
    /// idiom of reusing the buffer by address. Since the slice stays
    /// immutably borrowed by the handle, interior mutation between
    /// starts needs a `Cell`-style element or a fresh handle.
    fn send_init<'buf, T: BufferElement>(
        &self,
        buf: &'buf [T],
        dest: i32,
        tag: i32,
    ) -> MpiResult<PersistentRequest<'buf>> {
        let request = self
            .as_comm()
            .send_init(buf, 0, buf.len(), &T::datatype(), dest, tag)?;
        Ok(request.op.into())
    }

    /// Persistent receive (`MPI_Recv_init`): each completed iteration
    /// fills the captured slice. The slice stays mutably borrowed by
    /// the handle until it is dropped or freed.
    fn recv_init<'buf, T: BufferElement>(
        &self,
        buf: &'buf mut [T],
        source: i32,
        tag: i32,
    ) -> MpiResult<PersistentRequest<'buf>> {
        let count = buf.len();
        let request = self
            .as_comm()
            .recv_init(buf, 0, count, &T::datatype(), source, tag)?;
        Ok(request.op.into())
    }

    /// Persistent barrier (`MPI_Barrier_init`): each `start()`/`wait()`
    /// pair is one barrier over the pre-built schedule.
    fn barrier_init(&self) -> MpiResult<PersistentRequest<'static>> {
        let mode = Mode::Persistent(CollDesc::Barrier);
        self.as_intracomm()
            .collective("Intracomm.Barrier_init", mode, (), ())
    }

    /// Persistent broadcast (`MPI_Bcast_init`): each iteration sends
    /// the root's current `buf` contents to every rank's `buf`. Every
    /// rank passes a buffer of the same length, fixed at init time.
    fn broadcast_init<'buf, T: BufferElement>(
        &self,
        buf: &'buf mut [T],
        root: usize,
    ) -> MpiResult<PersistentRequest<'buf>> {
        let mode = Mode::Persistent(CollDesc::Bcast { root });
        let buf = Array::whole(buf);
        self.as_intracomm()
            .collective("Intracomm.Bcast_init", mode, (), buf)
    }

    /// Persistent reduction to `root` (`MPI_Reduce_init`); each
    /// iteration reduces the captured `send` slices into the root's
    /// `recv` (non-root `recv` slices are left untouched).
    fn reduce_init_into<'buf, T: BufferElement>(
        &self,
        send: &'buf [T],
        recv: &'buf mut [T],
        op: impl Borrow<Op>,
        root: usize,
    ) -> MpiResult<PersistentRequest<'buf>> {
        let red = Reduction::owned(T::KIND, send.len(), op.borrow().engine_op());
        let mode = Mode::Persistent(CollDesc::Reduce { root, red });
        let sides = (Array::whole(send), Array::whole(recv));
        self.as_intracomm()
            .collective("Intracomm.Reduce_init", mode, (), sides)
    }

    /// Persistent allreduce (`MPI_Allreduce_init`): each iteration
    /// reduces the captured `send` slices and delivers the result to
    /// every rank's `recv`.
    fn all_reduce_init<'buf, T: BufferElement>(
        &self,
        send: &'buf [T],
        recv: &'buf mut [T],
        op: impl Borrow<Op>,
    ) -> MpiResult<PersistentRequest<'buf>> {
        let red = Reduction::owned(T::KIND, send.len(), op.borrow().engine_op());
        let mode = Mode::Persistent(CollDesc::Allreduce(red));
        let sides = (Array::whole(send), Array::whole(recv));
        self.as_intracomm()
            .collective("Intracomm.Allreduce_init", mode, (), sides)
    }

    /// Persistent allgather (`MPI_Allgather_init`): each iteration
    /// gathers the captured `send` slices into every rank's `recv`
    /// (`size * send.len()` elements, rank order).
    fn all_gather_init<'buf, T: BufferElement>(
        &self,
        send: &'buf [T],
        recv: &'buf mut [T],
    ) -> MpiResult<PersistentRequest<'buf>> {
        let mode = Mode::Persistent(CollDesc::Allgather);
        let sides = (Array::whole(send), Array::of(recv, Shape::Each(send.len())));
        self.as_intracomm()
            .collective("Intracomm.Allgather_init", mode, (), sides)
    }

    // ------------------------------------------------------------------
    // Node topology (multi-fabric jobs; see mpi_transport::NodeMap)
    // ------------------------------------------------------------------

    /// Which node of the fabric's placement `rank` (a rank in this
    /// communicator) lives on. Single-fabric jobs report node 0 for
    /// everyone.
    fn node_of(&self, rank: usize) -> MpiResult<usize> {
        let comm = self.as_comm();
        comm.env.jni.enter("Comm.Node_of");
        Ok(comm.env.engine.lock().node_of(comm.handle, rank)?)
    }

    /// This process's node.
    fn my_node(&self) -> MpiResult<usize> {
        let comm = self.as_comm();
        comm.env.jni.enter("Comm.My_node");
        let engine = comm.env.engine.lock();
        Ok(engine.my_node())
    }

    /// The leader of this process's node within the communicator: its
    /// lowest-ranked member on the same node (the rank that carries the
    /// inter-node traffic of the hierarchical collectives).
    fn node_leader(&self) -> MpiResult<usize> {
        let comm = self.as_comm();
        comm.env.jni.enter("Comm.Node_leader");
        Ok(comm.env.engine.lock().node_leader(comm.handle)?)
    }

    /// Split the communicator into per-node sub-communicators (the
    /// `MPI_Comm_split_type(COMM_TYPE_SHARED)` shape): every member
    /// receives the communicator of its own node, members ordered by
    /// their rank here. Collective over the communicator.
    fn split_by_node(&self) -> MpiResult<Intracomm> {
        let comm = self.as_comm();
        comm.env.jni.enter("Comm.Split_node");
        let handle = comm.env.engine.lock().comm_split_node(comm.handle)?;
        Ok(Intracomm::new(Arc::clone(&comm.env), handle))
    }

    // ------------------------------------------------------------------
    // Neighborhood collectives (virtual topologies; MPI-3 §7.6 shape)
    // ------------------------------------------------------------------
    //
    // Defined for communicators carrying a cartesian or graph topology
    // (created with `create_cart` / `create_graph`); calling them on a
    // topology-less communicator errors with `ErrorClass::Topology`.
    // The neighbor list and its slot order come from
    // [`topo_neighbors`](Communicator::topo_neighbors): a cartesian
    // communicator has `2 * ndims` slots (`[src₀, dst₀, src₁, dst₁, …]`
    // in `cart_shift(d, 1)` order, `PROC_NULL` off non-periodic edges),
    // a graph communicator its adjacency list in edge order.

    /// This rank's neighbor list in slot order (`PROC_NULL` entries
    /// included) — the shape of every `neighbor_*` exchange.
    fn topo_neighbors(&self) -> MpiResult<Vec<i32>> {
        let comm = self.as_comm();
        comm.env.jni.enter("Comm.Topo_neighbors");
        Ok(comm.env.engine.lock().topo_neighbors(comm.handle)?)
    }

    /// Sparse all-gather (`MPI_Neighbor_allgather`): send `send` to
    /// every neighbor, receive one part per neighbor slot. Every rank
    /// must pass the same `send` length; `PROC_NULL` slots yield empty
    /// parts.
    fn neighbor_all_gather<T: BufferElement>(&self, send: &[T]) -> MpiResult<Vec<Vec<T>>> {
        neighbor_exchange(self.as_comm(), "Intracomm.Neighbor_allgather", send, false)
    }

    /// Sparse total exchange (`MPI_Neighbor_alltoall`): send the `j`-th
    /// of `degree` equal chunks of `send` to neighbor `j`, receive one
    /// part per neighbor slot (`PROC_NULL` slots yield empty parts).
    fn neighbor_all_to_all<T: BufferElement>(&self, send: &[T]) -> MpiResult<Vec<Vec<T>>> {
        neighbor_exchange(self.as_comm(), "Intracomm.Neighbor_alltoall", send, true)
    }

    /// Nonblocking sparse all-gather (`MPI_Ineighbor_allgather`):
    /// `recv` holds `degree * send.len()` elements, one block per
    /// neighbor slot in slot order, on completion. Blocks of
    /// `PROC_NULL` slots are left untouched.
    fn ineighbor_all_gather<'buf, T: BufferElement>(
        &self,
        send: &[T],
        recv: &'buf mut [T],
    ) -> MpiResult<TypedRequest<'buf>> {
        ineighbor_exchange(
            self.as_comm(),
            "Intracomm.Ineighbor_allgather",
            send,
            false,
            recv,
        )
    }

    /// Nonblocking sparse total exchange (`MPI_Ineighbor_alltoall`):
    /// `recv` (same length as `send`) holds one block per neighbor slot
    /// on completion; blocks of `PROC_NULL` slots are left untouched.
    fn ineighbor_all_to_all<'buf, T: BufferElement>(
        &self,
        send: &[T],
        recv: &'buf mut [T],
    ) -> MpiResult<TypedRequest<'buf>> {
        ineighbor_exchange(
            self.as_comm(),
            "Intracomm.Ineighbor_alltoall",
            send,
            true,
            recv,
        )
    }

    // ------------------------------------------------------------------
    // One-sided communication (RMA windows; see crate::window)
    // ------------------------------------------------------------------

    /// Expose `local` for one-sided access by the other ranks
    /// (`MPI_Win_create`, collective). The returned [`Window`] borrows
    /// the slice for its whole lifetime; see the [`crate::window`] docs
    /// for the epoch model and memory rules.
    fn win_create<'buf, T: BufferElement>(
        &self,
        local: &'buf mut [T],
    ) -> MpiResult<Window<'buf, T>> {
        let comm = self.as_comm();
        Window::create(Arc::clone(&comm.env), comm.handle, local)
    }

    // ------------------------------------------------------------------
    // Object transport (paper §2.2, without the MPI.OBJECT plumbing)
    // ------------------------------------------------------------------

    /// Serialize `obj` and send it to `dest` (classic
    /// `Send(..., MPI.OBJECT, ...)` with a one-element array).
    fn send_obj<T: Serializable>(&self, obj: &T, dest: i32, tag: i32) -> MpiResult<()> {
        self.as_comm()
            .send_object(std::slice::from_ref(obj), 0, 1, dest, tag)
    }

    /// Receive one serialized object from `source` (classic
    /// `Recv(..., MPI.OBJECT, ...)`), returning it by value with the
    /// [`Status`].
    fn recv_obj<T: Serializable>(&self, source: i32, tag: i32) -> MpiResult<(T, Status)> {
        let (mut objects, status) = self.as_comm().recv_object::<T>(1, source, tag)?;
        match objects.pop() {
            Some(obj) => Ok((obj, status)),
            None => Err(MPIException::new(
                ErrorClass::Truncate,
                "recv_obj: peer sent an empty object message",
            )),
        }
    }

    /// Broadcast one serialized object from the root to every rank
    /// (object counterpart of [`broadcast`](Communicator::broadcast)).
    fn broadcast_obj<T: Serializable + Clone>(&self, obj: &T, root: usize) -> MpiResult<T> {
        let mut objects = self
            .as_intracomm()
            .bcast_object(std::slice::from_ref(obj), root)?;
        objects.pop().ok_or_else(|| {
            MPIException::new(
                ErrorClass::Truncate,
                "broadcast_obj: root sent an empty object message",
            )
        })
    }
}

/// A caller-side count mismatch, reported like the engine's own.
fn count_error(message: String) -> MpiError {
    MpiError::new(ErrorClass::Count, message)
}

/// A reduction of `count` elements of `T` under `op`.
fn reduction<T: BufferElement>(count: usize, op: &Op) -> Reduction<'_> {
    Reduction::borrowed(T::KIND, count, op.engine_op())
}

/// The capture of the `ineighbor_*` collectives: the outcome parts arrive
/// flattened with `PROC_NULL` slots contributing nothing, so the neighbor
/// list maps the present `chunk`-element blocks back to their slots
/// (absent slots leave `recv` untouched).
struct NeighborParts<'buf, T> {
    neighbors: Vec<i32>,
    chunk: usize,
    recv: &'buf mut [T],
}

impl<T: BufferElement> Capture for NeighborParts<'_, T> {
    fn unpack(&mut self, bytes: &[u8]) -> MpiResult<()> {
        let chunk_bytes = self.chunk * T::width();
        let mut cursor = 0;
        for (slot, &peer) in self.neighbors.iter().enumerate() {
            if peer == PROC_NULL {
                continue;
            }
            let end = (cursor + chunk_bytes).min(bytes.len());
            let block = &mut self.recv[slot * self.chunk..(slot + 1) * self.chunk];
            store_bytes(&bytes[cursor..end], block);
            cursor = end;
        }
        Ok(())
    }
}

/// One chunk of `send` per neighbor slot, and its length in elements:
/// all of `send` for an all-gather, or with `split` (a total exchange)
/// its `degree` equal parts, a `Count` error unless `degree` divides it.
fn neighbor_chunks<T: BufferElement>(
    send: &[T],
    degree: usize,
    split: bool,
    what: &str,
) -> mpi_native::Result<(usize, Vec<Vec<u8>>)> {
    if !split {
        return Ok((send.len(), vec![bytes_of(send).into_owned(); degree]));
    }
    let chunk = send.len().checked_div(degree).unwrap_or(0);
    if chunk * degree != send.len() {
        return Err(count_error(format!(
            "{what}: send length {} is not a multiple of the topology degree {degree}",
            send.len()
        )));
    }
    let part = |r: usize| bytes_of(&send[r * chunk..(r + 1) * chunk]).into_owned();
    Ok((chunk, (0..degree).map(part).collect()))
}

/// A blocking neighborhood exchange of `send` (see `neighbor_chunks`):
/// the engine's one neighborhood launcher, waited on; one typed part
/// per neighbor slot.
fn neighbor_exchange<T: BufferElement>(
    comm: &Comm,
    name: &'static str,
    send: &[T],
    split: bool,
) -> MpiResult<Vec<Vec<T>>> {
    comm.env.jni.enter(name);
    let mut engine = comm.env.engine.lock();
    let degree = engine.topo_neighbors(comm.handle)?.len();
    let (_, chunks) = neighbor_chunks(send, degree, split, name)?;
    let req = engine.ineighbor_alltoallv(comm.handle, &chunks)?;
    let CollOutcome::Parts(parts) = engine.wait_outcome(req)? else {
        let intern = format!("{name}: the outcome is not parts");
        return Err(MPIException::new(ErrorClass::Intern, intern));
    };
    let typed = |bytes: Vec<u8>| {
        let mut out = vec![T::default(); bytes.len() / T::width()];
        store_bytes(&bytes, &mut out);
        out
    };
    Ok(parts.into_iter().map(typed).collect())
}

/// The nonblocking twin of [`neighbor_exchange`]: `recv` must hold one
/// chunk per neighbor slot, which the returned request stores there.
fn ineighbor_exchange<'buf, T: BufferElement>(
    comm: &Comm,
    name: &'static str,
    send: &[T],
    split: bool,
    recv: &'buf mut [T],
) -> MpiResult<TypedRequest<'buf>> {
    comm.env.jni.enter(name);
    let mut engine = comm.env.engine.lock();
    let neighbors = engine.topo_neighbors(comm.handle)?;
    let degree = neighbors.len();
    let (chunk, chunks) = neighbor_chunks(send, degree, split, name)?;
    if recv.len() != degree * chunk {
        return Err(count_error(format!(
            "{name}: recv length {} is not degree ({degree}) * chunk length ({chunk})",
            recv.len()
        ))
        .into());
    }
    let id = engine.ineighbor_alltoallv(comm.handle, &chunks)?;
    drop(engine);
    let parts = NeighborParts {
        neighbors,
        chunk,
        recv,
    };
    Ok(Pending::new(&comm.env, id, parts).into())
}

/// Cartesian-topology extensions of the idiomatic surface, implemented
/// by [`Cartcomm`](crate::Cartcomm).
///
/// The method names avoid the classic inherent names (`shift`,
/// `coords`), so importing this trait does not shadow the Java-style
/// surface (see the [module docs](crate::rs) on shadowing).
///
/// ```
/// use mpijava::rs::{CartCommunicator as _, Communicator as _};
/// use mpijava::MpiRuntime;
///
/// MpiRuntime::new(4).run(|mpi| {
///     // Periodic ring of 4.
///     let ring = mpi.comm_world().create_cart(&[4], &[true], false)?.unwrap();
///     let rank = ring.rank()?;
///     let (src, dst) = ring.cart_shift(0, 1)?;
///     assert_eq!(src as usize, (rank + 3) % 4);
///     assert_eq!(dst as usize, (rank + 1) % 4);
///     assert_eq!(ring.cart_coords(rank)?, ring.my_coords()?);
///     mpi.finalize()
/// }).unwrap();
/// ```
pub trait CartCommunicator: Communicator {
    /// Source and destination ranks of a shift along `dimension` by
    /// `disp` (classic `Shift`, tuple-returning): messages arrive from
    /// the first rank and go to the second; both are
    /// [`PROC_NULL`](crate::MPI::PROC_NULL) off a non-periodic edge.
    fn cart_shift(&self, dimension: usize, disp: i64) -> MpiResult<(i32, i32)>;

    /// Grid coordinates of `rank` (classic `Coords`).
    fn cart_coords(&self, rank: usize) -> MpiResult<Vec<usize>>;

    /// This process's own grid coordinates.
    fn my_coords(&self) -> MpiResult<Vec<usize>>;
}

impl CartCommunicator for crate::Cartcomm {
    fn cart_shift(&self, dimension: usize, disp: i64) -> MpiResult<(i32, i32)> {
        let parms = self.shift(dimension, disp)?;
        Ok((parms.rank_source, parms.rank_dest))
    }

    fn cart_coords(&self, rank: usize) -> MpiResult<Vec<usize>> {
        self.coords(rank)
    }

    fn my_coords(&self) -> MpiResult<Vec<usize>> {
        Ok(self.get()?.coords)
    }
}

/// Graph-topology extensions of the idiomatic surface, implemented by
/// [`Graphcomm`](crate::Graphcomm). Named to avoid the classic
/// inherent `neighbours(rank)`.
///
/// ```
/// use mpijava::rs::{Communicator as _, GraphCommunicator as _};
/// use mpijava::MpiRuntime;
///
/// MpiRuntime::new(4).run(|mpi| {
///     // Ring of 4 in the MPI-1 index/edges encoding.
///     let index = [2, 4, 6, 8];
///     let edges = [1, 3, 0, 2, 1, 3, 2, 0];
///     let graph = mpi.comm_world().create_graph(&index, &edges, false)?.unwrap();
///     let rank = graph.rank()?;
///     let mut got = graph.neighbors()?;
///     got.sort();
///     let mut expected = vec![(rank + 1) % 4, (rank + 3) % 4];
///     expected.sort();
///     assert_eq!(got, expected);
///     mpi.finalize()
/// }).unwrap();
/// ```
pub trait GraphCommunicator: Communicator {
    /// This process's adjacency list, in edge order (the slot order of
    /// the neighborhood collectives).
    fn neighbors(&self) -> MpiResult<Vec<usize>>;
}

impl GraphCommunicator for crate::Graphcomm {
    fn neighbors(&self) -> MpiResult<Vec<usize>> {
        let rank = self.as_comm().rank()?;
        self.neighbours(rank)
    }
}
