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
//! Every method delegates to the corresponding classic method, so each
//! call crosses the simulated JNI boundary exactly as the paper's
//! measurements require — the idiomatic surface is sugar, not a bypass.
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

use std::borrow::{Borrow, Cow};
use std::sync::Arc;

use mpi_native::{Engine, ErrorClass, MpiError, RequestId, SendMode, PROC_NULL};

use crate::buffer::{bytes_of, store_bytes, BufferElement};
use crate::comm::Comm;
use crate::exception::{MPIException, MpiResult};
use crate::intracomm::Intracomm;
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
    /// delegates straight to the engine's `send_bytes`, which moves the
    /// refcounted buffer onto the wire without copying a single payload
    /// byte (the engine's `bytes_copied` statistic does not move on this
    /// path — pinned by the copy-accounting suite).
    fn send_bytes(&self, data: bytes::Bytes, dest: i32, tag: i32) -> MpiResult<()> {
        let comm = self.as_comm();
        comm.env.jni.enter("Comm.Send[bytes]");
        let mut engine = comm.env.engine.lock();
        engine.send_bytes(comm.handle, dest, tag, data, SendMode::Standard)?;
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
        let id = engine.isend_bytes(comm.handle, dest, tag, data, SendMode::Standard)?;
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

    /// Synchronize every rank (classic `Barrier`).
    fn barrier(&self) -> MpiResult<()> {
        self.as_intracomm().barrier()
    }

    /// Broadcast the root's slice contents to every rank (classic
    /// `Bcast`). Every rank passes a buffer of the same length.
    fn broadcast<T: BufferElement>(&self, buf: &mut [T], root: usize) -> MpiResult<()> {
        let count = buf.len();
        self.as_intracomm()
            .bcast(buf, 0, count, &T::datatype(), root)
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
        self.as_intracomm().reduce(
            send,
            0,
            recv,
            0,
            send.len(),
            &T::datatype(),
            op.borrow(),
            root,
        )
    }

    /// Element-wise reduction delivered to every rank (classic
    /// `Allreduce`): `world.all_reduce(&buf, &mut out, Op::sum())`.
    fn all_reduce<T: BufferElement>(
        &self,
        send: &[T],
        recv: &mut [T],
        op: impl Borrow<Op>,
    ) -> MpiResult<()> {
        self.as_intracomm()
            .allreduce(send, 0, recv, 0, send.len(), &T::datatype(), op.borrow())
    }

    /// Inclusive prefix reduction (classic `Scan`).
    fn scan_into<T: BufferElement>(
        &self,
        send: &[T],
        recv: &mut [T],
        op: impl Borrow<Op>,
    ) -> MpiResult<()> {
        self.as_intracomm()
            .scan(send, 0, recv, 0, send.len(), &T::datatype(), op.borrow())
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
        self.as_intracomm().gather(
            send,
            0,
            send.len(),
            &T::datatype(),
            recv,
            0,
            send.len(),
            &T::datatype(),
            root,
        )
    }

    /// Gather every rank's `send` slice to every rank (classic
    /// `Allgather`). `recv` holds `size * send.len()` elements.
    fn all_gather<T: BufferElement>(&self, send: &[T], recv: &mut [T]) -> MpiResult<()> {
        self.as_intracomm().allgather(
            send,
            0,
            send.len(),
            &T::datatype(),
            recv,
            0,
            send.len(),
            &T::datatype(),
        )
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
        let count = recv.len();
        self.as_intracomm().scatter(
            send,
            0,
            count,
            &T::datatype(),
            recv,
            0,
            count,
            &T::datatype(),
            root,
        )
    }

    /// Total exchange (classic `Alltoall`): every rank sends
    /// `send.len() / size` elements to each peer and receives the same
    /// amount from each, so `send` and `recv` both hold `size * chunk`
    /// elements.
    fn all_to_all<T: BufferElement>(&self, send: &[T], recv: &mut [T]) -> MpiResult<()> {
        // Read the size directly from the engine rather than through
        // `self.size()`: the latter would count an extra `Comm.Size` JNI
        // crossing that the classic `alltoall` call site does not make,
        // skewing the wrapper-overhead statistics the paper measures.
        let comm = self.as_comm();
        let size = comm.env.engine.lock().comm_size(comm.handle)?;
        if size == 0 || !send.len().is_multiple_of(size) {
            return Err(MPIException::new(
                ErrorClass::Count,
                format!(
                    "all_to_all: send length {} is not a multiple of the communicator size {size}",
                    send.len()
                ),
            ));
        }
        let chunk = send.len() / size;
        self.as_intracomm().alltoall(
            send,
            0,
            chunk,
            &T::datatype(),
            recv,
            0,
            chunk,
            &T::datatype(),
        )
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
    // byte-identical to the blocking twins, which are themselves
    // `start + wait` over the same schedules.

    /// Nonblocking barrier (`MPI_Ibarrier`): the returned request
    /// completes once every rank has entered the barrier.
    fn ibarrier(&self) -> MpiResult<TypedRequest<'static>> {
        let comm = self.as_comm();
        launch(comm, "Intracomm.Ibarrier", (), |e, _| {
            e.ibarrier(comm.handle)
        })
    }

    /// Nonblocking broadcast (`MPI_Ibcast`): the root's slice contents
    /// are captured at call time; every rank's `buf` holds them on
    /// completion. Every rank passes a buffer of the same length.
    fn ibroadcast<'buf, T: BufferElement>(
        &self,
        buf: &'buf mut [T],
        root: usize,
    ) -> MpiResult<TypedRequest<'buf>> {
        let comm = self.as_comm();
        launch(comm, "Intracomm.Ibcast", CollBufs::out(buf), |e, c| {
            let payload = if e.comm_rank(comm.handle)? == root {
                bytes_of(c.recv).into_owned()
            } else {
                Vec::new()
            };
            e.ibcast(comm.handle, root, payload)
        })
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
        let comm = self.as_comm();
        launch(comm, "Intracomm.Ireduce", CollBufs::out(recv), |e, _| {
            let op = op.borrow().engine_op();
            e.ireduce(comm.handle, root, bytes_of(send), T::KIND, send.len(), op)
        })
    }

    /// Nonblocking allreduce (`MPI_Iallreduce`): `recv` holds the full
    /// reduction on every rank when the request completes.
    fn iall_reduce<'buf, T: BufferElement>(
        &self,
        send: &[T],
        recv: &'buf mut [T],
        op: impl Borrow<Op>,
    ) -> MpiResult<TypedRequest<'buf>> {
        let comm = self.as_comm();
        launch(comm, "Intracomm.Iallreduce", CollBufs::out(recv), |e, _| {
            let op = op.borrow().engine_op();
            e.iallreduce(comm.handle, bytes_of(send), T::KIND, send.len(), op)
        })
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
        let comm = self.as_comm();
        launch(comm, "Intracomm.Igather", CollBufs::out(recv), |e, _| {
            e.igather(comm.handle, root, &bytes_of(send))
        })
    }

    /// Nonblocking allgather (`MPI_Iallgather`): `recv` holds
    /// `size * send.len()` elements in rank order on every rank.
    fn iall_gather<'buf, T: BufferElement>(
        &self,
        send: &[T],
        recv: &'buf mut [T],
    ) -> MpiResult<TypedRequest<'buf>> {
        let comm = self.as_comm();
        launch(comm, "Intracomm.Iallgather", CollBufs::out(recv), |e, _| {
            e.iallgather(comm.handle, &bytes_of(send))
        })
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
        let comm = self.as_comm();
        launch(comm, "Intracomm.Iscatter", CollBufs::out(recv), |e, c| {
            let size = e.comm_size(comm.handle)?;
            if e.comm_rank(comm.handle)? != root {
                return e.iscatter(comm.handle, root, None);
            }
            if send.len() != size * c.recv.len() {
                return Err(count_error(format!(
                    "iscatter_from: root send length {} is not size ({size}) * recv length ({})",
                    send.len(),
                    c.recv.len()
                )));
            }
            e.iscatter(comm.handle, root, Some(&wire_chunks(send, size)))
        })
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
        let comm = self.as_comm();
        launch(comm, "Intracomm.Ialltoall", CollBufs::out(recv), |e, _| {
            let size = e.comm_size(comm.handle)?;
            if size == 0 || !send.len().is_multiple_of(size) {
                return Err(count_error(format!(
                    "iall_to_all: send length {} is not a multiple of the communicator size {size}",
                    send.len()
                )));
            }
            e.ialltoall(comm.handle, &wire_chunks(send, size))
        })
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
        let comm = self.as_comm();
        launch(
            comm,
            "Intracomm.Ireduce_scatter",
            CollBufs::out(recv),
            |e, c| {
                let size = e.comm_size(comm.handle)?;
                if send.len() != size * c.recv.len() {
                    return Err(count_error(format!(
                    "ireduce_scatter_into: send length {} is not size ({size}) * recv length ({})",
                    send.len(),
                    c.recv.len()
                )));
                }
                let counts = vec![c.recv.len(); size];
                let op = op.borrow().engine_op();
                e.ireduce_scatter(comm.handle, bytes_of(send), &counts, T::KIND, op)
            },
        )
    }

    /// Nonblocking inclusive prefix reduction (`MPI_Iscan`): `recv`
    /// holds the fold of ranks `0..=self` on completion.
    fn iscan_into<'buf, T: BufferElement>(
        &self,
        send: &[T],
        recv: &'buf mut [T],
        op: impl Borrow<Op>,
    ) -> MpiResult<TypedRequest<'buf>> {
        let comm = self.as_comm();
        launch(comm, "Intracomm.Iscan", CollBufs::out(recv), |e, _| {
            let op = op.borrow().engine_op();
            e.iscan(comm.handle, bytes_of(send), T::KIND, send.len(), op)
        })
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
        let comm = self.as_comm();
        launch(comm, "Intracomm.Barrier_init", (), |e, _| {
            e.barrier_init(comm.handle)
        })
    }

    /// Persistent broadcast (`MPI_Bcast_init`): each iteration sends
    /// the root's current `buf` contents to every rank's `buf`. Every
    /// rank passes a buffer of the same length, fixed at init time.
    fn broadcast_init<'buf, T: BufferElement>(
        &self,
        buf: &'buf mut [T],
        root: usize,
    ) -> MpiResult<PersistentRequest<'buf>> {
        let comm = self.as_comm();
        launch(comm, "Intracomm.Bcast_init", CollBufs::out(buf), |e, c| {
            c.in_place = e.comm_rank(comm.handle)? == root;
            e.bcast_init(comm.handle, root, c.recv.len() * T::width())
        })
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
        let comm = self.as_comm();
        launch(
            comm,
            "Intracomm.Reduce_init",
            CollBufs::new(send, recv),
            |e, _| {
                let op = op.borrow().engine_op();
                e.reduce_init(comm.handle, root, T::KIND, send.len(), op)
            },
        )
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
        let comm = self.as_comm();
        launch(
            comm,
            "Intracomm.Allreduce_init",
            CollBufs::new(send, recv),
            |e, _| {
                let op = op.borrow().engine_op();
                e.allreduce_init(comm.handle, T::KIND, send.len(), op)
            },
        )
    }

    /// Persistent allgather (`MPI_Allgather_init`): each iteration
    /// gathers the captured `send` slices into every rank's `recv`
    /// (`size * send.len()` elements, rank order).
    fn all_gather_init<'buf, T: BufferElement>(
        &self,
        send: &'buf [T],
        recv: &'buf mut [T],
    ) -> MpiResult<PersistentRequest<'buf>> {
        let comm = self.as_comm();
        launch(
            comm,
            "Intracomm.Allgather_init",
            CollBufs::new(send, recv),
            |e, _| e.allgather_init(comm.handle),
        )
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
        let comm = self.as_comm();
        comm.env.jni.enter("Intracomm.Neighbor_allgather");
        let payload = bytes_of(send);
        let parts = comm
            .env
            .engine
            .lock()
            .neighbor_allgather(comm.handle, &payload)?;
        Ok(parts_to_elements(parts))
    }

    /// Sparse total exchange (`MPI_Neighbor_alltoall`): send the `j`-th
    /// of `degree` equal chunks of `send` to neighbor `j`, receive one
    /// part per neighbor slot (`PROC_NULL` slots yield empty parts).
    fn neighbor_all_to_all<T: BufferElement>(&self, send: &[T]) -> MpiResult<Vec<Vec<T>>> {
        let comm = self.as_comm();
        comm.env.jni.enter("Intracomm.Neighbor_alltoall");
        let mut engine = comm.env.engine.lock();
        let degree = engine.topo_neighbors(comm.handle)?.len();
        let chunks = split_neighbor_chunks(send, degree, "neighbor_all_to_all")?;
        let parts = engine.neighbor_alltoall(comm.handle, &chunks)?;
        Ok(parts_to_elements(parts))
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
        let comm = self.as_comm();
        let parts = NeighborParts::new(send.len(), recv);
        launch(comm, "Intracomm.Ineighbor_allgather", parts, |e, c| {
            c.neighbors = e.topo_neighbors(comm.handle)?;
            if c.recv.len() != c.neighbors.len() * send.len() {
                return Err(count_error(format!(
                    "ineighbor_all_gather: recv length {} is not degree ({}) * send length ({})",
                    c.recv.len(),
                    c.neighbors.len(),
                    send.len()
                )));
            }
            e.ineighbor_allgather(comm.handle, &bytes_of(send))
        })
    }

    /// Nonblocking sparse total exchange (`MPI_Ineighbor_alltoall`):
    /// `recv` (same length as `send`) holds one block per neighbor slot
    /// on completion; blocks of `PROC_NULL` slots are left untouched.
    fn ineighbor_all_to_all<'buf, T: BufferElement>(
        &self,
        send: &[T],
        recv: &'buf mut [T],
    ) -> MpiResult<TypedRequest<'buf>> {
        let comm = self.as_comm();
        let parts = NeighborParts::new(0, recv);
        launch(comm, "Intracomm.Ineighbor_alltoall", parts, |e, c| {
            c.neighbors = e.topo_neighbors(comm.handle)?;
            let degree = c.neighbors.len();
            if c.recv.len() != send.len() {
                return Err(count_error(format!(
                    "ineighbor_all_to_all: recv length {} differs from send length {}",
                    c.recv.len(),
                    send.len()
                )));
            }
            let chunks = split_neighbor_chunks(send, degree, "ineighbor_all_to_all")?;
            c.chunk = send.len().checked_div(degree).unwrap_or(0);
            e.ineighbor_alltoall(comm.handle, &chunks)
        })
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

/// The one launcher of every nonblocking and persistent collective:
/// cross the boundary once as `name`, let `start` validate and create the
/// engine request under one engine lock (it may complete the capture — a
/// root flag, a neighbor list), and return the pending operation as the
/// caller's handle (a persistent shell makes it persistent).
pub(crate) fn launch<'buf, C, R>(
    comm: &Comm,
    name: &'static str,
    mut capture: C,
    start: impl FnOnce(&mut Engine, &mut C) -> mpi_native::Result<RequestId>,
) -> MpiResult<R>
where
    C: Capture + 'buf,
    R: From<Pending<'buf>>,
{
    comm.env.jni.enter(name);
    let id = start(&mut comm.env.engine.lock(), &mut capture)?;
    Ok(Pending::new(&comm.env, id, capture).into())
}

/// A caller-side count mismatch, reported like the engine's own.
fn count_error(message: String) -> MpiError {
    MpiError::new(ErrorClass::Count, message)
}

/// The capture of a collective's local buffers: `pack` reads this rank's
/// input — `send`, or `recv` itself at a broadcast root, whose one slice
/// is both — and `unpack` stores the outcome (gather-family outcomes
/// arrive flattened in rank order) into `recv` from its start.
struct CollBufs<'buf, T> {
    send: &'buf [T],
    recv: &'buf mut [T],
    in_place: bool,
}

impl<'buf, T: BufferElement> CollBufs<'buf, T> {
    fn new(send: &'buf [T], recv: &'buf mut [T]) -> Self {
        CollBufs {
            send,
            recv,
            in_place: false,
        }
    }

    /// Output only: a nonblocking collective's input is marshalled at
    /// call time.
    fn out(recv: &'buf mut [T]) -> Self {
        CollBufs::new(&[], recv)
    }
}

impl<T: BufferElement> Capture for CollBufs<'_, T> {
    fn pack(&mut self) -> MpiResult<Cow<'_, [u8]>> {
        Ok(bytes_of(if self.in_place { self.recv } else { self.send }))
    }

    fn unpack(&mut self, bytes: &[u8]) -> MpiResult<()> {
        store_bytes(bytes, self.recv);
        Ok(())
    }
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

impl<'buf, T> NeighborParts<'buf, T> {
    fn new(chunk: usize, recv: &'buf mut [T]) -> Self {
        NeighborParts {
            neighbors: Vec::new(),
            chunk,
            recv,
        }
    }
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

/// Convert the engine's per-neighbor byte parts to typed vectors.
fn parts_to_elements<T: BufferElement>(parts: Vec<Vec<u8>>) -> Vec<Vec<T>> {
    parts
        .into_iter()
        .map(|bytes| {
            let mut out = vec![T::default(); bytes.len() / T::width()];
            store_bytes(&bytes, &mut out);
            out
        })
        .collect()
}

/// Split `send` into `degree` equal per-neighbor chunks for the
/// neighbor total exchanges.
fn split_neighbor_chunks<T: BufferElement>(
    send: &[T],
    degree: usize,
    what: &str,
) -> mpi_native::Result<Vec<Vec<u8>>> {
    if degree == 0 {
        if send.is_empty() {
            return Ok(Vec::new());
        }
        return Err(count_error(format!(
            "{what}: non-empty send on a degree-0 topology"
        )));
    }
    if !send.len().is_multiple_of(degree) {
        return Err(count_error(format!(
            "{what}: send length {} is not a multiple of the topology degree {degree}",
            send.len()
        )));
    }
    Ok(wire_chunks(send, degree))
}

/// The wire images of `send`'s `parts` equal consecutive chunks (one per
/// peer of a scatter / total exchange; `parts` divides `send.len()`).
fn wire_chunks<T: BufferElement>(send: &[T], parts: usize) -> Vec<Vec<u8>> {
    let chunk = send.len() / parts;
    (0..parts)
        .map(|r| bytes_of(&send[r * chunk..(r + 1) * chunk]).into_owned())
        .collect()
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
