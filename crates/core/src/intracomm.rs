//! The `Intracomm` class: collective operations and communicator
//! constructors (mpiJava `Intracomm`, MPI-1.1 §4 and §5).
//!
//! `Intracomm` dereferences to [`Comm`], mirroring the class hierarchy of
//! the paper's Figure 1 (`Intracomm extends Comm`).
//!
//! Every collective below routes through the engine's pluggable
//! algorithm subsystem (`mpi_native::coll`): a size-aware selector picks
//! linear / binomial-tree / recursive-doubling / ring wire patterns per
//! call, and `MpiRuntime::coll_algorithm` (or the `MPIJAVA_COLL_ALG`
//! environment variable) pins one for ablations. The Java-style argument
//! conventions and results here are byte-identical regardless of the
//! algorithm — the classic surface stays the paper's contract.
//!
//! ## One collective path
//!
//! Each collective call, classic or idiomatic, blocking, nonblocking or
//! persistent, is one value: the engine's `CollDesc`, this rank's send
//! side and its receive side. One launcher, `Intracomm::collective`,
//! runs it in one of three modes: `coll_run` and a store of the outcome,
//! `coll_launch` and a request, or `coll_init` and a persistent request.
//! A typed side is the classic `(buf, offset, datatype)` tuple with a
//! shape: one run of instances, or one per rank, so a `v` form and its
//! fixed-count twin differ only in the shape. The side types (`Array`,
//! `Shape`, `Side`) and the request capture (`Held`) live in `comm.rs`,
//! shared with point-to-point: one typed side for every call. Every
//! input marshals in through `Comm::pack_buffer`, and a blocking outcome
//! is stored through `Comm::store`, the tail the blocking point-to-point
//! receives share.

use std::borrow::Cow;
use std::ops::Deref;
use std::sync::Arc;

use mpi_native::coll::{CollDesc, CollOutcome, Payload, Reduction};
use mpi_native::comm::CommHandle;
use mpi_native::ErrorClass;

use crate::buffer::BufferElement;
use crate::cartcomm::Cartcomm;
use crate::comm::{Array, Comm, Part, Shape, Side};
use crate::datatype::Datatype;
use crate::exception::{MPIException, MpiResult};
use crate::graphcomm::Graphcomm;
use crate::group::Group;
use crate::op::Op;
use crate::request::Pending;
use crate::serial::Serializable;
use crate::RankEnv;

/// An intra-communicator (all the paper's examples and experiments use
/// these; `MPI.COMM_WORLD` is one).
#[derive(Clone, Debug)]
pub struct Intracomm {
    base: Comm,
}

/// How an [`Intracomm::collective`] call runs.
pub(crate) enum Mode<'d> {
    /// `coll_run`, then store the outcome: every classic method and the
    /// `rs` blocking methods.
    Blocking(CollDesc<'d>),
    /// `coll_launch`: the `rs` `i*` methods. The input is marshalled at
    /// the call, and the returned request stores the outcome.
    Nonblocking(CollDesc<'d>),
    /// `coll_init`: the `rs` `*_init` methods. Each start marshals the
    /// input anew from what the request holds, the receive side, so such
    /// a call passes `()` as its send side and the pair `(send, recv)` as
    /// its receive side; a broadcast passes its one buffer.
    Persistent(CollDesc<'static>),
}

/// What a launch returns: `()` for a blocking call, whose outcome is
/// stored, and a request shell for the others.
pub(crate) trait Launched<'buf>: Sized {
    fn launched(pending: Option<Pending<'buf>>) -> MpiResult<Self>;
}

impl Launched<'_> for () {
    fn launched(_: Option<Pending<'_>>) -> MpiResult<()> {
        Ok(())
    }
}

impl<'buf, H: From<Pending<'buf>>> Launched<'buf> for H {
    fn launched(pending: Option<Pending<'buf>>) -> MpiResult<H> {
        let blocking = || MPIException::new(ErrorClass::Intern, "a blocking launch has no request");
        pending.map(H::from).ok_or_else(blocking)
    }
}

/// `Bcast[OBJECT]`'s side: the object stream, the root's serialized
/// objects moved in as they are, every other rank's stored as bytes.
impl Side for &mut Vec<u8> {
    fn pack(&mut self, _comm: &Comm, _part: Part) -> MpiResult<Cow<'_, [u8]>> {
        Ok(Cow::Owned(std::mem::take(*self)))
    }

    fn store(&mut self, comm: &Comm, _part: Part, wire: &[u8]) -> MpiResult<()> {
        self.resize(wire.len(), 0);
        comm.unpack_buffer(wire, self, 0, wire.len(), &Datatype::byte())
    }
}

/// The reduction of `count` instances of `datatype` under `op` (an
/// overflowing element count saturates, which the engine rejects as
/// `Count`).
fn reduction<'a>(count: usize, datatype: &Datatype, op: &'a Op) -> Reduction<'a> {
    let elements = count.saturating_mul(datatype.elements_per_instance());
    Reduction::borrowed(datatype.base_kind(), elements, op.engine_op())
}

impl Deref for Intracomm {
    type Target = Comm;
    fn deref(&self) -> &Comm {
        &self.base
    }
}

impl crate::rs::Communicator for Intracomm {
    fn as_intracomm(&self) -> &Intracomm {
        self
    }
}

impl Intracomm {
    pub(crate) fn new(env: Arc<RankEnv>, handle: CommHandle) -> Intracomm {
        Intracomm {
            base: Comm::new(env, handle),
        }
    }

    // ------------------------------------------------------------------
    // Communicator constructors
    // ------------------------------------------------------------------

    /// `Intracomm.Dup()`.
    pub fn dup(&self) -> MpiResult<Intracomm> {
        self.env.jni.enter("Intracomm.Dup");
        let handle = self.env.engine.lock().comm_dup(self.handle)?;
        Ok(Intracomm::new(Arc::clone(&self.env), handle))
    }

    /// `Intracomm.Split(color, key)`. Returns `None` for callers passing
    /// `MPI.UNDEFINED` as the color (the paper's null-for-failure rule).
    pub fn split(&self, color: i32, key: i32) -> MpiResult<Option<Intracomm>> {
        self.env.jni.enter("Intracomm.Split");
        let handle = self.env.engine.lock().comm_split(self.handle, color, key)?;
        Ok(handle.map(|h| Intracomm::new(Arc::clone(&self.env), h)))
    }

    /// `Intracomm.Create(group)`.
    pub fn create(&self, group: &Group) -> MpiResult<Option<Intracomm>> {
        self.env.jni.enter("Intracomm.Create");
        let handle = self
            .env
            .engine
            .lock()
            .comm_create(self.handle, group.engine())?;
        Ok(handle.map(|h| Intracomm::new(Arc::clone(&self.env), h)))
    }

    /// `Intracomm.Create_cart(dims, periods, reorder)`.
    pub fn create_cart(
        &self,
        dims: &[usize],
        periods: &[bool],
        reorder: bool,
    ) -> MpiResult<Option<Cartcomm>> {
        self.env.jni.enter("Intracomm.Create_cart");
        let engine = &self.env.engine;
        let handle = engine
            .lock()
            .cart_create(self.handle, dims, periods, reorder)?;
        Ok(handle.map(|h| Cartcomm::new(Intracomm::new(Arc::clone(&self.env), h))))
    }

    /// `Intracomm.Create_graph(index, edges, reorder)`.
    pub fn create_graph(
        &self,
        index: &[usize],
        edges: &[usize],
        reorder: bool,
    ) -> MpiResult<Option<Graphcomm>> {
        self.env.jni.enter("Intracomm.Create_graph");
        let engine = &self.env.engine;
        let handle = engine
            .lock()
            .graph_create(self.handle, index, edges, reorder)?;
        Ok(handle.map(|h| Graphcomm::new(Intracomm::new(Arc::clone(&self.env), h))))
    }
}

/// Collective operations. The classic signatures carry the Java argument
/// lists, one `(buf, offset, count, datatype)` tuple per side.
#[allow(clippy::too_many_arguments)]
impl Intracomm {
    /// The one collective launcher: cross the boundary once as `name`,
    /// marshal this rank's input, and run `mode`'s descriptor. A blocking
    /// call stores the outcome into `recv`; the others return the
    /// request, which stores it on completion.
    ///
    /// The input is `send`'s one run, or for `Scatter` (at the root) and
    /// `Alltoall` its per-rank chunks. A broadcast root's input is its
    /// receive side, and its outcome, its own buffer, is handed back to
    /// the staging pool unstored.
    pub(crate) fn collective<'buf, S: Side, R: Side + Send + 'buf, H: Launched<'buf>>(
        &self,
        name: &'static str,
        mode: Mode<'_>,
        mut send: S,
        mut recv: R,
    ) -> MpiResult<H> {
        self.env.jni.enter(name);
        let engine = &self.env.engine;
        let (rank, size) = {
            let e = engine.lock();
            (e.comm_rank(self.handle)?, e.comm_size(self.handle)?)
        };
        let whole = Part::whole(size);
        let desc = match &mode {
            Mode::Blocking(desc) | Mode::Nonblocking(desc) => desc,
            Mode::Persistent(desc) => desc,
        };
        let bcast_root = match desc {
            CollDesc::Bcast { root } => Some(*root == rank),
            _ => None,
        };
        let chunks: Vec<Vec<u8>>;
        let payload = match desc {
            _ if matches!(mode, Mode::Persistent(_)) => Payload::Deferred,
            CollDesc::Scatter { root } if *root != rank => Payload::Chunks(None),
            CollDesc::Scatter { .. } | CollDesc::Alltoall => {
                let mut chunk = |r| Ok(send.pack(self, whole.rank(r))?.into_owned());
                chunks = (0..size).map(&mut chunk).collect::<MpiResult<_>>()?;
                Payload::Chunks(Some(&chunks))
            }
            _ if bcast_root == Some(true) => Payload::from(recv.pack(self, whole)?),
            _ => Payload::from(send.pack(self, whole)?),
        };
        let id = match mode {
            Mode::Persistent(desc) => engine.lock().coll_init(self.handle, desc, None)?,
            Mode::Nonblocking(desc) => engine.lock().coll_launch(self.handle, &desc, payload)?,
            Mode::Blocking(desc) => {
                let outcome = engine.lock().coll_run(self.handle, &desc, payload)?;
                match outcome {
                    CollOutcome::Done => {}
                    CollOutcome::Buffer(own) if bcast_root == Some(true) => self.env.hand_back(own),
                    CollOutcome::Buffer(wire) => self.store(&mut recv, whole, wire)?,
                    CollOutcome::Parts(parts) => {
                        for (r, wire) in parts.into_iter().enumerate() {
                            self.store(&mut recv, whole.rank(r), wire)?;
                        }
                    }
                }
                return H::launched(None);
            }
        };
        H::launched(Some(self.pending(id, recv, whole, bcast_root)))
    }

    /// `Intracomm.Barrier()`.
    pub fn barrier(&self) -> MpiResult<()> {
        let mode = Mode::Blocking(CollDesc::Barrier);
        self.collective("Intracomm.Barrier", mode, (), ())
    }

    /// `Intracomm.Bcast(buf, offset, count, datatype, root)`.
    pub fn bcast<T: BufferElement>(
        &self,
        buf: &mut [T],
        offset: usize,
        count: usize,
        datatype: &Datatype,
        root: usize,
    ) -> MpiResult<()> {
        let buf = Array::new(buf, offset, Shape::One(count), datatype);
        let mode = Mode::Blocking(CollDesc::Bcast { root });
        self.collective("Intracomm.Bcast", mode, (), buf)
    }

    /// `Intracomm.Gather`: fixed `recvcount` per rank; the root's receive
    /// buffer holds `size * recvcount` instances.
    pub fn gather<S: BufferElement, R: BufferElement>(
        &self,
        send_buf: &[S],
        send_offset: usize,
        send_count: usize,
        send_type: &Datatype,
        recv_buf: &mut [R],
        recv_offset: usize,
        recv_count: usize,
        recv_type: &Datatype,
        root: usize,
    ) -> MpiResult<()> {
        let send = Array::new(send_buf, send_offset, Shape::One(send_count), send_type);
        let recv = Array::new(recv_buf, recv_offset, Shape::Each(recv_count), recv_type);
        let mode = Mode::Blocking(CollDesc::Gather { root });
        self.collective("Intracomm.Gather", mode, send, recv)
    }

    /// `Intracomm.Gatherv`: per-rank `recvcounts` and displacements
    /// (displacements in units of `recv_type` extent, as in standard MPI).
    pub fn gatherv<S: BufferElement, R: BufferElement>(
        &self,
        send_buf: &[S],
        send_offset: usize,
        send_count: usize,
        send_type: &Datatype,
        recv_buf: &mut [R],
        recv_offset: usize,
        recv_counts: &[usize],
        displs: &[usize],
        recv_type: &Datatype,
        root: usize,
    ) -> MpiResult<()> {
        let send = Array::new(send_buf, send_offset, Shape::One(send_count), send_type);
        let shape = Shape::V(recv_counts, displs);
        let recv = Array::new(recv_buf, recv_offset, shape, recv_type);
        let mode = Mode::Blocking(CollDesc::Gather { root });
        self.collective("Intracomm.Gatherv", mode, send, recv)
    }

    /// `Intracomm.Scatter`.
    pub fn scatter<S: BufferElement, R: BufferElement>(
        &self,
        send_buf: &[S],
        send_offset: usize,
        send_count: usize,
        send_type: &Datatype,
        recv_buf: &mut [R],
        recv_offset: usize,
        recv_count: usize,
        recv_type: &Datatype,
        root: usize,
    ) -> MpiResult<()> {
        let send = Array::new(send_buf, send_offset, Shape::Each(send_count), send_type);
        let recv = Array::new(recv_buf, recv_offset, Shape::One(recv_count), recv_type);
        let mode = Mode::Blocking(CollDesc::Scatter { root });
        self.collective("Intracomm.Scatter", mode, send, recv)
    }

    /// `Intracomm.Scatterv`.
    pub fn scatterv<S: BufferElement, R: BufferElement>(
        &self,
        send_buf: &[S],
        send_offset: usize,
        send_counts: &[usize],
        displs: &[usize],
        send_type: &Datatype,
        recv_buf: &mut [R],
        recv_offset: usize,
        recv_count: usize,
        recv_type: &Datatype,
        root: usize,
    ) -> MpiResult<()> {
        let shape = Shape::V(send_counts, displs);
        let send = Array::new(send_buf, send_offset, shape, send_type);
        let recv = Array::new(recv_buf, recv_offset, Shape::One(recv_count), recv_type);
        let mode = Mode::Blocking(CollDesc::Scatter { root });
        self.collective("Intracomm.Scatterv", mode, send, recv)
    }

    /// `Intracomm.Allgather`.
    pub fn allgather<S: BufferElement, R: BufferElement>(
        &self,
        send_buf: &[S],
        send_offset: usize,
        send_count: usize,
        send_type: &Datatype,
        recv_buf: &mut [R],
        recv_offset: usize,
        recv_count: usize,
        recv_type: &Datatype,
    ) -> MpiResult<()> {
        let send = Array::new(send_buf, send_offset, Shape::One(send_count), send_type);
        let recv = Array::new(recv_buf, recv_offset, Shape::Each(recv_count), recv_type);
        let mode = Mode::Blocking(CollDesc::Allgather);
        self.collective("Intracomm.Allgather", mode, send, recv)
    }

    /// `Intracomm.Allgatherv`.
    pub fn allgatherv<S: BufferElement, R: BufferElement>(
        &self,
        send_buf: &[S],
        send_offset: usize,
        send_count: usize,
        send_type: &Datatype,
        recv_buf: &mut [R],
        recv_offset: usize,
        recv_counts: &[usize],
        displs: &[usize],
        recv_type: &Datatype,
    ) -> MpiResult<()> {
        let send = Array::new(send_buf, send_offset, Shape::One(send_count), send_type);
        let shape = Shape::V(recv_counts, displs);
        let recv = Array::new(recv_buf, recv_offset, shape, recv_type);
        let mode = Mode::Blocking(CollDesc::Allgather);
        self.collective("Intracomm.Allgatherv", mode, send, recv)
    }

    /// `Intracomm.Alltoall`.
    pub fn alltoall<S: BufferElement, R: BufferElement>(
        &self,
        send_buf: &[S],
        send_offset: usize,
        send_count: usize,
        send_type: &Datatype,
        recv_buf: &mut [R],
        recv_offset: usize,
        recv_count: usize,
        recv_type: &Datatype,
    ) -> MpiResult<()> {
        let send = Array::new(send_buf, send_offset, Shape::Each(send_count), send_type);
        let recv = Array::new(recv_buf, recv_offset, Shape::Each(recv_count), recv_type);
        let mode = Mode::Blocking(CollDesc::Alltoall);
        self.collective("Intracomm.Alltoall", mode, send, recv)
    }

    /// `Intracomm.Alltoallv`.
    pub fn alltoallv<S: BufferElement, R: BufferElement>(
        &self,
        send_buf: &[S],
        send_offset: usize,
        send_counts: &[usize],
        sdispls: &[usize],
        send_type: &Datatype,
        recv_buf: &mut [R],
        recv_offset: usize,
        recv_counts: &[usize],
        rdispls: &[usize],
        recv_type: &Datatype,
    ) -> MpiResult<()> {
        let shape = Shape::V(send_counts, sdispls);
        let send = Array::new(send_buf, send_offset, shape, send_type);
        let shape = Shape::V(recv_counts, rdispls);
        let recv = Array::new(recv_buf, recv_offset, shape, recv_type);
        let mode = Mode::Blocking(CollDesc::Alltoall);
        self.collective("Intracomm.Alltoallv", mode, send, recv)
    }

    /// `Intracomm.Reduce(sendbuf, soffset, recvbuf, roffset, count,
    /// datatype, op, root)`.
    pub fn reduce<T: BufferElement>(
        &self,
        send_buf: &[T],
        send_offset: usize,
        recv_buf: &mut [T],
        recv_offset: usize,
        count: usize,
        datatype: &Datatype,
        op: &Op,
        root: usize,
    ) -> MpiResult<()> {
        let send = Array::new(send_buf, send_offset, Shape::One(count), datatype);
        let recv = Array::new(recv_buf, recv_offset, Shape::One(count), datatype);
        let red = reduction(count, datatype, op);
        let mode = Mode::Blocking(CollDesc::Reduce { root, red });
        self.collective("Intracomm.Reduce", mode, send, recv)
    }

    /// `Intracomm.Allreduce`.
    pub fn allreduce<T: BufferElement>(
        &self,
        send_buf: &[T],
        send_offset: usize,
        recv_buf: &mut [T],
        recv_offset: usize,
        count: usize,
        datatype: &Datatype,
        op: &Op,
    ) -> MpiResult<()> {
        let send = Array::new(send_buf, send_offset, Shape::One(count), datatype);
        let recv = Array::new(recv_buf, recv_offset, Shape::One(count), datatype);
        let mode = Mode::Blocking(CollDesc::Allreduce(reduction(count, datatype, op)));
        self.collective("Intracomm.Allreduce", mode, send, recv)
    }

    /// `Intracomm.Reduce_scatter`.
    pub fn reduce_scatter<T: BufferElement>(
        &self,
        send_buf: &[T],
        send_offset: usize,
        recv_buf: &mut [T],
        recv_offset: usize,
        recv_counts: &[usize],
        datatype: &Datatype,
        op: &Op,
    ) -> MpiResult<()> {
        let total = recv_counts
            .iter()
            .fold(0, |t: usize, &c| t.saturating_add(c));
        let rank = self.env.engine.lock().comm_rank(self.handle)?;
        let mine = recv_counts.get(rank).copied().unwrap_or(0);
        let per_instance = datatype.elements_per_instance();
        let counts: Vec<usize> = recv_counts
            .iter()
            .map(|c| c.saturating_mul(per_instance))
            .collect();
        let desc = CollDesc::reduce_scatter(&counts, datatype.base_kind(), op.engine_op());
        let send = Array::new(send_buf, send_offset, Shape::One(total), datatype);
        let recv = Array::new(recv_buf, recv_offset, Shape::One(mine), datatype);
        self.collective("Intracomm.Reduce_scatter", Mode::Blocking(desc), send, recv)
    }

    /// `Intracomm.Scan`.
    pub fn scan<T: BufferElement>(
        &self,
        send_buf: &[T],
        send_offset: usize,
        recv_buf: &mut [T],
        recv_offset: usize,
        count: usize,
        datatype: &Datatype,
        op: &Op,
    ) -> MpiResult<()> {
        let send = Array::new(send_buf, send_offset, Shape::One(count), datatype);
        let recv = Array::new(recv_buf, recv_offset, Shape::One(count), datatype);
        let mode = Mode::Blocking(CollDesc::Scan(reduction(count, datatype, op)));
        self.collective("Intracomm.Scan", mode, send, recv)
    }

    /// Broadcast serialized objects (`MPI.OBJECT` collective, an extension
    /// in the spirit of paper §2.2). The root's `objects` are returned on
    /// every rank.
    pub fn bcast_object<T: Serializable + Clone>(
        &self,
        objects: &[T],
        root: usize,
    ) -> MpiResult<Vec<T>> {
        let rank = self.env.engine.lock().comm_rank(self.handle)?;
        let mut stream = if rank == root {
            self.serialize_objects(objects, 0, objects.len())?
        } else {
            Vec::new()
        };
        let mode = Mode::Blocking(CollDesc::Bcast { root });
        let () = self.collective("Intracomm.Bcast[OBJECT]", mode, (), &mut stream)?;
        if rank == root {
            Ok(objects.to_vec())
        } else {
            self.deserialize_objects(&stream, usize::MAX)
        }
    }
}
