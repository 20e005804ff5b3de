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
//! fixed-count twin differ only in the shape. Every input marshals in
//! through `Comm::pack_buffer` and every outcome is stored through
//! `Comm::unpack_buffer`, the seam every point-to-point call crosses.

use std::borrow::Cow;
use std::ops::Deref;
use std::sync::Arc;

use mpi_native::coll::{CollDesc, CollOutcome, Payload, Reduction};
use mpi_native::comm::CommHandle;
use mpi_native::ErrorClass;

use crate::buffer::BufferElement;
use crate::cartcomm::Cartcomm;
use crate::comm::Comm;
use crate::datatype::Datatype;
use crate::exception::{MPIException, MpiResult};
use crate::graphcomm::Graphcomm;
use crate::group::Group;
use crate::op::Op;
use crate::request::{Capture, Pending};
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

/// How an [`Array`]'s instances are laid out.
#[derive(Clone, Copy)]
pub(crate) enum Shape<'d> {
    /// `count` instances: this rank's own data.
    One(usize),
    /// `count` instances per rank, rank after rank: the fixed-count
    /// forms (`Gather`, `Scatter`, `Allgather`, `Alltoall`).
    Each(usize),
    /// `len` instances split evenly over the ranks (`rs` total
    /// exchanges); a `Count` error unless the ranks divide `len`.
    Split(usize),
    /// `counts[r]` instances `displs[r]` extents past the offset: the `v`
    /// forms.
    V(&'d [usize], &'d [usize]),
}

/// Which instances of a side one marshal covers on a communicator of
/// `size` ranks: rank `r`'s (`rank: Some(r)`), or with `None` the whole
/// side as one run (a nonblocking completion is every rank's part,
/// concatenated in rank order).
#[derive(Clone, Copy)]
pub(crate) struct Part {
    rank: Option<usize>,
    size: usize,
}

impl Part {
    /// Rank `r`'s part of the same side.
    fn rank(mut self, r: usize) -> Part {
        self.rank = Some(r);
        self
    }
}

/// A typed side of a collective: `buf` from element `offset`, as
/// instances of `datatype` laid out as `shape` (the classic argument
/// tuple).
pub(crate) struct Array<'d, B> {
    buf: B,
    offset: usize,
    shape: Shape<'d>,
    datatype: Cow<'d, Datatype>,
}

impl<'d, B> Array<'d, B> {
    pub(crate) fn new(buf: B, offset: usize, shape: Shape<'d>, datatype: &'d Datatype) -> Self {
        Array {
            buf,
            offset,
            shape,
            datatype: Cow::Borrowed(datatype),
        }
    }

    /// The element offset and instance count of `part`. Offsets
    /// saturate, so that an unrepresentable one fails the seam's bounds
    /// check instead of wrapping around it.
    fn span(&self, part: Part) -> MpiResult<(usize, usize)> {
        let Part { rank, size } = part;
        let count_error = |message| Err(MPIException::new(ErrorClass::Count, message));
        let shape = match self.shape {
            Shape::Split(len) if size > 0 && len.is_multiple_of(size) => Shape::Each(len / size),
            Shape::Split(_) => return count_error("the length must split evenly over the ranks"),
            shape => shape,
        };
        let (displ, count) = match (shape, rank) {
            (Shape::One(count), _) => (0, count),
            (Shape::Each(count), None) => (0, count.saturating_mul(size)),
            (Shape::Each(count), Some(r)) => (r.saturating_mul(count), count),
            (Shape::V(counts, displs), Some(r)) if counts.len() == size && displs.len() == size => {
                (displs[r], counts[r])
            }
            _ => return count_error("counts and displacements need one entry per rank"),
        };
        let elements = displ.saturating_mul(self.datatype.extent_elements());
        Ok((self.offset.saturating_add(elements), count))
    }
}

impl<T: BufferElement, B: Deref<Target = [T]>> Array<'static, B> {
    /// An `rs` side: the slice from its start, as `T`'s own datatype.
    pub(crate) fn of(buf: B, shape: Shape<'static>) -> Self {
        Array {
            buf,
            offset: 0,
            shape,
            datatype: Cow::Owned(T::datatype()),
        }
    }

    /// The whole slice as one run.
    pub(crate) fn whole(buf: B) -> Self {
        let len = buf.len();
        Array::of(buf, Shape::One(len))
    }
}

/// One side of a collective call as it crosses the boundary. The
/// defaults carry nothing, so `()` is the side of a call without one.
pub(crate) trait Side {
    /// Marshal in the instances `part` covers.
    fn pack(&mut self, _comm: &Comm, _part: Part) -> MpiResult<Cow<'_, [u8]>> {
        Ok(Cow::Borrowed(&[]))
    }

    /// Store `wire` into the instances `part` covers.
    fn store(&mut self, _comm: &Comm, _part: Part, _wire: &[u8]) -> MpiResult<()> {
        Ok(())
    }
}

impl Side for () {}

impl<T: BufferElement> Side for Array<'_, &[T]> {
    fn pack(&mut self, comm: &Comm, part: Part) -> MpiResult<Cow<'_, [u8]>> {
        let (offset, count) = self.span(part)?;
        comm.pack_buffer(self.buf, offset, count, &self.datatype)
    }
}

impl<T: BufferElement> Side for Array<'_, &mut [T]> {
    /// A broadcast root's buffer is its input.
    fn pack(&mut self, comm: &Comm, part: Part) -> MpiResult<Cow<'_, [u8]>> {
        let (offset, count) = self.span(part)?;
        comm.pack_buffer(self.buf, offset, count, &self.datatype)
    }

    fn store(&mut self, comm: &Comm, part: Part, wire: &[u8]) -> MpiResult<()> {
        let (offset, count) = self.span(part)?;
        comm.unpack_buffer(wire, self.buf, offset, count, &self.datatype)
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

/// A persistent call's two sides in one (see [`Mode::Persistent`]).
impl<S: Side, R: Side> Side for (S, R) {
    fn pack(&mut self, comm: &Comm, part: Part) -> MpiResult<Cow<'_, [u8]>> {
        self.0.pack(comm, part)
    }

    fn store(&mut self, comm: &Comm, part: Part, wire: &[u8]) -> MpiResult<()> {
        self.1.store(comm, part, wire)
    }
}

/// The receive side a nonblocking or persistent request holds: each
/// persistent start packs it, and each completion is stored into it as
/// one run. `bcast_root` is `Some(true)` on a broadcast root, whose
/// buffer is its input and already holds the outcome, and `Some(false)`
/// on a broadcast's other ranks, which have no input.
struct Held<R> {
    comm: Comm,
    side: R,
    whole: Part,
    bcast_root: Option<bool>,
}

impl<R: Side + Send> Capture for Held<R> {
    fn pack(&mut self) -> MpiResult<Cow<'_, [u8]>> {
        match self.bcast_root {
            Some(false) => Ok(Cow::Borrowed(&[])),
            _ => self.side.pack(&self.comm, self.whole),
        }
    }

    fn unpack(&mut self, wire: &[u8]) -> MpiResult<()> {
        match self.bcast_root {
            Some(true) => Ok(()),
            _ => self.side.store(&self.comm, self.whole, wire),
        }
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
        let whole = Part { rank: None, size };
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
                let mut store = |part, wire: Vec<u8>| {
                    let stored = recv.store(self, part, &wire);
                    self.env.hand_back(wire);
                    stored
                };
                match outcome {
                    CollOutcome::Done => {}
                    CollOutcome::Buffer(own) if bcast_root == Some(true) => self.env.hand_back(own),
                    CollOutcome::Buffer(wire) => store(whole, wire)?,
                    CollOutcome::Parts(parts) => {
                        for (r, wire) in parts.into_iter().enumerate() {
                            store(whole.rank(r), wire)?;
                        }
                    }
                }
                return H::launched(None);
            }
        };
        let comm = self.base.clone();
        let held = Held {
            comm,
            side: recv,
            whole,
            bcast_root,
        };
        H::launched(Some(Pending::new(&self.env, id, held)))
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
