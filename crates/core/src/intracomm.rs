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

use std::ops::Deref;
use std::sync::Arc;

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
use crate::RankEnv;

/// An intra-communicator (all the paper's examples and experiments use
/// these; `MPI.COMM_WORLD` is one).
#[derive(Clone, Debug)]
pub struct Intracomm {
    base: Comm,
}

/// Element offset `displ` extents of `datatype` past `offset` (the
/// `v`-collectives' rule); saturates, so that an unrepresentable offset
/// fails the marshal seam's bounds check instead of wrapping around it.
fn displaced(offset: usize, displ: usize, datatype: &Datatype) -> usize {
    offset.saturating_add(displ.saturating_mul(datatype.extent_elements()))
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
        let handle = self.base.env.engine.lock().comm_dup(self.base.handle)?;
        Ok(Intracomm::new(Arc::clone(&self.base.env), handle))
    }

    /// `Intracomm.Split(color, key)`. Returns `None` for callers passing
    /// `MPI.UNDEFINED` as the color (the paper's null-for-failure rule).
    pub fn split(&self, color: i32, key: i32) -> MpiResult<Option<Intracomm>> {
        self.env.jni.enter("Intracomm.Split");
        let handle = self
            .base
            .env
            .engine
            .lock()
            .comm_split(self.base.handle, color, key)?;
        Ok(handle.map(|h| Intracomm::new(Arc::clone(&self.base.env), h)))
    }

    /// `Intracomm.Create(group)`.
    pub fn create(&self, group: &Group) -> MpiResult<Option<Intracomm>> {
        self.env.jni.enter("Intracomm.Create");
        let handle = self
            .base
            .env
            .engine
            .lock()
            .comm_create(self.base.handle, group.engine())?;
        Ok(handle.map(|h| Intracomm::new(Arc::clone(&self.base.env), h)))
    }

    /// `Intracomm.Create_cart(dims, periods, reorder)`.
    pub fn create_cart(
        &self,
        dims: &[usize],
        periods: &[bool],
        reorder: bool,
    ) -> MpiResult<Option<Cartcomm>> {
        self.env.jni.enter("Intracomm.Create_cart");
        let handle =
            self.base
                .env
                .engine
                .lock()
                .cart_create(self.base.handle, dims, periods, reorder)?;
        Ok(handle.map(|h| Cartcomm::new(Intracomm::new(Arc::clone(&self.base.env), h))))
    }

    /// `Intracomm.Create_graph(index, edges, reorder)`.
    pub fn create_graph(
        &self,
        index: &[usize],
        edges: &[usize],
        reorder: bool,
    ) -> MpiResult<Option<Graphcomm>> {
        self.env.jni.enter("Intracomm.Create_graph");
        let handle =
            self.base
                .env
                .engine
                .lock()
                .graph_create(self.base.handle, index, edges, reorder)?;
        Ok(handle.map(|h| Graphcomm::new(Intracomm::new(Arc::clone(&self.base.env), h))))
    }

    // ------------------------------------------------------------------
    // Collective operations
    // ------------------------------------------------------------------

    /// `Intracomm.Barrier()`.
    pub fn barrier(&self) -> MpiResult<()> {
        self.env.jni.enter("Intracomm.Barrier");
        Ok(self.base.env.engine.lock().barrier(self.base.handle)?)
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
        self.env.jni.enter("Intracomm.Bcast");
        let rank = self.base.env.engine.lock().comm_rank(self.base.handle)?;
        let mut payload = if rank == root {
            self.base
                .pack_buffer(buf, offset, count, datatype)?
                .into_owned()
        } else {
            Vec::new()
        };
        self.base
            .env
            .engine
            .lock()
            .bcast(self.base.handle, root, &mut payload)?;
        if rank != root {
            self.base.store(payload, buf, offset, count, datatype)?;
        } else {
            self.base.env.hand_back(payload);
        }
        Ok(())
    }

    /// `Intracomm.Gather`: fixed `recvcount` per rank; the root's receive
    /// buffer holds `size * recvcount` instances.
    #[allow(clippy::too_many_arguments)]
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
        self.env.jni.enter("Intracomm.Gather");
        let size = self.base.env.engine.lock().comm_size(self.base.handle)?;
        let displs: Vec<usize> = (0..size).map(|r| r * recv_count).collect();
        let counts = vec![recv_count; size];
        self.gather_impl(
            send_buf,
            send_offset,
            send_count,
            send_type,
            recv_buf,
            recv_offset,
            &counts,
            &displs,
            recv_type,
            root,
        )
    }

    /// `Intracomm.Gatherv`: per-rank `recvcounts` and displacements
    /// (displacements in units of `recv_type` extent, as in standard MPI).
    #[allow(clippy::too_many_arguments)]
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
        self.env.jni.enter("Intracomm.Gatherv");
        self.gather_impl(
            send_buf,
            send_offset,
            send_count,
            send_type,
            recv_buf,
            recv_offset,
            recv_counts,
            displs,
            recv_type,
            root,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn gather_impl<S: BufferElement, R: BufferElement>(
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
        let payload = self
            .base
            .pack_buffer(send_buf, send_offset, send_count, send_type)?;
        let gathered = self
            .base
            .env
            .engine
            .lock()
            .gather(self.base.handle, root, &payload)?;
        if let Some(parts) = gathered {
            if recv_counts.len() != parts.len() || displs.len() != parts.len() {
                return Err(MPIException::new(
                    ErrorClass::Count,
                    "gather: recvcounts/displs must have one entry per rank",
                ));
            }
            for (rank, part) in parts.into_iter().enumerate() {
                let elem_off = displaced(recv_offset, displs[rank], recv_type);
                self.base
                    .store(part, recv_buf, elem_off, recv_counts[rank], recv_type)?;
            }
        }
        Ok(())
    }

    /// `Intracomm.Scatter`.
    #[allow(clippy::too_many_arguments)]
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
        let size = self.base.env.engine.lock().comm_size(self.base.handle)?;
        let counts = vec![send_count; size];
        let displs: Vec<usize> = (0..size).map(|r| r * send_count).collect();
        self.scatterv(
            send_buf,
            send_offset,
            &counts,
            &displs,
            send_type,
            recv_buf,
            recv_offset,
            recv_count,
            recv_type,
            root,
        )
    }

    /// `Intracomm.Scatterv`.
    #[allow(clippy::too_many_arguments)]
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
        self.env.jni.enter("Intracomm.Scatterv");
        let (rank, size) = {
            let engine = self.base.env.engine.lock();
            (
                engine.comm_rank(self.base.handle)?,
                engine.comm_size(self.base.handle)?,
            )
        };
        let chunks: Option<Vec<Vec<u8>>> = if rank == root {
            if send_counts.len() != size || displs.len() != size {
                return Err(MPIException::new(
                    ErrorClass::Count,
                    "scatterv: sendcounts/displs must have one entry per rank",
                ));
            }
            let mut out = Vec::with_capacity(size);
            for r in 0..size {
                let elem_off = displaced(send_offset, displs[r], send_type);
                out.push(
                    self.base
                        .pack_buffer(send_buf, elem_off, send_counts[r], send_type)?
                        .into_owned(),
                );
            }
            Some(out)
        } else {
            None
        };
        let mine =
            self.base
                .env
                .engine
                .lock()
                .scatter(self.base.handle, root, chunks.as_deref())?;
        self.base
            .store(mine, recv_buf, recv_offset, recv_count, recv_type)?;
        Ok(())
    }

    /// `Intracomm.Allgather`.
    #[allow(clippy::too_many_arguments)]
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
        self.env.jni.enter("Intracomm.Allgather");
        let size = self.base.env.engine.lock().comm_size(self.base.handle)?;
        let counts = vec![recv_count; size];
        let displs: Vec<usize> = (0..size).map(|r| r * recv_count).collect();
        self.allgatherv_impl(
            send_buf,
            send_offset,
            send_count,
            send_type,
            recv_buf,
            recv_offset,
            &counts,
            &displs,
            recv_type,
        )
    }

    /// `Intracomm.Allgatherv`.
    #[allow(clippy::too_many_arguments)]
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
        self.env.jni.enter("Intracomm.Allgatherv");
        self.allgatherv_impl(
            send_buf,
            send_offset,
            send_count,
            send_type,
            recv_buf,
            recv_offset,
            recv_counts,
            displs,
            recv_type,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn allgatherv_impl<S: BufferElement, R: BufferElement>(
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
        let payload = self
            .base
            .pack_buffer(send_buf, send_offset, send_count, send_type)?;
        let parts = self
            .base
            .env
            .engine
            .lock()
            .allgather(self.base.handle, &payload)?;
        if recv_counts.len() != parts.len() || displs.len() != parts.len() {
            return Err(MPIException::new(
                ErrorClass::Count,
                "allgather: recvcounts/displs must have one entry per rank",
            ));
        }
        for (rank, part) in parts.into_iter().enumerate() {
            let elem_off = displaced(recv_offset, displs[rank], recv_type);
            self.base
                .store(part, recv_buf, elem_off, recv_counts[rank], recv_type)?;
        }
        Ok(())
    }

    /// `Intracomm.Alltoall`.
    #[allow(clippy::too_many_arguments)]
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
        let size = self.base.env.engine.lock().comm_size(self.base.handle)?;
        let scounts = vec![send_count; size];
        let sdispls: Vec<usize> = (0..size).map(|r| r * send_count).collect();
        let rcounts = vec![recv_count; size];
        let rdispls: Vec<usize> = (0..size).map(|r| r * recv_count).collect();
        self.alltoallv(
            send_buf,
            send_offset,
            &scounts,
            &sdispls,
            send_type,
            recv_buf,
            recv_offset,
            &rcounts,
            &rdispls,
            recv_type,
        )
    }

    /// `Intracomm.Alltoallv`.
    #[allow(clippy::too_many_arguments)]
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
        self.env.jni.enter("Intracomm.Alltoallv");
        let size = self.base.env.engine.lock().comm_size(self.base.handle)?;
        if send_counts.len() != size
            || sdispls.len() != size
            || recv_counts.len() != size
            || rdispls.len() != size
        {
            return Err(MPIException::new(
                ErrorClass::Count,
                "alltoallv: counts/displacements must have one entry per rank",
            ));
        }
        let mut chunks = Vec::with_capacity(size);
        for r in 0..size {
            let elem_off = displaced(send_offset, sdispls[r], send_type);
            chunks.push(
                self.base
                    .pack_buffer(send_buf, elem_off, send_counts[r], send_type)?
                    .into_owned(),
            );
        }
        let received = self
            .base
            .env
            .engine
            .lock()
            .alltoall(self.base.handle, &chunks)?;
        for (rank, part) in received.into_iter().enumerate() {
            let elem_off = displaced(recv_offset, rdispls[rank], recv_type);
            self.base
                .store(part, recv_buf, elem_off, recv_counts[rank], recv_type)?;
        }
        Ok(())
    }

    /// `Intracomm.Reduce(sendbuf, soffset, recvbuf, roffset, count,
    /// datatype, op, root)`.
    #[allow(clippy::too_many_arguments)]
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
        self.env.jni.enter("Intracomm.Reduce");
        let payload = self
            .base
            .pack_buffer(send_buf, send_offset, count, datatype)?;
        let element_count = count * datatype.elements_per_instance();
        let result = self.base.env.engine.lock().reduce(
            self.base.handle,
            root,
            payload,
            datatype.base_kind(),
            element_count,
            op.engine_op(),
        )?;
        if let Some(data) = result {
            self.base
                .store(data, recv_buf, recv_offset, count, datatype)?;
        }
        Ok(())
    }

    /// `Intracomm.Allreduce`.
    #[allow(clippy::too_many_arguments)]
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
        self.env.jni.enter("Intracomm.Allreduce");
        let payload = self
            .base
            .pack_buffer(send_buf, send_offset, count, datatype)?;
        let element_count = count * datatype.elements_per_instance();
        let data = self.base.env.engine.lock().allreduce(
            self.base.handle,
            payload,
            datatype.base_kind(),
            element_count,
            op.engine_op(),
        )?;
        self.base
            .store(data, recv_buf, recv_offset, count, datatype)?;
        Ok(())
    }

    /// `Intracomm.Reduce_scatter`.
    #[allow(clippy::too_many_arguments)]
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
        self.env.jni.enter("Intracomm.Reduce_scatter");
        let total = recv_counts
            .iter()
            .fold(0usize, |sum, &c| sum.saturating_add(c));
        let payload = self
            .base
            .pack_buffer(send_buf, send_offset, total, datatype)?;
        let rank = self.base.env.engine.lock().comm_rank(self.base.handle)?;
        let element_counts: Vec<usize> = recv_counts
            .iter()
            .map(|c| c * datatype.elements_per_instance())
            .collect();
        let data = self.base.env.engine.lock().reduce_scatter(
            self.base.handle,
            payload,
            &element_counts,
            datatype.base_kind(),
            op.engine_op(),
        )?;
        self.base
            .store(data, recv_buf, recv_offset, recv_counts[rank], datatype)?;
        Ok(())
    }

    /// `Intracomm.Scan`.
    #[allow(clippy::too_many_arguments)]
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
        self.env.jni.enter("Intracomm.Scan");
        let payload = self
            .base
            .pack_buffer(send_buf, send_offset, count, datatype)?;
        let element_count = count * datatype.elements_per_instance();
        let data = self.base.env.engine.lock().scan(
            self.base.handle,
            payload,
            datatype.base_kind(),
            element_count,
            op.engine_op(),
        )?;
        self.base
            .store(data, recv_buf, recv_offset, count, datatype)?;
        Ok(())
    }

    /// Broadcast serialized objects (`MPI.OBJECT` collective, an extension
    /// in the spirit of paper §2.2). The root's `objects` are returned on
    /// every rank.
    pub fn bcast_object<T: crate::serial::Serializable + Clone>(
        &self,
        objects: &[T],
        root: usize,
    ) -> MpiResult<Vec<T>> {
        self.env.jni.enter("Intracomm.Bcast[OBJECT]");
        let rank = self.base.env.engine.lock().comm_rank(self.base.handle)?;
        let mut payload = if rank == root {
            self.base.serialize_objects(objects, 0, objects.len())?
        } else {
            Vec::new()
        };
        self.base
            .env
            .engine
            .lock()
            .bcast(self.base.handle, root, &mut payload)?;
        if rank == root {
            Ok(objects.to_vec())
        } else {
            self.base.deserialize_objects(&payload, usize::MAX)
        }
    }
}
