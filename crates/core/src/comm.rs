//! The `Comm` class: point-to-point communication, probes, packing and
//! communicator queries (paper §2, Figure 1).
//!
//! All communication methods follow the mpiJava argument conventions the
//! paper describes in §2.1:
//!
//! * buffers are one-dimensional arrays of a primitive element type,
//!   passed together with an element `offset`,
//! * results come back through return values (`Status` objects, fresh
//!   arrays) rather than out-parameters,
//! * array lengths replace explicit count arguments where possible.
//!
//! Every call crosses the simulated JNI boundary of [`crate::jni`]; that is
//! where the wrapper overhead the paper measures lives.

use bytes::Bytes;
use mpi_native::comm::CommHandle;
use mpi_native::{pack, Engine, ErrorClass, PrimitiveKind, SendBuf, SendMode};

use crate::buffer::{bytes_of, with_bytes_mut, BufferElement};
use crate::datatype::Datatype;
use crate::exception::{MPIException, MpiResult};
use crate::group::Group;
use crate::request::{Capture, Pending, Prequest, Request};
use crate::serial::{deserialize, serialize, Serializable};
use crate::status::Status;
use crate::{RankEnv, Spent};
use std::borrow::Cow;
use std::sync::Arc;

/// Base communicator class. `Intracomm`, `Cartcomm` and `Graphcomm` all
/// dereference to `Comm`.
#[derive(Clone)]
pub struct Comm {
    pub(crate) env: Arc<RankEnv>,
    pub(crate) handle: CommHandle,
}

impl std::fmt::Debug for Comm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Comm")
            .field("handle", &self.handle)
            .finish()
    }
}

/// How many buffer elements (each `elem_width` bytes wide) a transfer of
/// `count` instances of `datatype` spans (used for bounds checking against
/// the Java-style `offset`); `None` when `count` extents overflow.
fn span_elements(datatype: &Datatype, count: usize, elem_width: usize) -> Option<usize> {
    if count == 0 {
        return Some(0);
    }
    let width = elem_width.max(1);
    // No typemap entry extends past `ub`, so `ub` — not `size`, which
    // over-counts when entries overlap — bounds the last instance. A
    // degenerate derived type (every entry at a negative displacement)
    // reports `ub <= 0`; clamp it so a negative tail cannot shrink the
    // span contributed by the earlier instances' strides. (`extent` is
    // `ub - lb` and therefore never negative in this engine.)
    let tail = datatype.ub().max(0);
    let bytes = isize::try_from(count - 1)
        .ok()?
        .checked_mul(datatype.extent())?
        .checked_add(tail)?;
    Some((bytes.max(0) as usize).div_ceil(width))
}

/// The elements of a `len`-element buffer that `count` instances of
/// `datatype` at element `offset` may touch: the marshal seam's bounds
/// check, and the one place its offset/count/extent arithmetic happens.
/// A transfer that does not fit reports `too_small` (`Buffer` for a send,
/// `Truncate` for a receive); a count whose span overflows, `Count`.
fn window_range<T: BufferElement>(
    len: usize,
    offset: usize,
    count: usize,
    datatype: &Datatype,
    too_small: ErrorClass,
) -> MpiResult<std::ops::Range<usize>> {
    let span = span_elements(datatype, count, T::width()).ok_or_else(|| {
        let extent = datatype.extent();
        MPIException::new(
            ErrorClass::Count,
            format!("count {count} of a datatype of extent {extent} overflows"),
        )
    })?;
    match offset.checked_add(span) {
        Some(end) if end <= len => Ok(offset..end),
        _ => Err(MPIException::new(
            too_small,
            format!("buffer too small: offset {offset} + span {span} > length {len}"),
        )),
    }
}

/// What a point-to-point request captures — the array region of the real
/// stub layer: `count` instances of `datatype` at element `offset` of
/// `buf`, re-read on every start of a persistent send (`&[T]`, lent under
/// `Pin`), stored into when a receive completes (`&mut [T]`).
struct Region<B> {
    comm: Comm,
    buf: B,
    offset: usize,
    count: usize,
    datatype: Datatype,
}

impl<T: BufferElement> Capture for Region<&[T]> {
    fn pack(&mut self) -> MpiResult<Cow<'_, [u8]>> {
        self.comm
            .pack_buffer(self.buf, self.offset, self.count, &self.datatype)
    }
}

impl<T: BufferElement> Capture for Region<&mut [T]> {
    fn unpack(&mut self, wire: &[u8]) -> MpiResult<()> {
        self.comm
            .unpack_buffer(wire, self.buf, self.offset, self.count, &self.datatype)
    }
}

impl Comm {
    pub(crate) fn new(env: Arc<RankEnv>, handle: CommHandle) -> Comm {
        Comm { env, handle }
    }

    /// Engine-level handle (used by the benchmark harness for the direct
    /// "native C" baseline on the same communicator).
    pub fn handle(&self) -> CommHandle {
        self.handle
    }

    /// `Comm.Rank()`.
    pub fn rank(&self) -> MpiResult<usize> {
        self.env.jni.enter("Comm.Rank");
        Ok(self.env.engine.lock().comm_rank(self.handle)?)
    }

    /// `Comm.Size()`.
    pub fn size(&self) -> MpiResult<usize> {
        self.env.jni.enter("Comm.Size");
        Ok(self.env.engine.lock().comm_size(self.handle)?)
    }

    /// `Comm.Group()`.
    pub fn group(&self) -> MpiResult<Group> {
        self.env.jni.enter("Comm.Group");
        Ok(Group::from_engine(
            self.env.engine.lock().comm_group(self.handle)?,
        ))
    }

    /// `Comm.Compare(comm1, comm2)`.
    pub fn compare(a: &Comm, b: &Comm) -> MpiResult<mpi_native::CompareResult> {
        a.env.jni.enter("Comm.Compare");
        Ok(a.env.engine.lock().comm_compare(a.handle, b.handle)?)
    }

    /// `Comm.Free()`. Only has an observable effect on explicitly created
    /// communicators; the paper (§2.1) notes `Comm` keeps an explicit
    /// `Free` because freeing can have visible side effects.
    pub fn free(&self) -> MpiResult<()> {
        self.env.jni.enter("Comm.Free");
        Ok(self.env.engine.lock().comm_free(self.handle)?)
    }

    // ------------------------------------------------------------------
    // Buffer marshalling helpers (the simulated JNI stub layer)
    // ------------------------------------------------------------------

    pub(crate) fn check_type<T: BufferElement>(&self, datatype: &Datatype) -> MpiResult<()> {
        if datatype.is_object() {
            return Err(MPIException::new(
                ErrorClass::Type,
                "MPI.OBJECT buffers must use the send_object/recv_object methods",
            ));
        }
        let compatible = datatype.base_kind() == T::KIND
            || (datatype.base_kind() == PrimitiveKind::Packed && T::KIND == PrimitiveKind::Byte)
            || (datatype.base_kind().is_pair()
                && datatype.base_kind().size().is_multiple_of(T::KIND.size())
                && pair_component_matches(datatype.base_kind(), T::KIND));
        if compatible {
            Ok(())
        } else {
            Err(MPIException::new(
                ErrorClass::Type,
                format!(
                    "buffer element type {:?} does not match datatype base {:?}",
                    T::KIND,
                    datatype.base_kind()
                ),
            ))
        }
    }

    /// The wire payload of `count` instances of `datatype` starting at
    /// element `offset` of `buf` (the `Get*ArrayRegion` + `MPI_Pack` step
    /// of the real stub layer). Dense: the window's byte image, carried
    /// across the boundary as the marshal mode says — a `Copy` lands in a
    /// buffer from the engine's staging pool, which a send then hands on
    /// as the message. Holes: gathered out of it — the gather is the one
    /// copy, in both modes.
    pub(crate) fn pack_buffer<'buf, T: BufferElement>(
        &self,
        buf: &'buf [T],
        offset: usize,
        count: usize,
        datatype: &Datatype,
    ) -> MpiResult<Cow<'buf, [u8]>> {
        let window = self.send_window(buf, offset, count, datatype)?;
        self.marshal(bytes_of(window), count, datatype)
    }

    /// Send-side entry of the seam: the window of `buf` that `count`
    /// instances of `datatype` at `offset` span.
    fn send_window<'buf, T: BufferElement>(
        &self,
        buf: &'buf [T],
        offset: usize,
        count: usize,
        datatype: &Datatype,
    ) -> MpiResult<&'buf [T]> {
        self.check_type::<T>(datatype)?;
        Ok(&buf[window_range::<T>(buf.len(), offset, count, datatype, ErrorClass::Buffer)?])
    }

    /// [`pack_buffer`](Self::pack_buffer)'s second step: carry a
    /// window's byte image across the boundary.
    fn marshal<'buf>(
        &self,
        image: Cow<'buf, [u8]>,
        count: usize,
        datatype: &Datatype,
    ) -> MpiResult<Cow<'buf, [u8]>> {
        if datatype.def().is_contiguous_dense() {
            // A length the staging pool cannot serve is a fresh
            // allocation either way: make it here, without the lock.
            let native = |len| {
                if Engine::pool_accepts(len) {
                    self.env.engine.lock().pool_take(len)
                } else {
                    Vec::with_capacity(len)
                }
            };
            return Ok(self.env.jni.marshal_in(image, native));
        }
        self.env.jni.note_pinned_in(image.len());
        Ok(Cow::Owned(pack::pack(&image, 0, count, datatype.def())?))
    }

    /// Receive-side entry of the seam: the window of `buf` that `count`
    /// instances of `datatype` at `offset` may fill, and the longest wire
    /// payload it takes (saturating: the window already bounds `count`).
    fn recv_window<'buf, T: BufferElement>(
        &self,
        buf: &'buf mut [T],
        offset: usize,
        count: usize,
        datatype: &Datatype,
    ) -> MpiResult<(&'buf mut [T], usize)> {
        self.check_type::<T>(datatype)?;
        let range = window_range::<T>(buf.len(), offset, count, datatype, ErrorClass::Truncate)?;
        Ok((&mut buf[range], datatype.size().saturating_mul(count)))
    }

    /// Scatter a received payload into `buf` (the `MPI_Unpack` +
    /// `Set*ArrayRegion` step): one store for a dense datatype, one
    /// scatter for one with holes; a short payload fills a prefix. `buf`
    /// may be a window from `recv_window`, at offset 0.
    pub(crate) fn unpack_buffer<T: BufferElement>(
        &self,
        wire: &[u8],
        buf: &mut [T],
        offset: usize,
        count: usize,
        datatype: &Datatype,
    ) -> MpiResult<()> {
        let (window, _) = self.recv_window(buf, offset, count, datatype)?;
        self.env.jni.note_out(wire.len());
        with_bytes_mut(window, |image| {
            pack::unpack(wire, image, 0, count, datatype.def())
        })?;
        Ok(())
    }

    /// [`unpack_buffer`](Self::unpack_buffer), consuming: store `wire`
    /// — a collective's result or a receive's completion — into `buf`,
    /// then hand it to the engine's staging pool. Every binding call
    /// that stores a payload it owns ends its buffer here.
    pub(crate) fn store<T: BufferElement>(
        &self,
        wire: impl Spent,
        buf: &mut [T],
        offset: usize,
        count: usize,
        datatype: &Datatype,
    ) -> MpiResult<()> {
        let stored = self.unpack_buffer(wire.as_ref(), buf, offset, count, datatype);
        self.env.hand_back(wire);
        stored
    }

    fn region<B>(&self, buf: B, offset: usize, count: usize, datatype: &Datatype) -> Region<B> {
        Region {
            comm: self.clone(),
            buf,
            offset,
            count,
            datatype: datatype.clone(),
        }
    }

    /// The one payload every point-to-point send of the binding hands
    /// the engine ([`Engine::send`], [`Engine::isend`]): `count`
    /// instances of `datatype` at element `offset` of `buf`. A dense
    /// window whose memory is its own wire image crosses as the engine
    /// stages it ([`JniBoundary::stream_in`](crate::jni::JniBoundary::stream_in)),
    /// so a blocking rendezvous stages it one granted frame at a time.
    /// Anything else is marshalled first, and an owned result — a `Copy`
    /// image, a gather, a `bool` / `char` conversion — is the message
    /// itself, moved, not copied.
    fn send_payload<'buf, T: BufferElement>(
        &self,
        buf: &'buf [T],
        offset: usize,
        count: usize,
        datatype: &Datatype,
    ) -> MpiResult<SendBuf<'buf>> {
        match bytes_of(self.send_window(buf, offset, count, datatype)?) {
            Cow::Borrowed(window) if datatype.def().is_contiguous_dense() => {
                Ok(self.env.jni.stream_in(window))
            }
            image => Ok(self.marshal(image, count, datatype)?.into()),
        }
    }

    /// The blocking sends: [`send_payload`](Self::send_payload), handed
    /// to [`Engine::send`].
    fn send_mode<T: BufferElement>(
        &self,
        name: &'static str,
        buf: &[T],
        offset: usize,
        count: usize,
        datatype: &Datatype,
        (dest, tag, mode): (i32, i32, SendMode),
    ) -> MpiResult<()> {
        self.env.jni.enter(name);
        let data = self.send_payload(buf, offset, count, datatype)?;
        let mut engine = self.env.engine.lock();
        Ok(engine.send(self.handle, dest, tag, data, mode)?)
    }

    // ------------------------------------------------------------------
    // Blocking point-to-point (paper §2: Send / Recv signatures)
    // ------------------------------------------------------------------

    /// `Comm.Send(buf, offset, count, datatype, dest, tag)`.
    pub fn send<T: BufferElement>(
        &self,
        buf: &[T],
        offset: usize,
        count: usize,
        datatype: &Datatype,
        dest: i32,
        tag: i32,
    ) -> MpiResult<()> {
        self.send_mode(
            "Comm.Send",
            buf,
            offset,
            count,
            datatype,
            (dest, tag, SendMode::Standard),
        )
    }

    /// `Comm.Bsend`.
    pub fn bsend<T: BufferElement>(
        &self,
        buf: &[T],
        offset: usize,
        count: usize,
        datatype: &Datatype,
        dest: i32,
        tag: i32,
    ) -> MpiResult<()> {
        self.send_mode(
            "Comm.Bsend",
            buf,
            offset,
            count,
            datatype,
            (dest, tag, SendMode::Buffered),
        )
    }

    /// `Comm.Ssend`.
    pub fn ssend<T: BufferElement>(
        &self,
        buf: &[T],
        offset: usize,
        count: usize,
        datatype: &Datatype,
        dest: i32,
        tag: i32,
    ) -> MpiResult<()> {
        self.send_mode(
            "Comm.Ssend",
            buf,
            offset,
            count,
            datatype,
            (dest, tag, SendMode::Synchronous),
        )
    }

    /// `Comm.Rsend`.
    pub fn rsend<T: BufferElement>(
        &self,
        buf: &[T],
        offset: usize,
        count: usize,
        datatype: &Datatype,
        dest: i32,
        tag: i32,
    ) -> MpiResult<()> {
        self.send_mode(
            "Comm.Rsend",
            buf,
            offset,
            count,
            datatype,
            (dest, tag, SendMode::Ready),
        )
    }

    /// `Comm.Recv(buf, offset, count, datatype, source, tag)`.
    pub fn recv<T: BufferElement>(
        &self,
        buf: &mut [T],
        offset: usize,
        count: usize,
        datatype: &Datatype,
        source: i32,
        tag: i32,
    ) -> MpiResult<Status> {
        self.env.jni.enter("Comm.Recv");
        let (window, max_len) = self.recv_window(buf, offset, count, datatype)?;
        if !datatype.def().is_contiguous_dense() {
            let (data, info) =
                self.env
                    .engine
                    .lock()
                    .recv(self.handle, source, tag, Some(max_len))?;
            self.store(data, window, 0, count, datatype)?;
            return Ok(Status::from_info(info));
        }
        // Dense: the window's byte image is the wire layout, so the
        // engine's one delivery copy lands in the user's memory.
        let info = with_bytes_mut(window, |image| {
            self.env
                .engine
                .lock()
                .recv_into(self.handle, source, tag, image)
        })?;
        self.env.jni.note_out(info.count_bytes);
        Ok(Status::from_info(info))
    }

    /// `Comm.Sendrecv`: combined exchange.
    #[allow(clippy::too_many_arguments)]
    pub fn sendrecv<S: BufferElement, R: BufferElement>(
        &self,
        send_buf: &[S],
        send_offset: usize,
        send_count: usize,
        send_type: &Datatype,
        dest: i32,
        send_tag: i32,
        recv_buf: &mut [R],
        recv_offset: usize,
        recv_count: usize,
        recv_type: &Datatype,
        source: i32,
        recv_tag: i32,
    ) -> MpiResult<Status> {
        self.env.jni.enter("Comm.Sendrecv");
        let data = self.send_payload(send_buf, send_offset, send_count, send_type)?;
        let (window, max_len) = self.recv_window(recv_buf, recv_offset, recv_count, recv_type)?;
        // `Engine::sendrecv`'s steps, with the send taken as `Isend`
        // takes it: receive posted first, under the same lock, so the
        // exchange cannot deadlock.
        let done = {
            let mut engine = self.env.engine.lock();
            let recv = engine.irecv(self.handle, source, recv_tag, Some(max_len))?;
            let send = engine.isend(self.handle, dest, send_tag, data, SendMode::Standard)?;
            let done = engine.wait(recv)?;
            engine.wait(send)?;
            done
        };
        let data = done.data.unwrap_or_default();
        self.store(data, window, 0, recv_count, recv_type)?;
        Ok(Status::from_info(done.status))
    }

    // ------------------------------------------------------------------
    // Non-blocking point-to-point
    // ------------------------------------------------------------------

    /// The nonblocking sends: [`send_payload`](Self::send_payload),
    /// handed to [`Engine::isend`]. A dense window's staging copy is the
    /// boundary copy: a payload of at most [`bytes::INLINE_CAP`] bytes
    /// lands inline and allocates nothing.
    fn isend_mode<T: BufferElement>(
        &self,
        name: &'static str,
        buf: &[T],
        offset: usize,
        count: usize,
        datatype: &Datatype,
        (dest, tag, mode): (i32, i32, SendMode),
    ) -> MpiResult<Request<'static>> {
        self.env.jni.enter(name);
        let data = self.send_payload(buf, offset, count, datatype)?;
        let mut engine = self.env.engine.lock();
        let id = engine.isend(self.handle, dest, tag, data, mode)?;
        drop(engine);
        Ok(Pending::new(&self.env, id, ()).into())
    }

    /// `Comm.Isend`.
    pub fn isend<T: BufferElement>(
        &self,
        buf: &[T],
        offset: usize,
        count: usize,
        datatype: &Datatype,
        dest: i32,
        tag: i32,
    ) -> MpiResult<Request<'static>> {
        self.isend_mode(
            "Comm.Isend",
            buf,
            offset,
            count,
            datatype,
            (dest, tag, SendMode::Standard),
        )
    }

    /// `Comm.Ibsend`.
    pub fn ibsend<T: BufferElement>(
        &self,
        buf: &[T],
        offset: usize,
        count: usize,
        datatype: &Datatype,
        dest: i32,
        tag: i32,
    ) -> MpiResult<Request<'static>> {
        self.isend_mode(
            "Comm.Ibsend",
            buf,
            offset,
            count,
            datatype,
            (dest, tag, SendMode::Buffered),
        )
    }

    /// `Comm.Issend`.
    pub fn issend<T: BufferElement>(
        &self,
        buf: &[T],
        offset: usize,
        count: usize,
        datatype: &Datatype,
        dest: i32,
        tag: i32,
    ) -> MpiResult<Request<'static>> {
        self.isend_mode(
            "Comm.Issend",
            buf,
            offset,
            count,
            datatype,
            (dest, tag, SendMode::Synchronous),
        )
    }

    /// `Comm.Irsend`.
    pub fn irsend<T: BufferElement>(
        &self,
        buf: &[T],
        offset: usize,
        count: usize,
        datatype: &Datatype,
        dest: i32,
        tag: i32,
    ) -> MpiResult<Request<'static>> {
        self.isend_mode(
            "Comm.Irsend",
            buf,
            offset,
            count,
            datatype,
            (dest, tag, SendMode::Ready),
        )
    }

    /// `Comm.Irecv(buf, offset, count, datatype, source, tag)`.
    ///
    /// The returned [`Request`] borrows `buf` mutably until it is waited
    /// on — the Rust-safe equivalent of mpiJava handing the Java array to
    /// the JNI layer for the duration of the receive.
    pub fn irecv<'buf, T: BufferElement>(
        &self,
        buf: &'buf mut [T],
        offset: usize,
        count: usize,
        datatype: &Datatype,
        source: i32,
        tag: i32,
    ) -> MpiResult<Request<'buf>> {
        self.env.jni.enter("Comm.Irecv");
        let (window, max_len) = self.recv_window(buf, offset, count, datatype)?;
        let id = self
            .env
            .engine
            .lock()
            .irecv(self.handle, source, tag, Some(max_len))?;
        Ok(Pending::new(&self.env, id, self.region(window, 0, count, datatype)).into())
    }

    // ------------------------------------------------------------------
    // Persistent requests
    // ------------------------------------------------------------------

    /// `Comm.Send_init`: build a persistent send request (a `Prequest`).
    /// The buffer is checked here and marshalled by each `Start`.
    pub fn send_init<'buf, T: BufferElement>(
        &self,
        buf: &'buf [T],
        offset: usize,
        count: usize,
        datatype: &Datatype,
        dest: i32,
        tag: i32,
    ) -> MpiResult<Prequest<'buf>> {
        self.env.jni.enter("Comm.Send_init");
        self.check_type::<T>(datatype)?;
        window_range::<T>(buf.len(), offset, count, datatype, ErrorClass::Buffer)?;
        let id = self
            .env
            .engine
            .lock()
            .send_init(self.handle, dest, tag, SendMode::Standard)?;
        let region = self.region(buf, offset, count, datatype);
        Ok(Pending::new(&self.env, id, region).into())
    }

    /// `Comm.Recv_init`: build a persistent receive request.
    pub fn recv_init<'buf, T: BufferElement>(
        &self,
        buf: &'buf mut [T],
        offset: usize,
        count: usize,
        datatype: &Datatype,
        source: i32,
        tag: i32,
    ) -> MpiResult<Prequest<'buf>> {
        self.env.jni.enter("Comm.Recv_init");
        let (window, max_len) = self.recv_window(buf, offset, count, datatype)?;
        let id = self
            .env
            .engine
            .lock()
            .recv_init(self.handle, source, tag, Some(max_len))?;
        let region = self.region(window, 0, count, datatype);
        Ok(Pending::new(&self.env, id, region).into())
    }

    // ------------------------------------------------------------------
    // Probe
    // ------------------------------------------------------------------

    /// `Comm.Probe(source, tag)`.
    pub fn probe(&self, source: i32, tag: i32) -> MpiResult<Status> {
        self.env.jni.enter("Comm.Probe");
        let info = self.env.engine.lock().probe(self.handle, source, tag)?;
        Ok(Status::from_info(info))
    }

    /// `Comm.Iprobe(source, tag)`: `None` when no matching message has
    /// arrived (the paper's convention of returning `null` for the failed
    /// case, §2.1).
    pub fn iprobe(&self, source: i32, tag: i32) -> MpiResult<Option<Status>> {
        self.env.jni.enter("Comm.Iprobe");
        let info = self.env.engine.lock().iprobe(self.handle, source, tag)?;
        Ok(info.map(Status::from_info))
    }

    // ------------------------------------------------------------------
    // Pack / Unpack
    // ------------------------------------------------------------------

    /// `Comm.Pack_size(count, datatype)`: bytes needed to pack `count`
    /// instances.
    pub fn pack_size(&self, count: usize, datatype: &Datatype) -> usize {
        datatype.size().saturating_mul(count)
    }

    /// `Comm.Pack`: append `count` instances of `datatype` from `buf` to
    /// `out`, returning the new position (mirrors the C `position`
    /// in/out argument by returning the updated value).
    pub fn pack<T: BufferElement>(
        &self,
        buf: &[T],
        offset: usize,
        count: usize,
        datatype: &Datatype,
        out: &mut Vec<u8>,
    ) -> MpiResult<usize> {
        self.env.jni.enter("Comm.Pack");
        let payload = self.pack_buffer(buf, offset, count, datatype)?;
        out.extend_from_slice(&payload);
        Ok(out.len())
    }

    /// `Comm.Unpack`: extract `count` instances of `datatype` from
    /// `packed[position..]` into `buf`, returning the new position.
    #[allow(clippy::too_many_arguments)]
    pub fn unpack<T: BufferElement>(
        &self,
        packed: &[u8],
        position: usize,
        buf: &mut [T],
        offset: usize,
        count: usize,
        datatype: &Datatype,
    ) -> MpiResult<usize> {
        self.env.jni.enter("Comm.Unpack");
        let (window, needed) = self.recv_window(buf, offset, count, datatype)?;
        let Some(end) = position
            .checked_add(needed)
            .filter(|&end| end <= packed.len())
        else {
            return Err(MPIException::new(
                ErrorClass::Truncate,
                format!(
                    "unpack: need {needed} bytes at position {position}, packed buffer has {}",
                    packed.len()
                ),
            ));
        };
        self.unpack_buffer(&packed[position..end], window, 0, count, datatype)?;
        Ok(end)
    }

    // ------------------------------------------------------------------
    // MPI.OBJECT: serialized object messages (paper §2.2)
    // ------------------------------------------------------------------

    /// Send `count` objects from `buf[offset..]` using the `MPI.OBJECT`
    /// datatype: each object is serialized in the wrapper, exactly as the
    /// paper proposes.
    pub fn send_object<T: Serializable>(
        &self,
        buf: &[T],
        offset: usize,
        count: usize,
        dest: i32,
        tag: i32,
    ) -> MpiResult<()> {
        self.env.jni.enter("Comm.Send[OBJECT]");
        let payload = Bytes::from(self.serialize_objects(buf, offset, count)?);
        let mut engine = self.env.engine.lock();
        Ok(engine.send(self.handle, dest, tag, payload, SendMode::Standard)?)
    }

    /// Receive up to `count` objects into fresh values (returned rather
    /// than written in place — objects are immutable-by-construction here).
    pub fn recv_object<T: Serializable>(
        &self,
        count: usize,
        source: i32,
        tag: i32,
    ) -> MpiResult<(Vec<T>, Status)> {
        self.env.jni.enter("Comm.Recv[OBJECT]");
        let (data, info) = self
            .env
            .engine
            .lock()
            .recv(self.handle, source, tag, None)?;
        self.env.jni.note_out(data.len());
        let objects = self.deserialize_objects(&data, count)?;
        Ok((objects, Status::from_info(info)))
    }

    pub(crate) fn serialize_objects<T: Serializable>(
        &self,
        buf: &[T],
        offset: usize,
        count: usize,
    ) -> MpiResult<Vec<u8>> {
        let Some(objects) = buf.get(offset..).and_then(|tail| tail.get(..count)) else {
            return Err(MPIException::new(
                ErrorClass::Buffer,
                "object buffer too small for offset + count",
            ));
        };
        let mut payload = Vec::new();
        payload.extend_from_slice(&(count as u64).to_le_bytes());
        for obj in objects {
            let bytes = serialize(obj);
            payload.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            payload.extend_from_slice(&bytes);
        }
        self.env.jni.note_pinned_in(payload.len());
        Ok(payload)
    }

    /// Decode an object stream from a peer: every length it declares is
    /// checked against the bytes it has, so a corrupt or hostile stream
    /// is a `Truncate` error, never a panic or an unbounded allocation.
    pub(crate) fn deserialize_objects<T: Serializable>(
        &self,
        data: &[u8],
        max_count: usize,
    ) -> MpiResult<Vec<T>> {
        let truncated = || MPIException::new(ErrorClass::Truncate, "object stream truncated");
        let field = |at: usize, len: usize| {
            let end = at.checked_add(len).ok_or_else(truncated)?;
            data.get(at..end).ok_or_else(truncated)
        };
        let word = |at| -> MpiResult<usize> {
            let bytes = field(at, 8)?.try_into().expect("an 8-byte field");
            Ok(u64::from_le_bytes(bytes) as usize)
        };
        let n = word(0)?;
        if n > max_count {
            return Err(MPIException::new(
                ErrorClass::Truncate,
                format!("received {n} objects but the receive asked for at most {max_count}"),
            ));
        }
        // Each object needs its 8-byte length field, which bounds how
        // many the stream can hold whatever its count claims.
        if n > data.len() / 8 {
            return Err(truncated());
        }
        let mut cursor = 8;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let len = word(cursor)?;
            out.push(deserialize(field(cursor + 8, len)?)?);
            cursor += 8 + len;
        }
        Ok(out)
    }
}

fn pair_component_matches(pair: PrimitiveKind, elem: PrimitiveKind) -> bool {
    matches!(
        (pair, elem),
        (PrimitiveKind::Int2, PrimitiveKind::Int)
            | (PrimitiveKind::Long2, PrimitiveKind::Long)
            | (PrimitiveKind::Float2, PrimitiveKind::Float)
            | (PrimitiveKind::Double2, PrimitiveKind::Double)
            | (PrimitiveKind::Short2, PrimitiveKind::Short)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_covers_basic_and_contiguous_types() {
        assert_eq!(span_elements(&Datatype::int(), 0, 4), Some(0));
        assert_eq!(span_elements(&Datatype::int(), 5, 4), Some(5));
        let c = Datatype::contiguous(3, &Datatype::double()).unwrap();
        assert_eq!(span_elements(&c, 2, 8), Some(6));
    }

    #[test]
    fn span_counts_holes_but_not_the_trailing_gap() {
        // 2 blocks of 1 int, stride 3 ints: instance covers ints 0 and 3.
        let v = Datatype::vector(2, 1, 3, &Datatype::int()).unwrap();
        // One instance reaches int index 3 (ub = 16 bytes = 4 ints).
        assert_eq!(span_elements(&v, 1, 4), Some(4));
        // A second instance starts one extent (16 bytes) later.
        assert_eq!(span_elements(&v, 2, 4), Some(8));
    }

    #[test]
    fn span_guards_degenerate_negative_ub() {
        // All displacements negative: ub collapses to 0 — one instance
        // touches nothing above the window start (the pack step reports
        // the precise negative-displacement error), but the negative ub
        // must not shrink the span contributed by later instances.
        let d = Datatype::hindexed(&[1], &[-8], &Datatype::double()).unwrap();
        assert!(d.ub() <= 0, "precondition: degenerate upper bound");
        assert_eq!(span_elements(&d, 1, 8), Some(0));
        // extent = ub - lb = 8 bytes; instances 2 and 3 reach 8 and 16.
        assert_eq!(span_elements(&d, 3, 8), Some(2));
    }

    #[test]
    fn span_uses_ub_not_size_for_overlapping_typemaps() {
        // Two blocks at the same displacement: size() (8 bytes) exceeds
        // ub() (4 bytes). The span is what the buffer must hold — one
        // int — and must not be inflated to size(), which would reject
        // a legal send from a one-element buffer.
        let d = Datatype::indexed(&[1, 1], &[0, 0], &Datatype::int()).unwrap();
        assert!(d.size() as isize > d.ub(), "precondition: overlap");
        assert_eq!(span_elements(&d, 1, 4), Some(1));
        assert_eq!(span_elements(&d, 2, 4), Some(2));
    }

    #[test]
    fn dense_payload_is_lent_under_pin_and_copied_under_copy() {
        use crate::{JniConfig, MarshalMode, MpiRuntime};
        for marshal in [MarshalMode::Copy, MarshalMode::Pin] {
            MpiRuntime::new(1)
                .jni(JniConfig {
                    marshal,
                    ..JniConfig::default()
                })
                .run(move |mpi| {
                    let world = mpi.comm_world();
                    let buf = [1i32, 2, 3, 4, 5];
                    let dense = Datatype::contiguous(2, &Datatype::int())?;
                    let payload = world.pack_buffer(&buf, 1, 2, &dense)?;
                    assert_eq!(payload, bytes_of(&buf[1..5]));
                    let lent = payload.as_ptr() == buf[1..].as_ptr().cast::<u8>();
                    assert_eq!(
                        lent,
                        marshal == MarshalMode::Pin && cfg!(target_endian = "little")
                    );
                    assert_eq!(matches!(payload, Cow::Borrowed(_)), lent);

                    // Holes: the gather is the copy, whatever the mode.
                    let holes = Datatype::vector(2, 1, 2, &Datatype::int())?;
                    let gathered = world.pack_buffer(&buf, 1, 1, &holes)?;
                    assert!(matches!(gathered, Cow::Owned(_)));
                    assert_eq!(gathered, bytes_of(&[2i32, 4]));
                    // Both crossings counted the window they carried.
                    assert_eq!(mpi.jni_stats().bytes_in, 16 + 12);
                    Ok(())
                })
                .unwrap();
        }
    }
}
