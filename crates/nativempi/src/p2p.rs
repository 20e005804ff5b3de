//! Point-to-point messaging: envelopes, matching, the eager and rendezvous
//! protocols, probes and send modes (MPI-1.1 §3).
//!
//! ## Protocol
//!
//! * **Eager** — standard-mode messages up to the engine's eager threshold,
//!   plus all buffered and ready sends, travel as a single
//!   [`FrameKind::Eager`] frame carrying the payload. The send completes
//!   locally.
//! * **Rendezvous** — standard-mode messages above the threshold and *all*
//!   synchronous sends first announce themselves with a
//!   [`FrameKind::RendezvousRequest`] (envelope only). When the receiver
//!   has a matching receive posted it replies with a
//!   [`FrameKind::RendezvousAck`]; the sender then ships the payload in
//!   [`FrameKind::RendezvousData`] frames, each carrying its byte offset,
//!   and completes. Because the ack is only generated once a matching
//!   receive exists, this doubles as the synchronous-mode completion rule.
//!
//! The grant alone decides a rendezvous's frame shape. A receive that
//! holds a window — [`Engine::recv_into`], behind the classic dense
//! `Recv` — and that the message fits is granted *chunks* of
//! [`RENDEZVOUS_CHUNK`] bytes: it copies each into place as it lands and
//! pools the chunk's buffer. Any other receive — [`Engine::recv`]'s
//! `Bytes`, an `irecv`, a schedule slot, an RMA channel, a receive the
//! message would truncate — is granted the whole message, whose one frame
//! becomes its completion as it is, so none of them gains a copy.
//!
//! Every granted send ships data frames of at most its grant, back to
//! back, each carrying its byte offset in the header's `msg_len` field
//! (see [`FrameHeader`]). A payload the send holds ([`Engine::isend`] of
//! any [`SendBuf`], a blocking send of a [`SendBuf::Held`], a persistent
//! `start`, collective rounds, RMA) leaves as zero-copy slices of itself
//! the moment the grant arrives. A blocking send of a borrowed window
//! ([`Engine::send`] of a [`SendBuf::Slice`] or [`SendBuf::Boundary`])
//! stages nothing until the grant, then stages
//! and ships one frame at a time: its staging of chunk `k + 1` overlaps
//! the receiver's copy of chunk `k`, so a large message costs about one
//! copy's time, not two. Either way the sender's trace bracket
//! (`send_rendezvous`) closes when its last frame leaves, and the
//! receiver logs one `rendezvous_data` when its last byte lands.
//!
//! ## Matching
//!
//! Envelopes are `(context id, source, tag)`. One `Matching` value owns
//! every context's FIFO *posted-receive* queue and FIFO
//! *unexpected-message* queue: an arrival takes the oldest posted receive
//! of its context that it matches, or parks; a post takes the oldest
//! parked message of its context that it matches, or queues. Together
//! with the per-pair FIFO the transport provides this is MPI's
//! non-overtaking guarantee, and no scan ever looks at another context's
//! queues. `ANY_SOURCE` / `ANY_TAG` wildcards never cross communicators (a
//! context id belongs to exactly one communicator), so the per-context
//! split preserves the matching semantics exactly.
//!
//! Each matching call — post, arrival, probe, RMA drain, withdraw, close —
//! finds and takes with one lookup of its context: one hash operation per
//! message. Sources are matched as world ranks, translated once per call
//! rather than once per queued entry.
//!
//! Freeing a communicator closes its two contexts: their queues go, and a
//! tombstone (four bytes) stays, so a frame still in flight for a freed
//! context is dropped on arrival instead of parking unmatchably forever.
//! Context ids are never reissued, so a tombstone cannot be wrong. An
//! *unknown* context is not a closed one: a peer that finished
//! constructing a communicator may send on it before this rank has
//! installed the record, and those frames park.
//!
//! A matched rendezvous announcement is granted in one place
//! (`Engine::grant_rendezvous`), whichever side arrived first, and the RMA
//! data channel grants through it too.
//!
//! ## Copy inventory
//!
//! Who owns the payload at each hop, and where bytes are actually copied.
//! The engine's `bytes_copied` statistic counts exactly the copies below,
//! which is what lets the copy-accounting regression tests pin each path:
//!
//! | path | hop | mechanism | copies |
//! |------|-----|-----------|--------|
//! | eager send of a slice ([`SendBuf::Slice`], [`SendBuf::Boundary`]) | user slice → staging buffer | ≤ [`bytes::INLINE_CAP`] bytes: copied into the `Bytes` itself (no allocation); ≥ 1 KiB: refilled into a pooled `Bytes` or `Vec`; between: a fresh `Vec` wrapped as `Bytes` | 1 (0 for a `Boundary`, where it is the binding's copy) |
//! | eager send of a [`SendBuf::Held`] | user `Bytes` → frame | refcount move | 0 |
//! | eager delivery | frame → inbox → completion | the *same* `Bytes` end to end | 0 |
//! | rendezvous [`Engine::isend`] of a slice | user slice → the send request | pooled copy, held until the grant | 1 (0 for a `Boundary`) |
//! | rendezvous data of a held payload ([`Engine::isend`], a `Held` [`Engine::send`]) | held `Bytes` → one data frame per granted chunk | `Bytes::slice`, a refcount move | 0 |
//! | rendezvous data of a window (a `Slice` or `Boundary` [`Engine::send`]) | user slice → one data frame per granted chunk | after the grant, `extend_from_slice` of each chunk into a pooled buffer, shipped at once | 1 (0 for a `Boundary`) |
//! | receive completion ([`Engine::recv`]) | completion → caller | `Bytes` handover | 0 |
//! | [`Engine::recv_into`] | completion `Bytes`, or each granted chunk as it lands → user slice | `copy_from_slice`; spent buffer recycled into the send pool | 1 |
//!
//! End to end, a transfer therefore costs exactly one copy on the send
//! side (zero for a [`SendBuf::Held`]) and exactly one on the receive
//! side; streaming overlaps the two without adding a third.
//!
//! ### The staging pool
//!
//! Every payload buffer this rank fills comes from one pool
//! (`SendPool`, [`Engine::pool_take`]) and every spent one goes back
//! to it ([`Engine::pool_put`], [`Engine::recycle`]). The pool holds at
//! most 8 buffers of 1 KiB–1 MiB capacity and starts empty. A take gets
//! the *smallest* pooled buffer that fits, so a 4 KiB send never pins a
//! 1 MiB buffer while it is queued, and a 1 MiB marshal copy is not
//! handed a 4 KiB buffer to grow. A take below 1 KiB leaves the pool
//! alone: a staging copy of at most [`bytes::INLINE_CAP`] (64) bytes
//! lands inline, inside its `Bytes`, and allocates nothing; one of
//! 65 B–1 KiB gets a fresh buffer. The paths that end a buffer's life in
//! the pool:
//!
//! * [`Engine::recv_into`]: the completion, once delivered;
//! * the collective executor ([`crate::coll::nb`]): a compute's spent
//!   operands and wire buffers, and a retiring schedule's slot store;
//! * RMA: an applied `put` or `accumulate`'s message, a redeemed `get`
//!   reply (and RMA stages a large operation's message, header and
//!   payload, in a buffer from the pool, as a slice send does);
//! * the `mpijava` binding: every result or completion it stores into
//!   the caller's array — the classic reductions, `Bcast`, the gather
//!   family, `Sendrecv`, a completed `Irecv`, a non-dense `Recv` and
//!   `Win.Get`'s `take`. The binding asks [`Engine::pool_accepts`]
//!   first, so a buffer the pool would refuse is dropped without the
//!   engine lock.
//!
//! A buffer goes back only when its last reference does: one still held
//! — by a pending rendezvous, or by another queue — is never reissued. A
//! spent payload is kept as the `Bytes` it travelled in, and the engine's
//! next staging copy refills it in place ([`bytes::Bytes::try_refill`]),
//! so a steady stream of chunks allocates neither buffers nor reference
//! counts. An inline payload owns no allocation, so it never enters the
//! pool.
//!
//! ### Surface rows
//!
//! What a call of the `mpijava` binding costs in passes over the payload,
//! the binding's own and the engine's above together, for a dense
//! datatype over a numeric element type. Every point-to-point send hands
//! the engine one [`SendBuf`] through [`Engine::send`] or
//! [`Engine::isend`]. A payload the binding marshals into a buffer it
//! owns is handed over by ownership ([`SendBuf::Held`]: the engine copies
//! nothing). A dense window goes unmarshalled, and the engine's staging
//! is the one pass, counted by the mode's owner: the binding's under
//! `Copy` ([`SendBuf::Boundary`]), the engine's under `Pin`
//! ([`SendBuf::Slice`]).
//!
//! | call | mode | send-side passes | receive-side passes |
//! |------|------|------------------|---------------------|
//! | classic `Send`, `Bsend`, `Ssend`, `Rsend` (and the `rs` `send`, which is `Send`) | `Copy` | 1: the block copy across the boundary (`Get*ArrayRegion`), taken by the engine into staging-pool buffers ([`SendBuf::Boundary`]): whole for an eager message, one granted chunk at a time for a rendezvous, each shipped as it fills | — |
//! | the same | `Pin` | 1: the engine's staging copy of the lent slice, whole or chunk by chunk as under `Copy` ([`SendBuf::Slice`]) | — |
//! | classic `Isend`, `Ibsend`, `Issend`, `Irsend`, `Sendrecv` (and the `rs` `isend`, `sendrecv`) | `Copy` | 1: the block copy across the boundary, taken by the engine into a staging buffer ([`SendBuf::Boundary`]): inline up to 64 bytes, else from the staging pool; that buffer is the message | — |
//! | the same | `Pin` | 1: the engine's staging copy of the lent slice ([`SendBuf::Slice`]) | — |
//! | persistent send `Start` (classic `Prequest`, `rs` `PersistentRequest`) | `Copy` / `Pin` | 1 / 1: as `Send`; [`Engine::start`] takes the marshalled payload, and the engine stores none | — |
//! | classic `Recv` (`rs` `recv_into`) | either | — | 1: [`Engine::recv_into`] delivers into the window's byte view, chunk by chunk as a chunk-granted rendezvous lands |
//! | classic `Irecv`, `Recv_init` (and the `rs` `irecv_into`, `recv_init`), `Sendrecv` ([`Engine::sendrecv`]), a `Recv` of a datatype with holes, collective results | either | — | 1: one store (a scatter, for holes) from the completion buffer into the window, which then goes to the staging pool |
//! | classic `Reduce`, `Allreduce`, `Reduce_scatter`, `Scan` (and the blocking `rs` reductions, which forward to them) | `Copy` / `Pin` | 1 / 1: the boundary block copy is the schedule's input buffer, moved in (a ring allreduce folds into it and returns it as the result) / the engine's copy of the lent slice into that input | — |
//!
//! `bytes_copied` counts the engine's passes only: a `Copy` send moves it
//! by nothing, a `Pin` send by the payload, a `Recv` by the payload.
//!
//! A datatype with holes costs one gather (`pack`) on the way out — the
//! gathered buffer is the message, in both modes — and one scatter
//! (`unpack`) into the window on the way in. `bool` and `char` buffers
//! add one conversion pass each way (their memory is not their wire
//! image), and the converted buffer is the message. An `MPI.OBJECT`
//! stream is the message too.

use std::borrow::Cow;

use bytes::Bytes;
use mpi_transport::{Frame, FrameHeader, FrameKind};

use crate::comm::CommHandle;
use crate::error::{err, ErrorClass, MpiError, Result};
use crate::matching::{PostedRecv, UnexpectedKind, UnexpectedMsg, Want};
use crate::request::{RequestId, RequestState};
use crate::trace::{EventKind, EventPhase, WaitClass};
use crate::types::{SendMode, StatusInfo, ANY_SOURCE, ANY_TAG, PROC_NULL};
use crate::Engine;

/// Upper bound of the tag space reserved for engine-internal collective
/// traffic. User tags must be non-negative (checked in `validate_tag`), so
/// the negative space at and below this value is free for the engine. The
/// collective subsystem widens this into per-operation windows of one tag
/// per algorithm round (see [`crate::coll`]), so multi-round tree / ring /
/// recursive-doubling schedules cannot collide.
pub(crate) const COLLECTIVE_TAG_BASE: i32 = -1000;

/// Most `Vec` buffers the engine keeps around for payload staging.
const SEND_POOL_MAX: usize = 8;

/// Buffers smaller than this are not worth pooling.
const SEND_POOL_MIN_BYTES: usize = 1024;

/// Buffers larger than this are not pooled: one giant transfer must not
/// pin max-sized allocations that every later small send would then wrap
/// (a `Bytes` keeps its `Vec`'s full capacity alive for as long as the
/// message sits in any queue).
const SEND_POOL_MAX_BYTES: usize = 1 << 20;

/// The engine's one payload staging pool: spent buffers of
/// [`SEND_POOL_MIN_BYTES`]..=[`SEND_POOL_MAX_BYTES`] capacity, at most
/// [`SEND_POOL_MAX`] of them, waiting to carry the next payload. Every
/// path that ends a payload buffer's life hands it back here (see the
/// copy inventory in the module docs); it starts empty.
#[derive(Debug, Default)]
pub(crate) struct SendPool(Vec<Spare>);

/// A pooled buffer: a vector, or a spent payload kept as the `Bytes` it
/// travelled in, whose reference count a later
/// [`stage`](SendPool::stage) reuses too.
#[derive(Debug)]
enum Spare {
    Vec(Vec<u8>),
    Bytes(Bytes),
}

impl Spare {
    fn capacity(&self) -> usize {
        match self {
            Spare::Vec(buf) => buf.capacity(),
            Spare::Bytes(buf) => buf.capacity(),
        }
    }
}

impl SendPool {
    /// The smallest pooled buffer with room for `len` bytes. A request
    /// below [`SEND_POOL_MIN_BYTES`] gets none: a pooled buffer is
    /// large, and a small message would pin it for as long as it is
    /// queued.
    fn fit(&mut self, len: usize) -> Option<Spare> {
        if len < SEND_POOL_MIN_BYTES {
            return None;
        }
        let i = (0..self.0.len())
            .filter(|&i| self.0[i].capacity() >= len)
            .min_by_key(|&i| self.0[i].capacity())?;
        Some(self.0.swap_remove(i))
    }

    /// The best-fitting pooled buffer (see `fit`) as an empty vector, or
    /// a fresh allocation when none fits.
    pub(crate) fn take(&mut self, len: usize) -> Vec<u8> {
        let spare = match self.fit(len) {
            Some(Spare::Vec(buf)) => Some(buf),
            Some(Spare::Bytes(buf)) => buf.try_into_vec().ok(),
            None => None,
        };
        match spare {
            Some(mut buf) => {
                buf.clear();
                buf
            }
            None => Vec::with_capacity(len),
        }
    }

    /// A copy of `data` in the best-fitting pooled buffer (see `fit`),
    /// or else in a fresh one: inline up to [`bytes::INLINE_CAP`] bytes,
    /// allocated above. A spent `Bytes` is refilled in place, so a
    /// steady stream of same-sized payloads allocates nothing at all.
    fn stage(&mut self, data: &[u8]) -> Bytes {
        let mut buf = match self.fit(data.len()) {
            Some(Spare::Bytes(mut buf)) => {
                if buf.try_refill(data) {
                    return buf;
                }
                Vec::with_capacity(data.len())
            }
            Some(Spare::Vec(mut buf)) => {
                buf.clear();
                buf
            }
            None => return Bytes::copy_from_slice(data),
        };
        buf.extend_from_slice(data);
        Bytes::from(buf)
    }

    /// Keep `buf` for a later take if the pool has room and its capacity
    /// is in bounds; drop it otherwise.
    pub(crate) fn put(&mut self, buf: Vec<u8>) {
        self.keep(Spare::Vec(buf));
    }

    /// Keep a spent payload, emptied, if this was its last reference
    /// (see `put`); one still shared is dropped here, its allocation left
    /// to the other holders.
    fn put_bytes(&mut self, mut buf: Bytes) {
        if buf.try_refill(&[]) {
            self.keep(Spare::Bytes(buf));
        }
    }

    fn keep(&mut self, spare: Spare) {
        if Engine::pool_accepts(spare.capacity()) && self.0.len() < SEND_POOL_MAX {
            self.0.push(spare);
        }
    }
}

/// Most payload bytes one data frame of a streamed rendezvous carries
/// (see the protocol notes): the default eager threshold, so every
/// frame of a large message is the size of the largest eager one. Not a
/// knob: 64 KiB and 256 KiB chunks both made a 1 MiB ping-pong slower.
pub const RENDEZVOUS_CHUNK: usize = crate::DEFAULT_EAGER_THRESHOLD;

/// The payload of a point-to-point send ([`Engine::send`],
/// [`Engine::isend`]), and who pays for its staging copy.
#[derive(Debug, Clone)]
pub enum SendBuf<'a> {
    /// A borrowed slice the engine stages into a pooled buffer: its own
    /// copy, counted in `bytes_copied` (a C program's `MPI_Send`, and
    /// the binding under `Pin`).
    Slice(&'a [u8]),
    /// A dense window whose staging is the binding's boundary copy
    /// (`Get*ArrayRegion` under `Copy`), taken by the engine whole or
    /// one frame at a time: the binding counts it, `bytes_copied` does
    /// not.
    Boundary(&'a [u8]),
    /// An owned payload: moved onto the wire, never copied.
    Held(Bytes),
}

impl<'a> SendBuf<'a> {
    fn len(&self) -> usize {
        match self {
            SendBuf::Slice(data) | SendBuf::Boundary(data) => data.len(),
            SendBuf::Held(data) => data.len(),
        }
    }

    /// Bytes `range` of the payload, with the same owner.
    fn slice(&self, range: std::ops::Range<usize>) -> SendBuf<'a> {
        match self {
            SendBuf::Slice(data) => SendBuf::Slice(&data[range]),
            SendBuf::Boundary(data) => SendBuf::Boundary(&data[range]),
            SendBuf::Held(data) => SendBuf::Held(data.slice(range)),
        }
    }
}

impl From<Bytes> for SendBuf<'_> {
    fn from(data: Bytes) -> Self {
        SendBuf::Held(data)
    }
}

/// A marshalled payload: an owned buffer is the message, a borrowed one
/// is staged.
impl<'a> From<Cow<'a, [u8]>> for SendBuf<'a> {
    fn from(data: Cow<'a, [u8]>) -> Self {
        match data {
            Cow::Borrowed(data) => SendBuf::Slice(data),
            Cow::Owned(data) => SendBuf::Held(Bytes::from(data)),
        }
    }
}

impl<'a, T: AsRef<[u8]> + ?Sized> From<&'a T> for SendBuf<'a> {
    fn from(data: &'a T) -> Self {
        SendBuf::Slice(data.as_ref())
    }
}

/// A rendezvous announced on the sender side, until the receiver grants
/// it: the send request that holds its progress, and the receiver (for
/// the failure sweep, [`crate::failure`]).
#[derive(Debug)]
pub(crate) struct PendingRendezvous {
    pub req: u64,
    pub dst_world: u32,
}

/// Book-keeping for `MPI_Buffer_attach` / `MPI_Buffer_detach`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BsendBuffer {
    /// Total capacity in bytes the user attached. The check against it is
    /// per message: a buffered send leaves for the device at once, so no
    /// capacity stays in use after the call.
    pub capacity: usize,
}

fn validate_tag(tag: i32, allow_any: bool) -> Result<()> {
    if tag >= 0 || (allow_any && tag == ANY_TAG) || tag <= COLLECTIVE_TAG_BASE {
        Ok(())
    } else {
        err(ErrorClass::Tag, format!("invalid tag {tag}"))
    }
}

impl Engine {
    fn next_token(&mut self) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        t
    }

    // ---------------------------------------------------------------------
    // Payload staging pool
    // ---------------------------------------------------------------------

    /// An empty buffer with room for `len` bytes: the best-fitting pooled
    /// one (see `SendPool::take`), else a fresh allocation. The
    /// binding's `Copy`-mode marshal copy lands here too, so the buffer a
    /// receiver recycled carries its next send and a steady ping-pong
    /// allocates nothing.
    pub fn pool_take(&mut self, len: usize) -> Vec<u8> {
        self.send_pool.take(len)
    }

    /// The message `data` travels as: a held payload as it is, a slice
    /// copied into a pooled staging buffer and wrapped as `Bytes` without
    /// a second copy — the *single* send-side copy of a borrowed payload,
    /// counted as its [`SendBuf`] variant says.
    fn hold(&mut self, data: SendBuf<'_>) -> Bytes {
        match data {
            SendBuf::Held(data) => data,
            SendBuf::Slice(data) => {
                self.stats.bytes_copied += data.len() as u64;
                self.send_pool.stage(data)
            }
            SendBuf::Boundary(data) => self.send_pool.stage(data),
        }
    }

    /// Return a spent buffer to the staging pool (bounded in count and
    /// per-buffer capacity; tiny buffers are not worth keeping).
    pub fn pool_put(&mut self, buf: Vec<u8>) {
        self.send_pool.put(buf);
    }

    /// Whether the staging pool keeps a buffer of `capacity` bytes. The
    /// binding asks before it takes the engine lock to hand a buffer
    /// back, so a small message's spent buffer costs no lock.
    pub fn pool_accepts(capacity: usize) -> bool {
        (SEND_POOL_MIN_BYTES..=SEND_POOL_MAX_BYTES).contains(&capacity)
    }

    /// Recycle a completion payload the caller is done with: if this was
    /// the last reference to its buffer, the allocation feeds the send
    /// pool (no copy either way).
    pub fn recycle(&mut self, data: Bytes) {
        self.send_pool.put_bytes(data);
    }

    /// Translate `dest` (communicator rank) and build a frame header.
    #[allow(clippy::too_many_arguments)]
    fn make_header(
        &self,
        comm: CommHandle,
        dest: usize,
        tag: i32,
        kind: FrameKind,
        token: u64,
        msg_len: u64,
        collective: bool,
    ) -> Result<FrameHeader> {
        let record = self.comm(comm)?;
        let context = record.context(collective);
        let dst_world = record.group.world_rank(dest)?;
        Ok(FrameHeader {
            kind,
            src: self.world_rank as u32,
            dst: dst_world as u32,
            tag,
            context,
            token,
            msg_len,
        })
    }

    // ---------------------------------------------------------------------
    // Non-blocking sends and receives
    // ---------------------------------------------------------------------

    /// `MPI_Isend` / `Ibsend` / `Issend` / `Irsend`, selected by `mode`.
    /// `data` is the already-packed contiguous payload: a slice is copied
    /// exactly once, into a pooled staging buffer that the request holds
    /// until it ships; a [`Bytes`] travels by refcount alone, so
    /// `stats().bytes_copied` does not move (see [`SendBuf`]).
    pub fn isend<'a>(
        &mut self,
        comm: CommHandle,
        dest: i32,
        tag: i32,
        data: impl Into<SendBuf<'a>>,
        mode: SendMode,
    ) -> Result<RequestId> {
        self.isend_on(comm, dest, tag, data.into(), mode, false)
    }

    /// [`Engine::isend`] on either context: collective rounds and the
    /// RMA subsystem send on the collective context, so user `ANY_TAG`
    /// receives can never steal their traffic.
    pub(crate) fn isend_on(
        &mut self,
        comm: CommHandle,
        dest: i32,
        tag: i32,
        data: SendBuf<'_>,
        mode: SendMode,
        collective: bool,
    ) -> Result<RequestId> {
        match self.prepare_send(comm, dest, tag, data.len(), mode)? {
            None => Ok(self.alloc_request(RequestState::SendComplete)),
            Some(dest) => {
                let payload = self.hold(data);
                self.dispatch_send(comm, dest, tag, payload, mode, collective)
            }
        }
    }

    /// Shared send validation. Returns `None` for `PROC_NULL` (the send
    /// completes immediately without touching the transport), otherwise
    /// the destination as an in-range communicator rank.
    fn prepare_send(
        &mut self,
        comm: CommHandle,
        dest: i32,
        tag: i32,
        len: usize,
        mode: SendMode,
    ) -> Result<Option<usize>> {
        self.check_live()?;
        validate_tag(tag, false)?;
        if dest == PROC_NULL {
            return Ok(None);
        }
        if dest < 0 {
            return err(ErrorClass::Rank, format!("invalid destination rank {dest}"));
        }
        let dest = dest as usize;
        let size = self.comm_size(comm)?;
        if dest >= size {
            return err(
                ErrorClass::Rank,
                format!("destination rank {dest} out of range for communicator of size {size}"),
            );
        }
        // Fail fast instead of spooling traffic a dead rank will never
        // drain (see `crate::failure`).
        self.check_peer_alive(comm, dest as i32)?;
        if matches!(mode, SendMode::Buffered) {
            let available = self.attached_buffer.as_ref().map_or(0, |b| b.capacity);
            if len > available {
                return err(
                    ErrorClass::BufferExhausted,
                    format!(
                        "buffered send of {len} bytes exceeds attached buffer space of {available} bytes"
                    ),
                );
            }
        }
        Ok(Some(dest))
    }

    /// Whether a `len`-byte send in `mode` announces itself and waits
    /// for a grant (rendezvous) instead of travelling eagerly.
    fn uses_rendezvous(&self, mode: SendMode, len: usize) -> bool {
        match mode {
            SendMode::Synchronous => true,
            SendMode::Buffered | SendMode::Ready => false,
            SendMode::Standard => len > self.eager_threshold,
        }
    }

    /// Ship an owned payload: eager frame or rendezvous announcement,
    /// depending on `mode` and the eager threshold. No copies happen here.
    fn dispatch_send(
        &mut self,
        comm: CommHandle,
        dest: usize,
        tag: i32,
        payload: Bytes,
        mode: SendMode,
        collective: bool,
    ) -> Result<RequestId> {
        self.stats.bytes_sent += payload.len() as u64;
        let len = payload.len() as i64;
        if self.uses_rendezvous(mode, payload.len()) {
            return self.announce(comm, dest, tag, payload.len(), Some(payload), collective);
        }
        let token = self.next_token();
        let header = self.make_header(
            comm,
            dest,
            tag,
            FrameKind::Eager,
            token,
            payload.len() as u64,
            collective,
        )?;
        let dst = header.dst as i64;
        self.emit(
            EventKind::SendEager,
            EventPhase::Begin,
            [dst, tag as i64, len, token as i64, 0],
        );
        self.endpoint.send(Frame::new(header, payload))?;
        self.stats.eager_sends += 1;
        self.emit(
            EventKind::SendEager,
            EventPhase::End,
            [dst, tag as i64, len, token as i64, 0],
        );
        Ok(self.alloc_request(RequestState::SendComplete))
    }

    /// Announce a `len`-byte rendezvous: the request waits for the
    /// receiver's grant, which ships the `held` payload at once, or —
    /// with nothing held — lets the blocking sender ship its window
    /// ([`Engine::send`]); see `ship`.
    fn announce(
        &mut self,
        comm: CommHandle,
        dest: usize,
        tag: i32,
        len: usize,
        held: Option<Bytes>,
        collective: bool,
    ) -> Result<RequestId> {
        let token = self.next_token();
        let header = self.make_header(
            comm,
            dest,
            tag,
            FrameKind::RendezvousRequest,
            token,
            len as u64,
            collective,
        )?;
        let req = self.alloc_request(RequestState::SendRendezvous {
            grant: None,
            held,
            freed: false,
        });
        self.pending_rendezvous.insert(
            token,
            PendingRendezvous {
                req: req.0,
                dst_world: header.dst,
            },
        );
        // Begin is stamped before the announcement leaves, as an eager
        // send's is, so no receiver can match it before the send began.
        // The matching End is emitted when the last data frame ships
        // (`ship`), bracketing the handshake. The token stamp joins this
        // interval with the receiver's events.
        self.emit(
            EventKind::SendRendezvous,
            EventPhase::Begin,
            [header.dst as i64, tag as i64, len as i64, token as i64, 0],
        );
        self.endpoint.send(Frame::control(header))?;
        self.stats.rendezvous_sends += 1;
        Ok(req)
    }

    /// `MPI_Irecv`. `src` is a communicator rank, `ANY_SOURCE` or
    /// `PROC_NULL`; `max_len` is the receive buffer capacity in bytes used
    /// for truncation checking (`None` = unlimited).
    pub fn irecv(
        &mut self,
        comm: CommHandle,
        src: i32,
        tag: i32,
        max_len: Option<usize>,
    ) -> Result<RequestId> {
        self.post_recv(comm, src, tag, max_len, false, false)
    }

    /// Post a receive on either context (see [`Engine::isend_on`]). A
    /// `window` receive is [`Engine::recv_into`]'s: it holds a buffer of
    /// `max_len` bytes, so a rendezvous it matches is granted in chunks.
    pub(crate) fn post_recv(
        &mut self,
        comm: CommHandle,
        src: i32,
        tag: i32,
        max_len: Option<usize>,
        collective: bool,
        window: bool,
    ) -> Result<RequestId> {
        let Some(want) = self.recv_want(comm, src, tag)? else {
            return Ok(self.alloc_request(RequestState::RecvComplete {
                data: Bytes::new(),
                status: StatusInfo::empty(),
                error: None,
            }));
        };
        // A receive that can only (specific source) or might only
        // (ANY_SOURCE, conservatively) be satisfied by a dead rank fails
        // at posting time (see `crate::failure`).
        self.check_peer_alive(comm, src)?;
        let context = self.comm(comm)?.context(collective);
        let req = self.fresh_request_id();
        let now = self.timing_now();
        let recv = PostedRecv {
            req,
            comm,
            want,
            max_len,
            window,
            posted_ns: now,
        };
        match self.matching.post(context, recv) {
            None => self
                .requests
                .insert(req, RequestState::RecvPending { context }),
            Some((recv, msg)) => {
                self.stats.unexpected_hits += 1;
                self.note_unexpected_hit(&msg, now);
                self.deliver(&recv, context, msg)?;
            }
        }
        Ok(RequestId(req))
    }

    /// The envelope checks a receive and a probe share: the tag, then the
    /// source. `None` is `PROC_NULL`, which answers at once with an empty
    /// status; otherwise the source as a world rank.
    fn recv_want(&self, comm: CommHandle, src: i32, tag: i32) -> Result<Option<Want>> {
        self.check_live()?;
        validate_tag(tag, true)?;
        if src == PROC_NULL {
            return Ok(None);
        }
        let src = match usize::try_from(src) {
            _ if src == ANY_SOURCE => None,
            Ok(rank) => Some(self.world_rank_of(comm, rank)? as u32),
            Err(_) => return err(ErrorClass::Rank, format!("invalid source rank {src}")),
        };
        Ok(Some(Want { src, tag }))
    }

    /// The engine clock when timing is on, else 0: one read serves a post
    /// or an arrival whichever way it matches.
    fn timing_now(&self) -> u64 {
        if self.tracer.timing_on() {
            self.clock_ns()
        } else {
            0
        }
    }

    /// `src_world`'s rank in `comm`. Only members send on a
    /// communicator's contexts, so a stranger is an internal error.
    pub(crate) fn source_rank(&self, comm: CommHandle, src_world: u32) -> Result<usize> {
        self.comm_rank_of_world(comm, src_world as usize)?
            .ok_or_else(|| {
                MpiError::new(
                    ErrorClass::Intern,
                    format!("message from world rank {src_world}, outside communicator {comm}"),
                )
            })
    }

    /// Hand a matched message to its receive: an eager payload completes
    /// it, a rendezvous announcement is granted.
    fn deliver(&mut self, recv: &PostedRecv, context: u32, msg: UnexpectedMsg) -> Result<()> {
        let src = self.source_rank(recv.comm, msg.src_world)?;
        match msg.kind {
            UnexpectedKind::Eager(data) => {
                self.complete_recv(recv.req, data, src as i32, msg.tag, recv.max_len);
                Ok(())
            }
            UnexpectedKind::Rendezvous => {
                self.grant_rendezvous(recv.req, src, recv.max_len, recv.window, context, &msg)
            }
        }
    }

    /// Grant a rendezvous to receive `req` (`src` is the sender's rank in
    /// the receive's communicator): the request awaits the data under
    /// `(sender, token)`, and the sender gets its ack. A `window` receive
    /// whose `max_len` the message fits is granted chunks of
    /// [`RENDEZVOUS_CHUNK`] bytes, which [`Engine::recv_into`] copies out
    /// as they land; any other is granted the whole message, whose one
    /// frame completes it.
    pub(crate) fn grant_rendezvous(
        &mut self,
        req: u64,
        src: usize,
        max_len: Option<usize>,
        window: bool,
        context: u32,
        msg: &UnexpectedMsg,
    ) -> Result<()> {
        self.emit(
            EventKind::RendezvousGrant,
            EventPhase::Instant,
            [
                msg.src_world as i64,
                msg.token as i64,
                msg.msg_len as i64,
                0,
                0,
            ],
        );
        self.awaiting_rendezvous_data
            .insert((msg.src_world, msg.token), req);
        let total = usize::try_from(msg.msg_len).unwrap_or(usize::MAX);
        let grant = match max_len {
            Some(cap) if window && total <= cap => RENDEZVOUS_CHUNK as u64,
            _ => msg.msg_len,
        };
        self.requests.insert(
            req,
            RequestState::RecvRendezvous {
                src: src as i32,
                tag: msg.tag,
                max_len,
                total,
                received: 0,
                landed: None,
            },
        );
        let ack = FrameHeader {
            kind: FrameKind::RendezvousAck,
            src: self.world_rank as u32,
            dst: msg.src_world,
            tag: msg.tag,
            context,
            token: msg.token,
            msg_len: grant,
        };
        self.endpoint.send(Frame::control(ack))?;
        Ok(())
    }

    // ---------------------------------------------------------------------
    // Blocking convenience wrappers
    // ---------------------------------------------------------------------

    /// Blocking send (`MPI_Send` / `Bsend` / `Ssend` / `Rsend`) of
    /// `data` (see [`SendBuf`]). A borrowed window sent as a rendezvous
    /// is announced before anything is staged; once the receiver grants
    /// it, the window is staged one granted frame at a time, and each
    /// frame ships as soon as it is full — so a window receive
    /// ([`Engine::recv_into`]) copies chunk `k` out while this side
    /// stages chunk `k + 1`. Anything else is [`Engine::isend`] waited
    /// on.
    pub fn send<'a>(
        &mut self,
        comm: CommHandle,
        dest: i32,
        tag: i32,
        data: impl Into<SendBuf<'a>>,
        mode: SendMode,
    ) -> Result<()> {
        let data = data.into();
        let streamed = !matches!(data, SendBuf::Held(_)) && self.uses_rendezvous(mode, data.len());
        if !streamed {
            let req = self.isend(comm, dest, tag, data, mode)?;
            return self.wait(req).map(drop);
        }
        let Some(dest) = self.prepare_send(comm, dest, tag, data.len(), mode)? else {
            return Ok(());
        };
        self.stats.bytes_sent += data.len() as u64;
        let req = self.announce(comm, dest, tag, data.len(), None, false)?;
        self.block_on(|engine| {
            engine.ship(req.0, Some(data.clone()))?;
            if !engine.is_complete(req)? {
                return Ok(None);
            }
            engine.take_completion(req).map(|_| Some(()))
        })
    }

    /// Ship rendezvous send `req` once it is granted: its data frames,
    /// back to back, each of at most the grant — zero-copy slices of the
    /// payload it holds, or else chunks of `window` staged one at a time
    /// (at least one frame, so an empty message still completes its
    /// receive). The last frame completes the send. Does nothing before
    /// the grant, nor to a send that holds nothing until its owner brings
    /// the window.
    fn ship(&mut self, req: u64, window: Option<SendBuf<'_>>) -> Result<()> {
        let (ack, mut data, freed) = match self.requests.get_mut(req) {
            Some(RequestState::SendRendezvous {
                grant: Some(ack),
                held,
                freed,
            }) => match held.take().map(SendBuf::Held).or(window) {
                Some(data) => (*ack, data, *freed),
                None => return Ok(()),
            },
            _ => return Ok(()),
        };
        let mut header = FrameHeader {
            kind: FrameKind::RendezvousData,
            src: ack.dst,
            dst: ack.src,
            ..ack
        };
        let grant = usize::try_from(ack.msg_len).unwrap_or(usize::MAX).max(1);
        let len = data.len();
        let mut at = 0usize;
        loop {
            let end = len.min(at.saturating_add(grant));
            header.msg_len = at as u64;
            // The last piece takes a held payload's reference along, so
            // the receiver's last recycle can pool the whole buffer.
            let piece = if end == len {
                std::mem::replace(&mut data, SendBuf::Slice(&[])).slice(at..end)
            } else {
                data.slice(at..end)
            };
            let chunk = self.hold(piece);
            self.endpoint.send(Frame::new(header, chunk))?;
            at = end;
            if at == len {
                break;
            }
        }
        if freed {
            self.requests.remove(req);
        } else {
            self.requests.set(req, RequestState::SendComplete);
        }
        self.emit(
            EventKind::SendRendezvous,
            EventPhase::End,
            [
                header.dst as i64,
                header.tag as i64,
                len as i64,
                header.token as i64,
                0,
            ],
        );
        Ok(())
    }

    /// Blocking receive (`MPI_Recv`). Returns the payload — as the very
    /// [`Bytes`] buffer that crossed the transport, no copy — and status.
    pub fn recv(
        &mut self,
        comm: CommHandle,
        src: i32,
        tag: i32,
        max_len: Option<usize>,
    ) -> Result<(Bytes, StatusInfo)> {
        let req = self.irecv(comm, src, tag, max_len)?;
        let completion = self.wait(req)?;
        Ok((completion.data.unwrap_or_default(), completion.status))
    }

    /// Blocking receive straight into a caller buffer: the single
    /// receive-side payload copy of the datapath. A rendezvous that fits
    /// `buf` is granted in chunks, and each is copied into place as it
    /// lands, while the sender ships the next; anything else completes
    /// in one buffer, copied once it is whole. Every spent buffer whose
    /// last reference this was goes to the staging pool. Returns the
    /// status; `status.count_bytes` says how much of `buf` was filled.
    pub fn recv_into(
        &mut self,
        comm: CommHandle,
        src: i32,
        tag: i32,
        buf: &mut [u8],
    ) -> Result<StatusInfo> {
        let req = self.post_recv(comm, src, tag, Some(buf.len()), false, true)?;
        self.block_on(|engine| {
            engine.deliver_landed(req, buf);
            if !engine.is_complete(req)? {
                return Ok(None);
            }
            let completion = engine.take_completion(req)?;
            if let Some(data) = completion.data {
                let n = data.len().min(buf.len());
                buf[..n].copy_from_slice(&data[..n]);
                engine.stats.bytes_copied += n as u64;
                engine.recycle(data);
            }
            Ok(Some(completion.status))
        })
    }

    /// One look at [`Engine::recv_into`]'s receive `req`: copy the chunk
    /// that landed, if any, into its place in `buf` and pool its buffer;
    /// the last chunk completes the receive. The loop of `recv_into`
    /// looks after every frame it pumps, so at most one chunk waits at a
    /// time.
    fn deliver_landed(&mut self, req: RequestId, buf: &mut [u8]) {
        let Some(RequestState::RecvRendezvous {
            src,
            tag,
            total,
            received,
            landed,
            ..
        }) = self.requests.get_mut(req.0)
        else {
            return;
        };
        let Some((offset, chunk)) = landed.take() else {
            return;
        };
        // The grant bounded the message by `buf`, and every chunk by the
        // message (`on_rendezvous_data`).
        buf[offset..offset + chunk.len()].copy_from_slice(&chunk);
        self.stats.bytes_copied += chunk.len() as u64;
        if received == total {
            let status = StatusInfo {
                source: *src,
                tag: *tag,
                count_bytes: *total,
                ..StatusInfo::empty()
            };
            let done = RequestState::RecvComplete {
                data: Bytes::new(),
                status,
                error: None,
            };
            self.requests.insert(req.0, done);
        }
        self.recycle(chunk);
    }

    /// `MPI_Sendrecv`: exchange with possibly different partners without
    /// deadlocking. The send is one [`SendBuf`], taken as
    /// [`Engine::isend`] takes it. Both envelopes are checked first — the
    /// receive's (`recv_want`, the source's liveness), then the send's
    /// (`prepare_send`) — and only then is the receive posted, and the
    /// send after it: a receive posted for an exchange whose send then
    /// fails would match, and swallow, a message the caller never sees.
    #[allow(clippy::too_many_arguments)]
    pub fn sendrecv<'a>(
        &mut self,
        comm: CommHandle,
        dest: i32,
        send_tag: i32,
        send_data: impl Into<SendBuf<'a>>,
        src: i32,
        recv_tag: i32,
        max_len: Option<usize>,
    ) -> Result<(Bytes, StatusInfo)> {
        let send_data = send_data.into();
        self.recv_want(comm, src, recv_tag)?;
        self.check_peer_alive(comm, src)?;
        self.prepare_send(comm, dest, send_tag, send_data.len(), SendMode::Standard)?;
        let recv_req = self.irecv(comm, src, recv_tag, max_len)?;
        let send_req = self.isend(comm, dest, send_tag, send_data, SendMode::Standard)?;
        let completion = self.wait(recv_req)?;
        self.wait(send_req)?;
        Ok((completion.data.unwrap_or_default(), completion.status))
    }

    // ---------------------------------------------------------------------
    // Probe
    // ---------------------------------------------------------------------

    /// `MPI_Iprobe`: check (without receiving) whether a matching message
    /// has arrived. Also advances any in-flight nonblocking collectives
    /// (background progress — a rank parked in a probe loop must not
    /// stall its peers' collectives).
    pub fn iprobe(&mut self, comm: CommHandle, src: i32, tag: i32) -> Result<Option<StatusInfo>> {
        let Some(want) = self.recv_want(comm, src, tag)? else {
            return Ok(Some(StatusInfo::empty()));
        };
        // Drain anything the transport already has so the probe sees it.
        while let Some(frame) = self.endpoint.try_recv()? {
            self.on_frame(frame)?;
        }
        self.nb_progress()?;
        let context = self.comm(comm)?.context_p2p;
        let Some(msg) = self.matching.peek(context, want) else {
            return Ok(None);
        };
        Ok(Some(StatusInfo {
            source: self.source_rank(comm, msg.src_world)? as i32,
            tag: msg.tag,
            count_bytes: msg.msg_len as usize,
            cancelled: false,
            index: 0,
        }))
    }

    /// `MPI_Probe`: block until a matching message is available. Errors
    /// with [`ErrorClass::RankFailed`] instead of hanging when the probed
    /// source (or, for `ANY_SOURCE`, any member of `comm`) is declared
    /// dead (see [`crate::failure`]).
    pub fn probe(&mut self, comm: CommHandle, src: i32, tag: i32) -> Result<StatusInfo> {
        self.block_on(|engine| {
            let status = engine.iprobe(comm, src, tag)?;
            if status.is_none() {
                engine.probe_check_failed(comm, src)?;
            }
            Ok(status)
        })
    }

    // ---------------------------------------------------------------------
    // Buffer attach / detach (MPI_Bsend support)
    // ---------------------------------------------------------------------

    /// `MPI_Buffer_attach`.
    pub fn buffer_attach(&mut self, capacity: usize) -> Result<()> {
        if self.attached_buffer.is_some() {
            return err(ErrorClass::Buffer, "a buffer is already attached");
        }
        self.attached_buffer = Some(BsendBuffer { capacity });
        Ok(())
    }

    /// `MPI_Buffer_detach`: returns the capacity that was attached.
    pub fn buffer_detach(&mut self) -> Result<usize> {
        match self.attached_buffer.take() {
            Some(b) => Ok(b.capacity),
            None => err(ErrorClass::Buffer, "no buffer attached"),
        }
    }

    // ---------------------------------------------------------------------
    // Progress: frame dispatch
    // ---------------------------------------------------------------------

    pub(crate) fn complete_recv(
        &mut self,
        req: u64,
        data: Bytes,
        src_comm: i32,
        tag: i32,
        max_len: Option<usize>,
    ) {
        self.stats.bytes_received += data.len() as u64;
        let error = match max_len {
            Some(cap) if data.len() > cap => Some(MpiError::new(
                ErrorClass::Truncate,
                format!(
                    "message of {} bytes truncated to buffer of {} bytes",
                    data.len(),
                    cap
                ),
            )),
            _ => None,
        };
        let status = StatusInfo {
            source: src_comm,
            tag,
            count_bytes: data.len().min(max_len.unwrap_or(usize::MAX)),
            cancelled: false,
            index: 0,
        };
        self.requests.insert(
            req,
            RequestState::RecvComplete {
                data,
                status,
                error,
            },
        );
    }

    /// Handle one incoming frame. Called from every blocking/polling loop.
    pub(crate) fn on_frame(&mut self, frame: Frame) -> Result<()> {
        match frame.header.kind {
            FrameKind::Eager => self.on_message(frame.header, UnexpectedKind::Eager(frame.payload)),
            FrameKind::RendezvousRequest => {
                self.on_message(frame.header, UnexpectedKind::Rendezvous)
            }
            FrameKind::RendezvousAck => self.on_rendezvous_ack(frame),
            FrameKind::RendezvousData => self.on_rendezvous_data(frame),
            FrameKind::SyncAck => Ok(()),
            FrameKind::Control => {
                // The only control traffic today is the abort broadcast.
                self.aborted = true;
                Ok(())
            }
        }
    }

    /// An eager payload or a rendezvous announcement arrives: it takes
    /// the oldest posted receive of its context that it matches, or
    /// parks (see the module's matching notes).
    fn on_message(&mut self, header: FrameHeader, kind: UnexpectedKind) -> Result<()> {
        let now = self.timing_now();
        let msg = UnexpectedMsg {
            src_world: header.src,
            tag: header.tag,
            token: header.token,
            msg_len: header.msg_len,
            kind,
            arrived_ns: now,
        };
        let Some((recv, msg)) = self.matching.arrive(header.context, msg) else {
            return Ok(());
        };
        self.stats.posted_hits += 1;
        self.note_posted_hit(&recv, &msg, now);
        self.deliver(&recv, header.context, msg)
    }

    /// Histogram + trace bookkeeping for an arrival that matched an
    /// already-posted receive: the sample is post-to-match latency.
    fn note_posted_hit(&mut self, posted: &PostedRecv, msg: &UnexpectedMsg, now: u64) {
        if self.tracer.timing_on() {
            let wait = now.saturating_sub(posted.posted_ns);
            self.tracer.p2p_latency.record(wait);
            // A posted receive that waited was held up by its peer;
            // which *kind* of wait depends on the tag space the message
            // travelled in (user p2p, collective round, RMA channel).
            let class =
                WaitClass::for_posted_tag(msg.tag, COLLECTIVE_TAG_BASE, crate::rma::RMA_TAG_BASE);
            self.tracer.note_wait(class, wait);
            self.emit_at(
                now,
                EventKind::RecvPosted,
                EventPhase::Instant,
                [
                    msg.src_world as i64,
                    msg.tag as i64,
                    msg.msg_len as i64,
                    msg.token as i64,
                    wait as i64,
                ],
            );
        }
    }

    /// Histogram + trace bookkeeping for a receive that found its
    /// message parked: the sample is queue residency.
    fn note_unexpected_hit(&mut self, msg: &UnexpectedMsg, now: u64) {
        if self.tracer.timing_on() {
            // The payload beat the matching receive to this rank; whose
            // fault that is depends on the tag space — a rank late to its
            // own collective round is imbalance, not a user-level late
            // receiver.
            let wait = now.saturating_sub(msg.arrived_ns);
            self.tracer.p2p_latency.record(wait);
            let class = WaitClass::for_unexpected_tag(
                msg.tag,
                COLLECTIVE_TAG_BASE,
                crate::rma::RMA_TAG_BASE,
            );
            self.tracer.note_wait(class, wait);
            self.emit_at(
                now,
                EventKind::RecvUnexpected,
                EventPhase::Instant,
                [
                    msg.src_world as i64,
                    msg.tag as i64,
                    msg.msg_len as i64,
                    msg.token as i64,
                    wait as i64,
                ],
            );
        }
    }

    /// The receiver granted a rendezvous: record the grant, and ship what
    /// the send holds (see `ship`).
    fn on_rendezvous_ack(&mut self, frame: Frame) -> Result<()> {
        let token = frame.header.token;
        let Some(pending) = self.pending_rendezvous.remove(&token) else {
            return err(
                ErrorClass::Intern,
                format!("rendezvous ack for unknown token {token}"),
            );
        };
        if let Some(RequestState::SendRendezvous { grant, .. }) = self.requests.get_mut(pending.req)
        {
            *grant = Some(frame.header);
        }
        self.ship(pending.req, None)
    }

    /// A data frame of a granted rendezvous lands at its offset, the next
    /// one the receive expects. A frame that carries the whole message
    /// completes the receive; a chunk parks for [`Engine::recv_into`] to
    /// copy out. The grant ends with the last byte.
    fn on_rendezvous_data(&mut self, frame: Frame) -> Result<()> {
        let key = (frame.header.src, frame.header.token);
        let Some(&req) = self.awaiting_rendezvous_data.get(&key) else {
            return err(
                ErrorClass::Intern,
                format!("rendezvous data for unknown sender/token {key:?}"),
            );
        };
        let (offset, len) = (frame.header.msg_len, frame.payload.len());
        let total = match self.requests.get_mut(req) {
            Some(RequestState::RecvRendezvous {
                src,
                tag,
                max_len,
                total,
                received,
                landed,
            }) => {
                let in_place = landed.is_none()
                    && offset == *received as u64
                    && received.checked_add(len).is_some_and(|end| end <= *total);
                if !in_place {
                    return err(
                        ErrorClass::Intern,
                        format!("rendezvous data at offset {offset} out of place for {key:?}"),
                    );
                }
                if len == *total {
                    // The frame's buffer *is* the received payload. No copy.
                    let (src, tag, max_len) = (*src, *tag, *max_len);
                    self.complete_recv(req, frame.payload, src, tag, max_len);
                    len
                } else {
                    self.stats.bytes_received += len as u64;
                    *landed = Some((*received, frame.payload));
                    *received += len;
                    if *received < *total {
                        return Ok(());
                    }
                    *total
                }
            }
            // A receive freed (`MPI_Request_free`) after it matched the
            // envelope has no buffer left: its data is swallowed.
            None => len,
            Some(_) => {
                return err(
                    ErrorClass::Intern,
                    "rendezvous data for request in wrong state",
                )
            }
        };
        self.awaiting_rendezvous_data.remove(&key);
        self.emit(
            EventKind::RendezvousData,
            EventPhase::Instant,
            [key.0 as i64, key.1 as i64, total as i64, 0, 0],
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::COMM_WORLD;
    use crate::universe::Universe;
    use mpi_transport::DeviceKind;

    /// The staging pool is bounded per buffer: a giant spent transfer
    /// must not be pinned for reuse by small sends.
    #[test]
    fn oversized_buffers_are_not_pooled() {
        Universe::run(1, DeviceKind::ShmFast, |engine| {
            engine.pool_put(Vec::with_capacity(4 * 1024 * 1024));
            assert!(engine.send_pool.0.is_empty(), "oversized buffer pooled");
            engine.pool_put(Vec::with_capacity(16)); // below the minimum
            assert!(engine.send_pool.0.is_empty(), "tiny buffer pooled");
            engine.pool_put(Vec::with_capacity(64 * 1024));
            assert_eq!(engine.send_pool.0.len(), 1);
        })
        .unwrap();
    }

    /// `pool_take` returns the smallest pooled buffer that fits, in
    /// whichever order the buffers were pooled, and a request below the
    /// pool minimum leaves the pool alone.
    #[test]
    fn pool_take_picks_the_best_fit() {
        Universe::run(1, DeviceKind::ShmFast, |engine| {
            for small_first in [true, false] {
                let small = Vec::with_capacity(4096);
                let large = Vec::with_capacity(1 << 20);
                let (small_ptr, large_ptr) = (small.as_ptr(), large.as_ptr());
                let order = if small_first {
                    [small, large]
                } else {
                    [large, small]
                };
                for buf in order {
                    engine.pool_put(buf);
                }
                let tiny = engine.pool_take(8);
                assert_eq!(
                    engine.send_pool.0.len(),
                    2,
                    "a tiny request took a pooled buffer"
                );
                assert!(tiny.capacity() < 4096);
                let fit = engine.pool_take(4096);
                assert_eq!(
                    fit.as_ptr(),
                    small_ptr,
                    "4 KiB did not take the 4 KiB buffer"
                );
                let big = engine.pool_take(1 << 20);
                assert_eq!(
                    big.as_ptr(),
                    large_ptr,
                    "1 MiB did not take the 1 MiB buffer"
                );
                assert!(engine.send_pool.0.is_empty());
            }
        })
        .unwrap();
    }

    /// A `Copy`-mode send is the binding's marshal copy into a
    /// `pool_take` buffer, sent as a held `Bytes`. In a 1 MiB ping-pong
    /// each send draws the buffer the peer's last message left in the
    /// pool, so after warm-up no send allocates and no pool fills with
    /// idle buffers (a fresh buffer per send would leave every receiver
    /// holding `SEND_POOL_MAX` of them).
    #[test]
    fn copy_mode_ping_pong_reuses_pooled_buffers() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            let rank = engine.world_rank();
            let peer = 1 - rank as i32;
            let payload = vec![7u8; SEND_POOL_MAX_BYTES];
            let mut window = vec![0u8; SEND_POOL_MAX_BYTES];
            let mut seen = std::collections::HashSet::new();
            for round in 0..4 * SEND_POOL_MAX {
                for turn in 0..2 {
                    if turn == rank {
                        let mut buf = engine.pool_take(payload.len());
                        buf.extend_from_slice(&payload);
                        let fresh = seen.insert(buf.as_ptr() as usize);
                        assert!(round == 0 || !fresh, "round {round}: send allocated");
                        engine
                            .send(COMM_WORLD, peer, 0, Bytes::from(buf), SendMode::Standard)
                            .unwrap();
                    } else {
                        engine.recv_into(COMM_WORLD, peer, 0, &mut window).unwrap();
                        assert_eq!(window, payload);
                    }
                    assert!(engine.send_pool.0.len() <= SEND_POOL_MAX);
                }
            }
        })
        .unwrap();
    }

    #[test]
    fn blocking_send_recv_roundtrip() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            if engine.world_rank() == 0 {
                engine
                    .send(COMM_WORLD, 1, 42, b"hello engine", SendMode::Standard)
                    .unwrap();
            } else {
                let (data, status) = engine.recv(COMM_WORLD, 0, 42, Some(64)).unwrap();
                assert_eq!(&data[..], b"hello engine");
                assert_eq!(status.source, 0);
                assert_eq!(status.tag, 42);
                assert_eq!(status.count_bytes, 12);
            }
        })
        .unwrap();
    }

    #[test]
    fn wildcard_source_and_tag_match() {
        Universe::run(3, DeviceKind::ShmFast, |engine| {
            if engine.world_rank() == 0 {
                let mut seen = std::collections::HashSet::new();
                for _ in 0..2 {
                    let (data, status) =
                        engine.recv(COMM_WORLD, ANY_SOURCE, ANY_TAG, None).unwrap();
                    assert_eq!(data.len(), 4);
                    seen.insert(status.source);
                }
                assert_eq!(seen.len(), 2);
            } else {
                let rank = engine.world_rank() as i32;
                engine
                    .send(
                        COMM_WORLD,
                        0,
                        10 + rank,
                        &rank.to_le_bytes(),
                        SendMode::Standard,
                    )
                    .unwrap();
            }
        })
        .unwrap();
    }

    #[test]
    fn messages_do_not_overtake() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            if engine.world_rank() == 0 {
                for i in 0..50i32 {
                    engine
                        .send(COMM_WORLD, 1, 7, &i.to_le_bytes(), SendMode::Standard)
                        .unwrap();
                }
            } else {
                for i in 0..50i32 {
                    let (data, _) = engine.recv(COMM_WORLD, 0, 7, None).unwrap();
                    assert_eq!(i32::from_le_bytes(data[..4].try_into().unwrap()), i);
                }
            }
        })
        .unwrap();
    }

    /// Satellite regression: matching stays FIFO per (context, src, tag)
    /// through the per-context queue split — both on the posted side
    /// (receives posted first) and the unexpected side (messages arrive
    /// first), and independently per communicator context.
    #[test]
    fn per_context_queues_preserve_fifo_matching() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            let dup = engine.comm_dup(COMM_WORLD).unwrap();
            if engine.world_rank() == 0 {
                // Interleave two contexts; within each, messages carry a
                // sequence number under one (src, tag) envelope.
                for i in 0..20i32 {
                    engine
                        .send(COMM_WORLD, 1, 5, &i.to_le_bytes(), SendMode::Standard)
                        .unwrap();
                    engine
                        .send(dup, 1, 5, &(100 + i).to_le_bytes(), SendMode::Standard)
                        .unwrap();
                }
                // Handshake so the unexpected-side phase below is really
                // unexpected (all messages arrive before any receive).
                let (_, _) = engine.recv(COMM_WORLD, 1, 6, None).unwrap();
            } else {
                // Phase 1: post all receives up front (posted-queue FIFO).
                let world_reqs: Vec<_> = (0..10)
                    .map(|_| engine.irecv(COMM_WORLD, 0, 5, None).unwrap())
                    .collect();
                let dup_reqs: Vec<_> = (0..10)
                    .map(|_| engine.irecv(dup, 0, 5, None).unwrap())
                    .collect();
                for (i, req) in world_reqs.into_iter().enumerate() {
                    let c = engine.wait(req).unwrap();
                    let v = i32::from_le_bytes(c.data.unwrap()[..4].try_into().unwrap());
                    assert_eq!(v, i as i32, "posted FIFO broken on COMM_WORLD");
                }
                for (i, req) in dup_reqs.into_iter().enumerate() {
                    let c = engine.wait(req).unwrap();
                    let v = i32::from_le_bytes(c.data.unwrap()[..4].try_into().unwrap());
                    assert_eq!(v, 100 + i as i32, "posted FIFO broken on dup");
                }
                // Phase 2: let the remaining 10+10 messages arrive before
                // receiving (unexpected-queue FIFO). Drain the transport
                // until both queues hold everything.
                loop {
                    while let Some(f) = engine_try_recv(engine) {
                        engine.on_frame(f).unwrap();
                    }
                    let ready = engine.iprobe(COMM_WORLD, 0, 5).unwrap().is_some()
                        && engine.iprobe(dup, 0, 5).unwrap().is_some();
                    if ready {
                        break;
                    }
                    std::thread::yield_now();
                }
                for i in 10..20i32 {
                    let (d, _) = engine.recv(dup, 0, 5, None).unwrap();
                    assert_eq!(
                        i32::from_le_bytes(d[..4].try_into().unwrap()),
                        100 + i,
                        "unexpected FIFO broken on dup"
                    );
                }
                for i in 10..20i32 {
                    let (d, _) = engine.recv(COMM_WORLD, 0, 5, None).unwrap();
                    assert_eq!(
                        i32::from_le_bytes(d[..4].try_into().unwrap()),
                        i,
                        "unexpected FIFO broken on COMM_WORLD"
                    );
                }
                engine
                    .send(COMM_WORLD, 0, 6, b"done", SendMode::Standard)
                    .unwrap();
            }
        })
        .unwrap();
    }

    fn engine_try_recv(engine: &mut Engine) -> Option<Frame> {
        engine.endpoint.try_recv().unwrap()
    }

    #[test]
    fn large_messages_use_rendezvous() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            engine.set_eager_threshold(1024);
            let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
            if engine.world_rank() == 0 {
                engine
                    .send(COMM_WORLD, 1, 3, &payload, SendMode::Standard)
                    .unwrap();
                assert_eq!(engine.stats().rendezvous_sends, 1);
                assert_eq!(engine.stats().eager_sends, 0);
            } else {
                let (data, status) = engine.recv(COMM_WORLD, 0, 3, None).unwrap();
                assert_eq!(data.len(), payload.len());
                assert_eq!(data, payload);
                assert_eq!(status.count_bytes, payload.len());
            }
        })
        .unwrap();
    }

    /// A send of a `Bytes` moves the caller's refcounted buffer into the
    /// frame: no payload bytes are copied on the send side at all.
    #[test]
    fn a_held_send_copies_nothing() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            if engine.world_rank() == 0 {
                let payload = Bytes::from(vec![5u8; 32 * 1024]);
                engine
                    .send(COMM_WORLD, 1, 4, payload.clone(), SendMode::Standard)
                    .unwrap();
                assert_eq!(engine.stats().bytes_copied, 0);
                assert_eq!(engine.stats().eager_sends, 1);
            } else {
                let (data, _) = engine.recv(COMM_WORLD, 0, 4, None).unwrap();
                assert_eq!(data, vec![5u8; 32 * 1024]);
            }
        })
        .unwrap();
    }

    /// An eager delivery hands the receiver the *same* allocation the
    /// sender put on the wire (shared-memory device): the zero-copy
    /// property the datapath is built on, asserted at the `Bytes` level.
    #[test]
    fn shm_eager_delivery_shares_the_sender_allocation() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            if engine.world_rank() == 0 {
                let payload = Bytes::from(vec![9u8; 8 * 1024]);
                engine
                    .send(COMM_WORLD, 1, 11, payload.clone(), SendMode::Standard)
                    .unwrap();
                // Prove to the peer which allocation we sent.
                let (probe, _) = engine.recv(COMM_WORLD, 1, 12, None).unwrap();
                assert_eq!(&probe[..], b"shared");
                // Keep `payload` alive until the peer has checked.
                drop(payload);
            } else {
                let (data, _) = engine.recv(COMM_WORLD, 0, 11, None).unwrap();
                assert_eq!(data.len(), 8 * 1024);
                // The receiver's completion is a view of the very buffer
                // that is still alive on the sender (whose clone is held
                // until our probe below arrives), so unwrapping this —
                // the only receiver-side handle — must fail. If the
                // datapath regressed to copying, the receiver would own a
                // unique buffer and try_into_vec would succeed.
                assert!(data.try_into_vec().is_err(), "delivery was copied");
                engine
                    .send(COMM_WORLD, 0, 12, b"shared", SendMode::Standard)
                    .unwrap();
            }
        })
        .unwrap();
    }

    /// A payload of at most [`bytes::INLINE_CAP`] bytes is staged inside
    /// its `Bytes`: it round-trips without taking a pooled buffer, its
    /// one staging copy is counted as any other, and its spent buffer —
    /// which owns no allocation — is not pooled.
    #[test]
    fn an_inline_payload_leaves_the_staging_pool_alone() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            let payload = [6u8; bytes::INLINE_CAP];
            engine.pool_put(Vec::with_capacity(4096));
            if engine.world_rank() == 0 {
                engine
                    .send(COMM_WORLD, 1, 13, &payload, SendMode::Standard)
                    .unwrap();
                assert_eq!(engine.stats().bytes_copied, payload.len() as u64);
            } else {
                let (data, status) = engine.recv(COMM_WORLD, 0, 13, None).unwrap();
                assert_eq!(
                    (&data[..], status.count_bytes),
                    (&payload[..], payload.len())
                );
                assert_eq!(data.capacity(), 0, "the payload was allocated");
                engine.recycle(data);
            }
            assert_eq!(engine.send_pool.0.len(), 1, "the staging pool changed");
            assert_eq!(engine.send_pool.0[0].capacity(), 4096);
        })
        .unwrap();
    }

    #[test]
    fn synchronous_send_completes_after_match() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            if engine.world_rank() == 0 {
                engine
                    .send(COMM_WORLD, 1, 5, b"ssend", SendMode::Synchronous)
                    .unwrap();
            } else {
                // Delay posting the receive; the ssend must still complete.
                std::thread::sleep(std::time::Duration::from_millis(30));
                let (data, _) = engine.recv(COMM_WORLD, 0, 5, None).unwrap();
                assert_eq!(&data[..], b"ssend");
            }
        })
        .unwrap();
    }

    #[test]
    fn buffered_send_requires_attached_buffer() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            if engine.world_rank() == 0 {
                assert!(engine
                    .send(COMM_WORLD, 1, 1, b"no buffer", SendMode::Buffered)
                    .is_err());
                engine.buffer_attach(1 << 16).unwrap();
                engine
                    .send(COMM_WORLD, 1, 1, b"buffered", SendMode::Buffered)
                    .unwrap();
                assert_eq!(engine.buffer_detach().unwrap(), 1 << 16);
                assert!(engine.buffer_detach().is_err());
            } else {
                let (data, _) = engine.recv(COMM_WORLD, 0, 1, None).unwrap();
                assert_eq!(&data[..], b"buffered");
            }
        })
        .unwrap();
    }

    #[test]
    fn proc_null_operations_complete_immediately() {
        Universe::run(1, DeviceKind::ShmFast, |engine| {
            engine
                .send(COMM_WORLD, PROC_NULL, 0, b"ignored", SendMode::Standard)
                .unwrap();
            let (data, status) = engine.recv(COMM_WORLD, PROC_NULL, 0, None).unwrap();
            assert!(data.is_empty());
            assert_eq!(status.source, PROC_NULL);
        })
        .unwrap();
    }

    #[test]
    fn truncation_is_reported_as_an_error() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            if engine.world_rank() == 0 {
                engine
                    .send(COMM_WORLD, 1, 2, &[0u8; 100], SendMode::Standard)
                    .unwrap();
            } else {
                let result = engine.recv(COMM_WORLD, 0, 2, Some(10));
                match result {
                    Err(e) => assert_eq!(e.class, ErrorClass::Truncate),
                    Ok(_) => panic!("expected truncation error"),
                }
            }
        })
        .unwrap();
    }

    #[test]
    fn invalid_ranks_and_tags_are_rejected() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            assert!(engine
                .isend(COMM_WORLD, 99, 0, b"", SendMode::Standard)
                .is_err());
            assert!(engine
                .isend(COMM_WORLD, 0, -5, b"", SendMode::Standard)
                .is_err());
            assert!(engine.irecv(COMM_WORLD, 99, 0, None).is_err());
        })
        .unwrap();
    }

    #[test]
    fn probe_reports_size_before_receive() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            if engine.world_rank() == 0 {
                engine
                    .send(COMM_WORLD, 1, 77, &[1u8; 48], SendMode::Standard)
                    .unwrap();
            } else {
                let status = engine.probe(COMM_WORLD, 0, 77).unwrap();
                assert_eq!(status.count_bytes, 48);
                assert_eq!(status.source, 0);
                let (data, _) = engine.recv(COMM_WORLD, 0, 77, None).unwrap();
                assert_eq!(data.len(), 48);
            }
        })
        .unwrap();
    }

    #[test]
    fn iprobe_returns_none_when_nothing_matches() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            if engine.world_rank() == 1 {
                assert!(engine.iprobe(COMM_WORLD, 0, 5).unwrap().is_none());
            }
        })
        .unwrap();
    }

    #[test]
    fn sendrecv_exchanges_without_deadlock() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            let rank = engine.world_rank();
            let peer = (1 - rank) as i32;
            let payload = vec![rank as u8; 32 * 1024];
            let (data, status) = engine
                .sendrecv(COMM_WORLD, peer, 9, &payload, peer, 9, None)
                .unwrap();
            assert_eq!(status.source, peer);
            assert!(data.iter().all(|&b| b == (1 - rank) as u8));
        })
        .unwrap();
    }

    /// An exchange whose send fails its checks posts nothing: rank 1's
    /// next tag-3 message waits for rank 0's own receive.
    #[test]
    fn sendrecv_to_an_invalid_rank_posts_no_receive() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            if engine.world_rank() == 1 {
                // Tag 4 follows tag 3 on the same pair: once it is in,
                // so is tag 3 (or its rendezvous announcement).
                let mine = engine.isend(COMM_WORLD, 0, 3, b"mine", SendMode::Standard);
                let last = engine.isend(COMM_WORLD, 0, 4, b"", SendMode::Standard);
                engine.wait(last.unwrap()).unwrap();
                engine.wait(mine.unwrap()).unwrap();
                return;
            }
            let failed = engine.sendrecv(COMM_WORLD, 5, 3, b"lost", 1, 3, None);
            assert_eq!(failed.unwrap_err().class, ErrorClass::Rank);
            engine.recv(COMM_WORLD, 1, 4, None).unwrap();
            assert!(engine.iprobe(COMM_WORLD, 1, 3).unwrap().is_some());
            let (data, _) = engine.recv(COMM_WORLD, 1, 3, None).unwrap();
            assert_eq!(&data[..], b"mine");
        })
        .unwrap();
    }
}
