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
//!   [`FrameKind::RendezvousAck`]; the sender then ships the payload in one
//!   [`FrameKind::RendezvousData`] frame and completes. Because the ack is
//!   only generated once a matching receive exists, this doubles as the
//!   synchronous-mode completion rule.
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
//! | eager send ([`Engine::isend`]) | user slice → pooled send buffer | `extend_from_slice` into a recycled `Vec` wrapped as `Bytes` | 1 |
//! | eager send ([`Engine::isend_bytes`]) | user `Bytes` → frame | refcount move | 0 |
//! | eager delivery | frame → inbox → completion | the *same* `Bytes` end to end | 0 |
//! | rendezvous send ([`Engine::isend`]) | user slice → `PendingRendezvous` | pooled copy, held until the ack | 1 |
//! | rendezvous data | held `Bytes` → data frame | refcount move | 0 |
//! | receive completion ([`Engine::recv`]) | completion → caller | `Bytes` handover | 0 |
//! | [`Engine::recv_into`] | completion `Bytes` → user slice | `copy_from_slice`; spent buffer recycled into the send pool | 1 |
//!
//! End to end, a transfer therefore costs exactly one copy on the send
//! side (zero via [`Engine::isend_bytes`]) and exactly one on the receive
//! side.
//!
//! ### Surface rows
//!
//! What a call of the `mpijava` binding costs in passes over the payload,
//! the binding's own and the engine's above together, for a dense
//! datatype over a numeric element type. A payload the binding marshals
//! into a buffer it owns is handed over by ownership
//! ([`Engine::isend_bytes`]: the engine copies nothing); only a slice
//! lent under `Pin` takes [`Engine::isend`]'s staging copy.
//!
//! | call | mode | send-side passes | receive-side passes |
//! |------|------|------------------|---------------------|
//! | classic `Send`, `Isend`, `Sendrecv` (and the `rs` `send`, `isend`, `sendrecv`, which are these calls) | `Copy` | 1: the block copy across the boundary (`Get*ArrayRegion`) into a buffer from the engine's staging pool; that buffer is the message | — |
//! | the same | `Pin` | 1: the engine's staging copy of the lent slice | — |
//! | persistent send `Start` (classic `Prequest`, `rs` `PersistentRequest`) | `Copy` / `Pin` | 1 / 1: as `Send`; [`Engine::start`] takes the marshalled payload, and the engine stores none | — |
//! | classic `Recv` (`rs` `recv_into`) | either | — | 1: [`Engine::recv_into`] delivers into the window's byte view |
//! | classic `Irecv`, `Sendrecv`, collective results | either | — | 1: one store from the completion buffer into the window |
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

/// Payload parked on the sender side until the receiver grants the
/// rendezvous. The payload was copied exactly once (at the `isend`
/// boundary, into a pooled buffer); everything after this struct is
/// refcount moves and zero-copy slices.
#[derive(Debug)]
pub(crate) struct PendingRendezvous {
    pub req: u64,
    pub dst_world: u32,
    pub context: u32,
    pub tag: i32,
    pub data: Bytes,
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

    /// An empty buffer with room for `len` bytes: a pooled one when the
    /// pool holds one, else a fresh allocation. The binding's `Copy`-mode
    /// marshal copy lands here too, so the buffer a receiver recycled
    /// carries its next send and a steady ping-pong allocates nothing.
    pub fn pool_take(&mut self, len: usize) -> Vec<u8> {
        let mut buf = self.send_pool.pop().unwrap_or_default();
        buf.reserve(len);
        buf
    }

    /// Copy `data` into a pooled staging buffer and wrap it as `Bytes`
    /// without a second copy. This is the *single* send-side copy of the
    /// slice-based send APIs.
    fn wrap_payload(&mut self, data: &[u8]) -> Bytes {
        let mut buf = self.pool_take(data.len());
        buf.extend_from_slice(data);
        self.stats.bytes_copied += data.len() as u64;
        Bytes::from(buf)
    }

    /// Return a spent buffer to the staging pool (bounded in count and
    /// per-buffer capacity; tiny buffers are not worth keeping).
    pub(crate) fn pool_put(&mut self, mut buf: Vec<u8>) {
        if (SEND_POOL_MIN_BYTES..=SEND_POOL_MAX_BYTES).contains(&buf.capacity())
            && self.send_pool.len() < SEND_POOL_MAX
        {
            buf.clear();
            self.send_pool.push(buf);
        }
    }

    /// Recycle a completion payload the caller is done with: if this was
    /// the last reference to an un-sliced buffer, its allocation feeds the
    /// send pool (no copy either way).
    pub fn recycle(&mut self, data: Bytes) {
        if let Ok(buf) = data.try_into_vec() {
            self.pool_put(buf);
        }
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
    /// `data` is the already-packed contiguous payload; it is copied
    /// exactly once, into a pooled staging buffer. Callers that already
    /// own a [`Bytes`] should use [`Engine::isend_bytes`], which copies
    /// nothing.
    pub fn isend(
        &mut self,
        comm: CommHandle,
        dest: i32,
        tag: i32,
        data: &[u8],
        mode: SendMode,
    ) -> Result<RequestId> {
        self.isend_on_context(comm, dest, tag, data, mode, false)
    }

    /// Zero-copy send: the payload is an owned [`Bytes`] that travels to
    /// the destination by refcount alone (eager) or is held for the
    /// rendezvous without duplication. `stats().bytes_copied` does not
    /// move on this path.
    pub fn isend_bytes(
        &mut self,
        comm: CommHandle,
        dest: i32,
        tag: i32,
        data: Bytes,
        mode: SendMode,
    ) -> Result<RequestId> {
        self.isend_bytes_on_context(comm, dest, tag, data, mode, false)
    }

    /// Zero-copy send on either context (the RMA subsystem ships window
    /// payloads and sync markers on the collective context, so user
    /// `ANY_TAG` receives can never steal them).
    pub(crate) fn isend_bytes_on_context(
        &mut self,
        comm: CommHandle,
        dest: i32,
        tag: i32,
        data: Bytes,
        mode: SendMode,
        collective: bool,
    ) -> Result<RequestId> {
        match self.prepare_send(comm, dest, tag, data.len(), mode)? {
            None => Ok(self.alloc_request(RequestState::SendComplete)),
            Some(dest) => self.dispatch_send(comm, dest, tag, data, mode, collective),
        }
    }

    pub(crate) fn isend_on_context(
        &mut self,
        comm: CommHandle,
        dest: i32,
        tag: i32,
        data: &[u8],
        mode: SendMode,
        collective: bool,
    ) -> Result<RequestId> {
        match self.prepare_send(comm, dest, tag, data.len(), mode)? {
            None => Ok(self.alloc_request(RequestState::SendComplete)),
            Some(dest) => {
                let payload = self.wrap_payload(data);
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
        let use_rendezvous = match mode {
            SendMode::Synchronous => true,
            SendMode::Buffered | SendMode::Ready => false,
            SendMode::Standard => payload.len() > self.eager_threshold,
        };
        self.stats.bytes_sent += payload.len() as u64;
        let len = payload.len() as i64;

        if use_rendezvous {
            let token = self.next_token();
            let req = self.alloc_request(RequestState::SendPendingRendezvous);
            let RequestId(req_raw) = req;
            let header = self.make_header(
                comm,
                dest,
                tag,
                FrameKind::RendezvousRequest,
                token,
                payload.len() as u64,
                collective,
            )?;
            let dst = header.dst as i64;
            self.pending_rendezvous.insert(
                token,
                PendingRendezvous {
                    req: req_raw,
                    dst_world: header.dst,
                    context: header.context,
                    tag,
                    data: payload,
                },
            );
            self.endpoint.send(Frame::control(header))?;
            self.stats.rendezvous_sends += 1;
            // The matching End is emitted when the data ships on ACK
            // (`on_rendezvous_ack`), bracketing the handshake. The token
            // stamp joins this interval with the receiver's events.
            self.emit_full(
                EventKind::SendRendezvous,
                EventPhase::Begin,
                dst,
                tag as i64,
                len,
                token as i64,
                0,
            );
            Ok(req)
        } else {
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
            self.emit_full(
                EventKind::SendEager,
                EventPhase::Begin,
                dst,
                tag as i64,
                len,
                token as i64,
                0,
            );
            self.endpoint.send(Frame::new(header, payload))?;
            self.stats.eager_sends += 1;
            self.emit_full(
                EventKind::SendEager,
                EventPhase::End,
                dst,
                tag as i64,
                len,
                token as i64,
                0,
            );
            Ok(self.alloc_request(RequestState::SendComplete))
        }
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
        self.irecv_on_context(comm, src, tag, max_len, false)
    }

    pub(crate) fn irecv_on_context(
        &mut self,
        comm: CommHandle,
        src: i32,
        tag: i32,
        max_len: Option<usize>,
        collective: bool,
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
                self.grant_rendezvous(recv.req, src, recv.max_len, context, &msg)
            }
        }
    }

    /// Grant a rendezvous to receive `req` (`src` is the sender's rank in
    /// the receive's communicator): the request awaits the data frame
    /// under `(sender, token)`, and the sender gets its ack. Completion
    /// happens when the data frame arrives.
    pub(crate) fn grant_rendezvous(
        &mut self,
        req: u64,
        src: usize,
        max_len: Option<usize>,
        context: u32,
        msg: &UnexpectedMsg,
    ) -> Result<()> {
        self.emit(
            EventKind::RendezvousGrant,
            EventPhase::Instant,
            msg.src_world as i64,
            msg.token as i64,
            msg.msg_len as i64,
        );
        self.awaiting_rendezvous_data
            .insert((msg.src_world, msg.token), req);
        self.requests.insert(
            req,
            RequestState::RecvAwaitingData {
                src: src as i32,
                tag: msg.tag,
                max_len,
            },
        );
        let ack = FrameHeader {
            kind: FrameKind::RendezvousAck,
            src: self.world_rank as u32,
            dst: msg.src_world,
            tag: msg.tag,
            context,
            token: msg.token,
            msg_len: msg.msg_len,
        };
        self.endpoint.send(Frame::control(ack))?;
        Ok(())
    }

    // ---------------------------------------------------------------------
    // Blocking convenience wrappers
    // ---------------------------------------------------------------------

    /// Blocking send (`MPI_Send` / `Bsend` / `Ssend` / `Rsend`).
    pub fn send(
        &mut self,
        comm: CommHandle,
        dest: i32,
        tag: i32,
        data: &[u8],
        mode: SendMode,
    ) -> Result<()> {
        let req = self.isend(comm, dest, tag, data, mode)?;
        self.wait(req)?;
        Ok(())
    }

    /// Blocking zero-copy send (see [`Engine::isend_bytes`]).
    pub fn send_bytes(
        &mut self,
        comm: CommHandle,
        dest: i32,
        tag: i32,
        data: Bytes,
        mode: SendMode,
    ) -> Result<()> {
        let req = self.isend_bytes(comm, dest, tag, data, mode)?;
        self.wait(req)?;
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
    /// receive-side payload copy of the datapath. The spent transport
    /// buffer is recycled into the send pool when this was its last
    /// reference. Returns the status; `status.count_bytes` says how much
    /// of `buf` was filled.
    pub fn recv_into(
        &mut self,
        comm: CommHandle,
        src: i32,
        tag: i32,
        buf: &mut [u8],
    ) -> Result<StatusInfo> {
        let req = self.irecv(comm, src, tag, Some(buf.len()))?;
        let completion = self.wait(req)?;
        if let Some(data) = completion.data {
            let n = data.len().min(buf.len());
            buf[..n].copy_from_slice(&data[..n]);
            self.stats.bytes_copied += n as u64;
            self.recycle(data);
        }
        Ok(completion.status)
    }

    /// `MPI_Sendrecv`: exchange with possibly different partners without
    /// deadlocking.
    #[allow(clippy::too_many_arguments)]
    pub fn sendrecv(
        &mut self,
        comm: CommHandle,
        dest: i32,
        send_tag: i32,
        send_data: &[u8],
        src: i32,
        recv_tag: i32,
        max_len: Option<usize>,
    ) -> Result<(Bytes, StatusInfo)> {
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
        loop {
            if let Some(status) = self.iprobe(comm, src, tag)? {
                return Ok(status);
            }
            if self.aborted {
                return err(ErrorClass::Aborted, "job aborted while probing");
            }
            self.probe_check_failed(comm, src)?;
            self.blocking_pump()?;
        }
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
            self.emit_at_full(
                now,
                EventKind::RecvPosted,
                EventPhase::Instant,
                msg.src_world as i64,
                msg.tag as i64,
                msg.msg_len as i64,
                msg.token as i64,
                wait as i64,
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
            self.emit_at_full(
                now,
                EventKind::RecvUnexpected,
                EventPhase::Instant,
                msg.src_world as i64,
                msg.tag as i64,
                msg.msg_len as i64,
                msg.token as i64,
                wait as i64,
            );
        }
    }

    /// The receiver granted a rendezvous: ship the held payload as one
    /// frame whose `Bytes` is the held buffer itself.
    fn on_rendezvous_ack(&mut self, frame: Frame) -> Result<()> {
        let token = frame.header.token;
        let Some(pending) = self.pending_rendezvous.remove(&token) else {
            return err(
                ErrorClass::Intern,
                format!("rendezvous ack for unknown token {token}"),
            );
        };
        let total = pending.data.len();
        let (rdv_dst, rdv_tag) = (pending.dst_world as i64, pending.tag as i64);
        let header = FrameHeader {
            kind: FrameKind::RendezvousData,
            src: self.world_rank as u32,
            dst: pending.dst_world,
            tag: pending.tag,
            context: pending.context,
            token,
            msg_len: total as u64,
        };
        self.endpoint.send(Frame::new(header, pending.data))?;
        self.requests.set(pending.req, RequestState::SendComplete);
        self.emit_full(
            EventKind::SendRendezvous,
            EventPhase::End,
            rdv_dst,
            rdv_tag,
            total as i64,
            token as i64,
            0,
        );
        Ok(())
    }

    fn on_rendezvous_data(&mut self, frame: Frame) -> Result<()> {
        let key = (frame.header.src, frame.header.token);
        let Some(req) = self.awaiting_rendezvous_data.remove(&key) else {
            return err(
                ErrorClass::Intern,
                format!("rendezvous data for unknown sender/token {key:?}"),
            );
        };
        // A receive freed (`MPI_Request_free`) after it matched the
        // envelope has no buffer left: its data is swallowed.
        let target = match self.requests.get(req) {
            Some(&RequestState::RecvAwaitingData { src, tag, max_len }) => {
                Some((src, tag, max_len))
            }
            None => None,
            Some(_) => {
                return err(
                    ErrorClass::Intern,
                    "rendezvous data for request in wrong state",
                )
            }
        };
        self.emit(
            EventKind::RendezvousData,
            EventPhase::Instant,
            key.0 as i64,
            key.1 as i64,
            frame.header.msg_len as i64,
        );
        if let Some((src, tag, max_len)) = target {
            // The frame's buffer *is* the received payload. No copy.
            self.complete_recv(req, frame.payload, src, tag, max_len);
        }
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
            assert!(engine.send_pool.is_empty(), "oversized buffer pooled");
            engine.pool_put(Vec::with_capacity(16)); // below the minimum
            assert!(engine.send_pool.is_empty(), "tiny buffer pooled");
            engine.pool_put(Vec::with_capacity(64 * 1024));
            assert_eq!(engine.send_pool.len(), 1);
        })
        .unwrap();
    }

    /// A `Copy`-mode send is the binding's marshal copy into a
    /// `pool_take` buffer, sent by `isend_bytes`. In a 1 MiB ping-pong
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
                            .send_bytes(COMM_WORLD, peer, 0, Bytes::from(buf), SendMode::Standard)
                            .unwrap();
                    } else {
                        engine.recv_into(COMM_WORLD, peer, 0, &mut window).unwrap();
                        assert_eq!(window, payload);
                    }
                    assert!(engine.send_pool.len() <= SEND_POOL_MAX);
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

    /// `isend_bytes` moves the caller's refcounted buffer into the frame:
    /// no payload bytes are copied on the send side at all.
    #[test]
    fn isend_bytes_copies_nothing() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            if engine.world_rank() == 0 {
                let payload = Bytes::from(vec![5u8; 32 * 1024]);
                engine
                    .send_bytes(COMM_WORLD, 1, 4, payload.clone(), SendMode::Standard)
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
                    .send_bytes(COMM_WORLD, 1, 11, payload.clone(), SendMode::Standard)
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
}
