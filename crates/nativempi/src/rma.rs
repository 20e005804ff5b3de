//! One-sided communication: memory windows, `put`/`get`/`accumulate`,
//! and the fence / lock–unlock synchronization epochs (MPI-2 RMA,
//! exposed by the mpiJava follow-on work the paper's section 5 sketches).
//!
//! # Epoch model: target-side applied-at-sync
//!
//! The engine implements the *deferred* (IBM-style) RMA memory model:
//! an origin's `put`/`accumulate`/`get` does **not** touch the target's
//! window when its bytes arrive. Arrivals park, in per-origin FIFO
//! order, in the target's window state, and are applied only when a
//! synchronization point covering them is reached:
//!
//! * **Fence epochs** ([`Engine::win_fence`]) — collective over the
//!   window's communicator. Each rank streams a fence *marker* to every
//!   rank, itself included, on the same ordered channel as the
//!   operations themselves, so the marker's queue position delimits the
//!   epoch exactly. A target applies an epoch once **every** origin's
//!   marker has arrived, applying origins in **rank order** (and each
//!   origin's operations in issue order) — which is what makes
//!   concurrent `accumulate`s from two origins deterministic on every
//!   device.
//! * **Passive-target epochs** ([`Engine::win_lock`] /
//!   [`Engine::win_unlock`], with [`Engine::win_flush`] inside) — the
//!   origin acquires an exclusive lock (granted by the target's progress
//!   engine), streams operations, and closes with a flush marker; the
//!   target applies that origin's run of operations when the marker is
//!   reached and answers with a flush-ack. Lock exclusivity serializes
//!   origins, so passive epochs are deterministic too.
//!
//! Local window memory obeys the matching rules: the region exposed to
//! peers ([`Engine::win_region`]) is stable between synchronization
//! calls, and updates from peers become visible only after the rank's
//! own sync call returns. `get` results are likewise retrievable only
//! after the covering sync ([`Engine::win_get_take`]).
//!
//! # On the engine's own mechanisms
//!
//! * **Self is a peer.** Every message — operation, fence or flush
//!   marker, lock request, grant, flush-ack, `get` reply — goes through
//!   the device, a rank's messages to itself over the device loopback.
//!   A target sees its own operations in the same queues as a peer's and
//!   applies them with the same code, and self traffic shows up in the
//!   message counts like any other.
//! * **A `get` is a request.** [`Engine::win_get`] returns the
//!   [`RequestId`] of the reply receive it posts, an entry of the one
//!   request table (see [`crate::request`]). The window lists only the
//!   gets not yet taken, and which of them a covering sync has reached.
//! * **One blocking loop.** Every sync blocks in `Engine::block_on`, the
//!   loop behind [`Engine::wait`], on a predicate over its epoch state;
//!   a dead member of the window's communicator fails the predicate.
//!
//! # Errors from the target
//!
//! An operation outside the target's window is skipped, the rest of its
//! epoch is applied, and the `Buffer` error is reported once: by the
//! target's fence for a fence epoch, by the origin's flush or unlock
//! (through the flush-ack) for a passive one — never by an unrelated call
//! that happened to drive progress. An out-of-range `get` is still
//! answered, with a reply whose length differs from the request, so the
//! origin's covering sync reports `Buffer` too, and so does taking it.
//!
//! # Wire protocol and tag accounting
//!
//! RMA rides the ordinary point-to-point datapath of [`crate::p2p`] on
//! the communicator's **collective context**, so user-facing `ANY_TAG`
//! receives can never steal window traffic. Below the collective tag
//! windows (which bottom out near −525k, see `crate::coll::nb`), the
//! space at and below `RMA_TAG_BASE` (−1 048 576) is carved into
//! per-window channels of `TAGS_PER_WINDOW` (4) tags:
//!
//! | channel | tag            | carries                                   |
//! |---------|----------------|-------------------------------------------|
//! | data    | `base`         | one message per operation, fence/flush markers, lock requests |
//! | reply   | `base − 1`     | `get` replies (target → origin)           |
//! | ack     | `base − 2`     | lock grants and flush-acks                |
//!
//! A data-channel message is self-describing: its header (the op code,
//! then an operation's `offset` and `len`, then an accumulate's kind
//! and reduction codes), followed by a `put`'s or `accumulate`'s `len`
//! payload bytes in the same message. A `get` header, a marker and a
//! lock request carry no payload; at most [`bytes::INLINE_CAP`] bytes,
//! they are inline `Bytes`, as is every ack.
//!
//! `win_create` is collective, so the per-communicator window sequence
//! counter lines the channels up on every rank with no communication.
//! Everything an origin sends on the data channel is ordered by the
//! transport's non-overtaking guarantee, which is the only ordering the
//! epoch machinery relies on.
//!
//! Because RMA rides the p2p datapath, its waits are classified for
//! free by the [`crate::trace`] wait-state machinery: any posted
//! receive that blocks on a tag at or below `RMA_TAG_BASE` — a lock
//! grant, a flush-ack, a `get` reply, a rank's own included — is
//! counted as a *progress-starved RMA target* wait
//! ([`crate::trace::WaitClass::RmaTarget`]), distinct from user-tag
//! late-sender waits and collective-window imbalance waits. A passive
//! target that never enters the library starves its origins, and the
//! `engine.wait.rma_target_*` pvars (and the offline `traceanalyze`
//! report) make that visible.
//!
//! # Copy inventory (extends the table in [`crate::p2p`])
//!
//! | operation                        | copies | where                          |
//! |----------------------------------|--------|--------------------------------|
//! | `win_put` / `win_accumulate`     | 1      | origin staging, after the header (uncounted) in one buffer |
//! | put/accumulate application       | 1      | target region write            |
//! | `get` reply                      | 1      | target staging of the region   |
//! | `win_get_take`                   | 0      | the reply's buffer, handed over |
//! | `win_get_take_into`              | 1      | origin delivery copy, as `recv_into` |
//!
//! The target applies a put or accumulate straight from a zero-copy
//! slice of the message it arrived in. The loopback moves a buffer
//! without copying, so a rank's operations on its own window cost the
//! same. A message above the eager limit, header and payload together,
//! is one rendezvous exactly like two-sided traffic: the target's
//! progress hook grants parked rendezvous envelopes on the data channel
//! the same way a posted receive would.

use std::collections::{HashSet, VecDeque};

use bytes::Bytes;

use crate::coll::{CollDesc, Payload};
use crate::comm::CommHandle;
use crate::error::{err, ErrorClass, MpiError, Result};
use crate::ops::{Op, PredefinedOp};
use crate::p2p::SendBuf;
use crate::request::{RequestId, RequestState};
use crate::types::{PrimitiveKind, SendMode};
use crate::Engine;

/// Top of the tag space reserved for RMA window channels — kept well
/// below the deepest collective tag window so the two subsystems can
/// never collide.
pub(crate) const RMA_TAG_BASE: i32 = -1_048_576;

/// Tags consumed per window (data, reply, ack — one spare).
pub(crate) const TAGS_PER_WINDOW: i32 = 4;

/// Window sequence numbers wrap here; a collision needs this many
/// windows *live at once* on one communicator.
const WIN_SEQ_SPACE: u64 = 4096;

// Wire op codes (first byte of every data-channel message).
const OP_PUT: u8 = 0;
const OP_ACC: u8 = 1;
const OP_GET: u8 = 2;
const OP_FENCE: u8 = 3;
const OP_FLUSH: u8 = 4;
const OP_LOCK: u8 = 5;

// Ack-channel payloads.
const ACK_LOCK_GRANT: u8 = 1;
const ACK_FLUSH_DONE: u8 = 2;
/// Flush-ack of a passive run in which an operation failed at the
/// target (fell outside its window).
const ACK_FLUSH_FAILED: u8 = 3;

/// Accumulate element kinds by wire code: the code is the index.
const KINDS: [PrimitiveKind; 14] = {
    use PrimitiveKind::*;
    [
        Byte, Char, Boolean, Short, Int, Long, Float, Double, Packed, Int2, Long2, Float2, Double2,
        Short2,
    ]
};

/// Accumulate reductions by wire code: the code is the index.
const OPS: [PredefinedOp; 12] = {
    use PredefinedOp::*;
    [
        Max, Min, Sum, Prod, Land, Band, Lor, Bor, Lxor, Bxor, Maxloc, Minloc,
    ]
};

fn code_of<T: PartialEq>(table: &[T], value: T) -> u8 {
    table
        .iter()
        .position(|v| *v == value)
        .expect("every variant has a wire code") as u8
}

/// Decode a wire code; the byte comes off a device, so an unknown one is
/// an `Intern` error.
fn from_code<T: Copy>(table: &[T], code: u8, what: &str) -> Result<T> {
    match table.get(code as usize) {
        Some(&value) => Ok(value),
        None => err(ErrorClass::Intern, format!("bad RMA {what} code {code}")),
    }
}

fn kind_code(kind: PrimitiveKind) -> u8 {
    code_of(&KINDS, kind)
}

fn op_code(op: PredefinedOp) -> u8 {
    code_of(&OPS, op)
}

/// Handle to an open one-sided memory window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WinHandle(pub(crate) u64);

/// A data-channel message that is either fully here or still awaiting
/// its rendezvous data frame.
#[derive(Debug)]
enum Arrival {
    Ready(Bytes),
    Awaiting(RequestId),
}

/// A parsed data-channel message: an operation parked at the target,
/// a marker, or a lock request.
#[derive(Debug)]
enum RmaEntry {
    /// `data` is a zero-copy slice of the message it arrived in.
    Put {
        offset: usize,
        data: Bytes,
    },
    /// As `Put`.
    Acc {
        offset: usize,
        kind: PrimitiveKind,
        op: PredefinedOp,
        data: Bytes,
    },
    Get {
        offset: usize,
        len: usize,
    },
    /// Fence marker: everything this origin queued before it belongs to
    /// the closing epoch.
    Fence,
    /// Flush marker of a passive-target epoch (`release` on unlock).
    Flush {
        release: bool,
    },
    /// A passive-target lock request: acted on when parsed, never queued.
    Lock,
}

/// Decode a whole data-channel message; a put's or accumulate's payload
/// is a zero-copy slice of it. A message shorter than its op code's
/// header, with an unknown op, kind or reduction code, or whose length
/// is not its header plus the header's `len` payload bytes (none but
/// for a put or accumulate) is an `Intern` error: these bytes come off a
/// device, so they must never index out of range.
fn decode(message: &Bytes) -> Result<RmaEntry> {
    let header_len = match message.first() {
        Some(&(OP_PUT | OP_GET)) => 17,
        Some(&OP_ACC) => 19,
        Some(&OP_FLUSH) => 2,
        Some(&(OP_FENCE | OP_LOCK)) => 1,
        other => return err(ErrorClass::Intern, format!("bad RMA op code {other:?}")),
    };
    let at = |i: usize| u64::from_le_bytes(message[i..i + 8].try_into().expect("8 bytes")) as usize;
    let payload_len = match message[0] {
        OP_PUT | OP_ACC if message.len() >= 17 => at(9),
        _ => 0,
    };
    if message.len().checked_sub(header_len) != Some(payload_len) {
        return err(
            ErrorClass::Intern,
            format!(
                "RMA message of {} bytes for op code {}, need {header_len} + {payload_len}",
                message.len(),
                message[0]
            ),
        );
    }
    let data = || message.slice(header_len..);
    Ok(match message[0] {
        OP_PUT => RmaEntry::Put {
            offset: at(1),
            data: data(),
        },
        OP_ACC => RmaEntry::Acc {
            offset: at(1),
            kind: from_code(&KINDS, message[17], "kind")?,
            op: from_code(&OPS, message[18], "reduction")?,
            data: data(),
        },
        OP_GET => RmaEntry::Get {
            offset: at(1),
            len: at(9),
        },
        OP_FENCE => RmaEntry::Fence,
        OP_FLUSH => RmaEntry::Flush {
            release: message[1] != 0,
        },
        _ => RmaEntry::Lock,
    })
}

/// Per-origin arrival state at the target.
#[derive(Debug, Default)]
struct OriginState {
    /// Undecoded data-channel messages, in transport order. Only the
    /// front is ever inspected, so a rendezvous message that is still
    /// assembling stalls decoding (never reorders it).
    raw: VecDeque<Arrival>,
    /// Decoded operations awaiting their covering sync.
    queue: VecDeque<RmaEntry>,
}

impl OriginState {
    /// The first fence or flush marker queued, if any: what the next
    /// application of this origin's operations stops at.
    fn first_marker(&self) -> Option<&RmaEntry> {
        self.queue
            .iter()
            .find(|e| matches!(e, RmaEntry::Fence | RmaEntry::Flush { .. }))
    }
}

/// A `get` not yet taken: its reply receive in the request table.
#[derive(Debug)]
struct GetRec {
    req: RequestId,
    target: usize,
    len: usize,
    /// A covering sync (fence, or flush/unlock of `target`) completed.
    synced: bool,
}

/// Full state of one open window (engine-internal).
#[derive(Debug, Default)]
pub(crate) struct WindowState {
    comm: CommHandle,
    context_coll: u32,
    size: usize,
    data_tag: i32,
    reply_tag: i32,
    ack_tag: i32,
    region: Vec<u8>,
    /// Peers modified the region since the last `win_take_dirty`.
    dirty: bool,
    incoming: Vec<OriginState>,
    /// The exclusive passive-target lock: its holder, then who waits.
    lock_holder: Option<usize>,
    lock_waiters: VecDeque<usize>,
    /// The first operation of a fence epoch that failed here (fell
    /// outside the region); the fence closing the epoch reports it.
    failed: Option<MpiError>,
    // Origin-side state.
    send_reqs: Vec<RequestId>,
    gets: Vec<GetRec>,
    /// Fence-epoch ops issued since the last `win_fence`.
    unsynced_ops: u64,
    fences_started: u64,
    fences_applied: u64,
    locks_held: HashSet<usize>,
}

impl WindowState {
    /// Why the window cannot be freed now, or `None` when it is quiet:
    /// the one refusal of `win_free` and `finalize`. With `sends` false
    /// it names only what the caller can cause: this rank's sends still
    /// in flight then do not count, since a target's own answers (lock
    /// grants, flush-acks, `get` replies) may still be shipping after
    /// the origin's sync is reached.
    fn busy(&self, sends: bool) -> Option<&'static str> {
        if self.unsynced_ops > 0
            || (sends && !self.send_reqs.is_empty())
            || self.fences_applied < self.fences_started
        {
            Some("an un-synced RMA epoch")
        } else if !self.locks_held.is_empty() {
            Some("a passive-target lock held")
        } else if self.lock_holder.is_some() || !self.lock_waiters.is_empty() {
            Some("the window locked by a peer")
        } else if self.gets.iter().any(|g| !g.synced) {
            Some("un-synced outstanding gets")
        } else if self
            .incoming
            .iter()
            .any(|o| !o.raw.is_empty() || !o.queue.is_empty())
        {
            Some("unapplied peer operations (missing sync)")
        } else {
            None
        }
    }

    /// The byte range `offset..offset + len` of the region, or the
    /// `Buffer` error of an operation that falls outside it.
    fn span(&self, offset: usize, len: usize, what: &str) -> Result<std::ops::Range<usize>> {
        match offset.checked_add(len) {
            Some(end) if end <= self.region.len() => Ok(offset..end),
            _ => err(
                ErrorClass::Buffer,
                format!(
                    "{what} of {len} bytes at offset {offset} exceeds window of {} bytes",
                    self.region.len()
                ),
            ),
        }
    }
}

impl Engine {
    /// `MPI_Win_create`: expose `region` for one-sided access by the
    /// ranks of `comm`. Collective by convention (every rank must call
    /// it the same number of times per communicator, which is what keeps
    /// the window tag channels aligned) but performs no communication.
    pub fn win_create(&mut self, comm: CommHandle, region: Vec<u8>) -> Result<WinHandle> {
        self.check_live()?;
        let size = self.comm_size(comm)?;
        let record = self.comm_mut(comm)?;
        let (context_coll, seq) = (record.context_coll, record.win_seq);
        record.win_seq += 1;
        let base = RMA_TAG_BASE - TAGS_PER_WINDOW * ((seq % WIN_SEQ_SPACE) as i32);
        let id = self.next_win;
        self.next_win += 1;
        self.windows.insert(
            id,
            WindowState {
                comm,
                context_coll,
                size,
                data_tag: base,
                reply_tag: base - 1,
                ack_tag: base - 2,
                region,
                incoming: (0..size).map(|_| OriginState::default()).collect(),
                ..WindowState::default()
            },
        );
        Ok(WinHandle(id))
    }

    /// `MPI_Win_free`: collective teardown. Refuses a window that is not
    /// quiet (un-synced epochs, held locks, un-synced gets), drains this
    /// rank's own answers still in flight, then barriers so no peer can
    /// still have window traffic in flight, and returns the exposed
    /// region to the caller. Gets never taken are dropped with the window.
    pub fn win_free(&mut self, win: WinHandle) -> Result<Vec<u8>> {
        self.check_live()?;
        self.rma_progress()?;
        self.refuse_busy(win, false)?;
        // A rendezvous answer completes once its origin's grant is
        // pumped; like every sync, the wait fails on a dead member.
        let comm = self.win_state(win)?.comm;
        self.block_on(|engine| {
            engine.rma_check_failed(comm)?;
            Ok(engine.win_state(win)?.send_reqs.is_empty().then_some(()))
        })?;
        // No peer may touch the window after its rank returns from
        // win_free, so a barrier separates the last epoch from teardown.
        self.coll_run(comm, &CollDesc::Barrier, Payload::Bytes(&[]))?;
        self.rma_progress()?;
        self.refuse_busy(win, true)?;
        let st = self.windows.remove(&win.0).expect("checked above");
        for get in st.gets {
            self.requests.remove(get.req.0);
        }
        Ok(st.region)
    }

    fn refuse_busy(&self, win: WinHandle, sends: bool) -> Result<()> {
        match self.win_state(win)?.busy(sends) {
            Some(why) => err(ErrorClass::Other, format!("win_free called with {why}")),
            None => Ok(()),
        }
    }

    /// Read access to the locally exposed region. Contents reflect peer
    /// updates only up to the last completed synchronization.
    pub fn win_region(&self, win: WinHandle) -> Result<&[u8]> {
        Ok(&self.win_state(win)?.region)
    }

    /// Local load/store access to the exposed region (valid between
    /// epochs, per the window memory rules).
    pub fn win_region_mut(&mut self, win: WinHandle) -> Result<&mut [u8]> {
        Ok(&mut self.win_state_mut(win)?.region)
    }

    /// True if peers modified the region since the last call — the
    /// binding layer's cue to refresh its typed shadow copy.
    pub fn win_take_dirty(&mut self, win: WinHandle) -> Result<bool> {
        let st = self.win_state_mut(win)?;
        Ok(std::mem::take(&mut st.dirty))
    }

    /// `MPI_Put` from a slice: one staging copy, behind the header in
    /// the operation's one message, then the zero-copy datapath (mirrors
    /// the two-sided slice send).
    pub fn win_put(
        &mut self,
        win: WinHandle,
        target: usize,
        offset: usize,
        data: &[u8],
    ) -> Result<()> {
        self.rma_op(win, target, &[OP_PUT], offset, data.len(), data)
    }

    /// `MPI_Accumulate` with a predefined reduction (the wire carries
    /// the op code, so user functions are origin-local and unsupported
    /// here). Element count is `data.len() / kind.size()`.
    pub fn win_accumulate(
        &mut self,
        win: WinHandle,
        target: usize,
        offset: usize,
        data: &[u8],
        kind: PrimitiveKind,
        op: PredefinedOp,
    ) -> Result<()> {
        if data.is_empty() || !data.len().is_multiple_of(kind.size()) {
            return err(
                ErrorClass::Count,
                format!(
                    "accumulate payload of {} bytes is not a whole number of {kind:?} elements",
                    data.len()
                ),
            );
        }
        let codes = [OP_ACC, kind_code(kind), op_code(op)];
        self.rma_op(win, target, &codes, offset, data.len(), data)
    }

    /// `MPI_Get`: request `len` bytes at `offset` of `target`'s region.
    /// The returned request is the reply's receive; it resolves at the
    /// next covering sync. Retrieve it with [`Engine::win_get_take`] /
    /// [`Engine::win_get_take_into`].
    pub fn win_get(
        &mut self,
        win: WinHandle,
        target: usize,
        offset: usize,
        len: usize,
    ) -> Result<RequestId> {
        self.rma_op(win, target, &[OP_GET], offset, len, &[])?;
        // The reply can only come once a sync of ours has sent the
        // target the marker that follows this get.
        let st = self.win_state(win)?;
        let (comm, reply_tag) = (st.comm, st.reply_tag);
        let req = self.post_recv(comm, target as i32, reply_tag, None, true, false)?;
        self.win_state_mut(win)?.gets.push(GetRec {
            req,
            target,
            len,
            synced: false,
        });
        Ok(req)
    }

    /// Take a synced `get` result as an owned buffer (no copy). Refused
    /// until a covering sync has completed.
    pub fn win_get_take(&mut self, win: WinHandle, get: RequestId) -> Result<Bytes> {
        let st = self.win_state_mut(win)?;
        let Some(idx) = st.gets.iter().position(|g| g.req == get) else {
            return err(ErrorClass::Request, "unknown get handle");
        };
        if !st.gets[idx].synced {
            return err(
                ErrorClass::Other,
                "get result not yet synchronized (fence or flush the window first)",
            );
        }
        st.gets.swap_remove(idx);
        Ok(self.take_completion(get)?.data.unwrap_or_default())
    }

    /// Take a synced `get` result into a caller buffer (one delivery
    /// copy, mirroring `recv_into`).
    pub fn win_get_take_into(
        &mut self,
        win: WinHandle,
        get: RequestId,
        buf: &mut [u8],
    ) -> Result<()> {
        let data = self.win_get_take(win, get)?;
        if buf.len() != data.len() {
            return err(
                ErrorClass::Truncate,
                format!(
                    "get reply of {} bytes into buffer of {}",
                    data.len(),
                    buf.len()
                ),
            );
        }
        buf.copy_from_slice(&data);
        self.stats.bytes_copied += data.len() as u64;
        self.recycle(data);
        Ok(())
    }

    /// `MPI_Win_fence`: close the current fence epoch (collective).
    /// Returns once every operation this rank issued is complete, every
    /// peer's epoch operations are applied to the local region, and all
    /// local `get`s are resolved.
    pub fn win_fence(&mut self, win: WinHandle) -> Result<()> {
        self.check_live()?;
        let size = {
            let st = self.win_state(win)?;
            if !st.locks_held.is_empty() {
                return err(
                    ErrorClass::Other,
                    "win_fence called while holding passive-target locks",
                );
            }
            st.size
        };
        for target in 0..size {
            self.rma_issue(win, target, &[OP_FENCE], &[])?;
        }
        let st = self.win_state_mut(win)?;
        st.fences_started += 1;
        st.unsynced_ops = 0;
        self.block_on(|engine| Ok(engine.sync_reached(win, None)?.then_some(())))?;
        self.close_epoch(win, 0);
        self.finish_sync(win, None)
    }

    /// `MPI_Win_lock` (exclusive): open a passive-target epoch on
    /// `target`. Blocks until the target's progress engine grants the
    /// lock.
    pub fn win_lock(&mut self, win: WinHandle, target: usize) -> Result<()> {
        self.check_live()?;
        self.validate_rma_target(win, target)?;
        if self.win_state(win)?.locks_held.contains(&target) {
            return err(ErrorClass::Other, "window already locked at this target");
        }
        let ack = self.rma_request(win, target, &[OP_LOCK])?;
        let comm = self.win_state(win)?.comm;
        self.block_on(|engine| {
            engine.rma_check_failed(comm)?;
            Ok(engine.is_complete(ack)?.then_some(()))
        })?;
        self.claim_ack(ack, ACK_LOCK_GRANT)?;
        self.win_state_mut(win)?.locks_held.insert(target);
        Ok(())
    }

    /// `MPI_Win_flush`: complete all operations issued to `target` in
    /// the open passive epoch — applied at the target — without
    /// releasing the lock.
    pub fn win_flush(&mut self, win: WinHandle, target: usize) -> Result<()> {
        self.passive_sync(win, target, false)
    }

    /// `MPI_Win_unlock`: flush and close the passive-target epoch.
    pub fn win_unlock(&mut self, win: WinHandle, target: usize) -> Result<()> {
        self.passive_sync(win, target, true)
    }

    fn passive_sync(&mut self, win: WinHandle, target: usize, release: bool) -> Result<()> {
        self.check_live()?;
        if !self.win_state(win)?.locks_held.contains(&target) {
            return err(
                ErrorClass::Other,
                "flush/unlock without a lock on this target",
            );
        }
        let ack = self.rma_request(win, target, &[OP_FLUSH, release as u8])?;
        // The ack proves application at the target; still drain our own
        // sends and the get replies from this target (a large reply can
        // trail the ack on the rendezvous path).
        self.block_on(|engine| {
            let done = engine.is_complete(ack)? && engine.sync_reached(win, Some(target))?;
            Ok(done.then_some(()))
        })?;
        if release {
            self.win_state_mut(win)?.locks_held.remove(&target);
            self.close_epoch(win, 1);
        }
        let acked = self.claim_ack(ack, ACK_FLUSH_DONE);
        acked.and(self.finish_sync(win, Some(target)))
    }

    /// True if any window is not quiet (see `WindowState::busy`) — the
    /// finalize leak probe.
    pub(crate) fn rma_open_epoch(&self) -> bool {
        self.windows.values().any(|st| st.busy(true).is_some())
    }

    // ---- internal machinery -------------------------------------------

    fn win_state(&self, win: WinHandle) -> Result<&WindowState> {
        self.windows
            .get(&win.0)
            .ok_or_else(|| MpiError::new(ErrorClass::Other, "unknown RMA window"))
    }

    fn win_state_mut(&mut self, win: WinHandle) -> Result<&mut WindowState> {
        self.windows
            .get_mut(&win.0)
            .ok_or_else(|| MpiError::new(ErrorClass::Other, "unknown RMA window"))
    }

    fn validate_rma_target(&self, win: WinHandle, target: usize) -> Result<()> {
        let st = self.win_state(win)?;
        if target >= st.size {
            return err(
                ErrorClass::Rank,
                format!(
                    "RMA target {target} out of range for window over communicator of size {}",
                    st.size
                ),
            );
        }
        Ok(())
    }

    /// Issue a put, accumulate or get: its header — the op code, `offset`,
    /// `len`, then an accumulate's kind and reduction codes — and
    /// payload as one message, then its statistics and trace event.
    fn rma_op(
        &mut self,
        win: WinHandle,
        target: usize,
        codes: &[u8],
        offset: usize,
        len: usize,
        payload: &[u8],
    ) -> Result<()> {
        self.check_live()?;
        self.validate_rma_target(win, target)?;
        let mut header = [0; 19];
        let header_len = 16 + codes.len();
        header[0] = codes[0];
        header[1..9].copy_from_slice(&(offset as u64).to_le_bytes());
        header[9..17].copy_from_slice(&(len as u64).to_le_bytes());
        header[17..header_len].copy_from_slice(&codes[1..]);
        self.rma_issue(win, target, &header[..header_len], payload)?;
        let st = self.win_state_mut(win)?;
        if !st.locks_held.contains(&target) {
            st.unsynced_ops += 1;
        }
        let kind = if codes[0] == OP_GET {
            self.stats.rma_gets += 1;
            crate::trace::EventKind::RmaGet
        } else {
            self.stats.rma_puts += 1;
            crate::trace::EventKind::RmaPut
        };
        self.stats.rma_bytes += len as u64;
        let phase = crate::trace::EventPhase::Instant;
        self.emit(kind, phase, [target as i64, len as i64, win.0 as i64, 0, 0]);
        Ok(())
    }

    /// Ship one operation or marker as one message on the window's
    /// ordered data channel — to a peer or, over the loopback, to this
    /// rank. `header` and then `payload` are staged into one buffer:
    /// inline up to [`bytes::INLINE_CAP`] bytes, else from the staging
    /// pool. The payload's copy is the operation's one staging copy; the
    /// header's bytes are not counted.
    fn rma_issue(
        &mut self,
        win: WinHandle,
        target: usize,
        header: &[u8],
        payload: &[u8],
    ) -> Result<()> {
        let (comm, data_tag) = {
            let st = self.win_state(win)?;
            (st.comm, st.data_tag)
        };
        self.stats.bytes_copied += payload.len() as u64;
        let len = header.len() + payload.len();
        let message = if len <= bytes::INLINE_CAP {
            let mut buf = [0; bytes::INLINE_CAP];
            buf[..header.len()].copy_from_slice(header);
            buf[header.len()..len].copy_from_slice(payload);
            Bytes::copy_from_slice(&buf[..len])
        } else {
            let mut buf = self.pool_take(len);
            buf.extend_from_slice(header);
            buf.extend_from_slice(payload);
            Bytes::from(buf)
        };
        let req = self.isend_on(
            comm,
            target as i32,
            data_tag,
            SendBuf::Held(message),
            SendMode::Standard,
            true,
        )?;
        self.win_state_mut(win)?.send_reqs.push(req);
        Ok(())
    }

    /// Send `target` a lock request or flush marker, with the receive of
    /// its answer on the ack channel posted first.
    fn rma_request(&mut self, win: WinHandle, target: usize, header: &[u8]) -> Result<RequestId> {
        let st = self.win_state(win)?;
        let (comm, ack_tag) = (st.comm, st.ack_tag);
        let ack = self.post_recv(comm, target as i32, ack_tag, None, true, false)?;
        self.rma_issue(win, target, header, &[])?;
        Ok(ack)
    }

    /// The predicate a sync blocks on: this rank's sends have left, every
    /// get the sync covers has its reply, and for a fence (`target`
    /// `None`) the epoch is applied here. A dead member of the window's
    /// communicator is an error: the epoch can never close.
    fn sync_reached(&self, win: WinHandle, target: Option<usize>) -> Result<bool> {
        let st = self.win_state(win)?;
        self.rma_check_failed(st.comm)?;
        if !st.send_reqs.is_empty() || (target.is_none() && st.fences_applied < st.fences_started) {
            return Ok(false);
        }
        for get in st.gets.iter().filter(|g| covers(g, target)) {
            if !self.is_complete(get.req)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Close a sync that [`Engine::sync_reached`]: the gets it covers
    /// become takeable, and the first error it reports is returned once —
    /// a fence's error from applying a peer's operation here, or a get
    /// answered with a reply of the wrong length because it fell outside
    /// its target's window (taking that get returns the error too).
    fn finish_sync(&mut self, win: WinHandle, target: Option<usize>) -> Result<()> {
        let st = self
            .windows
            .get_mut(&win.0)
            .ok_or_else(|| MpiError::new(ErrorClass::Other, "unknown RMA window"))?;
        let mut failed = target.is_none().then(|| st.failed.take()).flatten();
        for get in st.gets.iter_mut().filter(|g| covers(g, target)) {
            get.synced = true;
            let replied = match self.requests.get(get.req.0) {
                Some(RequestState::RecvComplete { data, .. }) => data.len(),
                _ => get.len,
            };
            if replied != get.len {
                let error = MpiError::new(
                    ErrorClass::Buffer,
                    format!(
                        "get of {} bytes fell outside the window of target {}",
                        get.len, get.target
                    ),
                );
                self.requests
                    .set(get.req.0, RequestState::Failed(error.clone()));
                failed.get_or_insert(error);
            }
        }
        failed.map_or(Ok(()), Err)
    }

    /// Count a closed epoch (`passive` 0 for a fence, 1 for an unlock).
    fn close_epoch(&mut self, win: WinHandle, passive: i64) {
        self.stats.epochs += 1;
        let epochs = self.stats.epochs as i64;
        self.emit(
            crate::trace::EventKind::RmaEpoch,
            crate::trace::EventPhase::Instant,
            [win.0 as i64, passive, epochs, 0, 0],
        );
    }

    /// Claim a lock grant or flush-ack. Its one byte comes off a device,
    /// so anything but the expected code is an `Intern` error — except a
    /// flush-ack reporting an operation that failed at the target (one
    /// outside its window), which is a `Buffer` error.
    fn claim_ack(&mut self, ack: RequestId, expected: u8) -> Result<()> {
        let data = self.take_completion(ack)?.data.unwrap_or_default();
        let code = (data.len() == 1).then(|| data[0]);
        match code {
            Some(code) if code == expected => Ok(()),
            Some(ACK_FLUSH_FAILED) if expected == ACK_FLUSH_DONE => err(
                ErrorClass::Buffer,
                "an operation of this passive-target epoch failed at the target",
            ),
            _ => err(
                ErrorClass::Intern,
                format!("bad RMA ack {code:?}, expected code {expected}"),
            ),
        }
    }

    /// The RMA progress hook, run from `nb_progress` (so every blocking
    /// or polling engine call drives it): ingest data-channel arrivals,
    /// decode every origin's ready messages, and apply whatever epochs
    /// the markers now cover. The window map is taken out for the sweep
    /// and put back after it, which is sound because the hook never
    /// re-enters the progress engine.
    pub(crate) fn rma_progress(&mut self) -> Result<()> {
        if self.windows.is_empty() {
            return Ok(());
        }
        let mut windows = std::mem::take(&mut self.windows);
        let outcome = windows
            .values_mut()
            .try_for_each(|st| self.drive_window(st));
        self.windows = windows;
        outcome
    }

    fn drive_window(&mut self, st: &mut WindowState) -> Result<()> {
        self.ingest_arrivals(st)?;
        for origin in 0..st.size {
            self.drain_origin(st, origin)?;
        }
        // Apply every epoch the markers now cover; each application can
        // unblock the next (pipelined fences, the next lock holder's
        // flush), so loop to a fixpoint.
        while self.try_apply_flush(st)? | self.try_apply_fence(st)? {}
        // Harvest completed sends, those the applications just issued
        // (get replies, acks) included: a sync waits for `send_reqs` to
        // empty.
        let reqs = std::mem::take(&mut st.send_reqs);
        for req in reqs {
            if self.is_complete(req)? {
                self.take_completion(req)?;
            } else {
                st.send_reqs.push(req);
            }
        }
        Ok(())
    }

    /// Move this window's data-channel messages out of the unexpected
    /// queue (in arrival order), granting parked rendezvous envelopes
    /// exactly like a posted receive would. The channel must be consumed
    /// in per-origin arrival order whatever receives are posted, hence
    /// `Matching::take_tagged` rather than a standing posted receive.
    fn ingest_arrivals(&mut self, st: &mut WindowState) -> Result<()> {
        use crate::matching::UnexpectedKind;
        for msg in self.matching.take_tagged(st.context_coll, st.data_tag) {
            let origin = self.source_rank(st.comm, msg.src_world)?;
            let arrival = match msg.kind {
                UnexpectedKind::Eager(data) => {
                    self.stats.bytes_received += data.len() as u64;
                    Arrival::Ready(data)
                }
                UnexpectedKind::Rendezvous => {
                    let req = self.fresh_request_id();
                    self.grant_rendezvous(req, origin, None, false, st.context_coll, &msg)?;
                    Arrival::Awaiting(RequestId(req))
                }
            };
            st.incoming[origin].raw.push_back(arrival);
        }
        Ok(())
    }

    /// Decode `origin`'s messages in transport order, up to the first
    /// rendezvous message still assembling: whatever is behind it waits,
    /// since per-origin order is the protocol's backbone. Lock requests
    /// act immediately (granting enables the origin's *next* sends, so
    /// this cannot reorder anything already queued).
    fn drain_origin(&mut self, st: &mut WindowState, origin: usize) -> Result<()> {
        while let Some(arrival) = st.incoming[origin].raw.pop_front() {
            let message = match arrival {
                Arrival::Ready(message) => message,
                Arrival::Awaiting(req) if self.is_complete(req)? => {
                    self.take_completion(req)?.data.unwrap_or_default()
                }
                awaiting => {
                    st.incoming[origin].raw.push_front(awaiting);
                    break;
                }
            };
            match decode(&message)? {
                RmaEntry::Lock if st.lock_holder.is_none() && st.lock_waiters.is_empty() => {
                    self.rma_grant(st, origin)?
                }
                RmaEntry::Lock => st.lock_waiters.push_back(origin),
                entry => st.incoming[origin].queue.push_back(entry),
            }
        }
        Ok(())
    }

    fn rma_grant(&mut self, st: &mut WindowState, origin: usize) -> Result<()> {
        st.lock_holder = Some(origin);
        self.rma_ack(st, origin, ACK_LOCK_GRANT)
    }

    fn rma_ack(&mut self, st: &mut WindowState, origin: usize, code: u8) -> Result<()> {
        let req = self.isend_on(
            st.comm,
            origin as i32,
            st.ack_tag,
            SendBuf::Held(Bytes::copy_from_slice(&[code])),
            SendMode::Standard,
            true,
        )?;
        st.send_reqs.push(req);
        Ok(())
    }

    /// Apply one fence epoch if every origin's marker is in: origins in
    /// rank order, each origin's operations in issue order. This single
    /// ordering rule is what the deterministic-accumulate guarantee
    /// rests on.
    fn try_apply_fence(&mut self, st: &mut WindowState) -> Result<bool> {
        // No marker yet, or a passive epoch still ahead of the fence in
        // some origin's stream.
        if !st
            .incoming
            .iter()
            .all(|o| matches!(o.first_marker(), Some(RmaEntry::Fence)))
        {
            return Ok(false);
        }
        for rank in 0..st.size {
            if let Some(error) = self.apply_run(st, rank) {
                st.failed.get_or_insert(error);
            }
        }
        st.fences_applied += 1;
        Ok(true)
    }

    /// Apply the lock holder's passive run once its flush marker is in
    /// (only the holder can have one — exclusivity is the determinism
    /// argument here), answer with the flush-ack, and on release grant
    /// the lock to the next waiter.
    fn try_apply_flush(&mut self, st: &mut WindowState) -> Result<bool> {
        let Some(holder) = st.lock_holder else {
            return Ok(false);
        };
        let Some(&RmaEntry::Flush { release }) = st.incoming[holder].first_marker() else {
            return Ok(false);
        };
        let code = match self.apply_run(st, holder) {
            Some(_) => ACK_FLUSH_FAILED,
            None => ACK_FLUSH_DONE,
        };
        self.rma_ack(st, holder, code)?;
        if release {
            st.lock_holder = None;
            if let Some(next) = st.lock_waiters.pop_front() {
                self.rma_grant(st, next)?;
            }
        }
        Ok(true)
    }

    /// Apply `origin`'s queued operations up to its first marker, which
    /// the caller has seen, and consume the marker. An operation that
    /// fails — one outside the region — is skipped and the rest are
    /// applied; the first error is returned for the epoch's sync to
    /// report, so it never surfaces from an unrelated call that happened
    /// to drive progress.
    fn apply_run(&mut self, st: &mut WindowState, origin: usize) -> Option<MpiError> {
        let mut failed = None;
        while let Some(entry) = st.incoming[origin].queue.pop_front() {
            match self.apply_entry(st, origin, entry) {
                Ok(true) => {}
                Ok(false) => break,
                Err(error) => {
                    failed.get_or_insert(error);
                }
            }
        }
        failed
    }

    /// Apply one queued entry; `false` for the marker that ends a run.
    fn apply_entry(
        &mut self,
        st: &mut WindowState,
        origin: usize,
        entry: RmaEntry,
    ) -> Result<bool> {
        match entry {
            RmaEntry::Put { offset, data } => {
                let span = st.span(offset, data.len(), "put")?;
                st.region[span].copy_from_slice(&data);
                self.stats.bytes_copied += data.len() as u64;
                st.dirty = true;
                self.recycle(data);
            }
            RmaEntry::Acc {
                offset,
                kind,
                op,
                data,
            } => {
                let span = st.span(offset, data.len(), "accumulate")?;
                let count = data.len() / kind.size();
                Op::Predefined(op).apply(&data, &mut st.region[span], kind, count)?;
                st.dirty = true;
                self.recycle(data);
            }
            RmaEntry::Get { offset, len } => {
                // Stage a copy of the current region contents (the reply
                // must reflect this sync point, not a later one). An
                // out-of-range get is answered too, with a reply of
                // another length, so its origin's sync fails instead of
                // waiting forever.
                let span = st.span(offset, len, "get");
                let reply = match &span {
                    Ok(span) => SendBuf::Slice(&st.region[span.clone()]),
                    Err(_) => SendBuf::Held(Bytes::from(vec![0; usize::from(len == 0)])),
                };
                let req = self.isend_on(
                    st.comm,
                    origin as i32,
                    st.reply_tag,
                    reply,
                    SendMode::Standard,
                    true,
                )?;
                st.send_reqs.push(req);
                span?;
            }
            RmaEntry::Fence | RmaEntry::Flush { .. } | RmaEntry::Lock => return Ok(false),
        }
        Ok(true)
    }
}

/// Whether a sync of `target` (`None`: a fence) covers `get` and has not
/// covered it already.
fn covers(get: &GetRec, target: Option<usize>) -> bool {
    !get.synced && target.is_none_or(|t| get.target == t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::COMM_WORLD;
    use crate::Universe;
    use mpi_transport::DeviceKind;

    #[test]
    fn self_window_put_and_get_round_trip() {
        Universe::run(1, DeviceKind::ShmFast, |engine| {
            let win = engine.win_create(COMM_WORLD, vec![0u8; 16]).unwrap();
            engine.win_put(win, 0, 4, &[7, 8, 9]).unwrap();
            // Applied-at-sync even for self.
            assert_eq!(&engine.win_region(win).unwrap()[4..7], &[0, 0, 0]);
            engine.win_fence(win).unwrap();
            assert_eq!(&engine.win_region(win).unwrap()[4..7], &[7, 8, 9]);
            let get = engine.win_get(win, 0, 4, 3).unwrap();
            engine.win_fence(win).unwrap();
            assert_eq!(engine.win_get_take(win, get).unwrap().as_ref(), &[7, 8, 9]);
            let region = engine.win_free(win).unwrap();
            assert_eq!(region[4..7], [7, 8, 9]);
            engine.finalize().unwrap();
        })
        .unwrap();
    }

    #[test]
    fn finalize_refuses_open_windows_and_unsynced_epochs() {
        Universe::run(1, DeviceKind::ShmFast, |engine| {
            let win = engine.win_create(COMM_WORLD, vec![0u8; 8]).unwrap();
            let error = engine.finalize().unwrap_err();
            assert!(error.message.contains("open RMA windows"), "{error}");
            engine.win_put(win, 0, 0, &[1]).unwrap();
            let error = engine.finalize().unwrap_err();
            assert!(error.message.contains("un-synced RMA epoch"), "{error}");
            let error = engine.win_free(win).unwrap_err();
            assert!(error.message.contains("un-synced"), "{error}");
            engine.win_fence(win).unwrap();
            engine.win_free(win).unwrap();
            engine.finalize().unwrap();
        })
        .unwrap();
    }

    #[test]
    fn window_tags_live_below_the_collective_windows() {
        // The deepest collective tag window sits near -525k; the RMA
        // channels must stay strictly below all of them.
        let deepest_coll =
            crate::p2p::COLLECTIVE_TAG_BASE - 1 - (crate::coll::nb::NUM_TAG_WINDOWS as i32) * 64;
        assert!(RMA_TAG_BASE < deepest_coll);
        assert!(RMA_TAG_BASE - TAGS_PER_WINDOW * (WIN_SEQ_SPACE as i32) > i32::MIN / 2);
    }

    /// Every message cut short at every length — a put's or
    /// accumulate's payload included — and every message with a byte
    /// too many decodes to an `Intern` error instead of indexing out of
    /// range, and so do unknown codes; the whole messages decode, a
    /// put's payload as a slice of its message.
    #[test]
    fn short_and_unknown_headers_are_errors_not_panics() {
        let span = [7u64.to_le_bytes(), 3u64.to_le_bytes()].concat();
        let payload = [1u8, 2, 3];
        let put = [&[OP_PUT][..], &span, &payload].concat();
        let get = [&[OP_GET][..], &span].concat();
        let codes = [kind_code(PrimitiveKind::Byte), op_code(PredefinedOp::Sum)];
        let acc = [&[OP_ACC][..], &span, &codes, &payload].concat();
        let table: [&[u8]; 6] = [&put, &acc, &get, &[OP_FENCE], &[OP_FLUSH, 1], &[OP_LOCK]];
        for full in table {
            decode(&Bytes::copy_from_slice(full)).unwrap();
            let long = Bytes::from([full, &[0]].concat());
            let cuts = (0..full.len()).map(|cut| Bytes::copy_from_slice(&full[..cut]));
            for bad in cuts.chain([long]) {
                assert_eq!(
                    decode(&bad).unwrap_err().class,
                    ErrorClass::Intern,
                    "{bad:?}"
                );
            }
        }
        let mut bad_kind = acc.clone();
        bad_kind[17] = 200;
        let mut bad_op = acc;
        bad_op[18] = 200;
        for bad in [&[OP_LOCK + 1][..], &[0xff], &bad_kind, &bad_op] {
            let bad = Bytes::copy_from_slice(bad);
            assert_eq!(decode(&bad).unwrap_err().class, ErrorClass::Intern);
        }
        let big = Bytes::from([&put[..9], &100u64.to_le_bytes(), &[5; 100]].concat());
        let RmaEntry::Put { offset: 7, data } = decode(&big).unwrap() else {
            panic!("a put decodes to a put at its offset");
        };
        assert!(data.shares_allocation(&big) && data.as_ref() == [5; 100]);
    }

    /// The wire codes are the table positions, unchanged from the
    /// hand-kept encoders they replaced; every kind and reduction has
    /// one and decodes back, and no other code decodes.
    #[test]
    fn wire_codes_round_trip_for_every_kind_and_reduction() {
        use PredefinedOp as O;
        use PrimitiveKind as K;
        // Exhaustive matches: a new variant does not compile until it
        // has a code here.
        let kind_wire = |kind: K| match kind {
            K::Byte => 0,
            K::Char => 1,
            K::Boolean => 2,
            K::Short => 3,
            K::Int => 4,
            K::Long => 5,
            K::Float => 6,
            K::Double => 7,
            K::Packed => 8,
            K::Int2 => 9,
            K::Long2 => 10,
            K::Float2 => 11,
            K::Double2 => 12,
            K::Short2 => 13,
        };
        let op_wire = |op: O| match op {
            O::Max => 0,
            O::Min => 1,
            O::Sum => 2,
            O::Prod => 3,
            O::Land => 4,
            O::Band => 5,
            O::Lor => 6,
            O::Bor => 7,
            O::Lxor => 8,
            O::Bxor => 9,
            O::Maxloc => 10,
            O::Minloc => 11,
        };
        let (mut kinds, mut ops) = (0, 0);
        for code in 0..=u8::MAX {
            if let Ok(kind) = from_code(&KINDS, code, "kind") {
                assert_eq!((kind_wire(kind), kind_code(kind)), (code, code));
                kinds += 1;
            }
            if let Ok(op) = from_code(&OPS, code, "reduction") {
                assert_eq!((op_wire(op), op_code(op)), (code, code));
                ops += 1;
            }
        }
        assert_eq!((kinds, ops), (14, 12));
    }

    /// Lock grants and flush-acks come off a device: a wrong byte is an
    /// `Intern` error in every build, never a panic or an accepted ack.
    #[test]
    fn forged_acks_are_intern_errors() {
        Universe::run(1, DeviceKind::ShmFast, |engine| {
            let forge = |engine: &mut Engine, win: WinHandle, code: u8| {
                let ack_tag = engine.win_state(win).unwrap().ack_tag;
                let data = Bytes::from(vec![code]);
                let req = engine
                    .isend_on(
                        COMM_WORLD,
                        0,
                        ack_tag,
                        data.into(),
                        SendMode::Standard,
                        true,
                    )
                    .unwrap();
                engine.wait(req).unwrap();
            };
            let win = engine.win_create(COMM_WORLD, vec![0u8; 8]).unwrap();
            forge(engine, win, 9);
            assert_eq!(
                engine.win_lock(win, 0).unwrap_err().class,
                ErrorClass::Intern
            );
            let win = engine.win_create(COMM_WORLD, vec![0u8; 8]).unwrap();
            engine.win_lock(win, 0).unwrap();
            forge(engine, win, ACK_LOCK_GRANT);
            assert_eq!(
                engine.win_flush(win, 0).unwrap_err().class,
                ErrorClass::Intern
            );
        })
        .unwrap();
    }

    /// A get is an entry of the request table; one never taken goes with
    /// its window.
    #[test]
    fn an_untaken_get_leaves_no_request_after_win_free() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            let win = engine.win_create(COMM_WORLD, vec![0u8; 8]).unwrap();
            engine.win_fence(win).unwrap();
            for target in 0..2 {
                engine.win_get(win, target, 0, 4).unwrap();
            }
            engine.win_fence(win).unwrap();
            assert_eq!(engine.requests.values().count(), 2);
            engine.win_free(win).unwrap();
            assert_eq!(engine.requests.values().count(), 0);
            engine.finalize().unwrap();
        })
        .unwrap();
    }

    #[test]
    fn out_of_range_target_is_rejected() {
        Universe::run(1, DeviceKind::ShmFast, |engine| {
            let win = engine.win_create(COMM_WORLD, vec![0u8; 8]).unwrap();
            assert!(engine.win_put(win, 3, 0, &[1]).is_err());
            assert!(engine.win_get(win, 3, 0, 1).is_err());
            engine.win_free(win).unwrap();
        })
        .unwrap();
    }
}
