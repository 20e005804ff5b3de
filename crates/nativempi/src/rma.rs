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
//!   other rank on the same ordered channel as the operations
//!   themselves, so the marker's queue position delimits the epoch
//!   exactly. A target applies an epoch once **every** origin's marker
//!   has arrived, applying origins in **rank order** (and each origin's
//!   operations in issue order) — which is what makes concurrent
//!   `accumulate`s from two origins deterministic on every device.
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
//! | data    | `base`         | op headers, payloads, fence/flush markers |
//! | reply   | `base − 1`     | `get` replies (target → origin)           |
//! | ack     | `base − 2`     | lock grants and flush-acks                |
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
//! grant, a flush-ack, a `get` reply — is counted as a
//! *progress-starved RMA target* wait
//! ([`crate::trace::WaitClass::RmaTarget`]), distinct from user-tag
//! late-sender waits and collective-window imbalance waits. A passive
//! target that never enters the library starves its origins, and the
//! `engine.wait.rma_target_*` pvars (and the offline `traceanalyze`
//! report) make that visible.
//!
//! # Copy inventory (extends the table in [`crate::p2p`])
//!
//! | operation                        | copies | where                      |
//! |----------------------------------|--------|----------------------------|
//! | `win_put_bytes` (owned `Bytes`)  | 0      | origin ships the buffer    |
//! | `win_put` / `win_accumulate`     | 1      | origin staging             |
//! | put/accumulate application       | 1      | target region write        |
//! | `win_get` + `win_get_take`       | 0 + 1  | origin 0; target staging 1 |
//! | `win_get_take_into`              | 1      | origin delivery copy       |
//!
//! Large payloads switch to the rendezvous protocol exactly like
//! two-sided traffic: the target's progress hook grants parked
//! rendezvous envelopes on the data channel the same way a posted
//! receive would.

use std::collections::{HashSet, VecDeque};

use bytes::Bytes;

use crate::comm::CommHandle;
use crate::error::{err, ErrorClass, Result};
use crate::ops::{Op, PredefinedOp};
use crate::request::RequestId;
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

// Wire op codes (first byte of every data-channel header message).
const OP_PUT: u8 = 0;
const OP_ACC: u8 = 1;
const OP_GET: u8 = 2;
const OP_FENCE: u8 = 3;
const OP_FLUSH: u8 = 4;
const OP_LOCK: u8 = 5;

// Ack-channel payloads.
const ACK_LOCK_GRANT: u8 = 1;
const ACK_FLUSH_DONE: u8 = 2;

/// Handle to an open one-sided memory window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WinHandle(pub(crate) u64);

/// Handle to an outstanding `get`; resolves at the next covering sync.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RmaGetId(u64);

/// A payload that is either fully here or still awaiting its rendezvous
/// data frame.
#[derive(Debug)]
enum PayloadRef {
    Ready(Bytes),
    Awaiting(RequestId),
}

/// A parsed one-sided operation parked at the target, payload included.
#[derive(Debug)]
enum RmaEntry {
    Put {
        offset: usize,
        data: Bytes,
    },
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
}

/// Header parsed off the data channel whose payload message has not
/// arrived yet.
#[derive(Debug)]
enum PendingHeader {
    Put {
        offset: usize,
    },
    Acc {
        offset: usize,
        kind: PrimitiveKind,
        op: PredefinedOp,
    },
}

impl PendingHeader {
    /// The operation, once its payload message is here.
    fn with(self, data: Bytes) -> RmaEntry {
        match self {
            PendingHeader::Put { offset } => RmaEntry::Put { offset, data },
            PendingHeader::Acc { offset, kind, op } => RmaEntry::Acc {
                offset,
                kind,
                op,
                data,
            },
        }
    }
}

/// One data-channel header message, decoded.
#[derive(Debug)]
enum Header {
    /// A put or accumulate: its payload is the next message.
    Payload(PendingHeader),
    /// An operation or marker complete in itself.
    Entry(RmaEntry),
    /// A passive-target lock request.
    Lock,
}

/// Decode a data-channel header message — the one decoder of the self
/// path and the wire path. A header shorter than its op code's layout,
/// or with an unknown op, kind or reduction code, is an `Intern` error:
/// these bytes come off a device, so they must never index out of range.
fn decode(header: &[u8]) -> Result<Header> {
    let min_len = match header.first() {
        Some(&(OP_PUT | OP_GET)) => 17,
        Some(&OP_ACC) => 19,
        Some(&OP_FLUSH) => 2,
        Some(&(OP_FENCE | OP_LOCK)) => 1,
        other => return err(ErrorClass::Intern, format!("bad RMA op code {other:?}")),
    };
    if header.len() < min_len {
        return err(
            ErrorClass::Intern,
            format!(
                "short RMA header: {} bytes for op code {}, need {min_len}",
                header.len(),
                header[0]
            ),
        );
    }
    let at = |i: usize| u64::from_le_bytes(header[i..i + 8].try_into().expect("8 bytes")) as usize;
    Ok(match header[0] {
        OP_PUT => Header::Payload(PendingHeader::Put { offset: at(1) }),
        OP_ACC => Header::Payload(PendingHeader::Acc {
            offset: at(1),
            kind: kind_from_code(header[17])?,
            op: op_from_code(header[18])?,
        }),
        OP_GET => Header::Entry(RmaEntry::Get {
            offset: at(1),
            len: at(9),
        }),
        OP_FENCE => Header::Entry(RmaEntry::Fence),
        OP_FLUSH => Header::Entry(RmaEntry::Flush {
            release: header[1] != 0,
        }),
        _ => Header::Lock,
    })
}

/// Per-origin arrival state at the target.
#[derive(Debug, Default)]
struct OriginState {
    /// Unparsed data-channel arrivals, in transport order. Only the
    /// front is ever inspected, so rendezvous payloads that are still
    /// assembling stall parsing (never reorder it).
    raw: VecDeque<PayloadRef>,
    /// Header parsed, payload message still pending.
    pending: Option<PendingHeader>,
    /// Parsed operations awaiting their covering sync.
    queue: VecDeque<RmaEntry>,
}

/// Exclusive passive-target lock state of a window.
#[derive(Debug, Default)]
struct LockState {
    holder: Option<usize>,
    waiters: VecDeque<usize>,
    /// Set by the grant path when this rank wins its own lock.
    granted_self: bool,
    /// Set when a self-flush marker has been applied.
    self_flush_done: bool,
}

#[derive(Debug)]
enum GetState {
    /// Reply receive posted; resolves when the target serves the epoch.
    Waiting(RequestId),
    /// Get on the local window; served when our own sync applies it.
    SelfPending,
    Ready(Bytes),
}

#[derive(Debug)]
struct GetRec {
    id: u64,
    target: usize,
    len: usize,
    state: GetState,
    /// A covering sync (fence, or flush/unlock of `target`) completed.
    synced: bool,
}

/// Full state of one open window (engine-internal).
#[derive(Debug)]
pub(crate) struct WindowState {
    comm: CommHandle,
    context_coll: u32,
    my_rank: usize,
    size: usize,
    data_tag: i32,
    reply_tag: i32,
    ack_tag: i32,
    region: Vec<u8>,
    /// Peers modified the region since the last `win_take_dirty`.
    dirty: bool,
    incoming: Vec<OriginState>,
    lock: LockState,
    // Origin-side state.
    send_reqs: Vec<RequestId>,
    gets: Vec<GetRec>,
    next_get: u64,
    /// Fence-epoch ops issued since the last `win_fence`.
    unsynced_ops: u64,
    fences_started: u64,
    fences_applied: u64,
    locks_held: HashSet<usize>,
}

impl Engine {
    /// `MPI_Win_create`: expose `region` for one-sided access by the
    /// ranks of `comm`. Collective by convention (every rank must call
    /// it the same number of times per communicator, which is what keeps
    /// the window tag channels aligned) but performs no communication.
    pub fn win_create(&mut self, comm: CommHandle, region: Vec<u8>) -> Result<WinHandle> {
        self.check_live()?;
        let size = self.comm_size(comm)?;
        let my_rank = self.comm_rank(comm)?;
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
                my_rank,
                size,
                data_tag: base,
                reply_tag: base - 1,
                ack_tag: base - 2,
                region,
                dirty: false,
                incoming: (0..size).map(|_| OriginState::default()).collect(),
                lock: LockState::default(),
                send_reqs: Vec::new(),
                gets: Vec::new(),
                next_get: 1,
                unsynced_ops: 0,
                fences_started: 0,
                fences_applied: 0,
                locks_held: HashSet::new(),
            },
        );
        Ok(WinHandle(id))
    }

    /// `MPI_Win_free`: collective teardown. Refuses un-synced epochs
    /// (outstanding operations, held locks, unretrieved un-synced gets),
    /// then barriers so no peer can still have window traffic in flight,
    /// and returns the exposed region to the caller.
    pub fn win_free(&mut self, win: WinHandle) -> Result<Vec<u8>> {
        self.check_live()?;
        self.rma_progress()?;
        {
            let st = self.win_state(win)?;
            if st.unsynced_ops > 0 || !st.send_reqs.is_empty() {
                return err(
                    ErrorClass::Other,
                    "win_free called with an un-synced RMA epoch",
                );
            }
            if !st.locks_held.is_empty() {
                return err(
                    ErrorClass::Other,
                    "win_free called while holding a passive-target lock",
                );
            }
            if st.lock.holder.is_some() || !st.lock.waiters.is_empty() {
                return err(ErrorClass::Other, "win_free called on a locked window");
            }
            if st
                .gets
                .iter()
                .any(|g| !matches!(g.state, GetState::Ready(_)) || !g.synced)
            {
                return err(
                    ErrorClass::Other,
                    "win_free called with un-synced outstanding gets",
                );
            }
        }
        // No peer may touch the window after its rank returns from
        // win_free, so a barrier separates the last epoch from teardown.
        let comm = self.win_state(win)?.comm;
        self.barrier(comm)?;
        self.rma_progress()?;
        let st = self.win_state(win)?;
        if st
            .incoming
            .iter()
            .any(|o| !o.queue.is_empty() || !o.raw.is_empty() || o.pending.is_some())
        {
            return err(
                ErrorClass::Other,
                "win_free called with unapplied peer operations (missing sync)",
            );
        }
        let st = self.windows.remove(&win.0).expect("checked above");
        Ok(st.region)
    }

    /// Size in bytes of the locally exposed region.
    pub fn win_size(&self, win: WinHandle) -> Result<usize> {
        Ok(self.win_state(win)?.region.len())
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

    /// `MPI_Put` from a slice: one staging copy, then the zero-copy
    /// datapath (mirrors the two-sided slice send).
    pub fn win_put(
        &mut self,
        win: WinHandle,
        target: usize,
        offset: usize,
        data: &[u8],
    ) -> Result<()> {
        let staged = Bytes::from(data.to_vec());
        self.stats.bytes_copied += data.len() as u64;
        self.win_put_bytes(win, target, offset, staged)
    }

    /// `MPI_Put` of an owned buffer: zero-copy all the way to the
    /// target's region write.
    pub fn win_put_bytes(
        &mut self,
        win: WinHandle,
        target: usize,
        offset: usize,
        data: Bytes,
    ) -> Result<()> {
        self.check_live()?;
        self.validate_rma_target(win, target)?;
        let len = data.len();
        let mut header = Vec::with_capacity(17);
        header.push(OP_PUT);
        header.extend_from_slice(&(offset as u64).to_le_bytes());
        header.extend_from_slice(&(len as u64).to_le_bytes());
        self.rma_issue(win, target, header, Some(data))?;
        self.stats.rma_puts += 1;
        self.stats.rma_bytes += len as u64;
        self.emit(
            crate::trace::EventKind::RmaPut,
            crate::trace::EventPhase::Instant,
            target as i64,
            len as i64,
            win.0 as i64,
        );
        Ok(())
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
        self.check_live()?;
        self.validate_rma_target(win, target)?;
        if data.is_empty() || !data.len().is_multiple_of(kind.size()) {
            return err(
                ErrorClass::Count,
                format!(
                    "accumulate payload of {} bytes is not a whole number of {kind:?} elements",
                    data.len()
                ),
            );
        }
        let staged = Bytes::from(data.to_vec());
        self.stats.bytes_copied += data.len() as u64;
        let mut header = Vec::with_capacity(19);
        header.push(OP_ACC);
        header.extend_from_slice(&(offset as u64).to_le_bytes());
        header.extend_from_slice(&(data.len() as u64).to_le_bytes());
        header.push(kind_code(kind));
        header.push(op_code(op));
        self.rma_issue(win, target, header, Some(staged))?;
        self.stats.rma_puts += 1;
        self.stats.rma_bytes += data.len() as u64;
        self.emit(
            crate::trace::EventKind::RmaPut,
            crate::trace::EventPhase::Instant,
            target as i64,
            data.len() as i64,
            win.0 as i64,
        );
        Ok(())
    }

    /// `MPI_Get`: request `len` bytes at `offset` of `target`'s region.
    /// The reply resolves at the next covering sync; retrieve it with
    /// [`Engine::win_get_take`] / [`Engine::win_get_take_into`].
    pub fn win_get(
        &mut self,
        win: WinHandle,
        target: usize,
        offset: usize,
        len: usize,
    ) -> Result<RmaGetId> {
        self.check_live()?;
        self.validate_rma_target(win, target)?;
        let (comm, reply_tag, my_rank) = {
            let st = self.win_state(win)?;
            (st.comm, st.reply_tag, st.my_rank)
        };
        let state = if target == my_rank {
            GetState::SelfPending
        } else {
            // Post the reply receive before the target can possibly
            // serve it, so it never parks unexpectedly.
            let req = self.irecv_on_context(comm, target as i32, reply_tag, None, true)?;
            GetState::Waiting(req)
        };
        let mut header = Vec::with_capacity(17);
        header.push(OP_GET);
        header.extend_from_slice(&(offset as u64).to_le_bytes());
        header.extend_from_slice(&(len as u64).to_le_bytes());
        self.rma_issue(win, target, header, None)?;
        let st = self.win_state_mut(win)?;
        let id = st.next_get;
        st.next_get += 1;
        st.gets.push(GetRec {
            id,
            target,
            len,
            state,
            synced: false,
        });
        self.stats.rma_gets += 1;
        self.stats.rma_bytes += len as u64;
        self.emit(
            crate::trace::EventKind::RmaGet,
            crate::trace::EventPhase::Instant,
            target as i64,
            len as i64,
            win.0 as i64,
        );
        Ok(RmaGetId(id))
    }

    /// Take a synced `get` result as an owned buffer (no copy).
    pub fn win_get_take(&mut self, win: WinHandle, get: RmaGetId) -> Result<Bytes> {
        let st = self.win_state_mut(win)?;
        let idx = st.gets.iter().position(|g| g.id == get.0).ok_or_else(|| {
            crate::error::MpiError::new(ErrorClass::Request, "unknown get handle")
        })?;
        if !st.gets[idx].synced || !matches!(st.gets[idx].state, GetState::Ready(_)) {
            return err(
                ErrorClass::Other,
                "get result not yet synchronized (fence or flush the window first)",
            );
        }
        let rec = st.gets.swap_remove(idx);
        match rec.state {
            GetState::Ready(data) => Ok(data),
            _ => unreachable!("checked above"),
        }
    }

    /// Take a synced `get` result into a caller buffer (one delivery
    /// copy, mirroring `recv_into`).
    pub fn win_get_take_into(
        &mut self,
        win: WinHandle,
        get: RmaGetId,
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
        let (size, my_rank) = {
            let st = self.win_state(win)?;
            if !st.locks_held.is_empty() {
                return err(
                    ErrorClass::Other,
                    "win_fence called while holding passive-target locks",
                );
            }
            (st.size, st.my_rank)
        };
        for target in 0..size {
            if target == my_rank {
                let st = self.win_state_mut(win)?;
                st.incoming[my_rank].queue.push_back(RmaEntry::Fence);
            } else {
                self.rma_issue(win, target, vec![OP_FENCE], None)?;
            }
        }
        {
            let st = self.win_state_mut(win)?;
            st.fences_started += 1;
            st.unsynced_ops = 0;
        }
        let comm = self.win_state(win)?.comm;
        loop {
            // A fence cannot close once any member of the window's
            // communicator is dead: error instead of spinning forever.
            self.rma_check_failed(comm)?;
            self.rma_progress()?;
            if self.fence_done(win)? {
                break;
            }
            self.progress_poll()?;
            if self.fence_done(win)? {
                break;
            }
            // Anything still pending needs remote frames; block for one.
            self.progress_wait()?;
        }
        let st = self.win_state_mut(win)?;
        for g in &mut st.gets {
            g.synced = true;
        }
        self.stats.epochs += 1;
        let epochs = self.stats.epochs as i64;
        self.emit(
            crate::trace::EventKind::RmaEpoch,
            crate::trace::EventPhase::Instant,
            win.0 as i64,
            0,
            epochs,
        );
        Ok(())
    }

    /// `MPI_Win_lock` (exclusive): open a passive-target epoch on
    /// `target`. Blocks until the target's progress engine grants the
    /// lock.
    pub fn win_lock(&mut self, win: WinHandle, target: usize) -> Result<()> {
        self.check_live()?;
        self.validate_rma_target(win, target)?;
        let (comm, ack_tag, my_rank) = {
            let st = self.win_state(win)?;
            if st.locks_held.contains(&target) {
                return err(ErrorClass::Other, "window already locked at this target");
            }
            (st.comm, st.ack_tag, st.my_rank)
        };
        if target == my_rank {
            let st = self.win_state_mut(win)?;
            if st.lock.holder.is_none() && st.lock.waiters.is_empty() {
                st.lock.holder = Some(my_rank);
            } else {
                st.lock.waiters.push_back(my_rank);
                loop {
                    self.rma_check_failed(comm)?;
                    self.rma_progress()?;
                    if self.win_state(win)?.lock.granted_self {
                        break;
                    }
                    self.progress_wait()?;
                }
                self.win_state_mut(win)?.lock.granted_self = false;
            }
        } else {
            let req = self.irecv_on_context(comm, target as i32, ack_tag, None, true)?;
            self.rma_issue(win, target, vec![OP_LOCK], None)?;
            let completion = self.wait(req)?;
            if let Some(data) = completion.data {
                debug_assert_eq!(data.as_ref(), &[ACK_LOCK_GRANT]);
                self.recycle(data);
            }
        }
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
        self.passive_sync(win, target, true)?;
        self.win_state_mut(win)?.locks_held.remove(&target);
        self.stats.epochs += 1;
        let epochs = self.stats.epochs as i64;
        self.emit(
            crate::trace::EventKind::RmaEpoch,
            crate::trace::EventPhase::Instant,
            win.0 as i64,
            1,
            epochs,
        );
        Ok(())
    }

    fn passive_sync(&mut self, win: WinHandle, target: usize, release: bool) -> Result<()> {
        self.check_live()?;
        let (comm, ack_tag, my_rank) = {
            let st = self.win_state(win)?;
            if !st.locks_held.contains(&target) {
                return err(
                    ErrorClass::Other,
                    "flush/unlock without a lock on this target",
                );
            }
            (st.comm, st.ack_tag, st.my_rank)
        };
        if target == my_rank {
            let st = self.win_state_mut(win)?;
            st.incoming[my_rank]
                .queue
                .push_back(RmaEntry::Flush { release });
            loop {
                self.rma_check_failed(comm)?;
                self.rma_progress()?;
                if self.win_state(win)?.lock.self_flush_done {
                    break;
                }
                self.progress_wait()?;
            }
            self.win_state_mut(win)?.lock.self_flush_done = false;
        } else {
            let req = self.irecv_on_context(comm, target as i32, ack_tag, None, true)?;
            self.rma_issue(win, target, vec![OP_FLUSH, release as u8], None)?;
            let completion = self.wait(req)?;
            if let Some(data) = completion.data {
                debug_assert_eq!(data.as_ref(), &[ACK_FLUSH_DONE]);
                self.recycle(data);
            }
        }
        // The ack proves application at the target; still drain our own
        // transport-level sends and any get replies from this target
        // (a large reply can trail the ack on the rendezvous path).
        loop {
            self.rma_check_failed(comm)?;
            self.rma_progress()?;
            let st = self.win_state(win)?;
            let sends_done = st.send_reqs.is_empty();
            let gets_done = st
                .gets
                .iter()
                .filter(|g| g.target == target)
                .all(|g| matches!(g.state, GetState::Ready(_)));
            if sends_done && gets_done {
                break;
            }
            self.progress_wait()?;
        }
        let st = self.win_state_mut(win)?;
        for g in st.gets.iter_mut().filter(|g| g.target == target) {
            g.synced = true;
        }
        Ok(())
    }

    /// True if any window has an open (un-synced) epoch — the finalize
    /// leak probe.
    pub(crate) fn rma_open_epoch(&self) -> bool {
        self.windows.values().any(|st| {
            st.unsynced_ops > 0
                || !st.send_reqs.is_empty()
                || !st.locks_held.is_empty()
                || st.lock.holder.is_some()
                || !st.lock.waiters.is_empty()
                || st.fences_applied < st.fences_started
                || st.gets.iter().any(|g| !g.synced)
                || st
                    .incoming
                    .iter()
                    .any(|o| !o.queue.is_empty() || !o.raw.is_empty() || o.pending.is_some())
        })
    }

    // ---- internal machinery -------------------------------------------

    fn win_state(&self, win: WinHandle) -> Result<&WindowState> {
        self.windows
            .get(&win.0)
            .ok_or_else(|| crate::error::MpiError::new(ErrorClass::Other, "unknown RMA window"))
    }

    fn win_state_mut(&mut self, win: WinHandle) -> Result<&mut WindowState> {
        self.windows
            .get_mut(&win.0)
            .ok_or_else(|| crate::error::MpiError::new(ErrorClass::Other, "unknown RMA window"))
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

    /// Ship one operation: header message, then (for put/accumulate) the
    /// payload message, both on the window's ordered data channel. Self
    /// targets bypass the transport and enqueue directly.
    fn rma_issue(
        &mut self,
        win: WinHandle,
        target: usize,
        header: Vec<u8>,
        payload: Option<Bytes>,
    ) -> Result<()> {
        let (comm, data_tag, my_rank, in_passive) = {
            let st = self.win_state(win)?;
            (
                st.comm,
                st.data_tag,
                st.my_rank,
                st.locks_held.contains(&target),
            )
        };
        let is_op = header[0] == OP_PUT || header[0] == OP_ACC || header[0] == OP_GET;
        if target == my_rank {
            // Self-targeted operations skip the wire but take the
            // identical queue path, so the applied-at-sync semantics hold
            // locally too.
            let entry = match (decode(&header)?, payload) {
                (Header::Payload(pending), Some(data)) => pending.with(data),
                (Header::Entry(entry), None) => entry,
                _ => return err(ErrorClass::Intern, "self RMA header without its payload"),
            };
            let st = self.win_state_mut(win)?;
            st.incoming[my_rank].queue.push_back(entry);
        } else {
            let req = self.isend_bytes_on_context(
                comm,
                target as i32,
                data_tag,
                Bytes::from(header),
                SendMode::Standard,
                true,
            )?;
            self.win_state_mut(win)?.send_reqs.push(req);
            if let Some(data) = payload {
                let req = self.isend_bytes_on_context(
                    comm,
                    target as i32,
                    data_tag,
                    data,
                    SendMode::Standard,
                    true,
                )?;
                self.win_state_mut(win)?.send_reqs.push(req);
            }
        }
        if is_op && !in_passive {
            self.win_state_mut(win)?.unsynced_ops += 1;
        }
        Ok(())
    }

    /// Fence completion test: our epoch applied locally, our transport
    /// sends drained, and every issued get resolved.
    fn fence_done(&mut self, win: WinHandle) -> Result<bool> {
        let st = self.win_state(win)?;
        Ok(st.fences_applied >= st.fences_started
            && st.send_reqs.is_empty()
            && st
                .gets
                .iter()
                .all(|g| matches!(g.state, GetState::Ready(_))))
    }

    /// The RMA progress hook, run from `nb_progress` (so every blocking
    /// or polling engine call drives it): ingest data-channel arrivals,
    /// resolve in-flight payloads, and apply whatever epochs the markers
    /// now cover. Must never re-enter the progress engine.
    pub(crate) fn rma_progress(&mut self) -> Result<()> {
        if self.windows.is_empty() {
            return Ok(());
        }
        let ids: Vec<u64> = self.windows.keys().copied().collect();
        for id in ids {
            let Some(mut st) = self.windows.remove(&id) else {
                continue;
            };
            let outcome = self.drive_window(&mut st);
            self.windows.insert(id, st);
            outcome?;
        }
        Ok(())
    }

    fn drive_window(&mut self, st: &mut WindowState) -> Result<()> {
        self.ingest_arrivals(st)?;
        // Resolve/parse to a fixpoint: parsing a header exposes the next
        // raw entry as the new queue front, and its payload may have
        // fully assembled already. One pass each would leave that
        // resolvable front parked until another frame happens to arrive
        // — which deadlocks a rank whose peers have all moved on.
        loop {
            let resolved = self.resolve_payloads(st)?;
            let parsed = self.parse_origins(st)?;
            if !resolved && !parsed {
                break;
            }
        }
        self.harvest_sends(st)?;
        self.harvest_gets(st)?;
        // Apply every epoch the markers now cover; each application can
        // unblock the next (pipelined fences), so loop to a fixpoint.
        loop {
            let mut progressed = self.try_apply_flushes(st)?;
            progressed |= self.try_apply_fence(st)?;
            if !progressed {
                break;
            }
        }
        // Applying epochs issues new sends (get replies, acks); harvest
        // the ones that completed at issue (eager) right away, or a
        // fence/flush wait could park on `send_reqs` that are already
        // done with no further frame coming to wake it.
        self.harvest_sends(st)?;
        Ok(())
    }

    /// Move this window's data-channel messages out of the unexpected
    /// queue (in arrival order), granting parked rendezvous envelopes
    /// exactly like a posted receive would.
    fn ingest_arrivals(&mut self, st: &mut WindowState) -> Result<()> {
        use crate::matching::UnexpectedKind;
        for msg in self.matching.take_tagged(st.context_coll, st.data_tag) {
            let origin = self.source_rank(st.comm, msg.src_world)?;
            let payload = match msg.kind {
                UnexpectedKind::Eager(data) => {
                    self.stats.bytes_received += data.len() as u64;
                    PayloadRef::Ready(data)
                }
                UnexpectedKind::Rendezvous => {
                    let req = self.fresh_request_id();
                    self.grant_rendezvous(req, origin, None, st.context_coll, &msg)?;
                    PayloadRef::Awaiting(RequestId(req))
                }
            };
            st.incoming[origin].raw.push_back(payload);
        }
        Ok(())
    }

    /// Resolve rendezvous payloads that have finished assembling. Only
    /// queue fronts matter: per-origin order is the protocol's backbone.
    /// Returns whether anything was resolved.
    fn resolve_payloads(&mut self, st: &mut WindowState) -> Result<bool> {
        let mut resolved = false;
        for origin in st.incoming.iter_mut() {
            if let Some(PayloadRef::Awaiting(req)) = origin.raw.front() {
                let req = *req;
                if !self.is_complete(req)? {
                    continue;
                }
                let completion = self.take_completion(req)?;
                let data = completion.data.unwrap_or_default();
                origin.raw.pop_front();
                origin.raw.push_front(PayloadRef::Ready(data));
                resolved = true;
            }
        }
        Ok(resolved)
    }

    /// Parse ready messages into operations. Lock requests act
    /// immediately (granting enables the origin's *next* sends, so this
    /// cannot reorder anything already queued). Returns whether anything
    /// was parsed.
    fn parse_origins(&mut self, st: &mut WindowState) -> Result<bool> {
        let mut parsed = false;
        for rank in 0..st.size {
            loop {
                let origin = &mut st.incoming[rank];
                let Some(PayloadRef::Ready(_)) = origin.raw.front() else {
                    break;
                };
                parsed = true;
                let Some(PayloadRef::Ready(data)) = origin.raw.pop_front() else {
                    unreachable!("checked above");
                };
                if let Some(pending) = origin.pending.take() {
                    origin.queue.push_back(pending.with(data));
                    continue;
                }
                match decode(&data)? {
                    Header::Payload(pending) => origin.pending = Some(pending),
                    Header::Entry(entry) => origin.queue.push_back(entry),
                    Header::Lock => self.rma_grant_or_enqueue(st, rank)?,
                }
            }
        }
        Ok(parsed)
    }

    fn rma_grant_or_enqueue(&mut self, st: &mut WindowState, origin: usize) -> Result<()> {
        if st.lock.holder.is_none() && st.lock.waiters.is_empty() {
            self.rma_grant(st, origin)
        } else {
            st.lock.waiters.push_back(origin);
            Ok(())
        }
    }

    fn rma_grant(&mut self, st: &mut WindowState, origin: usize) -> Result<()> {
        st.lock.holder = Some(origin);
        if origin == st.my_rank {
            st.lock.granted_self = true;
            Ok(())
        } else {
            self.rma_ack(st, origin, ACK_LOCK_GRANT)
        }
    }

    fn rma_ack(&mut self, st: &mut WindowState, origin: usize, code: u8) -> Result<()> {
        let req = self.isend_bytes_on_context(
            st.comm,
            origin as i32,
            st.ack_tag,
            Bytes::from(vec![code]),
            SendMode::Standard,
            true,
        )?;
        st.send_reqs.push(req);
        Ok(())
    }

    fn harvest_sends(&mut self, st: &mut WindowState) -> Result<()> {
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

    fn harvest_gets(&mut self, st: &mut WindowState) -> Result<()> {
        for rec in st.gets.iter_mut() {
            if let GetState::Waiting(req) = rec.state {
                if self.is_complete(req)? {
                    let completion = self.take_completion(req)?;
                    let data = completion.data.unwrap_or_default();
                    if data.len() != rec.len {
                        return err(
                            ErrorClass::Intern,
                            format!(
                                "get reply of {} bytes for a {}-byte request",
                                data.len(),
                                rec.len
                            ),
                        );
                    }
                    rec.state = GetState::Ready(data);
                }
            }
        }
        Ok(())
    }

    /// Apply one fence epoch if every origin's marker is in: origins in
    /// rank order, each origin's operations in issue order. This single
    /// ordering rule is what the deterministic-accumulate guarantee
    /// rests on.
    fn try_apply_fence(&mut self, st: &mut WindowState) -> Result<bool> {
        for origin in st.incoming.iter() {
            let first_marker = origin
                .queue
                .iter()
                .find(|e| matches!(e, RmaEntry::Fence | RmaEntry::Flush { .. }));
            match first_marker {
                Some(RmaEntry::Fence) => {}
                // No marker yet, or a passive epoch is still ahead of
                // the fence in this origin's stream.
                _ => return Ok(false),
            }
        }
        for rank in 0..st.size {
            loop {
                let entry = st.incoming[rank]
                    .queue
                    .pop_front()
                    .expect("fence marker guarantees entries");
                match entry {
                    RmaEntry::Fence => break,
                    other => self.apply_entry(st, rank, other)?,
                }
            }
        }
        st.fences_applied += 1;
        Ok(true)
    }

    /// Apply passive-target runs whose flush marker has arrived (only
    /// the lock holder can have one — exclusivity is the determinism
    /// argument here).
    fn try_apply_flushes(&mut self, st: &mut WindowState) -> Result<bool> {
        let mut progressed = false;
        for rank in 0..st.size {
            if st.lock.holder != Some(rank) {
                continue;
            }
            let first_marker = st.incoming[rank]
                .queue
                .iter()
                .find(|e| matches!(e, RmaEntry::Fence | RmaEntry::Flush { .. }));
            let release = match first_marker {
                Some(RmaEntry::Flush { release }) => *release,
                _ => continue,
            };
            loop {
                let entry = st.incoming[rank]
                    .queue
                    .pop_front()
                    .expect("flush marker guarantees entries");
                match entry {
                    RmaEntry::Flush { .. } => break,
                    other => self.apply_entry(st, rank, other)?,
                }
            }
            if rank == st.my_rank {
                st.lock.self_flush_done = true;
            } else {
                self.rma_ack(st, rank, ACK_FLUSH_DONE)?;
            }
            if release {
                st.lock.holder = None;
                if let Some(next) = st.lock.waiters.pop_front() {
                    self.rma_grant(st, next)?;
                }
            }
            progressed = true;
        }
        Ok(progressed)
    }

    fn apply_entry(&mut self, st: &mut WindowState, origin: usize, entry: RmaEntry) -> Result<()> {
        match entry {
            RmaEntry::Put { offset, data } => {
                let end = offset
                    .checked_add(data.len())
                    .filter(|&e| e <= st.region.len());
                let Some(end) = end else {
                    return err(
                        ErrorClass::Buffer,
                        format!(
                            "put of {} bytes at offset {offset} exceeds window of {} bytes",
                            data.len(),
                            st.region.len()
                        ),
                    );
                };
                st.region[offset..end].copy_from_slice(&data);
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
                let end = offset
                    .checked_add(data.len())
                    .filter(|&e| e <= st.region.len());
                let Some(end) = end else {
                    return err(
                        ErrorClass::Buffer,
                        format!(
                            "accumulate of {} bytes at offset {offset} exceeds window of {} bytes",
                            data.len(),
                            st.region.len()
                        ),
                    );
                };
                let count = data.len() / kind.size();
                Op::Predefined(op).apply(&data, &mut st.region[offset..end], kind, count)?;
                st.dirty = true;
                self.recycle(data);
            }
            RmaEntry::Get { offset, len } => {
                let end = offset.checked_add(len).filter(|&e| e <= st.region.len());
                let Some(end) = end else {
                    return err(
                        ErrorClass::Buffer,
                        format!(
                            "get of {len} bytes at offset {offset} exceeds window of {} bytes",
                            st.region.len()
                        ),
                    );
                };
                // Stage a copy of the current region contents (the reply
                // must reflect this sync point, not a later one).
                let staged = Bytes::from(st.region[offset..end].to_vec());
                self.stats.bytes_copied += len as u64;
                if origin == st.my_rank {
                    let rec = st
                        .gets
                        .iter_mut()
                        .find(|g| {
                            g.target == st.my_rank && matches!(g.state, GetState::SelfPending)
                        })
                        .expect("self get entry has a matching record");
                    rec.state = GetState::Ready(staged);
                } else {
                    let req = self.isend_bytes_on_context(
                        st.comm,
                        origin as i32,
                        st.reply_tag,
                        staged,
                        SendMode::Standard,
                        true,
                    )?;
                    st.send_reqs.push(req);
                }
            }
            RmaEntry::Fence | RmaEntry::Flush { .. } => {
                unreachable!("markers are consumed by the epoch loops")
            }
        }
        Ok(())
    }
}

fn kind_code(kind: PrimitiveKind) -> u8 {
    match kind {
        PrimitiveKind::Byte => 0,
        PrimitiveKind::Char => 1,
        PrimitiveKind::Boolean => 2,
        PrimitiveKind::Short => 3,
        PrimitiveKind::Int => 4,
        PrimitiveKind::Long => 5,
        PrimitiveKind::Float => 6,
        PrimitiveKind::Double => 7,
        PrimitiveKind::Packed => 8,
        PrimitiveKind::Int2 => 9,
        PrimitiveKind::Long2 => 10,
        PrimitiveKind::Float2 => 11,
        PrimitiveKind::Double2 => 12,
        PrimitiveKind::Short2 => 13,
    }
}

fn kind_from_code(code: u8) -> Result<PrimitiveKind> {
    Ok(match code {
        0 => PrimitiveKind::Byte,
        1 => PrimitiveKind::Char,
        2 => PrimitiveKind::Boolean,
        3 => PrimitiveKind::Short,
        4 => PrimitiveKind::Int,
        5 => PrimitiveKind::Long,
        6 => PrimitiveKind::Float,
        7 => PrimitiveKind::Double,
        8 => PrimitiveKind::Packed,
        9 => PrimitiveKind::Int2,
        10 => PrimitiveKind::Long2,
        11 => PrimitiveKind::Float2,
        12 => PrimitiveKind::Double2,
        13 => PrimitiveKind::Short2,
        other => return err(ErrorClass::Intern, format!("bad RMA kind code {other}")),
    })
}

fn op_code(op: PredefinedOp) -> u8 {
    match op {
        PredefinedOp::Max => 0,
        PredefinedOp::Min => 1,
        PredefinedOp::Sum => 2,
        PredefinedOp::Prod => 3,
        PredefinedOp::Land => 4,
        PredefinedOp::Band => 5,
        PredefinedOp::Lor => 6,
        PredefinedOp::Bor => 7,
        PredefinedOp::Lxor => 8,
        PredefinedOp::Bxor => 9,
        PredefinedOp::Maxloc => 10,
        PredefinedOp::Minloc => 11,
    }
}

fn op_from_code(code: u8) -> Result<PredefinedOp> {
    Ok(match code {
        0 => PredefinedOp::Max,
        1 => PredefinedOp::Min,
        2 => PredefinedOp::Sum,
        3 => PredefinedOp::Prod,
        4 => PredefinedOp::Land,
        5 => PredefinedOp::Band,
        6 => PredefinedOp::Lor,
        7 => PredefinedOp::Bor,
        8 => PredefinedOp::Lxor,
        9 => PredefinedOp::Bxor,
        10 => PredefinedOp::Maxloc,
        11 => PredefinedOp::Minloc,
        other => return err(ErrorClass::Intern, format!("bad RMA op code {other}")),
    })
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

    /// Every op code cut short at every length below its layout decodes
    /// to an `Intern` error instead of indexing out of range, and so do
    /// unknown codes; the full layouts decode.
    #[test]
    fn short_and_unknown_headers_are_errors_not_panics() {
        let span = [7u64.to_le_bytes(), 3u64.to_le_bytes()].concat();
        let put = [&[OP_PUT][..], &span].concat();
        let get = [&[OP_GET][..], &span].concat();
        let codes = [kind_code(PrimitiveKind::Int), op_code(PredefinedOp::Sum)];
        let acc = [&[OP_ACC][..], &span, &codes].concat();
        let table: [(&[u8], usize); 6] = [
            (&put, 17),
            (&acc, 19),
            (&get, 17),
            (&[OP_FENCE], 1),
            (&[OP_FLUSH, 1], 2),
            (&[OP_LOCK], 1),
        ];
        for (full, min_len) in table {
            assert_eq!(full.len(), min_len);
            decode(full).unwrap();
            for cut in 0..min_len {
                let e = decode(&full[..cut]).unwrap_err();
                assert_eq!(e.class, ErrorClass::Intern, "op {} cut to {cut}", full[0]);
            }
        }
        let mut bad_kind = acc.clone();
        bad_kind[17] = 200;
        let mut bad_op = acc;
        bad_op[18] = 200;
        for bad in [&[OP_LOCK + 1][..], &[0xff], &bad_kind, &bad_op] {
            assert_eq!(decode(bad).unwrap_err().class, ErrorClass::Intern);
        }
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
