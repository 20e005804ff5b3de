//! Nonblocking collectives: round-based schedules driven by an
//! incremental progress engine.
//!
//! ## The schedule model
//!
//! Every collective algorithm in [`super`] — linear, binomial tree,
//! recursive doubling, ring, hierarchical — is expressed as a
//! `CollSchedule`: a static list of `Round`s, fixed when the schedule is
//! built, each holding
//!
//! * **receive steps** (peer, tag, destination slot),
//! * **send steps** (peer, tag, source slot or slot range), and
//! * an optional **compute step** (local reduction / framing /
//!   partitioning) that runs once every transfer of the round has
//!   completed.
//!
//! Data flows between rounds through *slots* — indexed byte buffers owned
//! by the schedule. A send posted in round *k* reads its slot at post
//! time, so a compute in round *k−1* is how one round's result becomes
//! the next round's payload. A compute never adds rounds: the executor
//! walks the list with one cursor, so what a schedule will post is known
//! before its first round goes out.
//!
//! A slot buffer's life ends in the engine's staging pool (see
//! [`crate::p2p`]), not in the allocator. A compute that takes a buffer
//! and does not keep it — the operand a fold merged away, a received
//! ring segment, a framed wire buffer once unframed — hands it back
//! through `SchedCtx::recycle`, and a retiring schedule hands back
//! whatever is left in its slot store. The received buffers came out of
//! a peer's pool as that peer's send, so in a steady loop of small
//! collectives every payload buffer is a pooled one.
//!
//! The same schedules back every call mode: a blocking collective is
//! exactly its nonblocking launch followed by a wait on the request
//! (`Engine::wait_outcome`, which keeps gather-family parts apart), so
//! the blocking and nonblocking paths cannot diverge — there are no
//! per-algorithm blocking send/receive loops left anywhere.
//!
//! ## Progress semantics
//!
//! Starting a collective posts round 0 (receives first, then sends — the
//! deadlock-free order the blocking exchanges always used) and returns a
//! [`RequestId`] in the engine's one request table (see
//! [`crate::request`]), whose id also goes on the table's list of
//! schedules in flight. The schedule then advances only when the engine
//! is *driven*:
//!
//! * [`Engine::test`] — non-parking: drains the transport, advances
//!   every in-flight schedule as far as it can go, and reports whether
//!   this one finished;
//! * [`Engine::wait`] — blocks on the transport between advances
//!   until this schedule finishes;
//! * **background progress hook**: every engine entry point that drives
//!   the transport (`wait`, `test`, `probe`, `iprobe`, and the
//!   [`Engine::progress_poll`] / [`Engine::progress_wait`] pair the
//!   binding's batch waits are built on) also advances all in-flight
//!   collective schedules, so a rank blocked in unrelated
//!   point-to-point traffic still makes collective progress for its
//!   peers.
//!
//! The hook walks the in-flight list only — never the request table —
//! and drops each schedule from the list once it finishes, so a
//! point-to-point wait with no collective in flight pays one emptiness
//! check. Advancing is strictly non-parking: completed transfers are
//! harvested with the engine's non-blocking
//! `is_complete`/`take_completion` machinery, computes run, and the next
//! round is posted; the first still-pending transfer stops the sweep. A
//! rank that stops testing simply holds its collectives where they are —
//! exactly the progress rule of real MPI nonblocking collectives without
//! an async progress thread.
//!
//! ## Tag-window accounting
//!
//! Collective traffic runs on the communicator's private collective
//! context, so tags are free to encode *which* collective and *which*
//! round a frame belongs to. Every schedule (and every phase of a
//! composite schedule, e.g. the reduce and bcast halves of a tree
//! allreduce) allocates a fresh `TagWindow` of `ROUND_SPACE`
//! consecutive tags from the communicator's sequence counter, which
//! lives in its record ([`crate::comm::CommRecord`]): a new
//! communicator starts it at 0 and `comm_free` drops it with the record,
//! and a checkpoint restores it only for the built-in communicators
//! ([`crate::checkpoint`]). MPI
//! requires every rank to issue collectives on a communicator in the
//! same order, so the counters stay symmetric without communication, and
//! concurrent nonblocking collectives occupy *distinct* windows — their
//! frames can never match each other. Windows recycle after
//! `NUM_TAG_WINDOWS` collectives and rounds beyond `ROUND_SPACE`
//! wrap within their window; both reuses are safe because by then the
//! frames flow between the same ordered rank pair in the same order on
//! both sides, and the transport is FIFO per pair.
//!
//! ## Schedule caching
//!
//! Building a schedule is pure local work — O(P) rounds, slot
//! allocation, closure construction — repeated identically for every
//! call of a tight iteration loop. The `cache` submodule turns that
//! into a one-time cost: after the first build of a cacheable operation
//! the engine stores a `SchedTemplate`, and a later call replays it by
//! reference. A schedule's rounds are one list read through one cursor
//! and one uniform tag shift: a fresh build owns its `Vec<Round>` (shift
//! 0), and capturing it as a template freezes that list, in place, into
//! the `Arc<[Round]>` the template shares with every instance. The
//! executor reads each round in place and adds the shift as it posts. A
//! hit copies no round and rewrites no tag — it allocates the slot store
//! and nothing else. Exactly one place consults the cache — the `plan`
//! step in [`crate::coll`], which every collective in every call mode
//! (blocking, `i*`, `*_init`) passes through.
//!
//! **Keying.** The cache is *per-rank local memoization*: each engine
//! keys on its own local call parameters — `(communicator, chosen
//! algorithm, operation, root, kind/count/op)`, the `SchedKey`, derived
//! from the call's descriptor. No coordination is needed because MPI
//! already requires every rank to issue collectives on a communicator
//! in the same order and the algorithm choice is deterministic, so hits
//! and misses line up across ranks and both paths consume the same
//! number of tag windows. User-defined reduction ops key on the `Arc`
//! identity of the function; the template's compute closures hold a
//! clone of that `Arc`, so the address cannot be recycled while the
//! entry lives.
//!
//! **What is cacheable.** A template captures everything about a
//! schedule except the per-call payload, which lives in one dedicated
//! *input* slot (`CollSchedule::input`) stored empty and refilled on
//! every instantiation. Which (operation, algorithm) pairs qualify, and
//! the payload size past which even those are rebuilt per call, is one
//! decision in one function, `cache::cache_use` (the table is in the
//! [`crate::coll`] module docs). Builders that bake payload into
//! ordinary slots at build time additionally mark their schedule
//! `Sched::uncacheable`, so a table entry that disagrees with a builder
//! fails safe: `SchedTemplate::capture` refuses the schedule.
//!
//! **Tag retargeting.** An instance must not reuse the template's tag
//! windows while another transient collective might occupy them, so
//! every instantiation allocates fresh consecutive windows from the
//! communicator's sequence, and its tag shift is the uniform window
//! delta. A schedule records its windows as one `(first, count)` run.
//! If the sequence wraps mid-allocation (non-consecutive windows, once
//! per `NUM_TAG_WINDOWS` collectives) the call falls back to a full
//! rebuild and counts as a miss. Persistent collectives pin the windows
//! their `*_init` plan consumed instead — strictly sequential `start()`s
//! may reuse the same tags because the transport is FIFO per pair and a
//! schedule uses its tags in a deterministic order. Because `*_init`
//! plans through the transient cache, its plan may itself be an
//! instance; the persistent template then keeps the instance's shared
//! rounds *and* its shift. A pinned start looks nothing up, so it counts
//! neither a hit nor a miss. An `*_init` whose plan is not templatable
//! (or whose communicator has one rank) pins nothing and plans the
//! transient form on every start.
//!
//! **Invalidation.** Freeing a communicator drops every template keyed
//! to it ([`Engine::comm_free`]); templates never outlive the tag-window
//! sequence or context they were built against. Hit/miss counts are
//! surfaced through `EngineStats::sched_cache_hits`/`_misses`.

use std::sync::Arc;

use bytes::Bytes;

use super::{CollAlgorithm, CollOp};
use crate::comm::CommHandle;
use crate::error::{err, ErrorClass, MpiError, Result};
use crate::p2p::{StagingPool, COLLECTIVE_TAG_BASE};
use crate::request::{Completion, RequestId, RequestState};
use crate::trace::{EventKind, EventPhase};
use crate::types::{SendMode, StatusInfo};
use crate::Engine;

pub(crate) mod cache;

/// Tags reserved per collective schedule phase (one per round).
pub(crate) const ROUND_SPACE: usize = 64;

/// Distinct tag windows before the per-communicator sequence recycles.
pub(crate) const NUM_TAG_WINDOWS: u64 = 8192;

/// A window of [`ROUND_SPACE`] consecutive engine-internal tags, private
/// to one collective schedule phase on one communicator. See the module
/// docs for the accounting rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TagWindow(pub(crate) u32);

impl TagWindow {
    /// The tag for logical round `round` of this window (rounds beyond
    /// [`ROUND_SPACE`] wrap — safe per the module docs).
    pub(crate) fn tag(self, round: usize) -> i32 {
        COLLECTIVE_TAG_BASE
            - 1
            - (self.0 as i32) * ROUND_SPACE as i32
            - (round % ROUND_SPACE) as i32
    }
}

/// Index of a schedule-owned byte buffer.
pub(crate) type SlotId = usize;

/// Where a send step takes its payload from, resolved at post time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SendData {
    /// The whole contents of a slot.
    Slot(SlotId),
    /// A sub-range `[start, end)` of a slot (a ring segment, sent
    /// straight out of the buffer it is folded into, with no copy).
    SlotRange(SlotId, usize, usize),
}

/// One posted send of a round.
#[derive(Debug, Clone)]
pub(crate) struct SendStep {
    pub peer: usize,
    pub tag: i32,
    pub data: SendData,
}

/// One posted receive of a round; the arrived payload lands in `slot`.
#[derive(Debug, Clone)]
pub(crate) struct RecvStep {
    pub peer: usize,
    pub tag: i32,
    pub slot: SlotId,
}

/// A local computation that runs once all transfers of its round have
/// completed. It may read/write slots and set the final outcome.
///
/// Shared (`Arc` + `Fn`) rather than owned-once because a round is: the
/// schedule cache stores one template per (comm, op, algorithm, shape)
/// key, and every instantiation runs the template's rounds by reference.
/// Each run still calls a round's compute exactly once (the cursor moves
/// past the round), so `Fn` is a capability requirement, not a semantic
/// change.
pub(crate) type ComputeFn = Arc<dyn Fn(&mut SchedCtx<'_>) -> Result<()> + Send + Sync>;

/// One round of a schedule: receives are posted before sends (the
/// deadlock-free exchange order), the compute runs after everything in
/// the round has completed.
#[derive(Default, Clone)]
pub(crate) struct Round {
    pub recvs: Vec<RecvStep>,
    pub sends: Vec<SendStep>,
    pub compute: Option<ComputeFn>,
}

impl Round {
    pub(crate) fn new() -> Round {
        Round::default()
    }

    pub(crate) fn recv(mut self, peer: usize, tag: i32, slot: SlotId) -> Round {
        self.recvs.push(RecvStep { peer, tag, slot });
        self
    }

    pub(crate) fn send(mut self, peer: usize, tag: i32, slot: SlotId) -> Round {
        self.sends.push(SendStep {
            peer,
            tag,
            data: SendData::Slot(slot),
        });
        self
    }

    pub(crate) fn send_range(
        mut self,
        peer: usize,
        tag: i32,
        slot: SlotId,
        start: usize,
        end: usize,
    ) -> Round {
        self.sends.push(SendStep {
            peer,
            tag,
            data: SendData::SlotRange(slot, start, end),
        });
        self
    }

    pub(crate) fn compute(
        mut self,
        f: impl Fn(&mut SchedCtx<'_>) -> Result<()> + Send + Sync + 'static,
    ) -> Round {
        self.compute = Some(Arc::new(f));
        self
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.recvs.is_empty() && self.sends.is_empty() && self.compute.is_none()
    }
}

/// What a completed collective delivers (see the per-operation docs in
/// [`crate::coll`] for which variant each operation produces).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CollOutcome {
    /// Nothing to deliver (barrier; non-root ranks of rooted operations).
    Done,
    /// A single result buffer (bcast, scatter, reduce at the root,
    /// allreduce, reduce-scatter, scan).
    Buffer(Vec<u8>),
    /// One buffer per rank, in rank order (gather at the root, allgather,
    /// alltoall).
    Parts(Vec<Vec<u8>>),
}

impl CollOutcome {
    /// The outcome as a request completion: no payload for `Done`, else
    /// the buffer — gather-family parts concatenated in rank order — with
    /// its byte count as the status.
    pub(crate) fn into_completion(self) -> Completion {
        let data = match self {
            CollOutcome::Done => return Completion::empty(),
            CollOutcome::Buffer(buffer) => buffer,
            CollOutcome::Parts(parts) => parts.concat(),
        };
        let mut status = StatusInfo::empty();
        status.count_bytes = data.len();
        Completion {
            status,
            data: Some(Bytes::from(data)),
        }
    }
}

/// The mutable view a compute step gets: the slots, the outcome cell
/// and the engine's staging pool, where a slot buffer the compute is
/// done with goes.
pub(crate) struct SchedCtx<'a> {
    slots: &'a mut [Option<Vec<u8>>],
    outcome: &'a mut Option<CollOutcome>,
    pool: &'a mut StagingPool,
}

impl SchedCtx<'_> {
    /// Take the contents of a slot (errors if it was never filled — a
    /// schedule bug, not a user error).
    pub(crate) fn take(&mut self, slot: SlotId) -> Result<Vec<u8>> {
        self.slots
            .get_mut(slot)
            .and_then(Option::take)
            .ok_or_else(|| MpiError::new(ErrorClass::Intern, "collective schedule slot is empty"))
    }

    /// Mutably borrow the contents of a slot.
    pub(crate) fn get_mut(&mut self, slot: SlotId) -> Result<&mut Vec<u8>> {
        self.slots
            .get_mut(slot)
            .and_then(|s| s.as_mut())
            .ok_or_else(|| MpiError::new(ErrorClass::Intern, "collective schedule slot is empty"))
    }

    /// (Re)fill a slot.
    pub(crate) fn put(&mut self, slot: SlotId, data: Vec<u8>) {
        self.slots[slot] = Some(data);
    }

    /// Hand a buffer this compute took and does not keep — a folded-away
    /// operand, an unframed wire buffer — to the engine's staging pool,
    /// where the next payload of this rank picks it up.
    pub(crate) fn recycle(&mut self, buf: Vec<u8>) {
        self.pool.put(buf);
    }

    /// Record the collective's final result.
    pub(crate) fn set_outcome(&mut self, outcome: CollOutcome) {
        *self.outcome = Some(outcome);
    }
}

/// A schedule's rounds: the list a builder pushed, or, once the
/// schedule is a template, the list a [`cache::SchedTemplate`] shares
/// with every schedule instantiated from it. The executor reads either
/// through one `&[Round]` view.
enum Rounds {
    Built(Vec<Round>),
    Shared(Arc<[Round]>),
}

impl Default for Rounds {
    fn default() -> Rounds {
        Rounds::Built(Vec::new())
    }
}

impl std::ops::Deref for Rounds {
    type Target = [Round];

    fn deref(&self) -> &[Round] {
        match self {
            Rounds::Built(rounds) => rounds,
            Rounds::Shared(rounds) => rounds,
        }
    }
}

/// An executable collective: rounds plus the slot store they operate on.
/// Built by the algorithm modules, run by the engine's progress driver,
/// which posts `rounds[next]` with `shift` added to every tag.
/// [`CollSchedule::freeze`] turns a built schedule's rounds into shared
/// ones when it becomes a template, so a cache miss and every later hit
/// run the same rounds.
#[derive(Default)]
pub(crate) struct CollSchedule {
    rounds: Rounds,
    /// The next round to post.
    next: usize,
    /// Added to every tag of a round when it is posted: the distance, in
    /// tags, from the windows the rounds were built over to the windows
    /// this schedule runs on (0 for a fresh build).
    shift: i32,
    pub(crate) slots: Vec<Option<Vec<u8>>>,
    pub(crate) outcome: Option<CollOutcome>,
    /// Tag windows this schedule runs over, as `(first, count)`: `count`
    /// consecutive windows of the communicator's sequence. A build whose
    /// windows are not consecutive (the sequence wrapped mid-build) is
    /// marked `uncacheable` instead.
    pub(crate) windows: (u32, u32),
    /// The slot registered through [`CollSchedule::input`]: the call's
    /// payload. A template stores this slot *empty* and every
    /// instantiation refills it — everything else in the slot store is
    /// call-invariant by construction.
    pub(crate) input: Option<SlotId>,
    /// Set by builders that bake per-call payload into ordinary
    /// (non-input) slots at build time — such a schedule must never
    /// become a template (see [`Sched::uncacheable`]).
    pub(crate) uncacheable: bool,
}

impl CollSchedule {
    pub(crate) fn new() -> CollSchedule {
        CollSchedule::default()
    }

    /// Allocate an empty slot (filled later by a receive or a compute).
    pub(crate) fn empty(&mut self) -> SlotId {
        self.slots.push(None);
        self.slots.len() - 1
    }

    /// Allocate a slot pre-filled with `data`.
    pub(crate) fn filled(&mut self, data: Vec<u8>) -> SlotId {
        self.slots.push(Some(data));
        self.slots.len() - 1
    }

    /// Pre-fill an existing slot.
    pub(crate) fn fill(&mut self, slot: SlotId, data: Vec<u8>) {
        self.slots[slot] = Some(data);
    }

    /// Append a round, dropping empty ones. Only a schedule under
    /// construction takes rounds.
    pub(crate) fn push(&mut self, round: Round) {
        let Rounds::Built(rounds) = &mut self.rounds else {
            unreachable!("rounds are pushed only while a schedule is built");
        };
        if !round.is_empty() {
            rounds.push(round);
        }
    }

    /// Record the next tag window this schedule was built over.
    fn push_window(&mut self, window: u32) {
        let (first, count) = self.windows;
        if count == 0 {
            self.windows = (window, 1);
        } else if window == first + count {
            self.windows.1 += 1;
        } else {
            self.uncacheable = true;
        }
    }

    /// Make the built rounds shareable, in place (a no-op for a
    /// schedule that already runs shared rounds). Only a schedule that
    /// has not started is frozen.
    fn freeze(&mut self) -> Arc<[Round]> {
        debug_assert_eq!(self.next, 0, "a started schedule is not frozen");
        let rounds = match std::mem::take(&mut self.rounds) {
            Rounds::Built(rounds) => Arc::from(rounds),
            Rounds::Shared(rounds) => rounds,
        };
        self.rounds = Rounds::Shared(Arc::clone(&rounds));
        rounds
    }

    /// Allocate the slot holding the caller's per-call payload and
    /// register it as the template input (refilled on every cache
    /// instantiation). At most one per schedule.
    pub(crate) fn input(&mut self, data: Vec<u8>) -> SlotId {
        debug_assert!(self.input.is_none(), "a schedule has one input slot");
        let slot = self.filled(data);
        self.input = Some(slot);
        slot
    }

    /// Refill the input slot of an instantiated template (a no-op for
    /// schedules without local input: barrier, bcast off the root).
    pub(crate) fn set_input(&mut self, data: Vec<u8>) {
        if let Some(slot) = self.input {
            self.slots[slot] = Some(data);
        }
    }
}

/// What the algorithm modules need from a schedule under construction.
///
/// The builders in [`super::linear`] / [`super::tree`] / [`super::rd`] /
/// [`super::ring`] are generic over this trait so the same wire patterns
/// compose at two scopes:
///
/// * directly on a [`CollSchedule`] — peers are the communicator's own
///   ranks (the flat algorithms), or
/// * through a [`Subgroup`] view — the builder runs over a *relabelled*
///   rank space `0..members.len()` and every peer it names is translated
///   to the owning communicator rank when the round is pushed. This is
///   how the hierarchical collectives ([`super::hier`]) reuse the
///   tree/recursive-doubling schedules over the node-leader subgroup
///   without the builders knowing anything about nodes.
///
/// Slots are shared with the underlying schedule either way (a
/// `Subgroup` allocates from the same store), so slot ids handed across
/// phase boundaries stay valid; only the *peers* of pushed rounds are
/// remapped, which is safe because peers live in plain `Round` fields —
/// compute closures capture slots, never peers.
pub(crate) trait Sched {
    /// Allocate an empty slot (filled later by a receive or a compute).
    fn empty(&mut self) -> SlotId;
    /// Allocate a slot pre-filled with `data`.
    fn filled(&mut self, data: Vec<u8>) -> SlotId;
    /// Pre-fill an existing slot.
    fn fill(&mut self, slot: SlotId, data: Vec<u8>);
    /// Append a round (empty rounds are dropped).
    fn push(&mut self, round: Round);
    /// Declare that this schedule bakes per-call payload into ordinary
    /// slots at build time (scatter and alltoall chunks): it must not
    /// be stored as a cache template. Constant builder-filled slots,
    /// such as zero-byte signals, do *not* need this: they are
    /// identical for every call with the same cache key.
    fn uncacheable(&mut self);
}

impl Sched for CollSchedule {
    fn empty(&mut self) -> SlotId {
        CollSchedule::empty(self)
    }
    fn filled(&mut self, data: Vec<u8>) -> SlotId {
        CollSchedule::filled(self, data)
    }
    fn fill(&mut self, slot: SlotId, data: Vec<u8>) {
        CollSchedule::fill(self, slot, data)
    }
    fn push(&mut self, round: Round) {
        CollSchedule::push(self, round)
    }
    fn uncacheable(&mut self) {
        self.uncacheable = true;
    }
}

/// A relabelled view of a schedule: the wrapped builder sees ranks
/// `0..members.len()`, and every peer of a pushed round is translated
/// through `members` to the owning communicator's rank space. See
/// [`Sched`].
pub(crate) struct Subgroup<'a> {
    inner: &'a mut CollSchedule,
    members: &'a [usize],
}

impl<'a> Subgroup<'a> {
    /// View `inner` through the rank relabelling `members[sub_rank] =
    /// comm_rank`.
    pub(crate) fn new(inner: &'a mut CollSchedule, members: &'a [usize]) -> Subgroup<'a> {
        Subgroup { inner, members }
    }
}

impl Sched for Subgroup<'_> {
    fn empty(&mut self) -> SlotId {
        self.inner.empty()
    }
    fn filled(&mut self, data: Vec<u8>) -> SlotId {
        self.inner.filled(data)
    }
    fn fill(&mut self, slot: SlotId, data: Vec<u8>) {
        self.inner.fill(slot, data)
    }
    fn uncacheable(&mut self) {
        self.inner.uncacheable();
    }
    fn push(&mut self, mut round: Round) {
        for recv in &mut round.recvs {
            recv.peer = self.members[recv.peer];
        }
        for send in &mut round.sends {
            send.peer = self.members[send.peer];
        }
        self.inner.push(round);
    }
}

/// One transfer of the current round still in flight.
enum Flight {
    Send(RequestId),
    Recv(RequestId, SlotId),
}

/// Observability bookkeeping for one schedule (see [`crate::trace`]):
/// the identity stamped on its `coll` begin/end events and the state of
/// the currently open `coll_round` bracket.
#[derive(Default)]
pub(crate) struct CollTraceState {
    /// Schedule id (the collective request id) in event argument form.
    id: i64,
    /// [`crate::coll::CollOp`] index of the planned operation
    /// (persistent starts carry the pair their init planned), or -1 for
    /// schedules no selection produced (neighborhood exchanges).
    op: i64,
    /// [`crate::coll::CollAlgorithm`] index, or -1 alongside `op`.
    alg: i64,
    /// A `coll` Begin was emitted, so an End must close it.
    traced: bool,
    /// Rounds completed so far (the `round` event argument).
    round_idx: i64,
    /// Communicator collective context id — identical on every member,
    /// half of the cross-rank join key stamped on `coll`/`coll_round`.
    ctx: i64,
    /// Per-communicator causal sequence (bumped once per collective
    /// start, symmetric across ranks) — the other half of the join key.
    cseq: i64,
    /// A `coll_round` Begin is open.
    round_open: bool,
    /// Monotonic open timestamp of the current round (feeds the
    /// `coll.round_duration` histogram).
    round_started_ns: u64,
    /// Transfers posted in the current round.
    round_transfers: i64,
}

/// Engine-side state of one in-flight collective schedule.
pub(crate) struct NbColl {
    comm: CommHandle,
    schedule: CollSchedule,
    in_flight: Vec<Flight>,
    /// Compute of the round whose transfers are in flight.
    pending_compute: Option<ComputeFn>,
    /// All rounds ran (or the schedule failed); the outcome or error is
    /// ready to be claimed.
    finished: bool,
    /// A drive error (malformed frame, failed compute): held for the
    /// owner to claim through `test`/`wait` instead of leaking
    /// out of whichever unrelated call happened to drive progress. The
    /// failed schedule is quiesced (rounds dropped, in-flight receives
    /// withdrawn) so it cannot corrupt later rounds or block finalize
    /// forever.
    failed: Option<MpiError>,
    /// Trace identity and open-bracket state (see [`crate::trace`]).
    trace: CollTraceState,
}

impl NbColl {
    /// True once the schedule ran (or failed) to completion.
    pub(crate) fn is_finished(&self) -> bool {
        self.finished
    }

    /// The communicator the schedule runs over (the failure sweep of
    /// [`crate::failure`] quiesces schedules whose communicator contains
    /// a dead rank).
    pub(crate) fn comm_handle(&self) -> CommHandle {
        self.comm
    }
}

impl Engine {
    /// Allocate the next tag window of `comm`'s collective sequence (see
    /// the module docs). Every rank calls collectives in the same order,
    /// so the allocation is symmetric without communication.
    pub(crate) fn alloc_tag_window(&mut self, comm: CommHandle) -> TagWindow {
        // Every collective has resolved `comm` before it plans; an
        // unknown handle draws window 0 and fails at its first transfer.
        let seq = match self.comm_mut(comm) {
            Ok(record) => {
                record.coll_seq += 1;
                record.coll_seq - 1
            }
            Err(_) => 0,
        };
        TagWindow((seq % NUM_TAG_WINDOWS) as u32)
    }

    /// [`Engine::alloc_tag_window`], recorded on the schedule under
    /// construction so the cache layer knows which windows a template was
    /// built over (and how many a fresh instantiation must allocate).
    pub(crate) fn sched_window(&mut self, comm: CommHandle, s: &mut CollSchedule) -> TagWindow {
        let win = self.alloc_tag_window(comm);
        s.push_window(win.0);
        win
    }

    /// Register a schedule and start it: round 0 is posted immediately
    /// (and any rounds that can already complete, e.g. local computes,
    /// run to exhaustion). `planned` is the (operation, algorithm) pair
    /// the schedule was planned with — the label of its `coll` trace
    /// events; `None` (no selection happened) reports `unknown`.
    pub(crate) fn coll_start(
        &mut self,
        comm: CommHandle,
        schedule: CollSchedule,
        planned: Option<(CollOp, CollAlgorithm)>,
    ) -> Result<RequestId> {
        let id = self.fresh_request_id();
        let (op_idx, alg_idx) = planned.map_or((-1, -1), |(op, alg)| {
            (op.index() as i64, alg.index() as i64)
        });
        // Causal stamp: every member calls collectives on a communicator
        // in the same order, so (collective context id, start counter) is
        // identical on every rank for the same logical operation — the
        // join key the cross-rank analyzer matches round brackets with.
        // The local `id` is a per-rank request number and is not.
        let record = self.comm_mut(comm)?;
        record.coll_causal_seq += 1;
        let (ctx, cseq) = (record.context_coll as i64, record.coll_causal_seq as i64);
        let traced = self.tracer.events_on();
        if traced {
            self.emit_full(
                EventKind::Coll,
                EventPhase::Begin,
                op_idx,
                alg_idx,
                id as i64,
                ctx,
                cseq,
            );
        }
        let mut state = Box::new(NbColl {
            comm,
            schedule,
            in_flight: Vec::new(),
            pending_compute: None,
            finished: false,
            failed: None,
            trace: CollTraceState {
                id: id as i64,
                op: op_idx,
                alg: alg_idx,
                ctx,
                cseq,
                traced,
                ..CollTraceState::default()
            },
        });
        if let Err(error) = self.drive_nb(&mut state) {
            self.fail_nb(&mut state, error);
        }
        self.requests.insert(id, RequestState::Coll(state));
        Ok(RequestId(id))
    }

    /// A collective that is already complete at start (single-rank
    /// communicators — no frames, no schedule).
    pub(crate) fn coll_immediate(&mut self, outcome: CollOutcome) -> Result<RequestId> {
        let schedule = CollSchedule {
            outcome: Some(outcome),
            ..CollSchedule::new()
        };
        Ok(self.alloc_request(RequestState::Coll(Box::new(NbColl {
            comm: crate::comm::COMM_SELF,
            schedule,
            in_flight: Vec::new(),
            pending_compute: None,
            finished: true,
            failed: None,
            // No schedule, no rounds, nothing to bracket.
            trace: CollTraceState::default(),
        }))))
    }

    /// Quiesce a schedule that can no longer make progress: withdraw its
    /// in-flight transfers, drop its remaining rounds, and park the
    /// error for the owner to claim. The request stays claimable (so
    /// `wait` reports the failure) and no posted receive leaks.
    pub(crate) fn fail_nb(&mut self, st: &mut NbColl, error: MpiError) {
        for flight in st.in_flight.drain(..) {
            let req = match flight {
                Flight::Send(r) | Flight::Recv(r, _) => r,
            };
            let _ = self.request_free(req);
        }
        if st.trace.round_open {
            st.trace.round_open = false;
            self.emit_full(
                EventKind::CollRound,
                EventPhase::End,
                st.trace.id,
                st.trace.round_idx,
                st.trace.round_transfers,
                st.trace.ctx,
                st.trace.cseq,
            );
        }
        st.schedule.next = st.schedule.rounds.len();
        st.pending_compute = None;
        st.finished = true;
        st.failed = Some(error);
    }

    /// Advance one schedule as far as it can go without blocking.
    fn drive_nb(&mut self, st: &mut NbColl) -> Result<()> {
        loop {
            if st.finished {
                return Ok(());
            }
            // Harvest completed transfers of the round in flight.
            let mut i = 0;
            while i < st.in_flight.len() {
                let req = match st.in_flight[i] {
                    Flight::Send(r) | Flight::Recv(r, _) => r,
                };
                if self.is_complete(req)? {
                    let flight = st.in_flight.swap_remove(i);
                    let completion = self.take_completion(req)?;
                    if let Flight::Recv(_, slot) = flight {
                        // `Vec::from(Bytes)` moves the transport buffer
                        // when it is uniquely owned (the common case).
                        let data = completion.data.map(Vec::from).unwrap_or_default();
                        st.schedule.slots[slot] = Some(data);
                    }
                } else {
                    i += 1;
                }
            }
            if !st.in_flight.is_empty() {
                return Ok(()); // blocked on the transport
            }
            if st.trace.round_open {
                st.trace.round_open = false;
                if self.tracer.timing_on() {
                    let now = self.clock_ns();
                    self.tracer
                        .coll_round
                        .record(now.saturating_sub(st.trace.round_started_ns));
                    self.emit_at_full(
                        now,
                        EventKind::CollRound,
                        EventPhase::End,
                        st.trace.id,
                        st.trace.round_idx,
                        st.trace.round_transfers,
                        st.trace.ctx,
                        st.trace.cseq,
                    );
                }
                st.trace.round_idx += 1;
            }
            let s = &mut st.schedule;
            // The round's transfers are done: run its compute.
            if let Some(compute) = st.pending_compute.take() {
                (*compute)(&mut SchedCtx {
                    slots: &mut s.slots,
                    outcome: &mut s.outcome,
                    pool: &mut self.send_pool,
                })?;
            }
            let Some(round) = s.rounds.get(s.next) else {
                st.finished = true;
                return Ok(());
            };
            s.next += 1;
            st.pending_compute = self.post_round(
                st.comm,
                &mut st.in_flight,
                &mut st.trace,
                &s.slots,
                round,
                s.shift,
            )?;
        }
    }

    /// Post one round, every tag moved by `shift`: receives first, then
    /// sends (the deadlock-free order the blocking exchanges always
    /// used). Returns the round's compute, to run once its transfers are
    /// done.
    fn post_round(
        &mut self,
        comm: CommHandle,
        in_flight: &mut Vec<Flight>,
        trace: &mut CollTraceState,
        slots: &[Option<Vec<u8>>],
        round: &Round,
        shift: i32,
    ) -> Result<Option<ComputeFn>> {
        trace.round_transfers = (round.recvs.len() + round.sends.len()) as i64;
        trace.round_open = true;
        if self.tracer.timing_on() {
            let now = self.clock_ns();
            trace.round_started_ns = now;
            self.emit_at_full(
                now,
                EventKind::CollRound,
                EventPhase::Begin,
                trace.id,
                trace.round_idx,
                trace.round_transfers,
                trace.ctx,
                trace.cseq,
            );
        }
        for r in &round.recvs {
            let req = self.irecv_on_context(comm, r.peer as i32, r.tag + shift, None, true)?;
            in_flight.push(Flight::Recv(req, r.slot));
        }
        for s in &round.sends {
            let empty = || MpiError::new(ErrorClass::Intern, "collective send from empty slot");
            let payload: &[u8] = match s.data {
                SendData::Slot(slot) => slots[slot].as_deref().ok_or_else(empty)?,
                SendData::SlotRange(slot, start, end) => slots[slot]
                    .as_deref()
                    .ok_or_else(empty)?
                    .get(start..end)
                    .ok_or_else(|| {
                        MpiError::new(ErrorClass::Intern, "collective send range out of bounds")
                    })?,
            };
            // The slot borrow and the engine borrow are disjoint (the
            // schedule was taken out of the engine's map); the payload
            // is staged exactly once inside `isend_on_context`.
            let req = self.isend_on_context(
                comm,
                s.peer as i32,
                s.tag + shift,
                payload,
                SendMode::Standard,
                true,
            )?;
            in_flight.push(Flight::Send(req));
        }
        Ok(round.compute.clone())
    }

    /// Advance every in-flight collective schedule as far as possible
    /// without blocking — the engine's background progress hook, called
    /// from every blocking/polling entry point. Walks the request table's
    /// in-flight list only, dropping each schedule from it once finished.
    pub(crate) fn nb_progress(&mut self) -> Result<()> {
        // One-sided windows piggy-back on the same hook: ingest arrived
        // RMA traffic and apply any epochs whose markers are in (see
        // `crate::rma`; no-op when no window is open).
        self.rma_progress()?;
        let mut i = 0;
        while let Some((id, mut st)) = self.requests.take_schedule(i) {
            if let Err(error) = self.drive_nb(&mut st) {
                // Contain the failure in the schedule's own state: the
                // *owner* sees it on its next test/wait; the unrelated
                // call that happened to drive progress proceeds
                // untouched.
                self.fail_nb(&mut st, error);
            }
            i = self.requests.restore_schedule(i, id, st);
        }
        Ok(())
    }

    /// Retire a finished schedule: close its `coll` trace bracket, hand
    /// whatever is left in its slot store to the staging pool, and hand
    /// over its outcome (or the error it failed with).
    pub(crate) fn claim_schedule(&mut self, mut st: NbColl) -> Result<CollOutcome> {
        for buf in st.schedule.slots.drain(..).flatten() {
            self.send_pool.put(buf);
        }
        if st.trace.traced {
            self.emit_full(
                EventKind::Coll,
                EventPhase::End,
                st.trace.op,
                st.trace.alg,
                st.trace.id,
                st.trace.ctx,
                st.trace.cseq,
            );
        }
        match st.failed {
            Some(error) => Err(error),
            None => Ok(st.schedule.outcome.unwrap_or(CollOutcome::Done)),
        }
    }

    /// [`Engine::wait`] on an `i*` collective, returning its outcome with
    /// gather-family parts kept apart — a blocking collective is its
    /// launch followed by this.
    pub(crate) fn wait_outcome(&mut self, req: RequestId) -> Result<CollOutcome> {
        self.block_on(|engine| Ok(engine.is_complete(req)?.then_some(())))?;
        match self.requests.remove(req.0) {
            Some(RequestState::Coll(st)) => self.claim_schedule(*st),
            Some(RequestState::Failed(error)) => Err(error),
            _ => err(ErrorClass::Intern, "not a collective request"),
        }
    }

    /// Drain every frame already available from the transport and
    /// advance every in-flight collective schedule, without parking and
    /// without consuming any request's completion — the non-committal
    /// progress primitive behind all-or-nothing batched tests at the
    /// binding layer: drive once, *check* with [`Engine::is_complete`],
    /// and only then decide whether to harvest anything.
    pub fn progress_poll(&mut self) -> Result<()> {
        // Liveness first: a background progress thread calling this is
        // what drives failure detection while the application computes
        // (see `crate::failure`).
        self.poll_failures()?;
        while let Some(frame) = self.endpoint.try_recv()? {
            self.on_frame(frame)?;
        }
        self.nb_progress()
    }

    /// Park until one more frame arrives, process it, and advance every
    /// in-flight collective schedule — the blocking-progress primitive
    /// for binding-layer waits over mixed point-to-point/collective
    /// request batches (anything still pending after a full poll is
    /// waiting on remote frames, so blocking here cannot deadlock).
    pub fn progress_wait(&mut self) -> Result<()> {
        if self.aborted {
            return err(ErrorClass::Aborted, "job aborted while waiting");
        }
        self.blocking_pump()?;
        self.nb_progress()
    }

    /// Number of collective schedules still running (finished but
    /// unclaimed ones excluded) — used by `finalize` checks and tests.
    pub fn coll_outstanding(&self) -> usize {
        self.requests.schedules_running()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::COMM_WORLD;
    use crate::universe::Universe;
    use mpi_transport::DeviceKind;

    #[test]
    fn tag_windows_do_not_collide_and_stay_reserved() {
        let mut seen = std::collections::HashSet::new();
        for w in 0..64u32 {
            for round in 0..ROUND_SPACE {
                let tag = TagWindow(w).tag(round);
                assert!(
                    tag <= COLLECTIVE_TAG_BASE,
                    "window {w} round {round}: {tag}"
                );
                assert!(seen.insert(tag), "collision at window {w} round {round}");
            }
        }
        // Wrap-around within a window is the documented rule.
        assert_eq!(TagWindow(3).tag(0), TagWindow(3).tag(ROUND_SPACE));
        // The deepest window still sits in the engine-reserved space.
        let deepest = TagWindow((NUM_TAG_WINDOWS - 1) as u32).tag(ROUND_SPACE - 1);
        assert!(deepest <= COLLECTIVE_TAG_BASE);
        assert!(deepest > i32::MIN / 2, "tag space must not overflow");
    }

    #[test]
    fn tag_window_allocation_is_sequential_per_comm() {
        Universe::run(1, DeviceKind::ShmFast, |engine| {
            let a = engine.alloc_tag_window(COMM_WORLD);
            let b = engine.alloc_tag_window(COMM_WORLD);
            let c = engine.alloc_tag_window(crate::comm::COMM_SELF);
            assert_ne!(a.0, b.0);
            // Independent sequence per communicator.
            assert_eq!(c.0, a.0);
        })
        .unwrap();
    }

    /// Review regression: a rank parked in `probe()` must keep driving
    /// its in-flight collectives (the background progress hook), or a
    /// peer blocked in the same collective can never reach the send the
    /// probing rank is waiting for.
    #[test]
    fn probe_drives_collective_progress() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            let req = engine.ibarrier(COMM_WORLD).unwrap();
            if engine.world_rank() == 0 {
                // Parked in probe: the only way the barrier completes is
                // the probe loop advancing the schedule.
                let status = engine.probe(COMM_WORLD, 1, 7).unwrap();
                assert_eq!(status.count_bytes, 2);
                let (data, _) = engine.recv(COMM_WORLD, 1, 7, None).unwrap();
                assert_eq!(&data[..], b"ok");
                engine.wait(req).unwrap();
            } else {
                // Completes the barrier first, then sends the message
                // rank 0 is probing for.
                engine.wait(req).unwrap();
                engine
                    .send(COMM_WORLD, 0, 7, b"ok", crate::types::SendMode::Standard)
                    .unwrap();
            }
        })
        .unwrap();
    }

    /// Review regression: a schedule whose compute fails (here: a peer
    /// contributing fewer reduction elements than the root expects —
    /// erroneous usage, but it must fail *cleanly*) surfaces the error
    /// to its owner, quiesces without leaked posted receives, and leaves
    /// the engine fully usable.
    #[test]
    fn failed_schedules_quiesce_and_report_to_their_owner() {
        use crate::ops::{Op, PredefinedOp};
        use crate::PrimitiveKind;
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            let sum = Op::Predefined(PredefinedOp::Sum);
            let rank = engine.world_rank();
            // Rank 0 expects 4 ints; rank 1 contributes only 1.
            let count = if rank == 0 { 4 } else { 1 };
            let send = vec![0u8; 4 * count];
            let result = engine.reduce(COMM_WORLD, 0, &send, PrimitiveKind::Int, count, &sum);
            if rank == 0 {
                let err = result.unwrap_err();
                assert_eq!(err.class, crate::ErrorClass::Count);
            } else {
                result.unwrap();
            }
            // The engine is still usable and nothing leaked.
            let req = engine.ibarrier(COMM_WORLD).unwrap();
            engine.wait(req).unwrap();
            engine.finalize().unwrap();
        })
        .unwrap();
    }

    /// An `i*` collective's id is known only while the schedule is
    /// outstanding: a bogus id, and one whose result `wait` has already
    /// claimed, are refused by every lifecycle call.
    #[test]
    fn unknown_collective_requests_are_rejected() {
        Universe::run(1, DeviceKind::ShmFast, |engine| {
            let req = engine.ibarrier(COMM_WORLD).unwrap();
            engine.wait(req).unwrap();
            assert_eq!(engine.coll_outstanding(), 0);
            for id in [RequestId(987_654), req] {
                assert!(engine.is_complete(id).is_err());
                assert!(engine.test(id).is_err());
                assert!(engine.wait(id).is_err());
                assert!(engine.request_free(id).is_err());
            }
            engine.finalize().unwrap();
        })
        .unwrap();
    }

    /// A collective's completion is its result bytes — gather-family
    /// parts concatenated in rank order — with the byte count as status.
    #[test]
    fn outcome_helpers() {
        assert_eq!(CollOutcome::Done.into_completion(), Completion::empty());
        for (outcome, bytes) in [
            (CollOutcome::Buffer(vec![1, 2]), vec![1, 2]),
            (
                CollOutcome::Parts(vec![vec![1], vec![], vec![2, 3]]),
                vec![1, 2, 3],
            ),
            (CollOutcome::Buffer(Vec::new()), Vec::new()),
        ] {
            let completion = outcome.into_completion();
            assert_eq!(completion.status.count_bytes, bytes.len());
            assert_eq!(completion.data.unwrap().as_ref(), &bytes[..]);
        }
    }
}
