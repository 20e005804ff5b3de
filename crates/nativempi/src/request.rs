//! The request table, `MPI_Wait` / `MPI_Test` (MPI-1.1 §3.7) and
//! persistent requests (§3.9, and MPI 4.0's persistent collectives).
//!
//! Every pending operation of a rank lives in one table under one
//! [`RequestId`] — as in mpiJava, where `Prequest` extends `Request`, and
//! in MPI 4.0, where one `MPI_Request` covers point-to-point,
//! nonblocking-collective and persistent operations alike:
//!
//! | entry | made by | a completion carries |
//! |---|---|---|
//! | point-to-point | the `isend` / `irecv` families | the received bytes; nothing for a send |
//! | `i*` collective | `ibarrier` … `iscan`, `ineighbor_*` | the result bytes, gather-family parts concatenated in rank order; nothing where the call delivers nothing (barrier, off-root ranks of rooted operations) |
//! | persistent | `send_init`, `recv_init`, the `*_init` collectives | the started iteration's completion; an inactive one completes at once, empty |
//!
//! Seven calls serve every entry: [`Engine::start`],
//! [`Engine::is_complete`], [`Engine::test`], [`Engine::wait`],
//! [`Engine::cancel`], [`Engine::request_free`] and
//! [`Engine::persistent_active`]. What cannot be withdrawn — a
//! collective, in which every rank participates, or a persistent
//! operation's started iteration — is driven to completion and discarded
//! when freed, and a collective cannot be cancelled. The `Waitall` /
//! `Waitany` / `Testsome` / `Startall` families are the binding's
//! (`mpijava`'s `Request`), built on the single-request calls here.

use std::borrow::Cow;
use std::collections::HashMap;

use bytes::Bytes;

use crate::coll::nb::cache::PersistentColl;
use crate::coll::nb::NbColl;
use crate::comm::CommHandle;
use crate::error::{err, ErrorClass, MpiError, Result};
use crate::types::{SendMode, StatusInfo};
use crate::Engine;

/// Opaque handle to an engine request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestId(pub(crate) u64);

/// Result of completing a request: the status, plus the payload it
/// delivers (`None` for sends, and for collectives that deliver nothing
/// to this rank). A received payload is the refcounted [`Bytes`] buffer
/// that crossed the transport — handing it out costs no copy (see the
/// copy inventory in [`crate::p2p`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    pub status: StatusInfo,
    pub data: Option<Bytes>,
}

impl Completion {
    /// No payload and an empty status: a completed send, or an inactive
    /// persistent request.
    pub(crate) fn empty() -> Completion {
        Completion {
            status: StatusInfo::empty(),
            data: None,
        }
    }
}

/// One entry of the request table.
pub(crate) enum RequestState {
    /// Receive posted on `context`, not yet matched.
    RecvPending { context: u32 },
    /// Receive matched a rendezvous envelope; waiting for the data frame.
    RecvAwaitingData {
        src: i32,
        tag: i32,
        max_len: Option<usize>,
    },
    /// Receive finished (possibly with a deferred error such as truncation).
    RecvComplete {
        data: Bytes,
        status: StatusInfo,
        error: Option<MpiError>,
    },
    /// Send waiting for its rendezvous acknowledgement.
    SendPendingRendezvous,
    /// Send finished.
    SendComplete,
    /// Receive cancelled before it matched.
    Cancelled,
    /// The operation can never complete — its peer rank was declared
    /// dead, or the job tore down after a failure (see
    /// [`crate::failure`]). Complete; claiming it yields the error.
    Failed(MpiError),
    /// An `i*` collective's schedule (see [`crate::coll::nb`]), boxed so
    /// a point-to-point entry stays small.
    Coll(Box<NbColl>),
    /// A persistent operation.
    Persistent(Persistent),
}

/// A persistent operation: what each [`Engine::start`] launches, and the
/// launched iteration until it is claimed.
pub(crate) struct Persistent {
    pub(crate) def: PersistentDef,
    pub(crate) active: Option<RequestId>,
}

/// What one start of a persistent operation launches.
pub(crate) enum PersistentDef {
    Send {
        comm: CommHandle,
        dest: i32,
        tag: i32,
        mode: SendMode,
    },
    Recv {
        comm: CommHandle,
        src: i32,
        tag: i32,
        max_len: Option<usize>,
    },
    Coll(Box<PersistentColl>),
}

/// The request table: every entry by id, plus the ids of the `i*`
/// collective schedules still in flight — what the progress hook drives,
/// without scanning the table (see [`crate::coll::nb`]).
///
/// The list holds exactly the unfinished schedules: [`Requests::insert`]
/// lists a schedule added unfinished, [`Requests::remove`] unlists it,
/// and one driven to its end leaves the list when
/// [`Requests::restore_schedule`] puts it back.
#[derive(Default)]
pub(crate) struct Requests {
    entries: HashMap<u64, RequestState>,
    schedules: Vec<u64>,
}

fn running(state: &RequestState) -> bool {
    matches!(state, RequestState::Coll(st) if !st.is_finished())
}

impl Requests {
    pub(crate) fn get(&self, id: u64) -> Option<&RequestState> {
        self.entries.get(&id)
    }

    pub(crate) fn values(&self) -> impl Iterator<Item = &RequestState> {
        self.entries.values()
    }

    /// Add an entry, or replace one.
    pub(crate) fn insert(&mut self, id: u64, state: RequestState) {
        let now = running(&state);
        let before = self
            .entries
            .insert(id, state)
            .is_some_and(|old| running(&old));
        if now && !before {
            self.schedules.push(id);
        } else if before && !now {
            self.unlist(id);
        }
    }

    /// Replace an existing entry; a request freed meanwhile stays gone.
    pub(crate) fn set(&mut self, id: u64, state: RequestState) {
        if self.entries.contains_key(&id) {
            self.insert(id, state);
        }
    }

    pub(crate) fn remove(&mut self, id: u64) -> Option<RequestState> {
        let state = self.entries.remove(&id)?;
        if running(&state) {
            self.unlist(id);
        }
        Some(state)
    }

    fn unlist(&mut self, id: u64) {
        self.schedules.retain(|&listed| listed != id);
    }

    /// Number of collective schedules still running.
    pub(crate) fn schedules_running(&self) -> usize {
        self.schedules.len()
    }

    /// Take the schedule listed at position `i` out of the table for the
    /// engine to drive; [`Requests::restore_schedule`] puts it back.
    pub(crate) fn take_schedule(&mut self, i: usize) -> Option<(u64, Box<NbColl>)> {
        let id = *self.schedules.get(i)?;
        match self.entries.remove(&id) {
            Some(RequestState::Coll(st)) => Some((id, st)),
            _ => unreachable!("listed request {id} is not a running schedule"),
        }
    }

    /// Put back the schedule taken from position `i`; one that finished
    /// leaves the list. Returns the position of the next listed schedule.
    pub(crate) fn restore_schedule(&mut self, i: usize, id: u64, st: Box<NbColl>) -> usize {
        let next = if st.is_finished() {
            self.schedules.remove(i);
            i
        } else {
            i + 1
        };
        self.entries.insert(id, RequestState::Coll(st));
        next
    }

    /// Mark every incomplete entry failed: the teardown after a rank
    /// failure, which leaves nothing in flight. A persistent operation's
    /// started iteration is an entry of its own.
    pub(crate) fn fail_incomplete(&mut self, error: &MpiError) {
        self.schedules.clear();
        for state in self.entries.values_mut() {
            let incomplete = match state {
                RequestState::RecvPending { .. }
                | RequestState::RecvAwaitingData { .. }
                | RequestState::SendPendingRendezvous => true,
                RequestState::Coll(st) => !st.is_finished(),
                _ => false,
            };
            if incomplete {
                *state = RequestState::Failed(error.clone());
            }
        }
    }
}

fn unknown(req: RequestId) -> MpiError {
    MpiError::new(ErrorClass::Request, format!("unknown request {req:?}"))
}

impl Engine {
    pub(crate) fn alloc_request(&mut self, state: RequestState) -> RequestId {
        let id = self.fresh_request_id();
        self.requests.insert(id, state);
        RequestId(id)
    }

    /// The next request id, not yet in the table: for callers that know
    /// the entry's state only after using the id.
    pub(crate) fn fresh_request_id(&mut self) -> u64 {
        let id = self.next_request;
        self.next_request += 1;
        id
    }

    fn entry(&self, req: RequestId) -> Result<&RequestState> {
        self.requests.get(req.0).ok_or_else(|| unknown(req))
    }

    /// True when `wait` would return without blocking. Does not drive
    /// progress.
    pub fn is_complete(&self, req: RequestId) -> Result<bool> {
        Ok(match self.entry(req)? {
            RequestState::RecvComplete { .. }
            | RequestState::SendComplete
            | RequestState::Cancelled
            | RequestState::Failed(_) => true,
            RequestState::RecvPending { .. }
            | RequestState::RecvAwaitingData { .. }
            | RequestState::SendPendingRendezvous => false,
            RequestState::Coll(st) => st.is_finished(),
            RequestState::Persistent(p) => match p.active {
                Some(inner) => self.is_complete(inner)?,
                None => true,
            },
        })
    }

    /// Remove a completed request and build its [`Completion`]. Also the
    /// non-parking harvest primitive of the collective progress engine
    /// ([`crate::coll::nb`]). A persistent request stays, inactive; its
    /// iteration is consumed on failure too, so it stays startable.
    pub(crate) fn take_completion(&mut self, req: RequestId) -> Result<Completion> {
        match self.requests.remove(req.0).ok_or_else(|| unknown(req))? {
            RequestState::RecvComplete {
                data,
                status,
                error,
            } => match error {
                Some(e) => Err(e),
                None => Ok(Completion {
                    status,
                    data: Some(data),
                }),
            },
            RequestState::SendComplete => Ok(Completion::empty()),
            RequestState::Cancelled => {
                let mut status = StatusInfo::empty();
                status.cancelled = true;
                Ok(Completion { status, data: None })
            }
            RequestState::Failed(error) => Err(error),
            RequestState::Coll(st) if st.is_finished() => self
                .claim_schedule(*st)
                .map(|outcome| outcome.into_completion()),
            RequestState::Persistent(mut p) => {
                let inner = p.active.take();
                self.requests.insert(req.0, RequestState::Persistent(p));
                match inner {
                    Some(inner) => self.take_completion(inner),
                    None => Ok(Completion::empty()),
                }
            }
            other => {
                // Not complete: put it back and report the logic error.
                self.requests.insert(req.0, other);
                err(ErrorClass::Request, "request is not complete")
            }
        }
    }

    /// Drive the engine until `req` is complete. Advances every
    /// in-flight collective schedule while blocked (the background
    /// progress hook of [`crate::coll::nb`]).
    pub(crate) fn block_until_complete(&mut self, req: RequestId) -> Result<()> {
        loop {
            self.nb_progress()?;
            if self.is_complete(req)? {
                return Ok(());
            }
            if self.aborted {
                return err(ErrorClass::Aborted, "job aborted while waiting");
            }
            self.blocking_pump()?;
        }
    }

    /// `MPI_Wait`: drive the engine until `req` is complete and claim its
    /// completion.
    pub fn wait(&mut self, req: RequestId) -> Result<Completion> {
        self.block_until_complete(req)?;
        self.take_completion(req)
    }

    /// `MPI_Test`: poll the transport once, advance every in-flight
    /// collective schedule, and claim the completion if `req` finished.
    pub fn test(&mut self, req: RequestId) -> Result<Option<Completion>> {
        while let Some(frame) = self.endpoint.try_recv()? {
            self.on_frame(frame)?;
        }
        self.nb_progress()?;
        if self.is_complete(req)? {
            Ok(Some(self.take_completion(req)?))
        } else {
            Ok(None)
        }
    }

    /// `MPI_Cancel`: only pending receives can be cancelled by this engine
    /// (cancelling sends is allowed by the standard but rarely usable; the
    /// engine reports it as unsupported, and collectives cannot be
    /// cancelled at all). A persistent request cancels its started
    /// iteration.
    pub fn cancel(&mut self, req: RequestId) -> Result<()> {
        let context = match self.entry(req)? {
            &RequestState::RecvPending { context } => context,
            RequestState::RecvComplete { .. } | RequestState::SendComplete => return Ok(()),
            RequestState::SendPendingRendezvous => {
                return err(
                    ErrorClass::Unsupported,
                    "cancelling an in-flight send is not supported",
                )
            }
            RequestState::Coll(_)
            | RequestState::Persistent(Persistent {
                def: PersistentDef::Coll(_),
                ..
            }) => return err(ErrorClass::Unsupported, "collectives cannot be cancelled"),
            RequestState::Persistent(p) => {
                return match p.active {
                    Some(inner) => self.cancel(inner),
                    None => Ok(()),
                }
            }
            _ => return err(ErrorClass::Request, "request cannot be cancelled"),
        };
        self.matching.withdraw(context, req.0);
        self.requests.insert(req.0, RequestState::Cancelled);
        Ok(())
    }

    /// `MPI_Request_free`: drop a request handle. A pending receive is
    /// withdrawn; what cannot be withdrawn — an `i*` collective, or a
    /// persistent operation's started iteration — is driven to
    /// completion and its outcome discarded, errors included (they were
    /// the operation's, not the free's).
    pub fn request_free(&mut self, req: RequestId) -> Result<()> {
        if let RequestState::Coll(st) = self.entry(req)? {
            if !st.is_finished() {
                self.discard(req);
                return Ok(());
            }
        }
        match self.requests.remove(req.0).ok_or_else(|| unknown(req))? {
            RequestState::RecvPending { context } => self.matching.withdraw(context, req.0),
            RequestState::Coll(st) => {
                let _ = self.claim_schedule(*st);
            }
            RequestState::Persistent(p) => {
                if let Some(inner) = p.active {
                    self.discard(inner);
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Drive `req` to completion and drop whatever it produced.
    fn discard(&mut self, req: RequestId) {
        let _ = self.wait(req);
        // A wait cut short (job aborted) leaves the entry behind.
        self.requests.remove(req.0);
    }

    // ------------------------------------------------------------------
    // Persistent requests
    // ------------------------------------------------------------------

    /// Register a persistent operation, inactive until its first start.
    pub(crate) fn persistent_init(&mut self, def: PersistentDef) -> Result<RequestId> {
        self.check_live()?;
        Ok(self.alloc_request(RequestState::Persistent(Persistent { def, active: None })))
    }

    /// `MPI_Send_init` (and `Bsend`/`Ssend`/`Rsend` variants via `mode`).
    /// Each [`Engine::start`] sends the input it is given.
    pub fn send_init(
        &mut self,
        comm: CommHandle,
        dest: i32,
        tag: i32,
        mode: SendMode,
    ) -> Result<RequestId> {
        self.persistent_init(PersistentDef::Send {
            comm,
            dest,
            tag,
            mode,
        })
    }

    /// `MPI_Recv_init`.
    pub fn recv_init(
        &mut self,
        comm: CommHandle,
        src: i32,
        tag: i32,
        max_len: Option<usize>,
    ) -> Result<RequestId> {
        self.persistent_init(PersistentDef::Recv {
            comm,
            src,
            tag,
            max_len,
        })
    }

    /// `MPI_Start`: launch one iteration of a persistent operation.
    /// `input` is this rank's contribution as the caller marshalled it: a
    /// send's payload (an owned buffer is the message itself, moved as by
    /// `isend_bytes`; a borrowed slice takes `isend`'s one staging copy)
    /// or a collective's input (ignored by those without one — barrier,
    /// bcast off the root); a receive ignores it. Errors if the previous
    /// iteration has not been claimed yet.
    pub fn start(&mut self, req: RequestId, input: Cow<'_, [u8]>) -> Result<()> {
        let mut p = match self.requests.remove(req.0).ok_or_else(|| unknown(req))? {
            RequestState::Persistent(p) if p.active.is_none() => p,
            other => {
                let message = match other {
                    RequestState::Persistent(_) => "persistent request is already active",
                    _ => "start on a non-persistent request",
                };
                self.requests.insert(req.0, other);
                return err(ErrorClass::Request, message);
            }
        };
        let started = match &p.def {
            &PersistentDef::Send {
                comm,
                dest,
                tag,
                mode,
            } => match input {
                Cow::Owned(buf) => self.isend_bytes(comm, dest, tag, Bytes::from(buf), mode),
                Cow::Borrowed(data) => self.isend(comm, dest, tag, data, mode),
            },
            &PersistentDef::Recv {
                comm,
                src,
                tag,
                max_len,
            } => self.irecv(comm, src, tag, max_len),
            PersistentDef::Coll(coll) => self.start_persistent_coll(coll, &input),
        };
        p.active = started.as_ref().ok().copied();
        self.requests.insert(req.0, RequestState::Persistent(p));
        started.map(drop)
    }

    /// Number of persistent operations with a started, unclaimed
    /// iteration — `finalize` refuses while this is non-zero.
    pub fn persistent_active(&self) -> usize {
        self.requests
            .values()
            .filter(|state| {
                matches!(
                    state,
                    RequestState::Persistent(Persistent {
                        active: Some(_),
                        ..
                    })
                )
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::COMM_WORLD;
    use crate::ops::{Op, PredefinedOp};
    use crate::types::{PrimitiveKind, SendMode, ANY_SOURCE};
    use crate::universe::Universe;
    use mpi_transport::DeviceKind;

    #[test]
    fn isend_irecv_wait_roundtrip() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            if engine.world_rank() == 0 {
                let req = engine
                    .isend(COMM_WORLD, 1, 1, b"nonblocking", SendMode::Standard)
                    .unwrap();
                let completion = engine.wait(req).unwrap();
                assert!(completion.data.is_none());
            } else {
                let req = engine.irecv(COMM_WORLD, 0, 1, None).unwrap();
                let completion = engine.wait(req).unwrap();
                assert_eq!(completion.data.unwrap(), b"nonblocking");
                assert_eq!(completion.status.source, 0);
            }
        })
        .unwrap();
    }

    #[test]
    fn test_polls_without_blocking() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            if engine.world_rank() == 1 {
                let req = engine.irecv(COMM_WORLD, 0, 4, None).unwrap();
                // Nothing sent yet: test must return None.
                assert!(engine.test(req).unwrap().is_none());
                // Tell rank 0 to go ahead.
                engine
                    .send(COMM_WORLD, 0, 5, b"go", SendMode::Standard)
                    .unwrap();
                // Now spin on test until the message arrives.
                loop {
                    if let Some(c) = engine.test(req).unwrap() {
                        assert_eq!(c.data.unwrap(), b"now");
                        break;
                    }
                    std::thread::yield_now();
                }
            } else {
                let (d, _) = engine.recv(COMM_WORLD, 1, 5, None).unwrap();
                assert_eq!(&d, b"go");
                engine
                    .send(COMM_WORLD, 1, 4, b"now", SendMode::Standard)
                    .unwrap();
            }
        })
        .unwrap();
    }

    /// Receives posted for several sources complete with each source's
    /// own message, whatever order the senders ran in.
    #[test]
    fn waits_over_multiple_receives_deliver_per_source() {
        Universe::run(4, DeviceKind::ShmFast, |engine| {
            if engine.world_rank() == 0 {
                let reqs: Vec<RequestId> = (1..4)
                    .map(|src| engine.irecv(COMM_WORLD, src, 9, None).unwrap())
                    .collect();
                for (i, &req) in reqs.iter().enumerate() {
                    let c = engine.wait(req).unwrap();
                    assert_eq!(c.status.source, (i + 1) as i32);
                    assert_eq!(c.data.as_ref().unwrap()[0] as usize, i + 1);
                }
            } else {
                engine
                    .send(
                        COMM_WORLD,
                        0,
                        9,
                        &[engine.world_rank() as u8],
                        SendMode::Standard,
                    )
                    .unwrap();
            }
        })
        .unwrap();
    }

    /// Polling two receives finds the one that matched; the other stays
    /// pending and cancels cleanly.
    #[test]
    fn test_finds_the_matched_receive_and_the_other_cancels() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            if engine.world_rank() == 0 {
                // Post two receives; only the second will ever be satisfied.
                let never = engine.irecv(COMM_WORLD, 1, 100, None).unwrap();
                let will = engine.irecv(COMM_WORLD, 1, 200, None).unwrap();
                let completion = loop {
                    assert!(engine.test(never).unwrap().is_none());
                    if let Some(c) = engine.test(will).unwrap() {
                        break c;
                    }
                    std::thread::yield_now();
                };
                assert_eq!(completion.data.unwrap(), b"second");
                engine.cancel(never).unwrap();
                let c = engine.wait(never).unwrap();
                assert!(c.status.cancelled);
            } else {
                engine
                    .send(COMM_WORLD, 0, 200, b"second", SendMode::Standard)
                    .unwrap();
            }
        })
        .unwrap();
    }

    #[test]
    fn persistent_requests_can_be_restarted() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            const ROUNDS: usize = 5;
            if engine.world_rank() == 0 {
                let sreq = engine
                    .send_init(COMM_WORLD, 1, 11, SendMode::Standard)
                    .unwrap();
                for round in 0..ROUNDS {
                    engine
                        .start(sreq, Cow::Borrowed(format!("round-{round}").as_bytes()))
                        .unwrap();
                    engine.wait(sreq).unwrap();
                }
                engine.request_free(sreq).unwrap();
            } else {
                let rreq = engine.recv_init(COMM_WORLD, 0, 11, None).unwrap();
                for round in 0..ROUNDS {
                    engine.start(rreq, Cow::Borrowed(&[])).unwrap();
                    let c = engine.wait(rreq).unwrap();
                    assert_eq!(c.data.unwrap(), format!("round-{round}").as_bytes());
                }
                engine.request_free(rreq).unwrap();
            }
        })
        .unwrap();
    }

    /// A failed iteration (here a truncation) consumes the inner request
    /// and leaves the persistent one inactive: it restarts, delivers, and
    /// `finalize` does not count it as active.
    #[test]
    fn a_failed_persistent_iteration_leaves_the_request_startable() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            if engine.world_rank() == 0 {
                for payload in [&b"too long"[..], b"fits"] {
                    engine
                        .send(COMM_WORLD, 1, 6, payload, SendMode::Standard)
                        .unwrap();
                }
            } else {
                let req = engine.recv_init(COMM_WORLD, 0, 6, Some(4)).unwrap();
                engine.start(req, Cow::Borrowed(&[])).unwrap();
                let error = engine.wait(req).unwrap_err();
                assert_eq!(error.class, ErrorClass::Truncate);
                assert_eq!(engine.persistent_active(), 0);
                engine.start(req, Cow::Borrowed(&[])).unwrap();
                assert_eq!(engine.wait(req).unwrap().data.unwrap(), b"fits");
                engine.request_free(req).unwrap();
            }
            engine.finalize().unwrap();
        })
        .unwrap();
    }

    #[test]
    fn starting_an_active_persistent_request_fails() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            if engine.world_rank() == 0 {
                let req = engine.recv_init(COMM_WORLD, ANY_SOURCE, 3, None).unwrap();
                engine.start(req, Cow::Borrowed(&[])).unwrap();
                assert!(engine.start(req, Cow::Borrowed(&[])).is_err());
                engine
                    .send(COMM_WORLD, 1, 1, b"wake", SendMode::Standard)
                    .unwrap();
                engine.wait(req).unwrap();
            } else {
                let (_d, _) = engine.recv(COMM_WORLD, 0, 1, None).unwrap();
                engine
                    .send(COMM_WORLD, 0, 3, b"data", SendMode::Standard)
                    .unwrap();
            }
        })
        .unwrap();
    }

    /// Ids the engine never issued, and point-to-point ids already
    /// consumed by `wait`, are refused by every lifecycle call.
    #[test]
    fn unknown_requests_are_rejected() {
        Universe::run(1, DeviceKind::ShmFast, |engine| {
            let recv = engine.irecv(COMM_WORLD, 0, 4, None).unwrap();
            let send = engine
                .isend(COMM_WORLD, 0, 4, b"once", SendMode::Standard)
                .unwrap();
            engine.wait(send).unwrap();
            assert_eq!(engine.wait(recv).unwrap().data.unwrap(), b"once");
            for id in [RequestId(999_999), send, recv] {
                assert!(engine.is_complete(id).is_err());
                assert!(engine.wait(id).is_err());
                assert!(engine.test(id).is_err());
                assert!(engine.cancel(id).is_err());
                assert!(engine.start(id, Cow::Borrowed(&[])).is_err());
                assert!(engine.request_free(id).is_err());
            }
            engine.finalize().unwrap();
        })
        .unwrap();
    }

    /// Freeing a started persistent receive drives its iteration to
    /// completion instead of leaving the receive posted, where it would
    /// swallow the next matching message and keep `finalize` refusing.
    #[test]
    fn freeing_a_started_persistent_receive_retires_its_iteration() {
        Universe::run(1, DeviceKind::ShmFast, |engine| {
            let req = engine.recv_init(COMM_WORLD, 0, 2, None).unwrap();
            engine.start(req, Cow::Borrowed(&[])).unwrap();
            let send = engine
                .isend(COMM_WORLD, 0, 2, b"self", SendMode::Standard)
                .unwrap();
            engine.request_free(req).unwrap();
            engine.wait(send).unwrap();
            engine.finalize().unwrap();
        })
        .unwrap();
    }

    /// The handle contract: one set of answers for every kind of request
    /// — point-to-point send and receive, `i*` collective, persistent
    /// point-to-point and persistent collective.
    #[test]
    fn every_kind_of_request_keeps_one_handle_contract() {
        Universe::run(1, DeviceKind::ShmFast, |engine| {
            let sum = Op::Predefined(PredefinedOp::Sum);
            let one = 1i32.to_le_bytes();
            let class = |r: Result<()>| r.unwrap_err().class;

            let bogus = RequestId(999_999);
            assert_eq!(
                class(engine.is_complete(bogus).map(drop)),
                ErrorClass::Request
            );
            assert_eq!(class(engine.wait(bogus).map(drop)), ErrorClass::Request);
            assert_eq!(class(engine.test(bogus).map(drop)), ErrorClass::Request);
            assert_eq!(class(engine.cancel(bogus)), ErrorClass::Request);
            assert_eq!(class(engine.request_free(bogus)), ErrorClass::Request);
            assert_eq!(
                class(engine.start(bogus, Cow::Borrowed(&[]))),
                ErrorClass::Request
            );

            // Transient kinds: born active, never startable.
            let recv = engine.irecv(COMM_WORLD, 0, 5, None).unwrap();
            let send = engine
                .isend(COMM_WORLD, 0, 5, b"x", SendMode::Standard)
                .unwrap();
            let coll = engine
                .iallreduce(COMM_WORLD, &one, PrimitiveKind::Int, 1, &sum)
                .unwrap();
            for id in [send, recv, coll] {
                assert_eq!(
                    class(engine.start(id, Cow::Borrowed(&one))),
                    ErrorClass::Request
                );
                engine.progress_poll().unwrap();
                let complete = engine.is_complete(id).unwrap();
                assert_eq!(complete, engine.test(id).unwrap().is_some());
            }

            // Persistent kinds: inactive until started; an inactive one
            // completes at once, empty; an active one cannot be started.
            let precv = engine.recv_init(COMM_WORLD, 0, 6, None).unwrap();
            let pcoll = engine
                .allreduce_init(COMM_WORLD, PrimitiveKind::Int, 1, &sum)
                .unwrap();
            for id in [precv, pcoll] {
                assert!(engine.is_complete(id).unwrap());
                assert_eq!(engine.wait(id).unwrap(), Completion::empty());
                assert_eq!(engine.test(id).unwrap(), Some(Completion::empty()));
                engine.start(id, Cow::Borrowed(&one)).unwrap();
                assert_eq!(
                    class(engine.start(id, Cow::Borrowed(&one))),
                    ErrorClass::Request
                );
            }
            assert_eq!(engine.persistent_active(), 2);
            assert!(!engine.is_complete(precv).unwrap());
            assert_eq!(engine.test(precv).unwrap(), None);
            assert!(engine.is_complete(pcoll).unwrap());
            let reduced = engine.test(pcoll).unwrap().unwrap().data.unwrap();
            assert_eq!(reduced.as_ref(), &one);

            // Collectives cannot be cancelled, transient or persistent.
            let coll = engine.ibarrier(COMM_WORLD).unwrap();
            for id in [coll, pcoll] {
                assert_eq!(class(engine.cancel(id)), ErrorClass::Unsupported);
            }

            // Freed ids are unknown; the started persistent receive is
            // retired by the free, so nothing is left outstanding.
            let psend = engine
                .send_init(COMM_WORLD, 0, 6, SendMode::Standard)
                .unwrap();
            engine.start(psend, Cow::Borrowed(b"y")).unwrap();
            for id in [coll, precv, psend, pcoll] {
                engine.request_free(id).unwrap();
                assert_eq!(class(engine.is_complete(id).map(drop)), ErrorClass::Request);
            }
            assert_eq!(engine.persistent_active(), 0);
            engine.finalize().unwrap();
        })
        .unwrap();
    }
}
