//! Request objects, `MPI_Wait` / `MPI_Test` (MPI-1.1 §3.7) and
//! persistent communication requests (§3.9). The `Waitall` / `Waitany`
//! / `Testsome` / `Startall` families are the binding's (`mpijava`'s
//! `Request`), built on the single-request calls here.

use bytes::Bytes;

use crate::comm::CommHandle;
use crate::error::{err, ErrorClass, MpiError, Result};
use crate::types::{SendMode, StatusInfo};
use crate::Engine;

/// Opaque handle to an engine request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestId(pub(crate) u64);

/// Result of completing a request: the status, plus the received payload
/// for receive requests (`None` for sends). The payload is the refcounted
/// [`Bytes`] buffer that crossed the transport — handing it out costs no
/// copy (see the copy inventory in [`crate::p2p`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    pub status: StatusInfo,
    pub data: Option<Bytes>,
}

/// Internal request state machine.
#[derive(Debug)]
pub(crate) enum RequestState {
    /// Receive posted, not yet matched.
    RecvPending,
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
    /// Persistent send definition (inactive between `start`s).
    PersistentSend {
        comm: CommHandle,
        dest: i32,
        tag: i32,
        mode: SendMode,
        data: Vec<u8>,
        active: Option<RequestId>,
    },
    /// Persistent receive definition (inactive between `start`s).
    PersistentRecv {
        comm: CommHandle,
        src: i32,
        tag: i32,
        max_len: Option<usize>,
        active: Option<RequestId>,
    },
}

impl Engine {
    fn state(&self, req: RequestId) -> Result<&RequestState> {
        self.requests
            .get(&req.0)
            .ok_or_else(|| MpiError::new(ErrorClass::Request, format!("unknown request {:?}", req)))
    }

    /// True when `wait` would return without blocking.
    pub fn is_complete(&self, req: RequestId) -> Result<bool> {
        Ok(match self.state(req)? {
            RequestState::RecvComplete { .. }
            | RequestState::SendComplete
            | RequestState::Cancelled
            | RequestState::Failed(_) => true,
            RequestState::PersistentSend { active, .. }
            | RequestState::PersistentRecv { active, .. } => match active {
                Some(inner) => self.is_complete(*inner)?,
                None => true, // inactive persistent requests complete immediately
            },
            _ => false,
        })
    }

    /// Remove a completed request and build its [`Completion`]. Also the
    /// non-parking harvest primitive of the collective progress engine
    /// ([`crate::coll::nb`]).
    pub(crate) fn take_completion(&mut self, req: RequestId) -> Result<Completion> {
        // Persistent requests delegate to their active inner request and
        // stay alive themselves; the inner request is consumed on failure
        // too, so a failed iteration leaves the request startable.
        if let Some(RequestState::PersistentSend { active, .. })
        | Some(RequestState::PersistentRecv { active, .. }) = self.requests.get(&req.0)
        {
            let inner = *active;
            return match inner {
                Some(inner_req) => {
                    let completion = self.take_completion(inner_req);
                    self.clear_persistent_active(req);
                    completion
                }
                None => Ok(Completion {
                    status: StatusInfo::empty(),
                    data: None,
                }),
            };
        }
        let state = self.requests.remove(&req.0).ok_or_else(|| {
            MpiError::new(ErrorClass::Request, format!("unknown request {:?}", req))
        })?;
        match state {
            RequestState::RecvComplete {
                data,
                status,
                error,
            } => {
                if let Some(e) = error {
                    return Err(e);
                }
                Ok(Completion {
                    status,
                    data: Some(data),
                })
            }
            RequestState::SendComplete => Ok(Completion {
                status: StatusInfo::empty(),
                data: None,
            }),
            RequestState::Cancelled => {
                let mut status = StatusInfo::empty();
                status.cancelled = true;
                Ok(Completion { status, data: None })
            }
            RequestState::Failed(error) => Err(error),
            other => {
                // Not complete: put it back and report the logic error.
                self.requests.insert(req.0, other);
                err(ErrorClass::Request, "request is not complete")
            }
        }
    }

    fn clear_persistent_active(&mut self, req: RequestId) {
        if let Some(RequestState::PersistentSend { active, .. })
        | Some(RequestState::PersistentRecv { active, .. }) = self.requests.get_mut(&req.0)
        {
            *active = None;
        }
    }

    /// Number of persistent point-to-point requests with an unwaited
    /// `start()` — `finalize` refuses while this is non-zero.
    pub fn persistent_p2p_active(&self) -> usize {
        self.requests
            .values()
            .filter(|state| {
                matches!(
                    state,
                    RequestState::PersistentSend {
                        active: Some(_),
                        ..
                    } | RequestState::PersistentRecv {
                        active: Some(_),
                        ..
                    }
                )
            })
            .count()
    }

    /// Drive the engine until `req` is complete (`MPI_Wait`). Also
    /// advances any in-flight nonblocking collectives while blocked (the
    /// background progress hook of [`crate::coll::nb`]).
    pub fn wait(&mut self, req: RequestId) -> Result<Completion> {
        loop {
            self.nb_progress()?;
            if self.is_complete(req)? {
                return self.take_completion(req);
            }
            if self.aborted {
                return err(ErrorClass::Aborted, "job aborted while waiting");
            }
            self.blocking_pump()?;
        }
    }

    /// `MPI_Test`: poll the transport once and return the completion if the
    /// request finished. Also advances any in-flight nonblocking
    /// collectives (background progress).
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
    /// engine reports it as unsupported).
    pub fn cancel(&mut self, req: RequestId) -> Result<()> {
        match self.requests.get(&req.0) {
            Some(RequestState::RecvPending) => {
                for queue in self.posted.values_mut() {
                    queue.retain(|p| p.req != req.0);
                }
                self.requests.insert(req.0, RequestState::Cancelled);
                Ok(())
            }
            Some(RequestState::RecvComplete { .. }) | Some(RequestState::SendComplete) => Ok(()),
            Some(RequestState::SendPendingRendezvous) => err(
                ErrorClass::Unsupported,
                "cancelling an in-flight send is not supported",
            ),
            Some(_) => err(ErrorClass::Request, "request cannot be cancelled"),
            None => err(ErrorClass::Request, "unknown request"),
        }
    }

    /// `MPI_Request_free`: drop a request handle. Persistent requests are
    /// destroyed; a pending receive is cancelled first.
    pub fn request_free(&mut self, req: RequestId) -> Result<()> {
        match self.requests.remove(&req.0) {
            Some(RequestState::RecvPending) => {
                for queue in self.posted.values_mut() {
                    queue.retain(|p| p.req != req.0);
                }
                Ok(())
            }
            Some(_) => Ok(()),
            None => err(ErrorClass::Request, "unknown request"),
        }
    }

    // ------------------------------------------------------------------
    // Persistent requests
    // ------------------------------------------------------------------

    /// `MPI_Send_init` (and `Bsend`/`Ssend`/`Rsend` variants via `mode`).
    pub fn send_init(
        &mut self,
        comm: CommHandle,
        dest: i32,
        tag: i32,
        data: &[u8],
        mode: SendMode,
    ) -> Result<RequestId> {
        self.check_live()?;
        let id = self.next_request;
        self.next_request += 1;
        self.requests.insert(
            id,
            RequestState::PersistentSend {
                comm,
                dest,
                tag,
                mode,
                data: data.to_vec(),
                active: None,
            },
        );
        Ok(RequestId(id))
    }

    /// `MPI_Recv_init`.
    pub fn recv_init(
        &mut self,
        comm: CommHandle,
        src: i32,
        tag: i32,
        max_len: Option<usize>,
    ) -> Result<RequestId> {
        self.check_live()?;
        let id = self.next_request;
        self.next_request += 1;
        self.requests.insert(
            id,
            RequestState::PersistentRecv {
                comm,
                src,
                tag,
                max_len,
                active: None,
            },
        );
        Ok(RequestId(id))
    }

    /// Replace the payload a persistent send transmits on its next `start`.
    /// (The C binding reuses the user buffer by address; the engine copies,
    /// so the binding layer refreshes the copy before each start.)
    pub fn persistent_set_data(&mut self, req: RequestId, data: &[u8]) -> Result<()> {
        match self.requests.get_mut(&req.0) {
            Some(RequestState::PersistentSend {
                data: stored,
                active: None,
                ..
            }) => {
                stored.clear();
                stored.extend_from_slice(data);
                Ok(())
            }
            Some(RequestState::PersistentSend { .. }) => err(
                ErrorClass::Request,
                "cannot change the payload of an active persistent send",
            ),
            _ => err(ErrorClass::Request, "not a persistent send request"),
        }
    }

    /// `MPI_Start`.
    pub fn start(&mut self, req: RequestId) -> Result<()> {
        let inner_req = match self.requests.get_mut(&req.0) {
            Some(RequestState::PersistentSend {
                comm,
                dest,
                tag,
                mode,
                data,
                active: None,
            }) => {
                // Lend the stored payload to the send, which stages its
                // own copy, and put it back — on the error path too.
                let (comm, dest, tag, mode) = (*comm, *dest, *tag, *mode);
                let data = std::mem::take(data);
                let sent = self.isend(comm, dest, tag, &data, mode);
                if let Some(RequestState::PersistentSend { data: stored, .. }) =
                    self.requests.get_mut(&req.0)
                {
                    *stored = data;
                }
                sent?
            }
            Some(RequestState::PersistentRecv {
                comm,
                src,
                tag,
                max_len,
                active: None,
            }) => {
                let (comm, src, tag, max_len) = (*comm, *src, *tag, *max_len);
                self.irecv(comm, src, tag, max_len)?
            }
            Some(RequestState::PersistentSend { .. })
            | Some(RequestState::PersistentRecv { .. }) => {
                return err(ErrorClass::Request, "persistent request is already active")
            }
            _ => return err(ErrorClass::Request, "start on a non-persistent request"),
        };
        match self.requests.get_mut(&req.0) {
            Some(RequestState::PersistentSend { active, .. })
            | Some(RequestState::PersistentRecv { active, .. }) => {
                *active = Some(inner_req);
                Ok(())
            }
            _ => err(
                ErrorClass::Intern,
                "persistent request vanished during start",
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::COMM_WORLD;
    use crate::types::{SendMode, ANY_SOURCE};
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
                    .send_init(COMM_WORLD, 1, 11, b"round-0", SendMode::Standard)
                    .unwrap();
                for round in 0..ROUNDS {
                    engine
                        .persistent_set_data(sreq, format!("round-{round}").as_bytes())
                        .unwrap();
                    engine.start(sreq).unwrap();
                    engine.wait(sreq).unwrap();
                }
                engine.request_free(sreq).unwrap();
            } else {
                let rreq = engine.recv_init(COMM_WORLD, 0, 11, None).unwrap();
                for round in 0..ROUNDS {
                    engine.start(rreq).unwrap();
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
                engine.start(req).unwrap();
                let error = engine.wait(req).unwrap_err();
                assert_eq!(error.class, ErrorClass::Truncate);
                assert_eq!(engine.persistent_p2p_active(), 0);
                engine.start(req).unwrap();
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
                engine.start(req).unwrap();
                assert!(engine.start(req).is_err());
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

    #[test]
    fn unknown_requests_are_rejected() {
        Universe::run(1, DeviceKind::ShmFast, |engine| {
            let bogus = RequestId(999_999);
            assert!(engine.is_complete(bogus).is_err());
            assert!(engine.wait(bogus).is_err());
            assert!(engine.cancel(bogus).is_err());
            assert!(engine.request_free(bogus).is_err());
        })
        .unwrap();
    }
}
