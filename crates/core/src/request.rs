//! The `Request` and `Prequest` classes (mpiJava `Request`, `Prequest`).
//!
//! A non-blocking receive in mpiJava hands the Java array to the wrapper,
//! which fills it when the communication completes. The Rust equivalent is
//! a [`Request`] that mutably borrows the receive buffer until it has been
//! waited on (or freed), so the type system enforces the rule MPI states
//! informally: do not touch a buffer while a non-blocking operation is
//! using it.
//!
//! `Prequest` is the persistent variant created by `Send_init` /
//! `Recv_init` and restarted with `Start` / `Startall` (mpiJava routes
//! `Start` through `Prequest`).

use std::borrow::Cow;
use std::sync::Arc;

use mpi_native::{CollOutcome, CollRequestId, ErrorClass, PersistentCollId, RequestId};

use crate::exception::{MPIException, MpiResult};
use crate::status::Status;
use crate::RankEnv;

type UnpackOnce<'buf> = Box<dyn FnOnce(&[u8]) -> MpiResult<()> + Send + 'buf>;
type UnpackMut<'buf> = Box<dyn FnMut(&[u8]) -> MpiResult<()> + Send + 'buf>;
type Repack<'buf> = Box<dyn Fn() -> MpiResult<Vec<u8>> + Send + 'buf>;

/// What engine object a [`Request`] completes: a point-to-point request
/// or a nonblocking-collective schedule. The two share every completion
/// surface (`wait`, `test`, batches, RAII), which is what lets a
/// heterogeneous [`TypedRequest::wait_all`] batch mix them freely.
#[derive(Debug, Clone, Copy)]
enum ReqId {
    P2p(RequestId),
    Coll(CollRequestId),
}

/// Handle to an outstanding non-blocking operation.
pub struct Request<'buf> {
    env: Arc<RankEnv>,
    id: ReqId,
    unpack: Option<UnpackOnce<'buf>>,
    done: bool,
}

impl std::fmt::Debug for Request<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Request")
            .field("id", &self.id)
            .field("done", &self.done)
            .finish()
    }
}

impl<'buf> Request<'buf> {
    pub(crate) fn send(env: Arc<RankEnv>, id: RequestId) -> Request<'static> {
        Request {
            env,
            id: ReqId::P2p(id),
            unpack: None,
            done: false,
        }
    }

    pub(crate) fn recv(
        env: Arc<RankEnv>,
        id: RequestId,
        unpack: UnpackOnce<'buf>,
    ) -> Request<'buf> {
        Request {
            env,
            id: ReqId::P2p(id),
            unpack: Some(unpack),
            done: false,
        }
    }

    /// A nonblocking-collective request ([`crate::rs`]'s `i*` collective
    /// methods). `unpack` delivers the collective's outcome bytes
    /// (gather-family outcomes arrive flattened in rank order) into the
    /// caller's buffer; `None` for outcome-free collectives (barrier)
    /// and rooted collectives on non-root ranks.
    pub(crate) fn coll(
        env: Arc<RankEnv>,
        id: CollRequestId,
        unpack: Option<UnpackOnce<'buf>>,
    ) -> Request<'buf> {
        Request {
            env,
            id: ReqId::Coll(id),
            unpack,
            done: false,
        }
    }

    /// Engine-level id (exposed for diagnostics); `None` for
    /// collective-backed requests, whose engine handle lives in a
    /// different id space.
    pub fn id(&self) -> Option<RequestId> {
        match self.id {
            ReqId::P2p(id) => Some(id),
            ReqId::Coll(_) => None,
        }
    }

    /// True once the request has been waited on / tested to completion.
    pub fn is_void(&self) -> bool {
        self.done
    }

    fn finish(&mut self, completion: mpi_native::request::Completion) -> MpiResult<Status> {
        self.done = true;
        if let (Some(unpack), Some(data)) = (self.unpack.take(), completion.data.as_ref()) {
            unpack(data)?;
        }
        Ok(Status::from_info(completion.status))
    }

    fn finish_coll(&mut self, outcome: CollOutcome) -> MpiResult<Status> {
        self.done = true;
        let unpack = self.unpack.take();
        finish_coll(outcome, |bytes| unpack.map_or(Ok(()), |f| f(bytes)))
    }

    /// Engine-side completion check without the simulated JNI crossing —
    /// the building block of the batched waits over mixed batches.
    fn poll(&mut self) -> MpiResult<Option<Status>> {
        if self.done {
            return Ok(None);
        }
        match self.id {
            ReqId::P2p(id) => {
                let completion = self.env.engine.lock().test(id)?;
                match completion {
                    Some(completion) => Ok(Some(self.finish(completion)?)),
                    None => Ok(None),
                }
            }
            ReqId::Coll(id) => {
                let outcome = self.env.engine.lock().coll_test(id)?;
                match outcome {
                    Some(outcome) => Ok(Some(self.finish_coll(outcome)?)),
                    None => Ok(None),
                }
            }
        }
    }

    /// `Request.Wait()`: block until complete, fill the receive buffer and
    /// return the `Status`.
    pub fn wait(&mut self) -> MpiResult<Status> {
        if self.done {
            return Err(MPIException::new(
                ErrorClass::Request,
                "request has already completed",
            ));
        }
        self.env.jni.enter("Request.Wait");
        match self.id {
            ReqId::P2p(id) => {
                let completion = self.env.engine.lock().wait(id)?;
                self.finish(completion)
            }
            ReqId::Coll(id) => {
                let outcome = self.env.engine.lock().coll_wait(id)?;
                self.finish_coll(outcome)
            }
        }
    }

    /// `Request.Test()`: `Some(status)` if complete, `None` otherwise (the
    /// paper's null-for-failure convention, §2.1).
    pub fn test(&mut self) -> MpiResult<Option<Status>> {
        if self.done {
            return Ok(None);
        }
        self.env.jni.enter("Request.Test");
        self.poll()
    }

    /// `Request.Cancel()`. Nonblocking collectives cannot be cancelled
    /// (the standard's rule — every rank participates).
    pub fn cancel(&mut self) -> MpiResult<()> {
        self.env.jni.enter("Request.Cancel");
        match self.id {
            ReqId::P2p(id) => Ok(self.env.engine.lock().cancel(id)?),
            ReqId::Coll(_) => Err(MPIException::new(
                ErrorClass::Unsupported,
                "nonblocking collectives cannot be cancelled",
            )),
        }
    }

    /// `Request.Free()`: release the request without inspecting its
    /// completion. A pending point-to-point receive is withdrawn from
    /// the engine; a collective request cannot be withdrawn (every rank
    /// participates), so it is driven to completion and its outcome
    /// discarded — the handle quiesces either way.
    pub fn free(mut self) -> MpiResult<()> {
        self.env.jni.enter("Request.Free");
        self.done = true;
        match self.id {
            ReqId::P2p(id) => Ok(self.env.engine.lock().request_free(id)?),
            ReqId::Coll(id) => Ok(self.env.engine.lock().coll_abandon(id)?),
        }
    }

    /// Abandon the handle without blocking — the panic-unwind escape
    /// hatch. A point-to-point receive is withdrawn; a collective's
    /// engine-side schedule is left in place (driving it could block on
    /// peers that will never act once this rank's abort lands, and the
    /// job is about to tear down anyway).
    pub(crate) fn forget(mut self) {
        self.done = true;
        if let ReqId::P2p(id) = self.id {
            let _ = self.env.engine.lock().request_free(id);
        }
    }

    /// `Request.Waitall(requests)`: complete every request, returning the
    /// statuses in order.
    pub fn wait_all(requests: &mut [Request<'buf>]) -> MpiResult<Vec<Status>> {
        requests.iter_mut().map(|r| r.wait()).collect()
    }

    /// `Request.Waitany(requests)`: wait for one to complete; its index is
    /// recorded in the returned status (`status.index()`), mirroring the
    /// extra field the paper adds to `Status`. Batches mixing
    /// point-to-point and collective requests are completed by polling
    /// (each poll drives the engine's progress, collectives included).
    pub fn wait_any(requests: &mut [Request<'buf>]) -> MpiResult<Status> {
        if requests.is_empty() {
            return Err(MPIException::new(
                ErrorClass::Request,
                "Waitany on empty array",
            ));
        }
        let env = Arc::clone(&requests[0].env);
        env.jni.enter("Request.Waitany");
        let all_p2p = requests
            .iter()
            .all(|r| r.done || matches!(r.id, ReqId::P2p(_)));
        if !all_p2p {
            // Mixed batch: poll each member (each poll drives the
            // engine's progress), then park on the transport until the
            // next frame instead of spinning — anything still pending
            // after a full poll is waiting on remote frames.
            loop {
                let mut any_pending = false;
                for (slot, request) in requests.iter_mut().enumerate() {
                    if request.done {
                        continue;
                    }
                    any_pending = true;
                    if let Some(status) = request.poll()? {
                        return Ok(status.with_index(slot));
                    }
                }
                if !any_pending {
                    return Err(MPIException::new(
                        ErrorClass::Request,
                        "Waitany: every request has already completed",
                    ));
                }
                env.engine.lock().progress_wait()?;
            }
        }
        let pending: Vec<RequestId> = requests
            .iter()
            .filter(|r| !r.done)
            .filter_map(|r| match r.id {
                ReqId::P2p(id) => Some(id),
                ReqId::Coll(_) => None,
            })
            .collect();
        if pending.is_empty() {
            return Err(MPIException::new(
                ErrorClass::Request,
                "Waitany: every request has already completed",
            ));
        }
        let (_, completion) = env.engine.lock().wait_any(&pending)?;
        // Map the completed engine request back to its position in the
        // caller's array.
        let completed_id = pending[completion.status.index as usize];
        let slot = requests
            .iter()
            .position(|r| matches!(r.id, ReqId::P2p(id) if id == completed_id))
            .expect("completed request came from this array");
        Ok(requests[slot].finish(completion)?.with_index(slot))
    }

    /// `Request.Testall(requests)`: statuses if every request is complete,
    /// `None` otherwise — **all-or-nothing**, exactly like the standard's
    /// `MPI_Testall`: when the call returns `None`, no member has been
    /// consumed and no receive buffer has been filled, even for members
    /// that are individually complete (they are harvested by the
    /// eventual successful `test_all`, a `wait`, or an individual
    /// `test`). This holds for pure point-to-point batches and for
    /// batches mixing point-to-point and collective requests alike.
    pub fn test_all(requests: &mut [Request<'buf>]) -> MpiResult<Option<Vec<Status>>> {
        if requests.is_empty() {
            return Ok(Some(Vec::new()));
        }
        let env = Arc::clone(&requests[0].env);
        env.jni.enter("Request.Testall");
        let all_p2p = requests
            .iter()
            .all(|r| r.done || matches!(r.id, ReqId::P2p(_)));
        if !all_p2p {
            // Mixed batch: drive progress once without consuming
            // anything, then check completion non-destructively. Only
            // when the whole batch is complete does anyone's buffer get
            // filled.
            {
                let mut engine = env.engine.lock();
                engine.progress_poll()?;
                for request in requests.iter() {
                    if request.done {
                        continue;
                    }
                    let complete = match request.id {
                        ReqId::P2p(id) => engine.is_complete(id)?,
                        ReqId::Coll(id) => engine.coll_is_complete(id)?,
                    };
                    if !complete {
                        return Ok(None);
                    }
                }
            }
            let mut statuses = Vec::with_capacity(requests.len());
            for request in requests.iter_mut() {
                match request.poll()? {
                    Some(status) => statuses.push(status),
                    // Already consumed before this call (request.done).
                    None => statuses.push(Status::from_info(mpi_native::StatusInfo::empty())),
                }
            }
            return Ok(Some(statuses));
        }
        let ids: Vec<RequestId> = requests
            .iter()
            .filter(|r| !r.done)
            .filter_map(|r| match r.id {
                ReqId::P2p(id) => Some(id),
                ReqId::Coll(_) => None,
            })
            .collect();
        let completions = env.engine.lock().test_all(&ids)?;
        match completions {
            None => Ok(None),
            Some(completions) => {
                let mut statuses = Vec::with_capacity(requests.len());
                let mut it = completions.into_iter();
                for request in requests.iter_mut() {
                    if request.done {
                        statuses.push(Status::from_info(mpi_native::StatusInfo::empty()));
                    } else {
                        let completion = it.next().expect("one completion per pending request");
                        statuses.push(request.finish(completion)?);
                    }
                }
                Ok(Some(statuses))
            }
        }
    }
}

/// RAII handle to a non-blocking operation of the idiomatic API
/// ([`crate::rs`]).
///
/// Wraps a [`Request`] with ownership-driven completion semantics:
///
/// * [`wait`](TypedRequest::wait) consumes the handle and returns the
///   [`Status`] — a completed request cannot be waited on twice by
///   construction, so the "request has already completed" error of the
///   classic API is unrepresentable (waiting after [`test`] reported
///   completion returns the cached status);
/// * dropping a pending handle **blocks until the operation completes**
///   (completion on drop), so a receive buffer's mutable borrow is never
///   released while the engine might still write to it — the guarantee
///   MPI states informally becomes a compile-time rule. For a receive
///   that may never match, use [`free`](TypedRequest::free) (or
///   [`cancel`](TypedRequest::cancel)) as the escape hatch before the
///   handle goes out of scope;
/// * [`wait_all`](TypedRequest::wait_all) completes a heterogeneous batch
///   (sends and receives over buffers of different element types) in
///   order.
///
/// The lifetime `'buf` is the borrow of the receive buffer (sends, whose
/// payload is marshalled at call time, carry `'static` internally and
/// covariantly shorten to the caller's buffer lifetime).
///
/// [`test`]: TypedRequest::test
pub struct TypedRequest<'buf> {
    inner: Option<Request<'buf>>,
    /// Status cached when `test()` observes completion, so a later
    /// `wait()` can return it instead of erroring.
    status: Option<Status>,
}

impl std::fmt::Debug for TypedRequest<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TypedRequest")
            .field("inner", &self.inner)
            .finish()
    }
}

impl<'buf> TypedRequest<'buf> {
    pub(crate) fn new(inner: Request<'buf>) -> TypedRequest<'buf> {
        TypedRequest {
            inner: Some(inner),
            status: None,
        }
    }

    /// Engine-level id (exposed for diagnostics); `None` for
    /// collective-backed requests.
    pub fn id(&self) -> Option<RequestId> {
        self.inner.as_ref().expect("pending request").id()
    }

    /// Block until the operation completes, fill the receive buffer, and
    /// return the [`Status`]. Consumes the handle. If the operation
    /// already completed through [`test`](TypedRequest::test), returns
    /// the status that test observed.
    pub fn wait(mut self) -> MpiResult<Status> {
        let mut request = self.inner.take().expect("pending request");
        if request.is_void() {
            let status = self.status.take();
            return Ok(status.unwrap_or_else(|| Status::from_info(mpi_native::StatusInfo::empty())));
        }
        request.wait()
    }

    /// `Some(status)` if the operation has completed (filling the receive
    /// buffer), `None` if it is still in flight. Once completion has been
    /// observed, further calls keep returning the same status.
    pub fn test(&mut self) -> MpiResult<Option<Status>> {
        match self.inner.as_mut() {
            Some(request) if !request.is_void() => {
                let status = request.test()?;
                if let Some(status) = &status {
                    self.status = Some(status.clone());
                }
                Ok(status)
            }
            _ => Ok(self.status.clone()),
        }
    }

    /// True once the request has completed via [`test`](TypedRequest::test).
    pub fn is_complete(&self) -> bool {
        self.inner.as_ref().map(Request::is_void).unwrap_or(true)
    }

    /// `Request.Cancel()`: ask the engine to cancel the pending
    /// operation. The handle must still be completed (waited on, freed,
    /// or dropped); the resulting status reports the cancellation.
    /// Cancelling an operation that already completed is a no-op.
    pub fn cancel(&mut self) -> MpiResult<()> {
        match self.inner.as_mut() {
            Some(request) if !request.is_void() => request.cancel(),
            _ => Ok(()),
        }
    }

    /// `Request.Free()`: release the request without completing it — the
    /// escape hatch for a receive that may never match (a plain drop
    /// would block forever waiting for it). The pending receive is
    /// withdrawn from the engine and the buffer borrow ends immediately.
    ///
    /// Standard MPI semantics apply to the message itself: freeing the
    /// receive does **not** retract anything the peer already sent. An
    /// in-flight message stays queued and will be matched by a later
    /// receive with the same `(source, tag)` envelope — only data the
    /// engine had already committed to *this* request (a rendezvous
    /// transfer in progress) is discarded.
    pub fn free(mut self) -> MpiResult<()> {
        match self.inner.take() {
            Some(request) if !request.is_void() => request.free(),
            _ => Ok(()),
        }
    }

    /// Complete every request of a batch, returning the statuses in order.
    /// The batch may mix sends and receives over buffers of different
    /// element types — the handles are type-erased, only the buffer borrow
    /// lifetime is shared. If one wait fails, the error is returned and
    /// the remaining requests are completed by their drops.
    pub fn wait_all(
        requests: impl IntoIterator<Item = TypedRequest<'buf>>,
    ) -> MpiResult<Vec<Status>> {
        requests.into_iter().map(TypedRequest::wait).collect()
    }
}

impl Drop for TypedRequest<'_> {
    fn drop(&mut self) {
        if let Some(mut request) = self.inner.take() {
            if !request.is_void() {
                if std::thread::panicking() {
                    // Unwinding: blocking here could hang the rank on an
                    // operation whose peer may never act (and mask the
                    // panic message). Abandon the request instead — no
                    // user code observes the buffer after a panic, so the
                    // RAII completion guarantee is moot.
                    request.forget();
                } else {
                    // Completion on drop: the buffer borrow ends here, so
                    // the operation must be driven to completion first.
                    // Errors are swallowed (drop cannot propagate them);
                    // use `wait()` to observe the status or failure, or
                    // `free()` to abandon a receive that may never match.
                    let _ = request.wait();
                }
            }
        }
    }
}

/// A persistent request created by `Send_init` / `Recv_init`.
pub struct Prequest<'buf> {
    env: Arc<RankEnv>,
    id: RequestId,
    kind: PrequestKind<'buf>,
    active: bool,
}

enum PrequestKind<'buf> {
    Send { repack: Repack<'buf> },
    Recv { unpack: UnpackMut<'buf> },
}

impl std::fmt::Debug for Prequest<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prequest")
            .field("id", &self.id)
            .field("active", &self.active)
            .finish()
    }
}

impl<'buf> Prequest<'buf> {
    pub(crate) fn send(env: Arc<RankEnv>, id: RequestId, repack: Repack<'buf>) -> Prequest<'buf> {
        Prequest {
            env,
            id,
            kind: PrequestKind::Send { repack },
            active: false,
        }
    }

    pub(crate) fn recv(
        env: Arc<RankEnv>,
        id: RequestId,
        unpack: UnpackMut<'buf>,
    ) -> Prequest<'buf> {
        Prequest {
            env,
            id,
            kind: PrequestKind::Recv { unpack },
            active: false,
        }
    }

    /// `Prequest.Start()`: (re)activate the persistent communication.
    /// For a persistent send the current contents of the user buffer are
    /// re-marshalled, matching the C semantics of reusing the buffer by
    /// address.
    pub fn start(&mut self) -> MpiResult<()> {
        if self.active {
            return Err(MPIException::new(
                ErrorClass::Request,
                "persistent request is already active",
            ));
        }
        self.env.jni.enter("Prequest.Start");
        if let PrequestKind::Send { repack } = &self.kind {
            let payload = repack()?;
            self.env
                .engine
                .lock()
                .persistent_set_data(self.id, &payload)?;
        }
        self.env.engine.lock().start(self.id)?;
        self.active = true;
        Ok(())
    }

    /// `Prequest.Startall(requests)`.
    pub fn start_all(requests: &mut [Prequest<'buf>]) -> MpiResult<()> {
        for r in requests.iter_mut() {
            r.start()?;
        }
        Ok(())
    }

    /// `Request.Wait()` on the persistent request: completes the active
    /// communication and returns the request to the inactive state.
    pub fn wait(&mut self) -> MpiResult<Status> {
        if !self.active {
            return Err(MPIException::new(
                ErrorClass::Request,
                "persistent request is not active",
            ));
        }
        self.env.jni.enter("Prequest.Wait");
        let completion = self.env.engine.lock().wait(self.id)?;
        self.active = false;
        if let (PrequestKind::Recv { unpack }, Some(data)) =
            (&mut self.kind, completion.data.as_ref())
        {
            unpack(data)?;
        }
        Ok(Status::from_info(completion.status))
    }

    /// `Request.Free()` on the persistent request.
    pub fn free(self) -> MpiResult<()> {
        self.env.jni.enter("Prequest.Free");
        Ok(self.env.engine.lock().request_free(self.id)?)
    }

    /// True while a started communication has not yet been waited on.
    pub fn is_active(&self) -> bool {
        self.active
    }
}

/// The buffers a persistent collective re-reads and re-fills on every
/// iteration: one object owning both directions, so a single borrow can
/// serve as the operation's input *and* output (a persistent bcast uses
/// the same slice for both roles).
pub(crate) trait PersistentCollBufs: Send {
    /// This rank's contribution for one `start()` (re-marshalled from
    /// the captured buffer, matching the C semantics of reusing the
    /// buffer by address).
    fn pack(&mut self) -> Cow<'_, [u8]>;
    /// Deliver one completed iteration's outcome bytes into the
    /// captured buffer (no-op for outcome-free shapes).
    fn unpack(&mut self, bytes: &[u8]) -> MpiResult<()>;
}

enum PersistentKind<'buf> {
    P2pSend {
        id: RequestId,
        repack: Repack<'buf>,
    },
    P2pRecv {
        id: RequestId,
        unpack: UnpackMut<'buf>,
    },
    Coll {
        id: PersistentCollId,
        bufs: Box<dyn PersistentCollBufs + 'buf>,
    },
}

/// RAII handle to a persistent operation of the idiomatic API
/// ([`crate::rs`]): `send_init` / `recv_init` point-to-point pairs and
/// the persistent collectives (`barrier_init`, `broadcast_init`,
/// `reduce_init_into`, `all_reduce_init`, `all_gather_init`).
///
/// One handle is one reusable operation: [`start`](PersistentRequest::start)
/// launches an iteration (re-marshalling the captured send buffer, so
/// the C idiom of reusing the buffer by address carries over),
/// [`wait`](PersistentRequest::wait) / [`test`](PersistentRequest::test)
/// complete it and fill the captured receive buffer, and the handle is
/// immediately startable again. The one-time cost — validation,
/// algorithm selection, schedule construction and tag-window
/// reservation for collectives — was paid at `*_init` time; each
/// `start()` of a collective replays the pinned engine schedule (see
/// `mpi_native::coll::nb`'s schedule cache).
///
/// Drop semantics mirror [`TypedRequest`]: dropping a handle whose
/// `start()` is still in flight quiesces it (the iteration is driven to
/// completion and discarded) and releases the engine-side registration,
/// so `finalize()` — which refuses active persistent operations — stays
/// a reliable leak probe. During a panic-unwind the handle is abandoned
/// so teardown cannot hang. Use [`free`](PersistentRequest::free) to
/// observe release errors.
pub struct PersistentRequest<'buf> {
    env: Arc<RankEnv>,
    kind: PersistentKind<'buf>,
    active: bool,
    freed: bool,
}

impl std::fmt::Debug for PersistentRequest<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.kind {
            PersistentKind::P2pSend { id, .. } => format!("send {id:?}"),
            PersistentKind::P2pRecv { id, .. } => format!("recv {id:?}"),
            PersistentKind::Coll { id, .. } => format!("coll {id:?}"),
        };
        f.debug_struct("PersistentRequest")
            .field("kind", &kind)
            .field("active", &self.active)
            .finish()
    }
}

impl<'buf> PersistentRequest<'buf> {
    /// Adopt a (not yet started) classic `Send_init` / `Recv_init`
    /// request: same engine registration, same marshalling closures.
    pub(crate) fn p2p(request: Prequest<'buf>) -> PersistentRequest<'buf> {
        let id = request.id;
        let kind = match request.kind {
            PrequestKind::Send { repack } => PersistentKind::P2pSend { id, repack },
            PrequestKind::Recv { unpack } => PersistentKind::P2pRecv { id, unpack },
        };
        PersistentRequest {
            env: request.env,
            kind,
            active: false,
            freed: false,
        }
    }

    pub(crate) fn coll(
        env: Arc<RankEnv>,
        id: PersistentCollId,
        bufs: Box<dyn PersistentCollBufs + 'buf>,
    ) -> PersistentRequest<'buf> {
        PersistentRequest {
            env,
            kind: PersistentKind::Coll { id, bufs },
            active: false,
            freed: false,
        }
    }

    /// `MPI_Start`: launch one iteration. The captured send buffer is
    /// re-marshalled at this moment. Errors if the previous iteration
    /// has not been completed yet (collective starts are ordered like
    /// any collective: every rank must start in the same order).
    pub fn start(&mut self) -> MpiResult<()> {
        if self.active {
            return Err(MPIException::new(
                ErrorClass::Request,
                "persistent request is already active; wait on it first",
            ));
        }
        self.env.jni.enter("Prequest.Start");
        match &mut self.kind {
            PersistentKind::P2pSend { id, repack } => {
                let payload = repack()?;
                let mut engine = self.env.engine.lock();
                engine.persistent_set_data(*id, &payload)?;
                engine.start(*id)?;
            }
            PersistentKind::P2pRecv { id, .. } => {
                self.env.engine.lock().start(*id)?;
            }
            PersistentKind::Coll { id, bufs } => {
                let payload = bufs.pack();
                self.env
                    .engine
                    .lock()
                    .coll_start_persistent(*id, &payload)?;
            }
        }
        self.active = true;
        Ok(())
    }

    /// `MPI_Startall` over a batch (the batch may mix point-to-point
    /// and collective persistent handles).
    pub fn start_all(requests: &mut [PersistentRequest<'buf>]) -> MpiResult<()> {
        for request in requests.iter_mut() {
            request.start()?;
        }
        Ok(())
    }

    /// `MPI_Wait`: complete the current iteration, fill the captured
    /// receive buffer, and return the handle to the startable state. On
    /// an inactive handle this returns an empty status immediately (the
    /// standard's semantics for waiting on an inactive persistent
    /// request).
    pub fn wait(&mut self) -> MpiResult<Status> {
        self.env.jni.enter("Prequest.Wait");
        if !self.active {
            return Ok(Status::from_info(mpi_native::StatusInfo::empty()));
        }
        self.active = false;
        match &mut self.kind {
            PersistentKind::P2pSend { id, .. } => {
                let completion = self.env.engine.lock().wait(*id)?;
                Ok(Status::from_info(completion.status))
            }
            PersistentKind::P2pRecv { id, unpack } => {
                let completion = self.env.engine.lock().wait(*id)?;
                if let Some(data) = completion.data.as_ref() {
                    unpack(data)?;
                }
                Ok(Status::from_info(completion.status))
            }
            PersistentKind::Coll { id, bufs } => {
                let outcome = self.env.engine.lock().coll_wait_persistent(*id)?;
                finish_coll(outcome, |bytes| bufs.unpack(bytes))
            }
        }
    }

    /// `MPI_Test`: `Some(status)` if the current iteration completed
    /// (filling the captured receive buffer), `None` while it is still
    /// in flight. An inactive handle reports `Some` immediately.
    pub fn test(&mut self) -> MpiResult<Option<Status>> {
        self.env.jni.enter("Prequest.Test");
        if !self.active {
            return Ok(Some(Status::from_info(mpi_native::StatusInfo::empty())));
        }
        match &mut self.kind {
            PersistentKind::P2pSend { id, .. } => match self.env.engine.lock().test(*id)? {
                Some(completion) => {
                    self.active = false;
                    Ok(Some(Status::from_info(completion.status)))
                }
                None => Ok(None),
            },
            PersistentKind::P2pRecv { id, unpack } => match self.env.engine.lock().test(*id)? {
                Some(completion) => {
                    self.active = false;
                    if let Some(data) = completion.data.as_ref() {
                        unpack(data)?;
                    }
                    Ok(Some(Status::from_info(completion.status)))
                }
                None => Ok(None),
            },
            PersistentKind::Coll { id, bufs } => {
                match self.env.engine.lock().coll_test_persistent(*id)? {
                    Some(outcome) => {
                        self.active = false;
                        Ok(Some(finish_coll(outcome, |bytes| bufs.unpack(bytes))?))
                    }
                    None => Ok(None),
                }
            }
        }
    }

    /// True while a started iteration has not been completed yet.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// `MPI_Request_free`: release the persistent operation, observing
    /// errors. An in-flight iteration is quiesced first (driven to
    /// completion and discarded) — same policy as the drop, which calls
    /// this and swallows the result.
    pub fn free(mut self) -> MpiResult<()> {
        self.env.jni.enter("Prequest.Free");
        self.release()
    }

    fn release(&mut self) -> MpiResult<()> {
        if self.freed {
            return Ok(());
        }
        self.freed = true;
        match &mut self.kind {
            PersistentKind::P2pSend { id, .. } | PersistentKind::P2pRecv { id, .. } => {
                let mut engine = self.env.engine.lock();
                if self.active {
                    self.active = false;
                    let _ = engine.wait(*id);
                }
                engine.request_free(*id)?;
            }
            PersistentKind::Coll { id, .. } => {
                // coll_free_persistent quiesces an in-flight start
                // itself (a collective cannot be withdrawn).
                self.active = false;
                self.env.engine.lock().coll_free_persistent(*id)?;
            }
        }
        Ok(())
    }
}

/// Completion tail of every collective-backed handle ([`Request`] and
/// [`PersistentRequest`] alike): flatten the outcome (gather-family
/// parts arrive in rank order), deliver it through `unpack`, and
/// synthesize the byte-count status.
fn finish_coll(
    outcome: CollOutcome,
    unpack: impl FnOnce(&[u8]) -> MpiResult<()>,
) -> MpiResult<Status> {
    let data: Vec<u8> = match outcome {
        CollOutcome::Done => return Ok(Status::from_info(mpi_native::StatusInfo::empty())),
        CollOutcome::Buffer(buffer) => buffer,
        CollOutcome::Parts(parts) => parts.into_iter().flatten().collect(),
    };
    unpack(&data)?;
    let mut info = mpi_native::StatusInfo::empty();
    info.count_bytes = data.len();
    Ok(Status::from_info(info))
}

impl Drop for PersistentRequest<'_> {
    fn drop(&mut self) {
        if self.freed {
            return;
        }
        if std::thread::panicking() {
            // Unwinding: quiescing could hang on peers that will never
            // act once this rank's abort lands. Abandon the engine-side
            // registration; finalize will not run after a panic, so its
            // active-persistent check cannot misfire.
            return;
        }
        // Quiesce + release on drop, mirroring TypedRequest. Errors are
        // swallowed (drop cannot propagate them); use `free()` to
        // observe them.
        let _ = self.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Regression for the documented mixed-batch `Testall` caveat: a
    /// batch mixing a pending point-to-point receive with an
    /// already-complete collective must be **all-or-nothing** — as long
    /// as `test_all` returns `None`, no member is consumed and no
    /// buffer-filling unpack has run, even for the individually-complete
    /// collective. Only the eventual `Some` harvests everything.
    #[test]
    fn mixed_test_all_fills_no_buffers_before_the_whole_batch_completes() {
        use crate::rs::Communicator as _;
        crate::MpiRuntime::new(2)
            .run(|mpi| {
                let world = mpi.comm_world();
                let rank = world.rank()?;
                let sum = mpi_native::Op::Predefined(mpi_native::PredefinedOp::Sum);
                let contribution = (rank as i32 + 1).to_le_bytes();
                if rank == 0 {
                    let handle = world.as_comm().handle;
                    let env = Arc::clone(&world.as_comm().env);
                    let coll_id = mpi.with_engine(|e| {
                        e.iallreduce(
                            handle,
                            &contribution,
                            mpi_native::PrimitiveKind::Int,
                            1,
                            &sum,
                        )
                    })?;
                    let unpacked = Arc::new(AtomicBool::new(false));
                    let unpacked_probe = Arc::clone(&unpacked);
                    let coll_req = Request::coll(
                        env,
                        coll_id,
                        Some(Box::new(move |_bytes: &[u8]| {
                            unpacked_probe.store(true, Ordering::SeqCst);
                            Ok(())
                        })),
                    );
                    // A receive whose matching send has deliberately not
                    // been posted yet.
                    let mut buf = [0u8; 4];
                    let p2p_req =
                        world
                            .as_comm()
                            .irecv(&mut buf, 0, 4, &crate::Datatype::byte(), 1, 9)?;
                    let mut batch = vec![p2p_req, coll_req];

                    // Drive until the collective half is complete on the
                    // engine; every test_all along the way must report
                    // None *without* running the collective's unpack.
                    loop {
                        let got = Request::test_all(&mut batch)?;
                        assert!(got.is_none(), "batch cannot be complete yet");
                        assert!(
                            !unpacked.load(Ordering::SeqCst),
                            "test_all filled a buffer before the whole batch completed"
                        );
                        assert!(
                            batch.iter().all(|r| !r.is_void()),
                            "test_all consumed a member of an incomplete batch"
                        );
                        if mpi.with_engine(|e| e.coll_is_complete(coll_id))? {
                            break;
                        }
                        std::thread::yield_now();
                    }
                    // Collective complete, receive still pending: one
                    // more None, still nothing consumed.
                    assert!(Request::test_all(&mut batch)?.is_none());
                    assert!(!unpacked.load(Ordering::SeqCst));

                    // Release the peer; once its send lands, test_all
                    // flips to Some and only then fills the buffers.
                    world.send(&[1u8][..], 1, 8)?;
                    let statuses = loop {
                        if let Some(statuses) = Request::test_all(&mut batch)? {
                            break statuses;
                        }
                        std::thread::yield_now();
                    };
                    assert_eq!(statuses.len(), 2);
                    drop(batch); // releases the receive buffer borrow
                    assert_eq!(buf, [7, 7, 7, 7]);
                    assert!(unpacked.load(Ordering::SeqCst));
                } else {
                    let handle = world.as_comm().handle;
                    let coll_id = mpi.with_engine(|e| {
                        e.iallreduce(
                            handle,
                            &contribution,
                            mpi_native::PrimitiveKind::Int,
                            1,
                            &sum,
                        )
                    })?;
                    mpi.with_engine(|e| e.coll_wait(coll_id))?;
                    // Wait for the go signal, then post the matching send.
                    let mut go = [0u8; 1];
                    world.recv_into(&mut go, 0, 8)?;
                    world.send(&[7u8; 4][..], 0, 9)?;
                }
                mpi.finalize()
            })
            .unwrap();
    }
}
