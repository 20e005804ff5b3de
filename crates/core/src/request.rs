//! The `Request` and `Prequest` classes (mpiJava `Request`, `Prequest`)
//! and their RAII twins of the idiomatic surface.
//!
//! A non-blocking receive in mpiJava hands the Java array to the wrapper,
//! which fills it when the communication completes. The Rust equivalent is
//! a request that mutably borrows the receive buffer until it has been
//! waited on (or freed), so the type system enforces the rule MPI states
//! informally: do not touch a buffer while a non-blocking operation is
//! using it.
//!
//! ## One machine, four shells
//!
//! In mpiJava `Prequest` is a subclass of `Request`: one handle, one
//! completion path. Here every handle is a shell over one private pending
//! operation: the engine request it completes (one [`RequestId`], of any
//! kind), whether that request is persistent, a capture of the caller's
//! buffers — `pack` this rank's input on each start, `unpack` a
//! completion's bytes into the buffer — and whether it is active. Start,
//! poll, wait, cancel and release each have one body, one engine call,
//! and so does the completion tail: an engine completion becomes bytes
//! plus a [`Status`], and the bytes go to the capture. A failed
//! completion leaves the handle inactive — a persistent one startable
//! again. The shells differ only in policy:
//!
//! | shell | misuse | status once complete | drop while active | drop while unwinding |
//! |---|---|---|---|---|
//! | [`Request`] | `wait` after completion errors | returned once | nothing | nothing |
//! | [`Prequest`] | `start` while active, `wait` while inactive error | returned once | nothing | nothing |
//! | [`TypedRequest`] | unrepresentable: `wait` consumes | cached: `wait` after `test` returns it | waits | abandons |
//! | [`PersistentRequest`] | `start` while active errors | `wait` / `test` while inactive: empty | quiesces and releases | abandons |
//!
//! | request | start | poll / wait | cancel | release |
//! |---|---|---|---|---|
//! | any: `isend` / `irecv` family, `rs` `i*` collectives, `send_init` / `recv_init`, `rs` `*_init` collectives | `start(id, input)` | `test` / `wait` | `cancel` (a collective: unsupported) | `request_free`: withdraws a pending receive, drives anything else to completion and discards it |
//!
//! A persistent request is born inactive and each `start` passes the
//! capture's packed input straight to the engine (a send's payload, a
//! collective's contribution); a transient one is born active and cannot
//! be started.
//!
//! Abandoning withdraws what can be withdrawn without blocking — a
//! pending point-to-point receive, through `cancel` — and leaves the
//! rest to the job's teardown: driving it could block on peers that will
//! never act once this rank's abort lands.

use std::borrow::Cow;
use std::sync::Arc;

use mpi_native::request::Completion;
use mpi_native::{ErrorClass, RequestId, StatusInfo};

use crate::exception::{MPIException, MpiResult};
use crate::status::Status;
use crate::RankEnv;

/// The caller's buffers as a pending operation sees them. `pack` is this
/// rank's input for one start, re-read from the buffer each time (the C
/// idiom of reusing the buffer by address); `unpack` stores one
/// completion's bytes. Both default to nothing, so `()` captures an
/// operation without buffers (a send marshalled at call time, a barrier).
pub(crate) trait Capture: Send {
    fn pack(&mut self) -> MpiResult<Cow<'_, [u8]>> {
        Ok(Cow::Borrowed(&[]))
    }

    fn unpack(&mut self, _bytes: &[u8]) -> MpiResult<()> {
        Ok(())
    }
}

impl Capture for () {}

/// The one pending-operation type every handle is a view of.
pub(crate) struct Pending<'buf> {
    env: Arc<RankEnv>,
    id: RequestId,
    persistent: bool,
    capture: Box<dyn Capture + 'buf>,
    active: bool,
}

impl std::fmt::Debug for Pending<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pending")
            .field("id", &self.id)
            .field("persistent", &self.persistent)
            .field("active", &self.active)
            .finish()
    }
}

impl<'buf> Pending<'buf> {
    /// A transient operation, born active. The persistent shells turn it
    /// into a persistent one (see [`Pending::persistent`]).
    pub(crate) fn new(
        env: &Arc<RankEnv>,
        id: RequestId,
        capture: impl Capture + 'buf,
    ) -> Pending<'buf> {
        Pending {
            env: Arc::clone(env),
            id,
            persistent: false,
            capture: Box::new(capture),
            active: true,
        }
    }

    /// The same operation as a persistent one: inactive until its first
    /// start.
    fn persistent(self) -> Pending<'buf> {
        Pending {
            persistent: true,
            active: false,
            ..self
        }
    }

    /// Count one boundary crossing.
    fn enter(&mut self, name: &'static str) -> &mut Self {
        self.env.jni.enter(name);
        self
    }

    /// (Re)activate a persistent operation with the capture's current
    /// input.
    fn start(&mut self) -> MpiResult<()> {
        let input = self.capture.pack()?;
        self.env.engine.lock().start(self.id, input)?;
        self.active = true;
        Ok(())
    }

    /// Engine-side completion check without a boundary crossing: the
    /// building block of `test` and of the batches. `None` while in
    /// flight, and for an inactive operation.
    fn poll(&mut self) -> MpiResult<Option<Status>> {
        if !self.active {
            return Ok(None);
        }
        let done = self.env.engine.lock().test(self.id);
        done.transpose().map(|done| self.complete(done)).transpose()
    }

    /// Block until the active operation completes.
    fn wait(&mut self) -> MpiResult<Status> {
        let done = self.env.engine.lock().wait(self.id);
        self.complete(done)
    }

    /// The one completion tail: inactive from here on, failed or not, and
    /// the completion's bytes (if any) go to the capture.
    fn complete(&mut self, done: mpi_native::Result<Completion>) -> MpiResult<Status> {
        self.active = false;
        let done = done?;
        if let Some(data) = &done.data {
            self.capture.unpack(data)?;
        }
        Ok(Status::from_info(done.status))
    }

    fn cancel(&mut self) -> MpiResult<()> {
        Ok(self.env.engine.lock().cancel(self.id)?)
    }

    /// Release the engine request (the table in the module docs).
    fn release(&mut self) -> MpiResult<()> {
        self.active = false;
        Ok(self.env.engine.lock().request_free(self.id)?)
    }

    /// Let go without blocking — the panic-unwind path.
    fn abandon(&mut self) {
        if self.active && !self.persistent {
            let mut engine = self.env.engine.lock();
            if engine.cancel(self.id).is_ok() {
                let _ = engine.request_free(self.id);
            }
        }
        self.active = false;
    }
}

fn empty() -> Status {
    Status::from_info(StatusInfo::empty())
}

fn misuse(message: &str) -> MPIException {
    MPIException::new(ErrorClass::Request, message)
}

impl<'buf> From<Pending<'buf>> for Request<'buf> {
    fn from(op: Pending<'buf>) -> Self {
        Request { op }
    }
}

impl<'buf> From<Pending<'buf>> for TypedRequest<'buf> {
    fn from(op: Pending<'buf>) -> Self {
        TypedRequest { op, status: None }
    }
}

impl<'buf> From<Pending<'buf>> for Prequest<'buf> {
    fn from(op: Pending<'buf>) -> Self {
        Prequest {
            op: op.persistent(),
        }
    }
}

impl<'buf> From<Pending<'buf>> for PersistentRequest<'buf> {
    fn from(op: Pending<'buf>) -> Self {
        PersistentRequest {
            op: op.persistent(),
            freed: false,
        }
    }
}

/// Handle to an outstanding non-blocking operation.
#[derive(Debug)]
pub struct Request<'buf> {
    pub(crate) op: Pending<'buf>,
}

impl<'buf> Request<'buf> {
    /// Engine-level id (exposed for diagnostics). Every request has one
    /// — point-to-point and collective requests share the engine's one
    /// request table — so this is always `Some`.
    pub fn id(&self) -> Option<RequestId> {
        Some(self.op.id)
    }

    /// True once the request has been waited on / tested to completion.
    pub fn is_void(&self) -> bool {
        !self.op.active
    }

    /// `Request.Wait()`: block until complete, fill the receive buffer and
    /// return the `Status`.
    pub fn wait(&mut self) -> MpiResult<Status> {
        if !self.op.active {
            return Err(misuse("request has already completed"));
        }
        self.op.enter("Request.Wait").wait()
    }

    /// `Request.Test()`: `Some(status)` if complete, `None` otherwise (the
    /// paper's null-for-failure convention, §2.1).
    pub fn test(&mut self) -> MpiResult<Option<Status>> {
        if !self.op.active {
            return Ok(None);
        }
        self.op.enter("Request.Test").poll()
    }

    /// `Request.Cancel()`. Nonblocking collectives cannot be cancelled
    /// (the standard's rule — every rank participates).
    pub fn cancel(&mut self) -> MpiResult<()> {
        self.op.enter("Request.Cancel").cancel()
    }

    /// `Request.Free()`: release the request without inspecting its
    /// completion. A pending point-to-point receive is withdrawn from
    /// the engine; a collective request cannot be withdrawn (every rank
    /// participates), so it is driven to completion and its outcome
    /// discarded — the handle quiesces either way.
    pub fn free(mut self) -> MpiResult<()> {
        self.op.enter("Request.Free").release()
    }

    /// `Request.Waitall(requests)`: complete every request, returning the
    /// statuses in order.
    pub fn wait_all(requests: &mut [Request<'buf>]) -> MpiResult<Vec<Status>> {
        requests.iter_mut().map(Request::wait).collect()
    }

    /// `Request.Waitany(requests)`: wait for one to complete; its index is
    /// recorded in the returned status (`status.index()`), mirroring the
    /// extra field the paper adds to `Status`. The batch may mix
    /// point-to-point and collective requests: each member is polled
    /// (every poll drives the engine's progress, collectives included),
    /// then the rank parks on the transport until the next frame.
    pub fn wait_any(requests: &mut [Request<'buf>]) -> MpiResult<Status> {
        let Some(first) = requests.first() else {
            return Err(misuse("Waitany on empty array"));
        };
        let env = Arc::clone(&first.op.env);
        env.jni.enter("Request.Waitany");
        loop {
            let mut any_pending = false;
            for (slot, request) in requests.iter_mut().enumerate() {
                any_pending |= request.op.active;
                if let Some(status) = request.op.poll()? {
                    return Ok(status.with_index(slot));
                }
            }
            if !any_pending {
                return Err(misuse("Waitany: every request has already completed"));
            }
            env.engine.lock().progress_wait()?;
        }
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
        let Some(first) = requests.first() else {
            return Ok(Some(Vec::new()));
        };
        let env = Arc::clone(&first.op.env);
        env.jni.enter("Request.Testall");
        {
            // Drive progress once, then check completion without
            // consuming anything.
            let mut engine = env.engine.lock();
            engine.progress_poll()?;
            for request in requests.iter().filter(|r| r.op.active) {
                if !engine.is_complete(request.op.id)? {
                    return Ok(None);
                }
            }
        }
        // Members consumed before this call report an empty status.
        let statuses = requests
            .iter_mut()
            .map(|r| Ok(r.op.poll()?.unwrap_or_else(empty)))
            .collect::<MpiResult<_>>()?;
        Ok(Some(statuses))
    }
}

/// RAII handle to a non-blocking operation of the idiomatic API
/// ([`crate::rs`]).
///
/// The same pending operation as a [`Request`], with ownership-driven
/// completion semantics:
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
#[derive(Debug)]
pub struct TypedRequest<'buf> {
    op: Pending<'buf>,
    /// Status cached when `test()` observes completion, so a later
    /// `wait()` can return it instead of erroring.
    status: Option<Status>,
}

impl<'buf> TypedRequest<'buf> {
    /// Engine-level id (exposed for diagnostics); always `Some`, as for
    /// [`Request::id`].
    pub fn id(&self) -> Option<RequestId> {
        Some(self.op.id)
    }

    /// Block until the operation completes, fill the receive buffer, and
    /// return the [`Status`]. Consumes the handle. If the operation
    /// already completed through [`test`](TypedRequest::test), returns
    /// the status that test observed.
    pub fn wait(mut self) -> MpiResult<Status> {
        if !self.op.active {
            return Ok(self.status.take().unwrap_or_else(empty));
        }
        self.op.enter("Request.Wait").wait()
    }

    /// `Some(status)` if the operation has completed (filling the receive
    /// buffer), `None` if it is still in flight. Once completion has been
    /// observed, further calls keep returning the same status.
    pub fn test(&mut self) -> MpiResult<Option<Status>> {
        if self.op.active {
            self.status = self.op.enter("Request.Test").poll()?;
        }
        Ok(self.status.clone())
    }

    /// True once the request has completed via [`test`](TypedRequest::test).
    pub fn is_complete(&self) -> bool {
        !self.op.active
    }

    /// `Request.Cancel()`: ask the engine to cancel the pending
    /// operation. The handle must still be completed (waited on, freed,
    /// or dropped); the resulting status reports the cancellation.
    /// Cancelling an operation that already completed is a no-op.
    pub fn cancel(&mut self) -> MpiResult<()> {
        if !self.op.active {
            return Ok(());
        }
        self.op.enter("Request.Cancel").cancel()
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
        if !self.op.active {
            return Ok(());
        }
        self.op.enter("Request.Free").release()
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
        if !self.op.active {
            return;
        }
        if std::thread::panicking() {
            // Unwinding: blocking here could hang the rank on an
            // operation whose peer may never act (and mask the panic
            // message); no user code observes the buffer after a panic.
            self.op.abandon();
        } else {
            // Completion on drop: the buffer borrow ends here. Errors are
            // swallowed; use `wait()` to observe them, or `free()` to
            // abandon a receive that may never match.
            let _ = self.op.enter("Request.Wait").wait();
        }
    }
}

/// A persistent request created by `Send_init` / `Recv_init`.
#[derive(Debug)]
pub struct Prequest<'buf> {
    pub(crate) op: Pending<'buf>,
}

impl<'buf> Prequest<'buf> {
    /// `Prequest.Start()`: (re)activate the persistent communication.
    /// For a persistent send the current contents of the user buffer are
    /// re-marshalled, matching the C semantics of reusing the buffer by
    /// address.
    pub fn start(&mut self) -> MpiResult<()> {
        if self.op.active {
            return Err(misuse("persistent request is already active"));
        }
        self.op.enter("Prequest.Start").start()
    }

    /// `Prequest.Startall(requests)`.
    pub fn start_all(requests: &mut [Prequest<'buf>]) -> MpiResult<()> {
        requests.iter_mut().try_for_each(Prequest::start)
    }

    /// `Request.Wait()` on the persistent request: completes the active
    /// communication and returns the request to the inactive state.
    pub fn wait(&mut self) -> MpiResult<Status> {
        if !self.op.active {
            return Err(misuse("persistent request is not active"));
        }
        self.op.enter("Prequest.Wait").wait()
    }

    /// `Request.Free()` on the persistent request (an active iteration
    /// is driven to completion and discarded first).
    pub fn free(mut self) -> MpiResult<()> {
        self.op.enter("Prequest.Free").release()
    }

    /// True while a started communication has not yet been waited on.
    pub fn is_active(&self) -> bool {
        self.op.active
    }
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
#[derive(Debug)]
pub struct PersistentRequest<'buf> {
    op: Pending<'buf>,
    freed: bool,
}

impl<'buf> PersistentRequest<'buf> {
    /// `MPI_Start`: launch one iteration. The captured send buffer is
    /// re-marshalled at this moment. Errors if the previous iteration
    /// has not been completed yet (collective starts are ordered like
    /// any collective: every rank must start in the same order).
    pub fn start(&mut self) -> MpiResult<()> {
        if self.op.active {
            return Err(misuse(
                "persistent request is already active; wait on it first",
            ));
        }
        self.op.enter("Prequest.Start").start()
    }

    /// `MPI_Startall` over a batch (the batch may mix point-to-point
    /// and collective persistent handles).
    pub fn start_all(requests: &mut [PersistentRequest<'buf>]) -> MpiResult<()> {
        requests.iter_mut().try_for_each(PersistentRequest::start)
    }

    /// `MPI_Wait`: complete the current iteration, fill the captured
    /// receive buffer, and return the handle to the startable state. On
    /// an inactive handle this returns an empty status immediately (the
    /// standard's semantics for waiting on an inactive persistent
    /// request).
    pub fn wait(&mut self) -> MpiResult<Status> {
        self.op.env.jni.enter("Prequest.Wait");
        if !self.op.active {
            return Ok(empty());
        }
        self.op.wait()
    }

    /// `MPI_Test`: `Some(status)` if the current iteration completed
    /// (filling the captured receive buffer), `None` while it is still
    /// in flight. An inactive handle reports `Some` immediately.
    pub fn test(&mut self) -> MpiResult<Option<Status>> {
        self.op.env.jni.enter("Prequest.Test");
        if !self.op.active {
            return Ok(Some(empty()));
        }
        self.op.poll()
    }

    /// True while a started iteration has not been completed yet.
    pub fn is_active(&self) -> bool {
        self.op.active
    }

    /// `MPI_Request_free`: release the persistent operation, observing
    /// errors. An in-flight iteration is quiesced first (driven to
    /// completion and discarded) — same policy as the drop, which
    /// swallows the result.
    pub fn free(mut self) -> MpiResult<()> {
        self.freed = true;
        self.op.enter("Prequest.Free").release()
    }
}

impl Drop for PersistentRequest<'_> {
    fn drop(&mut self) {
        if self.freed {
            return;
        }
        if std::thread::panicking() {
            // Quiescing could hang on peers that will never act once this
            // rank's abort lands; finalize will not run after a panic, so
            // its active-persistent check cannot misfire.
            self.op.abandon();
        } else {
            let _ = self.op.release();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jni::MarshalMode;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// A capture that only records that it was asked to store bytes.
    struct Probe(Arc<AtomicBool>);

    impl Capture for Probe {
        fn unpack(&mut self, _bytes: &[u8]) -> MpiResult<()> {
            self.0.store(true, Ordering::SeqCst);
            Ok(())
        }
    }

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
                    let coll_req =
                        Request::from(Pending::new(&env, coll_id, Probe(Arc::clone(&unpacked))));
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
                        if mpi.with_engine(|e| e.is_complete(coll_id))? {
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
                    mpi.with_engine(|e| e.wait(coll_id))?;
                    // Wait for the go signal, then post the matching send.
                    let mut go = [0u8; 1];
                    world.recv_into(&mut go, 0, 8)?;
                    world.send(&[7u8; 4][..], 0, 9)?;
                }
                mpi.finalize()
            })
            .unwrap();
    }

    /// The handle an exchange runs through (the engine request follows
    /// from it and from whether the exchange is a collective).
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Shell {
        Request,
        Typed,
        Prequest,
        Persistent,
    }

    /// Stores a completion's bytes into an `i32` slice.
    struct Store<'a>(&'a mut [i32]);

    impl Capture for Store<'_> {
        fn unpack(&mut self, bytes: &[u8]) -> MpiResult<()> {
            crate::buffer::store_bytes(bytes, self.0);
            Ok(())
        }
    }

    const PAYLOAD: [i32; 4] = [3, 1, 4, 1];

    /// Move `PAYLOAD` from rank 0 to rank 1 — a tag-7 message, or a
    /// broadcast from root 0 — through one handle, start to release.
    /// Per rank: the buffer afterwards, the status, the boundary
    /// crossings taken.
    fn exchange(coll: bool, shell: Shell, mode: MarshalMode) -> Vec<(Vec<i32>, Status, u64)> {
        use crate::rs::Communicator as _;
        let jni = crate::JniConfig {
            marshal: mode,
            ..Default::default()
        };
        crate::MpiRuntime::new(2)
            .jni(jni)
            .run(|mpi| {
                let world = mpi.comm_world();
                let comm = world.as_comm();
                let rank = world.rank()?;
                let int = crate::Datatype::int();
                let mut buf = if rank == 0 { PAYLOAD } else { [0; 4] };
                let before = mpi.jni_stats().calls;
                let status = match (coll, shell, rank) {
                    (false, Shell::Request, 0) => {
                        Request::wait_any(&mut [comm.isend(&buf, 0, 4, &int, 1, 7)?])?
                    }
                    (false, Shell::Request, _) => {
                        Request::wait_any(&mut [comm.irecv(&mut buf, 0, 4, &int, 0, 7)?])?
                    }
                    (false, Shell::Typed, 0) => world.isend(&buf, 1, 7)?.wait()?,
                    (false, Shell::Typed, _) => world.irecv_into(&mut buf, 0, 7)?.wait()?,
                    (false, Shell::Prequest, _) => {
                        let mut request = if rank == 0 {
                            comm.send_init(&buf, 0, 4, &int, 1, 7)?
                        } else {
                            comm.recv_init(&mut buf, 0, 4, &int, 0, 7)?
                        };
                        request.start()?;
                        let status = request.wait()?;
                        request.free()?;
                        status
                    }
                    (false, Shell::Persistent, _) => {
                        let mut request = if rank == 0 {
                            world.send_init(&buf, 1, 7)?
                        } else {
                            world.recv_init(&mut buf, 0, 7)?
                        };
                        request.start()?;
                        let status = request.wait()?;
                        request.free()?;
                        status
                    }
                    (true, Shell::Request, _) => {
                        let request: Request = crate::rs::launch(
                            comm,
                            "Intracomm.Ibcast",
                            Store(&mut buf),
                            |e, c| {
                                let root = crate::buffer::bytes_of(c.0).into_owned();
                                let root = if rank == 0 { root } else { Vec::new() };
                                e.ibcast(comm.handle, 0, root)
                            },
                        )?;
                        Request::wait_any(&mut [request])?
                    }
                    (true, Shell::Typed, _) => world.ibroadcast(&mut buf, 0)?.wait()?,
                    (true, Shell::Persistent, _) => {
                        let mut request = world.broadcast_init(&mut buf, 0)?;
                        request.start()?;
                        let status = request.wait()?;
                        request.free()?;
                        status
                    }
                    (true, Shell::Prequest, _) => unreachable!("no classic persistent collective"),
                };
                let calls = mpi.jni_stats().calls - before;
                mpi.finalize()?;
                Ok((buf.to_vec(), status, calls))
            })
            .unwrap()
    }

    /// Satellite test of the one machine: the same exchange through a
    /// transient p2p, a transient collective, a persistent p2p and a
    /// persistent collective handle, each through its classic and its
    /// RAII shell, under both marshal modes, delivers the same bytes and
    /// the same `Status` (count, source, tag, `wait_any`'s index) for
    /// the same boundary crossings.
    #[test]
    fn four_shells_run_one_machine() {
        use Shell::*;
        let mut outcomes = Vec::new();
        for (coll, persistent, shells) in [
            (false, false, &[Request, Typed][..]),
            (true, false, &[Request, Typed][..]),
            (false, true, &[Prequest, Persistent][..]),
            (true, true, &[Persistent][..]),
        ] {
            let runs: Vec<_> = shells
                .iter()
                .flat_map(|&shell| [MarshalMode::Copy, MarshalMode::Pin].map(|mode| (shell, mode)))
                .map(|(shell, mode)| (shell, mode, exchange(coll, shell, mode)))
                .collect();
            let (_, _, first) = &runs[0];
            for (shell, mode, ranks) in &runs {
                assert_eq!(
                    ranks, first,
                    "{shell:?} under {mode:?} (collective: {coll})"
                );
            }
            for (bytes, status, calls) in first {
                assert_eq!(bytes[..], PAYLOAD);
                assert_eq!(*calls, if persistent { 4 } else { 2 });
                assert_eq!(status.index(), 0);
            }
            let received = &first[1].1;
            assert_eq!(received.count_bytes(), 16);
            if !coll {
                assert_eq!((received.source(), received.tag()), (0, 7));
            }
            outcomes.push(
                first
                    .iter()
                    .map(|(b, s, _)| (b.clone(), s.clone()))
                    .collect::<Vec<_>>(),
            );
        }
        // A persistent handle completes exactly like its transient twin.
        assert_eq!(outcomes[0], outcomes[2], "point-to-point");
        assert_eq!(outcomes[1], outcomes[3], "collective");
    }

    /// `send_init`'s capture lends the caller's slice under `Pin` and
    /// copies it under `Copy` (`Get*ArrayRegion`) on every start.
    #[test]
    fn send_init_packs_by_reference_under_pin_and_by_copy_under_copy() {
        for mode in [MarshalMode::Copy, MarshalMode::Pin] {
            let jni = crate::JniConfig {
                marshal: mode,
                ..Default::default()
            };
            crate::MpiRuntime::new(1)
                .jni(jni)
                .run(|mpi| {
                    let buf = [1i32, 2, 3];
                    let int = crate::Datatype::int();
                    let mut request = mpi.comm_world().send_init(&buf, 0, 3, &int, 0, 5)?;
                    let input = request.op.capture.pack()?;
                    assert_eq!(*input, *crate::buffer::bytes_of(&buf));
                    match (mode, input) {
                        (MarshalMode::Pin, Cow::Borrowed(lent)) => {
                            assert_eq!(lent.as_ptr(), buf.as_ptr().cast())
                        }
                        (MarshalMode::Copy, Cow::Owned(_)) => {}
                        (mode, input) => panic!("{mode:?} packed {input:?}"),
                    }
                    request.free()
                })
                .unwrap();
        }
    }

    /// Satellite bugfix, end to end: a persistent receive whose iteration
    /// fails (truncation) is inactive afterwards on both shells, restarts,
    /// delivers the next message, and `finalize` succeeds.
    #[test]
    fn a_truncated_persistent_receive_restarts_on_both_shells() {
        crate::MpiRuntime::new(2)
            .run(|mpi| {
                use crate::rs::Communicator as _;
                let world = mpi.comm_world();
                if world.rank()? == 0 {
                    for tag in 0..2 {
                        world.send(&[9i32, 9], 1, tag)?;
                        world.send(&[tag + 5], 1, tag)?;
                    }
                } else {
                    let mut buf = [0i32];
                    let int = crate::Datatype::int();
                    let mut classic = world.as_comm().recv_init(&mut buf, 0, 1, &int, 0, 0)?;
                    classic.start()?;
                    assert_eq!(classic.wait().unwrap_err().class, ErrorClass::Truncate);
                    assert!(!classic.is_active());
                    classic.start()?;
                    assert_eq!(classic.wait()?.count_bytes(), 4);
                    classic.free()?;
                    assert_eq!(buf, [5]);

                    let mut idiomatic = world.recv_init(&mut buf, 0, 1)?;
                    idiomatic.start()?;
                    assert_eq!(idiomatic.wait().unwrap_err().class, ErrorClass::Truncate);
                    assert!(!idiomatic.is_active());
                    idiomatic.start()?;
                    assert_eq!(idiomatic.wait()?.count_bytes(), 4);
                    drop(idiomatic);
                    assert_eq!(buf, [6]);
                }
                mpi.finalize()
            })
            .unwrap();
    }
}
