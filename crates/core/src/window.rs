//! One-sided communication windows for the idiomatic API
//! ([`crate::rs`]): typed RAII over the engine's RMA subsystem
//! (`mpi_native::rma`).
//!
//! A [`Window`] exposes a typed slice for one-sided access by the other
//! ranks of a communicator. The slice stays mutably borrowed by the
//! window for its whole lifetime — the window memory rule MPI states
//! informally ("do not touch exposed memory while an access epoch is
//! open") becomes a compile-time rule: the *only* way to read or write
//! the exposed data is through [`local`](Window::local) /
//! [`local_mut`](Window::local_mut), which resynchronize the typed
//! slice with the engine's byte region on access.
//!
//! ## Epoch model
//!
//! The engine implements *applied-at-sync* semantics (the IBM-style
//! memory model): `put` / `accumulate` / `get` calls return immediately
//! and their effects become visible only at the next synchronization —
//! [`fence`](Window::fence) for active-target epochs,
//! [`flush`](Window::flush) / [`unlock`](Window::unlock) for
//! passive-target (lock-based) epochs. A [`get`](Window::get) returns a
//! [`GetToken`] whose value may only be taken after the covering sync.
//!
//! Dropping a pending window mirrors [`TypedRequest`] drop semantics:
//! the drop quiesces the window by driving `win_free` (collective — the
//! peers' symmetric drops complete it) and swallows errors; during a
//! panic-unwind the window is abandoned so teardown cannot hang. Call
//! [`free`](Window::free) to observe errors and the final contents.
//!
//! [`TypedRequest`]: crate::request::TypedRequest
//!
//! ```
//! use mpijava::rs::Communicator as _;
//! use mpijava::MpiRuntime;
//!
//! MpiRuntime::new(2).run(|mpi| {
//!     let world = mpi.comm_world();
//!     let rank = world.rank()?;
//!     let mut exposed = vec![0i32; 4];
//!     let mut win = world.win_create(&mut exposed)?;
//!     win.fence()?; // open the first epoch
//!     if rank == 0 {
//!         win.put(1, 0, &[7i32, 8, 9, 10])?;
//!     }
//!     win.fence()?; // put is applied at the target here
//!     if rank == 1 {
//!         assert_eq!(win.local()?, &[7, 8, 9, 10]);
//!     }
//!     win.free()?;
//!     mpi.finalize()
//! }).unwrap();
//! ```

use std::marker::PhantomData;
use std::sync::Arc;

use mpi_native::{ErrorClass, RequestId, WinHandle};

use crate::buffer::{bytes_of, store_bytes, BufferElement};
use crate::exception::{MPIException, MpiResult};
use crate::op::Op;
use crate::RankEnv;

/// Handle to an outstanding one-sided [`get`](Window::get): privately,
/// the engine request of the get's reply, an entry of the one request
/// table every pending operation lives in. The value becomes takeable
/// only after a synchronization that covers the get
/// ([`fence`](Window::fence), or [`flush`](Window::flush) /
/// [`unlock`](Window::unlock) of the target) — enforced by the engine,
/// which refuses un-synced takes. A token dropped untaken is released
/// when its window is freed. A get outside the target's window fails
/// the covering synchronization, and taking it, with `Buffer`.
#[derive(Debug)]
pub struct GetToken<T: BufferElement> {
    id: RequestId,
    count: usize,
    _elem: PhantomData<T>,
}

/// A typed one-sided communication window (`MPI_Win`), lifetime-bound
/// to the exposed slice. See the [module docs](self) for the epoch
/// model and memory rules.
pub struct Window<'buf, T: BufferElement> {
    env: Arc<RankEnv>,
    handle: WinHandle,
    local: &'buf mut [T],
    freed: bool,
}

impl<T: BufferElement> std::fmt::Debug for Window<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Window")
            .field("len", &self.local.len())
            .field("freed", &self.freed)
            .finish()
    }
}

impl<'buf, T: BufferElement> Window<'buf, T> {
    pub(crate) fn create(
        env: Arc<RankEnv>,
        comm: mpi_native::comm::CommHandle,
        local: &'buf mut [T],
    ) -> MpiResult<Window<'buf, T>> {
        env.jni.enter("Win.Create");
        let region = bytes_of(local).into_owned();
        let handle = env.engine.lock().win_create(comm, region)?;
        Ok(Window {
            env,
            handle,
            local,
            freed: false,
        })
    }

    /// Number of exposed elements.
    pub fn len(&self) -> usize {
        self.local.len()
    }

    /// True when the window exposes no elements.
    pub fn is_empty(&self) -> bool {
        self.local.is_empty()
    }

    /// Pull peer updates out of the engine's byte region into the typed
    /// slice, if any were applied since the last look.
    fn refresh(&mut self) -> MpiResult<()> {
        let mut engine = self.env.engine.lock();
        if engine.win_take_dirty(self.handle)? {
            store_bytes(engine.win_region(self.handle)?, self.local);
        }
        Ok(())
    }

    /// Push the typed slice into the engine's byte region (after local
    /// stores through [`local_mut`](Window::local_mut)).
    fn publish(&mut self) -> MpiResult<()> {
        let region = bytes_of(self.local);
        let mut engine = self.env.engine.lock();
        engine.win_region_mut(self.handle)?.copy_from_slice(&region);
        Ok(())
    }

    /// Read the exposed data. Reflects peer updates up to the last
    /// completed synchronization (valid between epochs, per the window
    /// memory rules).
    pub fn local(&mut self) -> MpiResult<&[T]> {
        self.refresh()?;
        Ok(self.local)
    }

    /// Local load/store access to the exposed data. Stores are
    /// published to the engine's region when the borrow ends — which is
    /// why this takes the window by `&mut` and the change becomes
    /// visible to peers at their next synchronized access.
    pub fn local_mut(&mut self) -> MpiResult<LocalGuard<'_, 'buf, T>> {
        self.refresh()?;
        Ok(LocalGuard { window: self })
    }

    /// `MPI_Put` of a typed slice into `target`'s exposed data at
    /// element offset `offset`. Applied at the target's next covering
    /// synchronization. The engine stages the bytes once, behind the
    /// operation's header, and ships the two as one message, as it does
    /// for [`accumulate`](Window::accumulate).
    pub fn put(&self, target: usize, offset: usize, data: &[T]) -> MpiResult<()> {
        self.env.jni.enter("Win.Put");
        let payload = bytes_of(data);
        let mut engine = self.env.engine.lock();
        engine.win_put(self.handle, target, offset * T::width(), &payload)?;
        Ok(())
    }

    /// `MPI_Accumulate`: element-wise fold of `data` into `target`'s
    /// exposed data at element offset `offset`, using a predefined
    /// reduction. Concurrent accumulates from different origins within
    /// one epoch are applied in origin-rank order (deterministic).
    pub fn accumulate(
        &self,
        target: usize,
        offset: usize,
        data: &[T],
        op: impl std::borrow::Borrow<Op>,
    ) -> MpiResult<()> {
        self.env.jni.enter("Win.Accumulate");
        let op = op.borrow();
        let mpi_native::Op::Predefined(predefined) = *op.engine_op() else {
            return Err(MPIException::new(
                ErrorClass::Unsupported,
                "accumulate requires a predefined reduction (the op code travels on the wire)",
            ));
        };
        let payload = bytes_of(data);
        let mut engine = self.env.engine.lock();
        engine.win_accumulate(
            self.handle,
            target,
            offset * T::width(),
            &payload,
            T::KIND,
            predefined,
        )?;
        Ok(())
    }

    /// `MPI_Get`: request `count` elements at element offset `offset`
    /// of `target`'s exposed data. The returned token resolves at the
    /// next covering synchronization; redeem it with
    /// [`take`](Window::take).
    pub fn get(&self, target: usize, offset: usize, count: usize) -> MpiResult<GetToken<T>> {
        self.env.jni.enter("Win.Get");
        let mut engine = self.env.engine.lock();
        let id = engine.win_get(self.handle, target, offset * T::width(), count * T::width())?;
        Ok(GetToken {
            id,
            count,
            _elem: PhantomData,
        })
    }

    /// Redeem a synced [`GetToken`]: returns the fetched elements.
    /// Errors if no synchronization has covered the get yet.
    pub fn take(&self, token: GetToken<T>) -> MpiResult<Vec<T>> {
        self.env.jni.enter("Win.Get[take]");
        let data = self.env.engine.lock().win_get_take(self.handle, token.id)?;
        let mut out = vec![T::default(); token.count];
        store_bytes(&data, &mut out);
        self.env.hand_back(data);
        Ok(out)
    }

    /// `MPI_Win_fence` (collective): close the current active-target
    /// epoch. On return every operation this rank issued is applied at
    /// its target, every peer's operations are applied here, and all
    /// outstanding [`GetToken`]s are redeemable.
    pub fn fence(&mut self) -> MpiResult<()> {
        self.env.jni.enter("Win.Fence");
        self.env.engine.lock().win_fence(self.handle)?;
        Ok(())
    }

    /// `MPI_Win_lock` (exclusive): open a passive-target epoch on
    /// `target`. Blocks until the target's progress engine grants the
    /// lock; the target itself does not call anything.
    pub fn lock(&self, target: usize) -> MpiResult<()> {
        self.env.jni.enter("Win.Lock");
        self.env.engine.lock().win_lock(self.handle, target)?;
        Ok(())
    }

    /// `MPI_Win_flush`: apply every operation issued to `target` in the
    /// open passive epoch (gets become redeemable) without releasing
    /// the lock.
    pub fn flush(&mut self, target: usize) -> MpiResult<()> {
        self.env.jni.enter("Win.Flush");
        self.env.engine.lock().win_flush(self.handle, target)?;
        Ok(())
    }

    /// `MPI_Win_unlock`: flush and close the passive-target epoch on
    /// `target`.
    pub fn unlock(&mut self, target: usize) -> MpiResult<()> {
        self.env.jni.enter("Win.Unlock");
        self.env.engine.lock().win_unlock(self.handle, target)?;
        Ok(())
    }

    /// `MPI_Win_free` (collective): tear the window down, leaving the
    /// exposed slice holding the final synchronized contents. Errors if
    /// an epoch is still un-synced — sync first.
    pub fn free(mut self) -> MpiResult<()> {
        self.env.jni.enter("Win.Free");
        let region = {
            let mut engine = self.env.engine.lock();
            engine.win_free(self.handle)?
        };
        store_bytes(&region, self.local);
        self.freed = true;
        Ok(())
    }
}

impl<T: BufferElement> Drop for Window<'_, T> {
    fn drop(&mut self) {
        if self.freed {
            return;
        }
        if std::thread::panicking() {
            // Unwinding: win_free is collective and could hang on peers
            // that will never act once this rank's abort lands. Abandon
            // the engine-side window; finalize will not run after a
            // panic, so its open-window check cannot misfire.
            return;
        }
        // Quiesce on drop, mirroring TypedRequest: the peers' symmetric
        // drops complete the collective free. Errors are swallowed
        // (drop cannot propagate them); use `free()` to observe them.
        let result = self.env.engine.lock().win_free(self.handle);
        if let Ok(region) = result {
            store_bytes(&region, self.local);
        }
    }
}

/// Mutable view of a window's local data
/// ([`Window::local_mut`]); publishes the stores to the engine's
/// exposed region when dropped.
pub struct LocalGuard<'win, 'buf, T: BufferElement> {
    window: &'win mut Window<'buf, T>,
}

impl<T: BufferElement> std::ops::Deref for LocalGuard<'_, '_, T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.window.local
    }
}

impl<T: BufferElement> std::ops::DerefMut for LocalGuard<'_, '_, T> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.window.local
    }
}

impl<T: BufferElement> Drop for LocalGuard<'_, '_, T> {
    fn drop(&mut self) {
        // Publish local stores; errors surface at the next engine call.
        let _ = self.window.publish();
    }
}
