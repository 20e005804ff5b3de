//! Simulated JNI boundary.
//!
//! In the paper, every mpiJava call crosses from the JVM into the C stub
//! library: arguments are validated and converted, the Java array backing
//! the message buffer is pinned or copied (`Get<Type>ArrayElements` /
//! `Get<Type>ArrayRegion`), the native MPI routine runs, and results are
//! copied back. The paper's evaluation attributes mpiJava's extra latency
//! to exactly this layer plus the generally slower JVM.
//!
//! This module reproduces that boundary as an explicit, measurable object:
//! the binding routes every buffer movement through [`JniBoundary`], which
//!
//! * carries array arguments across in *copy* mode (the default, matching
//!   the JDK 1.1/1.2 behaviour the paper ran on, where `Get*ArrayElements`
//!   usually copies) or in *pin* mode (the zero-copy behaviour of a
//!   pinning garbage collector),
//! * charges a configurable fixed per-call cost representing stub dispatch
//!   and argument conversion (and, when calibrating against the paper's
//!   1999 numbers, the slower JVM),
//! * counts calls and bytes so experiments can report exactly what the
//!   boundary cost.
//!
//! ## What the two modes cost
//!
//! Passes over the payload per call, the binding's and the engine's
//! together, for numeric element types (whose slice is its own byte
//! image, see [`crate::buffer`]; `bool`/`char` add one conversion pass
//! each way). A buffer the binding fills is the message: the engine
//! sends it without a copy of its own.
//!
//! | datatype | send, [`MarshalMode::Copy`] | send, [`MarshalMode::Pin`] | receive, either mode |
//! |---|---|---|---|
//! | dense (a persistent send's `Start`) | one: the block copy ([`JniBoundary::marshal_in`]) into a buffer from the engine's staging pool | one: the engine's staging copy of the user's slice | one store into the window |
//! | dense, point-to-point send (`Send`, `Isend`, `Sendrecv` and their modes) | one: the block copy, taken by the engine ([`JniBoundary::stream_in`]) — whole for an eager or a nonblocking message, one chunk at a time for a blocking rendezvous, each chunk shipped as it fills | one: the engine's staging copy of the user's slice, chunk by chunk alike | one store into the window, each chunk as it lands |
//! | holes | one gather (`pack`) | one gather | one scatter (`unpack`) into the window |
//! | dense, reduction input (`Reduce`, `Allreduce`, `Reduce_scatter`, `Scan`) | one: the block copy, which becomes the schedule's input buffer | one: the engine's copy of the lent slice into the input | one store of the result into the window |
//!
//! A reduction's input buffer is where the schedule folds: the ring
//! allreduce reduces into it in place and hands it back as the result,
//! so under `Copy` the marshalled buffer is the result buffer too.
//!
//! Taking a blocking send's block copy one chunk at a time is what lets
//! it overlap the receiver's store: the first chunk leaves while the
//! rest of the window is still on this side of the boundary.
//!
//! The modes differ in two expressions, the arms of `marshal_in` and of
//! `stream_in`; a receive never reads the window before it overwrites it.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use mpi_native::SendBuf;

/// How array arguments cross the simulated JNI boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MarshalMode {
    /// `Get*ArrayRegion`-style copy in and out (default; what the paper's
    /// JDK did).
    #[default]
    Copy,
    /// Pinning: no copies, the native layer works on the caller's memory.
    Pin,
}

/// Configuration of the simulated boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct JniConfig {
    /// Copy vs pin (see [`MarshalMode`]).
    pub marshal: MarshalMode,
    /// Fixed cost charged on every wrapper call (stub dispatch, argument
    /// conversion, JVM overhead). Zero by default; the benchmark harness
    /// sets a calibrated value for the "1999 JVM" runs.
    pub per_call_cost: Duration,
}

/// Counters describing the traffic that crossed the boundary.
#[derive(Debug, Default)]
pub struct JniStats {
    calls: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
}

/// Snapshot of [`JniStats`] (plain values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JniStatsSnapshot {
    /// Number of wrapper calls that crossed the boundary.
    pub calls: u64,
    /// Bytes marshalled from user buffers into native buffers.
    pub bytes_in: u64,
    /// Bytes marshalled from native buffers back into user buffers.
    pub bytes_out: u64,
}

/// The simulated JNI boundary (one per `MPI` environment / rank).
#[derive(Debug, Default)]
pub struct JniBoundary {
    config: JniConfig,
    stats: JniStats,
}

impl JniBoundary {
    /// Boundary with the given configuration.
    pub fn new(config: JniConfig) -> JniBoundary {
        JniBoundary {
            config,
            stats: JniStats::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> JniConfig {
        self.config
    }

    /// Account for one wrapper call and charge the per-call cost.
    pub fn enter(&self, _name: &'static str) {
        self.stats.calls.fetch_add(1, Ordering::Relaxed);
        let cost = self.config.per_call_cost;
        if !cost.is_zero() {
            let start = std::time::Instant::now();
            while start.elapsed() < cost {
                std::hint::spin_loop();
            }
        }
    }

    /// Carry the byte image of a user buffer across the boundary to the
    /// native layer: in copy mode duplicated into `native(len)`, a
    /// native-side buffer (`Get*ArrayRegion`); in pin mode the caller's
    /// own memory. An image that is already an owned conversion
    /// (`bool`, `char`) crosses as it is in either mode.
    pub fn marshal_in<'a>(
        &self,
        image: Cow<'a, [u8]>,
        native: impl FnOnce(usize) -> Vec<u8>,
    ) -> Cow<'a, [u8]> {
        self.note_pinned_in(image.len());
        match (self.config.marshal, image) {
            (MarshalMode::Copy, Cow::Borrowed(window)) => {
                let mut buf = native(window.len());
                buf.extend_from_slice(window);
                Cow::Owned(buf)
            }
            (_, image) => image,
        }
    }

    /// Carry a dense window across for a send that the engine stages
    /// itself ([`Engine::send`], [`Engine::isend`]): under `Copy` that
    /// staging is this boundary's block copy ([`SendBuf::Boundary`]),
    /// taken whole or one frame at a time; under `Pin` it is the engine's
    /// own staging copy of the lent slice ([`SendBuf::Slice`]). Either
    /// way the window counts as crossed.
    ///
    /// [`Engine::send`]: mpi_native::Engine::send
    /// [`Engine::isend`]: mpi_native::Engine::isend
    pub fn stream_in<'a>(&self, window: &'a [u8]) -> SendBuf<'a> {
        self.note_pinned_in(window.len());
        match self.config.marshal {
            MarshalMode::Copy => SendBuf::Boundary(window),
            MarshalMode::Pin => SendBuf::Slice(window),
        }
    }

    /// Account for bytes that crossed the boundary. `marshal_in` counts
    /// its own; this is for payloads that cross without a marshalling
    /// copy (a datatype gather, a serialized object stream).
    pub fn note_pinned_in(&self, len: usize) {
        self.stats.bytes_in.fetch_add(len as u64, Ordering::Relaxed);
    }

    /// Account for bytes copied back into a user buffer
    /// (`Set*ArrayRegion` / `Release*ArrayElements`).
    pub fn note_out(&self, len: usize) {
        self.stats
            .bytes_out
            .fetch_add(len as u64, Ordering::Relaxed);
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> JniStatsSnapshot {
        JniStatsSnapshot {
            calls: self.stats.calls.load(Ordering::Relaxed),
            bytes_in: self.stats.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.stats.bytes_out.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calls_and_bytes_are_counted() {
        let jni = JniBoundary::new(JniConfig::default());
        jni.enter("MPI_Send");
        jni.enter("MPI_Recv");
        let copied = jni.marshal_in(Cow::Borrowed(&[1, 2, 3, 4]), Vec::with_capacity);
        assert_eq!(copied, vec![1, 2, 3, 4]);
        jni.note_out(10);
        let s = jni.stats();
        assert_eq!(s.calls, 2);
        assert_eq!(s.bytes_in, 4);
        assert_eq!(s.bytes_out, 10);
    }

    #[test]
    fn per_call_cost_is_charged() {
        let jni = JniBoundary::new(JniConfig {
            marshal: MarshalMode::Copy,
            per_call_cost: Duration::from_micros(200),
        });
        let start = std::time::Instant::now();
        jni.enter("MPI_Send");
        assert!(start.elapsed() >= Duration::from_micros(200));
    }

    #[test]
    fn copy_duplicates_and_pin_lends() {
        let user = [1u8, 2, 3];
        let copy = JniBoundary::new(JniConfig::default());
        assert!(matches!(
            copy.marshal_in(Cow::Borrowed(&user), Vec::with_capacity),
            Cow::Owned(_)
        ));
        let pin = JniBoundary::new(JniConfig {
            marshal: MarshalMode::Pin,
            per_call_cost: Duration::ZERO,
        });
        let lent = pin.marshal_in(Cow::Borrowed(&user), |_| {
            unreachable!("pin mode copies nothing")
        });
        assert!(matches!(lent, Cow::Borrowed(_)));
        assert_eq!(lent.as_ptr(), user.as_ptr());
        // Both modes count the bytes that crossed.
        assert_eq!(copy.stats().bytes_in, 3);
        pin.note_pinned_in(128);
        assert_eq!(pin.stats().bytes_in, 131);
    }
}
