//! Frame-level traffic counters for any fabric.
//!
//! The engine's observability registry (see the `mpi-native` `trace`
//! module) wants to report transport traffic — frames and payload bytes
//! actually pushed through the device, *below* the engine's own protocol
//! accounting — without teaching every device to count. Setting
//! [`FabricConfig::frame_counters`](crate::FabricConfig::frame_counters)
//! wraps every endpoint of the fabric in a [`CountingEndpoint`], the
//! same wrapping pattern the fault injector uses. The wrapper goes
//! *outermost*, so it observes exactly what the engine observes: a frame
//! swallowed by a fault-plan drop still counts as sent (it left the
//! engine), and a killed rank's refused sends do not.
//!
//! The counters are relaxed atomics read through
//! [`Endpoint::frame_stats`]; overhead is four fetch-adds per frame.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::error::Result;
use crate::frame::Frame;
use crate::nodemap::NodeMap;
use crate::{DeviceKind, Endpoint, PeerLiveness};

/// A point-in-time read of one endpoint's frame traffic (see
/// [`Endpoint::frame_stats`]). Counts cover every frame kind — payload,
/// protocol control, RMA — because the wrapper sits below the engine's
/// protocol layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameStats {
    /// Frames this endpoint pushed into the fabric.
    pub frames_sent: u64,
    /// Frames this endpoint took out of its inbox.
    pub frames_received: u64,
    /// Payload bytes across the sent frames.
    pub bytes_sent: u64,
    /// Payload bytes across the received frames.
    pub bytes_received: u64,
}

/// An [`Endpoint`] wrapper counting frames and payload bytes. Built by
/// [`Fabric::build`](crate::Fabric::build) when the config enables frame
/// counters; delegates everything else to the wrapped device.
pub struct CountingEndpoint {
    inner: Box<dyn Endpoint>,
    frames_sent: AtomicU64,
    frames_received: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
}

impl CountingEndpoint {
    /// Wrap every endpoint of a fabric.
    pub(crate) fn wrap(endpoints: Vec<Box<dyn Endpoint>>) -> Vec<Box<dyn Endpoint>> {
        endpoints
            .into_iter()
            .map(|inner| {
                Box::new(CountingEndpoint {
                    inner,
                    frames_sent: AtomicU64::new(0),
                    frames_received: AtomicU64::new(0),
                    bytes_sent: AtomicU64::new(0),
                    bytes_received: AtomicU64::new(0),
                }) as Box<dyn Endpoint>
            })
            .collect()
    }

    fn note_received(&self, frame: &Frame) {
        self.frames_received.fetch_add(1, Ordering::Relaxed);
        self.bytes_received
            .fetch_add(frame.payload.len() as u64, Ordering::Relaxed);
    }
}

impl Endpoint for CountingEndpoint {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send(&self, frame: Frame) -> Result<()> {
        let len = frame.payload.len() as u64;
        self.inner.send(frame)?;
        // Count only frames the device accepted: a killed rank's refused
        // sends never entered the fabric.
        self.frames_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(len, Ordering::Relaxed);
        Ok(())
    }

    fn recv(&self) -> Result<Frame> {
        let frame = self.inner.recv()?;
        self.note_received(&frame);
        Ok(frame)
    }

    fn try_recv(&self) -> Result<Option<Frame>> {
        let got = self.inner.try_recv()?;
        if let Some(frame) = &got {
            self.note_received(frame);
        }
        Ok(got)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Frame>> {
        let got = self.inner.recv_timeout(timeout)?;
        if let Some(frame) = &got {
            self.note_received(frame);
        }
        Ok(got)
    }

    fn kind(&self) -> DeviceKind {
        self.inner.kind()
    }

    fn node_map(&self) -> &NodeMap {
        self.inner.node_map()
    }

    fn poll_failures(&self) -> Vec<usize> {
        self.inner.poll_failures()
    }

    fn spool_dir(&self) -> Option<&std::path::Path> {
        self.inner.spool_dir()
    }

    fn peer_liveness(&self) -> Vec<PeerLiveness> {
        self.inner.peer_liveness()
    }

    fn frame_stats(&self) -> Option<FrameStats> {
        Some(FrameStats {
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            frames_received: self.frames_received.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FrameHeader, FrameKind};
    use crate::{Fabric, FabricConfig, FaultPlan};
    use bytes::Bytes;

    fn frame(src: usize, dst: usize, payload: &[u8]) -> Frame {
        Frame::new(
            FrameHeader {
                kind: FrameKind::Eager,
                src: src as u32,
                dst: dst as u32,
                tag: 1,
                context: 0,
                token: 0,
                msg_len: payload.len() as u64,
            },
            Bytes::copy_from_slice(payload),
        )
    }

    #[test]
    fn counters_track_frames_and_bytes() {
        let config = FabricConfig {
            frame_counters: true,
            ..FabricConfig::new(2, DeviceKind::ShmFast)
        };
        let eps = Fabric::build(config).unwrap().into_endpoints();
        eps[0].send(frame(0, 1, b"hello")).unwrap();
        eps[0].send(frame(0, 1, b"world!")).unwrap();
        let _ = eps[1].recv().unwrap();
        assert!(eps[1].try_recv().unwrap().is_some());

        let s0 = eps[0].frame_stats().unwrap();
        assert_eq!(s0.frames_sent, 2);
        assert_eq!(s0.bytes_sent, 11);
        assert_eq!(s0.frames_received, 0);
        let s1 = eps[1].frame_stats().unwrap();
        assert_eq!(s1.frames_received, 2);
        assert_eq!(s1.bytes_received, 11);
    }

    #[test]
    fn plain_fabrics_report_no_frame_stats() {
        let eps = Fabric::build(FabricConfig::new(2, DeviceKind::ShmFast))
            .unwrap()
            .into_endpoints();
        assert!(eps[0].frame_stats().is_none());
    }

    #[test]
    fn counting_composes_with_fault_injection() {
        // Counting is outermost: the dropped frame still counts as sent
        // (it left the engine), the killed rank's refused send does not.
        let config = FabricConfig {
            frame_counters: true,
            faults: FaultPlan::parse("drop:0->1@1,kill:0@3").unwrap(),
            ..FabricConfig::new(2, DeviceKind::ShmFast)
        };
        let eps = Fabric::build(config).unwrap().into_endpoints();
        eps[0].send(frame(0, 1, b"dropped")).unwrap();
        eps[0].send(frame(0, 1, b"ok")).unwrap();
        assert!(eps[0].send(frame(0, 1, b"refused")).is_err());
        let s0 = eps[0].frame_stats().unwrap();
        assert_eq!(s0.frames_sent, 2);
        // Only the undropped frame is deliverable.
        assert_eq!(&eps[1].recv().unwrap().payload[..], b"ok");
        assert!(eps[1].try_recv().unwrap().is_none());
        assert_eq!(eps[1].frame_stats().unwrap().frames_received, 1);
    }
}
