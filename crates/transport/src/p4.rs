//! Staged "portable" device modelling MPICH's ch_p4 path.
//!
//! The paper's Solaris numbers come from MPICH layered over the p4
//! portable communication library: messages pass through an extra staging
//! queue and an extra copy compared with the tuned WMPI shared-memory path,
//! and the constant per-message cost is correspondingly higher (Table 1:
//! 148.7 µs vs 67.2 µs for a 1-byte message in SM mode).
//!
//! This device reproduces that *structure*: a send enqueues the frame into a
//! per-destination staging queue; the receiving endpoint's progress step
//! moves it into its real inbox, copying the payload once more (as p4 copies
//! from the device buffer into the MPI receive queue). The result is the
//! same ordering guarantees as [`crate::shm::ShmDevice`] with a genuinely
//! higher per-message cost, which is exactly the contrast the paper's
//! WMPI-vs-MPICH columns show.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;

use crate::error::{check_rank, Result};
use crate::frame::Frame;
use crate::mailbox::Mailbox;
use crate::nodemap::NodeMap;
use crate::{
    DeviceKind, DeviceProfile, Endpoint, FabricConfig, NetworkModel, SharedMailbox, INBOX_CAPACITY,
};

/// One rank's endpoint on the staged p4-style device.
pub struct P4Endpoint {
    rank: usize,
    size: usize,
    /// Final per-rank inboxes (stage 2).
    inboxes: Arc<Vec<SharedMailbox>>,
    /// Per-rank staging queues (stage 1) that sends target.
    staging: Arc<Vec<SharedMailbox>>,
    profile: DeviceProfile,
    network: NetworkModel,
    nodes: Arc<NodeMap>,
}

/// Namespace struct for building p4-style fabrics.
pub struct P4Device;

impl P4Device {
    /// Build `config.size` endpoints.
    pub fn build(config: &FabricConfig) -> Result<Vec<P4Endpoint>> {
        let make = |_| Arc::new(Mailbox::new(INBOX_CAPACITY));
        let inboxes: Arc<Vec<SharedMailbox>> = Arc::new((0..config.size).map(make).collect());
        let staging: Arc<Vec<SharedMailbox>> = Arc::new((0..config.size).map(make).collect());
        let nodes = Arc::new(config.nodes.clone());
        Ok((0..config.size)
            .map(|rank| P4Endpoint {
                rank,
                size: config.size,
                inboxes: Arc::clone(&inboxes),
                staging: Arc::clone(&staging),
                profile: config.profile,
                network: config.network,
                nodes: Arc::clone(&nodes),
            })
            .collect())
    }
}

impl P4Endpoint {
    /// Move one staged frame into this rank's inbox, performing the extra
    /// device-buffer copy that ch_p4 performs.
    fn deliver(&self, mut staged: Frame) -> Result<()> {
        // The extra copy: device buffer -> receive queue buffer.
        if !staged.payload.is_empty() {
            staged.payload = Bytes::from(staged.payload.to_vec());
        }
        self.inboxes[self.rank].push(staged, None)
    }

    /// Move every staged frame addressed to this rank into its inbox.
    fn progress(&self) -> Result<()> {
        while let Some(staged) = self.staging[self.rank].try_pop()? {
            self.deliver(staged)?;
        }
        Ok(())
    }
}

impl Endpoint for P4Endpoint {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&self, frame: Frame) -> Result<()> {
        let dst = frame.header.dst as usize;
        check_rank(dst, self.size)?;
        self.profile.charge(frame.len());
        let due = self.network.due(frame.len());
        self.staging[dst].push(frame, due)
    }

    fn recv(&self) -> Result<Frame> {
        loop {
            if let Some(frame) = self.recv_timeout(Duration::MAX)? {
                return Ok(frame);
            }
        }
    }

    fn try_recv(&self) -> Result<Option<Frame>> {
        self.progress()?;
        self.inboxes[self.rank].try_pop()
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Frame>> {
        // A timeout too large to add to the clock means "no deadline".
        let deadline = Instant::now().checked_add(timeout);
        loop {
            self.progress()?;
            if let Some(frame) = self.inboxes[self.rank].try_pop()? {
                return Ok(Some(frame));
            }
            // Nothing ready yet: wait on the staging queue so we are woken
            // when a sender enqueues, then loop back through progress().
            let mut wait = Duration::from_millis(20);
            if let Some(deadline) = deadline {
                let now = Instant::now();
                if now >= deadline {
                    return Ok(None);
                }
                wait = wait.min(deadline - now);
            }
            if let Some(staged) = self.staging[self.rank].pop_timeout(wait)? {
                self.deliver(staged)?;
            }
        }
    }

    fn kind(&self) -> DeviceKind {
        DeviceKind::ShmP4
    }

    fn node_map(&self) -> &NodeMap {
        &self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FrameHeader, FrameKind};

    fn fabric(n: usize) -> Vec<P4Endpoint> {
        P4Device::build(&FabricConfig::new(n, DeviceKind::ShmP4)).unwrap()
    }

    fn frame(src: usize, dst: usize, tag: i32, payload: &[u8]) -> Frame {
        Frame::new(
            FrameHeader {
                kind: FrameKind::Eager,
                src: src as u32,
                dst: dst as u32,
                tag,
                context: 0,
                token: 0,
                msg_len: payload.len() as u64,
            },
            Bytes::copy_from_slice(payload),
        )
    }

    #[test]
    fn staged_round_trip_preserves_payload() {
        let mut eps = fabric(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        a.send(frame(0, 1, 9, b"staged ping")).unwrap();
        let got = b.recv().unwrap();
        assert_eq!(got.header.tag, 9);
        assert_eq!(&got.payload[..], b"staged ping");
    }

    #[test]
    fn order_is_preserved_through_the_staging_queue() {
        let eps = fabric(2);
        for i in 0..100 {
            eps[0].send(frame(0, 1, i, &[i as u8])).unwrap();
        }
        for i in 0..100 {
            let f = eps[1].recv().unwrap();
            assert_eq!(f.header.tag, i);
            assert_eq!(f.payload[0], i as u8);
        }
    }

    #[test]
    fn try_recv_pulls_staged_frames() {
        let eps = fabric(2);
        assert!(eps[1].try_recv().unwrap().is_none());
        eps[0].send(frame(0, 1, 1, b"x")).unwrap();
        let got = eps[1].try_recv().unwrap();
        assert!(got.is_some());
    }

    #[test]
    fn cross_thread_ping_pong() {
        let mut eps = fabric(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let t = std::thread::spawn(move || {
            for i in 0..200 {
                let f = b.recv().unwrap();
                assert_eq!(f.header.tag, i);
                b.send(frame(1, 0, i, &f.payload)).unwrap();
            }
        });
        for i in 0..200 {
            a.send(frame(0, 1, i, b"payload")).unwrap();
            let echo = a.recv().unwrap();
            assert_eq!(echo.header.tag, i);
        }
        t.join().unwrap();
    }

    #[test]
    fn recv_timeout_expires_when_idle() {
        let eps = fabric(2);
        let got = eps[1].recv_timeout(Duration::from_millis(30)).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn recv_timeout_too_large_for_the_clock_means_no_deadline() {
        let eps = fabric(2);
        eps[0].send(frame(0, 1, 3, b"late")).unwrap();
        let got = eps[1].recv_timeout(Duration::MAX).unwrap();
        assert_eq!(got.expect("frame was staged").header.tag, 3);
    }
}
