//! Optimised shared-memory device (the paper's SM mode, WMPI-like path).
//!
//! Every rank owns one [`Mailbox`]; a send is a single push of the frame
//! (payload ownership is transferred, no copy) into the destination rank's
//! mailbox. One queue per receiver is what many-to-one traffic and
//! `ANY_SOURCE` need, and with the mailbox polling before it parks (see
//! [`crate::mailbox`]) a 1-byte frame crosses it in ~0.6 µs between two
//! cores, so no per-pair fast lane sits beside it. It plays the role of
//! the optimised WMPI shared-memory path in the reproduction of Table 1
//! and Figure 5.

use std::sync::Arc;
use std::time::Duration;

use crate::error::{check_rank, Result};
use crate::frame::Frame;
use crate::mailbox::Mailbox;
use crate::nodemap::NodeMap;
use crate::{
    DeviceKind, DeviceProfile, Endpoint, FabricConfig, NetworkModel, SharedMailbox, INBOX_CAPACITY,
};

/// One rank's endpoint on the shared-memory device.
pub struct ShmEndpoint {
    rank: usize,
    size: usize,
    inboxes: Arc<Vec<SharedMailbox>>,
    profile: DeviceProfile,
    network: NetworkModel,
    nodes: Arc<NodeMap>,
}

/// Namespace struct for building shared-memory fabrics.
pub struct ShmDevice;

impl ShmDevice {
    /// Build `config.size` endpoints sharing one set of mailboxes.
    pub fn build(config: &FabricConfig) -> Result<Vec<ShmEndpoint>> {
        let inboxes: Arc<Vec<SharedMailbox>> = Arc::new(
            (0..config.size)
                .map(|_| Arc::new(Mailbox::new(INBOX_CAPACITY)))
                .collect(),
        );
        let nodes = Arc::new(config.nodes.clone());
        Ok((0..config.size)
            .map(|rank| ShmEndpoint {
                rank,
                size: config.size,
                inboxes: Arc::clone(&inboxes),
                profile: config.profile,
                network: config.network,
                nodes: Arc::clone(&nodes),
            })
            .collect())
    }
}

impl Endpoint for ShmEndpoint {
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
        self.inboxes[dst].push(frame, due)
    }

    fn recv(&self) -> Result<Frame> {
        self.inboxes[self.rank].pop()
    }

    fn try_recv(&self) -> Result<Option<Frame>> {
        self.inboxes[self.rank].try_pop()
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Frame>> {
        self.inboxes[self.rank].pop_timeout(timeout)
    }

    fn kind(&self) -> DeviceKind {
        DeviceKind::ShmFast
    }

    fn node_map(&self) -> &NodeMap {
        &self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::TransportError;
    use crate::frame::{FrameHeader, FrameKind};
    use bytes::Bytes;

    fn fabric(n: usize) -> Vec<ShmEndpoint> {
        ShmDevice::build(&FabricConfig::new(n, DeviceKind::ShmFast)).unwrap()
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
    fn two_rank_round_trip() {
        let mut eps = fabric(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        a.send(frame(0, 1, 5, b"ping")).unwrap();
        let got = b.recv().unwrap();
        assert_eq!(got.header.tag, 5);
        assert_eq!(&got.payload[..], b"ping");
        b.send(frame(1, 0, 6, b"pong")).unwrap();
        assert_eq!(&a.recv().unwrap().payload[..], b"pong");
    }

    #[test]
    fn out_of_range_destination_is_rejected() {
        let eps = fabric(2);
        let err = eps[0].send(frame(0, 5, 0, b"")).unwrap_err();
        assert!(matches!(err, TransportError::RankOutOfRange { .. }));
    }

    #[test]
    fn per_pair_order_is_preserved_under_concurrency() {
        let mut eps = fabric(3);
        let c = eps.pop().unwrap();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let ta = std::thread::spawn(move || {
            for i in 0..500 {
                a.send(frame(0, 2, i, &i.to_le_bytes())).unwrap();
            }
        });
        let tb = std::thread::spawn(move || {
            for i in 0..500 {
                b.send(frame(1, 2, i, &i.to_le_bytes())).unwrap();
            }
        });
        let mut next_from_a = 0;
        let mut next_from_b = 0;
        for _ in 0..1000 {
            let f = c.recv().unwrap();
            match f.header.src {
                0 => {
                    assert_eq!(f.header.tag, next_from_a);
                    next_from_a += 1;
                }
                1 => {
                    assert_eq!(f.header.tag, next_from_b);
                    next_from_b += 1;
                }
                other => panic!("unexpected source {other}"),
            }
        }
        ta.join().unwrap();
        tb.join().unwrap();
        assert_eq!(next_from_a, 500);
        assert_eq!(next_from_b, 500);
    }

    #[test]
    fn self_send_is_allowed() {
        let eps = fabric(1);
        eps[0].send(frame(0, 0, 1, b"loop")).unwrap();
        assert_eq!(&eps[0].recv().unwrap().payload[..], b"loop");
    }

    #[test]
    fn recv_timeout_returns_none_when_idle() {
        let eps = fabric(2);
        let got = eps[1].recv_timeout(Duration::from_millis(20)).unwrap();
        assert!(got.is_none());
    }
}
