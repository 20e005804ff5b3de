//! Multi-fabric hybrid device: intra-node traffic over the shm-class
//! path, inter-node traffic over a modelled network link.
//!
//! The paper's jobs run over exactly one native device; a cluster job
//! does not — ranks sharing a node exchange messages through shared
//! memory while ranks on different nodes cross a network. This device
//! reproduces that split behind the ordinary [`Endpoint`] interface so
//! the engine's datapath is unchanged: every send consults the fabric's
//! [`NodeMap`] and routes
//!
//! * **intra-node** frames over the shm-class path — a direct push into
//!   the destination rank's mailbox, charged with the *intra* device
//!   profile and shaped by the *intra* network model (both default to
//!   free/unshaped, like the real thing), and
//! * **inter-node** frames over the modelled-link path — the same
//!   mailbox delivery, but held until the *inter* [`NetworkModel`]'s due
//!   instant, exactly how the TCP device models the paper's Ethernet
//!   link without real 1999 hardware.
//!
//! Per-pair FIFO still holds: each ordered rank pair routes over exactly
//! one class (their placement never changes mid-job), and each class
//! preserves push order into the single per-rank inbox.
//!
//! Configure through [`FabricConfig`]: `nodes` carries the placement,
//! `profile`/`network` apply to the intra-node class, and
//! `inter_network` to the inter-node class.

use std::sync::Arc;
use std::time::Duration;

use crate::error::{check_rank, Result, TransportError};
use crate::frame::Frame;
use crate::mailbox::Mailbox;
use crate::nodemap::NodeMap;
use crate::{
    DeviceKind, DeviceProfile, Endpoint, FabricConfig, NetworkModel, SharedMailbox, INBOX_CAPACITY,
};

/// One rank's endpoint on the hybrid device.
pub struct HybridEndpoint {
    rank: usize,
    size: usize,
    inboxes: Arc<Vec<SharedMailbox>>,
    nodes: Arc<NodeMap>,
    intra_profile: DeviceProfile,
    intra_network: NetworkModel,
    inter_network: NetworkModel,
}

/// Namespace struct for building hybrid fabrics.
pub struct HybridDevice;

impl HybridDevice {
    /// Build `config.size` endpoints sharing one set of mailboxes and one
    /// node map.
    pub fn build(config: &FabricConfig) -> Result<Vec<HybridEndpoint>> {
        if config.nodes.len() != config.size {
            return Err(TransportError::InvalidConfig(format!(
                "node map places {} ranks but the fabric has {}",
                config.nodes.len(),
                config.size
            )));
        }
        let inboxes: Arc<Vec<SharedMailbox>> = Arc::new(
            (0..config.size)
                .map(|_| Arc::new(Mailbox::new(INBOX_CAPACITY)))
                .collect(),
        );
        let nodes = Arc::new(config.nodes.clone());
        Ok((0..config.size)
            .map(|rank| HybridEndpoint {
                rank,
                size: config.size,
                inboxes: Arc::clone(&inboxes),
                nodes: Arc::clone(&nodes),
                intra_profile: config.profile,
                intra_network: config.network,
                inter_network: config.inter_network,
            })
            .collect())
    }
}

impl Endpoint for HybridEndpoint {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&self, frame: Frame) -> Result<()> {
        let dst = frame.header.dst as usize;
        check_rank(dst, self.size)?;
        let network = if self.nodes.same_node(self.rank, dst) {
            self.intra_profile.charge(frame.len());
            &self.intra_network
        } else {
            &self.inter_network
        };
        let due = network.due(frame.len());
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
        DeviceKind::Hybrid
    }

    fn node_map(&self) -> &NodeMap {
        &self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FrameHeader, FrameKind};
    use bytes::Bytes;
    use std::time::Instant;

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

    fn hybrid(size: usize, nodes: NodeMap, inter: NetworkModel) -> Vec<HybridEndpoint> {
        let config = FabricConfig {
            nodes,
            inter_network: inter,
            ..FabricConfig::new(size, DeviceKind::Hybrid)
        };
        HybridDevice::build(&config).unwrap()
    }

    #[test]
    fn routes_both_classes_end_to_end() {
        let eps = hybrid(4, NodeMap::regular(2, 2), NetworkModel::unshaped());
        // Intra-node: 0 -> 1 (same node).
        eps[0].send(frame(0, 1, 1, b"intra")).unwrap();
        assert_eq!(&eps[1].recv().unwrap().payload[..], b"intra");
        // Inter-node: 0 -> 2 (different nodes).
        eps[0].send(frame(0, 2, 2, b"inter")).unwrap();
        assert_eq!(&eps[2].recv().unwrap().payload[..], b"inter");
        assert_eq!(eps[0].kind(), DeviceKind::Hybrid);
        assert_eq!(eps[3].node_map().node_of(3), 1);
    }

    #[test]
    fn inter_node_frames_are_link_shaped_intra_are_not() {
        let link = NetworkModel::new(Duration::from_millis(30), f64::INFINITY);
        let eps = hybrid(4, NodeMap::regular(2, 2), link);
        // Intra-node delivery is immediate.
        eps[0].send(frame(0, 1, 1, b"x")).unwrap();
        assert!(eps[1].try_recv().unwrap().is_some(), "intra frame delayed");
        // Inter-node delivery waits out the modelled link latency.
        let start = Instant::now();
        eps[0].send(frame(0, 3, 2, b"y")).unwrap();
        assert!(
            eps[3].try_recv().unwrap().is_none(),
            "inter frame released before the link due time"
        );
        let got = eps[3].recv().unwrap();
        assert_eq!(&got.payload[..], b"y");
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn mismatched_node_map_is_rejected() {
        let config = FabricConfig {
            nodes: NodeMap::regular(2, 3),
            ..FabricConfig::new(4, DeviceKind::Hybrid)
        };
        assert!(matches!(
            HybridDevice::build(&config),
            Err(TransportError::InvalidConfig(_))
        ));
    }

    #[test]
    fn out_of_range_destination_is_rejected() {
        let eps = hybrid(2, NodeMap::flat(2), NetworkModel::unshaped());
        assert!(matches!(
            eps[0].send(frame(0, 7, 0, b"")),
            Err(TransportError::RankOutOfRange { .. })
        ));
    }
}
