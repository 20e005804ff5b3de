//! # mpi-transport
//!
//! Byte-level transports for the `mpijava-rs` reproduction of
//! *mpiJava: An Object-Oriented Java Interface to MPI* (IPPS 1999).
//!
//! The paper runs its wrapper on top of two native MPI implementations
//! (WMPI on Windows NT, MPICH/ch_p4 on Solaris) in two configurations:
//! Shared-Memory mode (SM — both processes on one host) and
//! Distributed-Memory mode (DM — two hosts on 10 Mbps Ethernet).
//! This crate provides the corresponding *devices*:
//!
//! * [`shm::ShmDevice`] — an optimised in-process shared-memory device
//!   (per-rank mailboxes, single-copy delivery). Plays the role of WMPI's
//!   shared-memory path in the evaluation.
//! * [`p4::P4Device`] — a "portable" staged device with an extra queue hop
//!   and copy per message, modelling the MPICH/ch_p4 device the paper used
//!   on Solaris.
//! * [`tcp::TcpDevice`] — a socket device for DM mode, running over
//!   loopback TCP, optionally shaped by a [`netmodel::NetworkModel`]
//!   reproducing the paper's 10BaseT Ethernet link.
//! * [`hybrid::HybridDevice`] — a multi-fabric device for cluster-shaped
//!   jobs: a [`NodeMap`] places ranks on nodes, intra-node traffic takes
//!   the shm-class path and inter-node traffic the modelled link, each
//!   class with its own [`DeviceProfile`]/[`NetworkModel`].
//! * [`spool::SpoolDevice`] — a MatlabMPI-style file-spool device:
//!   frames are files published by atomic rename into per-rank inbox
//!   directories, with heartbeat lease files providing failure
//!   detection and natural persistence (checkpoint/restart, late join).
//! * [`fault::FaultEndpoint`] — a deterministic fault-injection wrapper
//!   (kill/drop/delay) available on every device via
//!   [`FabricConfig::faults`].
//!
//! All devices expose the same [`Endpoint`] interface: ordered,
//! reliable point-to-point delivery of [`frame::Frame`]s between a fixed
//! set of ranks. Message matching (tags, communicators, wildcards) is *not*
//! done here — that is the job of the `mpi-native` engine layered on top,
//! exactly as a real MPI implementation layers matching over its devices.

pub mod counters;
pub mod error;
pub mod fault;
pub mod frame;
pub mod hybrid;
pub mod mailbox;
pub mod netmodel;
pub mod nodemap;
pub mod p4;
pub mod shm;
pub mod spool;
pub mod tcp;

pub use counters::FrameStats;
pub use error::{Result, TransportError};
pub use fault::{FaultAction, FaultPlan};
pub use frame::{Frame, FrameHeader, FrameKind};
pub use netmodel::NetworkModel;
pub use nodemap::NodeMap;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Default heartbeat lease: a rank whose lease file has not been renewed
/// for this long is declared dead by its peers (spool device; also the
/// delay fault-injected kills take to become visible to survivors).
/// Tunable per fabric via [`FabricConfig::lease`] and, at the engine
/// layer, via the `MPIJAVA_LEASE_MS` environment variable.
pub const DEFAULT_LEASE: Duration = Duration::from_millis(1000);

/// Which device backs a fabric. Mirrors the paper's platforms:
/// `ShmFast` ~ WMPI shared memory, `ShmP4` ~ MPICH/ch_p4 on one host,
/// `Tcp` ~ the distributed-memory (Ethernet) configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Optimised shared-memory device (single copy, per-rank mailboxes).
    ShmFast,
    /// Staged "portable" device with an extra intermediate queue and copy.
    ShmP4,
    /// Loopback TCP device (distributed-memory mode), optionally shaped by a
    /// [`NetworkModel`].
    Tcp,
    /// Multi-fabric device: intra-node traffic over the shm-class path,
    /// inter-node traffic over a modelled network link, routed by the
    /// fabric's [`NodeMap`] (see [`hybrid`]).
    Hybrid,
    /// File-spool device: frames are files in a shared spool directory,
    /// published by atomic rename, with per-rank heartbeat lease files
    /// for failure detection (see [`spool`]). The persistence substrate
    /// for checkpoint/restart and late-joining ranks.
    Spool,
}

impl DeviceKind {
    /// Human-readable name used by the benchmark harness when printing the
    /// rows of Table 1 / the series of Figures 5 and 6.
    pub fn label(&self) -> &'static str {
        match self {
            DeviceKind::ShmFast => "shm-fast",
            DeviceKind::ShmP4 => "shm-p4",
            DeviceKind::Tcp => "tcp",
            DeviceKind::Hybrid => "hybrid",
            DeviceKind::Spool => "spool",
        }
    }
}

/// A synthetic cost profile attached to a device.
///
/// The paper's two native MPI implementations differ mainly in constant
/// per-message cost (WMPI was tuned for NT; MPICH/ch_p4 is portable but
/// heavier). The structural differences between [`shm::ShmDevice`] and
/// [`p4::P4Device`] already reproduce the ordering; this profile lets the
/// benchmark harness additionally calibrate the devices towards the
/// 1999-era absolute numbers without touching the protocol code.
/// Both fields default to zero (no synthetic cost).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProfile {
    /// Fixed cost charged per message on the send path.
    pub per_message_cost: Duration,
    /// Cost charged per payload byte on the send path, in nanoseconds.
    pub per_byte_cost_ns: f64,
}

impl Default for DeviceProfile {
    fn default() -> Self {
        DeviceProfile {
            per_message_cost: Duration::ZERO,
            per_byte_cost_ns: 0.0,
        }
    }
}

impl DeviceProfile {
    /// Total synthetic cost for one message of `len` payload bytes.
    pub fn cost_for(&self, len: usize) -> Duration {
        let bytes = Duration::from_nanos((self.per_byte_cost_ns * len as f64) as u64);
        self.per_message_cost + bytes
    }

    /// Wait out the synthetic cost of a `len`-byte message.
    ///
    /// The wait is elapsed-time based (rather than `thread::sleep`)
    /// because the costs being modelled are sub-millisecond and `sleep`
    /// cannot resolve them, and it yields the CPU on every iteration: a
    /// modelled link transfer occupies the *link*, not the processor, so
    /// transfers charged concurrently on different ranks must overlap in
    /// wall time even when the host has fewer cores than ranks. (This is
    /// what lets the collective benchmarks observe the link-level
    /// concurrency that tree/ring schedules exploit.)
    pub fn charge(&self, len: usize) {
        let cost = self.cost_for(len);
        if cost.is_zero() {
            return;
        }
        let start = std::time::Instant::now();
        while start.elapsed() < cost {
            std::thread::yield_now();
        }
    }
}

/// Configuration for building a [`Fabric`]: [`FabricConfig::new`]'s
/// defaults, with any field written directly (or by struct update).
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Number of ranks (endpoints) in the fabric.
    pub size: usize,
    /// Which device implementation to use.
    pub kind: DeviceKind,
    /// Synthetic per-message/per-byte cost (see [`DeviceProfile`]). On
    /// the [`DeviceKind::Hybrid`] device this is the *intra-node* class;
    /// single-fabric devices apply it to everything.
    pub profile: DeviceProfile,
    /// Link model applied to deliveries (latency + bandwidth shaping).
    /// `NetworkModel::unshaped()` disables shaping. On the hybrid device
    /// this is the *intra-node* class.
    pub network: NetworkModel,
    /// Rank → node placement. Every endpoint reports it through
    /// [`Endpoint::node_map`]; only the [`DeviceKind::Hybrid`] device
    /// *routes* by it. Defaults to [`NodeMap::flat`].
    pub nodes: NodeMap,
    /// Inter-node link model ([`DeviceKind::Hybrid`] only).
    pub inter_network: NetworkModel,
    /// Spool root directory ([`DeviceKind::Spool`] only). `None` means a
    /// fresh per-fabric directory under the system temp dir, removed when
    /// the last endpoint drops; an explicit path persists after the run
    /// (this is what checkpoint/restart and late-join tests rely on).
    pub spool_dir: Option<PathBuf>,
    /// Heartbeat lease: a rank silent for longer than this is declared
    /// dead by [`Endpoint::poll_failures`]. See [`DEFAULT_LEASE`].
    pub lease: Duration,
    /// Deterministic fault-injection plan (see [`fault`]). Empty by
    /// default; when non-empty every endpoint of the fabric is wrapped in
    /// a [`fault::FaultEndpoint`].
    pub faults: FaultPlan,
    /// Wrap every endpoint in a [`counters::CountingEndpoint`] so the
    /// engine's metrics registry can report per-rank frame traffic
    /// (see [`Endpoint::frame_stats`]). Off by default — the observing
    /// layers enable it for `counters`/`events` trace modes.
    pub frame_counters: bool,
}

impl FabricConfig {
    /// A fabric of `size` ranks over the given device with no shaping.
    pub fn new(size: usize, kind: DeviceKind) -> Self {
        FabricConfig {
            size,
            kind,
            profile: DeviceProfile::default(),
            network: NetworkModel::unshaped(),
            nodes: NodeMap::flat(size),
            inter_network: NetworkModel::unshaped(),
            spool_dir: None,
            lease: DEFAULT_LEASE,
            faults: FaultPlan::none(),
            frame_counters: false,
        }
    }
}

/// One peer's liveness as seen by a failure-detecting endpoint: how
/// stale its heartbeat is and the lease it is measured against. Devices
/// without failure detection report nothing (see
/// [`Endpoint::peer_liveness`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerLiveness {
    /// The peer's world rank.
    pub rank: usize,
    /// Time since the peer's last observed heartbeat. `None` when no
    /// heartbeat has been observed at all (e.g. its lease file is gone).
    pub heartbeat_age: Option<Duration>,
    /// The lease the age is judged against: the peer is declared dead
    /// once `heartbeat_age > lease`.
    pub lease: Duration,
    /// Whether this endpoint considers the peer dead.
    pub dead: bool,
}

impl PeerLiveness {
    /// How far past its lease deadline the peer's heartbeat is
    /// (`None` while the heartbeat is within the lease, or when no
    /// heartbeat age is known).
    pub fn staleness(&self) -> Option<Duration> {
        self.heartbeat_age
            .and_then(|age| age.checked_sub(self.lease))
    }
}

/// One rank's attachment to a fabric: ordered, reliable point-to-point
/// delivery of frames to every other rank, plus a blocking inbox.
///
/// Delivery guarantees required by the `mpi-native` engine above:
///
/// * frames from rank A to rank B are delivered in the order A sent them
///   (per-pair FIFO — this is what MPI's non-overtaking rule is built on);
/// * `send` never blocks waiting for the *receiver to call recv* for
///   payloads below the device's eager threshold (the engine implements
///   rendezvous itself for large synchronous-mode traffic);
/// * frames are never dropped, duplicated or corrupted.
pub trait Endpoint: Send {
    /// This endpoint's rank in `0..size`.
    fn rank(&self) -> usize;
    /// Number of ranks in the fabric.
    fn size(&self) -> usize;
    /// Deliver a frame to `frame.header.dst`.
    fn send(&self, frame: Frame) -> Result<()>;
    /// Block until a frame arrives and return it.
    fn recv(&self) -> Result<Frame>;
    /// Return a frame if one is already available, without blocking.
    fn try_recv(&self) -> Result<Option<Frame>>;
    /// Block up to `timeout` for a frame.
    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Frame>>;
    /// Device kind backing this endpoint (used in bench labels).
    fn kind(&self) -> DeviceKind;
    /// Rank → node placement of the fabric (the engine's topology
    /// queries and the hierarchical collective tuning read this; only
    /// the hybrid device also routes by it).
    fn node_map(&self) -> &NodeMap;
    /// Ranks this endpoint has observed to be dead (heartbeat lease
    /// expired, or killed by a fault plan). Cheap enough to call from a
    /// progress loop; devices without failure detection return nothing.
    /// A rank reported once stays dead — there is no resurrection.
    fn poll_failures(&self) -> Vec<usize> {
        Vec::new()
    }
    /// Spool root directory backing this endpoint, if any (spool device
    /// only). The engine's checkpoint/restart layer writes its state
    /// under this root.
    fn spool_dir(&self) -> Option<&std::path::Path> {
        None
    }
    /// Per-peer heartbeat state (age of the last observed beat, lease
    /// deadline, verdict) for the engine's failure-visibility gauges and
    /// error messages. Devices without failure detection return nothing;
    /// wrappers delegate.
    fn peer_liveness(&self) -> Vec<PeerLiveness> {
        Vec::new()
    }
    /// Frame-level traffic counters, when the fabric was built with
    /// [`FabricConfig::frame_counters`] set (the [`counters`] wrapper
    /// implements this; plain devices report `None`).
    fn frame_stats(&self) -> Option<FrameStats> {
        None
    }
}

/// A fully-connected set of endpoints over one device.
pub struct Fabric {
    endpoints: Vec<Box<dyn Endpoint>>,
    kind: DeviceKind,
}

impl Fabric {
    /// Build a fabric according to `config` and hand back one endpoint per
    /// rank. The endpoints are `Send` and are intended to be moved into the
    /// per-rank threads (or processes) that play the MPI processes.
    pub fn build(config: FabricConfig) -> Result<Fabric> {
        if config.size == 0 {
            return Err(TransportError::InvalidConfig(
                "fabric size must be at least 1".into(),
            ));
        }
        if config.nodes.len() != config.size {
            return Err(TransportError::InvalidConfig(format!(
                "node map places {} ranks but the fabric has {}",
                config.nodes.len(),
                config.size
            )));
        }
        if let Some(max) = config.faults.max_rank() {
            if max >= config.size {
                return Err(TransportError::InvalidConfig(format!(
                    "fault plan names rank {max} but the fabric has {} ranks",
                    config.size
                )));
            }
        }
        let endpoints: Vec<Box<dyn Endpoint>> = match config.kind {
            DeviceKind::ShmFast => shm::ShmDevice::build(&config)?
                .into_iter()
                .map(|e| Box::new(e) as Box<dyn Endpoint>)
                .collect(),
            DeviceKind::ShmP4 => p4::P4Device::build(&config)?
                .into_iter()
                .map(|e| Box::new(e) as Box<dyn Endpoint>)
                .collect(),
            DeviceKind::Tcp => tcp::TcpDevice::build(&config)?
                .into_iter()
                .map(|e| Box::new(e) as Box<dyn Endpoint>)
                .collect(),
            DeviceKind::Hybrid => hybrid::HybridDevice::build(&config)?
                .into_iter()
                .map(|e| Box::new(e) as Box<dyn Endpoint>)
                .collect(),
            DeviceKind::Spool => spool::SpoolDevice::build(&config)?
                .into_iter()
                .map(|e| Box::new(e) as Box<dyn Endpoint>)
                .collect(),
        };
        let endpoints = if config.faults.is_empty() {
            endpoints
        } else {
            fault::FaultEndpoint::wrap(endpoints, config.faults.clone(), config.lease)
        };
        // Counting goes outermost so it sees exactly the traffic the
        // engine sees — fault-injected drops and kills included.
        let endpoints = if config.frame_counters {
            counters::CountingEndpoint::wrap(endpoints)
        } else {
            endpoints
        };
        Ok(Fabric {
            endpoints,
            kind: config.kind,
        })
    }

    /// Consume the fabric, yielding one endpoint per rank (rank order).
    pub fn into_endpoints(self) -> Vec<Box<dyn Endpoint>> {
        self.endpoints
    }

    /// The device kind this fabric was built with.
    pub fn kind(&self) -> DeviceKind {
        self.kind
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.endpoints.len()
    }
}

/// Capacity (in frames) of each rank's inbox before senders block.
pub(crate) const INBOX_CAPACITY: usize = 64 * 1024;

/// Shared alias used by the devices for their inbox implementation.
pub(crate) type SharedMailbox = Arc<mailbox::Mailbox>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_labels_are_distinct() {
        let labels = [
            DeviceKind::ShmFast.label(),
            DeviceKind::ShmP4.label(),
            DeviceKind::Tcp.label(),
            DeviceKind::Hybrid.label(),
            DeviceKind::Spool.label(),
        ];
        assert_eq!(
            labels.len(),
            labels
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len()
        );
    }

    #[test]
    fn profile_costs_scale_with_length() {
        let p = DeviceProfile {
            per_message_cost: Duration::from_micros(10),
            per_byte_cost_ns: 2.0,
        };
        assert_eq!(p.cost_for(0), Duration::from_micros(10));
        assert!(p.cost_for(1000) > p.cost_for(10));
    }

    #[test]
    fn free_profile_charges_nothing() {
        let p = DeviceProfile::default();
        assert_eq!(p.cost_for(1 << 20), Duration::ZERO);
        // must return immediately
        p.charge(1 << 20);
    }

    #[test]
    fn zero_size_fabric_is_rejected() {
        match Fabric::build(FabricConfig::new(0, DeviceKind::ShmFast)) {
            Err(TransportError::InvalidConfig(_)) => {}
            Err(other) => panic!("unexpected error: {other}"),
            Ok(_) => panic!("zero-size fabric should be rejected"),
        }
    }

    #[test]
    fn fabric_reports_kind_and_size() {
        let fabric = Fabric::build(FabricConfig::new(3, DeviceKind::ShmFast)).unwrap();
        assert_eq!(fabric.kind(), DeviceKind::ShmFast);
        assert_eq!(fabric.size(), 3);
        let eps = fabric.into_endpoints();
        assert_eq!(eps.len(), 3);
        for (i, ep) in eps.iter().enumerate() {
            assert_eq!(ep.rank(), i);
            assert_eq!(ep.size(), 3);
        }
    }
}
