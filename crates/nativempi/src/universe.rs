//! The job launcher: plays the role of `mpirun` for the engine.
//!
//! A [`Universe`] builds a transport fabric, creates one [`Engine`] per
//! rank and runs the user's SPMD closure on one thread per rank — the
//! "multiple processes on a single machine" shape the paper uses for its
//! Shared-Memory mode, and (with the TCP device plus a network model) a
//! faithful stand-in for its two-workstation Distributed-Memory mode.
//!
//! [`UniverseConfig`] is the one job configuration. The launch-time
//! choice the paper makes on the command line (which native MPI, SM or DM
//! mode) is a value of this struct, set through `with_*`, through the
//! binding's `MpiRuntime` builder (a view of the same struct), or —
//! for whatever is still unset at launch — through the `MPIJAVA_*`
//! overlay ([`crate::env::overlay`], which documents every knob in one
//! table).

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Duration;

use mpi_transport::{
    DeviceKind, DeviceProfile, Fabric, FabricConfig, FaultPlan, NetworkModel, NodeMap,
};

use crate::coll::CollAlgorithm;
use crate::env::ProgressMode;
use crate::error::{ErrorClass, MpiError, Result};
use crate::trace::{TraceConfig, TraceMode};
use crate::Engine;

/// Everything needed to launch a job. An `Option` field left `None` is
/// filled at launch from its `MPIJAVA_*` variable, then from its default
/// (the rule and the per-knob table are on [`crate::env::overlay`]).
#[derive(Debug, Clone)]
pub struct UniverseConfig {
    /// Number of ranks.
    pub size: usize,
    /// Transport device (see [`DeviceKind`]).
    pub device: DeviceKind,
    /// Link model (DM-mode experiments attach the 10BaseT model here).
    pub network: NetworkModel,
    /// Synthetic device cost profile (calibration of the two "native MPI"
    /// implementations; defaults to no synthetic cost).
    pub profile: DeviceProfile,
    /// Eager/rendezvous threshold on every rank.
    pub eager_threshold: Option<usize>,
    /// Pin the collective algorithm on every rank (the default is the
    /// tuned size-aware selection; see [`crate::coll`]).
    pub coll_algorithm: Option<CollAlgorithm>,
    /// Rank → node placement (default: one flat node). The
    /// [`DeviceKind::Hybrid`] device routes by it; every device exposes
    /// it through the engine's topology queries, and the collective
    /// tuning layer auto-selects the hierarchical algorithms when it is
    /// non-trivial.
    pub nodes: Option<NodeMap>,
    /// Inter-node link model (hybrid device; defaults to unshaped).
    pub inter_network: NetworkModel,
    /// Progress model (default [`ProgressMode::Manual`]).
    /// [`Universe::launch`] hands the resolved mode to the rank body:
    /// only a body that shares its engine behind a lock (`MpiRuntime`)
    /// can run the progress thread, so [`Universe::run`] ignores it.
    pub progress: Option<ProgressMode>,
    /// Persistent spool root for the [`DeviceKind::Spool`] device
    /// (default: an ephemeral per-job temp directory). A persistent root
    /// is the substrate for late-join and checkpoint/restart.
    pub spool_dir: Option<PathBuf>,
    /// Heartbeat lease for failure detection (default
    /// [`mpi_transport::DEFAULT_LEASE`]). A rank whose lease goes
    /// unrefreshed for longer than this is reported dead to its peers.
    pub lease: Option<Duration>,
    /// Deterministic fault-injection plan (default: no faults). Testing
    /// tool: kills a rank's transport at a chosen operation, or
    /// drops/delays chosen frames.
    pub faults: Option<FaultPlan>,
    /// Observability level on every rank (default off; see
    /// [`crate::trace`]). `counters` and `events` additionally enable
    /// the transport's frame counters.
    pub trace: Option<TraceConfig>,
    /// Directory for finalize-time trace dumps (default
    /// `<spool root>/trace` when the device has a spool, else no dump).
    pub trace_dir: Option<PathBuf>,
}

impl UniverseConfig {
    /// A plain configuration over the given device.
    pub fn new(size: usize, device: DeviceKind) -> UniverseConfig {
        UniverseConfig {
            size,
            device,
            network: NetworkModel::unshaped(),
            profile: DeviceProfile::default(),
            eager_threshold: None,
            coll_algorithm: None,
            nodes: None,
            inter_network: NetworkModel::unshaped(),
            progress: None,
            spool_dir: None,
            lease: None,
            faults: None,
            trace: None,
            trace_dir: None,
        }
    }

    /// Attach a network model (DM-mode experiments).
    pub fn with_network(mut self, network: NetworkModel) -> Self {
        self.network = network;
        self
    }

    /// Attach a synthetic device cost profile.
    pub fn with_profile(mut self, profile: DeviceProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Override the eager threshold on every rank.
    pub fn with_eager_threshold(mut self, bytes: usize) -> Self {
        self.eager_threshold = Some(bytes);
        self
    }

    /// Pin the collective algorithm on every rank (ablations).
    pub fn with_coll_algorithm(mut self, alg: CollAlgorithm) -> Self {
        self.coll_algorithm = Some(alg);
        self
    }

    /// Place ranks on nodes (see [`NodeMap`]).
    pub fn with_nodes(mut self, nodes: NodeMap) -> Self {
        self.nodes = Some(nodes);
        self
    }

    /// Attach an inter-node link model (hybrid device).
    pub fn with_inter_network(mut self, network: NetworkModel) -> Self {
        self.inter_network = network;
        self
    }

    /// Select the progress model.
    pub fn with_progress(mut self, mode: ProgressMode) -> Self {
        self.progress = Some(mode);
        self
    }

    /// Keep spooled frames under `dir` across process lifetimes (spool
    /// device).
    pub fn with_spool_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spool_dir = Some(dir.into());
        self
    }

    /// Set the heartbeat lease for failure detection.
    pub fn with_lease(mut self, lease: Duration) -> Self {
        self.lease = Some(lease);
        self
    }

    /// Inject a deterministic fault plan (testing).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Set the observability level on every rank.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Set the trace-dump directory on every rank.
    pub fn with_trace_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.trace_dir = Some(dir.into());
        self
    }

    /// The fabric this configuration describes; a knob still `None` takes
    /// the fabric's own default (flat placement, stock lease, no faults).
    fn fabric_config(&self) -> FabricConfig {
        let defaults = FabricConfig::new(self.size, self.device);
        FabricConfig {
            network: self.network,
            profile: self.profile,
            nodes: self.nodes.clone().unwrap_or(defaults.nodes),
            inter_network: self.inter_network,
            spool_dir: self.spool_dir.clone(),
            lease: self.lease.unwrap_or(defaults.lease),
            faults: self.faults.clone().unwrap_or(defaults.faults),
            // Any observability beyond the engine counters also turns on
            // the transport-level frame counters.
            frame_counters: self.trace.is_some_and(|t| t.mode != TraceMode::Off),
            ..defaults
        }
    }
}

/// Launcher for SPMD jobs over the engine. See the module documentation.
pub struct Universe;

impl Universe {
    /// Run `f` once per rank (`size` ranks over `device`), each on its own
    /// thread with its own engine, and return the per-rank results in rank
    /// order. A panic on any rank aborts the job and is reported as an
    /// error.
    pub fn run<T, F>(size: usize, device: DeviceKind, f: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(&mut Engine) -> T + Send + Sync,
    {
        Self::run_with_config(UniverseConfig::new(size, device), f)
    }

    /// [`Universe::run`] with full control over the job configuration.
    pub fn run_with_config<T, F>(config: UniverseConfig, f: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(&mut Engine) -> T + Send + Sync,
    {
        Self::launch(config, |mut engine, _| Ok(f(&mut engine)))
    }

    /// The one launcher, which [`Universe::run`] and the binding's
    /// `MpiRuntime::run` are views of: resolve `config` against the
    /// `MPIJAVA_*` environment (once per job), build the fabric, and run
    /// `body` on one thread per rank with that rank's configured engine
    /// and the resolved progress mode. Results come back in rank order;
    /// the first failing rank's error is the job's error. A rank that
    /// panics aborts the job (its engine is dropped mid-unwind, which
    /// poisons the peers — see `Engine`'s `Drop`) and is reported as
    /// `rank N panicked: <message>`.
    pub fn launch<T, E, F>(config: UniverseConfig, body: F) -> std::result::Result<Vec<T>, E>
    where
        T: Send,
        E: From<MpiError> + Send,
        F: Fn(Engine, ProgressMode) -> std::result::Result<T, E> + Sync,
    {
        if config.size == 0 {
            return Err(MpiError::new(ErrorClass::Arg, "universe size must be at least 1").into());
        }
        let config = &crate::env::resolve(config);
        let endpoints = Fabric::build(config.fabric_config())
            .map_err(MpiError::from)?
            .into_endpoints();
        let progress = config.progress.unwrap_or_default();
        let body = &body;

        std::thread::scope(|scope| {
            let ranks: Vec<_> = endpoints
                .into_iter()
                .map(|endpoint| {
                    scope.spawn(move || {
                        let rank = endpoint.rank();
                        let engine = Engine::with_config(endpoint, config);
                        catch_unwind(AssertUnwindSafe(|| body(engine, progress)))
                            .unwrap_or_else(|panic| Err(rank_panicked(rank, panic).into()))
                    })
                })
                .collect();
            ranks
                .into_iter()
                .map(|rank| {
                    rank.join().unwrap_or_else(|_| {
                        Err(MpiError::new(ErrorClass::Intern, "rank thread crashed").into())
                    })
                })
                .collect()
        })
    }

    /// Write a checkpoint record for `engine`'s rank (see
    /// [`Engine::checkpoint`]). Only meaningful over a persistent
    /// [`DeviceKind::Spool`] fabric — on every other device this errors
    /// with [`ErrorClass::Unsupported`].
    pub fn checkpoint(engine: &mut Engine) -> Result<PathBuf> {
        engine.checkpoint()
    }

    /// Rebuild a rank's engine from the checkpoint record in its spool
    /// (see [`Engine::restore`]). Pair with
    /// [`mpi_transport::spool::SpoolDevice::attach`] to re-join a
    /// persistent spool after a crash: the restored engine's allocators
    /// resume past every checkpointed counter and pending frames are
    /// still in the inbox, ready to drain.
    pub fn restore(endpoint: Box<dyn mpi_transport::Endpoint>) -> Result<Engine> {
        Engine::restore(endpoint)
    }
}

/// The error a rank's panic becomes, for every launcher.
fn rank_panicked(rank: usize, panic: Box<dyn Any + Send>) -> MpiError {
    let message = panic
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| panic.downcast_ref::<&str>().copied())
        .unwrap_or("rank panicked");
    MpiError::new(
        ErrorClass::Aborted,
        format!("rank {rank} panicked: {message}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::SendMode;

    #[test]
    fn run_returns_per_rank_results_in_order() {
        let results =
            Universe::run(4, DeviceKind::ShmFast, |engine| engine.world_rank() * 10).unwrap();
        assert_eq!(results, vec![0, 10, 20, 30]);
    }

    #[test]
    fn zero_ranks_is_rejected() {
        assert!(Universe::run(0, DeviceKind::ShmFast, |_| ()).is_err());
    }

    #[test]
    fn config_applies_eager_threshold_and_names() {
        let config = UniverseConfig::new(2, DeviceKind::ShmFast).with_eager_threshold(64);
        Universe::run_with_config(config, |engine| {
            assert_eq!(engine.eager_threshold(), 64);
        })
        .unwrap();
    }

    #[test]
    fn panic_on_one_rank_is_reported_not_hung() {
        let result = Universe::run(2, DeviceKind::ShmFast, |engine| {
            if engine.world_rank() == 0 {
                panic!("deliberate test panic");
            } else {
                // This receive can never be satisfied; it must be unblocked
                // by the abort triggered by rank 0's panic.
                let _ = engine.recv(crate::comm::COMM_WORLD, 0, 99, None);
            }
        });
        assert!(result.is_err());
    }

    #[test]
    fn works_over_the_p4_device_too() {
        Universe::run(2, DeviceKind::ShmP4, |engine| {
            if engine.world_rank() == 0 {
                engine
                    .send(crate::comm::COMM_WORLD, 1, 1, b"p4", SendMode::Standard)
                    .unwrap();
            } else {
                let (d, _) = engine.recv(crate::comm::COMM_WORLD, 0, 1, None).unwrap();
                assert_eq!(&d, b"p4");
            }
        })
        .unwrap();
    }

    #[test]
    fn works_over_the_hybrid_device() {
        // 2 nodes x 2 ranks: rank pairs (0,1) and (2,3) talk intra-node,
        // everything else crosses the modelled inter-node link.
        let config = UniverseConfig::new(4, DeviceKind::Hybrid).with_nodes(NodeMap::regular(2, 2));
        Universe::run_with_config(config, |engine| {
            let rank = engine.world_rank();
            assert_eq!(engine.my_node(), rank / 2);
            let peer = ((rank + 2) % 4) as i32; // always inter-node
            let (data, _) = engine
                .sendrecv(
                    crate::comm::COMM_WORLD,
                    peer,
                    9,
                    &[rank as u8; 8],
                    peer,
                    9,
                    None,
                )
                .unwrap();
            assert!(data.iter().all(|&b| b == ((rank + 2) % 4) as u8));
        })
        .unwrap();
    }

    #[test]
    fn mismatched_node_map_is_rejected_at_launch() {
        let config = UniverseConfig::new(4, DeviceKind::Hybrid).with_nodes(NodeMap::regular(2, 3));
        assert!(Universe::run_with_config(config, |_| ()).is_err());
    }

    #[test]
    fn works_over_the_spool_device() {
        Universe::run(2, DeviceKind::Spool, |engine| {
            let rank = engine.world_rank();
            let peer = (1 - rank) as i32;
            let (data, _) = engine
                .sendrecv(
                    crate::comm::COMM_WORLD,
                    peer,
                    5,
                    &[rank as u8; 8],
                    peer,
                    5,
                    None,
                )
                .unwrap();
            assert!(data.iter().all(|&b| b == (1 - rank) as u8));
        })
        .unwrap();
    }

    #[test]
    fn config_resolves_spool_lease_and_faults() {
        let fabric = UniverseConfig::new(2, DeviceKind::Spool)
            .with_spool_dir("/tmp/spool-x")
            .with_lease(Duration::from_millis(42))
            .with_faults(FaultPlan::parse("drop:0->1@1").unwrap())
            .fabric_config();
        assert_eq!(fabric.spool_dir, Some(PathBuf::from("/tmp/spool-x")));
        assert_eq!(fabric.lease, Duration::from_millis(42));
        assert_eq!(fabric.faults.actions.len(), 1);

        // Defaults: no spool dir, the stock lease, no faults.
        let plain = UniverseConfig::new(2, DeviceKind::ShmFast).fabric_config();
        assert_eq!(plain.spool_dir, None);
        assert_eq!(plain.lease, mpi_transport::DEFAULT_LEASE);
        assert!(plain.faults.is_empty());
    }

    #[test]
    fn works_over_the_tcp_device() {
        Universe::run(2, DeviceKind::Tcp, |engine| {
            let rank = engine.world_rank();
            let peer = (1 - rank) as i32;
            let (data, _) = engine
                .sendrecv(
                    crate::comm::COMM_WORLD,
                    peer,
                    3,
                    &[rank as u8; 16],
                    peer,
                    3,
                    None,
                )
                .unwrap();
            assert!(data.iter().all(|&b| b == (1 - rank) as u8));
        })
        .unwrap();
    }
}
