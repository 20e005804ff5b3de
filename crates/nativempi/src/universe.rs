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
//! mode) is a value of this struct: [`UniverseConfig::new`] takes the
//! defaults, applies the `MPIJAVA_*` environment once
//! ([`crate::env::overlay`], which documents every knob in one table),
//! and whatever the program writes afterwards — a field, or the
//! binding's `MpiRuntime` builder (a view of the same struct) — wins.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use mpi_transport::{DeviceKind, Fabric, FabricConfig};

use crate::coll::CollAlgorithm;
use crate::env::ProgressMode;
use crate::error::{ErrorClass, MpiError, Result};
use crate::trace::{TraceConfig, TraceMode};
use crate::{Engine, DEFAULT_EAGER_THRESHOLD};

/// Everything needed to launch a job: the fabric's settings in
/// [`FabricConfig`] (size, device, links, placement, spool, lease,
/// faults), plus the settings every rank's engine applies. Each setting
/// lives in exactly one field; an `Option` field's `None` is a value of
/// its own, not "unset".
#[derive(Debug, Clone)]
pub struct UniverseConfig {
    /// The transport fabric. `frame_counters` is ignored here: the
    /// launcher turns them on whenever `trace` records anything.
    pub fabric: FabricConfig,
    /// Eager/rendezvous threshold on every rank.
    pub eager_threshold: usize,
    /// Pin the collective algorithm on every rank (`None`: the tuned
    /// size-aware selection; see [`crate::coll`]).
    pub coll_algorithm: Option<CollAlgorithm>,
    /// Progress model. Only a launcher that shares each engine behind a
    /// lock (the binding's `MpiRuntime`) can run the progress thread, so
    /// [`Universe::run`] ignores it.
    pub progress: ProgressMode,
    /// Observability level on every rank (see [`crate::trace`]).
    /// `counters` and `events` additionally enable the transport's frame
    /// counters.
    pub trace: TraceConfig,
    /// Directory for finalize-time trace dumps (`None`:
    /// `<spool root>/trace` when the device has a spool, else no dump).
    pub trace_dir: Option<PathBuf>,
}

impl UniverseConfig {
    /// The job's configuration: the defaults for `size` ranks over
    /// `device`, then the `MPIJAVA_*` environment (read here, once;
    /// warnings on stderr). A field the program writes afterwards wins.
    pub fn new(size: usize, device: DeviceKind) -> UniverseConfig {
        crate::env::resolve(UniverseConfig::defaults(size, device))
    }

    /// The plain defaults, with no environment applied.
    pub(crate) fn defaults(size: usize, device: DeviceKind) -> UniverseConfig {
        UniverseConfig {
            fabric: FabricConfig::new(size, device),
            eager_threshold: DEFAULT_EAGER_THRESHOLD,
            coll_algorithm: None,
            progress: ProgressMode::Manual,
            trace: TraceConfig::off(),
            trace_dir: None,
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
        Self::launch(config, |mut engine| Ok(f(&mut engine)))
    }

    /// The one launcher, which [`Universe::run`] and the binding's
    /// `MpiRuntime::run` are views of: build the fabric `config`
    /// describes, and run `body` on one thread per rank with that rank's
    /// configured engine. It reads no environment:
    /// [`UniverseConfig::new`] already did. Results come back in rank order;
    /// the first failing rank's error is the job's error. A rank that
    /// panics aborts the job (its engine is dropped mid-unwind, which
    /// poisons the peers — see `Engine`'s `Drop`) and is reported as
    /// `rank N panicked: <message>`.
    pub fn launch<T, E, F>(config: UniverseConfig, body: F) -> std::result::Result<Vec<T>, E>
    where
        T: Send,
        E: From<MpiError> + Send,
        F: Fn(Engine) -> std::result::Result<T, E> + Sync,
    {
        if config.fabric.size == 0 {
            return Err(MpiError::new(ErrorClass::Arg, "universe size must be at least 1").into());
        }
        let endpoints = Fabric::build(FabricConfig {
            frame_counters: config.trace.mode != TraceMode::Off,
            ..config.fabric.clone()
        })
        .map_err(MpiError::from)?
        .into_endpoints();
        let config = &config;
        let body = &body;

        std::thread::scope(|scope| {
            let ranks: Vec<_> = endpoints
                .into_iter()
                .map(|endpoint| {
                    scope.spawn(move || {
                        let rank = endpoint.rank();
                        let engine = Engine::with_config(endpoint, config);
                        catch_unwind(AssertUnwindSafe(|| body(engine)))
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
    use mpi_transport::{FaultPlan, NodeMap};
    use std::time::Duration;

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
        let config = UniverseConfig {
            eager_threshold: 64,
            ..UniverseConfig::new(2, DeviceKind::ShmFast)
        };
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
        let mut config = UniverseConfig::new(4, DeviceKind::Hybrid);
        config.fabric.nodes = NodeMap::regular(2, 2);
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
        let mut config = UniverseConfig::new(4, DeviceKind::Hybrid);
        config.fabric.nodes = NodeMap::regular(2, 3);
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
        // Defaults: no spool dir, the stock lease, no faults.
        let plain = UniverseConfig::defaults(2, DeviceKind::ShmFast).fabric;
        assert_eq!(plain.spool_dir, None);
        assert_eq!(plain.lease, mpi_transport::DEFAULT_LEASE);
        assert!(plain.faults.is_empty());

        // The launcher builds exactly the fabric the configuration names.
        let root = std::env::temp_dir().join(format!("universe-config-{}", std::process::id()));
        let mut config = UniverseConfig::new(2, DeviceKind::Spool);
        config.fabric.spool_dir = Some(root.clone());
        config.fabric.lease = Duration::from_millis(4242);
        config.fabric.faults = FaultPlan::parse("kill:1@1").unwrap();
        let seen = Universe::run_with_config(config, |engine| {
            let dir = engine.endpoint.spool_dir().map(PathBuf::from);
            let leases: Vec<_> = engine
                .endpoint
                .peer_liveness()
                .iter()
                .map(|p| p.lease)
                .collect();
            let killed = engine.world_rank() == 1
                && engine
                    .send(crate::comm::COMM_WORLD, 0, 0, b"x", SendMode::Standard)
                    .is_err();
            (dir, leases, killed)
        })
        .unwrap();
        let lease = Duration::from_millis(4242);
        assert_eq!(seen[0], (Some(root.clone()), vec![lease], false));
        assert_eq!(seen[1], (Some(root.clone()), vec![lease], true));
        std::fs::remove_dir_all(&root).unwrap();
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
