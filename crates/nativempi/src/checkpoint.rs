//! Checkpoint/restart over the spool device.
//!
//! The spool fabric (see [`mpi_transport::spool`]) keeps every
//! in-flight frame as a file, so message state survives a process by
//! construction — the only thing a restarted rank can lose is its
//! engine counters (token, request and context allocators, and the
//! per-communicator collective/window sequence counters that keep tag
//! channels symmetric). [`Engine::checkpoint`] persists exactly those
//! counters under the rank's spool directory; [`Engine::restore`]
//! rebuilds an engine over a freshly [`attached`](
//! mpi_transport::spool::SpoolDevice::attach) endpoint and replays them,
//! after which the engine drains whatever frames were spooled for it
//! while it was gone.
//!
//! The record is a plain `key=value` text file, published with the same
//! write-to-temp + rename commit the spool's frames use, so a crash
//! mid-checkpoint leaves the previous record intact:
//!
//! ```text
//! mpijava-checkpoint v1
//! next_token=42
//! next_request=17
//! next_context=6
//! coll_seq.0=3
//! win_seq.0=1
//! ```
//!
//! Counters are restored with `max(persisted, fresh)` so restoring into
//! an engine that already did work can only move allocators forward —
//! tokens and request ids must never be reissued (a reissued token could
//! match a stale rendezvous still sitting in the spool).
//!
//! A `coll_seq.N` / `win_seq.N` line names a communicator by handle, and
//! it is applied only if handle `N` exists at restore: `MPI_COMM_WORLD`
//! and `MPI_COMM_SELF`. Handles are never reused, so a restarted rank's
//! later communicators are new ones, which start at 0 like their peers'
//! copies; a saved counter for any other handle belonged to a
//! communicator that is gone, and is skipped like an unknown key.

use std::fs;
use std::path::PathBuf;

use mpi_transport::Endpoint;

use crate::error::{err, ErrorClass, MpiError, Result};
use crate::Engine;

const MAGIC: &str = "mpijava-checkpoint v1";

impl Engine {
    /// Persist this rank's engine counters under its spool directory and
    /// return the record's path. Requires a spool-backed endpoint
    /// (anything else has no persistent substrate to restart from).
    ///
    /// Frames need no flushing: every send was already committed to the
    /// spool by rename before the sending call returned.
    pub fn checkpoint(&mut self) -> Result<PathBuf> {
        let root = self.endpoint.spool_dir().ok_or_else(|| {
            MpiError::new(
                ErrorClass::Unsupported,
                "checkpoint requires a spool-backed fabric (DeviceKind::Spool)",
            )
        })?;
        let rank_dir = root.join(format!("rank{:05}", self.world_rank));
        let mut record = String::new();
        record.push_str(MAGIC);
        record.push('\n');
        record.push_str(&format!("next_token={}\n", self.next_token));
        record.push_str(&format!("next_request={}\n", self.next_request));
        record.push_str(&format!("next_context={}\n", self.next_context));
        let live = || {
            self.comms
                .iter()
                .enumerate()
                .filter_map(|(comm, c)| Some((comm, c.as_ref()?)))
        };
        for (comm, c) in live().filter(|(_, c)| c.coll_seq > 0) {
            record.push_str(&format!("coll_seq.{comm}={}\n", c.coll_seq));
        }
        for (comm, c) in live().filter(|(_, c)| c.win_seq > 0) {
            record.push_str(&format!("win_seq.{comm}={}\n", c.win_seq));
        }
        let tmp = rank_dir.join("tmp").join("checkpoint.tmp");
        let path = rank_dir.join("checkpoint");
        fs::write(&tmp, record.as_bytes()).map_err(io_err)?;
        fs::rename(&tmp, &path).map_err(io_err)?;
        Ok(path)
    }

    /// Build an engine over `endpoint` and, if the rank's spool
    /// directory holds a checkpoint record, replay its counters (taking
    /// the max against the fresh engine's own, so allocators only move
    /// forward). Without a record this is exactly [`Engine::new`] — a
    /// first-time late joiner restores from nothing.
    pub fn restore(endpoint: Box<dyn Endpoint>) -> Result<Engine> {
        let mut engine = Engine::new(endpoint);
        let Some(root) = engine.endpoint.spool_dir() else {
            return err(
                ErrorClass::Unsupported,
                "restore requires a spool-backed fabric (DeviceKind::Spool)",
            );
        };
        let path = root
            .join(format!("rank{:05}", engine.world_rank))
            .join("checkpoint");
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(engine),
            Err(e) => return Err(io_err(e)),
        };
        let mut lines = text.lines();
        if lines.next() != Some(MAGIC) {
            return err(
                ErrorClass::Other,
                format!("unrecognized checkpoint record at {}", path.display()),
            );
        }
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return err(
                    ErrorClass::Other,
                    format!("malformed checkpoint line `{line}`"),
                );
            };
            let parse = |v: &str| -> Result<u64> {
                v.parse().map_err(|_| {
                    MpiError::new(
                        ErrorClass::Other,
                        format!("malformed checkpoint value in `{line}`"),
                    )
                })
            };
            match key {
                "next_token" => engine.next_token = engine.next_token.max(parse(value)?),
                "next_request" => engine.next_request = engine.next_request.max(parse(value)?),
                "next_context" => {
                    engine.next_context = engine.next_context.max(parse(value)? as u32)
                }
                k if k.starts_with("coll_seq.") => {
                    let (comm, seq) = (parse_handle(k, "coll_seq.")?, parse(value)?);
                    // Only communicators that exist now (see the module docs).
                    if let Ok(record) = engine.comm_mut(comm) {
                        record.coll_seq = record.coll_seq.max(seq);
                    }
                }
                k if k.starts_with("win_seq.") => {
                    let (comm, seq) = (parse_handle(k, "win_seq.")?, parse(value)?);
                    if let Ok(record) = engine.comm_mut(comm) {
                        record.win_seq = record.win_seq.max(seq);
                    }
                }
                _ => {
                    // Unknown keys from a newer writer are skipped; the
                    // counters above are the compatibility floor.
                }
            }
        }
        Ok(engine)
    }
}

fn parse_handle(key: &str, prefix: &str) -> Result<usize> {
    key[prefix.len()..].parse().map_err(|_| {
        MpiError::new(
            ErrorClass::Other,
            format!("malformed checkpoint key `{key}`"),
        )
    })
}

fn io_err(e: std::io::Error) -> MpiError {
    MpiError::new(ErrorClass::Other, format!("checkpoint I/O failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coll::{CollDesc, Payload};
    use crate::comm::COMM_WORLD;
    use crate::types::SendMode;
    use mpi_transport::spool::SpoolDevice;
    use mpi_transport::{DeviceKind, Fabric, FabricConfig};
    use std::time::Duration;

    #[test]
    fn checkpoint_requires_a_spool_fabric() {
        let mut eps = Fabric::build(FabricConfig::new(1, DeviceKind::ShmFast))
            .unwrap()
            .into_endpoints();
        let mut engine = Engine::new(eps.pop().unwrap());
        let e = engine.checkpoint().unwrap_err();
        assert_eq!(e.class, ErrorClass::Unsupported);
    }

    #[test]
    fn counters_roundtrip_and_only_move_forward() {
        let root = std::env::temp_dir().join(format!(
            "mpijava-ckpt-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let lease = Duration::from_millis(500);
        {
            let eps = Fabric::build(FabricConfig {
                spool_dir: Some(root.clone()),
                lease,
                ..FabricConfig::new(2, DeviceKind::Spool)
            })
            .unwrap()
            .into_endpoints();
            let mut engines: Vec<Engine> = eps.into_iter().map(Engine::new).collect();
            // Advance rank 0's counters with real traffic (self-sends so
            // no peer is needed), then checkpoint.
            for i in 0..3 {
                engines[0]
                    .send(crate::comm::COMM_SELF, 0, i, b"tick", SendMode::Standard)
                    .unwrap();
                engines[0].recv(crate::comm::COMM_SELF, 0, i, None).unwrap();
            }
            let barrier = (&CollDesc::Barrier, Payload::Bytes(&[]));
            engines[0]
                .coll_run(crate::comm::COMM_SELF, barrier.0, barrier.1)
                .unwrap();
            let path = engines[0].checkpoint().unwrap();
            let text = fs::read_to_string(path).unwrap();
            assert!(text.starts_with(MAGIC));
            assert!(text.contains("next_token="));
            // Also leave a frame spooled for rank 0 from rank 1.
            engines[1]
                .send(COMM_WORLD, 0, 9, b"for-later", SendMode::Standard)
                .unwrap();
        }
        // Restart rank 0 on the persisted spool.
        let ep = SpoolDevice::attach(&root, 0, 2, lease).unwrap();
        let restored = Engine::restore(Box::new(ep)).unwrap();
        assert!(
            restored.next_token > 1,
            "token allocator must resume, not reset"
        );
        assert!(restored.next_request > 1);
        let mut restored = restored;
        // The spooled frame from before the restart is still deliverable.
        let (data, status) = restored.recv(COMM_WORLD, 1, 9, None).unwrap();
        assert_eq!(&data[..], b"for-later");
        assert_eq!(status.source, 1);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn restore_without_a_record_is_a_fresh_engine() {
        let root = std::env::temp_dir().join(format!(
            "mpijava-ckpt-test-{}-{}",
            std::process::id(),
            line!()
        ));
        {
            let _eps = Fabric::build(FabricConfig {
                spool_dir: Some(root.clone()),
                ..FabricConfig::new(1, DeviceKind::Spool)
            })
            .unwrap();
        }
        let ep = SpoolDevice::attach(&root, 0, 1, Duration::from_millis(500)).unwrap();
        let engine = Engine::restore(Box::new(ep)).unwrap();
        assert_eq!(engine.next_token, 1);
        fs::remove_dir_all(&root).unwrap();
    }

    /// Saved sequence counters go only to communicators that exist at
    /// restore. A communicator the restarted rank creates takes a fresh
    /// handle and starts at 0, as its peers' copies do, even when the
    /// record names that handle.
    #[test]
    fn restore_applies_saved_counters_only_to_existing_communicators() {
        let root = std::env::temp_dir().join(format!(
            "mpijava-ckpt-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let lease = Duration::from_millis(500);
        {
            let _eps = Fabric::build(FabricConfig {
                spool_dir: Some(root.clone()),
                lease,
                ..FabricConfig::new(1, DeviceKind::Spool)
            })
            .unwrap();
        }
        let record = format!("{MAGIC}\ncoll_seq.0=7\nwin_seq.1=4\ncoll_seq.2=3\nwin_seq.2=5\n");
        fs::write(root.join("rank00000").join("checkpoint"), record).unwrap();
        let ep = SpoolDevice::attach(&root, 0, 1, lease).unwrap();
        let mut engine = Engine::restore(Box::new(ep)).unwrap();
        assert_eq!(engine.comm(COMM_WORLD).unwrap().coll_seq, 7);
        assert_eq!(engine.comm(crate::comm::COMM_SELF).unwrap().win_seq, 4);
        let dup = engine.comm_dup(COMM_WORLD).unwrap();
        assert_eq!(dup, 2, "the record names the handle the dup takes");
        let record = engine.comm(dup).unwrap();
        assert_eq!((record.coll_seq, record.win_seq), (0, 0));
        fs::remove_dir_all(&root).unwrap();
    }
}
