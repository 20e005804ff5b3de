//! Failure detection and surfacing: the engine-side half of the
//! fault-tolerance tier.
//!
//! The transport reports dead peers through
//! [`Endpoint::poll_failures`](mpi_transport::Endpoint::poll_failures)
//! (heartbeat lease expiry on the spool device, fault-plan kills on any
//! device). This module turns those reports into *errors instead of
//! hangs*, in the spirit of ULFM's `MPI_ERR_PROC_FAILED`:
//!
//! * the engine's one blocking loop (`Engine::block_on`, behind every
//!   wait, probe and RMA sync) pumps frames through
//!   `Engine::blocking_pump`, which polls for failures on a
//!   bounded-timeout receive instead of parking forever;
//! * when a rank is declared dead, `Engine::on_rank_failed` sweeps the
//!   engine: posted receives that can only be satisfied by the dead rank
//!   (specific-source matches, and — conservatively — `ANY_SOURCE`
//!   receives on any communicator containing it) fail, rendezvous sends
//!   it has not granted fail, granted receives still waiting for its
//!   data fail, in-flight collective schedules on any communicator
//!   containing it are quiesced with the error, and RMA epochs over such
//!   communicators refuse to sync;
//! * new operations naming a dead rank fail immediately at the posting
//!   entry points;
//! * failure is permanent: a restarted process re-attaches to its spool
//!   as a *new* endpoint (see [`mpi_transport::spool`]), it does not
//!   rejoin the old membership.
//!
//! Detection latency is bounded by the lease window plus the engine's
//! poll throttle plus one pump quantum — comfortably under twice the
//! lease for any realistic lease (the acceptance bound of the
//! fault-tolerance suite).

use std::time::{Duration, Instant};

use crate::comm::CommHandle;
use crate::error::{ErrorClass, MpiError, Result};
use crate::request::RequestState;
use crate::trace::{millis_i64, EventKind, EventPhase};
use crate::types::ANY_SOURCE;
use crate::Engine;

/// Bounded park used by every blocking loop: long enough to keep the
/// hot path cheap (one timeout per quantum, frames still delivered
/// immediately), short enough to keep failure-detection latency far
/// below the lease window.
pub(crate) const PUMP_QUANTUM: Duration = Duration::from_millis(5);

/// Throttle on [`Engine::poll_failures`]: transports cache their own
/// lease checks, but even the call itself is kept off the per-frame
/// fast path.
const FAILURE_POLL_INTERVAL: Duration = Duration::from_millis(10);

impl Engine {
    /// World ranks this engine has observed to be dead, in ascending
    /// order.
    pub fn failed_ranks(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.failed_ranks.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Ask the transport for newly-dead ranks and sweep the engine for
    /// each (throttled; cheap to call from any progress loop).
    pub(crate) fn poll_failures(&mut self) -> Result<()> {
        let due = self
            .last_failure_poll
            .is_none_or(|at| at.elapsed() >= FAILURE_POLL_INTERVAL);
        if !due {
            return Ok(());
        }
        self.last_failure_poll = Some(Instant::now());
        if self.tracer.events_on() {
            // One lease observation per peer per due poll: the merged
            // timeline shows each heartbeat age marching toward (or
            // past) the lease, including the victim's last beat.
            let peers = self.endpoint.peer_liveness();
            let now = self.clock_ns();
            for p in peers {
                if let Some(age) = p.heartbeat_age {
                    self.emit_at(
                        now,
                        EventKind::LeaseObserved,
                        EventPhase::Instant,
                        [p.rank as i64, millis_i64(age), millis_i64(p.lease), 0, 0],
                    );
                }
            }
        }
        for rank in self.endpoint.poll_failures() {
            if !self.failed_ranks.contains(&rank) {
                self.on_rank_failed(rank)?;
            }
        }
        Ok(())
    }

    /// Bounded blocking pump: poll for failures, then wait up to one
    /// quantum for a frame. Every formerly-unbounded `endpoint.recv()`
    /// loop goes through this, which is what turns a dead peer into an
    /// error instead of a hang.
    pub(crate) fn blocking_pump(&mut self) -> Result<()> {
        self.poll_failures()?;
        if let Some(frame) = self.endpoint.recv_timeout(PUMP_QUANTUM)? {
            self.on_frame(frame)?;
        }
        Ok(())
    }

    /// The `RankFailed` error for `rank`, carrying the observed
    /// heartbeat staleness when the transport tracks leases (how long
    /// past its lease the last beat was when we looked).
    fn rank_failed_error(&self, rank: usize) -> MpiError {
        let detail = self
            .endpoint
            .peer_liveness()
            .into_iter()
            .find(|p| p.rank == rank)
            .and_then(|p| {
                let age = p.heartbeat_age?;
                Some(match p.staleness() {
                    Some(stale) => format!(
                        "; last heartbeat {}ms ago, {}ms past its {}ms lease",
                        age.as_millis(),
                        stale.as_millis(),
                        p.lease.as_millis()
                    ),
                    None => format!(
                        "; last heartbeat {}ms ago within a {}ms lease",
                        age.as_millis(),
                        p.lease.as_millis()
                    ),
                })
            })
            .unwrap_or_default();
        MpiError::new(
            ErrorClass::RankFailed,
            format!("rank {rank} failed (heartbeat lease expired or killed{detail})"),
        )
    }

    /// Sweep the engine after `dead` (a world rank) is declared failed.
    pub(crate) fn on_rank_failed(&mut self, dead: usize) -> Result<()> {
        self.failed_ranks.insert(dead);
        if self.tracer.events_on() {
            let liveness = self
                .endpoint
                .peer_liveness()
                .into_iter()
                .find(|p| p.rank == dead);
            let (staleness_ms, lease_ms) = liveness
                .map(|p| {
                    (
                        p.staleness().map(millis_i64).unwrap_or(-1),
                        millis_i64(p.lease),
                    )
                })
                .unwrap_or((-1, -1));
            self.emit(
                EventKind::RankFailed,
                EventPhase::Instant,
                [dead as i64, staleness_ms, lease_ms, 0, 0],
            );
        }

        // Posted receives that can only (or, for ANY_SOURCE, might only)
        // be satisfied by the dead rank fail in place.
        let comms = &self.comms;
        let member = |comm: CommHandle| {
            comms
                .get(comm)
                .and_then(Option::as_ref)
                .is_some_and(|record| record.group.rank_of(dead).is_some())
        };
        let mut doomed = self.matching.withdraw_where(|p| match p.want.src {
            Some(src) => src as usize == dead,
            None => member(p.comm),
        });

        // Rendezvous sends the dead rank has not granted, and granted
        // receives awaiting its data frames.
        let dead_u32 = dead as u32;
        self.pending_rendezvous.retain(|_, p| {
            let hit = p.dst_world == dead_u32;
            if hit {
                doomed.push(p.req);
            }
            !hit
        });
        self.awaiting_rendezvous_data.retain(|&(src, _), &mut req| {
            if src == dead_u32 {
                doomed.push(req);
            }
            src != dead_u32
        });
        let error = self.rank_failed_error(dead);
        for req in doomed {
            self.requests.set(req, RequestState::Failed(error.clone()));
        }

        // In-flight collective schedules on any communicator containing
        // the dead rank are quiesced with the error; their owner sees it
        // on the next test/wait.
        let mut i = 0;
        while let Some((id, mut st)) = self.requests.take_schedule(i) {
            let comm = st.comm_handle();
            if matches!(self.comm_rank_of_world(comm, dead), Ok(Some(_))) {
                self.fail_nb(&mut st, error.clone());
            }
            i = self.requests.restore_schedule(i, id, st);
        }
        Ok(())
    }

    /// Error out if `peer` (a rank in `comm`, or [`ANY_SOURCE`]) can no
    /// longer be communicated with. `ANY_SOURCE` fails whenever *any*
    /// member of `comm` is dead (conservative, like ULFM's
    /// `MPI_ERR_PROC_FAILED_PENDING`: a wildcard might have been
    /// destined for the dead rank, and reporting beats hanging).
    pub(crate) fn check_peer_alive(&self, comm: CommHandle, peer: i32) -> Result<()> {
        if self.failed_ranks.is_empty() {
            return Ok(());
        }
        if peer == ANY_SOURCE {
            if let Some(&dead) = self
                .failed_ranks
                .iter()
                .find(|&&d| matches!(self.comm_rank_of_world(comm, d), Ok(Some(_))))
            {
                return Err(self.rank_failed_error(dead));
            }
            return Ok(());
        }
        if peer >= 0 {
            let world = self.world_rank_of(comm, peer as usize)?;
            if self.failed_ranks.contains(&world) {
                return Err(self.rank_failed_error(world));
            }
        }
        Ok(())
    }

    /// Fail an RMA synchronization's wait when any member of the
    /// window's communicator is dead (an epoch cannot close without
    /// every member's markers).
    pub(crate) fn rma_check_failed(&self, comm: CommHandle) -> Result<()> {
        if self.failed_ranks.is_empty() {
            return Ok(());
        }
        if let Some(&dead) = self
            .failed_ranks
            .iter()
            .find(|&&d| matches!(self.comm_rank_of_world(comm, d), Ok(Some(_))))
        {
            return Err(self.rank_failed_error(dead));
        }
        Ok(())
    }

    /// Tear down every outstanding operation so a survivor can
    /// [`Engine::finalize`] after a peer died: posted receives,
    /// rendezvous state and windows are dropped, and every incomplete
    /// request — point-to-point, collective schedule, or a persistent
    /// operation's started iteration — is marked failed, so a late
    /// `wait` on it errors with [`ErrorClass::RankFailed`] instead of
    /// hanging.
    pub(crate) fn abort_outstanding(&mut self) {
        self.matching.withdraw_where(|_| true);
        self.pending_rendezvous.clear();
        self.awaiting_rendezvous_data.clear();
        self.windows.clear();
        self.requests.fail_incomplete(&MpiError::new(
            ErrorClass::RankFailed,
            "operation aborted: the job shut down after a rank failure",
        ));
    }

    /// The blocking probe's guard: fail when its source is dead.
    pub(crate) fn probe_check_failed(&self, comm: CommHandle, src: i32) -> Result<()> {
        self.check_peer_alive(comm, src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::COMM_WORLD;
    use mpi_transport::{DeviceKind, Fabric, FabricConfig, FaultPlan};

    fn fault_pair(plan: &str) -> Vec<Engine> {
        let lease = Duration::from_millis(40);
        let eps = Fabric::build(FabricConfig {
            faults: FaultPlan::parse(plan).unwrap(),
            lease,
            ..FabricConfig::new(2, DeviceKind::ShmFast)
        })
        .unwrap()
        .into_endpoints();
        eps.into_iter().map(Engine::new).collect()
    }

    #[test]
    fn posted_recv_from_a_dead_rank_fails_instead_of_hanging() {
        let mut engines = fault_pair("kill:1@1");
        let mut survivor = engines.remove(0);
        let req = survivor.irecv(COMM_WORLD, 1, 7, None).unwrap();
        // Nothing from rank 1 will ever arrive; its death is injected
        // directly (the transport-level lease path is covered in the
        // integration suite).
        survivor.on_rank_failed(1).unwrap();
        let e = survivor.wait(req).unwrap_err();
        assert_eq!(e.class, ErrorClass::RankFailed);
        assert_eq!(survivor.failed_ranks(), vec![1]);
    }

    #[test]
    fn new_operations_naming_a_dead_rank_fail_immediately() {
        let mut engines = fault_pair("kill:1@1");
        let mut survivor = engines.remove(0);
        survivor.on_rank_failed(1).unwrap();
        let e = survivor
            .isend(COMM_WORLD, 1, 3, b"x", crate::types::SendMode::Standard)
            .unwrap_err();
        assert_eq!(e.class, ErrorClass::RankFailed);
        let e = survivor.irecv(COMM_WORLD, 1, 3, None).unwrap_err();
        assert_eq!(e.class, ErrorClass::RankFailed);
        // ANY_SOURCE is conservative: world contains the dead rank.
        let e = survivor.irecv(COMM_WORLD, ANY_SOURCE, 3, None).unwrap_err();
        assert_eq!(e.class, ErrorClass::RankFailed);
        // COMM_SELF does not contain the dead rank; self-traffic still works.
        assert!(survivor
            .irecv(crate::comm::COMM_SELF, ANY_SOURCE, 3, None)
            .is_ok());
    }

    #[test]
    fn finalize_succeeds_after_a_failure_with_outstanding_operations() {
        let mut engines = fault_pair("kill:1@1");
        let mut survivor = engines.remove(0);
        let req = survivor.irecv(COMM_WORLD, ANY_SOURCE, 7, None).unwrap();
        survivor.on_rank_failed(1).unwrap();
        // The posted receive failed; finalize must clean up, not refuse.
        survivor.finalize().unwrap();
        assert!(survivor.is_finalized());
        let e = survivor.wait(req).unwrap_err();
        assert_eq!(e.class, ErrorClass::RankFailed);
    }
}
