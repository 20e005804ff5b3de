//! Deterministic fault injection for any fabric.
//!
//! The robustness tier (failure detection, error surfacing) needs a way
//! to kill a rank *mid-operation* that is reproducible in a unit test —
//! real process kills are timing-dependent and flaky. A [`FaultPlan`]
//! attached to a [`FabricConfig`](crate::FabricConfig) wraps every
//! endpoint of the fabric in a [`FaultEndpoint`] that executes the plan
//! deterministically:
//!
//! * [`FaultAction::KillRank`] — the rank dies immediately before its
//!   N-th send (1-based, counting every frame the engine pushes through
//!   the endpoint). From that instant every operation on the dead rank's
//!   own endpoint fails with [`TransportError::RankFailed`], and — one
//!   lease window later, modelling heartbeat expiry — every *surviving*
//!   endpoint reports the death through
//!   [`Endpoint::poll_failures`].
//! * [`FaultAction::DropFrame`] — the N-th frame from `src` to `dst` is
//!   silently discarded (the transport's "never dropped" guarantee is
//!   deliberately broken; the engine above has no retransmit, so this is
//!   for testing that *lost traffic surfaces as an error, not a hang*).
//! * [`FaultAction::DelayFrame`] — the N-th frame from `src` to `dst`
//!   is held for a fixed duration before delivery.
//!
//! The grammar parsed by [`FaultPlan::parse`] (and exposed through the
//! `MPIJAVA_FAULT` environment variable — see the engine's `env`
//! module):
//!
//! ```text
//! plan   := action ("," action)*
//! action := "kill:" rank "@" n
//!         | "drop:" src "->" dst "@" n
//!         | "delay:" src "->" dst "@" n ":" millis "ms"?
//! ```
//!
//! e.g. `MPIJAVA_FAULT=kill:2@5` (rank 2 dies on its 5th send) or
//! `MPIJAVA_FAULT=drop:0->1@1,delay:0->1@2:50`. A delay above
//! [`MAX_FAULT_DELAY`] is malformed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::error::{Result, TransportError};
use crate::frame::Frame;
use crate::nodemap::NodeMap;
use crate::{DeviceKind, Endpoint, PeerLiveness};

/// The longest delay a parsed plan may hold a frame: ten seconds, ten
/// default lease windows and far above the 25–150 ms that the tests and
/// the straggler drill plant. The sender sleeps the whole delay, so a
/// larger one would stall its rank for as long, with nothing to say why.
pub const MAX_FAULT_DELAY: Duration = Duration::from_secs(10);

/// One deterministic fault. Operation counts are 1-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// `rank` dies immediately before its `at_op`-th send.
    KillRank { rank: usize, at_op: u64 },
    /// The `nth` frame from `src` to `dst` is silently discarded.
    DropFrame { src: usize, dst: usize, nth: u64 },
    /// The `nth` frame from `src` to `dst` is delayed by `delay`.
    DelayFrame {
        src: usize,
        dst: usize,
        nth: u64,
        delay: Duration,
    },
}

/// A set of deterministic faults to inject into a fabric (see the module
/// docs for the grammar and semantics). The default plan is empty — no
/// wrapping, zero overhead.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The faults, executed independently of each other.
    pub actions: Vec<FaultAction>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Add an action (builder style).
    pub fn with(mut self, action: FaultAction) -> FaultPlan {
        self.actions.push(action);
        self
    }

    /// Parse the `MPIJAVA_FAULT` grammar (see the module docs). Returns a
    /// human-readable reason on malformed input; the caller decides
    /// whether to warn-and-ignore (the env path) or propagate.
    pub fn parse(raw: &str) -> std::result::Result<FaultPlan, String> {
        let mut plan = FaultPlan::none();
        for part in raw.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (verb, rest) = part
                .split_once(':')
                .ok_or_else(|| format!("`{part}`: expected `verb:...`"))?;
            match verb.trim() {
                "kill" => {
                    let (rank, at_op) = rest
                        .split_once('@')
                        .ok_or_else(|| format!("`{part}`: expected `kill:<rank>@<n>`"))?;
                    plan.actions.push(FaultAction::KillRank {
                        rank: parse_num(rank, part)? as usize,
                        at_op: parse_op(at_op, part)?,
                    });
                }
                "drop" => {
                    let (pair, nth) = rest
                        .split_once('@')
                        .ok_or_else(|| format!("`{part}`: expected `drop:<src>-><dst>@<n>`"))?;
                    let (src, dst) = parse_pair(pair, part)?;
                    plan.actions.push(FaultAction::DropFrame {
                        src,
                        dst,
                        nth: parse_op(nth, part)?,
                    });
                }
                "delay" => {
                    let (pair, tail) = rest.split_once('@').ok_or_else(|| {
                        format!("`{part}`: expected `delay:<src>-><dst>@<n>:<ms>`")
                    })?;
                    let (src, dst) = parse_pair(pair, part)?;
                    let (nth, ms) = tail.split_once(':').ok_or_else(|| {
                        format!("`{part}`: expected `delay:<src>-><dst>@<n>:<ms>`")
                    })?;
                    let delay =
                        Duration::from_millis(parse_num(ms.trim().trim_end_matches("ms"), part)?);
                    if delay > MAX_FAULT_DELAY {
                        let max = MAX_FAULT_DELAY.as_millis();
                        return Err(format!("`{part}`: a delay above {max} ms"));
                    }
                    plan.actions.push(FaultAction::DelayFrame {
                        src,
                        dst,
                        nth: parse_op(nth, part)?,
                        delay,
                    });
                }
                other => return Err(format!("`{part}`: unknown fault verb `{other}`")),
            }
        }
        Ok(plan)
    }

    /// Largest rank the plan mentions, for validation against a fabric
    /// size.
    pub fn max_rank(&self) -> Option<usize> {
        self.actions
            .iter()
            .map(|a| match *a {
                FaultAction::KillRank { rank, .. } => rank,
                FaultAction::DropFrame { src, dst, .. }
                | FaultAction::DelayFrame { src, dst, .. } => src.max(dst),
            })
            .max()
    }
}

fn parse_num(raw: &str, ctx: &str) -> std::result::Result<u64, String> {
    raw.trim()
        .parse::<u64>()
        .map_err(|_| format!("`{ctx}`: `{raw}` is not a number"))
}

fn parse_op(raw: &str, ctx: &str) -> std::result::Result<u64, String> {
    let n = parse_num(raw, ctx)?;
    if n == 0 {
        return Err(format!("`{ctx}`: operation counts are 1-based"));
    }
    Ok(n)
}

fn parse_pair(raw: &str, ctx: &str) -> std::result::Result<(usize, usize), String> {
    let (src, dst) = raw
        .split_once("->")
        .ok_or_else(|| format!("`{ctx}`: expected `<src>-><dst>`"))?;
    Ok((parse_num(src, ctx)? as usize, parse_num(dst, ctx)? as usize))
}

/// State shared by every [`FaultEndpoint`] of one fabric: per-rank send
/// counters, per-pair frame counters, and the kill ledger peers consult
/// to report failures after the lease window.
#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    /// Total sends attempted per rank (drives `kill` op counts).
    send_ops: Vec<AtomicU64>,
    /// Frames attempted per ordered (src, dst) pair (drives drop/delay).
    pair_counts: Mutex<HashMap<(usize, usize), u64>>,
    /// Ranks killed by the plan, with the kill instant: peers report the
    /// death one lease window later, modelling heartbeat expiry.
    killed: Mutex<HashMap<usize, Instant>>,
}

/// An [`Endpoint`] wrapper executing a [`FaultPlan`]. Built by
/// [`Fabric::build`](crate::Fabric::build) whenever the config's plan is
/// non-empty; delegates everything else to the wrapped device.
pub struct FaultEndpoint {
    inner: Box<dyn Endpoint>,
    state: Arc<FaultState>,
    lease: Duration,
}

impl FaultEndpoint {
    /// Wrap every endpoint of a fabric in the same shared plan.
    pub(crate) fn wrap(
        endpoints: Vec<Box<dyn Endpoint>>,
        plan: FaultPlan,
        lease: Duration,
    ) -> Vec<Box<dyn Endpoint>> {
        let state = Arc::new(FaultState {
            send_ops: (0..endpoints.len()).map(|_| AtomicU64::new(0)).collect(),
            pair_counts: Mutex::new(HashMap::new()),
            killed: Mutex::new(HashMap::new()),
            plan,
        });
        endpoints
            .into_iter()
            .map(|inner| {
                Box::new(FaultEndpoint {
                    inner,
                    state: Arc::clone(&state),
                    lease,
                }) as Box<dyn Endpoint>
            })
            .collect()
    }

    fn self_dead(&self) -> Result<()> {
        if self
            .state
            .killed
            .lock()
            .expect("fault ledger poisoned")
            .contains_key(&self.inner.rank())
        {
            return Err(TransportError::RankFailed {
                rank: self.inner.rank(),
            });
        }
        Ok(())
    }
}

impl Endpoint for FaultEndpoint {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send(&self, frame: Frame) -> Result<()> {
        let me = self.inner.rank();
        self.self_dead()?;
        let op = self.state.send_ops[me].fetch_add(1, Ordering::Relaxed) + 1;
        for action in &self.state.plan.actions {
            if let FaultAction::KillRank { rank, at_op } = *action {
                if rank == me && op >= at_op {
                    self.state
                        .killed
                        .lock()
                        .expect("fault ledger poisoned")
                        .entry(me)
                        .or_insert_with(Instant::now);
                    return Err(TransportError::RankFailed { rank: me });
                }
            }
        }
        let dst = frame.header.dst as usize;
        let nth = {
            let mut counts = self.state.pair_counts.lock().expect("fault counters");
            let n = counts.entry((me, dst)).or_insert(0);
            *n += 1;
            *n
        };
        for action in &self.state.plan.actions {
            match *action {
                FaultAction::DropFrame {
                    src,
                    dst: d,
                    nth: n,
                } if src == me && d == dst && n == nth => {
                    return Ok(()); // swallowed
                }
                FaultAction::DelayFrame {
                    src,
                    dst: d,
                    nth: n,
                    delay,
                } if src == me && d == dst && n == nth => {
                    std::thread::sleep(delay);
                }
                _ => {}
            }
        }
        self.inner.send(frame)
    }

    fn recv(&self) -> Result<Frame> {
        self.self_dead()?;
        self.inner.recv()
    }

    fn try_recv(&self) -> Result<Option<Frame>> {
        self.self_dead()?;
        self.inner.try_recv()
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Frame>> {
        self.self_dead()?;
        self.inner.recv_timeout(timeout)
    }

    fn kind(&self) -> DeviceKind {
        self.inner.kind()
    }

    fn node_map(&self) -> &NodeMap {
        self.inner.node_map()
    }

    fn poll_failures(&self) -> Vec<usize> {
        let mut dead = self.inner.poll_failures();
        let killed = self.state.killed.lock().expect("fault ledger poisoned");
        for (&rank, &at) in killed.iter() {
            if rank != self.inner.rank() && at.elapsed() >= self.lease && !dead.contains(&rank) {
                dead.push(rank);
            }
        }
        dead
    }

    fn spool_dir(&self) -> Option<&std::path::Path> {
        self.inner.spool_dir()
    }

    fn peer_liveness(&self) -> Vec<PeerLiveness> {
        let mut peers = self.inner.peer_liveness();
        let killed = self.state.killed.lock().expect("fault ledger poisoned");
        for (&rank, &at) in killed.iter() {
            if rank == self.inner.rank() {
                continue;
            }
            // A fault-plan kill silences the rank's heartbeat from the
            // kill instant, whatever the inner device thinks it saw.
            let age = at.elapsed();
            let dead = age >= self.lease;
            match peers.iter_mut().find(|p| p.rank == rank) {
                Some(p) => {
                    if p.heartbeat_age.is_none_or(|a| a < age) {
                        p.heartbeat_age = Some(age);
                    }
                    p.dead = p.dead || dead;
                }
                None => peers.push(PeerLiveness {
                    rank,
                    heartbeat_age: Some(age),
                    lease: self.lease,
                    dead,
                }),
            }
        }
        peers
    }

    fn frame_stats(&self) -> Option<crate::FrameStats> {
        self.inner.frame_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FrameHeader, FrameKind};
    use crate::{Fabric, FabricConfig};
    use bytes::Bytes;

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
    fn grammar_roundtrips() {
        let plan = FaultPlan::parse("kill:2@5, drop:0->1@1, delay:0->1@2:50ms").unwrap();
        assert_eq!(
            plan.actions,
            vec![
                FaultAction::KillRank { rank: 2, at_op: 5 },
                FaultAction::DropFrame {
                    src: 0,
                    dst: 1,
                    nth: 1
                },
                FaultAction::DelayFrame {
                    src: 0,
                    dst: 1,
                    nth: 2,
                    delay: Duration::from_millis(50)
                },
            ]
        );
        assert_eq!(plan.max_rank(), Some(2));
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn malformed_plans_are_rejected_with_reasons() {
        for bad in [
            "kill:2",                            // missing @n
            "kill:x@1",                          // not a number
            "kill:1@0",                          // 0-based op count
            "drop:0-1@1",                        // bad pair separator
            "delay:0->1@1",                      // missing millis
            "delay:0->1@1:18446744073709551615", // above the ceiling
            "delay:0->1@1:10001ms",              // above the ceiling
            "teleport:1@1",                      // unknown verb
        ] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(err.contains(bad), "error `{err}` should cite `{bad}`");
        }
    }

    #[test]
    fn killed_rank_errors_and_peers_report_it_after_the_lease() {
        let lease = Duration::from_millis(40);
        let config = FabricConfig {
            faults: FaultPlan::parse("kill:0@2").unwrap(),
            lease,
            ..FabricConfig::new(2, DeviceKind::ShmFast)
        };
        let eps = Fabric::build(config).unwrap().into_endpoints();
        eps[0].send(frame(0, 1, 1, b"first")).unwrap();
        // The 2nd send kills rank 0; its own ops fail from then on.
        assert!(matches!(
            eps[0].send(frame(0, 1, 2, b"second")),
            Err(TransportError::RankFailed { rank: 0 })
        ));
        assert!(matches!(
            eps[0].try_recv(),
            Err(TransportError::RankFailed { rank: 0 })
        ));
        // Peers see the death only after the lease window.
        assert!(eps[1].poll_failures().is_empty());
        std::thread::sleep(lease + Duration::from_millis(20));
        assert_eq!(eps[1].poll_failures(), vec![0]);
        // Traffic sent before the kill is still deliverable.
        assert_eq!(&eps[1].recv().unwrap().payload[..], b"first");
    }

    #[test]
    fn drop_and_delay_hit_exactly_the_named_frames() {
        let config = FabricConfig {
            faults: FaultPlan::parse("drop:0->1@1,delay:0->1@2:30").unwrap(),
            ..FabricConfig::new(2, DeviceKind::ShmFast)
        };
        let eps = Fabric::build(config).unwrap().into_endpoints();
        eps[0].send(frame(0, 1, 1, b"dropped")).unwrap();
        let start = Instant::now();
        eps[0].send(frame(0, 1, 2, b"delayed")).unwrap();
        assert!(
            start.elapsed() >= Duration::from_millis(25),
            "2nd frame not delayed"
        );
        eps[0].send(frame(0, 1, 3, b"clean")).unwrap();
        // The dropped frame never arrives; the delayed and clean ones do, in order.
        assert_eq!(eps[1].recv().unwrap().header.tag, 2);
        assert_eq!(eps[1].recv().unwrap().header.tag, 3);
        assert!(eps[1].try_recv().unwrap().is_none());
    }
}
