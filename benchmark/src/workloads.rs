//! The six workloads and the ladder of levels the traced run climbs.
//! Names are a contract: later issues cite them.

use mpijava::{MarshalMode, MpiResult, MPI};

use crate::kernels::{
    Allreduce, Api, CollApi, Jacobi, JacobiShape, Kernel, PingPong, Stream, StreamSync,
    STREAM_BATCH,
};

/// Which operation a workload's surface levels time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Ping-pong; one operation is a one-way message.
    P2p,
    /// Allreduce; one operation is one allreduce.
    Coll,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Surface {
    PingPong,
    Stream,
    Allreduce,
    Jacobi,
}

pub struct Workload {
    pub name: &'static str,
    /// Why this workload is in the set (one line, copied to BENCHMARK.json).
    pub why: &'static str,
    /// What one operation is.
    pub op: &'static str,
    pub surface: Surface,
    /// Which ladder the traced run climbs for it, at `payload` bytes.
    pub family: Family,
    pub payload: usize,
    /// Units per window, each calibrated to a window of roughly 10-25 ms
    /// at c8917c3 on the 2-vCPU runner: surface units (round trips,
    /// 256-message batches, allreduces, Jacobi steps), round trips of the
    /// p2p ladder levels, and operations of the collective ladder levels.
    pub surface_units: u64,
    pub p2p_pairs: u64,
    pub coll_ops: u64,
    /// Human-readable rate printed beside `op_us_p50`.
    pub rate_unit: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "pingpong.1B",
        why: "Table 1's cell: one park/wake per message dominates, so only fixed per-message cost and wait strategy can move it",
        op: "one-way 1-byte message over classic Intracomm send/recv (RTT/2)",
        surface: Surface::PingPong,
        family: Family::P2p,
        payload: 1,
        surface_units: 500,
        p2p_pairs: 500,
        coll_ops: 500,
        rate_unit: "msgs/s",
    },
    Workload {
        name: "pingpong.1MiB",
        why: "Figure 5's right edge: the rendezvous path and the jni marshal copies dominate, fixed costs vanish; copy removal shows here and must not show on pingpong.1B",
        op: "one-way 1 MiB message over classic Intracomm send/recv (RTT/2)",
        surface: Surface::PingPong,
        family: Family::P2p,
        payload: 1 << 20,
        surface_units: 2,
        p2p_pairs: 2,
        coll_ops: 8,
        rate_unit: "MB/s",
    },
    Workload {
        name: "stream.64B",
        why: "nobody parks per message: matching, queueing and allocation are what is left, so a wait-strategy change that helps pingpong.1B has nothing to gain here and can only cost",
        op: "one 64-byte rs isend/irecv_into message, in batches of 256 plus one ack; even batches pre-post the receives, odd batches post them after arrival",
        surface: Surface::Stream,
        family: Family::P2p,
        payload: 64,
        surface_units: 32,
        p2p_pairs: 500,
        coll_ops: 500,
        rate_unit: "msgs/s",
    },
    Workload {
        name: "allreduce.4KiB",
        why: "ROADMAP item 1's target: schedule-executor fixed cost plus one wake per round; staging copies are noise here",
        op: "one classic Intracomm allreduce of 1024 MPI.INT, SUM",
        surface: Surface::Allreduce,
        family: Family::Coll,
        payload: 4096,
        surface_units: 500,
        p2p_pairs: 500,
        coll_ops: 500,
        rate_unit: "ops/s",
    },
    Workload {
        name: "allreduce.1MiB",
        why: "ROADMAP item 2's target: to_vec/extend_from_slice staging and the reduction loop dominate; executor fixed cost is noise here",
        op: "one classic Intracomm allreduce of 262144 MPI.INT, SUM",
        surface: Surface::Allreduce,
        family: Family::Coll,
        payload: 1 << 20,
        surface_units: 8,
        p2p_pairs: 2,
        coll_ops: 8,
        rate_unit: "MB/s",
    },
    Workload {
        name: "halo.jacobi",
        why: "the application control: compute is most of a step, so communication changes should move it by less than its bound; drives the f64 marshal and Cartcomm paths",
        op: "one step of 1024x1024 f64 Jacobi on a 2-strip Cartcomm: two rs sendrecv of 8 KiB halo rows, a one-f64 all_reduce every 10 steps",
        surface: Surface::Jacobi,
        family: Family::P2p,
        payload: 8192,
        surface_units: 20,
        p2p_pairs: 300,
        coll_ops: 300,
        rate_unit: "steps/s",
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// `op_us` as the workload's human rate.
    pub fn rate(&self, op_us: f64) -> f64 {
        match self.rate_unit {
            "MB/s" => self.payload as f64 / op_us,
            _ => 1e6 / op_us,
        }
    }

    /// Surface units in one window (stream windows hold as many
    /// pre-posted as post-after-arrival batches).
    fn window_units(&self, scale: &Scale) -> u64 {
        scale.units(self.surface_units, self.surface == Surface::Stream)
    }

    /// Operations in one surface window.
    pub fn ops_per_window(&self, scale: &Scale) -> u64 {
        let units = self.window_units(scale);
        match self.surface {
            Surface::PingPong => 2 * units,
            Surface::Stream => STREAM_BATCH as u64 * units,
            Surface::Allreduce | Surface::Jacobi => units,
        }
    }
}

/// `--smoke` divides every count by 100 and shortens the Jacobi
/// verification, so that all six workloads finish in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub smoke: bool,
}

impl Scale {
    pub fn units(&self, full: u64, even: bool) -> u64 {
        let units = if self.smoke {
            (full / 100).max(1)
        } else {
            full
        };
        // Stream windows hold as many pre-posted as send-first batches.
        if even {
            units.next_multiple_of(2)
        } else {
            units
        }
    }

    pub fn jacobi(&self) -> JacobiShape {
        JacobiShape {
            n: 1024,
            verify_steps: if self.smoke { 5 } else { 100 },
            residual_every: if self.smoke { 5 } else { 10 },
        }
    }
}

/// One rung of the ladder of the traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    Transport,
    EngineP2p,
    EngineExchange,
    EngineColl,
    ClassicCopy,
    ClassicPin,
    Rs,
}

pub const LADDER: [Level; 7] = [
    Level::Transport,
    Level::EngineP2p,
    Level::EngineExchange,
    Level::EngineColl,
    Level::ClassicCopy,
    Level::ClassicPin,
    Level::Rs,
];

impl Level {
    pub fn name(self) -> &'static str {
        match self {
            Level::Transport => "transport",
            Level::EngineP2p => "engine.p2p",
            Level::EngineExchange => "engine.exchange",
            Level::EngineColl => "engine.coll",
            Level::ClassicCopy => "classic.copy",
            Level::ClassicPin => "classic.pin",
            Level::Rs => "rs",
        }
    }

    /// The level whose time this one's self time is measured against.
    pub fn parent(self, family: Family) -> Option<Level> {
        let engine = match family {
            Family::P2p => Level::EngineP2p,
            Family::Coll => Level::EngineColl,
        };
        match self {
            Level::Transport => None,
            Level::EngineP2p | Level::EngineExchange => Some(Level::Transport),
            Level::EngineColl => Some(Level::EngineExchange),
            Level::ClassicCopy | Level::ClassicPin => Some(engine),
            Level::Rs => Some(Level::ClassicCopy),
        }
    }

    pub fn marshal(self) -> MarshalMode {
        match self {
            Level::ClassicPin => MarshalMode::Pin,
            _ => MarshalMode::Copy,
        }
    }
}

/// Which kernel of a workload a pass runs.
#[derive(Clone, Copy)]
pub enum Which<'a> {
    /// The workload itself, as the end-to-end run times it.
    Surface(&'a Shared),
    /// One ladder level above the transport.
    Level(Level),
    /// The classic allreduce at the workload's payload, for the
    /// four-rank count pass (a tenth of the ladder's window).
    CollCounts,
}

/// What the ranks of a workload's passes share besides MPI.
#[derive(Default)]
pub struct Shared {
    /// The Jacobi field after the serial reference's steps (empty for
    /// the other workloads).
    pub reference: Vec<f64>,
    pub stream: StreamSync,
}

/// Everything needed to build a rank's kernel once its `MPI` exists.
#[derive(Clone, Copy)]
pub struct KernelSpec<'a> {
    pub workload: &'a Workload,
    pub which: Which<'a>,
    pub seed: u64,
    pub scale: Scale,
}

impl KernelSpec<'_> {
    pub fn build<'m>(&'m self, mpi: &'m MPI) -> MpiResult<Box<dyn Kernel + 'm>> {
        let (w, seed) = (self.workload, self.seed);
        let pairs = self.scale.units(w.p2p_pairs, false);
        let ops = self.scale.units(w.coll_ops, false);
        // The collective levels reduce MPI.INT, so at least one element.
        let count = (w.payload / 4).max(1);
        let pingpong = |api, pairs| -> MpiResult<Box<dyn Kernel + 'm>> {
            Ok(Box::new(PingPong::new(mpi, api, w.payload, seed, pairs)?))
        };
        let allreduce = |api, ops| -> MpiResult<Box<dyn Kernel + 'm>> {
            Ok(Box::new(Allreduce::new(mpi, api, count, seed, ops)?))
        };
        let family = |api| match w.family {
            Family::P2p => pingpong(api, pairs),
            Family::Coll => allreduce(CollApi::Through(api), ops),
        };
        match self.which {
            Which::Level(Level::Transport) => {
                unreachable!("the transport level has no MPI environment")
            }
            Which::Level(Level::EngineP2p) => pingpong(Api::Engine, pairs),
            Which::Level(Level::EngineExchange) => allreduce(CollApi::Exchange, ops),
            Which::Level(Level::EngineColl) => allreduce(CollApi::Through(Api::Engine), ops),
            Which::Level(Level::ClassicCopy | Level::ClassicPin) => family(Api::Classic),
            Which::Level(Level::Rs) => family(Api::Rs),
            Which::CollCounts => allreduce(CollApi::Through(Api::Classic), (ops / 10).max(1)),
            Which::Surface(shared) => {
                let units = w.window_units(&self.scale);
                match w.surface {
                    Surface::PingPong => pingpong(Api::Classic, units),
                    Surface::Allreduce => allreduce(CollApi::Through(Api::Classic), units),
                    Surface::Stream => Ok(Box::new(Stream::new(mpi, &shared.stream, seed, units)?)),
                    Surface::Jacobi => Ok(Box::new(Jacobi::new(
                        mpi,
                        self.scale.jacobi(),
                        seed,
                        &shared.reference,
                        units,
                    )?)),
                }
            }
        }
    }
}
