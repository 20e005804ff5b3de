//! The PingPong benchmark of paper §4.2, over every stack × mode
//! combination of the evaluation.

use std::time::{Duration, Instant};

use bytes::Bytes;
use mpi_transport::{
    DeviceKind, DeviceProfile, Fabric, FabricConfig, Frame, FrameHeader, FrameKind, NetworkModel,
};
use mpijava::{Datatype, JniConfig, MarshalMode, MpiRuntime};

/// Which software stack carries the message (see the crate docs for the
/// mapping onto the paper's five stacks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stack {
    /// Raw transport endpoints, no MPI: the paper's `Wsock` baseline.
    RawSocket,
    /// The native engine used directly from Rust on the WMPI-like device.
    WmpiC,
    /// The mpijava wrapper on the WMPI-like device.
    WmpiJava,
    /// The native engine on the MPICH/ch_p4-like device.
    MpichC,
    /// The mpijava wrapper on the MPICH-like device.
    MpichJava,
}

impl Stack {
    /// Label used in tables (matches the column names of Table 1).
    pub fn label(&self) -> &'static str {
        match self {
            Stack::RawSocket => "Wsock",
            Stack::WmpiC => "WMPI-C",
            Stack::WmpiJava => "WMPI-J",
            Stack::MpichC => "MPICH-C",
            Stack::MpichJava => "MPICH-J",
        }
    }

    /// Every stack, in the column order of Table 1.
    pub fn all() -> [Stack; 5] {
        [
            Stack::RawSocket,
            Stack::WmpiC,
            Stack::WmpiJava,
            Stack::MpichC,
            Stack::MpichJava,
        ]
    }

    fn uses_wrapper(&self) -> bool {
        matches!(self, Stack::WmpiJava | Stack::MpichJava)
    }

    fn is_mpich_like(&self) -> bool {
        matches!(self, Stack::MpichC | Stack::MpichJava)
    }
}

/// Shared-Memory vs Distributed-Memory configuration (paper §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Both ranks on one host: in-process devices, no link model.
    SharedMemory,
    /// Two hosts on 10BaseT Ethernet: TCP device + the 10 Mbps link model.
    DistributedMemory,
}

impl Mode {
    /// Label used in tables ("SM" / "DM", as in Table 1).
    pub fn label(&self) -> &'static str {
        match self {
            Mode::SharedMemory => "SM",
            Mode::DistributedMemory => "DM",
        }
    }
}

/// How hard to push the synthetic calibration (see the crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Calibration {
    /// No synthetic costs: structural comparison only.
    Structural,
    /// Per-message and per-call costs chosen to land in the regime of the
    /// paper's 1999 hardware (Table 1).
    Era1999,
}

/// One configured benchmark run.
#[derive(Debug, Clone)]
pub struct PingPongSpec {
    pub stack: Stack,
    pub mode: Mode,
    pub calibration: Calibration,
    /// Message sizes in bytes (one measurement per size).
    pub sizes: Vec<usize>,
    /// Round trips per measurement (the paper repeats "many times", §4.2).
    pub reps: usize,
    /// Warm-up round trips excluded from timing.
    pub warmup: usize,
    /// Observability mode under test (`None` = engine default, i.e.
    /// `off` unless `MPIJAVA_TRACE` says otherwise). Lets the overhead
    /// gate compare `off` vs `counters` vs `events` on the identical
    /// workload.
    pub trace: Option<mpijava::TraceConfig>,
}

impl PingPongSpec {
    /// A spec with the paper's default size sweep (1 byte to 1 MiB, powers
    /// of two).
    pub fn new(stack: Stack, mode: Mode) -> PingPongSpec {
        PingPongSpec {
            stack,
            mode,
            calibration: Calibration::Structural,
            sizes: default_sizes(1 << 20),
            reps: 50,
            warmup: 5,
            trace: None,
        }
    }

    /// Restrict the sweep to sizes `<= cap` bytes.
    pub fn cap_size(mut self, cap: usize) -> Self {
        self.sizes.retain(|&s| s <= cap);
        self
    }

    /// Set the repetition count.
    pub fn reps(mut self, reps: usize) -> Self {
        self.reps = reps.max(1);
        self
    }

    /// Use the 1999 calibration.
    pub fn calibration(mut self, calibration: Calibration) -> Self {
        self.calibration = calibration;
        self
    }

    /// Pin the observability mode for the run (overhead gating).
    pub fn trace(mut self, trace: mpijava::TraceConfig) -> Self {
        self.trace = Some(trace);
        self
    }
}

/// The paper's sweep: 1 byte, then powers of two up to `max`.
pub fn default_sizes(max: usize) -> Vec<usize> {
    let mut sizes = vec![1usize];
    let mut s = 2usize;
    while s <= max {
        sizes.push(s);
        s *= 2;
    }
    sizes
}

/// One measured point of a PingPong run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PingPongPoint {
    /// Message size in bytes.
    pub size: usize,
    /// One-way time in microseconds (half the mean round-trip time, as in
    /// the paper).
    pub one_way_us: f64,
    /// Uni-directional bandwidth in MBytes/s.
    pub bandwidth_mb_s: f64,
}

fn one_way(size: usize, round_trip: Duration, reps: usize) -> PingPongPoint {
    let one_way_us = round_trip.as_secs_f64() * 1e6 / (reps as f64) / 2.0;
    let bandwidth_mb_s = if one_way_us > 0.0 {
        (size as f64 / 1e6) / (one_way_us / 1e6)
    } else {
        f64::INFINITY
    };
    PingPongPoint {
        size,
        one_way_us,
        bandwidth_mb_s,
    }
}

/// Device/cost configuration for a (stack, mode, calibration) triple.
struct StackConfig {
    device: DeviceKind,
    network: NetworkModel,
    profile: DeviceProfile,
    jni: JniConfig,
}

fn configure(stack: Stack, mode: Mode, calibration: Calibration) -> StackConfig {
    let (device, network) = match mode {
        Mode::SharedMemory => {
            let device = if stack.is_mpich_like() {
                DeviceKind::ShmP4
            } else {
                DeviceKind::ShmFast
            };
            (device, NetworkModel::unshaped())
        }
        Mode::DistributedMemory => (DeviceKind::Tcp, NetworkModel::ethernet_10base_t()),
    };
    let profile = match calibration {
        Calibration::Structural => DeviceProfile::default(),
        Calibration::Era1999 => {
            // Constant per-message device costs of the two native MPI
            // implementations on 1999 hardware (derived from Table 1's
            // C columns: WMPI ~67 µs, MPICH ~149 µs one-way in SM mode).
            let per_message = if stack.is_mpich_like() {
                Duration::from_micros(140)
            } else {
                Duration::from_micros(60)
            };
            DeviceProfile {
                per_message_cost: per_message,
                per_byte_cost_ns: 3.0,
            }
        }
    };
    let jni = match (calibration, stack.uses_wrapper()) {
        (_, false) => JniConfig::default(),
        (Calibration::Structural, true) => JniConfig::default(),
        (Calibration::Era1999, true) => JniConfig {
            marshal: MarshalMode::Copy,
            // One wrapper call per Send and per Recv; Table 1 shows the
            // wrapper adding ~94 µs (WMPI) / ~226 µs (MPICH) per one-way
            // message, i.e. roughly 45–110 µs per crossing.
            per_call_cost: if stack.is_mpich_like() {
                Duration::from_micros(110)
            } else {
                Duration::from_micros(45)
            },
        },
    };
    StackConfig {
        device,
        network,
        profile,
        jni,
    }
}

/// Run the PingPong for one spec and return one point per message size.
pub fn run_pingpong(spec: &PingPongSpec) -> Vec<PingPongPoint> {
    let config = configure(spec.stack, spec.mode, spec.calibration);
    match spec.stack {
        Stack::RawSocket => raw_socket_pingpong(spec, &config),
        Stack::WmpiC | Stack::MpichC => native_pingpong(spec, &config),
        Stack::WmpiJava | Stack::MpichJava => wrapper_pingpong(spec, &config),
    }
}

/// The `Wsock` baseline: echo frames straight over the transport device.
fn raw_socket_pingpong(spec: &PingPongSpec, config: &StackConfig) -> Vec<PingPongPoint> {
    // The raw baseline in the paper uses plain sockets; the closest
    // equivalent that still respects the mode is the transport device with
    // no MPI engine above it (TCP for DM, shared memory for SM).
    let device = match spec.mode {
        Mode::SharedMemory => DeviceKind::ShmFast,
        Mode::DistributedMemory => DeviceKind::Tcp,
    };
    let fabric = FabricConfig {
        network: config.network,
        profile: config.profile,
        ..FabricConfig::new(2, device)
    };
    let mut endpoints = Fabric::build(fabric).expect("fabric").into_endpoints();
    let b = endpoints.pop().expect("two endpoints");
    let a = endpoints.pop().expect("two endpoints");

    let sizes = spec.sizes.clone();
    let reps = spec.reps;
    let warmup = spec.warmup;

    let echo = std::thread::spawn(move || {
        for &size in &sizes {
            for _ in 0..(reps + warmup) {
                let frame = b.recv().expect("echo recv");
                let reply = Frame::new(
                    FrameHeader {
                        kind: FrameKind::Eager,
                        src: 1,
                        dst: 0,
                        tag: 0,
                        context: 0,
                        token: 0,
                        msg_len: frame.payload.len() as u64,
                    },
                    frame.payload,
                );
                b.send(reply).expect("echo send");
            }
            let _ = size;
        }
    });

    let mut points = Vec::with_capacity(spec.sizes.len());
    for &size in &spec.sizes {
        let payload = Bytes::from(vec![0u8; size]);
        let header = FrameHeader {
            kind: FrameKind::Eager,
            src: 0,
            dst: 1,
            tag: 0,
            context: 0,
            token: 0,
            msg_len: size as u64,
        };
        for _ in 0..spec.warmup {
            a.send(Frame::new(header, payload.clone())).expect("send");
            let _ = a.recv().expect("recv");
        }
        let start = Instant::now();
        for _ in 0..spec.reps {
            a.send(Frame::new(header, payload.clone())).expect("send");
            let _ = a.recv().expect("recv");
        }
        points.push(one_way(size, start.elapsed(), spec.reps));
    }
    echo.join().expect("echo thread");
    points
}

/// The "C MPI" series: the engine used directly, no wrapper layer.
fn native_pingpong(spec: &PingPongSpec, config: &StackConfig) -> Vec<PingPongPoint> {
    use mpi_native::{SendMode, Universe, UniverseConfig, COMM_WORLD};
    let mut universe = UniverseConfig::new(2, config.device);
    universe.fabric.network = config.network;
    universe.fabric.profile = config.profile;
    // No trace in the spec leaves the environment's.
    if let Some(trace) = spec.trace {
        universe.trace = trace;
    }
    let sizes = spec.sizes.clone();
    let reps = spec.reps;
    let warmup = spec.warmup;
    let results = Universe::run_with_config(universe, move |engine| {
        let rank = engine.world_rank();
        crate::pin_rank_thread(rank);
        let mut points = Vec::new();
        for &size in &sizes {
            // What a C program does: `MPI_Send` from, and `MPI_Recv`
            // into, its own buffers — the same two engine entry points
            // the wrapper's `Send`/`Recv` sit on, so J − C is the wrapper.
            let payload = vec![0u8; size];
            let mut inbox = vec![0u8; size];
            if rank == 0 {
                let mut round_trip = || {
                    engine
                        .send(COMM_WORLD, 1, 1, &payload, SendMode::Standard)
                        .expect("send");
                    engine
                        .recv_into(COMM_WORLD, 1, 2, &mut inbox)
                        .expect("recv");
                };
                (0..warmup).for_each(|_| round_trip());
                let start = Instant::now();
                (0..reps).for_each(|_| round_trip());
                points.push(one_way(size, start.elapsed(), reps));
            } else {
                for _ in 0..(reps + warmup) {
                    engine
                        .recv_into(COMM_WORLD, 0, 1, &mut inbox)
                        .expect("recv");
                    engine
                        .send(COMM_WORLD, 0, 2, &inbox, SendMode::Standard)
                        .expect("send");
                }
            }
        }
        points
    })
    .expect("pingpong universe");
    results.into_iter().next().expect("rank 0 results")
}

/// The "mpiJava" series: every message crosses the wrapper and its
/// simulated JNI boundary.
fn wrapper_pingpong(spec: &PingPongSpec, config: &StackConfig) -> Vec<PingPongPoint> {
    let mut runtime = MpiRuntime::new(2)
        .device(config.device)
        .network(config.network)
        .profile(config.profile)
        .jni(config.jni);
    if let Some(trace) = spec.trace {
        runtime = runtime.trace(trace);
    }
    let sizes = spec.sizes.clone();
    let reps = spec.reps;
    let warmup = spec.warmup;
    let results = runtime
        .run(move |mpi| {
            let world = mpi.comm_world();
            let rank = world.rank()?;
            crate::pin_rank_thread(rank);
            let byte_type = Datatype::byte();
            let mut points = Vec::new();
            for &size in &sizes {
                let send_buf = vec![0u8; size];
                let mut recv_buf = vec![0u8; size];
                if rank == 0 {
                    for _ in 0..warmup {
                        world.send(&send_buf, 0, size, &byte_type, 1, 1)?;
                        world.recv(&mut recv_buf, 0, size, &byte_type, 1, 2)?;
                    }
                    let start = Instant::now();
                    for _ in 0..reps {
                        world.send(&send_buf, 0, size, &byte_type, 1, 1)?;
                        world.recv(&mut recv_buf, 0, size, &byte_type, 1, 2)?;
                    }
                    points.push(one_way(size, start.elapsed(), reps));
                } else {
                    for _ in 0..(reps + warmup) {
                        world.recv(&mut recv_buf, 0, size, &byte_type, 0, 1)?;
                        world.send(&recv_buf, 0, size, &byte_type, 0, 2)?;
                    }
                }
            }
            Ok(points)
        })
        .expect("pingpong runtime");
    results.into_iter().next().expect("rank 0 results")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec(stack: Stack, mode: Mode) -> PingPongSpec {
        PingPongSpec {
            stack,
            mode,
            calibration: Calibration::Structural,
            sizes: vec![1, 1024],
            reps: 10,
            warmup: 2,
            trace: None,
        }
    }

    #[test]
    fn every_sm_stack_produces_points() {
        for stack in Stack::all() {
            let points = run_pingpong(&quick_spec(stack, Mode::SharedMemory));
            assert_eq!(points.len(), 2, "{stack:?}");
            assert!(points[0].one_way_us > 0.0);
            assert!(points[1].bandwidth_mb_s > points[0].bandwidth_mb_s);
        }
    }

    #[test]
    fn wrapper_adds_two_crossings_and_the_payload_per_round_trip() {
        // The key qualitative claim of Table 1 / Figure 5 — the wrapper
        // adds work over the native path on the same device — as a count,
        // not a stopwatch: per round trip the wrapper's `Send` + `Recv`
        // cross the boundary twice and marshal the payload once each way;
        // the same round trip on the engine crosses it never.
        use mpi_native::{SendMode, COMM_WORLD};
        const ROUND_TRIPS: u64 = 7;
        for size in [1usize, 1024] {
            MpiRuntime::new(2)
                .device(DeviceKind::ShmFast)
                .run(move |mpi| {
                    let world = mpi.comm_world();
                    let rank = world.rank()?;
                    let byte_type = Datatype::byte();
                    let out = vec![0u8; size];
                    let mut inbox = vec![0u8; size];

                    let before = mpi.jni_stats();
                    for _ in 0..ROUND_TRIPS {
                        if rank == 0 {
                            world.send(&out, 0, size, &byte_type, 1, 1)?;
                            world.recv(&mut inbox, 0, size, &byte_type, 1, 2)?;
                        } else {
                            world.recv(&mut inbox, 0, size, &byte_type, 0, 1)?;
                            world.send(&inbox, 0, size, &byte_type, 0, 2)?;
                        }
                    }
                    let wrapper = mpi.jni_stats();
                    assert_eq!(wrapper.calls - before.calls, 2 * ROUND_TRIPS);
                    assert_eq!(
                        (wrapper.bytes_in + wrapper.bytes_out)
                            - (before.bytes_in + before.bytes_out),
                        2 * size as u64 * ROUND_TRIPS
                    );

                    for _ in 0..ROUND_TRIPS {
                        mpi.with_engine(|e| -> mpijava::MpiResult<()> {
                            let peer = 1 - rank as i32;
                            if rank == 0 {
                                e.send(COMM_WORLD, peer, 3, &out, SendMode::Standard)?;
                                e.recv_into(COMM_WORLD, peer, 4, &mut inbox)?;
                            } else {
                                e.recv_into(COMM_WORLD, peer, 3, &mut inbox)?;
                                e.send(COMM_WORLD, peer, 4, &inbox, SendMode::Standard)?;
                            }
                            Ok(())
                        })?;
                    }
                    assert_eq!(mpi.jni_stats(), wrapper, "the native stack records none");
                    Ok(())
                })
                .expect("pingpong runtime");
        }
    }

    #[test]
    fn dm_mode_latency_is_dominated_by_the_link() {
        let points = run_pingpong(&PingPongSpec {
            stack: Stack::WmpiC,
            mode: Mode::DistributedMemory,
            calibration: Calibration::Structural,
            sizes: vec![1],
            reps: 5,
            warmup: 1,
            trace: None,
        });
        // The 10BaseT model has a 200 µs one-way latency; the measured
        // 1-byte time must be at least that.
        assert!(points[0].one_way_us >= 150.0);
    }

    #[test]
    fn default_sizes_match_the_paper_sweep() {
        let sizes = default_sizes(1 << 20);
        assert_eq!(sizes[0], 1);
        assert_eq!(*sizes.last().unwrap(), 1 << 20);
        assert!(sizes
            .windows(2)
            .all(|w| w[1] == w[0] * 2 || (w[0] == 1 && w[1] == 2)));
    }

    /// The calibration is a per-message device cost the structural run
    /// does not pay, and the calibrated run measurably pays it. The
    /// structural side is the fastest of several runs: an uncalibrated
    /// ping-pong whose rank threads start on one core can read tens of
    /// microseconds for one window, and the 20 µs margin sits well below
    /// the 60 µs calibration.
    #[test]
    fn era_calibration_slows_everything_down() {
        let sm = |calibration| configure(Stack::WmpiC, Mode::SharedMemory, calibration);
        assert_eq!(
            sm(Calibration::Structural).profile.per_message_cost,
            Duration::ZERO
        );
        assert_eq!(
            sm(Calibration::Era1999).profile.per_message_cost,
            Duration::from_micros(60)
        );
        let fast = (0..5)
            .map(|_| run_pingpong(&quick_spec(Stack::WmpiC, Mode::SharedMemory))[0].one_way_us)
            .fold(f64::INFINITY, f64::min);
        let mut spec = quick_spec(Stack::WmpiC, Mode::SharedMemory);
        spec.calibration = Calibration::Era1999;
        let calibrated = run_pingpong(&spec);
        assert!(
            calibrated[0].one_way_us > fast + 20.0,
            "calibrated {:.1} µs vs structural best {fast:.1} µs",
            calibrated[0].one_way_us
        );
        assert!(calibrated[0].one_way_us >= 40.0);
    }
}
