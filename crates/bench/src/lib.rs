//! The paper's figures and the measurements `benchmark/` cannot run.
//!
//! `benchmark/` (its own workspace, driven by `BENCHMARK.json`) is the
//! one harness that records numbers: six pinned two-rank shm-fast
//! workloads, medians over windows, a layer ladder, and the paired
//! parent/change runs every claim is judged by. This crate keeps only
//! what that harness cannot express, and records nothing: each binary
//! prints its table and, where it has one, enforces its gate by exit
//! status.
//!
//! | binary | what it is | why it is not in `benchmark/` |
//! |---|---|---|
//! | `table1`, `figure5`, `figure6` | the paper's Table 1 and Figures 5–6 over the five stacks ([`Stack`]) in SM and DM mode ([`Mode`]) | the Wsock and MPICH-like stacks, the DM link model and the size sweeps are the paper's axes, not workloads; `figure5` gates its shape and `table1 --sm-limit-us` is the one-core drill |
//! | `linpack` | the §4.6 compiled-vs-interpreted aside | no MPI at all |
//! | `halo` | two-sided vs neighborhood alltoall vs RMA put+fence on a 2D torus, flat and hybrid | four or eight ranks, RMA and neighbor collectives, and a modelled inter-node link |
//! | `collectives` | `iallreduce` overlap, persistent vs transient allreduce, hier vs flat on hybrid fabrics | more than two ranks, a due-time link model, the progress thread, node maps |
//! | `ablations` | eager limit, copy vs pin, `MPI.OBJECT` vs derived datatypes, the collective-algorithm axis | design-choice sweeps over knobs the benchmark pins |
//! | `traceoverhead` | the absolute-ns gate on trace modes `off` / `counters` | until per-mode overhead has its own paired measurement (ROADMAP item 8) |
//! | `tracemerge`, `traceanalyze` | merge per-rank trace dumps; causal analysis and its two drills | tools over trace dumps, not timings |
//!
//! # Stacks and modes
//!
//! The paper's evaluation is a PingPong microbenchmark (§4.2) run over
//! five software stacks — raw WinSock, WMPI from C, WMPI from mpiJava,
//! MPICH from C, MPICH from mpiJava — in two configurations: Shared
//! Memory (SM, both processes on one host) and Distributed Memory (DM,
//! two hosts on 10 Mbps Ethernet). [`pingpong`] maps each of those
//! stacks onto the reproduction:
//!
//! | paper stack | here ([`Stack`]) |
//! |---|---|
//! | Wsock       | raw transport endpoints, no MPI engine |
//! | WMPI-C      | `mpi-native` engine directly on the `shm-fast` (SM) / `tcp` (DM) device |
//! | WMPI-Java   | the `mpijava` wrapper (simulated JNI boundary) on the same device |
//! | MPICH-C     | `mpi-native` engine on the staged `shm-p4` device (SM) / `tcp` + portable-device cost (DM) |
//! | MPICH-Java  | the `mpijava` wrapper on the MPICH-like device |
//!
//! and each mode onto a fabric configuration ([`Mode`]): SM uses the
//! in-process devices, DM uses loopback TCP shaped by the paper's 10BaseT
//! Ethernet model.
//!
//! Two calibration levels are provided:
//!
//! * **structural** (default): no synthetic costs at all. The numbers are
//!   2026-hardware numbers; the *relationships* (who wins, constant wrapper
//!   offset, convergence at large messages, DM collapse onto the link
//!   bandwidth) are the reproduction targets.
//! * **calibrated-1999** ([`Calibration::Era1999`]): per-message device
//!   costs and per-call JNI costs chosen so the 1-byte latencies land in
//!   the same few-hundred-microsecond regime as Table 1, for side-by-side
//!   reading with the paper.

pub mod causal;
pub mod collbench;
pub mod halobench;
pub mod linpack;
pub mod pingpong;
pub mod report;
pub mod tracemerge;

pub use causal::{
    analyze, analyze_dir, check_straggler_attribution, estimate_clock_offsets, run_killcoll_drill,
    run_straggler_drill, Analysis, ClockAlignment, CriticalPath, StragglerDrillSpec,
};
pub use halobench::{run_halo_suite, HaloBenchSpec, HaloFabric, HaloMethod, HaloRecord};
pub use linpack::{linpack_compiled, linpack_interpreted, LinpackResult};
pub use pingpong::{run_pingpong, Calibration, Mode, PingPongPoint, PingPongSpec, Stack};
pub use report::{format_bandwidth_table, format_table1, Series};
pub use tracemerge::{
    load_trace_dir, merge as merge_traces, merge_dir_to_file, merge_with_corrections,
    parse_rank_trace, validate_chrome_trace, ChromeSummary, RankTrace,
};

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the calling rank thread to core `rank % nproc`, as `benchmark/`
/// pins its rank threads: for the first fraction of a second the kernel
/// keeps newly spawned threads on one core, and an unpinned short cell
/// measures that placement instead of the library. Failure (a `taskset`
/// mask without that core, a kernel that refuses) leaves the thread
/// where it is, so the one-core drills still run.
pub fn pin_rank_thread(rank: usize) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let core = rank % nproc;
    let mut mask = [0u64; 16];
    if core >= mask.len() * 64 {
        return;
    }
    mask[core / 64] = 1 << (core % 64);
    // SAFETY: `mask` is a live, correctly sized bitset for the duration
    // of the call; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}
