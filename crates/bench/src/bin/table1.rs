//! Reproduction of **Table 1** of the paper: one-way time for 1-byte
//! messages over every stack, in Shared-Memory and Distributed-Memory mode.
//!
//! ```text
//! cargo run --release -p mpi-bench --bin table1 [--calibrate-1999] [--reps N] [--sm-limit-us X]
//! ```
//!
//! `--sm-limit-us X` turns the run into a gate: exit status 1 if any SM
//! column reads more than `X` microseconds. CI uses it for the one-core
//! drill (`taskset -c 0`): a receiver that polls without yielding turns a
//! same-core message into a scheduler timeslice, i.e. milliseconds.

use mpi_bench::pingpong::{run_pingpong, Calibration, Mode, PingPongSpec, Stack};
use mpi_bench::report::format_table1;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let calibration = if args.iter().any(|a| a == "--calibrate-1999") {
        Calibration::Era1999
    } else {
        Calibration::Structural
    };
    let reps = args
        .iter()
        .position(|a| a == "--reps")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(200usize);
    let sm_limit_us: Option<f64> = args.iter().position(|a| a == "--sm-limit-us").map(|i| {
        args.get(i + 1)
            .and_then(|v| v.parse().ok())
            .expect("--sm-limit-us takes a number of microseconds")
    });

    println!("mpiJava reproduction — Table 1 (1-byte message latency)");
    println!(
        "calibration: {}  reps per measurement: {reps}",
        match calibration {
            Calibration::Structural => "structural (no synthetic 1999 costs)",
            Calibration::Era1999 => "calibrated to the paper's 1999 hardware regime",
        }
    );
    println!();

    let mut rows = Vec::new();
    for mode in [Mode::SharedMemory, Mode::DistributedMemory] {
        let mut entries = Vec::new();
        for stack in Stack::all() {
            let spec = PingPongSpec {
                stack,
                mode,
                calibration,
                sizes: vec![1],
                reps: if mode == Mode::DistributedMemory {
                    reps.min(50)
                } else {
                    reps
                },
                warmup: 5,
                trace: None,
            };
            let points = run_pingpong(&spec);
            entries.push((stack, points[0].one_way_us));
            eprintln!(
                "  measured {:>8} {:>2}: {:>10.1} us",
                stack.label(),
                mode.label(),
                points[0].one_way_us
            );
        }
        rows.push((mode, entries));
    }

    println!("{}", format_table1(&rows));
    println!("Paper's Table 1 for comparison (one-way microseconds, 1999 hardware):");
    println!("      Wsock     WMPI-C     WMPI-J    MPICH-C    MPICH-J");
    println!("  SM  144.8       67.2      161.4      148.7      374.6");
    println!("  DM  244.9      623.9      689.7      679.1      961.2");

    if let Some(limit) = sm_limit_us {
        let slow: Vec<String> = rows
            .iter()
            .filter(|(mode, _)| *mode == Mode::SharedMemory)
            .flat_map(|(_, entries)| entries)
            .filter(|(_, us)| *us > limit)
            .map(|(stack, us)| format!("{} {us:.1} us", stack.label()))
            .collect();
        if !slow.is_empty() {
            eprintln!("SM latency over the {limit} us limit: {}", slow.join(", "));
            std::process::exit(1);
        }
        println!("gate passed: every SM column within {limit} us");
    }
}
