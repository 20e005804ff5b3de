//! Ablation experiments for the design choices listed in the binary table
//! of `crates/bench/src/lib.rs` (knobs the repo benchmark pins):
//!
//! * eager vs rendezvous threshold in the engine,
//! * marshalling copy vs pinning on the simulated JNI boundary,
//! * object serialization (`MPI.OBJECT`) vs derived datatypes for strided
//!   data,
//! * collective algorithm (linear vs binomial tree vs recursive doubling
//!   vs ring) — the Figure-5/6-style axis for the collective subsystem.
//!
//! ```text
//! cargo run --release -p mpi-bench --bin ablations
//! ```

use std::time::{Duration, Instant};

use mpijava::{Datatype, JniConfig, MarshalMode, MpiRuntime, Serializable};

fn time_it(f: impl FnOnce()) -> Duration {
    let start = Instant::now();
    f();
    start.elapsed()
}

/// Ablation 1: eager threshold. A 64 KiB message is sent either eagerly or
/// through the rendezvous protocol depending on the threshold.
fn ablation_eager() {
    println!("== ablation: eager vs rendezvous threshold (64 KiB messages, SM) ==");
    for threshold in [1usize, 256 * 1024] {
        let runtime = MpiRuntime::new(2).eager_threshold(threshold);
        let elapsed = runtime
            .run(|mpi| {
                let world = mpi.comm_world();
                let rank = world.rank()?;
                let size = 64 * 1024;
                let buf = vec![1u8; size];
                let mut recv = vec![0u8; size];
                let reps = 200;
                let start = Instant::now();
                for _ in 0..reps {
                    if rank == 0 {
                        world.send(&buf, 0, size, &Datatype::byte(), 1, 0)?;
                        world.recv(&mut recv, 0, size, &Datatype::byte(), 1, 1)?;
                    } else {
                        world.recv(&mut recv, 0, size, &Datatype::byte(), 0, 0)?;
                        world.send(&recv, 0, size, &Datatype::byte(), 0, 1)?;
                    }
                }
                Ok(start.elapsed().as_secs_f64() * 1e6 / reps as f64 / 2.0)
            })
            .expect("run");
        let protocol = if threshold < 64 * 1024 {
            "rendezvous"
        } else {
            "eager"
        };
        println!(
            "  threshold {threshold:>8} B ({protocol:>10}): {:>9.1} us one-way",
            elapsed[0]
        );
    }
    println!();
}

/// Ablation 2: marshalling copy vs pin on the simulated JNI boundary.
fn ablation_pin() {
    println!("== ablation: JNI marshalling copy vs pin (256 KiB messages, SM) ==");
    for (label, marshal) in [("copy", MarshalMode::Copy), ("pin", MarshalMode::Pin)] {
        let runtime = MpiRuntime::new(2).jni(JniConfig {
            marshal,
            per_call_cost: Duration::ZERO,
        });
        let result = runtime
            .run(|mpi| {
                let world = mpi.comm_world();
                let rank = world.rank()?;
                let size = 256 * 1024;
                let buf = vec![1u8; size];
                let mut recv = vec![0u8; size];
                let reps = 100;
                let start = Instant::now();
                for _ in 0..reps {
                    if rank == 0 {
                        world.send(&buf, 0, size, &Datatype::byte(), 1, 0)?;
                        world.recv(&mut recv, 0, size, &Datatype::byte(), 1, 1)?;
                    } else {
                        world.recv(&mut recv, 0, size, &Datatype::byte(), 0, 0)?;
                        world.send(&recv, 0, size, &Datatype::byte(), 0, 1)?;
                    }
                }
                Ok(start.elapsed().as_secs_f64() * 1e6 / reps as f64 / 2.0)
            })
            .expect("run");
        println!("  marshal = {label:>4}: {:>9.1} us one-way", result[0]);
    }
    println!();
}

/// Ablation 3: sending a strided column as a derived datatype vs as
/// serialized objects (`MPI.OBJECT`), the §2.2 trade-off.
fn ablation_serialization() {
    println!("== ablation: derived datatype vs object serialization (strided column) ==");
    const N: usize = 256; // N x N matrix, send one column 200 times
    let runtime = MpiRuntime::new(2);
    let results = runtime
        .run(|mpi| {
            let world = mpi.comm_world();
            let rank = world.rank()?;
            let matrix: Vec<f64> = (0..N * N).map(|i| i as f64).collect();
            let column_type =
                Datatype::vector(N, 1, N as isize, &Datatype::double()).expect("column type");
            let reps = 200;

            // Derived datatype path.
            let derived = time_it(|| {
                for _ in 0..reps {
                    if rank == 0 {
                        world
                            .send(&matrix, 3, 1, &column_type, 1, 0)
                            .expect("send column");
                    } else {
                        let mut recv = vec![0f64; N * N];
                        world
                            .recv(&mut recv, 3, 1, &column_type, 0, 0)
                            .expect("recv column");
                    }
                }
            });

            // Object-serialization path: copy the column into a Vec<f64>
            // and ship it as one serializable object.
            let object = time_it(|| {
                for _ in 0..reps {
                    if rank == 0 {
                        let column: Vec<f64> = (0..N).map(|row| matrix[row * N + 3]).collect();
                        world
                            .send_object(&[column], 0, 1, 1, 1)
                            .expect("send object");
                    } else {
                        let (_cols, _status) =
                            world.recv_object::<Vec<f64>>(1, 0, 1).expect("recv object");
                    }
                }
            });
            Ok((derived, object))
        })
        .expect("run");
    let (derived, object) = results[0];
    println!(
        "  derived datatype : {:>9.1} us per column",
        derived.as_secs_f64() * 1e6 / 200.0
    );
    println!(
        "  MPI.OBJECT       : {:>9.1} us per column",
        object.as_secs_f64() * 1e6 / 200.0
    );
    println!();
}

/// Ablation 4: the collective-algorithm axis. Bcast, allreduce,
/// allgather and barrier at a bandwidth-bound payload on eight ranks,
/// each algorithm pinned through `MpiRuntime::coll_algorithm` (the
/// programmatic form of `MPIJAVA_COLL_ALG`) over the modelled link;
/// `auto` is the tuned size-aware selector. An algorithm that cannot
/// run an op is left out of its row.
fn ablation_collectives() {
    use mpi_bench::collbench::{algorithm_applies, measure};
    use mpijava::CollAlgorithm;
    println!("== ablation: collective algorithm (64 KiB, 8 ranks, SM) ==");
    let algorithms = [
        None,
        Some(CollAlgorithm::Linear),
        Some(CollAlgorithm::BinomialTree),
        Some(CollAlgorithm::RecursiveDoubling),
        Some(CollAlgorithm::Ring),
    ];
    for op in ["bcast", "allreduce", "allgather", "barrier"] {
        let payload = if op == "barrier" { 0 } else { 64 * 1024 };
        print!("  {op:>10}:");
        for alg in algorithms {
            if algorithm_applies(alg, op, 8, false) {
                let label = alg.map_or("auto", |a| a.label());
                print!(" {label}={:.1}us", measure(op, alg, 8, payload, 10, 3));
            }
        }
        println!();
    }
    println!();
}

/// Quick self-check that the Serializable bound used above is exercised.
#[allow(dead_code)]
fn assert_serializable<T: Serializable>() {}

fn main() {
    ablation_eager();
    ablation_pin();
    ablation_serialization();
    ablation_collectives();
}
