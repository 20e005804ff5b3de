//! CI gate for the observability subsystem's overhead claims: on the
//! shared-memory PingPong (the paper's §4.2 microbenchmark, wrapper
//! stack), tracing must be effectively free when `off` and cheap when
//! `counters`.
//!
//! ```text
//! cargo run --release -p mpi-bench --bin traceoverhead [-- REPS]
//! ```
//!
//! Method: the 1-byte latency (the regime where a per-message hook cost
//! would show) is measured round-robin — baseline `off`, a second
//! independent `off`, `counters`, `events` — for several rounds, and
//! each mode keeps its best (minimum) time. Gating on minima of
//! interleaved rounds cancels warm-up and host-load drift. Gates, in
//! nanoseconds per message because the hooks cost what they cost however
//! long the message around them takes:
//!
//! * `off` vs `off` baseline within **70 ns** — the branch-on-enum hooks
//!   must leave the disabled path at measurement-noise cost;
//! * `counters` vs `off` within **230 ns** — two clock reads and a
//!   histogram bucket per message;
//! * `events` is reported (ring writes are bounded but not gated here;
//!   the trace smoke covers correctness).
//!
//! Both were ratios (3% and 10%) while the message parked on a futex. On
//! the 2-vCPU runner that ping-pong read 2.3 us per message when the
//! scheduler kept both ranks on one core and 21-24 us when it did not, so
//! the ratios allowed 69-750 ns and 230-2500 ns; with the mailbox polling
//! before it parks the same run reads 1.2 us (two cores) or 3.5 us (one),
//! where the same nanoseconds would read as several times the percentage.
//! The constants are the strict end of what the ratios allowed (3% and
//! 10% of 2.3 us). Readings behind them, twelve runs across both
//! placements: `off` -69..+46 ns, `counters` -1..+234 ns, `events`
//! +34..+430 ns.

use mpi_bench::{run_pingpong, Mode, PingPongSpec, Stack};
use mpijava::TraceConfig;

const ROUNDS: usize = 7;
const OFF_BUDGET_NS: f64 = 70.0;
const COUNTERS_BUDGET_NS: f64 = 230.0;

fn one_byte_latency_us(trace: TraceConfig, reps: usize) -> f64 {
    let spec = PingPongSpec::new(Stack::WmpiJava, Mode::SharedMemory)
        .cap_size(1)
        .reps(reps)
        .trace(trace);
    run_pingpong(&spec)[0].one_way_us
}

fn main() {
    let reps: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("REPS must be a number"))
        .unwrap_or(2000);

    let mut best = [f64::INFINITY; 4];
    let modes = [
        ("off (baseline)", TraceConfig::off()),
        ("off", TraceConfig::off()),
        ("counters", TraceConfig::counters()),
        ("events", TraceConfig::events()),
    ];
    for round in 0..ROUNDS {
        for (slot, (_, trace)) in modes.iter().enumerate() {
            let us = one_byte_latency_us(*trace, reps);
            if us < best[slot] {
                best[slot] = us;
            }
        }
        println!(
            "round {}/{ROUNDS}: best us/msg = {:.3} | {:.3} | {:.3} | {:.3}",
            round + 1,
            best[0],
            best[1],
            best[2],
            best[3]
        );
    }

    let baseline = best[0];
    let extra_ns = |slot: usize| (best[slot] - baseline) * 1e3;
    for (slot, (label, _)) in modes.iter().enumerate().skip(1) {
        println!(
            "{label:>14}: {:.3} us/msg ({:+.0} ns, {:+.1}% vs baseline)",
            best[slot],
            extra_ns(slot),
            (best[slot] / baseline - 1.0) * 100.0
        );
    }
    assert!(
        extra_ns(1) <= OFF_BUDGET_NS,
        "off-mode pingpong regressed: {:+.0} ns/msg over the off baseline (gate {OFF_BUDGET_NS} ns)",
        extra_ns(1)
    );
    assert!(
        extra_ns(2) <= COUNTERS_BUDGET_NS,
        "counters-mode pingpong costs {:+.0} ns/msg over the off baseline (gate {COUNTERS_BUDGET_NS} ns)",
        extra_ns(2)
    );
    println!("gate passed: off within {OFF_BUDGET_NS} ns/msg, counters within {COUNTERS_BUDGET_NS} ns/msg");
}
