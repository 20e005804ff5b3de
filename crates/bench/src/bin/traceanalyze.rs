//! Cross-rank causal analysis of a per-rank trace dump directory, and
//! the CI drills that gate it.
//!
//! ```text
//! cargo run -p mpi-bench --bin traceanalyze -- <trace-dir> [--json OUT]
//! cargo run -p mpi-bench --bin traceanalyze -- --drill straggler [--dir DIR] [--json OUT]
//! cargo run -p mpi-bench --bin traceanalyze -- --drill killcoll  [--dir DIR] [--json OUT]
//! ```
//!
//! The first form analyzes existing dumps (matched messages and the
//! receives stamped before their send began, wait-state profiles with
//! blame, collective skews, the global critical path) and prints the
//! human report; `--json` also writes the schema-versioned analysis
//! JSON (`causal-analysis-v2`) for tools that compare runs.
//!
//! The drill forms run the CI acceptance workloads end to end and gate
//! on their analyses:
//!
//! * `straggler` — a modelled-link recursive-doubling allreduce with
//!   one fault-delayed rank; every other rank's dominant wait state
//!   must be collective imbalance, the straggler must hold at least
//!   half the critical path, and the matched messages, the delayed
//!   critical-path sends and the allreduce's durations and skew must
//!   match the planted delays (`check_straggler_attribution`);
//! * `killcoll` — the kill-mid-allreduce spool drill; the analysis
//!   must complete over the victim's force-dump mixed with the
//!   survivors' finalize dumps and join the clean first allreduce
//!   across all ranks.
//!
//! Both drills also fail if any receive is stamped before its send
//! began (`early_receives`, 0 on the one trace clock).
//!
//! A failed gate prints the report and exits nonzero.

use std::path::PathBuf;
use std::process::ExitCode;

use mpi_bench::causal::{
    analyze_dir, check_straggler_attribution, run_killcoll_drill, run_straggler_drill, Analysis,
    StragglerDrillSpec,
};

struct Args {
    trace_dir: Option<PathBuf>,
    drill: Option<String>,
    dir: Option<PathBuf>,
    json: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        trace_dir: None,
        drill: None,
        dir: None,
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--drill" => args.drill = Some(it.next().ok_or("--drill needs a name")?),
            "--dir" => args.dir = Some(PathBuf::from(it.next().ok_or("--dir needs a path")?)),
            "--json" => args.json = Some(PathBuf::from(it.next().ok_or("--json needs a path")?)),
            "--help" | "-h" => {
                return Err("usage: traceanalyze <trace-dir> [--json OUT] | \
                            --drill straggler|killcoll [--dir DIR] [--json OUT]"
                    .into())
            }
            other if args.trace_dir.is_none() && !other.starts_with('-') => {
                args.trace_dir = Some(PathBuf::from(other));
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(args)
}

fn emit(analysis: &Analysis, json: &Option<PathBuf>) -> Result<(), String> {
    print!("{}", analysis.render_report());
    if let Some(path) = json {
        std::fs::write(path, analysis.to_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("analysis JSON written to {}", path.display());
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    match args.drill.as_deref() {
        None => {
            let dir = args
                .trace_dir
                .ok_or("usage: traceanalyze <trace-dir> | --drill straggler|killcoll")?;
            let analysis = analyze_dir(&dir)?;
            emit(&analysis, &args.json)
        }
        Some("straggler") => {
            let dir = args
                .dir
                .unwrap_or_else(|| std::env::temp_dir().join("traceanalyze-straggler"));
            let _ = std::fs::remove_dir_all(&dir);
            let spec = StragglerDrillSpec::default();
            println!(
                "straggler drill: {} ranks, rank {} delayed {:?}/frame, traces in {}",
                spec.ranks,
                spec.straggler,
                spec.delay,
                dir.display()
            );
            let analysis = run_straggler_drill(&dir, &spec)?;
            emit(&analysis, &args.json)?;
            check_straggler_attribution(&analysis, &spec)?;
            println!(
                "gate passed: non-straggler ranks dominated by coll_imbalance, \
                 straggler holds {:.1}% of the critical path, planted delays recovered, \
                 no early receives",
                100.0 * analysis.critical_path.rank_share(spec.straggler)
            );
            Ok(())
        }
        Some("killcoll") => {
            let root = args
                .dir
                .unwrap_or_else(|| std::env::temp_dir().join("traceanalyze-killcoll"));
            let _ = std::fs::remove_dir_all(&root);
            println!("killcoll drill: 3 ranks over spool, victim force-dumps mid-job");
            let analysis = run_killcoll_drill(&root, 3)?;
            emit(&analysis, &args.json)?;
            println!(
                "gate passed: analysis joined all 3 dumps including the victim's, \
                 no early receives"
            );
            Ok(())
        }
        Some(other) => Err(format!("unknown drill {other:?} (straggler|killcoll)")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("traceanalyze: {e}");
            ExitCode::FAILURE
        }
    }
}
