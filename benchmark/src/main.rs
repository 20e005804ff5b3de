//! The repo benchmark. One process runs one workload; `--workload all`
//! re-executes this binary once per workload so that each starts from a
//! fresh allocator and reports its own peak RSS. See `README.md`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::mpsc;
use std::time::Duration;

use mpijava_benchmark::json::{obj, Json};
use mpijava_benchmark::run::{self, RunOut, Settings, END_TO_END};
use mpijava_benchmark::workloads::{self, Scale, Workload, WORKLOADS};
use mpijava_benchmark::{harness, stats, sys};

const USAGE: &str = "\
usage: mpijava-benchmark [run|trace] [<workload>|all] [options]
       mpijava-benchmark noise [--sets <k>] [options]

options (the driver's form; `run W` is `--workload W --trace 0`,
`trace W` is `--workload W --trace 1`):
  --workload <name|all>   one of the six workloads, or all of them
  --seed <n>              seed of every generated input        [1]
  --seconds <s>           time each run measures for           [10]
  --trace <0|1>           0: end-to-end run, 1: traced ladder  [0]
  --smoke                 counts / 100, a few windows: a seconds-long pass
  --inject-fail           corrupt one expected value; must fail
  --sets <k>              noise: how many sets of runs         [5]
";

/// A run that has not finished by then is reported as failed.
const WALL_CAP: Duration = Duration::from_secs(150);

#[derive(Debug, Clone)]
struct Args {
    noise: bool,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    inject_fail: bool,
    sets: usize,
}

fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: not a number: {text}"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        noise: false,
        workload: "all".into(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        inject_fail: false,
        sets: 5,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .map(String::as_str)
        };
        match arg.as_str() {
            "run" => args.trace = false,
            "trace" => args.trace = true,
            "noise" => args.noise = true,
            "--workload" => args.workload = value("a workload name")?.into(),
            "--seed" => args.seed = number(arg, value("a number")?)?,
            "--seconds" => args.seconds = number(arg, value("a number")?)?,
            "--sets" => args.sets = number(arg, value("a number")?)?,
            "--trace" => {
                args.trace = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--inject-fail" => args.inject_fail = true,
            name if !name.starts_with('-') => args.workload = name.into(),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) || args.sets == 0 {
        return Err("--seconds and --sets must be positive".into());
    }
    if args.workload != "all" && workloads::find(&args.workload).is_none() {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {}; choose from {} or all",
            args.workload,
            names.join(", ")
        ));
    }
    Ok(args)
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn mode(trace: bool) -> &'static str {
    if trace {
        "trace"
    } else {
        "run"
    }
}

fn doc_path(trace: bool, workload: &str) -> PathBuf {
    out_dir().join(format!("{}.{workload}.json", mode(trace)))
}

fn spans_path(workload: &str) -> PathBuf {
    out_dir().join(format!("trace.{workload}.jsonl"))
}

fn command_line(program: &str, args: &[&str]) -> String {
    // Only `git` reads the variable: it must not climb out of the
    // checkout and report some enclosing repository's commit.
    let above_repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_default();
    Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", above_repo)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Where and how the numbers were taken.
fn run_meta(args: &Args, nproc: usize, malloc_fixed: bool) -> Vec<(&'static str, Json)> {
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    vec![
        (
            "commit",
            command_line("git", &["-C", manifest_dir, "rev-parse", "HEAD"]).into(),
        ),
        ("rustc", command_line("rustc", &["-V"]).into()),
        ("nproc", nproc.into()),
        ("seed", args.seed.into()),
        ("seconds", args.seconds.into()),
        ("smoke", args.smoke.into()),
        ("device", "shm-fast".into()),
        ("ranks", 2usize.into()),
        ("malloc_fixed", malloc_fixed.into()),
        (
            "malloc",
            obj(sys::MALLOC_SETTINGS
                .iter()
                .map(|&(name, _, value)| (name, Json::from(value as u64)))),
        ),
        ("load_average_start", sys::load_average().into()),
    ]
}

fn metrics_json(out: &RunOut) -> Json {
    obj(out.metrics.iter().map(|&(name, value, unit)| {
        (
            name,
            obj([("value", Json::from(value)), ("unit", unit.into())]),
        )
    }))
}

fn print_human(w: &Workload, trace: bool, out: &RunOut) {
    println!("== {} ({}): {}", w.name, mode(trace), w.op);
    if !out.pinned {
        println!("   NOT PINNED: every metric below is unresolved");
    }
    for &(name, value, unit) in &out.metrics {
        println!("   {name:<38} {value:>16.6} {unit}");
    }
    for (name, value) in &out.info {
        match value {
            Json::Num(v) => println!("   {name:<38} {v:>16.6}"),
            Json::Arr(rows) if name == "ladder" => print_ladder(rows),
            Json::Arr(_) => {}
            other => println!("   {name:<38} {}", other.render()),
        }
    }
    println!(
        "   {:<38} {:>9}/{}",
        "failed/attempted", out.failed, out.attempted
    );
}

fn print_ladder(rows: &[Json]) {
    println!(
        "   {:<16} {:<16} {:>11} {:>11} {:>8} {:>9} {:>12} {:>12}",
        "level", "parent", "op_us_p50", "self_us", "windows", "msgs/op", "copied B/op", "jni B/op"
    );
    for row in rows {
        let text = |k| row.get(k).and_then(Json::as_str).unwrap_or("-");
        let num = |k| row.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        println!(
            "   {:<16} {:<16} {:>11.3} {:>11.3} {:>8} {:>9.3} {:>12.1} {:>12.1}",
            text("level"),
            text("parent"),
            num("op_us_p50"),
            num("self_us"),
            num("windows"),
            num("msgs_per_op"),
            num("bytes_copied_per_op"),
            num("jni_bytes_per_op"),
        );
    }
}

fn span_line(workload: &str, s: &harness::Span) -> String {
    obj([
        ("name", Json::from(s.name)),
        ("workload", workload.into()),
        ("op", s.op.into()),
        ("level", s.level.into()),
        ("parent", s.parent.map_or(Json::Null, Json::from)),
        ("start_ns", s.start_ns.into()),
        ("end_ns", s.end_ns.into()),
    ])
    .render()
}

/// Abort the process if `body` has not returned within [`WALL_CAP`]: a
/// hung operation counts as failed, it must not hang the caller.
fn with_wall_cap<T>(body: impl FnOnce() -> T) -> T {
    let (done, wait) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            if wait.recv_timeout(WALL_CAP) == Err(mpsc::RecvTimeoutError::Timeout) {
                eprintln!("benchmark: wall cap of {WALL_CAP:?} hit, run failed");
                std::process::exit(3);
            }
        });
        let value = body();
        drop(done);
        value
    })
}

/// Run one workload in this process.
fn run_one(w: &Workload, args: &Args, nproc: usize, malloc_fixed: bool) -> Result<bool, String> {
    let settings = Settings {
        nproc,
        seed: args.seed,
        seconds: args.seconds,
        scale: Scale { smoke: args.smoke },
        inject_fail: args.inject_fail,
    };
    let mut meta = run_meta(args, nproc, malloc_fixed);
    let out = with_wall_cap(|| {
        if args.trace {
            run::traced(w, &settings)
        } else {
            run::end_to_end(w, &settings)
        }
    })
    .map_err(|e| format!("{}: {e}", w.name))?;
    meta.push(("load_average_end", sys::load_average().into()));
    let core = |c: &Option<usize>| c.map_or(Json::Null, Json::from);
    meta.push((
        "pinned_cores",
        Json::Arr(out.cores.iter().map(core).collect()),
    ));

    let correct = out.failed == 0;
    let result = [
        ("correct", Json::from(correct)),
        ("attempted", out.attempted.into()),
        ("failed", out.failed.into()),
        ("metrics", metrics_json(&out)),
    ];
    let document = obj([
        ("workload", Json::from(w.name)),
        ("mode", mode(args.trace).into()),
        ("why", w.why.into()),
        ("op", w.op.into()),
        ("pinned", out.pinned.into()),
        ("meta", obj(meta)),
    ]
    .into_iter()
    .chain(result.clone())
    .chain([("info", obj(out.info.iter().cloned()))]));

    let io = |e: std::io::Error| format!("{}: {e}", out_dir().display());
    std::fs::create_dir_all(out_dir()).map_err(io)?;
    std::fs::write(doc_path(args.trace, w.name), document.render() + "\n").map_err(io)?;
    if args.trace {
        let lines: String = out
            .spans
            .iter()
            .map(|s| span_line(w.name, s) + "\n")
            .collect();
        std::fs::write(spans_path(w.name), lines).map_err(io)?;
    }
    print_human(w, args.trace, &out);
    println!("{}", obj(result).render());
    Ok(correct)
}

/// Re-execute this binary for `workload` with `args`' settings.
fn child(args: &Args, workload: &str, seed: u64, quiet: bool) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    if args.inject_fail {
        cmd.arg("--inject-fail");
    }
    if quiet {
        cmd.stdout(std::process::Stdio::null());
    }
    let status = cmd.status().map_err(|e| e.to_string())?;
    Ok(status.success())
}

fn read_doc(trace: bool, workload: &str) -> Result<Json, String> {
    let path = doc_path(trace, workload);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `--workload all`: one child per workload, one combined document.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    let mut docs = Vec::new();
    let mut spans = String::new();
    for w in &WORKLOADS {
        all_correct &= child(args, w.name, args.seed, false)?;
        docs.push(read_doc(args.trace, w.name)?);
        if args.trace {
            let path = spans_path(w.name);
            spans +=
                &std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    let (doc_name, io) = (
        if args.trace {
            "trace.json"
        } else {
            "result.json"
        },
        |e: std::io::Error| format!("{}: {e}", out_dir().display()),
    );
    let combined = obj([("workloads", Json::Arr(docs))]);
    std::fs::write(out_dir().join(doc_name), combined.render() + "\n").map_err(io)?;
    println!("wrote {}", out_dir().join(doc_name).display());
    if args.trace {
        std::fs::write(out_dir().join("trace.jsonl"), spans).map_err(io)?;
        println!("wrote {}", out_dir().join("trace.jsonl").display());
    }
    Ok(all_correct)
}

/// `noise`: `--sets` sets of end-to-end runs of every workload, each set
/// with another seed; prints, per workload and metric, the median, the
/// range and the quartile spread the acceptance check uses.
fn noise(args: &Args) -> Result<bool, String> {
    let args = Args {
        trace: false,
        ..args.clone()
    };
    let mut all_correct = true;
    println!(
        "| workload | metric | unit | median | (max-min)/median | IQR/median | sets |\n|---|---|---|---|---|---|---|"
    );
    for w in &WORKLOADS {
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        let mut failed = 0.0;
        for set in 0..args.sets {
            all_correct &= child(&args, w.name, args.seed + set as u64, true)?;
            let doc = read_doc(false, w.name)?;
            failed += doc.get("failed").and_then(Json::as_f64).unwrap_or(f64::NAN);
            for (values, (name, _)) in samples.iter_mut().zip(END_TO_END) {
                let value = doc
                    .get("metrics")
                    .and_then(|m| m.get(name)?.get("value")?.as_f64())
                    .ok_or_else(|| format!("{}: no {name} in the run document", w.name))?;
                values.push(value);
            }
        }
        for (values, (name, unit)) in samples.iter().zip(END_TO_END) {
            let mid = stats::median(values);
            let range = values.iter().copied().fold(f64::MIN, f64::max)
                - values.iter().copied().fold(f64::MAX, f64::min);
            let iqr = if values.len() >= 2 {
                format!("{:.4}", stats::iqr_share(values))
            } else {
                "-".into()
            };
            println!(
                "| {} | {name} | {unit} | {mid:.6} | {:.4} | {iqr} | {} |",
                w.name,
                range / mid,
                values.len()
            );
        }
        println!(
            "| {} | failed | count | {failed} | - | - | {} |",
            w.name, args.sets
        );
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    // Before anything allocates in earnest.
    let malloc_fixed = sys::fix_malloc();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The library reads MPIJAVA_* overrides; a stray one would silently
    // change what is measured.
    if let Some((name, _)) =
        std::env::vars_os().find(|(k, _)| k.to_str().is_some_and(|k| k.starts_with("MPIJAVA_")))
    {
        eprintln!("benchmark: unset {} first", name.to_string_lossy());
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let outcome = if args.noise {
        noise(&args)
    } else if let Some(w) = workloads::find(&args.workload) {
        // The launching thread only spawns and joins ranks; parking it on
        // rank 0's core keeps bring-up from depending on where it woke up.
        sys::pin_to_core(0);
        run_one(w, &args, nproc, malloc_fixed)
    } else {
        run_all(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: verification failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn driver_flags_and_subcommands_agree() {
        let a = parse("--workload pingpong.1B --seed 7 --seconds 3 --trace 1").unwrap();
        let b = parse("trace pingpong.1B --seed 7 --seconds 3").unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(!parse("run all").unwrap().trace);
        assert!(parse("noise --sets 3").unwrap().noise);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--frobnicate").is_err());
    }
}
