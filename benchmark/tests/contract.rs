//! Runs the benchmark binary the way the driver and a later CI job
//! would (`--smoke`: counts / 100, a few windows) and checks what it
//! prints and writes against `BENCHMARK.json` and the declared tables.
//!
//! The runs share `benchmark/out/` and the machine's two cores, so they
//! take turns behind one lock.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::{Mutex, MutexGuard};

use mpijava_benchmark::json::Json;
use mpijava_benchmark::run::{END_TO_END, PER_LAYER};
use mpijava_benchmark::stats::median;
use mpijava_benchmark::workloads::WORKLOADS;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn turn() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mpijava-benchmark"))
        .args(args)
        .output()
        .expect("spawn the benchmark")
}

fn out_file(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(name)
}

fn read_json(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn last_line(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().expect("some output");
    Json::parse(line).unwrap_or_else(|e| panic!("last line {line:?}: {e}"))
}

fn keys(value: &Json) -> Vec<&str> {
    value
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn num(value: &Json, key: &str) -> f64 {
    value
        .get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no number {key} in {}", value.render()))
}

/// Every declared metric is there, by name, with its unit and a number.
fn assert_metrics(doc: &Json, declared: &[(&str, &str)]) {
    let metrics = doc.get("metrics").expect("metrics");
    assert_eq!(
        keys(metrics),
        declared.iter().map(|(name, _)| *name).collect::<Vec<_>>(),
        "{}",
        doc.render()
    );
    for (name, unit) in declared {
        let m = metrics.get(name).expect("declared metric");
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit), "{name}");
        assert!(num(m, "value").is_finite(), "{name}");
    }
}

#[test]
fn smoke_run_of_all_workloads_writes_every_end_to_end_metric() {
    let _turn = turn();
    let started = std::time::Instant::now();
    let out = bench(&["run", "all", "--smoke", "--seed", "5"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        started.elapsed().as_secs() < 10,
        "smoke pass must stay short"
    );

    let result = read_json(&out_file("result.json"));
    let docs = result
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");
    assert_eq!(docs.len(), WORKLOADS.len());
    for (doc, w) in docs.iter().zip(&WORKLOADS) {
        assert_eq!(doc.get("workload").and_then(Json::as_str), Some(w.name));
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{}", w.name);
        assert_eq!(doc.get("pinned"), Some(&Json::Bool(true)), "{}", w.name);
        assert_eq!(num(doc, "failed"), 0.0);
        assert!(num(doc, "attempted") >= 1.0);
        assert_metrics(doc, &END_TO_END);
        for (name, _) in END_TO_END {
            let value = num(doc.get("metrics").unwrap().get(name).unwrap(), "value");
            assert!(value > 0.0, "{}: {name} must never be 0", w.name);
        }
        let meta = doc.get("meta").expect("run metadata");
        for key in [
            "commit",
            "rustc",
            "nproc",
            "seed",
            "seconds",
            "malloc",
            "malloc_fixed",
            "load_average_start",
            "load_average_end",
        ] {
            assert!(meta.get(key).is_some(), "{}: meta.{key}", w.name);
        }
        assert_eq!(num(meta, "seed"), 5.0);
        let info = doc.get("info").expect("info");
        assert_eq!(num(info, "fail_share"), 0.0);
        assert!(num(info, "ops_per_window") >= 1.0);
    }
}

#[test]
fn single_run_ends_with_exactly_the_contract_keys() {
    let _turn = turn();
    let out = bench(&[
        "--workload",
        "allreduce.4KiB",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--smoke",
    ]);
    assert!(out.status.success());
    let line = last_line(&out);
    assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
    assert_metrics(&line, &END_TO_END);
}

#[test]
fn injected_failure_is_reported_and_fails_the_run() {
    let _turn = turn();
    for workload in ["pingpong.1B", "stream.64B", "allreduce.4KiB", "halo.jacobi"] {
        let out = bench(&["run", workload, "--smoke", "--inject-fail"]);
        assert!(!out.status.success(), "{workload} must exit non-zero");
        let line = last_line(&out);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)), "{workload}");
        assert!(num(&line, "failed") > 0.0, "{workload}");
        assert!(
            num(&line, "failed") <= num(&line, "attempted"),
            "{workload}"
        );
    }
}

#[test]
fn a_stray_library_override_aborts_the_run() {
    let _turn = turn();
    let out = Command::new(env!("CARGO_BIN_EXE_mpijava-benchmark"))
        .args(["run", "pingpong.1B", "--smoke"])
        .env("MPIJAVA_PROGRESS", "thread")
        .output()
        .expect("spawn the benchmark");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result may be printed");
}

#[test]
fn smoke_trace_of_all_workloads_writes_the_ladder_and_well_formed_spans() {
    let _turn = turn();
    let out = bench(&["trace", "all", "--smoke", "--seed", "5"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let trace = read_json(&out_file("trace.json"));
    let docs = trace
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");
    assert_eq!(docs.len(), WORKLOADS.len());
    for doc in docs {
        assert_metrics(doc, &PER_LAYER);
        assert_eq!(num(doc, "failed"), 0.0);
        let ladder = doc
            .get("info")
            .and_then(|i| i.get("ladder")?.as_arr())
            .expect("ladder");
        assert_eq!(ladder.len(), 7);
    }

    // One span per line, seven fields each.
    let text = std::fs::read_to_string(out_file("trace.jsonl")).expect("span file");
    let spans: Vec<Json> = text
        .lines()
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("{l:?}: {e}")))
        .collect();
    assert!(!spans.is_empty());
    for s in &spans {
        assert_eq!(
            keys(s),
            ["name", "workload", "op", "level", "parent", "start_ns", "end_ns"]
        );
        assert!(num(s, "end_ns") >= num(s, "start_ns"));
    }

    let text_of = |s: &Json, key: &str| s.get(key).and_then(Json::as_str).map(String::from);
    for w in &WORKLOADS {
        let of_workload: Vec<&Json> = spans
            .iter()
            .filter(|s| text_of(s, "workload").as_deref() == Some(w.name))
            .collect();
        // Median duration of a level's operation spans, and its parent.
        let level = |name: &str| -> Option<(f64, Option<String>)> {
            let ops: Vec<&&Json> = of_workload
                .iter()
                .filter(|s| {
                    text_of(s, "level").as_deref() == Some(name)
                        && text_of(s, "name").as_deref() == Some("op")
                })
                .collect();
            let durations: Vec<f64> = ops
                .iter()
                .map(|s| num(s, "end_ns") - num(s, "start_ns"))
                .collect();
            ops.first()
                .map(|s| (median(&durations), text_of(s, "parent")))
        };
        // Every non-root level has its parent in the file; walking up
        // from the workload's own spans ends at the transport, and the
        // self times along the way add up to the top level's time.
        let (top, mut parent) = level("surface").unwrap_or_else(|| panic!("{}: surface", w.name));
        let mut below = top;
        let mut self_sum = 0.0;
        let mut depth = 0;
        while let Some(name) = parent {
            let (us, next) = level(&name).unwrap_or_else(|| panic!("{}: no {name}", w.name));
            self_sum += below - us;
            below = us;
            parent = next;
            depth += 1;
            assert!(depth <= 7, "{}: parent chain does not end", w.name);
        }
        self_sum += below;
        assert!(depth >= 3, "{}: the chain reaches the transport", w.name);
        assert!(
            (self_sum - top).abs() <= 0.01 * top,
            "{}: self times {self_sum} vs top level {top}",
            w.name
        );
        // Child spans lie inside an operation span of their level.
        for child in of_workload
            .iter()
            .filter(|s| text_of(s, "name").as_deref() != Some("op"))
        {
            let inside = of_workload.iter().any(|op| {
                text_of(op, "name").as_deref() == Some("op")
                    && text_of(op, "level") == text_of(child, "level")
                    && num(op, "op") == num(child, "op")
                    && num(op, "start_ns") <= num(child, "start_ns")
                    && num(child, "end_ns") <= num(op, "end_ns")
            });
            assert!(inside, "{}: orphan child span {}", w.name, child.render());
        }
    }
}

#[test]
fn benchmark_json_declares_what_the_binary_reports() {
    let manifest = read_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"));
    assert_eq!(
        keys(&manifest),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let name_ok = |name: &str| {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |unit: &str| {
        unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let text = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).expect(key).to_string();

    let workloads = manifest.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (declared, w) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(keys(declared), ["name", "why"]);
        assert_eq!(text(declared, "name"), w.name);
        assert_eq!(text(declared, "why"), w.why);
        assert!(name_ok(w.name) && w.why.len() <= 200 && !w.why.contains('\n'));
    }

    let declared = |section: &str, with_bound: bool| -> Vec<(String, String)> {
        manifest
            .get(section)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let mut expected = vec!["name", "unit", "better"];
                if with_bound {
                    expected.push("bound");
                    let bound = num(m, "bound");
                    assert!(bound > 0.0 && bound <= 0.25);
                }
                assert_eq!(keys(m), expected);
                assert!(["lower", "higher"].contains(&text(m, "better").as_str()));
                (text(m, "name"), text(m, "unit"))
            })
            .collect()
    };
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end", true), table(&END_TO_END));
    assert_eq!(declared("per_layer", false), table(&PER_LAYER));
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(name_ok(name), "{name}");
        assert!(unit_ok(unit), "{unit}");
    }
    assert!(END_TO_END.contains(&("setup_s", "s")));
}
