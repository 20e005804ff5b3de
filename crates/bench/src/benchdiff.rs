//! Compare two benchmark or analysis JSON files: the perf-regression
//! gate.
//!
//! Two modes, sharing one report shape:
//!
//! * **bench** — two `BENCH_*.json` files (the versioned
//!   `{schema, bench, ..., rows: [...]}` envelope from
//!   [`crate::runmeta`], or a legacy bare row array). Rows are keyed by
//!   their identifying members (string fields plus well-known shape
//!   fields like `bytes`/`ranks`), every other numeric field is
//!   compared as a relative change, and changes beyond the threshold
//!   become report entries. The gate is direction-agnostic: a 2×
//!   speed-up fails it too, because an unexplained improvement in a
//!   tracked number is as suspicious as a regression until a human
//!   re-baselines.
//! * **analysis** — two `causal-analysis-v1` files from
//!   [`crate::causal`]. Compared as *shares*, not absolutes (wall
//!   times vary run to run; the causal structure should not): the
//!   critical path's compute/send/wait/transport composition, per-rank
//!   path shares, and each rank's dominant wait class. Entries are
//!   absolute share deltas beyond the threshold; a dominant-class flip
//!   is always an entry.
//!
//! Mixed or unknown schemas are an error, not a silent pass — that is
//! the point of stamping them.

use std::fmt::Write as _;

use crate::causal::ANALYSIS_SCHEMA;
use crate::tracemerge::Json;

/// Row members treated as identity, not measurement, in bench mode.
/// Beyond the generic shape fields, this names every configuration
/// member the repo's own emitters use, so two sweep cells differing
/// only in (say) payload never collide onto one key.
const ID_KEYS: &[&str] = &[
    "bytes",
    "size",
    "ranks",
    "p",
    "cap",
    "reps",
    "iters",
    "dim",
    "halo",
    "n",
    "warmup",
    "payload_bytes",
    "eager_limit",
    "segment_bytes",
    "link_ns_per_byte",
    "link_bytes_per_sec",
    "manual_tests_per_op",
];

/// One observed difference.
#[derive(Debug, Clone)]
pub struct DiffEntry {
    /// Which row/aspect changed (human-readable key).
    pub key: String,
    /// Which field of it.
    pub field: String,
    /// Value in the `before` file.
    pub before: f64,
    /// Value in the `after` file.
    pub after: f64,
    /// Bench mode: relative change (`after/before - 1`). Analysis
    /// mode: absolute share delta (`after - before`).
    pub delta: f64,
}

/// The outcome of a comparison.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Values compared (matched row/field pairs or shares).
    pub compared: usize,
    /// Changes beyond the threshold.
    pub entries: Vec<DiffEntry>,
    /// Structural observations (rows only on one side, dominant-class
    /// flips, ...).
    pub notes: Vec<String>,
}

impl DiffReport {
    /// True when nothing moved beyond the threshold.
    pub fn is_clean(&self) -> bool {
        self.entries.is_empty()
    }

    /// Human-readable rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "benchdiff: {} values compared, {} beyond threshold, {} notes",
            self.compared,
            self.entries.len(),
            self.notes.len()
        );
        for e in &self.entries {
            let _ = writeln!(
                out,
                "  {} :: {}: {:.6} -> {:.6} ({:+.1}%)",
                e.key,
                e.field,
                e.before,
                e.after,
                100.0 * e.delta
            );
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        out
    }
}

fn schema_of(doc: &Json) -> Option<&str> {
    doc.get("schema").and_then(Json::as_str)
}

/// Extract the rows from a versioned envelope, a sectioned envelope
/// (any top-level array members, e.g. the collectives bench's
/// `cells`/`overlap`/`persistent`), or a legacy bare array. Each row
/// comes tagged with its section name (empty for `rows`/bare arrays) so
/// same-looking rows in different sections never cross-match.
fn rows_of(doc: &Json) -> Result<Vec<(&str, &Json)>, String> {
    if let Some(rows) = doc.get("rows").and_then(Json::as_arr) {
        return Ok(rows.iter().map(|r| ("", r)).collect());
    }
    if let Some(rows) = doc.as_arr() {
        return Ok(rows.iter().map(|r| ("", r)).collect());
    }
    if let Json::Obj(members) = doc {
        let sectioned: Vec<(&str, &Json)> = members
            .iter()
            .filter_map(|(k, v)| v.as_arr().map(|rows| (k.as_str(), rows)))
            .flat_map(|(k, rows)| rows.iter().map(move |r| (k, r)))
            .collect();
        if !sectioned.is_empty() {
            return Ok(sectioned);
        }
    }
    Err("neither a {rows: [...]} envelope, a sectioned object, nor a bare row array".into())
}

/// The identity key of one row: its section, its string members, and
/// its [`ID_KEYS`] numeric members, in file order.
fn row_key(section: &str, row: &Json) -> String {
    let Json::Obj(members) = row else {
        return String::from("?");
    };
    let mut parts = Vec::new();
    if !section.is_empty() {
        parts.push(section.to_string());
    }
    for (k, v) in members {
        match v {
            Json::Str(s) => parts.push(format!("{k}={s}")),
            Json::Num(n) if ID_KEYS.contains(&k.as_str()) => parts.push(format!("{k}={n}")),
            _ => {}
        }
    }
    parts.join(",")
}

/// Compare two bench JSON files (see the module docs). `threshold` is
/// relative: `0.25` flags any field that moved more than 25% either
/// way.
pub fn diff_bench_json(before: &str, after: &str, threshold: f64) -> Result<DiffReport, String> {
    let before = Json::parse(before).map_err(|e| format!("before: {e}"))?;
    let after = Json::parse(after).map_err(|e| format!("after: {e}"))?;
    let mut report = DiffReport::default();
    match (schema_of(&before), schema_of(&after)) {
        (Some(a), Some(b)) if a != b => {
            return Err(format!("schema mismatch: {a:?} vs {b:?}"));
        }
        (None, None) => report
            .notes
            .push("both files are legacy (unversioned)".into()),
        (None, Some(_)) | (Some(_), None) => report
            .notes
            .push("one file is legacy (unversioned) — comparing rows anyway".into()),
        _ => {}
    }
    let before_rows = rows_of(&before).map_err(|e| format!("before: {e}"))?;
    let after_rows = rows_of(&after).map_err(|e| format!("after: {e}"))?;
    let mut after_by_key: Vec<(String, &Json)> = after_rows
        .iter()
        .map(|(section, r)| (row_key(section, r), *r))
        .collect();
    for (section, brow) in before_rows {
        let key = row_key(section, brow);
        let Some(pos) = after_by_key.iter().position(|(k, _)| *k == key) else {
            report.notes.push(format!("row [{key}] only in before"));
            continue;
        };
        let (_, arow) = after_by_key.remove(pos);
        let Json::Obj(members) = brow else { continue };
        for (field, bval) in members {
            let Json::Num(b) = bval else { continue };
            if ID_KEYS.contains(&field.as_str()) {
                continue;
            }
            let Some(a) = arow.get(field).and_then(Json::as_f64) else {
                report
                    .notes
                    .push(format!("row [{key}] field {field} only in before"));
                continue;
            };
            report.compared += 1;
            let delta = if *b == 0.0 {
                if a == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                a / b - 1.0
            };
            if delta.abs() > threshold {
                report.entries.push(DiffEntry {
                    key: key.clone(),
                    field: field.clone(),
                    before: *b,
                    after: a,
                    delta,
                });
            }
        }
    }
    for (key, _) in after_by_key {
        report.notes.push(format!("row [{key}] only in after"));
    }
    Ok(report)
}

/// Share of one component in a critical-path object.
fn path_share(cp: &Json, field: &str) -> f64 {
    let total = cp.get("total_ns").and_then(Json::as_f64).unwrap_or(0.0);
    if total == 0.0 {
        return 0.0;
    }
    cp.get(field).and_then(Json::as_f64).unwrap_or(0.0) / total
}

/// Compare two causal-analysis JSON files as shares (see the module
/// docs). `threshold` is an absolute share delta: `0.15` flags any
/// composition or rank share that moved more than 15 points.
pub fn diff_analysis_json(before: &str, after: &str, threshold: f64) -> Result<DiffReport, String> {
    let before = Json::parse(before).map_err(|e| format!("before: {e}"))?;
    let after = Json::parse(after).map_err(|e| format!("after: {e}"))?;
    for (label, doc) in [("before", &before), ("after", &after)] {
        match schema_of(doc) {
            Some(ANALYSIS_SCHEMA) => {}
            other => {
                return Err(format!(
                    "{label}: schema {other:?}, want {ANALYSIS_SCHEMA:?}"
                ))
            }
        }
    }
    let mut report = DiffReport::default();
    let (bcp, acp) = (
        before
            .get("critical_path")
            .ok_or("before: no critical_path")?,
        after
            .get("critical_path")
            .ok_or("after: no critical_path")?,
    );
    for field in ["compute_ns", "send_ns", "wait_ns", "transport_ns"] {
        let (b, a) = (path_share(bcp, field), path_share(acp, field));
        report.compared += 1;
        if (a - b).abs() > threshold {
            report.entries.push(DiffEntry {
                key: "critical_path composition".into(),
                field: field.trim_end_matches("_ns").into(),
                before: b,
                after: a,
                delta: a - b,
            });
        }
    }
    if let (Some(Json::Obj(bs)), Some(as_)) = (bcp.get("rank_share"), acp.get("rank_share")) {
        for (rank, bval) in bs {
            let (Some(b), Some(a)) = (bval.as_f64(), as_.get(rank).and_then(Json::as_f64)) else {
                continue;
            };
            report.compared += 1;
            if (a - b).abs() > threshold {
                report.entries.push(DiffEntry {
                    key: format!("rank {rank}"),
                    field: "path_share".into(),
                    before: b,
                    after: a,
                    delta: a - b,
                });
            }
        }
    }
    // Dominant wait-class flips are always worth an entry.
    let waits = |doc: &Json| -> Vec<(i64, Option<String>)> {
        doc.get("waits")
            .and_then(Json::as_arr)
            .map(|ws| {
                ws.iter()
                    .filter_map(|w| {
                        Some((
                            w.get("rank")?.as_i64()?,
                            w.get("dominant").and_then(Json::as_str).map(String::from),
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    let bw = waits(&before);
    for (rank, bdom) in &bw {
        if let Some((_, adom)) = waits(&after).iter().find(|(r, _)| r == rank) {
            report.compared += 1;
            if bdom != adom {
                report.entries.push(DiffEntry {
                    key: format!("rank {rank}"),
                    field: format!(
                        "dominant wait {} -> {}",
                        bdom.as_deref().unwrap_or("none"),
                        adom.as_deref().unwrap_or("none")
                    ),
                    before: 0.0,
                    after: 0.0,
                    delta: 1.0,
                });
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = r#"{
      "schema": "bench-v1", "bench": "p2p", "commit": "a", "date": "2026-08-07",
      "host": "linux/x86_64/8cpu",
      "rows": [
        {"stack": "wmpijava", "bytes": 1, "one_way_us": 1.0, "bw_mbps": 10.0},
        {"stack": "wmpijava", "bytes": 1024, "one_way_us": 4.0, "bw_mbps": 200.0}
      ]
    }"#;

    #[test]
    fn flags_only_fields_beyond_threshold() {
        let after = BEFORE.replace("\"one_way_us\": 1.0", "\"one_way_us\": 1.6");
        let report = diff_bench_json(BEFORE, &after, 0.25).unwrap();
        assert_eq!(report.compared, 4);
        assert_eq!(report.entries.len(), 1, "{}", report.render());
        assert_eq!(report.entries[0].field, "one_way_us");
        assert!((report.entries[0].delta - 0.6).abs() < 1e-9);
        assert!(diff_bench_json(BEFORE, BEFORE, 0.25).unwrap().is_clean());
    }

    #[test]
    fn schema_mismatch_is_an_error_and_legacy_is_noted() {
        let other = BEFORE.replace("bench-v1", "bench-v2");
        assert!(diff_bench_json(BEFORE, &other, 0.25)
            .unwrap_err()
            .contains("schema mismatch"));
        let legacy = "[{\"stack\": \"wmpijava\", \"bytes\": 1, \"one_way_us\": 1.0}]";
        let report = diff_bench_json(legacy, legacy, 0.25).unwrap();
        assert!(report.notes.iter().any(|n| n.contains("legacy")));
        assert_eq!(report.compared, 1);
    }

    #[test]
    fn sectioned_envelopes_diff_per_section_without_cross_matching() {
        // The same-shaped row appears in two sections; only the `cells`
        // copy changes, and the entry names its section.
        let sectioned = r#"{
          "schema": "bench-v1", "bench": "collectives", "commit": "a",
          "date": "2026-08-07", "host": "linux/x86_64/8cpu",
          "cells": [{"op": "allreduce", "payload_bytes": 64, "us_per_op": 1.0}],
          "persistent": [{"op": "allreduce", "payload_bytes": 64, "us_per_op": 9.0}]
        }"#;
        let after = sectioned.replace("\"us_per_op\": 1.0", "\"us_per_op\": 3.0");
        let report = diff_bench_json(sectioned, &after, 0.25).unwrap();
        assert_eq!(report.compared, 2, "{}", report.render());
        assert_eq!(report.entries.len(), 1, "{}", report.render());
        assert!(
            report.entries[0].key.starts_with("cells,"),
            "{}",
            report.entries[0].key
        );
        assert!(report.notes.is_empty(), "{}", report.render());
    }

    /// The shape of the committed `BENCH_collectives.json`: unversioned,
    /// sectioned, rows told apart only by numeric identity members. It
    /// parses, keys every row uniquely and self-diffs clean — the one
    /// thing CI's old self-diff of that file could check.
    #[test]
    fn unversioned_sectioned_files_parse_and_self_diff_clean() {
        let legacy = r#"{
          "cells": [
            {"op": "bcast", "payload_bytes": 0, "ranks": 2, "us_per_op": 13.100},
            {"op": "bcast", "payload_bytes": 4096, "ranks": 2, "us_per_op": 27.561}
          ],
          "persistent": [{"op": "allreduce", "payload_bytes": 1024, "speedup": 1.085}]
        }"#;
        let report = diff_bench_json(legacy, legacy, 0.25).unwrap();
        assert!(report.entries.is_empty(), "{}", report.render());
        assert_eq!(report.compared, 3);
        assert_eq!(report.notes, ["both files are legacy (unversioned)"]);
    }

    #[test]
    fn unmatched_rows_become_notes() {
        let after = BEFORE.replace("\"bytes\": 1024", "\"bytes\": 2048");
        let report = diff_bench_json(BEFORE, &after, 0.25).unwrap();
        assert!(report.notes.iter().any(|n| n.contains("only in before")));
        assert!(report.notes.iter().any(|n| n.contains("only in after")));
    }

    fn analysis(wait_share: f64, dom: &str) -> String {
        let total = 1_000_000.0;
        let wait = total * wait_share;
        let compute = total - wait;
        format!(
            r#"{{"schema": "causal-analysis-v1",
                "waits": [{{"rank": 0, "dominant": "{dom}"}}],
                "critical_path": {{"total_ns": {total}, "compute_ns": {compute},
                  "send_ns": 0, "wait_ns": {wait}, "transport_ns": 0,
                  "rank_share": {{"0": 1.0}}}}}}"#
        )
    }

    #[test]
    fn analysis_mode_compares_shares_and_dominant_flips() {
        let a = analysis(0.1, "late_sender");
        let same = diff_analysis_json(&a, &a, 0.15).unwrap();
        assert!(same.is_clean(), "{}", same.render());
        // Wait share 0.1 -> 0.4 (delta 0.3) plus a dominant flip.
        let b = analysis(0.4, "coll_imbalance");
        let report = diff_analysis_json(&a, &b, 0.15).unwrap();
        assert!(
            report.entries.iter().any(|e| e.field == "wait"),
            "{}",
            report.render()
        );
        assert!(report
            .entries
            .iter()
            .any(|e| e.field.contains("dominant wait")));
        // Wrong schema refuses.
        let wrong = a.replace("causal-analysis-v1", "bench-v1");
        assert!(diff_analysis_json(&wrong, &b, 0.15).is_err());
    }
}
