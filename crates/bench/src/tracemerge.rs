//! Merge per-rank JSONL trace dumps into one Chrome `trace_event` JSON
//! timeline.
//!
//! With `MPIJAVA_TRACE=events` every rank dumps its event ring at
//! finalize as `trace-rank<NNNNN>.jsonl` (see `mpi_native::trace`): a
//! meta line carrying the rank's wall-clock anchor (`start_unix_ns`)
//! followed by one JSON object per event with nanosecond timestamps on
//! the monotonic clock behind that anchor. This module aligns the ranks'
//! clocks onto one wall-clock timeline and emits the Chrome
//! `trace_event` "JSON Array Format": one `pid 0` process, one `tid`
//! track per rank, `B`/`E` duration events and `i` instants — loadable
//! in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
//!
//! Every engine in one process stamps on one trace epoch, so the
//! anchors of an in-process job agree exactly; dumps written by
//! separate processes align as well as their hosts' wall clocks agree.
//! Ranks whose ring overflowed get a `ring_dropped` instant marking
//! where their surviving window begins.
//!
//! Everything here is dependency-free: the output is assembled by hand
//! and [`validate_chrome_trace`] re-parses it with the minimal JSON
//! parser in [`Json`], so the CI smoke test proves the merged file is
//! well-formed without pulling in a JSON crate.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------
// Minimal JSON value + recursive-descent parser (validation path)
// ---------------------------------------------------------------------

/// A parsed JSON value. Numbers are kept as `f64` (every number the
/// trace format emits is an integer well inside the 2^53 exact range).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// Member lookup on an object, `None` on anything else.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number as an `i64`, if this is a numeric value.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) => Some(*n as i64),
            _ => None,
        }
    }

    /// The number as an `f64`, if this is a numeric value.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string slice, if this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is an array value.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == byte {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {} (found {:?})",
            byte as char,
            pos,
            bytes.get(*pos).map(|&b| b as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if matches!(bytes.get(*pos), Some(b'-')) {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input is a &str, so the
                // byte stream is valid UTF-8 by construction).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let ch = rest.chars().next().unwrap();
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'}')) {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            other => return Err(format!("expected ',' or '}}', found {other:?}")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b']')) {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            other => return Err(format!("expected ',' or ']', found {other:?}")),
        }
    }
}

// ---------------------------------------------------------------------
// Per-rank JSONL loading
// ---------------------------------------------------------------------

/// One rank's parsed trace dump: the meta line plus its events, still on
/// the monotonic clock its anchor dates.
#[derive(Debug, Clone)]
pub struct RankTrace {
    /// World rank that owns the ring.
    pub rank: usize,
    /// World size of the job (as stamped by that rank).
    pub size: usize,
    /// Transport device label (e.g. `spool`).
    pub device: String,
    /// Trace mode at dump time (`events` for a populated ring).
    pub mode: String,
    /// Events overwritten after the ring filled.
    pub dropped: u64,
    /// Wall-clock anchor: `SystemTime` nanoseconds of the events' t=0
    /// (the writing process's trace epoch).
    pub start_unix_ns: u128,
    /// The recorded events, oldest first.
    pub events: Vec<RankEvent>,
}

/// One event line of a per-rank dump.
#[derive(Debug, Clone)]
pub struct RankEvent {
    /// Nanoseconds since the anchor, on a monotonic clock.
    pub ts_ns: u64,
    /// Event name (`send_eager`, `coll_round`, ...).
    pub name: String,
    /// Phase letter: `B`, `E`, or `i`.
    pub ph: char,
    /// The event's arguments, re-serialized verbatim into the merge.
    pub args: Vec<(String, ArgValue)>,
}

/// An event argument: the dumps only ever carry integers and (for
/// collective op/algorithm labels) strings.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    Int(i64),
    Str(String),
}

/// Parse one rank's JSONL dump (meta line + event lines).
pub fn parse_rank_trace(text: &str) -> Result<RankTrace, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let meta_line = lines.next().ok_or("empty trace file")?;
    let meta = Json::parse(meta_line).map_err(|e| format!("meta line: {e}"))?;
    if meta.get("meta").map(|v| v == &Json::Bool(true)) != Some(true) {
        return Err("first line is not a meta line".into());
    }
    let field = |key: &str| -> Result<i64, String> {
        meta.get(key)
            .and_then(Json::as_i64)
            .ok_or_else(|| format!("meta line missing {key:?}"))
    };
    let mut trace = RankTrace {
        rank: field("rank")? as usize,
        size: field("size")? as usize,
        device: meta
            .get("device")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string(),
        mode: meta
            .get("mode")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string(),
        dropped: field("dropped")? as u64,
        // u128 round-trips through f64 losing sub-microsecond precision
        // after ~2255 AD; parse the digits directly instead.
        start_unix_ns: extract_u128(meta_line, "start_unix_ns")?,
        events: Vec::new(),
    };
    for (idx, line) in lines.enumerate() {
        let ev = Json::parse(line).map_err(|e| format!("event line {}: {e}", idx + 1))?;
        let ts_ns =
            ev.get("ts_ns")
                .and_then(Json::as_i64)
                .ok_or_else(|| format!("event line {} missing ts_ns", idx + 1))? as u64;
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event line {} missing name", idx + 1))?
            .to_string();
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .and_then(|s| s.chars().next())
            .ok_or_else(|| format!("event line {} missing ph", idx + 1))?;
        let mut args = Vec::new();
        if let Some(Json::Obj(members)) = ev.get("args") {
            for (key, value) in members {
                let value = match value {
                    Json::Num(n) => ArgValue::Int(*n as i64),
                    Json::Str(s) => ArgValue::Str(s.clone()),
                    other => return Err(format!("unexpected arg value {other:?}")),
                };
                args.push((key.clone(), value));
            }
        }
        trace.events.push(RankEvent {
            ts_ns,
            name,
            ph,
            args,
        });
    }
    Ok(trace)
}

/// Pull a large unsigned integer field out of the raw meta line without
/// the f64 round-trip the generic parser would impose.
fn extract_u128(line: &str, key: &str) -> Result<u128, String> {
    let pat = format!("\"{key}\":");
    let start = line
        .find(&pat)
        .ok_or_else(|| format!("meta line missing {key:?}"))?
        + pat.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits
        .parse::<u128>()
        .map_err(|e| format!("bad {key}: {e}"))
}

/// Load every `trace-rank*.jsonl` under `dir`, sorted by rank.
pub fn load_trace_dir(dir: &Path) -> Result<Vec<RankTrace>, String> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|path| {
            path.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("trace-rank") && n.ends_with(".jsonl"))
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no trace-rank*.jsonl files in {}", dir.display()));
    }
    let mut traces = Vec::with_capacity(files.len());
    for path in files {
        let text =
            fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        traces.push(parse_rank_trace(&text).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    traces.sort_by_key(|t| t.rank);
    Ok(traces)
}

// ---------------------------------------------------------------------
// Merge: per-rank monotonic clocks -> one Chrome trace_event timeline
// ---------------------------------------------------------------------

/// Anchor offsets (ns above the earliest `start_unix_ns`) for a trace
/// set: what puts every rank's events on one timeline. Fits i64 unless
/// the dumps span ~292 years.
pub(crate) fn anchors(traces: &[RankTrace]) -> Vec<i64> {
    let base = traces
        .iter()
        .map(|t| t.start_unix_ns)
        .min()
        .unwrap_or_default();
    traces
        .iter()
        .map(|t| (t.start_unix_ns - base) as i64)
        .collect()
}

/// Merge per-rank traces into Chrome `trace_event` JSON (the "JSON
/// Array Format"): `pid` 0, one `tid` per rank, timestamps in
/// microseconds aligned via each rank's `start_unix_ns` wall-clock
/// anchor (the earliest anchor becomes t=0 of the merged timeline).
///
/// Ranks that dropped events to ring overflow get a `ring_dropped`
/// instant at the start of their surviving window, so a gap in the
/// merged timeline is labelled rather than silently truncated.
pub fn merge(traces: &[RankTrace]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut push = |event: String, out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        out.push_str(&event);
    };
    for (trace, offset_ns) in traces.iter().zip(anchors(traces)) {
        // A metadata event names the track after the rank + device.
        push(
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\
                 \"args\":{{\"name\":\"rank {} ({})\"}}}}",
                trace.rank, trace.rank, trace.device
            ),
            &mut out,
        );
        if trace.dropped > 0 {
            // The ring overwrote its oldest events: mark where the
            // surviving window begins so the reader sees the gap.
            let first_ts = trace.events.first().map(|e| e.ts_ns).unwrap_or(0);
            let ts_us = (offset_ns + first_ts as i64) as f64 / 1000.0;
            push(
                format!(
                    "{{\"name\":\"ring_dropped\",\"ph\":\"i\",\"ts\":{:.3},\"pid\":0,\
                     \"tid\":{},\"s\":\"t\",\"args\":{{\"dropped\":{}}}}}",
                    ts_us, trace.rank, trace.dropped
                ),
                &mut out,
            );
        }
        for ev in &trace.events {
            let ts_us = (offset_ns + ev.ts_ns as i64) as f64 / 1000.0;
            let mut args = String::new();
            for (i, (key, value)) in ev.args.iter().enumerate() {
                if i > 0 {
                    args.push(',');
                }
                match value {
                    ArgValue::Int(n) => {
                        let _ = write!(args, "\"{}\":{}", escape(key), n);
                    }
                    ArgValue::Str(s) => {
                        let _ = write!(args, "\"{}\":\"{}\"", escape(key), escape(s));
                    }
                }
            }
            // Chrome instant events want an explicit thread scope.
            let scope = if ev.ph == 'i' { ",\"s\":\"t\"" } else { "" };
            push(
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"{}\",\"ts\":{:.3},\"pid\":0,\"tid\":{}{},\
                     \"args\":{{{}}}}}",
                    escape(&ev.name),
                    ev.ph,
                    ts_us,
                    trace.rank,
                    scope,
                    args
                ),
                &mut out,
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// What [`validate_chrome_trace`] learned from a parse-back of the
/// merged JSON.
#[derive(Debug, Clone)]
pub struct ChromeSummary {
    /// Real (non-metadata) events in the timeline.
    pub events: usize,
    /// Distinct `tid` values among real events — one per rank that
    /// recorded anything.
    pub tracks: BTreeSet<i64>,
    /// Distinct event names seen.
    pub names: BTreeSet<String>,
}

/// Re-parse merged Chrome trace JSON and check its shape: a top-level
/// `traceEvents` array whose members all carry `name`/`ph`/`pid`/`tid`,
/// real events also a numeric `ts`, and every `B` matched by an `E` on
/// the same track. Returns a summary of what the timeline contains.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeSummary, String> {
    let doc = Json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut summary = ChromeSummary {
        events: 0,
        tracks: BTreeSet::new(),
        names: BTreeSet::new(),
    };
    let mut depth_by_tid: std::collections::BTreeMap<i64, i64> = Default::default();
    for (idx, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {idx} missing ph"))?;
        let tid = ev
            .get("tid")
            .and_then(Json::as_i64)
            .ok_or_else(|| format!("event {idx} missing tid"))?;
        ev.get("pid")
            .and_then(Json::as_i64)
            .ok_or_else(|| format!("event {idx} missing pid"))?;
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {idx} missing name"))?;
        if ph == "M" {
            continue; // metadata: names a track, carries no timestamp
        }
        ev.get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {idx} missing ts"))?;
        match ph {
            "B" => *depth_by_tid.entry(tid).or_default() += 1,
            "E" => {
                let depth = depth_by_tid.entry(tid).or_default();
                *depth -= 1;
                if *depth < 0 {
                    return Err(format!("event {idx}: unmatched E on tid {tid}"));
                }
            }
            "i" => {}
            other => return Err(format!("event {idx}: unexpected phase {other:?}")),
        }
        summary.events += 1;
        summary.tracks.insert(tid);
        summary.names.insert(name.to_string());
    }
    for (tid, depth) in depth_by_tid {
        if depth != 0 {
            return Err(format!("tid {tid}: {depth} unmatched B events"));
        }
    }
    Ok(summary)
}

/// Load a trace directory, merge it, and write `out` (convenience used
/// by the `tracemerge` binary and the integration tests). Returns the
/// parse-back summary of the file just written.
pub fn merge_dir_to_file(dir: &Path, out: &Path) -> Result<ChromeSummary, String> {
    let merged = merge(&load_trace_dir(dir)?);
    let summary = validate_chrome_trace(&merged)?;
    fs::write(out, merged).map_err(|e| format!("writing {}: {e}", out.display()))?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RANK0: &str = concat!(
        "{\"meta\":true,\"rank\":0,\"size\":2,\"device\":\"shm\",\"mode\":\"events\",",
        "\"capacity\":1024,\"recorded\":3,\"dropped\":0,\"start_unix_ns\":1000000}\n",
        "{\"ts_ns\":1000,\"name\":\"send_eager\",\"ph\":\"B\",\"args\":{\"peer\":1,\"tag\":7,\"bytes\":64}}\n",
        "{\"ts_ns\":2000,\"name\":\"send_eager\",\"ph\":\"E\",\"args\":{\"peer\":1,\"tag\":7,\"bytes\":64}}\n",
        "{\"ts_ns\":2500,\"name\":\"coll\",\"ph\":\"i\",\"args\":{\"op\":\"allreduce\",\"alg\":\"rd\",\"id\":1}}\n",
    );
    const RANK1: &str = concat!(
        "{\"meta\":true,\"rank\":1,\"size\":2,\"device\":\"shm\",\"mode\":\"events\",",
        "\"capacity\":1024,\"recorded\":1,\"dropped\":0,\"start_unix_ns\":2000000}\n",
        "{\"ts_ns\":500,\"name\":\"recv_posted\",\"ph\":\"i\",\"args\":{\"peer\":0,\"tag\":7,\"bytes\":64}}\n",
    );

    #[test]
    fn json_parser_round_trips_the_dump_grammar() {
        let v =
            Json::parse("{\"a\":1,\"b\":-2.5,\"c\":\"x\\\"y\",\"d\":[true,false,null],\"e\":{}}")
                .unwrap();
        assert_eq!(v.get("a").unwrap().as_i64(), Some(1));
        assert_eq!(v.get("b").unwrap().as_f64(), Some(-2.5));
        assert_eq!(v.get("c").unwrap().as_str(), Some("x\"y"));
        assert_eq!(v.get("d").unwrap().as_arr().unwrap().len(), 3);
        assert!(Json::parse("{\"a\":1} junk").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
    }

    #[test]
    fn parses_a_rank_dump() {
        let t = parse_rank_trace(RANK0).unwrap();
        assert_eq!(t.rank, 0);
        assert_eq!(t.size, 2);
        assert_eq!(t.device, "shm");
        assert_eq!(t.start_unix_ns, 1_000_000);
        assert_eq!(t.events.len(), 3);
        assert_eq!(t.events[0].name, "send_eager");
        assert_eq!(t.events[0].ph, 'B');
        assert_eq!(
            t.events[2].args[0],
            ("op".to_string(), ArgValue::Str("allreduce".into()))
        );
    }

    #[test]
    fn merge_aligns_clocks_and_validates() {
        let traces = vec![
            parse_rank_trace(RANK0).unwrap(),
            parse_rank_trace(RANK1).unwrap(),
        ];
        let merged = merge(&traces);
        let summary = validate_chrome_trace(&merged).unwrap();
        assert_eq!(summary.events, 4);
        assert_eq!(summary.tracks.len(), 2);
        assert!(summary.names.contains("send_eager"));
        assert!(summary.names.contains("recv_posted"));
        // Rank 1 started 1ms after rank 0, so its 500ns event lands at
        // 1000.5us on the merged timeline.
        let doc = Json::parse(&merged).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let rank1_ev = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("recv_posted"))
            .unwrap();
        assert_eq!(rank1_ev.get("ts").unwrap().as_f64(), Some(1000.5));
        assert_eq!(rank1_ev.get("tid").unwrap().as_i64(), Some(1));
    }

    #[test]
    fn empty_ring_merges_to_a_named_track_with_no_events() {
        let meta_only = "{\"meta\":true,\"rank\":0,\"size\":1,\"device\":\"shm\",\
                         \"mode\":\"events\",\"capacity\":1024,\"recorded\":0,\
                         \"dropped\":0,\"start_unix_ns\":1000000}\n";
        let traces = vec![parse_rank_trace(meta_only).unwrap()];
        assert!(traces[0].events.is_empty());
        let summary = validate_chrome_trace(&merge(&traces)).unwrap();
        assert_eq!(summary.events, 0);
        assert!(summary.tracks.is_empty());
    }

    #[test]
    fn dropped_events_surface_as_a_ring_dropped_marker() {
        let overflowed = concat!(
            "{\"meta\":true,\"rank\":0,\"size\":1,\"device\":\"shm\",\"mode\":\"events\",",
            "\"capacity\":2,\"recorded\":2,\"dropped\":17,\"start_unix_ns\":1000000}\n",
            "{\"ts_ns\":5000,\"name\":\"coll\",\"ph\":\"i\",\"args\":{\"op\":\"barrier\",\"alg\":\"rd\",\"id\":9}}\n",
        );
        let traces = vec![parse_rank_trace(overflowed).unwrap()];
        let merged = merge(&traces);
        let summary = validate_chrome_trace(&merged).unwrap();
        assert!(summary.names.contains("ring_dropped"));
        let doc = Json::parse(&merged).unwrap();
        let marker = doc
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("ring_dropped"))
            .unwrap()
            .clone();
        // The marker sits at the first surviving event and carries the
        // drop count.
        assert_eq!(marker.get("ts").unwrap().as_f64(), Some(5.0));
        assert_eq!(
            marker.get("args").unwrap().get("dropped").unwrap().as_i64(),
            Some(17)
        );
    }

    #[test]
    fn unbalanced_pairs_fail_validation() {
        let merged = "{\"traceEvents\":[\
            {\"name\":\"x\",\"ph\":\"B\",\"ts\":1.0,\"pid\":0,\"tid\":0,\"args\":{}}]}";
        assert!(validate_chrome_trace(merged)
            .unwrap_err()
            .contains("unmatched B"));
    }
}
