//! Environmental management (MPI-1.1 §7): timers, processor name and
//! abort — plus the `MPIJAVA_*` environment
//! overlay of the job configuration.
//!
//! ## Environment overrides
//!
//! Every run-time knob is one field of [`UniverseConfig`]. A
//! configuration is made in three layers: the defaults, then the
//! `MPIJAVA_*` environment, applied by [`overlay`] once when
//! [`UniverseConfig::new`] makes the configuration, then whatever the
//! program writes. [`overlay`] documents all nine variables in **one knob
//! table** (variable, field, `MpiRuntime` method, grammar, default, what
//! a malformed value does) together with the one precedence rule. The
//! sections below only spell out the longer grammars. Every rank of a
//! job is launched from the one configuration, so the settings are
//! symmetric by construction.
//!
//! Sizes accept an optional `k`/`K` (KiB) or `m`/`M` (MiB) suffix:
//! `MPIJAVA_EAGER_LIMIT=64k` or `MPIJAVA_EAGER_LIMIT=1M`.
//!
//! ## `MPIJAVA_PROGRESS`
//!
//! `thread` (aliases `background`, `async`) spawns one background
//! progress thread per rank that keeps draining the
//! nonblocking-collective engine, the rendezvous handshakes and
//! the RMA windows while application code computes; `manual` (alias
//! `none`) keeps the classic behavior where progress happens only
//! inside MPI calls. Anything else warns and runs `manual`, so a typo
//! cannot silently change the concurrency profile of a job.
//!
//! ## `MPIJAVA_NODES`
//!
//! Three spellings, for a job of `P` ranks:
//!
//! * `MPIJAVA_NODES=2` — two nodes, ranks block-split as evenly as
//!   possible;
//! * `MPIJAVA_NODES=2x4` — two nodes × four ranks per node (block
//!   assignment; `2 × 4` must equal `P`);
//! * `MPIJAVA_NODES=0,0,1,1` — explicit per-rank node ids (one entry per
//!   rank; ids are normalized to dense `0..N` in order of first
//!   appearance, so non-contiguous placements like `0,1,0,1` are legal).
//!
//! The placement is what the `hybrid` device routes by (intra-node vs
//! inter-node class) and what the collective tuning layer consults to
//! auto-select the hierarchical algorithms; on single-fabric devices it
//! only affects the topology queries. A malformed or size-inconsistent
//! value warns and is ignored, so a typo cannot silently reshape a job;
//! so does a `<nodes>x<ranks>` whose product overflows.
//!
//! ## `MPIJAVA_SPOOL_DIR` and `MPIJAVA_LEASE_MS`
//!
//! The spool root only matters on the `spool` device: set it to keep
//! undelivered frames on disk across process lifetimes (the substrate
//! for late-join and checkpoint/restart); unset, each job spins up an
//! ephemeral temp-dir spool that is removed when the last rank detaches.
//! The lease is the heartbeat timeout used by every failure-detecting
//! device: a rank whose lease file goes unrefreshed for longer than the
//! lease is reported dead to its peers. `0` is malformed like any
//! non-number, because a zero lease would declare every rank dead on
//! arrival.
//!
//! ## `MPIJAVA_FAULT`
//!
//! A comma-separated list of fault actions for deterministic failure
//! testing:
//!
//! * `kill:<rank>@<n>` — rank `<rank>`'s transport dies at its `<n>`-th
//!   send (1-based); peers see the death via the lease mechanism;
//! * `drop:<src>-><dst>@<n>` — silently drop the `<n>`-th frame from
//!   `src` to `dst`;
//! * `delay:<src>-><dst>@<n>:<ms>` — delay that frame by `<ms>`
//!   milliseconds (an optional `ms` suffix is accepted).
//!
//! Example: `MPIJAVA_FAULT=kill:2@5,delay:0->1@3:50ms`. A malformed
//! plan (a delay above [`mpi_transport::fault::MAX_FAULT_DELAY`]
//! included), or one that names a rank outside the job, warns and is
//! ignored —
//! fault injection is a testing tool, and a typo must not take down a
//! production job.
//!
//! ## `MPIJAVA_TRACE` and `MPIJAVA_TRACE_DIR`
//!
//! The observability level of the [`crate::trace`] subsystem:
//!
//! * `off` (aliases `none`, `0`, the default) — the always-compiled
//!   [`crate::EngineStats`] counters only; every trace hook is one enum
//!   compare;
//! * `counters` (alias `count`) — plus latency/duration histograms and
//!   transport frame counters in the metrics registry;
//! * `events` (alias `trace`) — plus the fixed-capacity per-rank event
//!   ring buffer, dumped as JSONL at finalize. An optional
//!   `events:<capacity>` sets the ring size in records (default
//!   [`crate::trace::DEFAULT_TRACE_CAPACITY`], at most
//!   [`crate::trace::MAX_TRACE_CAPACITY`]).
//!
//! A malformed value warns and traces `off`, so a typo cannot silently
//! record (or discard) a job's trace.
//!
//! `MPIJAVA_TRACE_DIR` names the directory the per-rank JSONL dumps go
//! to (created on demand). Unset, the dump lands in `<spool root>/trace`
//! when the job runs on the `spool` device, and nowhere otherwise — the
//! in-memory ring is still available programmatically through
//! `Engine::trace_events` / `Engine::dump_trace_to`.

use std::path::PathBuf;
use std::time::Duration;

use mpi_transport::{FaultPlan, Frame, FrameHeader, FrameKind, NodeMap};

use crate::coll::{CollAlgorithm, COLL_ALG_ENV};
use crate::comm::CommHandle;
use crate::error::Result;
use crate::trace::{TraceConfig, MAX_TRACE_CAPACITY};
use crate::{Engine, UniverseConfig};

/// `MPIJAVA_EAGER_LIMIT`: the eager/rendezvous switch-over point (see
/// the knob table on [`overlay`]).
pub const EAGER_LIMIT_ENV: &str = "MPIJAVA_EAGER_LIMIT";

/// `MPIJAVA_NODES`: rank → node placement (grammar in the module docs).
pub const NODES_ENV: &str = "MPIJAVA_NODES";

/// `MPIJAVA_PROGRESS`: the progress model (see [`ProgressMode`]).
pub const PROGRESS_ENV: &str = "MPIJAVA_PROGRESS";

/// `MPIJAVA_SPOOL_DIR`: a persistent spool root for the `spool` device.
pub const SPOOL_DIR_ENV: &str = "MPIJAVA_SPOOL_DIR";

/// `MPIJAVA_LEASE_MS`: the heartbeat lease used for failure detection.
pub const LEASE_MS_ENV: &str = "MPIJAVA_LEASE_MS";

/// `MPIJAVA_FAULT`: a deterministic fault-injection plan (grammar in the
/// module docs).
pub const FAULT_ENV: &str = "MPIJAVA_FAULT";

/// `MPIJAVA_TRACE`: the observability level (grammar in the module
/// docs; see [`crate::trace`]).
pub const TRACE_ENV: &str = "MPIJAVA_TRACE";

/// `MPIJAVA_TRACE_DIR`: the directory for per-rank JSONL trace dumps.
pub const TRACE_DIR_ENV: &str = "MPIJAVA_TRACE_DIR";

/// How a rank's engine is progressed between MPI calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ProgressMode {
    /// Progress happens only inside MPI calls (test/wait/probe and the
    /// blocking entry points) — the classic single-threaded model.
    #[default]
    Manual,
    /// A background thread per rank drives the progress engine
    /// continuously: nonblocking collectives, rendezvous handshakes and
    /// passive-target RMA advance while the application
    /// computes, with zero manual `test()` calls.
    Thread,
}

impl ProgressMode {
    /// Parse the [`PROGRESS_ENV`] grammar: `manual`/`none` and
    /// `thread`/`background`/`async` (ASCII case-insensitive).
    pub fn parse(raw: &str) -> Option<ProgressMode> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "manual" | "none" => Some(ProgressMode::Manual),
            "thread" | "background" | "async" => Some(ProgressMode::Thread),
            _ => None,
        }
    }
}

impl std::fmt::Display for ProgressMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ProgressMode::Manual => "manual",
            ProgressMode::Thread => "thread",
        })
    }
}

/// One pass of [`overlay`]: where the values come from and the warnings
/// collected so far.
struct Overlay<'a> {
    lookup: &'a dyn Fn(&str) -> Option<String>,
    warnings: Vec<String>,
}

impl Overlay<'_> {
    /// The one rule, for one knob: an unset or blank variable leaves the
    /// field as it is; else `parse` decides — `Ok(value)` is written into
    /// the field, `Err(why)` is malformed and costs exactly one warning.
    fn set<T, E: std::fmt::Display>(
        &mut self,
        slot: &mut T,
        name: &str,
        parse: impl FnOnce(&str) -> std::result::Result<T, E>,
    ) {
        let Some(raw) = (self.lookup)(name).filter(|raw| !raw.trim().is_empty()) else {
            return;
        };
        match parse(&raw) {
            Ok(value) => *slot = value,
            Err(why) => self.warnings.push(format!("{name}={raw:?} {why}")),
        }
    }
}

/// The single `MPIJAVA_*` pass: write every knob of `config` whose
/// environment variable, read through `lookup` (the process environment
/// in production, a table in tests), holds a valid value. Returns the
/// configuration and one message per malformed value.
///
/// **The one rule, for all nine knobs:** the default; over it the
/// environment variable, if set and not blank, applied when
/// [`UniverseConfig::new`] makes the configuration; over that whatever
/// the program writes afterwards (a `UniverseConfig` field, the
/// `MpiRuntime` builder, or an engine setter called after launch). A
/// malformed value warns once per configuration on stderr
/// (`warning: MPIJAVA_X="…" …`) and behaves as the last column says — it
/// never aborts the job and never changes it silently.
///
/// | variable | `UniverseConfig` field | `MpiRuntime` method | grammar | default | malformed |
/// |---|---|---|---|---|---|
/// | [`EAGER_LIMIT_ENV`] | `eager_threshold` | `eager_threshold` | `<bytes>[k\|m]` | [`crate::DEFAULT_EAGER_THRESHOLD`] | ignored |
/// | [`COLL_ALG_ENV`] | `coll_algorithm` | `coll_algorithm` | `linear\|tree\|rd\|ring\|hier\|auto` | `auto` (`None`): the tuned selection | ignored |
/// | [`NODES_ENV`] | `fabric.nodes` | `nodes` | `<nodes>`, `<nodes>x<ranks>` or `<id,id,…>` | one flat node | ignored |
/// | [`PROGRESS_ENV`] | `progress` | `progress` | `thread\|manual` | `manual` | `manual` |
/// | [`SPOOL_DIR_ENV`] | `fabric.spool_dir` | `spool_dir` | a path | ephemeral temp dir | — (the device reports a bad path) |
/// | [`LEASE_MS_ENV`] | `fabric.lease` | `lease` | milliseconds, `> 0` | [`mpi_transport::DEFAULT_LEASE`] | ignored |
/// | [`FAULT_ENV`] | `fabric.faults` | `faults` | `kill:…,drop:…,delay:…`, ranks `<` size | no faults | ignored |
/// | [`TRACE_ENV`] | `trace` | `trace` | `off\|counters\|events[:capacity]`, capacity `1..=`[`crate::trace::MAX_TRACE_CAPACITY`] | `off` | `off` |
/// | [`TRACE_DIR_ENV`] | `trace_dir` | `trace_dir` | a path | `<spool root>/trace`, else no dump | — (the dump reports a bad path) |
pub fn overlay(
    mut config: UniverseConfig,
    lookup: &dyn Fn(&str) -> Option<String>,
) -> (UniverseConfig, Vec<String>) {
    let size = config.fabric.size;
    let mut env = Overlay {
        lookup,
        warnings: Vec::new(),
    };
    let path = |raw: &str| Ok::<_, &str>(Some(PathBuf::from(raw)));
    env.set(&mut config.eager_threshold, EAGER_LIMIT_ENV, |raw| {
        let why = "is not a byte size (expected <bytes>[k|m]); keeping the default";
        parse_byte_size(raw).ok_or(why)
    });
    env.set(&mut config.coll_algorithm, COLL_ALG_ENV, |raw| {
        CollAlgorithm::parse_override(raw).map_err(|()| {
            "is not a recognized collective algorithm (expected \
             linear|tree|rd|ring|hier|auto); falling back to the tuned selection"
        })
    });
    env.set(&mut config.fabric.nodes, NODES_ENV, |raw| {
        NodeMap::parse(raw, size).map_err(|reason| {
            format!(
                "is not a usable node placement for a {size}-rank job ({reason}); \
                 running single-node"
            )
        })
    });
    env.set(&mut config.progress, PROGRESS_ENV, |raw| {
        let why = "is not a known progress mode (expected `thread` or `manual`); running manual";
        ProgressMode::parse(raw).ok_or(why)
    });
    env.set(&mut config.fabric.spool_dir, SPOOL_DIR_ENV, path);
    env.set(&mut config.fabric.lease, LEASE_MS_ENV, |raw| {
        match raw.trim().parse::<u64>() {
            Ok(ms) if ms > 0 => Ok(Duration::from_millis(ms)),
            _ => Err(
                "is not a usable lease (expected a positive number of milliseconds); \
                      keeping the default",
            ),
        }
    });
    env.set(&mut config.fabric.faults, FAULT_ENV, |raw| {
        FaultPlan::parse(raw)
            .and_then(|plan| match plan.max_rank() {
                Some(max) if max >= size => {
                    Err(format!("names rank {max} but the job has {size} ranks"))
                }
                _ => Ok(plan),
            })
            .map_err(|reason| {
                format!("is not a usable fault plan ({reason}); running without fault injection")
            })
    });
    env.set(&mut config.trace, TRACE_ENV, |raw| {
        TraceConfig::parse(raw).ok_or_else(|| {
            format!(
                "is not a usable trace level (expected off|counters|events[:capacity], \
                 capacity at most {MAX_TRACE_CAPACITY}); tracing off"
            )
        })
    });
    env.set(&mut config.trace_dir, TRACE_DIR_ENV, path);
    (config, env.warnings)
}

/// [`overlay`] over the process environment, warnings to stderr: what
/// [`UniverseConfig::new`] does once per configuration. The only reader
/// of the process environment in the engine and the binding.
pub(crate) fn resolve(config: UniverseConfig) -> UniverseConfig {
    let (config, warnings) = overlay(config, &|name| std::env::var(name).ok());
    for warning in warnings {
        eprintln!("warning: {warning}");
    }
    config
}

/// Parse a byte size with an optional `k`/`K` (KiB) or `m`/`M` (MiB)
/// suffix. Returns `None` for anything unparsable.
pub fn parse_byte_size(raw: &str) -> Option<usize> {
    let s = raw.trim();
    let (digits, multiplier) = match s.as_bytes().last()? {
        b'k' | b'K' => (&s[..s.len() - 1], 1024usize),
        b'm' | b'M' => (&s[..s.len() - 1], 1024 * 1024),
        _ => (s, 1),
    };
    digits
        .trim()
        .parse::<usize>()
        .ok()
        .and_then(|n| n.checked_mul(multiplier))
}

impl Engine {
    /// `MPI_Wtime`: seconds since an arbitrary origin, fixed for the job
    /// (the process's trace epoch).
    ///
    /// The paper's §4.2 had to work around WMPI's millisecond-resolution
    /// `MPI_Wtime`; this engine uses the Rust monotonic clock, whose
    /// resolution is far below a microsecond.
    pub fn wtime(&self) -> f64 {
        self.start_time.elapsed().as_secs_f64()
    }

    /// `MPI_Wtick`: the resolution of [`Engine::wtime`] in seconds.
    pub fn wtick(&self) -> f64 {
        // std::time::Instant on the supported platforms is nanosecond-grained.
        Duration::from_nanos(1).as_secs_f64()
    }

    /// `MPI_Get_processor_name`.
    pub fn processor_name(&self) -> &str {
        &self.processor_name
    }

    /// `MPI_Abort`: broadcast an abort notification to every other rank and
    /// mark this engine dead. Unlike the C binding this does not call
    /// `exit()` — the caller (or the binding's error handler) decides.
    pub fn abort(&mut self, _comm: CommHandle, errorcode: i32) -> Result<()> {
        for world in 0..self.world_size {
            if world == self.world_rank {
                continue;
            }
            let header = FrameHeader {
                kind: FrameKind::Control,
                src: self.world_rank as u32,
                dst: world as u32,
                tag: errorcode,
                context: u32::MAX,
                token: 0,
                msg_len: 0,
            };
            // Best effort: a dead peer must not stop the abort.
            let _ = self.endpoint.send(Frame::control(header));
        }
        self.aborted = true;
        Ok(())
    }

    /// True once this engine has aborted or observed another rank's abort.
    pub fn is_aborted(&self) -> bool {
        self.aborted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::COMM_WORLD;
    use crate::types::SendMode;
    use crate::universe::Universe;
    use mpi_transport::DeviceKind;

    #[test]
    fn byte_sizes_parse_with_suffixes() {
        assert_eq!(parse_byte_size("4096"), Some(4096));
        assert_eq!(parse_byte_size(" 64k "), Some(64 * 1024));
        assert_eq!(parse_byte_size("64K"), Some(64 * 1024));
        assert_eq!(parse_byte_size("2m"), Some(2 * 1024 * 1024));
        assert_eq!(parse_byte_size("1 M"), Some(1024 * 1024));
        assert_eq!(parse_byte_size(""), None);
        assert_eq!(parse_byte_size("k"), None);
        assert_eq!(parse_byte_size("abc"), None);
        assert_eq!(parse_byte_size("-5"), None);
        // Overflow guarded, not wrapped.
        assert_eq!(parse_byte_size(&format!("{}m", usize::MAX)), None);
    }

    #[test]
    fn progress_modes_parse_with_aliases() {
        assert_eq!(ProgressMode::parse("manual"), Some(ProgressMode::Manual));
        assert_eq!(ProgressMode::parse("none"), Some(ProgressMode::Manual));
        assert_eq!(ProgressMode::parse("thread"), Some(ProgressMode::Thread));
        assert_eq!(ProgressMode::parse(" THREAD "), Some(ProgressMode::Thread));
        assert_eq!(
            ProgressMode::parse("background"),
            Some(ProgressMode::Thread)
        );
        assert_eq!(ProgressMode::parse("async"), Some(ProgressMode::Thread));
        assert_eq!(ProgressMode::parse(""), None);
        assert_eq!(ProgressMode::parse("threads"), None);
        assert_eq!(ProgressMode::parse("yes"), None);
    }

    /// The one `MPIJAVA_*` mechanism, driven through an injected lookup
    /// (no test touches the process environment): all nine variables ×
    /// {unset, blank, valid, malformed}, "programmatic beats env" for
    /// every knob, and the exact warning count.
    #[test]
    fn overlay_applies_one_rule_to_all_nine_variables() {
        fn show<T: std::fmt::Debug>(value: T) -> String {
            format!("{value:?}")
        }
        struct Knob {
            name: &'static str,
            /// Raw value → the field it must produce.
            valid: Vec<(&'static str, String)>,
            malformed: Vec<&'static str>,
            get: fn(&UniverseConfig) -> String,
            /// A programmatic write no `valid` value produces.
            set: fn(UniverseConfig) -> UniverseConfig,
        }
        let plan = FaultPlan::parse("kill:2@5,drop:0->1@3").unwrap();
        assert_eq!((plan.actions.len(), plan.max_rank()), (2, Some(2)));
        let knobs = [
            Knob {
                name: EAGER_LIMIT_ENV,
                valid: vec![("64k", show(65536)), (" 4096 ", show(4096))],
                malformed: vec!["lots", "-1"],
                get: |c| show(c.eager_threshold),
                set: |c| UniverseConfig {
                    eager_threshold: 7,
                    ..c
                },
            },
            Knob {
                name: COLL_ALG_ENV,
                valid: vec![
                    ("ring", show(Some(CollAlgorithm::Ring))),
                    ("auto", show(None::<CollAlgorithm>)),
                ],
                malformed: vec!["zzz", "linear,ring", "pipelined"],
                get: |c| show(c.coll_algorithm),
                set: |c| UniverseConfig {
                    coll_algorithm: Some(CollAlgorithm::Linear),
                    ..c
                },
            },
            Knob {
                name: NODES_ENV,
                valid: vec![
                    ("2x2", show(NodeMap::regular(2, 2))),
                    ("0,0,1,1", show(NodeMap::regular(2, 2))),
                ],
                // The last two overflow `nodes * per_node` (one wraps to
                // exactly 4 on a 64-bit target).
                malformed: vec![
                    "3x3",
                    "two",
                    "4294967296x4294967296",
                    "9223372036854775810x2",
                ],
                get: |c| show(&c.fabric.nodes),
                set: |mut c| {
                    c.fabric.nodes = NodeMap::regular(4, 1);
                    c
                },
            },
            Knob {
                name: PROGRESS_ENV,
                valid: vec![
                    ("thread", show(ProgressMode::Thread)),
                    ("manual", show(ProgressMode::Manual)),
                ],
                malformed: vec!["turbo"],
                get: |c| show(c.progress),
                set: |c| UniverseConfig {
                    progress: ProgressMode::Thread,
                    ..c
                },
            },
            Knob {
                name: SPOOL_DIR_ENV,
                valid: vec![("/tmp/spool-here", show(Some("/tmp/spool-here")))],
                malformed: vec![],
                get: |c| show(&c.fabric.spool_dir),
                set: |mut c| {
                    c.fabric.spool_dir = Some("/programmatic".into());
                    c
                },
            },
            Knob {
                name: LEASE_MS_ENV,
                valid: vec![("250", show(Duration::from_millis(250)))],
                malformed: vec!["0", "fast"],
                get: |c| show(c.fabric.lease),
                set: |mut c| {
                    c.fabric.lease = Duration::from_millis(7);
                    c
                },
            },
            Knob {
                name: FAULT_ENV,
                valid: vec![("kill:2@5,drop:0->1@3", show(plan))],
                // Then two name a rank outside the 4-rank job, and the
                // last holds a frame above `MAX_FAULT_DELAY`.
                malformed: vec![
                    "explode:everything",
                    "kill:9@1",
                    "drop:0->7@1",
                    "delay:0->1@1:18446744073709551615",
                ],
                get: |c| show(&c.fabric.faults),
                set: |mut c| {
                    c.fabric.faults = FaultPlan::parse("drop:0->1@1").unwrap();
                    c
                },
            },
            Knob {
                name: TRACE_ENV,
                valid: vec![
                    (
                        "events:1024",
                        show(TraceConfig::events().with_capacity(1024)),
                    ),
                    ("counters", show(TraceConfig::counters())),
                ],
                // The last two are rings above `MAX_TRACE_CAPACITY`.
                malformed: vec![
                    "everything",
                    "events:18446744073709551615",
                    "events:1000000000000",
                ],
                get: |c| show(c.trace),
                set: |c| UniverseConfig {
                    trace: TraceConfig::events().with_capacity(7),
                    ..c
                },
            },
            Knob {
                name: TRACE_DIR_ENV,
                valid: vec![("/tmp/traces-here", show(Some("/tmp/traces-here")))],
                malformed: vec![],
                get: |c| show(&c.trace_dir),
                set: |c| UniverseConfig {
                    trace_dir: Some("/programmatic".into()),
                    ..c
                },
            },
        ];
        let base = || UniverseConfig::defaults(4, mpi_transport::DeviceKind::ShmFast);

        for knob in &knobs {
            let name = knob.name;
            let default = (knob.get)(&base());
            let overlaid = |raw: Option<&str>| {
                let lookup = move |var: &str| raw.filter(|_| var == name).map(String::from);
                overlay(base(), &lookup)
            };
            let with = |raw: Option<&str>| {
                let (config, warnings) = overlaid(raw);
                ((knob.get)(&config), warnings)
            };
            assert_eq!(with(None), (default.clone(), vec![]), "{name} unset");
            assert_eq!(with(Some("  ")), (default.clone(), vec![]), "{name} blank");
            for (raw, expected) in &knob.valid {
                let got = with(Some(raw));
                assert_eq!(got, (expected.clone(), vec![]), "{name}={raw}");
            }
            for raw in &knob.malformed {
                let (field, warnings) = with(Some(raw));
                assert_eq!(field, default, "{name}={raw} must leave the default");
                assert_eq!(warnings.len(), 1, "{name}={raw}: {warnings:?}");
                assert!(warnings[0].starts_with(&format!("{name}={raw:?} ")));
            }
            // Programmatic beats env: the program's write comes after the
            // overlay, whatever the variable held.
            let programmatic = (knob.get)(&(knob.set)(base()));
            assert_ne!(programmatic, default, "{name}'s programmatic value");
            for raw in knob.valid.iter().map(|(raw, _)| raw).chain(&knob.malformed) {
                let (config, _) = overlaid(Some(raw));
                assert_eq!(
                    (knob.get)(&(knob.set)(config)),
                    programmatic,
                    "{name}={raw}"
                );
            }
        }

        // A whole job: every variable at once, first valid, then malformed
        // (a path cannot be malformed, hence seven warnings, one per
        // variable), then a fully programmatic config written over it.
        let all = |pick: fn(&Knob) -> Option<&'static str>| {
            let values: Vec<_> = knobs.iter().map(|k| (k.name, pick(k))).collect();
            move |var: &str| {
                let (_, raw) = values.iter().find(|(name, _)| *name == var)?;
                raw.map(String::from)
            }
        };
        let (config, warnings) = overlay(base(), &all(|k| Some(k.valid[0].0)));
        assert_eq!(warnings, Vec::<String>::new());
        for knob in &knobs {
            assert_eq!((knob.get)(&config), knob.valid[0].1, "{}", knob.name);
        }
        let programmatic = |config| knobs.iter().fold(config, |c, k| (k.set)(c));
        assert_eq!(show(programmatic(config)), show(programmatic(base())));
        let malformed = all(|k| k.malformed.first().copied());
        let (config, warnings) = overlay(base(), &malformed);
        assert_eq!(warnings.len(), 7, "{warnings:?}");
        for knob in knobs.iter().filter(|k| !k.malformed.is_empty()) {
            let named = warnings.iter().filter(|w| w.starts_with(knob.name));
            assert_eq!(named.count(), 1, "{} in {warnings:?}", knob.name);
            assert_eq!((knob.get)(&config), (knob.get)(&base()), "{}", knob.name);
        }
        // The fallbacks a malformed value leaves behind.
        assert_eq!(config.progress, ProgressMode::Manual);
        assert_eq!(config.trace, TraceConfig::off());
        assert_eq!(show(programmatic(config)), show(programmatic(base())));
    }

    #[test]
    fn wtime_is_monotonic_and_fine_grained() {
        Universe::run(1, DeviceKind::ShmFast, |engine| {
            let t0 = engine.wtime();
            let mut x = 0u64;
            for i in 0..10_000u64 {
                x = x.wrapping_add(i);
            }
            std::hint::black_box(x);
            let t1 = engine.wtime();
            assert!(t1 >= t0);
            assert!(
                engine.wtick() < 1e-6,
                "paper needed µs resolution; we have ns"
            );
        })
        .unwrap();
    }

    #[test]
    fn processor_name_distinguishes_ranks() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            let name = engine.processor_name().to_string();
            assert!(name.contains(&format!("rank-{}", engine.world_rank())));
        })
        .unwrap();
    }

    #[test]
    fn abort_poisons_remote_engines() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            if engine.world_rank() == 0 {
                engine.abort(COMM_WORLD, 3).unwrap();
                assert!(engine.is_aborted());
                assert!(engine
                    .send(COMM_WORLD, 1, 0, b"", SendMode::Standard)
                    .is_err());
            } else {
                // Wait until the abort control frame has been processed.
                loop {
                    // iprobe drives the progress engine.
                    match engine.iprobe(COMM_WORLD, 0, 0) {
                        Err(_) => break, // check_live already failed
                        Ok(_) => {
                            if engine.is_aborted() {
                                break;
                            }
                        }
                    }
                    std::thread::yield_now();
                }
                assert!(engine.is_aborted());
            }
        })
        .unwrap();
    }
}
