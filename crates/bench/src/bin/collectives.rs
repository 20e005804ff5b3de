//! The collective gates `benchmark/` cannot run: the `iallreduce`
//! compute/communication overlap cells, persistent vs transient
//! allreduce, and the hierarchical collectives against the flat tree on
//! hybrid fabrics. Prints each table and exits non-zero when a gate
//! fails.
//!
//! ```text
//! cargo run --release -p mpi-bench --bin collectives [RANKS] [REPS] [quick]
//! ```
//!
//! Defaults: 8 ranks, 5 timed reps per hybrid cell. `quick` runs the CI
//! smoke (2 ranks, one overlap cell per progress mode, one persistent
//! cell, one tiny hybrid cell).
//!
//! The overlap cells run `iallreduce` with injected compute over the
//! *due-time* link model (the sender's thread is free while bytes are
//! on the wire — see `modelled_overlap_link`), once per progress mode:
//! `manual` progresses the schedule with periodic `test()` calls, and
//! `thread` relies entirely on the background progress thread — zero
//! manual `test()` calls. Both report the fraction of communication
//! time hidden behind the compute. The headline cells — P=8, 256 KiB
//! on the modelled shm-fast link — must hide at least half of the
//! communication time in manual mode and at least 90% under the
//! progress thread.
//!
//! The persistent cells time a persistent allreduce
//! (`all_reduce_init` + `start()`/`wait()` per call) against its
//! transient twin on raw wall clock; at small payloads the persistent
//! path must be at least as fast (the gate runs in `quick` mode too,
//! at 1 KiB). That margin is a few percent, so the start path is also
//! gated by count, exactly and without noise, in `quick` mode too: at
//! every payload, the ring's included, each timed `start()` must add one
//! schedule-cache hit (its pinned template replayed) and no miss (no
//! re-plan).
//!
//! The `hybrid-{2,4}n` cells sweep the hierarchical collectives against
//! the flat algorithms over a two-class fabric: intra-node free,
//! inter-node across the modelled gigabit link (see
//! `modelled_internode_link`). The acceptance gate — hier allreduce
//! beating the flat binomial tree at P=8 for ≥256 KiB payloads on both
//! node shapes — is asserted in the full sweep; `quick` runs one tiny
//! hybrid cell as the CI smoke.

use mpi_bench::collbench::{
    measure_hier_cell, measure_overlap, measure_persistent, run_hier_suite, CollRecord,
    HierBenchSpec, OverlapRecord, PersistentRecord,
};
use mpijava::{DeviceKind, ProgressMode};

fn find_on(
    records: &[CollRecord],
    device: &str,
    op: &str,
    alg: &str,
    payload: usize,
) -> Option<f64> {
    records
        .iter()
        .find(|r| {
            r.op == op && r.algorithm == alg && r.payload_bytes == payload && r.device == device
        })
        .map(|r| r.us_per_op)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let first = args.next();
    let quick = first.as_deref() == Some("quick");
    let ranks: usize = if quick {
        2
    } else {
        first.and_then(|a| a.parse().ok()).unwrap_or(8)
    };
    let reps: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(5);

    // Hybrid-fabric cells: hier vs the flat algorithms over the
    // modelled inter-node link (intra-node free). The quick sweep runs a
    // single tiny cell as the CI hybrid smoke.
    let hier_spec = if quick {
        HierBenchSpec {
            ranks: 4,
            node_counts: vec![2],
            algorithms: vec![None, Some(mpijava::CollAlgorithm::Hierarchical)],
            ops: vec!["allreduce"],
            payloads: vec![4 * 1024],
            reps: 2,
            warmup: 1,
        }
    } else {
        HierBenchSpec {
            ranks,
            reps,
            ..HierBenchSpec::default()
        }
    };
    eprintln!(
        "hybrid hier sweep: {} ranks over {:?} nodes, payloads {:?}",
        hier_spec.ranks, hier_spec.node_counts, hier_spec.payloads
    );
    let records = run_hier_suite(&hier_spec, |r| {
        eprintln!(
            "  {:>10} {:>9} {:>7} {:>10}B -> {:>10.2} us",
            r.op, r.device, r.algorithm, r.payload_bytes, r.us_per_op
        );
    });

    // Overlap cells: iallreduce hiding communication behind injected
    // compute on the due-time shm-fast link model — once per progress
    // mode (manual test()-driven vs background progress thread).
    let overlap_cells: Vec<(usize, usize, usize)> = if quick {
        vec![(ranks, 64 * 1024, 2)] // (ranks, payload, reps)
    } else {
        vec![(ranks, 64 * 1024, 5), (ranks, 256 * 1024, 5)]
    };
    let mut overlap: Vec<OverlapRecord> = Vec::new();
    for (ranks, payload, reps) in overlap_cells {
        for mode in [ProgressMode::Manual, ProgressMode::Thread] {
            let record = measure_overlap(DeviceKind::ShmFast, None, ranks, payload, reps, mode);
            eprintln!(
                "  iallreduce overlap {:>9} {:>7} {:>7} {:>10}B -> comm {:>9.1} us, \
                 compute {:>9.1} us, overlapped {:>9.1} us, hidden {:>5.1}% \
                 ({} manual test()s/op)",
                record.device,
                record.algorithm,
                record.progress,
                record.payload_bytes,
                record.comm_us,
                record.compute_us,
                record.overlapped_us,
                record.overlap_ratio * 100.0,
                record.manual_tests_per_op
            );
            overlap.push(record);
        }
    }

    // Persistent-vs-transient allreduce cells (raw wall clock — the
    // quantity of interest is per-call software overhead).
    let persistent_cells: Vec<(usize, usize)> = if quick {
        vec![(1024, 200)] // (payload, reps)
    } else {
        vec![(1024, 400), (4 * 1024, 400), (64 * 1024, 100)]
    };
    let mut persistent: Vec<PersistentRecord> = Vec::new();
    for (payload, reps) in persistent_cells {
        let record = measure_persistent(DeviceKind::ShmFast, ranks, payload, reps, 10);
        eprintln!(
            "  allreduce persistent {:>9} {:>10}B -> transient {:>9.2} us, \
             persistent {:>9.2} us ({:+.2}x)",
            record.device,
            record.payload_bytes,
            record.transient_us,
            record.persistent_us,
            record.speedup
        );
        persistent.push(record);
    }

    println!("\n== iallreduce compute/communication overlap (shm-fast, due-time link) ==");
    for r in &overlap {
        println!(
            "  P={} {:>8}B [{}]: {:.1}% of {:.0} us communication hidden behind {:.0} us \
             compute ({} manual test()s/op)",
            r.ranks,
            r.payload_bytes,
            r.progress,
            r.overlap_ratio * 100.0,
            r.comm_us,
            r.compute_us,
            r.manual_tests_per_op
        );
    }
    println!("\n== persistent vs transient allreduce (shm-fast, raw wall clock) ==");
    for r in &persistent {
        println!(
            "  P={} {:>8}B: persistent {:.2} us vs transient {:.2} us ({:+.2}x)",
            r.ranks, r.payload_bytes, r.persistent_us, r.transient_us, r.speedup
        );
    }

    // Count gate (quick mode too): each persistent start of an allreduce
    // replays its pinned template without planning, so the schedule
    // cache sees no lookup at all — a re-plan shows as a hit or a miss.
    for r in &persistent {
        assert!(
            r.sched_cache_hits == 0 && r.sched_cache_misses == 0,
            "persistent allreduce re-planned at {}B: {} starts, {} cache hits, {} misses",
            r.payload_bytes,
            r.starts,
            r.sched_cache_hits,
            r.sched_cache_misses
        );
    }

    // Gate (runs in quick mode too): at 1 KiB the persistent path must
    // be at least as fast as the transient twin — the schedule-template
    // reuse has to pay for itself where per-call overhead dominates.
    if let Some(small) = persistent.iter().find(|r| r.payload_bytes == 1024) {
        assert!(
            small.persistent_us <= small.transient_us,
            "persistent allreduce regressed at 1 KiB: {:.2} us vs transient {:.2} us",
            small.persistent_us,
            small.transient_us
        );
    }

    if !quick {
        if let Some(headline) = overlap
            .iter()
            .find(|r| r.ranks == 8 && r.payload_bytes == 256 * 1024 && r.progress == "manual")
        {
            assert!(
                headline.overlap_ratio >= 0.5,
                "headline overlap cell regressed: only {:.1}% of communication hidden",
                headline.overlap_ratio * 100.0
            );
        }
        // Under the progress thread the schedule advances while every
        // rank computes, with zero manual test() calls — at least 90%
        // of the communication time must disappear behind the compute.
        if let Some(headline) = overlap
            .iter()
            .find(|r| r.ranks == 8 && r.payload_bytes == 256 * 1024 && r.progress == "thread")
        {
            assert_eq!(headline.manual_tests_per_op, 0);
            assert!(
                headline.overlap_ratio >= 0.9,
                "thread-mode overlap cell regressed: only {:.1}% of communication hidden \
                 (zero manual test() calls)",
                headline.overlap_ratio * 100.0
            );
        }
        // Small-payload persistent allreduce must be measurably faster,
        // not merely no slower (the ISSUE's acceptance bar at ≤4 KiB).
        for r in persistent.iter().filter(|r| r.payload_bytes <= 4 * 1024) {
            assert!(
                r.persistent_us < r.transient_us,
                "persistent allreduce not faster at {}B: {:.2} us vs transient {:.2} us",
                r.payload_bytes,
                r.persistent_us,
                r.transient_us
            );
        }
    }

    if quick {
        return;
    }

    // The multi-fabric claim: on a hybrid fabric the hierarchical
    // schedules cross the modelled inter-node link fewer times per byte
    // than the flat tree, so hier must win once the payload makes the
    // link the bottleneck.
    println!(
        "\n== hybrid fabrics, P={} — hier vs the flat tree over the modelled inter-node link ==",
        hier_spec.ranks
    );
    for &nodes in &hier_spec.node_counts {
        let device = format!("hybrid-{nodes}n");
        for op in &hier_spec.ops {
            for &payload in &hier_spec.payloads {
                if let (Some(tree), Some(hier)) = (
                    find_on(&records, &device, op, "tree", payload),
                    find_on(&records, &device, op, "hier", payload),
                ) {
                    println!(
                        "  {device} {op:>9} {payload:>8}B: hier {hier:>9.1} us vs tree {tree:>9.1} us ({}{:.2}x)",
                        if tree >= hier { "+" } else { "-" },
                        tree / hier
                    );
                }
            }
        }
    }
    // Acceptance gate: hier allreduce beats the flat tree at P=8 for
    // ≥256 KiB payloads on both node shapes. The margin at the largest
    // payload is a few percent — real, but within reach of host-load
    // drift on an oversubscribed CI core — so a losing sample is
    // re-measured back to back in fresh processes before it counts as
    // a regression: drift flips an occasional sample, a true regression
    // loses every rematch.
    for &nodes in &hier_spec.node_counts {
        let device = format!("hybrid-{nodes}n");
        for &payload in hier_spec.payloads.iter().filter(|&&p| p >= 256 * 1024) {
            if let (Some(tree), Some(hier)) = (
                find_on(&records, &device, "allreduce", "tree", payload),
                find_on(&records, &device, "allreduce", "hier", payload),
            ) {
                let (mut hier, mut tree) = (hier, tree);
                for _ in 0..2 {
                    if hier < tree {
                        break;
                    }
                    eprintln!(
                        "  re-measuring {device} allreduce {payload}B \
                         (hier {hier:.1} us vs tree {tree:.1} us)"
                    );
                    hier = measure_hier_cell(
                        hier_spec.ranks,
                        nodes,
                        Some(mpijava::CollAlgorithm::Hierarchical),
                        "allreduce",
                        payload,
                        hier_spec.reps,
                        hier_spec.warmup,
                    );
                    tree = measure_hier_cell(
                        hier_spec.ranks,
                        nodes,
                        Some(mpijava::CollAlgorithm::BinomialTree),
                        "allreduce",
                        payload,
                        hier_spec.reps,
                        hier_spec.warmup,
                    );
                }
                assert!(
                    hier < tree,
                    "hier allreduce regressed on {device} at {payload}B: \
                     {hier:.1} us vs tree {tree:.1} us"
                );
            }
        }
    }
}
