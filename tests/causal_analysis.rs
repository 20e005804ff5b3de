//! Acceptance criteria for the cross-rank causal analysis: on a
//! modelled-link allreduce with one fault-delayed straggler, the
//! analysis must classify the other ranks' dominant wait state as
//! collective imbalance, attribute at least half the critical path to
//! the straggler and recover the planted delays exactly; the pass must
//! survive the kill-mid-allreduce spool drill's mixed victim/survivor
//! dumps; and on the one trace clock no receive, eager or rendezvous,
//! is stamped before its send began.

use mpi_bench::causal::{
    analyze, check_straggler_attribution, run_killcoll_drill, run_straggler_drill,
    StragglerDrillSpec,
};
use mpi_bench::tracemerge;
use mpijava::rs::Communicator as _;
use mpijava::{MpiRuntime, TraceConfig, WaitClass};

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mpijava-causal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn straggler_drill_blames_the_straggler() {
    let dir = scratch_dir("straggler");
    let spec = StragglerDrillSpec::default();
    let analysis = run_straggler_drill(&dir, &spec).expect("drill runs and analyzes");

    // The headline gate (shared verbatim with the CI binary).
    check_straggler_attribution(&analysis, &spec)
        .unwrap_or_else(|e| panic!("{e}\n{}", analysis.render_report()));

    // The pieces behind it, spelled out: every non-straggler waited at
    // least half of one injected delay in collective imbalance (the
    // delay cascades through the recursive-doubling rounds, so direct
    // blame may name an intermediate rank — but in aggregate the
    // straggler must collect more blame than anyone else)...
    let mut blame_total: std::collections::BTreeMap<usize, u64> = Default::default();
    for rank in (0..spec.ranks).filter(|&r| r != spec.straggler) {
        let p = analysis.profile(rank).unwrap();
        assert!(
            p.bucket(WaitClass::CollImbalance).total_ns
                >= u64::try_from(spec.delay.as_nanos() / 2).unwrap(),
            "rank {rank} waited less than half one injected delay:\n{}",
            analysis.render_report()
        );
        for (&blamed, &ns) in &p.blame_ns {
            *blame_total.entry(blamed).or_default() += ns;
        }
    }
    let top_blamed = blame_total
        .iter()
        .max_by_key(|&(_, ns)| *ns)
        .map(|(&r, _)| r);
    assert_eq!(
        top_blamed,
        Some(spec.straggler),
        "aggregate blame {blame_total:?} does not name the straggler:\n{}",
        analysis.render_report()
    );
    // ...no receive precedes its send on the one clock...
    assert_eq!(analysis.early_receives, 0);
    // ...and the JSON + report render without panicking and carry the
    // schema tag.
    let json = analysis.to_json();
    assert!(json.contains(mpi_bench::causal::ANALYSIS_SCHEMA));
    tracemerge::Json::parse(&json).expect("analysis JSON is well-formed");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killcoll_drill_analyzes_mixed_victim_and_survivor_dumps() {
    let root = scratch_dir("killcoll");
    let analysis = run_killcoll_drill(&root, 3).expect("killcoll drill analyzes");
    assert_eq!(analysis.ranks, vec![0, 1, 2]);
    assert!(analysis
        .collectives
        .iter()
        .any(|c| c.op == "allreduce" && c.durations_ns.len() == 3));
    assert_eq!(analysis.early_receives, 0);
    let _ = std::fs::remove_dir_all(&root);
}

/// A 256 KiB exchange goes by rendezvous: the receiver matches the
/// announcement, so the sender's `B` must be stamped before it leaves.
#[test]
fn rendezvous_receives_are_never_stamped_before_their_send() {
    let dir = scratch_dir("rendezvous");
    MpiRuntime::new(2)
        .trace(TraceConfig::events())
        .trace_dir(&dir)
        .run(|mpi| {
            let world = mpi.comm_world();
            let peer = 1 - world.rank()? as i32;
            let send = vec![1u8; 256 * 1024];
            let mut recv = vec![0u8; 256 * 1024];
            for _ in 0..8 {
                world.sendrecv(&send, peer, 0, &mut recv, peer, 0)?;
            }
            mpi.finalize()?;
            Ok(())
        })
        .expect("rendezvous exchange runs");
    let traces = tracemerge::load_trace_dir(&dir).expect("one dump per rank");
    let rendezvous = traces
        .iter()
        .flat_map(|t| &t.events)
        .filter(|ev| ev.name == "send_rendezvous" && ev.ph == 'B')
        .count();
    assert_eq!(rendezvous, 16, "every send went by rendezvous");
    let analysis = analyze(&traces).expect("dumps analyze");
    assert_eq!(analysis.messages_matched, 16);
    assert_eq!(analysis.early_receives, 0, "{}", analysis.render_report());
    let _ = std::fs::remove_dir_all(&dir);
}
