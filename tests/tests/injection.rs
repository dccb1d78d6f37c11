//! Failure-injection integration tests: plant a fault with the
//! simulator's injection hooks and verify PerFlow's analyses *find* it.

use perflow::{InteractiveSession, PerFlow, PerFlowError, RunHandleExt, Suggestion};
use progmodel::{c, nranks, rank, ProgramBuilder};
use simrt::{FaultPlan, RankStatus, RunConfig, SimError};

/// A perfectly balanced program: any detected imbalance must come from
/// the injected fault.
fn balanced_prog() -> progmodel::Program {
    let mut pb = ProgramBuilder::new("balanced");
    let main = pb.declare("main", "b.c");
    let halo = pb.declare("halo_exchange", "b.c");
    pb.define(halo, |f| {
        f.irecv((rank() + nranks() - 1.0).rem(nranks()), c(2048.0), 0);
        f.isend((rank() + 1.0).rem(nranks()), c(2048.0), 0);
        f.waitall();
    });
    pb.define(main, |f| {
        f.loop_("step", c(100.0), |b| {
            b.compute("stencil", c(400.0) * progmodel::noise(0.02, 17));
            b.call(halo);
            b.allreduce(c(8.0));
        });
    });
    pb.build(main)
}

#[test]
fn healthy_run_reports_no_imbalance() {
    let pflow = PerFlow::new();
    let run = pflow.run(&balanced_prog(), &RunConfig::new(8)).unwrap();
    let imb = pflow.imbalance_analysis(&run.vertices(), 0.25);
    // The stencil itself is balanced (±2 % noise) — only wait-dominated
    // comm vertices may show up; the compute must not.
    let names: Vec<&str> = imb
        .ids
        .iter()
        .map(|&v| imb.graph.pag().vertex_name(v))
        .collect();
    assert!(
        !names.contains(&"stencil"),
        "balanced stencil flagged: {names:?}"
    );
}

#[test]
fn degraded_node_is_located_by_imbalance_analysis() {
    let pflow = PerFlow::new();
    let cfg = RunConfig::new(8).with_slow_rank(5, 2.5);
    let run = pflow.run(&balanced_prog(), &cfg).unwrap();

    // Top-down: the stencil kernel is now imbalanced.
    let imb = pflow.imbalance_analysis(&run.vertices(), 0.25);
    let names: Vec<&str> = imb
        .ids
        .iter()
        .map(|&v| imb.graph.pag().vertex_name(v))
        .collect();
    assert!(names.contains(&"stencil"), "stencil not flagged: {names:?}");

    // Parallel view: the lagging replica is on the injected rank.
    let pv = run.parallel_vertices().filter_name("stencil");
    let lagging = pflow.imbalance_analysis(&pv, 0.25);
    assert_eq!(lagging.len(), 1);
    let proc = lagging
        .graph
        .pag()
        .metric_i64(lagging.ids[0], pag::mkeys::PROC);
    assert_eq!(proc, Some(5), "wrong straggler located");
}

#[test]
fn interactive_session_walks_to_the_injected_fault() {
    let pflow = PerFlow::new();
    let cfg = RunConfig::new(8).with_slow_rank(3, 3.0);
    let run = pflow.run(&balanced_prog(), &cfg).unwrap();
    let mut s = InteractiveSession::new(&run);
    assert_eq!(s.suggest(), Suggestion::Hotspot);
    s.hotspot(8);
    s.imbalance(0.25);
    assert!(!s.current().is_empty());
    let report = s.report(&["name", "debug-info", "score"]);
    assert!(report.render().contains("imbalance_analysis"));
}

#[test]
fn interactive_parallel_projection_traces_the_injected_fault() {
    let pflow = PerFlow::new();
    let cfg = RunConfig::new(8).with_slow_rank(3, 3.0);
    let run = pflow.run(&balanced_prog(), &cfg).unwrap();
    let mut s = InteractiveSession::new(&run);
    s.filter("MPI_Allreduce");
    // One flow replica per rank, and the session now suggests causality.
    assert_eq!(s.to_parallel().len(), 8);
    assert_eq!(s.suggest(), Suggestion::Causal);
    // Causal analysis on the projected waits names the stencil kernel.
    let causes = s.causal();
    let names: Vec<&str> = causes
        .ids
        .iter()
        .map(|&v| causes.graph.pag().vertex_name(v))
        .collect();
    assert_eq!(names, ["stencil"]);
    let report = s.report(&["name"]).render();
    assert!(report.contains("to_parallel_view"), "{report}");
}

#[test]
fn breakdown_attributes_injected_fault_waits() {
    let pflow = PerFlow::new();
    let cfg = RunConfig::new(8).with_slow_rank(0, 4.0);
    let run = pflow.run(&balanced_prog(), &cfg).unwrap();
    let comm = pflow.filter(&run.vertices(), "MPI_Allreduce");
    let (_causes, report) = pflow.breakdown_analysis(&comm);
    // The allreduce waits trace back to imbalance before the comm.
    assert!(
        report.render().contains("load-imbalance-before-comm")
            || report.render().contains("imbalanced-communication"),
        "{}",
        report.render()
    );
}

#[test]
fn crashed_rank_yields_partial_data_and_is_localized() {
    // One of eight ranks dies mid-run: the run must still return Ok with
    // data from the survivors, the PAG must carry per-rank completeness
    // metadata, and the analyses must localize the missing rank.
    let pflow = PerFlow::new();
    let cfg = RunConfig::new(8).with_faults(FaultPlan::new().crash_rank(5, 10_000.0));
    let run = pflow
        .run(&balanced_prog(), &cfg)
        .expect("crash must degrade, not fail, the run");

    // Rank statuses: 5 crashed, the rest completed (fail-fast lets the
    // survivors run to the end).
    let data = run.data();
    assert!(matches!(data.rank_status[5], RankStatus::Crashed { .. }));
    for r in [0usize, 1, 2, 3, 4, 6, 7] {
        assert!(
            data.rank_status[r].is_completed(),
            "rank {r} was {}",
            data.rank_status[r]
        );
    }
    assert!(!data.is_complete());

    // Per-rank completeness metadata on the top-down root.
    let set = run.vertices();
    let pag = set.graph.pag();
    let root_status = pag
        .vstr(run.root(), pag::keys::RANK_STATUS)
        .expect("degraded run must carry rank-status on the root");
    assert!(root_status.contains("rank 5 crashed"), "{root_status}");
    let per_proc = pag
        .metric_vec(run.root(), pag::mkeys::COMPLETENESS_PER_PROC)
        .expect("degraded run must carry per-proc completeness");
    assert_eq!(per_proc.len(), 8);

    // The planted fault is localized from the surviving ranks: the
    // balanced stencil is now imbalanced (rank 5 contributed only a
    // quarter of a run's worth of samples).
    let imb = pflow.imbalance_analysis(&run.vertices(), 0.05);
    let names: Vec<&str> = imb
        .ids
        .iter()
        .map(|&v| imb.graph.pag().vertex_name(v))
        .collect();
    assert!(names.contains(&"stencil"), "stencil not flagged: {names:?}");

    // Hotspot detection still ranks the dominant kernel.
    let hot = pflow.hotspot_detection(&run.vertices(), 4);
    let hot_names: Vec<&str> = hot
        .ids
        .iter()
        .map(|&v| hot.graph.pag().vertex_name(v))
        .collect();
    assert!(hot_names.contains(&"stencil"), "hotspots: {hot_names:?}");

    // Parallel view: the crashed rank's flow exists but is marked.
    let pv = run.parallel_vertices().filter_name("stencil");
    let marked: Vec<i64> = pv
        .ids
        .iter()
        .filter(|&&v| pv.graph.pag().vstr(v, pag::keys::RANK_STATUS).is_some())
        .filter_map(|&v| pv.graph.pag().metric_i64(v, pag::mkeys::PROC))
        .collect();
    assert_eq!(marked, vec![5], "only rank 5's flow should be marked");
}

#[test]
fn sample_loss_degrades_collection_without_touching_timing() {
    let pflow = PerFlow::new();
    let prog = balanced_prog();
    let clean = pflow.run(&prog, &RunConfig::new(8)).unwrap();
    let lossy = pflow
        .run(
            &prog,
            &RunConfig::new(8).with_faults(FaultPlan::new().with_sample_loss(0.25)),
        )
        .unwrap();

    // Sample loss is an observer fault: the application's virtual timing
    // is bit-identical with and without it.
    assert_eq!(clean.data().elapsed, lossy.data().elapsed);

    // But the collection is degraded and says so.
    assert!(clean.data().is_complete());
    assert!(!lossy.data().is_complete());
    let lost: u64 = lossy.data().dropped_samples.values().sum();
    assert!(lost > 0);
    let lossy_set = lossy.vertices();
    let pag = lossy_set.graph.pag();
    let root_compl = pag
        .metric(lossy.root(), pag::mkeys::COMPLETENESS)
        .expect("degraded run must carry root completeness");
    assert!(
        (root_compl - 0.75).abs() < 0.05,
        "expected ~75% completeness, got {root_compl}"
    );

    // The hotspot is still found despite the loss.
    let hot = pflow.hotspot_detection(&lossy.vertices(), 4);
    let names: Vec<&str> = hot
        .ids
        .iter()
        .map(|&v| hot.graph.pag().vertex_name(v))
        .collect();
    assert!(names.contains(&"stencil"), "hotspots: {names:?}");
}

#[test]
fn hung_rank_is_triaged_into_a_rich_hang_error() {
    let pflow = PerFlow::new();
    let cfg = RunConfig::new(8).with_faults(FaultPlan::new().hang_rank(2, 5_000.0));
    let err = pflow
        .run(&balanced_prog(), &cfg)
        .expect_err("a hang must not look like a successful run");
    let PerFlowError::Sim(SimError::Hang {
        hung,
        blocked,
        virtual_time_us,
    }) = err
    else {
        panic!("expected SimError::Hang, got {err}");
    };
    assert_eq!(hung.len(), 1);
    let (rank, stmt, at) = hung[0];
    assert_eq!(rank, 2);
    assert!(stmt.is_some(), "hang must record the last statement");
    assert!(at >= 5_000.0);
    assert!(virtual_time_us >= at);
    // The healthy ranks end up blocked behind the hung collective.
    assert!(!blocked.is_empty());
    assert!(blocked.iter().all(|(r, _)| *r != 2));
}

#[test]
fn fault_injection_is_deterministic_under_a_fixed_seed() {
    let prog = balanced_prog();
    let cfg = RunConfig::new(8).with_seed(42).with_faults(
        FaultPlan::new()
            .crash_rank(3, 15_000.0)
            .with_sample_loss(0.1)
            .with_message_drop(0.05, 50.0)
            .with_pmu_corruption(0.02),
    );
    let a = simrt::simulate(&prog, &cfg).unwrap();
    let b = simrt::simulate(&prog, &cfg).unwrap();
    assert_eq!(
        a.summary(),
        b.summary(),
        "identical seeds must replay identically"
    );
    // And the faults actually fired.
    assert!(matches!(a.rank_status[3], RankStatus::Crashed { .. }));
    assert!(a.summary().dropped_samples > 0);
    assert!(a.summary().retransmits > 0);
}

#[test]
fn scalability_paradigm_is_robust_to_injected_noise() {
    // The paradigm must not crash or mis-rank when one run carries an
    // injected straggler: the injected kernel dominates the diff.
    let pflow = PerFlow::new();
    let prog = balanced_prog();
    let small = pflow.run(&prog, &RunConfig::new(4)).unwrap();
    let large = pflow
        .run(&prog, &RunConfig::new(16).with_slow_rank(7, 3.0))
        .unwrap();
    let result = perflow::paradigms::scalability_analysis(&small, &large, 8, 0.25).unwrap();
    let names: Vec<&str> = result
        .root_causes
        .ids
        .iter()
        .map(|&v| result.root_causes.graph.pag().vertex_name(v))
        .collect();
    assert!(
        names.contains(&"stencil") || names.contains(&"step"),
        "injected straggler kernel not among causes: {names:?}"
    );
}
