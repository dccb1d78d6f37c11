//! Integration tests of the three paper case studies (§5.3-5.5): each
//! paradigm must locate the planted bug in the corresponding workload,
//! and fixing the bug must pay off roughly as the paper reports.

use perflow::paradigms::{contention_diagnosis, iterative_causal, scalability_analysis};
use perflow::PerFlow;
use simrt::RunConfig;

// ----------------------------------------------------------- case study A

#[test]
fn zeusmp_scalability_analysis_finds_bvald_boundary_loop() {
    let pflow = PerFlow::new();
    let prog = workloads::zeusmp();
    let small = pflow.run(&prog, &RunConfig::new(4)).unwrap();
    let large = pflow.run(&prog, &RunConfig::new(32)).unwrap();
    let result = scalability_analysis(&small, &large, 10, 0.2).unwrap();

    let pag = result.root_causes.graph.pag();
    let names: Vec<&str> = result
        .root_causes
        .ids
        .iter()
        .map(|&v| pag.vertex_name(v))
        .collect();
    assert!(
        names
            .iter()
            .any(|n| *n == "bvald_fill" || *n == "loop_10.1" || *n == "loop_10"),
        "root causes missing bvald boundary loop: {names:?}"
    );
    // The waitall chain shows in the scaling hotspots (the secondary bug).
    let hot_names: Vec<&str> = result
        .scaling_hotspots
        .ids
        .iter()
        .map(|&v| result.scaling_hotspots.graph.pag().vertex_name(v))
        .collect();
    assert!(
        hot_names
            .iter()
            .any(|n| *n == "MPI_Waitall" || *n == "MPI_Allreduce"),
        "waitall/allreduce loss not detected: {hot_names:?}"
    );
}

/// The `zeusmp_scalability` benchmark shape (16 → 128 ranks, default
/// seed): the planted root cause is found in `bvald.F`, and the
/// backtracked vertex and edge sets have exactly the sizes they had
/// before the set operations became linear-time.
#[test]
fn zeusmp_scalability_at_benchmark_scale_pins_backtrack_sets() {
    let pflow = PerFlow::new();
    let prog = workloads::zeusmp();
    let small = pflow.run(&prog, &RunConfig::new(16)).unwrap();
    let large = pflow.run(&prog, &RunConfig::new(128)).unwrap();
    let result = scalability_analysis(&small, &large, 10, 0.2).unwrap();

    let pag = result.root_causes.graph.pag();
    let causes: Vec<(&str, &str)> = result
        .root_causes
        .ids
        .iter()
        .map(|&v| {
            let info = pag.vstr(v, pag::keys::DEBUG_INFO).unwrap_or("");
            (pag.vertex_name(v), info)
        })
        .collect();
    for name in ["loop_10.1", "bvald_fill"] {
        assert!(
            causes
                .iter()
                .any(|(n, info)| *n == name && info.starts_with("bvald.F")),
            "root causes missing {name} at bvald.F: {causes:?}"
        );
    }
    assert_eq!(result.backtrack_vertices.len(), 30965);
    assert_eq!(result.backtrack_edges.len(), 30836);
}

#[test]
fn zeusmp_fix_shape_matches_paper() {
    // Paper: speedup 72.57× → 77.71× of ideal 128× (16→2048 ranks); i.e.
    // a modest single-digit-percent gain at the largest scale. We check
    // the same *shape* at laptop scale (4 → 32 ranks).
    let pflow = PerFlow::new();
    let t_small_bug = pflow
        .run(&workloads::zeusmp(), &RunConfig::new(4))
        .unwrap()
        .data()
        .total_time;
    let t_large_bug = pflow
        .run(&workloads::zeusmp(), &RunConfig::new(32))
        .unwrap()
        .data()
        .total_time;
    let t_large_fix = pflow
        .run(&workloads::zeusmp_fixed(), &RunConfig::new(32))
        .unwrap()
        .data()
        .total_time;
    let speedup_bug = t_small_bug / t_large_bug;
    let speedup_fix = t_small_bug / t_large_fix;
    assert!(
        speedup_fix > speedup_bug,
        "fix must improve speedup: {speedup_bug} vs {speedup_fix}"
    );
    let gain = t_large_bug / t_large_fix - 1.0;
    assert!(
        gain > 0.02 && gain < 0.6,
        "gain should be modest like the paper's 6.91%: {gain}"
    );
}

// ----------------------------------------------------------- case study B

#[test]
fn lammps_iterated_causal_blames_pair_force_loop() {
    let pflow = PerFlow::new();
    let run = pflow
        .run(&workloads::lammps(), &RunConfig::new(16))
        .unwrap();
    let (causes, _, _) = iterative_causal(&run, "MPI_*", 8, 5).unwrap();
    let pag = causes.graph.pag();
    let names: Vec<&str> = causes.ids.iter().map(|&v| pag.vertex_name(v)).collect();
    assert!(
        names
            .iter()
            .any(|n| *n == "lj_inner" || *n == "loop_1.1" || *n == "loop_1"),
        "causes {names:?}"
    );
    // The overloaded ranks (0-2) should be among the blamed replicas.
    let procs: Vec<i64> = causes
        .ids
        .iter()
        .filter_map(|&v| pag.metric_i64(v, pag::mkeys::PROC))
        .collect();
    assert!(
        procs.iter().any(|&p| p < 3),
        "blamed replicas on procs {procs:?}"
    );
}

#[test]
fn lammps_comm_share_is_significant_like_paper() {
    // Paper: total communication time up to 28.91 %.
    let pflow = PerFlow::new();
    let run = pflow
        .run(&workloads::lammps(), &RunConfig::new(16))
        .unwrap();
    let share = run.data().total_comm_time() / run.data().elapsed.iter().sum::<f64>();
    assert!(
        (0.1..0.6).contains(&share),
        "comm share {share} out of plausible band"
    );
}

// ----------------------------------------------------------- case study C

#[test]
fn vite_contention_diagnosis_finds_allocator() {
    let pflow = PerFlow::new();
    let prog = workloads::vite();
    let fast = pflow
        .run(&prog, &RunConfig::new(4).with_threads(2))
        .unwrap();
    let slow = pflow
        .run(&prog, &RunConfig::new(4).with_threads(8))
        .unwrap();
    let d = contention_diagnosis(&fast, &slow, 10).unwrap();
    assert!(!d.contention_vertices.is_empty());
    let pag = d.contention_vertices.graph.pag();
    let names: std::collections::HashSet<&str> = d
        .contention_vertices
        .ids
        .iter()
        .map(|&v| pag.vertex_name(v))
        .collect();
    assert!(
        names.contains("_M_realloc_insert") || names.contains("_M_emplace"),
        "contention names {names:?}"
    );
}

#[test]
fn vite_optimization_magnitude_matches_paper_shape() {
    // Paper: 25.29× at 8 threads; speedup(8 vs 2 threads) goes from
    // 0.56× to 1.46×. Check both shapes.
    let pflow = PerFlow::new();
    let time = |prog: &progmodel::Program, t: u32| {
        pflow
            .run(prog, &RunConfig::new(8).with_threads(t))
            .unwrap()
            .data()
            .total_time
    };
    let buggy = workloads::vite();
    let opt = workloads::vite_optimized();
    let (b2, b8) = (time(&buggy, 2), time(&buggy, 8));
    let (o2, o8) = (time(&opt, 2), time(&opt, 8));
    // Buggy: 8 threads no faster than 2.
    assert!(b8 / b2 > 0.9, "buggy speedup {:.2}", b2 / b8);
    // Optimized: 8 threads clearly faster than 2.
    assert!(o2 / o8 > 1.3, "optimized speedup {:.2}", o2 / o8);
    // Head-to-head at 8 threads: order-of-magnitude factor.
    let factor = b8 / o8;
    assert!(
        factor > 8.0,
        "optimization factor {factor:.1} (paper: 25.29)"
    );
}

// --------------------------------------------------- baselines cross-check

#[test]
fn scalana_baseline_agrees_with_perflow_paradigm() {
    let prog = workloads::zeusmp();
    let small = collect::profile(&prog, &RunConfig::new(4)).unwrap();
    let large = collect::profile(&prog, &RunConfig::new(32)).unwrap();
    let scalana = baselines::scalana_analyze(&small, &large, 6);
    assert!(!scalana.causes.is_empty());
    let names: Vec<&str> = scalana.causes.iter().map(|c| c.name.as_str()).collect();
    // The monolithic analyzer lands in the same code region.
    assert!(
        names.iter().any(|n| n.contains("bvald")
            || n.contains("loop_10")
            || n.contains("newdt")
            || n.contains("hsmoc")
            || n.contains("nudt")),
        "scalana causes {names:?}"
    );
}

#[test]
fn mpip_baseline_sees_the_waitall_but_not_the_cause() {
    let report = baselines::mpip_profile(&workloads::zeusmp(), &RunConfig::new(16)).unwrap();
    // mpiP reports MPI_Waitall / MPI_Allreduce time shares...
    assert!(report.function_pct("MPI_Waitall") > 0.0);
    assert!(report.function_pct("MPI_Allreduce") > 0.0);
    // ...but nothing in the report names the offending loop: its rows
    // only contain MPI functions.
    assert!(report.sites.iter().all(|s| s.call.starts_with("MPI_")));
}
