//! End-to-end tests of the `obs` observability layer: span coverage
//! across all three pipeline layers, Chrome-trace export shape,
//! scheduler `RunMetrics`, and — most importantly — that observation
//! never perturbs results (digests and scheduler outputs are
//! byte-identical with the handle enabled or disabled).

use obs::{Layer, Obs};
use perflow::paradigms::comm_analysis_graph;
use perflow::{ExecOptions, PassCache, PerFlow, RunHandleExt, Value};
use progmodel::{c, noise, nranks, rank, Program, ProgramBuilder};
use simrt::{simulate, RunConfig};

fn workload() -> Program {
    let mut pb = ProgramBuilder::new("obs-e2e");
    let main = pb.declare("main", "o.c");
    let work = pb.declare("work", "o.c");
    pb.define(work, |f| {
        f.compute(
            "kernel",
            (c(80.0) + rank() * c(10.0)) / nranks() * noise(0.05, 3),
        );
    });
    pb.define(main, |f| {
        f.loop_("iter", c(400.0), |b| {
            b.call(work);
            b.allreduce(c(16.0));
        });
    });
    pb.build(main)
}

fn has_layer(obs: &Obs, layer: Layer) -> bool {
    obs.spans().iter().any(|s| s.layer == layer)
}

#[test]
fn observation_does_not_perturb_simulation() {
    let prog = workload();
    let plain = simulate(&prog, &RunConfig::new(4)).unwrap();
    let obs = Obs::enabled();
    let watched = simulate(&prog, &RunConfig::new(4).with_obs(obs.clone())).unwrap();
    assert_eq!(
        plain.digest(),
        watched.digest(),
        "RunData must be byte-identical with observation on"
    );
    assert!(has_layer(&obs, Layer::Simrt));
    // Serial + observed also matches.
    let obs2 = Obs::enabled();
    let serial = simulate(
        &prog,
        &RunConfig::new(4).with_sim_workers(1).with_obs(obs2.clone()),
    )
    .unwrap();
    assert_eq!(plain.digest(), serial.digest());
}

#[test]
fn trace_covers_all_three_layers() {
    let prog = workload();
    let obs = Obs::enabled();
    let pflow = PerFlow::new();
    let run = pflow
        .run(&prog, &RunConfig::new(4).with_obs(obs.clone()))
        .unwrap();
    let (g, report) = comm_analysis_graph(run.vertices()).unwrap();
    let out = g
        .execute_with(&ExecOptions::new().with_obs(obs.clone()))
        .unwrap();
    assert!(!out.of(report).is_empty());

    assert!(has_layer(&obs, Layer::Simrt), "simrt phase/segment spans");
    assert!(
        has_layer(&obs, Layer::Collect),
        "collect static/embed spans"
    );
    assert!(has_layer(&obs, Layer::Core), "core pass spans");

    let spans = obs.spans();
    let names: Vec<&str> = spans.iter().map(|s| s.name.as_ref()).collect();
    for expected in [
        "simulate",
        "phase",
        "segment",
        "merge_shards",
        "static_pag",
        "embed.resolve",
        "embed.rank",
        "embed.merge",
    ] {
        assert!(names.contains(&expected), "missing span `{expected}`");
    }
    assert!(
        names.iter().any(|n| n.starts_with("pass:")),
        "core layer must record pass:* spans, got {names:?}"
    );
    // Every exporter has the pipeline to show.
    assert!(!obs.prometheus().is_empty() && !obs.folded_stacks().is_empty());
    assert!(obs.chrome_trace().contains("\"pass:"));
    // Per-rank lanes: embed.rank spans cover every rank.
    let mut rank_lanes: Vec<u32> = spans
        .iter()
        .filter(|s| s.name == "embed.rank")
        .map(|s| s.lane)
        .collect();
    rank_lanes.sort_unstable();
    rank_lanes.dedup();
    assert_eq!(rank_lanes, vec![0, 1, 2, 3]);

    // Export ordering is deterministic: two exports render identically.
    assert_eq!(obs.chrome_trace(), obs.chrome_trace());
}

#[test]
fn chrome_trace_is_wellformed_json() {
    let prog = workload();
    let obs = Obs::enabled();
    let cfg = RunConfig::new(2).with_obs(obs.clone());
    simulate(&prog, &cfg).unwrap();
    let trace = obs.chrome_trace();
    assert!(trace.starts_with('{') && trace.ends_with('}'));
    assert!(trace.contains("\"traceEvents\""));
    assert!(trace.contains("\"displayTimeUnit\""));
    assert!(trace.contains("\"ph\":\"X\""));
    assert!(trace.contains("\"ph\":\"M\""), "layer metadata events");
    // Braces and brackets balance (cheap well-formedness check; CI runs a
    // real JSON parser over the CLI's --trace-out output).
    let mut depth = 0i64;
    let mut in_str = false;
    let mut esc = false;
    for ch in trace.chars() {
        if esc {
            esc = false;
            continue;
        }
        match ch {
            '\\' if in_str => esc = true,
            '"' => in_str = !in_str,
            '{' | '[' if !in_str => depth += 1,
            '}' | ']' if !in_str => depth -= 1,
            _ => {}
        }
        assert!(depth >= 0);
    }
    assert_eq!(depth, 0, "unbalanced braces");
    assert!(!in_str, "unterminated string");
}

#[test]
fn run_metrics_report_passes_and_cache_hits() {
    let prog = workload();
    let pflow = PerFlow::new();
    let run = pflow.run(&prog, &RunConfig::new(4)).unwrap();
    let (g, _) = comm_analysis_graph(run.vertices()).unwrap();
    let cache = PassCache::new();
    let obs = Obs::enabled();
    let opts = ExecOptions::new().with_obs(obs.clone()).with_cache(&cache);

    let cold = g.execute_with(&opts).unwrap();
    assert_eq!(cold.metrics.passes.len(), g.len());
    assert!(cold.metrics.total_wall_us > 0.0);
    assert!(cold.metrics.workers >= 1);
    assert_eq!(cold.metrics.worker_busy_us.len(), cold.metrics.workers);
    assert!(cold.metrics.passes.iter().all(|p| !p.cache_hit));
    assert!(cold.metrics.passes.iter().all(|p| p.wall_us >= 0.0));
    // The wall-time histogram covers every pass, in the run's metrics
    // and on the handle.
    assert_eq!(cold.metrics.wall_hist.count(), g.len() as u64);
    assert!(obs.histogram("core.pass.wall_us").is_some());
    // Node ids are sorted and dispatch order is a permutation.
    let ids: Vec<usize> = cold.metrics.passes.iter().map(|p| p.node).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted);
    let mut seqs: Vec<usize> = cold.metrics.passes.iter().map(|p| p.dispatch_seq).collect();
    seqs.sort_unstable();
    assert_eq!(seqs, (0..g.len()).collect::<Vec<_>>());
    let cold_cache = cold.metrics.cache.expect("cache delta present");
    assert_eq!(cold_cache.misses, g.len() as u64);
    assert_eq!(cold_cache.hits, 0);

    let warm = g.execute_with(&opts).unwrap();
    assert!(warm.metrics.passes.iter().all(|p| p.cache_hit));
    let warm_cache = warm.metrics.cache.expect("cache delta present");
    assert_eq!(warm_cache.hits, g.len() as u64);
    assert_eq!(warm_cache.misses, 0);
    assert_eq!(cold.trail, warm.trail);

    // The per-run counters accumulated too.
    assert_eq!(obs.counter("core.cache.miss"), g.len() as u64);
    assert_eq!(obs.counter("core.cache.hit"), g.len() as u64);

    // render() mentions the cache and every pass.
    let rendered = warm.metrics.render();
    assert!(rendered.contains("pass cache"));
    for p in &warm.metrics.passes {
        assert!(rendered.contains(&p.name));
    }
}

#[test]
fn unobserved_execution_reports_empty_metrics() {
    let mut g = perflow::PerFlowGraph::new();
    let s = g.add_source(1.0);
    let id = g.add_pass(perflow::pass::FnPass::new("id", 1, |i: &[Value]| {
        Ok(vec![i[0].clone()])
    }));
    g.pipe(s, id).unwrap();
    let out = g.execute().unwrap();
    assert!(out.metrics.is_empty());
    assert!(out.metrics.render().contains("not observed"));
}

#[test]
fn scheduler_outputs_identical_observed_or_not() {
    let prog = workload();
    let pflow = PerFlow::new();
    let run = pflow.run(&prog, &RunConfig::new(4)).unwrap();
    let (g, report) = comm_analysis_graph(run.vertices()).unwrap();
    let plain = g.execute().unwrap();
    let observed = g
        .execute_with(&ExecOptions::new().with_obs(Obs::enabled()))
        .unwrap();
    assert_eq!(plain.trail, observed.trail);
    let a = plain.of(report)[0].as_report().unwrap().render();
    let b = observed.of(report)[0].as_report().unwrap().render();
    assert_eq!(a, b, "report must not depend on observation");
}

#[test]
fn disabled_handle_records_nothing() {
    let prog = workload();
    let obs = Obs::disabled();
    let cfg = RunConfig::new(2).with_obs(obs.clone());
    simulate(&prog, &cfg).unwrap();
    assert!(!obs.is_enabled());
    assert!(obs.spans().is_empty());
    assert!(obs.counters().is_empty());
}
