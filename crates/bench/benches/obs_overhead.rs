//! **Observability overhead and coverage** — acceptance harness for the
//! `obs` instrumentation layer:
//!
//! 1. enabling observation must not perturb results: `RunData::digest`
//!    is byte-identical with the handle enabled or disabled, serial or
//!    pooled;
//! 2. one observed end-to-end pipeline (profile → comm-analysis
//!    PerFlowGraph) must produce spans from **all three layers** (simrt
//!    phases/segments, collect embed shards, core pass dispatches), a
//!    non-empty `RunMetrics`, and a parseable Chrome-trace export;
//! 3. the disabled handle's overhead is measured (informational): a
//!    profiling run with `Obs::disabled()` vs one with `Obs::enabled()`.
//!
//! ```sh
//! cargo bench --bench obs_overhead
//! ```

use bench::{median_secs, print_table};
use criterion::{criterion_group, criterion_main, Criterion};
use obs::{Layer, Obs};
use perflow::paradigms::comm_analysis_graph;
use perflow::{ExecOptions, PassCache, PerFlow, RunHandleExt};
use progmodel::{c, noise, nranks, rank, Program, ProgramBuilder};
use simrt::{simulate, RunConfig};

const RANKS: u32 = 4;

/// Compact CG-style workload: enough phases, segments and comm records
/// to exercise every instrumented code path without a long run.
fn workload() -> Program {
    let mut pb = ProgramBuilder::new("obs-bench");
    let main = pb.declare("main", "cg.c");
    let spmv = pb.declare("spmv", "cg.c");
    pb.define(spmv, |f| {
        f.loop_("rows", c(400.0), |b| {
            b.compute(
                "axpy",
                (c(60.0) + rank() * c(4.0)) / nranks() * noise(0.05, 3),
            );
        });
    });
    pb.define(main, |f| {
        f.loop_("iter", c(12.0), |b| {
            b.call(spmv);
            b.isend((rank() + 1.0).rem(nranks()), c(4096.0), 1);
            b.irecv((rank() + nranks() - 1.0).rem(nranks()), c(4096.0), 1);
            b.waitall();
            b.allreduce(c(16.0));
        });
    });
    pb.build(main)
}

fn bench_obs_overhead(c: &mut Criterion) {
    let prog = workload();

    // --- 1. Observation must not change a single byte, serial or pooled.
    let base_serial = simulate(&prog, &RunConfig::new(RANKS).serial_sim()).unwrap();
    let base_pooled = simulate(&prog, &RunConfig::new(RANKS)).unwrap();
    let obs_check = Obs::enabled();
    let observed = simulate(&prog, &RunConfig::new(RANKS).with_obs(obs_check.clone())).unwrap();
    assert_eq!(
        base_serial.digest(),
        base_pooled.digest(),
        "pool must be bit-identical to serial"
    );
    assert_eq!(
        base_pooled.digest(),
        observed.digest(),
        "observation must not perturb simulation results"
    );
    assert!(
        obs_check.has_layer(Layer::Simrt),
        "simulate() must record simrt-layer spans"
    );

    // --- 2. End-to-end span coverage: simrt + collect + core.
    let obs = Obs::enabled();
    let pflow = PerFlow::new();
    let run = pflow
        .run(&prog, &RunConfig::new(RANKS).with_obs(obs.clone()))
        .expect("observed profiling run failed");
    let (g, nodes) = comm_analysis_graph(run.vertices()).expect("paradigm wiring failed");
    let cache = PassCache::new();
    let out = g
        .execute_with(&ExecOptions::new().with_obs(obs.clone()).with_cache(&cache))
        .expect("observed graph execution failed");
    assert!(!out.of(nodes.report).is_empty());
    for (layer, what) in [
        (Layer::Simrt, "simulation phases/segments"),
        (Layer::Collect, "embed shards"),
        (Layer::Core, "pass dispatches"),
    ] {
        assert!(
            obs.has_layer(layer),
            "trace must cover {what} ({} layer)",
            layer.name()
        );
    }
    assert!(!out.metrics.is_empty(), "observed run must report metrics");
    assert_eq!(out.metrics.passes.len(), g.len(), "one metric per pass");
    // Histograms ride along when observed…
    assert_eq!(
        out.metrics.wall_hist.count(),
        g.len() as u64,
        "wall-time histogram must cover every pass"
    );
    assert!(
        obs.histogram("core.pass.wall_us").is_some(),
        "scheduler must publish its wall-time histogram to the handle"
    );
    assert!(!obs.prometheus().is_empty() && !obs.folded_stacks().is_empty());
    // …and a disabled handle records none of this (digest identity above
    // already proved results are unaffected either way).
    let off = Obs::disabled();
    off.observe("core.pass.wall_us", 1.0);
    off.set_gauge("core.pool.workers", 8.0);
    assert!(
        off.histogram("core.pass.wall_us").is_none() && off.gauge("core.pool.workers").is_none(),
        "disabled handle must stay empty"
    );
    let trace = obs.chrome_trace();
    assert!(trace.starts_with('{') && trace.ends_with('}'));
    assert!(trace.contains("\"traceEvents\""));
    assert!(trace.contains("\"pass:"));

    // --- 3. Overhead: disabled handle vs enabled handle (informational).
    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(10);
    group.bench_function("profile_unobserved", |b| {
        b.iter(|| simulate(&prog, &RunConfig::new(RANKS)).unwrap())
    });
    group.bench_function("profile_observed", |b| {
        b.iter(|| simulate(&prog, &RunConfig::new(RANKS).with_obs(Obs::enabled())).unwrap())
    });
    group.finish();

    let reps = 7;
    let t_off = median_secs(reps, || {
        simulate(&prog, &RunConfig::new(RANKS)).unwrap();
    });
    let t_on = median_secs(reps, || {
        simulate(&prog, &RunConfig::new(RANKS).with_obs(Obs::enabled())).unwrap();
    });
    print_table(
        "simulation wall time: Obs::disabled() vs Obs::enabled()",
        &["handle", "median(ms)", "relative"],
        &[
            vec![
                "disabled".into(),
                format!("{:.2}", t_off * 1e3),
                "1.00x".into(),
            ],
            vec![
                "enabled".into(),
                format!("{:.2}", t_on * 1e3),
                format!("{:.2}x", t_on / t_off.max(1e-12)),
            ],
        ],
    );
    println!(
        "\ncoverage: {} spans across simrt/collect/core ({} dropped), \
         {} pass metrics, digests identical: yes",
        obs.spans().len(),
        obs.dropped_spans(),
        out.metrics.passes.len()
    );
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
