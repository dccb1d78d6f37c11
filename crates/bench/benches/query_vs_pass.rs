//! Query-built hotspot vs. the hand-written pass pipeline at
//! `PERFLOW_BENCH_LARGE` scale (ISSUE 9 tentpole): the perflow-query
//! layer is sugar over the same pass machinery, so the question is
//! what the sugar costs — parse, PF03xx lint, and evaluation are
//! measured separately against the direct `hotspot_detection` +
//! `report` calls, and the two report renders are asserted identical
//! before anything is timed.
//!
//! With `PERFLOW_BENCH_JSON_OUT=BENCH_query.json` the run re-emits the
//! machine-readable perf baseline (RunMetrics field vocabulary).

use bench::pagbench::{entries_to_json, BenchEntry};
use bench::{bench_large_ranks, median_secs};
use criterion::{criterion_group, Criterion};
use perflow::graphref::RunHandleExt;
use perflow::query::Query;
use perflow::verify::lint_query_text;
use perflow::{execute_query, PerFlow, RunHandle};
use simrt::RunConfig;

/// The hotspot paradigm spelled in the query language; kept in sync
/// with the digest-identity tests in `driver` and `serve_e2e`.
const HOTSPOT_QUERY: &str = "from vertices | score time | sort score desc nan_last | top 15 \
                             | select name, label, debug-info, time";

const ATTRS: [&str; 4] = ["name", "label", "debug-info", "time"];

fn bench_run(pflow: &PerFlow) -> RunHandle {
    let ranks = bench_large_ranks().min(256);
    pflow
        .run(&workloads::cg(), &RunConfig::new(ranks).with_seed(3))
        .expect("bench run")
}

fn handwritten_report(pflow: &PerFlow, run: &RunHandle) -> String {
    let hot = pflow.hotspot_detection(&run.vertices(), 15);
    pflow.report(&[&hot], &ATTRS).render()
}

fn query_report(run: &RunHandle) -> String {
    let q = Query::parse(HOTSPOT_QUERY).expect("canonical query parses");
    execute_query(&q, run)
        .expect("query executes")
        .into_report()
        .render()
}

fn bench_query_vs_pass(c: &mut Criterion) {
    let pflow = PerFlow::new();
    let run = bench_run(&pflow);
    assert_eq!(
        handwritten_report(&pflow, &run),
        query_report(&run),
        "query-built hotspot must render identically to the pass pipeline"
    );

    let mut group = c.benchmark_group("query_vs_pass");
    group.sample_size(10);
    group.bench_function("hotspot_handwritten_pass", |b| {
        b.iter(|| handwritten_report(&pflow, &run))
    });
    group.bench_function("hotspot_query_parse", |b| {
        b.iter(|| Query::parse(HOTSPOT_QUERY).unwrap())
    });
    group.bench_function("hotspot_query_lint", |b| {
        b.iter(|| lint_query_text(HOTSPOT_QUERY))
    });
    group.bench_function("hotspot_query_end_to_end", |b| {
        b.iter(|| query_report(&run))
    });
    group.finish();
}

criterion_group!(benches, bench_query_vs_pass);

fn main() {
    benches();
    if let Ok(path) = std::env::var("PERFLOW_BENCH_JSON_OUT") {
        let pflow = PerFlow::new();
        let run = bench_run(&pflow);
        let mut entries = Vec::new();
        let mut push = |name: &str, secs: f64| {
            entries.push(BenchEntry {
                name: name.to_string(),
                wall_us: secs * 1e6,
            });
        };
        push(
            "query_vs_pass/hotspot_handwritten_pass",
            median_secs(5, || {
                std::hint::black_box(handwritten_report(&pflow, &run));
            }),
        );
        push(
            "query_vs_pass/hotspot_query_parse",
            median_secs(5, || {
                std::hint::black_box(Query::parse(HOTSPOT_QUERY).unwrap());
            }),
        );
        push(
            "query_vs_pass/hotspot_query_lint",
            median_secs(5, || {
                std::hint::black_box(lint_query_text(HOTSPOT_QUERY));
            }),
        );
        push(
            "query_vs_pass/hotspot_query_end_to_end",
            median_secs(5, || {
                std::hint::black_box(query_report(&run));
            }),
        );
        let json = entries_to_json(&entries);
        std::fs::write(&path, format!("{json}\n")).expect("cannot write bench json");
        eprintln!("wrote perf baseline to {path}");
    }
}
