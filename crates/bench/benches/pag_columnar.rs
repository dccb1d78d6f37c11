//! Columnar metric storage at `PERFLOW_BENCH_LARGE` scale (ISSUE 7
//! tentpole): per-vertex metric reads through the typed `KeyId`
//! accessors are O(1) column lookups.
//!
//! Besides the criterion output, running this bench with
//! `PERFLOW_BENCH_JSON_OUT=BENCH_pag.json` re-emits the machine-readable
//! perf baseline (RunMetrics field vocabulary).

use bench::pagbench::{columnar_entries, entries_to_json, large_metric_pag};
use criterion::{criterion_group, Criterion};
use pag::mkeys;

fn bench_columnar(c: &mut Criterion) {
    let mut group = c.benchmark_group("pag_columnar");
    group.sample_size(10);
    let g = large_metric_pag(64);
    group.bench_function("metric_sum_typed", |b| {
        b.iter(|| -> f64 { g.vertex_ids().map(|v| g.metric_f64(v, mkeys::TIME)).sum() })
    });
    group.bench_function("build_large", |b| b.iter(|| large_metric_pag(64)));
    let bytes = pag::serialize::encode(&g);
    group.bench_function("encode_pag2", |b| b.iter(|| pag::serialize::encode(&g)));
    group.bench_function("decode_pag2", |b| {
        b.iter(|| pag::serialize::decode(&bytes).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_columnar);

fn main() {
    benches();
    if let Ok(path) = std::env::var("PERFLOW_BENCH_JSON_OUT") {
        let json = entries_to_json(&columnar_entries(5));
        std::fs::write(&path, format!("{json}\n")).expect("cannot write bench json");
        eprintln!("wrote perf baseline to {path}");
    }
}
