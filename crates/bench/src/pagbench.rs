//! Measurement suite for the columnar-PAG bench, plus the `BENCH_*.json`
//! emitter.
//!
//! The JSON baseline reuses the [`perflow::RunMetrics`] field vocabulary
//! verbatim (each measurement becomes a `PassMetric`), so the perf
//! trajectory can be diffed with the same tooling that reads
//! `--metrics-json` output.

use crate::{bench_large_ranks, median_secs};
use pag::{mkeys, EdgeLabel, Pag, VertexId, VertexLabel, ViewKind};
use perflow::{PassMetric, RunMetrics};

/// One named wall-clock measurement, µs.
#[derive(Debug, Clone)]
pub struct BenchEntry {
    /// Measurement name, `suite/case` style.
    pub name: String,
    /// Median wall time, µs.
    pub wall_us: f64,
}

/// Synthetic parallel-view-like PAG at `PERFLOW_BENCH_LARGE` scale:
/// `bench_large_ranks()` process shards of `width` flow vertices each,
/// chained intra-process and ring-connected across processes, with the
/// standard metric set populated.
pub fn large_metric_pag(width: usize) -> Pag {
    let ranks = bench_large_ranks() as usize;
    let n = ranks * width;
    let mut g = Pag::with_capacity(ViewKind::Parallel, "bench-large", n, 2 * n);
    for r in 0..ranks {
        for i in 0..width {
            let v = g.add_vertex(VertexLabel::Compute, format!("f{i}").as_str());
            g.set_metric(v, mkeys::TIME, 100.0 + (i * 7 % 13) as f64);
            g.set_metric(v, mkeys::SELF_TIME, 40.0 + (i % 5) as f64);
            g.set_metric_i64(v, mkeys::COUNT, 1 + (i % 3) as i64);
            g.set_metric_i64(v, mkeys::PROC, r as i64);
            if i % 4 == 0 {
                g.set_metric(v, mkeys::WAIT_TIME, (i % 11) as f64);
            }
        }
    }
    for r in 0..ranks {
        let base = (r * width) as u32;
        for i in 0..width - 1 {
            g.add_edge(
                VertexId(base + i as u32),
                VertexId(base + i as u32 + 1),
                EdgeLabel::IntraProc,
            );
        }
        let next = (((r + 1) % ranks) * width) as u32;
        g.add_edge(VertexId(base), VertexId(next), EdgeLabel::InterThread);
    }
    g.set_num_procs(ranks as u32);
    g
}

/// Columnar measurement suite: sum a metric over every vertex through
/// the typed `KeyId` accessors, build the large PAG, and run the PAG2
/// encode/decode path.
pub fn columnar_entries(reps: usize) -> Vec<BenchEntry> {
    let g = large_metric_pag(64);
    let mut out = Vec::new();
    let mut push = |name: &str, secs: f64| {
        out.push(BenchEntry {
            name: name.to_string(),
            wall_us: secs * 1e6,
        });
    };

    let mut sink = 0.0f64;
    push(
        "pag_columnar/metric_sum_typed",
        median_secs(reps, || {
            sink = g.vertex_ids().map(|v| g.metric_f64(v, mkeys::TIME)).sum();
        }),
    );
    assert!(sink > 0.0);
    push(
        "pag_columnar/build_large",
        median_secs(reps.min(5), || {
            std::hint::black_box(large_metric_pag(64));
        }),
    );
    let bytes = pag::serialize::encode(&g);
    push(
        "pag_columnar/encode_pag2",
        median_secs(reps, || {
            std::hint::black_box(pag::serialize::encode(&g));
        }),
    );
    push(
        "pag_columnar/decode_pag2",
        median_secs(reps, || {
            std::hint::black_box(pag::serialize::decode(&bytes).unwrap());
        }),
    );
    out
}

/// Render measurement entries as a [`RunMetrics`] JSON document — the
/// exact field vocabulary of `--metrics-json` (`passes[].name`,
/// `passes[].wall_us`, `total_wall_us`, `workers`, ...), so existing
/// tooling can diff the perf trajectory. Every measurement is taken on
/// one thread, hence `workers: 1`.
pub fn entries_to_json(entries: &[BenchEntry]) -> String {
    let total: f64 = entries.iter().map(|e| e.wall_us).sum();
    let mut wall_hist = obs::Histogram::new();
    for e in entries {
        wall_hist.record(e.wall_us);
    }
    let m = RunMetrics {
        passes: entries
            .iter()
            .enumerate()
            .map(|(i, e)| PassMetric {
                node: i,
                name: e.name.clone(),
                wall_us: e.wall_us,
                queue_wait_us: 0.0,
                cache_hit: false,
                worker: 0,
                dispatch_seq: i,
            })
            .collect(),
        cache: None,
        total_wall_us: total,
        workers: 1,
        worker_busy_us: vec![total],
        wall_hist,
        queue_hist: obs::Histogram::new(),
    };
    m.render_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_runmetrics_vocabulary() {
        let entries = vec![
            BenchEntry {
                name: "pag_columnar/metric_sum_typed".into(),
                wall_us: 12.5,
            },
            BenchEntry {
                name: "pag_columnar/encode_pag2".into(),
                wall_us: 800.0,
            },
        ];
        let json = entries_to_json(&entries);
        for key in [
            "\"passes\":[",
            "\"wall_us\":",
            "\"total_wall_us\":",
            "\"workers\":1",
            "\"name\":\"pag_columnar/metric_sum_typed\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn large_pag_has_columnar_metrics() {
        // Shrink via env? No — just check shape invariants at default scale
        // is too slow for unit tests, so use the builder contract instead.
        let g = large_metric_pag(2);
        assert_eq!(
            g.num_vertices(),
            2 * bench_large_ranks() as usize,
            "ranks × width vertices"
        );
        let v = VertexId(0);
        assert!(g.metric_f64(v, mkeys::TIME) > 0.0);
        assert_eq!(g.metric_i64(v, mkeys::PROC), Some(0));
    }
}
