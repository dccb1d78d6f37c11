//! Scheduler run metrics — the summary half of the observability layer.
//!
//! When a PerFlowGraph is executed with an enabled [`obs::Obs`] handle
//! (see [`crate::exec::ExecOptions::with_obs`]), the
//! scheduler measures every executed pass and attaches a [`RunMetrics`]
//! to the returned [`crate::dataflow::Outputs`]: per-pass wall time,
//! queue wait (ready → started), the execution order, whether the
//! pass-result cache answered, plus occupancy and the run's cache
//! hit/miss delta. With a disabled handle the
//! scheduler takes no timestamps and the metrics stay empty — the
//! outputs themselves are byte-identical either way.

use crate::cache::CacheStats;
use obs::json::{obj, Json};
use obs::Histogram;

/// Timing of one executed pass node.
#[derive(Debug, Clone, PartialEq)]
pub struct PassMetric {
    /// Node id within the executed graph.
    pub node: usize,
    /// Pass name.
    pub name: String,
    /// Wall time of the pass body (or the cache replay), µs.
    pub wall_us: f64,
    /// Time between becoming ready and starting, µs.
    pub queue_wait_us: f64,
    /// Whether the result was replayed from the pass cache.
    pub cache_hit: bool,
    /// Lane the node ran on: 0, since passes run on the calling thread.
    pub worker: usize,
    /// Position in the execution order (0 = ran first).
    pub dispatch_seq: usize,
}

/// Summary metrics of one scheduler run. Empty (`is_empty()`) when the
/// run was not observed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunMetrics {
    /// Per-pass timings, sorted by node id.
    pub passes: Vec<PassMetric>,
    /// Cache hit/miss counts attributable to this run (`None` when the
    /// run had no cache).
    pub cache: Option<CacheStats>,
    /// Scheduler wall time start-to-finish, µs.
    pub total_wall_us: f64,
    /// Lanes the passes ran on: 1 for an observed run.
    pub workers: usize,
    /// Busy time per lane, µs (length = `workers`).
    pub worker_busy_us: Vec<f64>,
    /// Distribution of per-pass wall times, µs.
    pub wall_hist: Histogram,
    /// Distribution of per-pass queue waits (ready → started), µs.
    pub queue_hist: Histogram,
}

impl RunMetrics {
    /// True when the run was not observed (no per-pass data).
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// Sum of pass wall times, µs.
    pub fn busy_us(&self) -> f64 {
        self.passes.iter().map(|p| p.wall_us).sum()
    }

    /// Occupancy in `[0, 1]`: busy lane-time over available lane-time
    /// (0.0 when unobserved).
    fn occupancy(&self) -> f64 {
        let avail = self.workers as f64 * self.total_wall_us;
        if avail > 0.0 {
            (self.worker_busy_us.iter().sum::<f64>() / avail).min(1.0)
        } else {
            0.0
        }
    }

    /// Render a human-readable table.
    ///
    /// Ordering is explicitly deterministic: the header, the optional
    /// cache line, the two histogram summary lines (wall, then queue),
    /// then one row per pass sorted by node id — the order `passes` is
    /// stored in. Two equal `RunMetrics` always render byte-identically.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("run metrics: (not observed)\n");
            return out;
        }
        let _ = writeln!(
            out,
            "run metrics: {} passes, {:.1} µs wall, {} workers, occupancy {:.0}%",
            self.passes.len(),
            self.total_wall_us,
            self.workers,
            self.occupancy() * 100.0
        );
        if let Some(c) = self.cache {
            let _ = writeln!(
                out,
                "pass cache: {} hits / {} misses ({:.0}% hit rate)",
                c.hits,
                c.misses,
                c.hit_rate() * 100.0
            );
        }
        if !self.wall_hist.is_empty() {
            let _ = writeln!(out, "pass wall µs:  {}", self.wall_hist.render());
        }
        if !self.queue_hist.is_empty() {
            let _ = writeln!(out, "queue wait µs: {}", self.queue_hist.render());
        }
        let _ = writeln!(
            out,
            "{:<5} {:<24} {:>12} {:>12} {:>7} {:>5} {:>5}",
            "node", "pass", "wall µs", "queue µs", "cache", "wkr", "seq"
        );
        for p in &self.passes {
            let _ = writeln!(
                out,
                "{:<5} {:<24} {:>12.1} {:>12.1} {:>7} {:>5} {:>5}",
                p.node,
                p.name,
                p.wall_us,
                p.queue_wait_us,
                if p.cache_hit { "hit" } else { "miss" },
                p.worker,
                p.dispatch_seq
            );
        }
        out
    }

    /// Machine-readable JSON — the `--metrics-json` sibling of
    /// [`RunMetrics::render`]. Keys are in sorted order at every level
    /// and arrays keep their stored (node-id / worker-index) order, so
    /// equal metrics serialize byte-identically.
    pub fn to_json(&self) -> Json {
        let cache = match self.cache {
            Some(c) => obj(vec![
                ("hits", Json::Num(c.hits as f64)),
                ("misses", Json::Num(c.misses as f64)),
            ]),
            None => Json::Null,
        };
        let passes = self
            .passes
            .iter()
            .map(|p| {
                obj(vec![
                    ("cache_hit", Json::Bool(p.cache_hit)),
                    ("dispatch_seq", Json::Num(p.dispatch_seq as f64)),
                    ("name", Json::Str(p.name.clone())),
                    ("node", Json::Num(p.node as f64)),
                    ("queue_wait_us", Json::Num(p.queue_wait_us)),
                    ("wall_us", Json::Num(p.wall_us)),
                    ("worker", Json::Num(p.worker as f64)),
                ])
            })
            .collect();
        let busy = self.worker_busy_us.iter().map(|&w| Json::Num(w)).collect();
        obj(vec![
            ("cache", cache),
            ("occupancy", Json::Num(self.occupancy())),
            ("passes", Json::Arr(passes)),
            ("queue_hist", self.queue_hist.to_json()),
            ("total_wall_us", Json::Num(self.total_wall_us)),
            ("wall_hist", self.wall_hist.to_json()),
            ("worker_busy_us", Json::Arr(busy)),
            ("workers", Json::Num(self.workers as f64)),
        ])
    }

    /// [`RunMetrics::to_json`] rendered as compact text.
    pub fn render_json(&self) -> String {
        self.to_json().render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunMetrics {
        RunMetrics {
            passes: vec![
                PassMetric {
                    node: 0,
                    name: "source".into(),
                    wall_us: 10.0,
                    queue_wait_us: 1.0,
                    cache_hit: false,
                    worker: 0,
                    dispatch_seq: 0,
                },
                PassMetric {
                    node: 1,
                    name: "hotspot".into(),
                    wall_us: 30.0,
                    queue_wait_us: 2.0,
                    cache_hit: true,
                    worker: 1,
                    dispatch_seq: 1,
                },
            ],
            cache: Some(CacheStats { hits: 1, misses: 1 }),
            total_wall_us: 40.0,
            workers: 2,
            worker_busy_us: vec![10.0, 30.0],
            wall_hist: {
                let mut h = Histogram::new();
                h.record(10.0);
                h.record(30.0);
                h
            },
            queue_hist: {
                let mut h = Histogram::new();
                h.record(1.0);
                h.record(2.0);
                h
            },
        }
    }

    #[test]
    fn empty_by_default() {
        let m = RunMetrics::default();
        assert!(m.is_empty());
        assert_eq!(m.occupancy(), 0.0);
        assert!(m.render().contains("not observed"));
    }

    #[test]
    fn occupancy_and_render() {
        let m = sample();
        assert!((m.busy_us() - 40.0).abs() < 1e-9);
        assert!((m.occupancy() - 0.5).abs() < 1e-9);
        let r = m.render();
        assert!(r.contains("hotspot"));
        assert!(r.contains("hit"));
        assert!(r.contains("miss"));
        assert!(r.contains("1 hits / 1 misses"));
        assert!(r.contains("pass wall µs:"), "{r}");
        assert!(r.contains("queue wait µs:"), "{r}");
    }

    #[test]
    fn json_rendering_is_stable_and_sorted() {
        let m = sample();
        let a = m.to_json().render();
        assert_eq!(a, m.clone().to_json().render());
        assert!(a.starts_with("{\"cache\":{\"hits\":1,\"misses\":1},"));
        assert!(a.contains("\"passes\":[{\"cache_hit\":false"));
        assert!(a.contains("\"wall_hist\":{\"buckets\":["));
        assert!(a.contains("\"queue_hist\":{"));
        assert!(a.ends_with("\"workers\":2}"));
        // Keys appear in sorted order.
        let keys = [
            "\"cache\"",
            "\"occupancy\"",
            "\"passes\"",
            "\"queue_hist\"",
            "\"total_wall_us\"",
            "\"wall_hist\"",
            "\"worker_busy_us\"",
            "\"workers\"",
        ];
        let mut last = 0;
        for k in keys {
            let pos = a.find(k).unwrap_or_else(|| panic!("missing {k}"));
            assert!(pos >= last, "{k} out of order");
            last = pos;
        }
        // Unobserved metrics render as an empty-but-valid object.
        let empty = RunMetrics::default().to_json().render();
        assert!(empty.contains("\"cache\":null"));
        assert!(empty.contains("\"passes\":[]"));
    }

    #[test]
    fn json_rendering_is_pinned() {
        let mut m = sample();
        m.passes[0].name = "so\"ur\\ce\n\u{1}😀".into();
        m.passes[1].wall_us = 1.0 / 3.0;
        m.total_wall_us = 41.25;
        m.worker_busy_us = vec![10.5, f64::NAN];
        assert_eq!(m.to_json().render(), "{\"cache\":{\"hits\":1,\"misses\":1},\"occupancy\":1,\"passes\":[{\"cache_hit\":false,\"dispatch_seq\":0,\"name\":\"so\\\"ur\\\\ce\\n\\u0001😀\",\"node\":0,\"queue_wait_us\":1,\"wall_us\":10,\"worker\":0},{\"cache_hit\":true,\"dispatch_seq\":1,\"name\":\"hotspot\",\"node\":1,\"queue_wait_us\":2,\"wall_us\":0.3333333333333333,\"worker\":1}],\"queue_hist\":{\"buckets\":[[2,1],[4,1]],\"count\":2,\"max\":2,\"mean\":1.5,\"min\":1,\"sum\":3},\"total_wall_us\":41.25,\"wall_hist\":{\"buckets\":[[16,1],[32,1]],\"count\":2,\"max\":30,\"mean\":20,\"min\":10,\"sum\":40},\"worker_busy_us\":[10.5,null],\"workers\":2}");
        assert_eq!(
            RunMetrics::default().to_json().render(),
            "{\"cache\":null,\"occupancy\":0,\"passes\":[],\"queue_hist\":{\"buckets\":[],\"count\":0,\"max\":0,\"mean\":0,\"min\":0,\"sum\":0},\"total_wall_us\":0,\"wall_hist\":{\"buckets\":[],\"count\":0,\"max\":0,\"mean\":0,\"min\":0,\"sum\":0},\"worker_busy_us\":[],\"workers\":0}"
        );
    }
}
