//! The perf-regression paradigm: differential analysis of PerFlow's own
//! bench trajectory (ScalAna's snapshot-diff idea turned inward).
//!
//! ```text
//! RunMetrics(baseline) ─┐
//!                       ├─ align by pass name ─┬─ regressed ──┐
//! RunMetrics(current)  ─┘                      ├─ improved    ├─ report
//!                                              ├─ missing     │
//!                                              └─ new ────────┘
//! ```
//!
//! Inputs are plain `(pass name, wall µs)` samples — the shape of the
//! checked-in `BENCH_*.json` snapshots and of `--metrics-json` output —
//! so the paradigm has no JSON dependency; `driver::bench_diff` does the
//! parsing. Alignment builds one detached PAG with a vertex per pass in
//! either snapshot, carrying the current wall time (`time`) and the
//! absolute delta (`diff-time`); the verdict sets are derived from that
//! one graph with the ordinary set operations, so they compose with
//! `union`/`intersect` like any other paradigm output.

use std::collections::BTreeMap;
use std::sync::Arc;

use pag::{mkeys, Pag, VertexLabel, ViewKind};

use crate::error::PerFlowError;
use crate::graphref::GraphRef;
use crate::passes::report_pass::{format_time_us, report_sets};
use crate::report::Report;
use crate::set::VertexSet;

/// Thresholds for the regression verdict.
#[derive(Debug, Clone, Copy)]
pub struct RegressionConfig {
    /// Relative change that counts as a regression/improvement
    /// (0.10 = ±10 %).
    pub threshold: f64,
    /// Absolute change (µs) below which a pass is never flagged, however
    /// large the ratio — sub-floor timings are measurement noise.
    pub noise_floor_us: f64,
}

impl Default for RegressionConfig {
    fn default() -> Self {
        RegressionConfig {
            threshold: 0.10,
            noise_floor_us: 50.0,
        }
    }
}

/// Everything the perf-regression paradigm produces. All vertex sets
/// live on one detached alignment graph (one vertex per pass name), so
/// they can be combined with the set operations.
#[derive(Debug)]
pub struct RegressionResult {
    /// Passes slower than `threshold`, scored by relative slowdown,
    /// worst first.
    pub regressed: VertexSet,
    /// Passes faster than `threshold`, scored by relative speedup
    /// magnitude, best first.
    pub improved: VertexSet,
    /// Passes present in the baseline but absent from the current
    /// snapshot.
    pub missing: VertexSet,
    /// Passes present only in the current snapshot.
    pub added: VertexSet,
    /// Aligned passes whose baseline/current samples are unusable (NaN,
    /// negative, or a zero baseline against a nonzero current).
    pub unusable: VertexSet,
    /// Human-readable verdict table.
    pub report: Report,
}

/// Diff two bench snapshots given as `(pass name, wall µs)` samples.
/// Duplicate names within one snapshot keep the last sample.
pub fn perf_regression(
    baseline: &[(String, f64)],
    current: &[(String, f64)],
    cfg: &RegressionConfig,
) -> Result<RegressionResult, PerFlowError> {
    let base: BTreeMap<&str, f64> = baseline.iter().map(|(n, w)| (n.as_str(), *w)).collect();
    let cur: BTreeMap<&str, f64> = current.iter().map(|(n, w)| (n.as_str(), *w)).collect();

    // One alignment graph: a vertex per pass in either snapshot, in
    // sorted name order so the graph (and everything derived from it)
    // is deterministic.
    let mut names: Vec<&str> = base.keys().chain(cur.keys()).copied().collect();
    names.sort_unstable();
    names.dedup();
    let mut g = Pag::new(ViewKind::TopDown, "bench-diff");
    for name in &names {
        let v = g.add_vertex(VertexLabel::Compute, *name);
        if let Some(&c) = cur.get(name) {
            g.set_metric(v, mkeys::TIME, c);
        }
        if let (Some(&b), Some(&c)) = (base.get(name), cur.get(name)) {
            if b.is_finite() && c.is_finite() {
                g.set_metric(v, mkeys::DIFF_TIME, c - b);
            }
        }
    }
    let graph = GraphRef::Detached(Arc::new(g));
    let all = graph.all_vertices();
    let name_of = |v| graph.pag().vertex_name(v).to_string();

    let in_base = all.retain(|v| base.contains_key(name_of(v).as_str()));
    let in_cur = all.retain(|v| cur.contains_key(name_of(v).as_str()));
    let missing = in_base.difference(&in_cur)?;
    let added = in_cur.difference(&in_base)?;
    let common = in_base.intersect(&in_cur)?;

    // A sample pair supports a ratio when both sides are finite and the
    // baseline is positive (or both are exactly zero: trivially
    // unchanged). Everything else is unusable.
    let pair = |v| {
        let name = name_of(v);
        (base[name.as_str()], cur[name.as_str()])
    };
    let usable = common.retain(|v| {
        let (b, c) = pair(v);
        b.is_finite() && c.is_finite() && (b > 0.0 || (b == 0.0 && c == 0.0))
    });
    let unusable = common.difference(&usable)?;

    let rel = |v| {
        let (b, c) = pair(v);
        if b == 0.0 {
            0.0
        } else {
            (c - b) / b
        }
    };
    let significant = |v| {
        let (b, c) = pair(v);
        (c - b).abs() >= cfg.noise_floor_us
    };
    let mut regressed = usable.retain(|v| rel(v) > cfg.threshold && significant(v));
    for &v in &regressed.ids.clone() {
        regressed.scores.insert(v, rel(v));
    }
    let regressed = regressed.sort_by("score");
    let mut improved = usable.retain(|v| rel(v) < -cfg.threshold && significant(v));
    for &v in &improved.ids.clone() {
        improved.scores.insert(v, -rel(v));
    }
    let improved = improved.sort_by("score");

    let mut report = report_sets(
        "perf regression watchdog",
        &[&regressed, &improved],
        &["name", "time", "diff-time", "score"],
    );
    report.note(format!(
        "threshold ±{:.1}%, noise floor {}; {} aligned, {} regressed, {} improved, \
         {} missing, {} new, {} unusable",
        cfg.threshold * 100.0,
        format_time_us(cfg.noise_floor_us),
        common.len(),
        regressed.len(),
        improved.len(),
        missing.len(),
        added.len(),
        unusable.len(),
    ));

    Ok(RegressionResult {
        regressed,
        improved,
        missing,
        added,
        unusable,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
        pairs.iter().map(|(n, w)| (n.to_string(), *w)).collect()
    }

    fn names(set: &VertexSet) -> Vec<String> {
        set.ids
            .iter()
            .map(|&v| set.graph.pag().vertex_name(v).to_string())
            .collect()
    }

    #[test]
    fn flags_regressions_worst_first() {
        let base = samples(&[("a", 1000.0), ("b", 1000.0), ("c", 1000.0)]);
        let cur = samples(&[("a", 1200.0), ("b", 2000.0), ("c", 1005.0)]);
        let r = perf_regression(&base, &cur, &RegressionConfig::default()).unwrap();
        assert_eq!(names(&r.regressed), vec!["b", "a"]);
        assert!((r.regressed.score(r.regressed.ids[0]) - 1.0).abs() < 1e-12);
        assert!(r.improved.is_empty());
        assert!(r.missing.is_empty() && r.added.is_empty() && r.unusable.is_empty());
        assert!(r.report.render().contains("2 regressed"));
    }

    #[test]
    fn improvements_and_membership_changes() {
        let base = samples(&[("a", 1000.0), ("gone", 500.0)]);
        let cur = samples(&[("a", 500.0), ("fresh", 500.0)]);
        let r = perf_regression(&base, &cur, &RegressionConfig::default()).unwrap();
        assert_eq!(names(&r.improved), vec!["a"]);
        assert!((r.improved.score(r.improved.ids[0]) - 0.5).abs() < 1e-12);
        assert_eq!(names(&r.missing), vec!["gone"]);
        assert_eq!(names(&r.added), vec!["fresh"]);
        assert!(r.regressed.is_empty());
    }

    #[test]
    fn noise_floor_suppresses_tiny_absolute_deltas() {
        // 3× slower but only 20 µs in absolute terms: below the floor.
        let base = samples(&[("tiny", 10.0)]);
        let cur = samples(&[("tiny", 30.0)]);
        let r = perf_regression(&base, &cur, &RegressionConfig::default()).unwrap();
        assert!(r.regressed.is_empty());
        let strict = RegressionConfig {
            noise_floor_us: 0.0,
            ..Default::default()
        };
        let r = perf_regression(&base, &cur, &strict).unwrap();
        assert_eq!(names(&r.regressed), vec!["tiny"]);
    }

    #[test]
    fn threshold_is_exclusive_at_the_boundary() {
        let base = samples(&[("edge", 1000.0)]);
        let cur = samples(&[("edge", 1100.0)]); // exactly +10 %
        let cfg = RegressionConfig {
            threshold: 0.10,
            noise_floor_us: 0.0,
        };
        let r = perf_regression(&base, &cur, &cfg).unwrap();
        assert!(r.regressed.is_empty(), "rel == threshold is not a verdict");
        let cur = samples(&[("edge", 1100.1)]);
        let r = perf_regression(&base, &cur, &cfg).unwrap();
        assert_eq!(names(&r.regressed), vec!["edge"]);
    }

    #[test]
    fn bad_baselines_are_quarantined_not_scored() {
        let base = samples(&[("nan", f64::NAN), ("zero", 0.0), ("neg", -5.0), ("ok", 0.0)]);
        let cur = samples(&[("nan", 100.0), ("zero", 100.0), ("neg", 100.0), ("ok", 0.0)]);
        let r = perf_regression(&base, &cur, &RegressionConfig::default()).unwrap();
        let mut quarantined = names(&r.unusable);
        quarantined.sort();
        assert_eq!(quarantined, vec!["nan", "neg", "zero"]);
        // Zero-vs-zero is trivially unchanged, not unusable.
        assert!(r.regressed.is_empty() && r.improved.is_empty());
    }

    #[test]
    fn identical_snapshots_are_quiet() {
        let base = samples(&[("a", 123.0), ("b", 77.7)]);
        let r = perf_regression(&base, &base, &RegressionConfig::default()).unwrap();
        assert!(r.regressed.is_empty());
        assert!(r.improved.is_empty());
        assert!(r.missing.is_empty());
        assert!(r.added.is_empty());
        assert!(r.unusable.is_empty());
    }
}
