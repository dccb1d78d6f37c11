//! Vertex/edge properties: the performance data recorded on the PAG.
//!
//! Properties are open-ended key/value pairs because "the properties of a
//! vertex are various performance data […] depending on the specific
//! requirement of analysis tasks and the view of the PAG" (§3.1). Well-known
//! wire names used by the built-in collection module and pass library live
//! in [`keys`]; user-defined passes are free to attach their own.
//!
//! Numeric properties live in the owning PAG's metric columns
//! ([`crate::metric`]), string properties in a small sorted per-vertex list
//! of `Arc<str>` pairs. [`PropValue`] is what the two stores look like merged
//! for rendering ([`Pag::prop_entries`](crate::Pag::prop_entries), DOT,
//! reports); nothing is written through it.

use std::sync::Arc;

/// Well-known property keys written by the collection module and read by
/// the built-in pass library.
pub mod keys {
    /// Human-readable name of the code snippet (function/loop/call name).
    pub const NAME: &str = "name";
    /// Inclusive execution time in seconds (aggregated over processes in
    /// the top-down view; per-flow in the parallel view).
    pub const TIME: &str = "time";
    /// Exclusive (self) execution time in seconds.
    pub const SELF_TIME: &str = "self-time";
    /// Per-process inclusive time vector (top-down view only).
    pub const TIME_PER_PROC: &str = "time-per-proc";
    /// Number of times the snippet was entered.
    pub const COUNT: &str = "count";
    /// Estimated instruction count (PMU model).
    pub const PMU_INSTRUCTIONS: &str = "pmu-instructions";
    /// Estimated cycle count (PMU model).
    pub const PMU_CYCLES: &str = "pmu-cycles";
    /// Estimated cache misses (PMU model).
    pub const PMU_CACHE_MISSES: &str = "pmu-cache-misses";
    /// Debug info "file:line".
    pub const DEBUG_INFO: &str = "debug-info";
    /// Communication info summary ("pattern peer bytes"), comm calls only.
    pub const COMM_INFO: &str = "comm-info";
    /// Total bytes communicated by a comm call vertex.
    pub const COMM_BYTES: &str = "comm-bytes";
    /// Exact aggregate operation time of a comm call vertex (sum of
    /// complete - post over all instances, from PMPI-style records).
    pub const COMM_TIME: &str = "comm-time";
    /// Time spent waiting (blocked) inside a comm/lock call.
    pub const WAIT_TIME: &str = "wait-time";
    /// Process (rank) a parallel-view vertex belongs to.
    pub const PROC: &str = "proc";
    /// Thread a parallel-view vertex belongs to.
    pub const THREAD: &str = "thread";
    /// Id of the corresponding top-down vertex (parallel view only).
    pub const TOPDOWN_VERTEX: &str = "topdown-vertex";
    /// Per-process communicated-bytes vector (comm vertices, top-down).
    pub const BYTES_PER_PROC: &str = "bytes-per-proc";
    /// Per-process wait-time vector (comm vertices, top-down).
    pub const WAIT_PER_PROC: &str = "wait-per-proc";
    /// Imbalance score attached by the imbalance-analysis pass.
    pub const IMBALANCE: &str = "imbalance";
    /// Per-metric difference attached by the differential-analysis pass.
    pub const DIFF_TIME: &str = "diff-time";
    /// Profiling samples lost at this vertex (degraded collection).
    pub const DROPPED_SAMPLES: &str = "dropped-samples";
    /// Observation spans lost because the recorder's span cap was hit
    /// (set on the root of a self-analysis PAG built from a truncated
    /// `obs` trace).
    pub const DROPPED_SPANS: &str = "dropped-spans";
    /// Fraction of fired samples actually recorded, in `[0, 1]`. Absent
    /// means 1.0 (complete data) — analyses treat it as a confidence
    /// weight.
    pub const COMPLETENESS: &str = "completeness";
    /// Per-process completeness vector (root vertex of a degraded run).
    pub const COMPLETENESS_PER_PROC: &str = "completeness-per-proc";
    /// Human-readable terminal rank status ("completed", "crashed@…µs",
    /// "hung@…µs") on flow vertices of degraded ranks and, summarized,
    /// on the top-down root.
    pub const RANK_STATUS: &str = "rank-status";
}

/// A single property value.
#[derive(Debug, Clone, PartialEq)]
pub enum PropValue {
    /// Integer counter.
    Int(i64),
    /// Floating-point measurement (seconds, ratios, …).
    Float(f64),
    /// Shared string (names, debug info).
    Str(Arc<str>),
    /// Dense per-process / per-sample vector.
    VecF64(Arc<[f64]>),
}

impl std::fmt::Display for PropValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PropValue::Int(i) => write!(f, "{i}"),
            PropValue::Float(x) => write!(f, "{x:.6}"),
            PropValue::Str(s) => write!(f, "{s}"),
            PropValue::VecF64(v) => {
                write!(f, "[")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x:.4}")?;
                }
                write!(f, "]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mkeys, Pag, VertexLabel, ViewKind};

    fn one_vertex() -> (Pag, crate::VertexId) {
        let mut g = Pag::new(ViewKind::TopDown, "props");
        let v = g.add_vertex(VertexLabel::Compute, "k");
        (g, v)
    }

    #[test]
    fn set_get_replace() {
        let (mut g, v) = one_vertex();
        assert_eq!(g.vstr(v, keys::DEBUG_INFO), None);
        g.set_vstr(v, keys::DEBUG_INFO, "a.c:1");
        g.set_vstr(v, keys::COMM_INFO, "p2p 1 64");
        assert_eq!(g.vstr(v, keys::DEBUG_INFO), Some("a.c:1"));
        g.set_vstr(v, keys::DEBUG_INFO, "b.c:2");
        assert_eq!(g.vstr(v, keys::DEBUG_INFO), Some("b.c:2"));
        assert_eq!(g.vstr(v, keys::COMM_INFO), Some("p2p 1 64"));
        assert_eq!(g.prop_entries(v).len(), 2, "replaced in place");
    }

    #[test]
    fn accumulate_helpers() {
        let (mut g, v) = one_vertex();
        g.add_metric(v, mkeys::TIME, 0.5);
        g.add_metric(v, mkeys::TIME, 0.25);
        assert!((g.metric_f64(v, mkeys::TIME) - 0.75).abs() < 1e-12);
        g.add_metric_i64(v, mkeys::COUNT, 1);
        g.add_metric_i64(v, mkeys::COUNT, 2);
        assert_eq!(g.metric_i64(v, mkeys::COUNT), Some(3));
    }

    #[test]
    fn remove_and_missing() {
        let (g, v) = one_vertex();
        assert_eq!(g.vstr(v, "x"), None);
        assert_eq!(g.metric_f64(v, mkeys::TIME), 0.0);
        assert_eq!(g.metric(v, mkeys::TIME), None);
        assert_eq!(g.prop_by_name(v, "nope"), None);
        assert!(g.prop_entries(v).is_empty());
    }

    #[test]
    fn vector_values_roundtrip() {
        let (mut g, v) = one_vertex();
        g.set_metric_vec(v, mkeys::TIME_PER_PROC, vec![1.0, 2.0, 3.0]);
        let p = g.prop_by_name(v, keys::TIME_PER_PROC);
        assert_eq!(p, Some(PropValue::VecF64(Arc::from([1.0, 2.0, 3.0]))));
        assert_eq!(g.prop_by_name(v, "nope"), None);
    }

    #[test]
    fn keys_stay_sorted() {
        let (mut g, v) = one_vertex();
        for k in ["zebra", "alpha", "mid", "beta"] {
            g.set_vstr(v, k, "x");
        }
        g.set_metric(v, mkeys::TIME, 1.0);
        let user = g.intern_key("gamma");
        g.set_metric(v, user, 2.0);
        let entries = g.prop_entries(v);
        let order: Vec<&str> = entries.iter().map(|(k, _)| k.as_ref()).collect();
        assert_eq!(order, ["alpha", "beta", "gamma", "mid", "time", "zebra"]);
    }

    #[test]
    fn display_forms() {
        assert_eq!(PropValue::Int(5).to_string(), "5");
        assert_eq!(PropValue::Str(Arc::from("hi")).to_string(), "hi");
        assert!(PropValue::Float(0.5).to_string().starts_with("0.5"));
        assert_eq!(
            PropValue::VecF64(Arc::from([1.0, 2.0])).to_string(),
            "[1.0000, 2.0000]"
        );
    }
}
