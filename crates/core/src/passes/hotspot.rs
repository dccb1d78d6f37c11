//! Hotspot detection (§4.3.2-A): "identifying the code snippets with the
//! highest value of specific metrics". Listing 3 is literally
//! `V.sort_by(m).top(n)` — so is this, plus a confidence weight: on
//! degraded runs a vertex whose samples were partially lost carries a
//! `completeness` property in `[0, 1]`, and its metric is multiplied by
//! it so low-confidence vertices cannot displace well-measured ones.

use crate::error::PerFlowError;
use crate::pass::{config_fingerprint, expect_vertices, Pass, PassCx};
use crate::set::VertexSet;
use crate::value::Value;

/// The hotspot-detection analysis: sort by `metric` descending (each
/// value down-weighted by the vertex's `completeness`, absent = 1.0),
/// keep the top `n`. The result's scores hold the weighted metric.
pub fn hotspot(set: &VertexSet, metric: &str, n: usize) -> VertexSet {
    let mut weighted = set.clone();
    for &v in &set.ids {
        weighted
            .scores
            .insert(v, set.metric(v, metric) * completeness(set, v));
    }
    weighted.sort_by("score").top(n)
}

/// The vertex's `completeness` property; 1.0 when absent (complete data).
pub(crate) fn completeness(set: &VertexSet, v: pag::VertexId) -> f64 {
    set.graph
        .pag()
        .metric(v, pag::mkeys::COMPLETENESS)
        .unwrap_or(1.0)
}

/// Pass wrapper for PerFlowGraphs.
pub struct HotspotPass {
    /// Sorting metric (vertex property name, or `"score"`).
    pub metric: String,
    /// Number of vertices to keep.
    pub n: usize,
}

impl HotspotPass {
    /// Hotspots by inclusive time.
    pub fn by_time(n: usize) -> Self {
        HotspotPass {
            metric: pag::keys::TIME.to_string(),
            n,
        }
    }
}

impl Pass for HotspotPass {
    fn name(&self) -> &str {
        "hotspot_detection"
    }
    fn arity(&self) -> usize {
        1
    }
    fn run(&self, inputs: &[Value], _cx: &mut PassCx) -> Result<Vec<Value>, PerFlowError> {
        let set = expect_vertices(self, inputs, 0)?;
        Ok(vec![hotspot(set, &self.metric, self.n).into()])
    }
    fn fingerprint(&self) -> Option<u64> {
        config_fingerprint(&[self.name(), &self.metric], &[self.n as u64])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphref::GraphRef;
    use pag::{keys, mkeys, Pag, VertexLabel, ViewKind};
    use std::sync::Arc;

    fn set_with_times(times: &[f64]) -> VertexSet {
        let mut g = Pag::new(ViewKind::TopDown, "h");
        for (i, &t) in times.iter().enumerate() {
            let v = g.add_vertex(VertexLabel::Compute, format!("k{i}").as_str());
            g.set_metric(v, mkeys::TIME, t);
        }
        GraphRef::Detached(Arc::new(g)).all_vertices()
    }

    #[test]
    fn finds_top_n() {
        let set = set_with_times(&[1.0, 9.0, 5.0, 7.0]);
        let hot = hotspot(&set, keys::TIME, 2);
        assert_eq!(hot.len(), 2);
        assert_eq!(set.graph.pag().vertex_name(hot.ids[0]), "k1");
        assert_eq!(set.graph.pag().vertex_name(hot.ids[1]), "k3");
    }

    #[test]
    fn n_larger_than_set_keeps_all() {
        let set = set_with_times(&[1.0, 2.0]);
        assert_eq!(hotspot(&set, keys::TIME, 100).len(), 2);
    }

    #[test]
    fn pass_wrapper_runs() {
        let set = set_with_times(&[3.0, 1.0, 2.0]);
        let pass = HotspotPass::by_time(1);
        let out = pass.run(&[set.clone().into()], &mut PassCx::new()).unwrap();
        let hot = out[0].as_vertices().unwrap();
        assert_eq!(hot.len(), 1);
        assert_eq!(set.graph.pag().vertex_name(hot.ids[0]), "k0");
    }

    #[test]
    fn low_completeness_vertex_is_down_weighted() {
        let mut g = Pag::new(ViewKind::TopDown, "h");
        // k0: 10s but only 40% complete (effective 4.0); k1: 6s complete.
        let a = g.add_vertex(VertexLabel::Compute, "k0");
        g.set_metric(a, mkeys::TIME, 10.0);
        g.set_metric(a, mkeys::COMPLETENESS, 0.4);
        let b = g.add_vertex(VertexLabel::Compute, "k1");
        g.set_metric(b, mkeys::TIME, 6.0);
        let set = GraphRef::Detached(Arc::new(g)).all_vertices();
        let hot = hotspot(&set, keys::TIME, 2);
        assert_eq!(set.graph.pag().vertex_name(hot.ids[0]), "k1");
        assert!((hot.score(hot.ids[1]) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn pass_rejects_wrong_type() {
        let pass = HotspotPass::by_time(1);
        assert!(pass.run(&[Value::Num(1.0)], &mut PassCx::new()).is_err());
        assert!(pass.run(&[], &mut PassCx::new()).is_err());
    }
}
