//! Imbalance analysis: detect vertices whose metric is unevenly
//! distributed across processes (top-down view) or whose flow replicas
//! diverge (parallel view — the black-boxed "imbalanced process vertices"
//! of Figs. 10 and 12).

use pag::{mkeys, VertexStats};

use crate::error::PerFlowError;
use crate::pass::{config_fingerprint, expect_vertices, Pass, PassCx};
use crate::passes::hotspot::completeness;
use crate::set::VertexSet;
use crate::value::Value;

/// Detect imbalance.
///
/// * On a **top-down** (or detached) view: members whose per-process time
///   vector has imbalance factor `max/mean - 1 ≥ threshold`. Score = the
///   imbalance factor.
/// * On a **parallel** view: members are flow vertices; they are grouped
///   by their top-down original, and the replicas whose time exceeds
///   `mean × (1 + threshold)` are returned (the lagging processes).
///   Score = `time/mean - 1`.
///
/// On degraded runs every score is multiplied by the vertex's
/// `completeness` (absent = 1.0) before the threshold test, so apparent
/// imbalance that is really missing data does not clear the bar.
pub fn imbalance(set: &VertexSet, threshold: f64) -> VertexSet {
    // Dispatch on the PAG's own view kind (not the ref variant) so a
    // detached parallel-view graph — e.g. the self-analysis PAG built
    // from an `obs` trace — gets the flow-replica treatment too.
    match set.graph.pag().view() {
        pag::ViewKind::Parallel => imbalance_parallel(set, threshold),
        _ => imbalance_topdown(set, threshold),
    }
}

fn imbalance_topdown(set: &VertexSet, threshold: f64) -> VertexSet {
    let pag = set.graph.pag();
    let mut out = VertexSet::new(set.graph.clone(), Vec::new());
    for &v in &set.ids {
        let Some(vec) = pag.metric_vec(v, mkeys::TIME_PER_PROC) else {
            continue;
        };
        let Some(stats) = VertexStats::from_slice(vec) else {
            continue;
        };
        let imb = stats.imbalance() * completeness(set, v);
        if imb >= threshold {
            out.ids.push(v);
            out.scores.insert(v, imb);
        }
    }
    out
}

fn imbalance_parallel(set: &VertexSet, threshold: f64) -> VertexSet {
    let pag = set.graph.pag();
    // Group member flow vertices by their top-down original.
    let mut groups: std::collections::BTreeMap<i64, Vec<pag::VertexId>> = Default::default();
    for &v in &set.ids {
        let td = pag.metric_i64(v, mkeys::TOPDOWN_VERTEX).unwrap_or(-1);
        groups.entry(td).or_default().push(v);
    }
    let mut out = VertexSet::new(set.graph.clone(), Vec::new());
    for (_, members) in groups {
        if members.len() < 2 {
            continue;
        }
        let times: Vec<f64> = members.iter().map(|&v| pag.vertex_time(v)).collect();
        let Some(stats) = VertexStats::from_slice(&times) else {
            continue;
        };
        if stats.mean <= f64::EPSILON {
            continue;
        }
        for (&v, &t) in members.iter().zip(&times) {
            let dev = (t / stats.mean - 1.0) * completeness(set, v);
            if dev >= threshold {
                out.ids.push(v);
                out.scores.insert(v, dev);
            }
        }
    }
    out
}

/// Pass wrapper for PerFlowGraphs.
pub struct ImbalancePass {
    /// Minimum imbalance factor to report.
    pub threshold: f64,
}

impl Default for ImbalancePass {
    fn default() -> Self {
        ImbalancePass { threshold: 0.2 }
    }
}

impl Pass for ImbalancePass {
    fn name(&self) -> &str {
        "imbalance_analysis"
    }
    fn arity(&self) -> usize {
        1
    }
    fn run(&self, inputs: &[Value], _cx: &mut PassCx) -> Result<Vec<Value>, PerFlowError> {
        let set = expect_vertices(self, inputs, 0)?;
        Ok(vec![imbalance(set, self.threshold).into()])
    }
    fn fingerprint(&self) -> Option<u64> {
        config_fingerprint(&[self.name()], &[self.threshold.to_bits()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphref::GraphRef;
    use pag::{mkeys, Pag, VertexLabel, ViewKind};
    use std::sync::Arc;

    fn topdown_set(vectors: &[&[f64]]) -> VertexSet {
        let mut g = Pag::new(ViewKind::TopDown, "imb");
        for (i, vec) in vectors.iter().enumerate() {
            let v = g.add_vertex(VertexLabel::Compute, format!("k{i}").as_str());
            g.set_metric_vec(v, mkeys::TIME_PER_PROC, vec.to_vec());
        }
        GraphRef::Detached(Arc::new(g)).all_vertices()
    }

    #[test]
    fn detects_imbalanced_topdown_vertices() {
        let set = topdown_set(&[&[1.0, 1.0, 1.0, 1.0], &[1.0, 1.0, 1.0, 5.0]]);
        let imb = imbalance(&set, 0.2);
        assert_eq!(imb.len(), 1);
        assert_eq!(set.graph.pag().vertex_name(imb.ids[0]), "k1");
        assert!(imb.score(imb.ids[0]) > 1.0);
    }

    #[test]
    fn threshold_excludes_mild_imbalance() {
        let set = topdown_set(&[&[1.0, 1.1, 1.0, 1.0]]);
        assert!(imbalance(&set, 0.2).is_empty());
        assert_eq!(imbalance(&set, 0.01).len(), 1);
    }

    #[test]
    fn incomplete_vertex_needs_stronger_imbalance_to_report() {
        // imbalance factor = max/mean - 1 = 5/2 - 1 = 1.5; at 40%
        // completeness the weighted score is 0.6.
        let mut g = Pag::new(ViewKind::TopDown, "imb");
        let v = g.add_vertex(VertexLabel::Compute, "k");
        g.set_metric_vec(v, mkeys::TIME_PER_PROC, vec![1.0, 1.0, 1.0, 5.0]);
        g.set_metric(v, mkeys::COMPLETENESS, 0.4);
        let set = GraphRef::Detached(Arc::new(g)).all_vertices();
        assert!(imbalance(&set, 1.0).is_empty(), "0.6 < 1.0 threshold");
        let found = imbalance(&set, 0.5);
        assert_eq!(found.len(), 1);
        assert!((found.score(found.ids[0]) - 0.6).abs() < 1e-9);
    }

    #[test]
    fn vertices_without_vectors_are_skipped() {
        let mut g = Pag::new(ViewKind::TopDown, "novec");
        g.add_vertex(VertexLabel::Compute, "k");
        let set = GraphRef::Detached(Arc::new(g)).all_vertices();
        assert!(imbalance(&set, 0.0).is_empty());
    }
}
