//! Performance differential analysis (§4.3.2-B): the graph difference of
//! two same-skeleton PAGs, the foundation of scalability analysis.

use std::sync::Arc;

use graphalgo::diff::graph_difference_scaled;
use pag::{keys, mkeys};

use crate::error::PerFlowError;
use crate::graphref::{GraphRef, RunHandle};
use crate::pass::{config_fingerprint, expect_vertices, Pass, PassCx};
use crate::set::VertexSet;
use crate::value::Value;

/// Difference of two runs' top-down views. Every result vertex carries
/// `time(left) - scale × time(right)` in its `diff-time` and `time`
/// metrics; the returned set contains all vertices, sorted by difference
/// descending, scored by the difference.
///
/// For a scaling study comparing a `P_large` run (left) against a
/// `P_small` run (right) under ideal strong scaling, pass
/// `scale = P_small / P_large`.
pub fn differential(
    left: &RunHandle,
    right: &RunHandle,
    scale: f64,
) -> Result<VertexSet, PerFlowError> {
    diff_pags(left.topdown(), right.topdown(), scale)
}

fn diff_pags(left: &pag::Pag, right: &pag::Pag, scale: f64) -> Result<VertexSet, PerFlowError> {
    let mut diff = graph_difference_scaled(left, right, &[keys::TIME], scale)
        .map_err(|e| PerFlowError::Diff(e.to_string()))?;
    // Duplicate the difference into `diff-time` so reports can show it
    // alongside other metrics.
    for v in diff.vertex_ids().collect::<Vec<_>>() {
        let d = diff.vertex_time(v);
        diff.set_metric(v, mkeys::DIFF_TIME, d);
    }
    let graph = GraphRef::Detached(Arc::new(diff));
    let mut set = graph.all_vertices();
    for &v in &set.ids.clone() {
        let d = graph.pag().vertex_time(v);
        set.scores.insert(v, d);
    }
    Ok(set.sort_by("score"))
}

/// Map a set living on a difference graph back onto a run's top-down
/// view. Valid because the difference preserves vertex ids of the shared
/// skeleton.
pub fn map_to_run(set: &VertexSet, run: &RunHandle) -> VertexSet {
    GraphRef::TopDown(Arc::clone(run)).project(set)
}

/// Pass wrapper (the Listing-4 signature): two vertex-set inputs, the
/// full sets of two runs, whose graphs are differenced.
pub struct DifferentialPass {
    /// Ideal-scaling factor applied to the right input.
    pub scale: f64,
}

impl Default for DifferentialPass {
    fn default() -> Self {
        DifferentialPass { scale: 1.0 }
    }
}

impl Pass for DifferentialPass {
    fn name(&self) -> &str {
        "differential_analysis"
    }
    fn arity(&self) -> usize {
        2
    }
    fn run(&self, inputs: &[Value], _cx: &mut PassCx) -> Result<Vec<Value>, PerFlowError> {
        let left = expect_vertices(self, inputs, 0)?;
        let right = expect_vertices(self, inputs, 1)?;
        Ok(vec![diff_pags(
            left.graph.pag(),
            right.graph.pag(),
            self.scale,
        )?
        .into()])
    }
    fn fingerprint(&self) -> Option<u64> {
        config_fingerprint(&[self.name()], &[self.scale.to_bits()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pag::{Pag, VertexLabel, ViewKind};

    fn run_pag(times: &[f64]) -> pag::Pag {
        let mut g = Pag::new(ViewKind::TopDown, "r");
        for (i, &t) in times.iter().enumerate() {
            let v = g.add_vertex(VertexLabel::Compute, format!("k{i}").as_str());
            g.set_metric(v, mkeys::TIME, t);
        }
        g
    }

    #[test]
    fn difference_sorted_and_scored() {
        let a = run_pag(&[10.0, 3.0, 7.0]);
        let b = run_pag(&[9.0, 1.0, 1.0]);
        let d = diff_pags(&a, &b, 1.0).unwrap();
        // Differences: 1, 2, 6 → sorted k2, k1, k0.
        let names: Vec<&str> = d
            .ids
            .iter()
            .map(|&v| d.graph.pag().vertex_name(v))
            .collect();
        assert_eq!(names, vec!["k2", "k1", "k0"]);
        assert_eq!(d.score(d.ids[0]), 6.0);
        assert_eq!(d.graph.pag().metric(d.ids[0], mkeys::DIFF_TIME), Some(6.0));
    }

    #[test]
    fn ideal_scaling_model() {
        // P=4 → P=16: ideal scale 0.25. k0 scales perfectly, k1 not at all.
        let small = run_pag(&[8.0, 4.0]);
        let large = run_pag(&[2.0, 4.0]);
        let d = diff_pags(&large, &small, 0.25).unwrap();
        assert_eq!(d.graph.pag().vertex_name(d.ids[0]), "k1");
        assert!((d.score(d.ids[0]) - 3.0).abs() < 1e-12);
        assert!((d.score(d.ids[1]) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn mismatched_skeletons_error() {
        let a = run_pag(&[1.0]);
        let b = run_pag(&[1.0, 2.0]);
        assert!(matches!(diff_pags(&a, &b, 1.0), Err(PerFlowError::Diff(_))));
    }
}
