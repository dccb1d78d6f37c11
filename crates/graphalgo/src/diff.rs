//! Graph difference for performance differential analysis (§4.3.2-B).
//!
//! Two PAGs built from the same binary share their top-down skeleton, so
//! the difference graph `G3 = G1 - G2` is computed positionally: identical
//! structure, each vertex carrying `metric(G1) - metric(G2)` for every
//! requested numeric metric (Fig. 7). A vertex that is *not* the hottest in
//! either input can be the hottest in the difference — that is exactly the
//! signal differential analysis looks for.

use pag::{keys, KeyId, Pag, VertexId};

/// Error cases for graph difference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffError {
    /// The two PAGs have different numbers of vertices.
    VertexCountMismatch {
        /// Vertex count of the left graph.
        left: usize,
        /// Vertex count of the right graph.
        right: usize,
    },
    /// A vertex pair has different names, i.e. the skeletons differ.
    SkeletonMismatch {
        /// The mismatching vertex.
        vertex: VertexId,
    },
}

impl std::fmt::Display for DiffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiffError::VertexCountMismatch { left, right } => {
                write!(f, "vertex count mismatch: {left} vs {right}")
            }
            DiffError::SkeletonMismatch { vertex } => {
                write!(f, "skeleton mismatch at vertex {vertex}")
            }
        }
    }
}

impl std::error::Error for DiffError {}

/// Compute the difference graph of two same-skeleton PAGs.
///
/// For every metric in `metrics`, each result vertex carries
/// `left[metric] - scale * right[metric]`. `scale` lets scalability
/// analysis compare runs at different process counts under an ideal-scaling
/// model (e.g. `scale = 1.0` for plain comparison, or the runtime ratio
/// expected from perfect strong scaling).
pub fn graph_difference_scaled(
    left: &Pag,
    right: &Pag,
    metrics: &[&str],
    scale: f64,
) -> Result<Pag, DiffError> {
    if left.num_vertices() != right.num_vertices() {
        return Err(DiffError::VertexCountMismatch {
            left: left.num_vertices(),
            right: right.num_vertices(),
        });
    }
    let mut out = Pag::with_capacity(
        left.view(),
        format!("diff({},{})", left.name(), right.name()),
        left.num_vertices(),
        left.num_edges(),
    );
    out.set_num_procs(left.num_procs().max(right.num_procs()));
    // Resolve metric names to column ids once; the per-vertex loop then
    // never touches string keys.
    let lkeys: Vec<Option<KeyId>> = metrics.iter().map(|m| left.key_id(m)).collect();
    let rkeys: Vec<Option<KeyId>> = metrics.iter().map(|m| right.key_id(m)).collect();
    let okeys: Vec<KeyId> = metrics.iter().map(|m| out.intern_key(m)).collect();
    for v in left.vertex_ids() {
        let lv = left.vertex(v);
        let rv = right.vertex(v);
        if lv.name != rv.name {
            return Err(DiffError::SkeletonMismatch { vertex: v });
        }
        let nv = out.add_vertex(lv.label, lv.name.clone());
        // Copy identifying metadata from the left graph.
        if let Some(d) = left.vstr(v, keys::DEBUG_INFO) {
            out.set_vstr(nv, keys::DEBUG_INFO, d);
        }
        for i in 0..metrics.len() {
            let a = lkeys[i].map_or(0.0, |k| left.metric_f64(v, k));
            let b = rkeys[i].map_or(0.0, |k| right.metric_f64(v, k));
            out.set_metric(nv, okeys[i], a - scale * b);
        }
    }
    for e in left.edge_ids() {
        let ed = left.edge(e);
        out.add_edge(ed.src, ed.dst, ed.label);
    }
    if let Some(r) = left.root() {
        out.set_root(r);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pag::{mkeys, EdgeLabel, VertexLabel, ViewKind};

    fn run(name: &str, times: &[f64]) -> Pag {
        let mut g = Pag::new(ViewKind::TopDown, name);
        for (i, &t) in times.iter().enumerate() {
            let v = g.add_vertex(VertexLabel::Compute, format!("n{i}").as_str());
            g.set_metric(v, mkeys::TIME, t);
        }
        for i in 1..times.len() as u32 {
            g.add_edge(VertexId(0), VertexId(i), EdgeLabel::IntraProc);
        }
        g.set_root(VertexId(0));
        g
    }

    #[test]
    fn positional_difference() {
        let a = run("a", &[10.0, 5.0, 1.0]);
        let b = run("b", &[9.0, 1.0, 1.0]);
        let d = graph_difference_scaled(&a, &b, &[keys::TIME], 1.0).unwrap();
        assert_eq!(d.num_vertices(), 3);
        assert_eq!(d.num_edges(), 2);
        assert_eq!(d.vertex_time(VertexId(0)), 1.0);
        assert_eq!(d.vertex_time(VertexId(1)), 4.0);
        assert_eq!(d.vertex_time(VertexId(2)), 0.0);
        assert_eq!(d.root(), Some(VertexId(0)));
    }

    #[test]
    fn non_hotspot_becomes_hottest_difference() {
        // Vertex 0 is the hotspot in both runs, but vertex 1 grows the most
        // — the paper's MPI_Reduce example (Fig. 7).
        let small = run("small", &[10.0, 1.0, 2.0]);
        let large = run("large", &[11.0, 7.0, 2.5]);
        let d = graph_difference_scaled(&large, &small, &[keys::TIME], 1.0).unwrap();
        let hot = d
            .vertex_ids()
            .max_by(|&a, &b| d.vertex_time(a).total_cmp(&d.vertex_time(b)))
            .unwrap();
        assert_eq!(hot, VertexId(1));
        assert!((d.vertex_time(hot) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn scaled_difference_models_ideal_scaling() {
        let small = run("p4", &[8.0, 4.0]);
        let large = run("p16", &[2.0, 3.9]);
        // Under perfect strong scaling 4→16 procs, time shrinks 4×:
        // expected = small/4. Loss = large - small/4.
        let d = graph_difference_scaled(&large, &small, &[keys::TIME], 0.25).unwrap();
        assert!((d.vertex_time(VertexId(0)) - 0.0).abs() < 1e-12);
        assert!((d.vertex_time(VertexId(1)) - 2.9).abs() < 1e-12);
    }

    #[test]
    fn mismatched_counts_rejected() {
        let a = run("a", &[1.0, 2.0]);
        let b = run("b", &[1.0]);
        assert_eq!(
            graph_difference_scaled(&a, &b, &[keys::TIME], 1.0).unwrap_err(),
            DiffError::VertexCountMismatch { left: 2, right: 1 }
        );
    }

    #[test]
    fn mismatched_names_rejected() {
        let a = run("a", &[1.0, 2.0]);
        let mut b = Pag::new(ViewKind::TopDown, "b");
        b.add_vertex(VertexLabel::Compute, "n0");
        b.add_vertex(VertexLabel::Compute, "DIFFERENT");
        let err = graph_difference_scaled(&a, &b, &[keys::TIME], 1.0).unwrap_err();
        assert_eq!(
            err,
            DiffError::SkeletonMismatch {
                vertex: VertexId(1)
            }
        );
    }

    #[test]
    fn missing_metric_treated_as_zero() {
        let mut a = Pag::new(ViewKind::TopDown, "a");
        a.add_vertex(VertexLabel::Compute, "n0");
        let b = run("b", &[3.0]);
        let d = graph_difference_scaled(&a, &b, &[keys::TIME], 1.0).unwrap();
        assert_eq!(d.vertex_time(VertexId(0)), -3.0);
    }
}
