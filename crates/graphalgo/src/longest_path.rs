//! Critical-path extraction: longest weighted path through a DAG.
//!
//! The *critical path* paradigm (§4.4, inspired by Böhme et al. and Schmitt
//! et al.) finds the chain of activities that determines total runtime: on
//! the parallel view, the heaviest path through per-flow sequences and
//! cross-flow dependence edges.

use pag::{EdgeId, Pag, VertexId};

use crate::traverse::topo_sort_filtered;

/// The result of a critical-path computation.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// Vertices on the path, source first.
    pub vertices: Vec<VertexId>,
    /// Edges connecting consecutive path vertices.
    pub edges: Vec<EdgeId>,
    /// Total weight (sum of vertex weights along the path).
    pub weight: f64,
}

/// Compute the maximum-weight path in the DAG formed by the edges accepted
/// by `follow`, where each vertex contributes `vertex_weight(v)`.
///
/// Returns `None` when the filtered graph is cyclic or has no vertices.
pub fn critical_path(
    g: &Pag,
    follow: impl Fn(EdgeId) -> bool + Copy,
    vertex_weight: impl Fn(VertexId) -> f64,
) -> Option<CriticalPath> {
    if g.num_vertices() == 0 {
        return None;
    }
    let order = topo_sort_filtered(g, follow).ok()?;
    let n = g.num_vertices();
    // dist[v] = best path weight ending at v (including v's weight).
    let mut dist = vec![f64::NEG_INFINITY; n];
    let mut pred: Vec<Option<EdgeId>> = vec![None; n];
    for &v in &order {
        let wv = vertex_weight(v);
        let mut best = wv; // start a fresh path at v
        let mut best_edge = None;
        for &e in g.in_edges(v) {
            if !follow(e) {
                continue;
            }
            let u = g.edge(e).src;
            let cand = dist[u.index()] + wv;
            if cand > best {
                best = cand;
                best_edge = Some(e);
            }
        }
        dist[v.index()] = best;
        pred[v.index()] = best_edge;
    }
    // Find the heaviest endpoint and walk back.
    // NaN-weighted vertices never win the endpoint selection (a NaN
    // weight compares below every number), so corrupted metrics degrade
    // to "not on the critical path" instead of panicking.
    let (end, &weight) = dist
        .iter()
        .enumerate()
        .max_by(|a, b| pag::nan_smallest(*a.1, *b.1))?;
    let mut vertices = vec![VertexId(end as u32)];
    let mut edges = Vec::new();
    let mut cur = end;
    while let Some(e) = pred[cur] {
        edges.push(e);
        cur = g.edge(e).src.index();
        vertices.push(VertexId(cur as u32));
    }
    vertices.reverse();
    edges.reverse();
    Some(CriticalPath {
        vertices,
        edges,
        weight,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pag::{mkeys, EdgeLabel, VertexLabel, ViewKind};

    fn weighted(weights: &[f64], edges: &[(u32, u32)]) -> Pag {
        let mut g = Pag::new(ViewKind::Parallel, "w");
        for (i, &w) in weights.iter().enumerate() {
            let v = g.add_vertex(VertexLabel::Compute, format!("n{i}").as_str());
            g.set_metric(v, mkeys::TIME, w);
        }
        for &(a, b) in edges {
            g.add_edge(VertexId(a), VertexId(b), EdgeLabel::IntraProc);
        }
        g
    }

    #[test]
    fn picks_heavier_branch() {
        // 0 -> 1 -> 3 and 0 -> 2 -> 3; vertex 2 heavier than 1.
        let g = weighted(&[1.0, 2.0, 10.0, 1.0], &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let cp = critical_path(&g, |_| true, |v| g.vertex_time(v)).unwrap();
        assert_eq!(cp.vertices, vec![VertexId(0), VertexId(2), VertexId(3)]);
        assert_eq!(cp.edges.len(), 2);
        assert!((cp.weight - 12.0).abs() < 1e-12);
    }

    #[test]
    fn isolated_heavy_vertex_wins() {
        let g = weighted(&[1.0, 1.0, 100.0], &[(0, 1)]);
        let cp = critical_path(&g, |_| true, |v| g.vertex_time(v)).unwrap();
        assert_eq!(cp.vertices, vec![VertexId(2)]);
        assert!(cp.edges.is_empty());
        assert_eq!(cp.weight, 100.0);
    }

    #[test]
    fn cyclic_returns_none() {
        let mut g = weighted(&[1.0, 1.0], &[(0, 1)]);
        g.add_edge(VertexId(1), VertexId(0), EdgeLabel::IntraProc);
        assert!(critical_path(&g, |_| true, |v| g.vertex_time(v)).is_none());
    }

    #[test]
    fn empty_graph_returns_none() {
        let g = Pag::new(ViewKind::Parallel, "empty");
        assert!(critical_path(&g, |_| true, |_| 1.0).is_none());
    }

    #[test]
    fn edge_filter_restricts_path() {
        let g = weighted(&[1.0, 50.0, 1.0], &[(0, 1), (0, 2)]);
        // Exclude the edge to the heavy vertex; path must not use it, but
        // the heavy vertex still wins as an isolated path.
        let cp = critical_path(&g, |e| g.edge(e).dst != VertexId(1), |v| g.vertex_time(v)).unwrap();
        assert_eq!(cp.vertices, vec![VertexId(1)]);
        // Now also weight it zero: path goes 0 -> 2.
        let cp2 = critical_path(
            &g,
            |e| g.edge(e).dst != VertexId(1),
            |v| {
                if v == VertexId(1) {
                    0.0
                } else {
                    g.vertex_time(v)
                }
            },
        )
        .unwrap();
        assert_eq!(cp2.vertices, vec![VertexId(0), VertexId(2)]);
    }

    #[test]
    fn long_chain_accumulates() {
        let n = 100;
        let weights: Vec<f64> = (0..n).map(|_| 1.0).collect();
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i as u32, i as u32 + 1)).collect();
        let g = weighted(&weights, &edges);
        let cp = critical_path(&g, |_| true, |v| g.vertex_time(v)).unwrap();
        assert_eq!(cp.vertices.len(), n);
        assert!((cp.weight - n as f64).abs() < 1e-9);
    }
}
