//! Top-k heaviest paths through a DAG.
//!
//! Critical-path tools report not just *the* critical path but the next
//! few near-critical ones (optimizing only the single heaviest chain
//! moves the bottleneck, it rarely removes it). This is the standard
//! k-best dynamic program: each vertex keeps its k best incoming path
//! weights with back-pointers.

use pag::{EdgeId, Pag, VertexId};

use crate::longest_path::CriticalPath;
use crate::traverse::topo_sort_filtered;

/// Compute the `k` heaviest vertex-weighted paths in the DAG formed by
/// edges accepted by `follow`. Paths are returned heaviest-first; fewer
/// than `k` are returned when the graph has fewer distinct maximal
/// paths. Returns `None` for cyclic or empty graphs.
pub fn k_heaviest_paths(
    g: &Pag,
    k: usize,
    follow: impl Fn(EdgeId) -> bool + Copy,
    vertex_weight: impl Fn(VertexId) -> f64,
) -> Option<Vec<CriticalPath>> {
    if g.num_vertices() == 0 || k == 0 {
        return None;
    }
    let order = topo_sort_filtered(g, follow).ok()?;
    let n = g.num_vertices();
    // Per vertex: up to k entries (weight, Option<(pred_vertex, pred_slot, edge)>).
    type Entry = (f64, Option<(u32, u8, EdgeId)>);
    let mut best: Vec<Vec<Entry>> = vec![Vec::new(); n];
    for &v in &order {
        let wv = vertex_weight(v);
        // Maximal paths only: a chain may start only at a source (no
        // accepted in-edges) — otherwise every suffix of the critical
        // path would crowd out genuinely distinct alternatives.
        let is_source = !g.in_edges(v).iter().any(|&e| follow(e));
        let mut cands: Vec<Entry> = if is_source {
            vec![(wv, None)]
        } else {
            Vec::new()
        };
        for &e in g.in_edges(v) {
            if !follow(e) {
                continue;
            }
            let u = g.edge(e).src;
            for (slot, &(du, _)) in best[u.index()].iter().enumerate() {
                cands.push((du + wv, Some((u.0, slot as u8, e))));
            }
        }
        cands.sort_by(|a, b| b.0.total_cmp(&a.0));
        cands.truncate(k);
        best[v.index()] = cands;
    }
    // Collect the global k best path *endpoints* (avoiding returning k
    // prefixes of the same chain: an endpoint must not have an accepted
    // out-edge, unless the graph has no sinks at all).
    let mut endpoints: Vec<(f64, u32, u8)> = Vec::new();
    for v in 0..n as u32 {
        let vid = VertexId(v);
        let is_sink = !g.out_edges(vid).iter().any(|&e| follow(e));
        if !is_sink {
            continue;
        }
        for (slot, &(d, _)) in best[vid.index()].iter().enumerate() {
            endpoints.push((d, v, slot as u8));
        }
    }
    if endpoints.is_empty() {
        // Degenerate: no sinks (shouldn't happen in a DAG with vertices).
        return None;
    }
    endpoints.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    endpoints.truncate(k);

    let mut out = Vec::with_capacity(endpoints.len());
    for (weight, v, slot) in endpoints {
        let mut vertices = Vec::new();
        let mut edges = Vec::new();
        let mut cur = (v, slot);
        loop {
            vertices.push(VertexId(cur.0));
            match best[cur.0 as usize][cur.1 as usize].1 {
                Some((pu, pslot, e)) => {
                    edges.push(e);
                    cur = (pu, pslot);
                }
                None => break,
            }
        }
        vertices.reverse();
        edges.reverse();
        out.push(CriticalPath {
            vertices,
            edges,
            weight,
        });
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pag::{mkeys, EdgeLabel, VertexLabel, ViewKind};

    fn weighted(weights: &[f64], edges: &[(u32, u32)]) -> Pag {
        let mut g = Pag::new(ViewKind::Parallel, "kp");
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
    fn top1_matches_critical_path() {
        let g = weighted(&[1.0, 2.0, 10.0, 1.0], &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let w = |v: VertexId| g.vertex_time(v);
        let k1 = k_heaviest_paths(&g, 1, |_| true, w).unwrap();
        let cp = crate::critical_path(&g, |_| true, w).unwrap();
        assert_eq!(k1[0].vertices, cp.vertices);
        assert_eq!(k1[0].weight, cp.weight);
    }

    #[test]
    fn second_path_is_the_other_branch() {
        let g = weighted(&[1.0, 2.0, 10.0, 1.0], &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let w = |v: VertexId| g.vertex_time(v);
        let paths = k_heaviest_paths(&g, 2, |_| true, w).unwrap();
        assert_eq!(paths.len(), 2);
        assert!((paths[0].weight - 12.0).abs() < 1e-12); // 0→2→3
        assert!((paths[1].weight - 4.0).abs() < 1e-12); // 0→1→3
        assert_eq!(
            paths[1].vertices,
            vec![VertexId(0), VertexId(1), VertexId(3)]
        );
        // Weights are non-increasing.
        assert!(paths[0].weight >= paths[1].weight);
    }

    #[test]
    fn fewer_paths_than_k() {
        let g = weighted(&[5.0, 3.0], &[(0, 1)]);
        let paths = k_heaviest_paths(&g, 10, |_| true, |v| g.vertex_time(v)).unwrap();
        // One maximal (source→sink) path only.
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].weight, 8.0);
        assert_eq!(paths[0].vertices, vec![VertexId(0), VertexId(1)]);
    }

    #[test]
    fn multiple_sinks_compete() {
        // 0 → 1 (heavy sink), 0 → 2 (light sink)
        let g = weighted(&[1.0, 20.0, 2.0], &[(0, 1), (0, 2)]);
        let paths = k_heaviest_paths(&g, 2, |_| true, |v| g.vertex_time(v)).unwrap();
        assert_eq!(paths[0].weight, 21.0);
        assert_eq!(paths[1].weight, 3.0);
    }

    #[test]
    fn cyclic_returns_none() {
        let mut g = weighted(&[1.0, 1.0], &[(0, 1)]);
        g.add_edge(VertexId(1), VertexId(0), EdgeLabel::IntraProc);
        assert!(k_heaviest_paths(&g, 3, |_| true, |v| g.vertex_time(v)).is_none());
    }

    #[test]
    fn k_zero_and_empty_graph() {
        let g = weighted(&[1.0], &[]);
        assert!(k_heaviest_paths(&g, 0, |_| true, |v| g.vertex_time(v)).is_none());
        let e = Pag::new(ViewKind::Parallel, "e");
        assert!(k_heaviest_paths(&e, 3, |_| true, |_| 1.0).is_none());
    }
}
