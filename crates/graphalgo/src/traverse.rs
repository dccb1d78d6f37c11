//! Basic traversals: BFS, DFS pre-order, topological sort.

use pag::{Pag, VertexId};

/// Error returned by [`topo_sort_filtered`] when the graph contains a cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleError {
    /// A vertex known to participate in (or be downstream of) a cycle.
    pub witness: VertexId,
}

impl std::fmt::Display for CycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "graph contains a cycle (witness vertex {})",
            self.witness
        )
    }
}

impl std::error::Error for CycleError {}

/// Breadth-first order from `start`, following out-edges. Each reachable
/// vertex appears exactly once.
pub fn bfs_order(g: &Pag, start: VertexId) -> Vec<VertexId> {
    let mut visited = vec![false; g.num_vertices()];
    let mut queue = std::collections::VecDeque::new();
    let mut order = Vec::new();
    visited[start.index()] = true;
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for w in g.out_neighbors(v) {
            if !visited[w.index()] {
                visited[w.index()] = true;
                queue.push_back(w);
            }
        }
    }
    order
}

/// Depth-first pre-order from `start`, following out-edges. Children are
/// visited in edge-insertion order, which for a top-down PAG equals source
/// order — this is the traversal that generates parallel-view *flows*
/// (§3.4: "a flow is the vertex access sequence recorded by pre-order
/// traversal").
pub fn dfs_preorder(g: &Pag, start: VertexId) -> Vec<VertexId> {
    let mut visited = vec![false; g.num_vertices()];
    let mut stack = vec![start];
    let mut order = Vec::new();
    while let Some(v) = stack.pop() {
        if visited[v.index()] {
            continue;
        }
        visited[v.index()] = true;
        order.push(v);
        // Push children in reverse so the first child is processed first.
        let out = g.out_edges(v);
        for &e in out.iter().rev() {
            let w = g.edge(e).dst;
            if !visited[w.index()] {
                stack.push(w);
            }
        }
    }
    order
}

/// Kahn topological sort over the whole graph. Edges for which `follow`
/// returns `false` are ignored (used to sort only the structural subgraph
/// of a parallel view, skipping back-pointing dependence edges).
pub fn topo_sort_filtered(
    g: &Pag,
    follow: impl Fn(pag::EdgeId) -> bool,
) -> Result<Vec<VertexId>, CycleError> {
    let n = g.num_vertices();
    let mut indeg = vec![0u32; n];
    for e in g.edge_ids() {
        if follow(e) {
            indeg[g.edge(e).dst.index()] += 1;
        }
    }
    let mut queue: std::collections::VecDeque<VertexId> = (0..n as u32)
        .map(VertexId)
        .filter(|v| indeg[v.index()] == 0)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for &e in g.out_edges(v) {
            if !follow(e) {
                continue;
            }
            let w = g.edge(e).dst;
            indeg[w.index()] -= 1;
            if indeg[w.index()] == 0 {
                queue.push_back(w);
            }
        }
    }
    if order.len() != n {
        let witness = (0..n as u32)
            .map(VertexId)
            .find(|v| indeg[v.index()] > 0)
            .expect("cycle implies a vertex with positive residual in-degree");
        return Err(CycleError { witness });
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pag::{EdgeLabel, VertexLabel, ViewKind};

    /// Diamond: 0 -> {1,2} -> 3, plus isolated 4.
    fn diamond() -> Pag {
        let mut g = Pag::new(ViewKind::TopDown, "diamond");
        for i in 0..5 {
            g.add_vertex(VertexLabel::Compute, format!("n{i}").as_str());
        }
        for (a, b) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            g.add_edge(VertexId(a), VertexId(b), EdgeLabel::IntraProc);
        }
        g
    }

    #[test]
    fn bfs_visits_reachable_once() {
        let g = diamond();
        let order = bfs_order(&g, VertexId(0));
        assert_eq!(order.len(), 4); // vertex 4 unreachable
        assert_eq!(order[0], VertexId(0));
        assert_eq!(*order.last().unwrap(), VertexId(3));
    }

    #[test]
    fn dfs_preorder_follows_first_child_first() {
        let g = diamond();
        let order = dfs_preorder(&g, VertexId(0));
        assert_eq!(order[0], VertexId(0));
        assert_eq!(order[1], VertexId(1)); // first out-edge first
        assert!(order.contains(&VertexId(3)));
        assert_eq!(order.len(), 4);
    }

    #[test]
    fn topo_sort_respects_edges() {
        let g = diamond();
        let order = topo_sort_filtered(&g, |_| true).unwrap();
        let pos: Vec<usize> = (0..5)
            .map(|i| order.iter().position(|&v| v == VertexId(i)).unwrap())
            .collect();
        assert!(pos[0] < pos[1]);
        assert!(pos[0] < pos[2]);
        assert!(pos[1] < pos[3]);
        assert!(pos[2] < pos[3]);
    }

    #[test]
    fn topo_sort_detects_cycles() {
        let mut g = diamond();
        g.add_edge(VertexId(3), VertexId(0), EdgeLabel::IntraProc);
        assert!(topo_sort_filtered(&g, |_| true).is_err());
    }

    #[test]
    fn filtered_topo_ignores_cycle_edges() {
        let mut g = diamond();
        let back = g.add_edge(VertexId(3), VertexId(0), EdgeLabel::InterThread);
        let order = topo_sort_filtered(&g, |e| e != back).unwrap();
        assert_eq!(order.len(), 5);
    }

    #[test]
    fn bfs_from_sink_is_singleton() {
        let g = diamond();
        assert_eq!(bfs_order(&g, VertexId(3)), vec![VertexId(3)]);
    }
}
