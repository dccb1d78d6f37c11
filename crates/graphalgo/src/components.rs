//! Connected components: weakly connected (undirected reachability) and
//! strongly connected (Tarjan).
//!
//! Weak components slice a parallel view into independent interaction
//! groups; Tarjan SCCs detect cyclic wait-for structures (potential
//! deadlock/livelock patterns, one of the misbehaviors contention detection
//! targets in §4.3.2-D).

use pag::{Pag, VertexId};

/// Assign every vertex a weakly-connected-component id; returns
/// `(component_of, component_count)`.
pub fn weakly_connected_components(g: &Pag) -> (Vec<u32>, usize) {
    let n = g.num_vertices();
    let mut comp = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut stack = Vec::new();
    for s in 0..n {
        if comp[s] != u32::MAX {
            continue;
        }
        comp[s] = next;
        stack.push(VertexId(s as u32));
        while let Some(v) = stack.pop() {
            for w in g.out_neighbors(v).chain(g.in_neighbors(v)) {
                if comp[w.index()] == u32::MAX {
                    comp[w.index()] = next;
                    stack.push(w);
                }
            }
        }
        next += 1;
    }
    (comp, next as usize)
}

/// Tarjan strongly connected components of a PAG. Returns the list of
/// SCCs, each a vector of vertices; singleton SCCs without self-loops are
/// included. Successors are visited in `out_edges` order.
pub fn strongly_connected_components(g: &Pag) -> Vec<Vec<VertexId>> {
    let succ: Vec<Vec<usize>> = g
        .vertex_ids()
        .map(|v| g.out_neighbors(v).map(VertexId::index).collect())
        .collect();
    tarjan_sccs(&succ)
        .into_iter()
        .map(|scc| scc.into_iter().map(|v| VertexId(v as u32)).collect())
        .collect()
}

/// Iterative Tarjan strongly connected components over a dense adjacency
/// list (`succ[v]` = successors of `v`, visited in order). No recursion:
/// deep chains must not overflow the stack. SCCs are returned in the
/// order Tarjan completes them (reverse topological order of the
/// condensation), each listed from the last vertex pushed back to its
/// root; a singleton is cyclic only if it has a self-loop.
pub fn tarjan_sccs(succ: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = succ.len();
    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    // Explicit DFS frames: (node, next-child position).
    let mut frames: Vec<(usize, usize)> = Vec::new();

    for start in 0..n {
        if index[start] != UNSET {
            continue;
        }
        frames.push((start, 0));
        index[start] = next_index;
        low[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;

        while let Some(&mut (v, ref mut child)) = frames.last_mut() {
            if *child < succ[v].len() {
                let w = succ[v][*child];
                *child += 1;
                if index[w] == UNSET {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use pag::{EdgeLabel, VertexLabel, ViewKind};

    fn graph(n: u32, edges: &[(u32, u32)]) -> Pag {
        let mut g = Pag::new(ViewKind::TopDown, "g");
        for i in 0..n {
            g.add_vertex(VertexLabel::Compute, format!("n{i}").as_str());
        }
        for &(a, b) in edges {
            g.add_edge(VertexId(a), VertexId(b), EdgeLabel::IntraProc);
        }
        g
    }

    #[test]
    fn weak_components_split() {
        let g = graph(5, &[(0, 1), (1, 2), (3, 4)]);
        let (comp, count) = weakly_connected_components(&g);
        assert_eq!(count, 2);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
    }

    #[test]
    fn weak_components_ignore_direction() {
        let g = graph(3, &[(1, 0), (1, 2)]);
        let (_, count) = weakly_connected_components(&g);
        assert_eq!(count, 1);
    }

    #[test]
    fn scc_finds_cycle() {
        let g = graph(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let sccs = strongly_connected_components(&g);
        let cycle = sccs.iter().find(|s| s.len() == 3).expect("3-cycle SCC");
        let mut ids: Vec<u32> = cycle.iter().map(|v| v.0).collect();
        ids.sort();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(sccs.len(), 2); // the cycle + singleton {3}
    }

    #[test]
    fn scc_acyclic_gives_singletons() {
        let g = graph(4, &[(0, 1), (1, 2), (2, 3)]);
        let sccs = strongly_connected_components(&g);
        assert_eq!(sccs.len(), 4);
        assert!(sccs.iter().all(|s| s.len() == 1));
    }

    #[test]
    fn empty_graph() {
        let g = graph(0, &[]);
        assert_eq!(weakly_connected_components(&g).1, 0);
        assert!(strongly_connected_components(&g).is_empty());
    }

    #[test]
    fn two_interlocked_cycles() {
        // 0 <-> 1 and 2 <-> 3 linked by 1 -> 2.
        let g = graph(4, &[(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)]);
        let sccs = strongly_connected_components(&g);
        assert_eq!(sccs.len(), 2);
        assert!(sccs.iter().all(|s| s.len() == 2));
    }

    #[test]
    fn tarjan_handles_long_chains_iteratively() {
        // A 10_000-node chain with a closing back-edge: recursion-free
        // SCC must find the whole ring without overflowing the stack.
        let n = 10_000;
        let succ: Vec<Vec<usize>> = (0..n).map(|i| vec![(i + 1) % n]).collect();
        let sccs = tarjan_sccs(&succ);
        assert_eq!(sccs.len(), 1);
        assert_eq!(sccs[0].len(), n);
    }
}
