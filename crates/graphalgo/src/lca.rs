//! Lowest common ancestor on a rooted DAG.
//!
//! The causal-analysis pass "is designed based on the LCA algorithm […] the
//! goal of the LCA algorithm is to search the deepest vertex that has both
//! v and w as descendants in a tree or directed acyclic graph" (§4.3.2-C).
//!
//! Causal analysis runs [`lca_bfs`] over every pair of buggy vertices:
//! two backward BFS walks per pair, memory linear in the ancestors they
//! reach, so it scales to parallel views of any size. [`LcaIndex`]
//! precomputes each vertex's ancestor set as an O(V²)-bit index instead;
//! it answers a query in a word scan, and `paper ablation_lca` and the
//! LCA property test compare `lca_bfs` against it.

use pag::{EdgeId, Pag, VertexId};

use crate::traverse::topo_sort_filtered;

/// Precomputed ancestor/depth index for LCA queries over the subgraph of
/// edges accepted by a filter.
pub struct LcaIndex {
    /// `ancestors[v]` is a bitset over vertices (including `v` itself).
    ancestors: Vec<Bitset>,
    /// Longest-path depth from any source vertex.
    depth: Vec<u32>,
}

#[derive(Clone)]
struct Bitset {
    words: Vec<u64>,
}

impl Bitset {
    fn new(n: usize) -> Self {
        Bitset {
            words: vec![0; n.div_ceil(64)],
        }
    }
    #[inline]
    fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }
    #[inline]
    fn get(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }
    fn union_with(&mut self, other: &Bitset) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }
    /// Iterate over indices present in both bitsets.
    fn intersection<'a>(&'a self, other: &'a Bitset) -> impl Iterator<Item = usize> + 'a {
        self.words
            .iter()
            .zip(&other.words)
            .enumerate()
            .flat_map(|(wi, (a, b))| {
                let mut bits = a & b;
                std::iter::from_fn(move || {
                    if bits == 0 {
                        None
                    } else {
                        let t = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        Some(wi * 64 + t)
                    }
                })
            })
    }
}

impl LcaIndex {
    /// Build the index over edges accepted by `follow`. The subgraph must
    /// be acyclic; returns `None` if it is not.
    pub fn build(g: &Pag, follow: impl Fn(EdgeId) -> bool + Copy) -> Option<Self> {
        let n = g.num_vertices();
        let order = topo_sort_filtered(g, follow).ok()?;
        let mut ancestors: Vec<Bitset> = (0..n).map(|_| Bitset::new(n)).collect();
        let mut depth = vec![0u32; n];
        for &v in &order {
            // Every vertex is its own ancestor (matches the paper's "has
            // both v and w as descendants" with reflexive descent, so that
            // causal analysis can report one bug vertex as the ancestor of
            // another).
            let vi = v.index();
            ancestors[vi].set(vi);
            for &e in g.in_edges(v) {
                if !follow(e) {
                    continue;
                }
                let u = g.edge(e).src;
                let (a_u, a_v) = borrow_two(&mut ancestors, u.index(), vi);
                a_v.union_with(a_u);
                depth[vi] = depth[vi].max(depth[u.index()] + 1);
            }
        }
        Some(LcaIndex { ancestors, depth })
    }

    /// True if `a` is an ancestor of `d` (reflexive).
    pub fn is_ancestor(&self, a: VertexId, d: VertexId) -> bool {
        self.ancestors[d.index()].get(a.index())
    }

    /// The deepest vertex that is an ancestor of both `v` and `w`
    /// (reflexive), or `None` if they share no ancestor.
    pub fn lca(&self, v: VertexId, w: VertexId) -> Option<VertexId> {
        let mut best: Option<(u32, VertexId)> = None;
        for i in self.ancestors[v.index()].intersection(&self.ancestors[w.index()]) {
            let cand = VertexId(i as u32);
            let d = self.depth[i];
            match best {
                Some((bd, _)) if bd >= d => {}
                _ => best = Some((d, cand)),
            }
        }
        best.map(|(_, v)| v)
    }
}

/// Split-borrow two distinct indices of a slice.
fn borrow_two<T>(v: &mut [T], i: usize, j: usize) -> (&T, &mut T) {
    debug_assert_ne!(i, j);
    if i < j {
        let (a, b) = v.split_at_mut(j);
        (&a[i], &mut b[0])
    } else {
        let (a, b) = v.split_at_mut(i);
        (&b[0] as &T, &mut a[j])
    }
}

/// Memory-frugal LCA for large graphs (e.g. parallel views with millions
/// of vertices, where the bitset index would need O(V²) bits).
///
/// This is the paper's `pflow.lowest_common_ancestor(v1, v2)` low-level
/// API (Listing 5): the returned vertex is the detected lowest common
/// ancestor, and the returned edge sets describe how the bug propagates
/// from it.
///
/// Performs backward BFS from both query vertices over edges accepted by
/// `follow`, intersects the reached ancestor sets, and picks the common
/// ancestor with the greatest backward-BFS depth-sum (a "deepest common
/// ancestor" in the causal-past sense). Returns the ancestor and one edge
/// path from it to each query vertex.
pub fn lca_bfs(
    g: &Pag,
    v: VertexId,
    w: VertexId,
    follow: impl Fn(EdgeId) -> bool + Copy,
) -> Option<(VertexId, Vec<EdgeId>, Vec<EdgeId>)> {
    let reach_v = backward_reach(g, v, follow);
    let reach_w = backward_reach(g, w, follow);
    // The deepest common ancestor is the one closest to both descendants:
    // minimal combined backward distance. Ties break on vertex id for
    // determinism.
    let mut best: Option<(u32, VertexId)> = None;
    for (&cand, &(dv, _)) in &reach_v {
        if let Some(&(dw, _)) = reach_w.get(&cand) {
            let key = dv + dw;
            match best {
                None => best = Some((key, cand)),
                Some((bk, bc)) if key < bk || (key == bk && cand < bc) => best = Some((key, cand)),
                _ => {}
            }
        }
    }
    let (_, anc) = best?;
    let pv = walk_back(g, &reach_v, v, anc)?;
    let pw = walk_back(g, &reach_w, w, anc)?;
    Some((anc, pv, pw))
}

/// Backward BFS: vertex → (distance from start, parent edge toward start).
fn backward_reach(
    g: &Pag,
    start: VertexId,
    follow: impl Fn(EdgeId) -> bool,
) -> std::collections::HashMap<VertexId, (u32, Option<EdgeId>)> {
    let mut out = std::collections::HashMap::new();
    out.insert(start, (0u32, None));
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        let (du, _) = out[&u];
        for &e in g.in_edges(u) {
            if !follow(e) {
                continue;
            }
            let p = g.edge(e).src;
            if let std::collections::hash_map::Entry::Vacant(ent) = out.entry(p) {
                ent.insert((du + 1, Some(e)));
                queue.push_back(p);
            }
        }
    }
    out
}

/// Reconstruct the edge path ancestor → descendant from a backward-BFS map.
fn walk_back(
    g: &Pag,
    reach: &std::collections::HashMap<VertexId, (u32, Option<EdgeId>)>,
    _descendant: VertexId,
    ancestor: VertexId,
) -> Option<Vec<EdgeId>> {
    // reach maps ancestors of `descendant` with parent edges pointing
    // toward the descendant; walk from the ancestor following them.
    let mut path = Vec::new();
    let mut cur = ancestor;
    loop {
        let (_, pe) = *reach.get(&cur)?;
        match pe {
            None => break, // arrived at the descendant
            Some(e) => {
                path.push(e);
                cur = g.edge(e).dst;
            }
        }
    }
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pag::{EdgeLabel, VertexLabel, ViewKind};

    /// Tree:        0
    ///            /   \
    ///           1     2
    ///          / \     \
    ///         3   4     5
    fn tree() -> Pag {
        let mut g = Pag::new(ViewKind::TopDown, "tree");
        for i in 0..6 {
            g.add_vertex(VertexLabel::Compute, format!("n{i}").as_str());
        }
        for (a, b) in [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)] {
            g.add_edge(VertexId(a), VertexId(b), EdgeLabel::IntraProc);
        }
        g
    }

    fn lca(g: &Pag, v: u32, w: u32) -> Option<VertexId> {
        LcaIndex::build(g, |_| true)?.lca(VertexId(v), VertexId(w))
    }

    #[test]
    fn lca_in_tree() {
        let g = tree();
        assert_eq!(lca(&g, 3, 4), Some(VertexId(1)));
        assert_eq!(lca(&g, 3, 5), Some(VertexId(0)));
    }

    #[test]
    fn lca_is_reflexive_on_ancestry() {
        let g = tree();
        // 1 is an ancestor of 3, so LCA(1,3) = 1.
        assert_eq!(lca(&g, 1, 3), Some(VertexId(1)));
    }

    #[test]
    fn lca_on_dag_takes_deepest() {
        // DAG: 0 -> 1 -> 3, 0 -> 2 -> 3, 3 -> 4, 3 -> 5.
        // LCA(4,5) must be 3 (the deepest common ancestor), not 0.
        let mut g = Pag::new(ViewKind::TopDown, "dag");
        for i in 0..6 {
            g.add_vertex(VertexLabel::Compute, format!("n{i}").as_str());
        }
        for (a, b) in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5)] {
            g.add_edge(VertexId(a), VertexId(b), EdgeLabel::IntraProc);
        }
        assert_eq!(lca(&g, 4, 5), Some(VertexId(3)));
    }

    #[test]
    fn no_common_ancestor() {
        let mut g = Pag::new(ViewKind::TopDown, "forest");
        for i in 0..4 {
            g.add_vertex(VertexLabel::Compute, format!("n{i}").as_str());
        }
        g.add_edge(VertexId(0), VertexId(1), EdgeLabel::IntraProc);
        g.add_edge(VertexId(2), VertexId(3), EdgeLabel::IntraProc);
        assert_eq!(lca(&g, 1, 3), None);
    }

    #[test]
    fn cyclic_graph_returns_none() {
        let mut g = Pag::new(ViewKind::TopDown, "cycle");
        let a = g.add_vertex(VertexLabel::Compute, "a");
        let b = g.add_vertex(VertexLabel::Compute, "b");
        g.add_edge(a, b, EdgeLabel::IntraProc);
        g.add_edge(b, a, EdgeLabel::IntraProc);
        assert!(LcaIndex::build(&g, |_| true).is_none());
    }

    #[test]
    fn index_answers_ancestry() {
        let g = tree();
        let idx = LcaIndex::build(&g, |_| true).unwrap();
        assert!(idx.is_ancestor(VertexId(0), VertexId(5)));
        assert!(idx.is_ancestor(VertexId(1), VertexId(4)));
        assert!(!idx.is_ancestor(VertexId(2), VertexId(4)));
        assert!(idx.is_ancestor(VertexId(3), VertexId(3)));
    }
}

#[cfg(test)]
mod bfs_tests {
    use super::*;
    use pag::{EdgeLabel, VertexLabel, ViewKind};

    fn graph(n: u32, edges: &[(u32, u32)]) -> Pag {
        let mut g = Pag::new(ViewKind::Parallel, "g");
        for i in 0..n {
            g.add_vertex(VertexLabel::Compute, format!("n{i}").as_str());
        }
        for &(a, b) in edges {
            g.add_edge(VertexId(a), VertexId(b), EdgeLabel::IntraProc);
        }
        g
    }

    #[test]
    fn bfs_lca_matches_index_lca_on_tree() {
        let g = graph(6, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)]);
        let (a, pv, pw) = lca_bfs(&g, VertexId(3), VertexId(4), |_| true).unwrap();
        assert_eq!(a, VertexId(1));
        assert_eq!(pv.len(), 1);
        assert_eq!(pw.len(), 1);
        let (a2, ..) = lca_bfs(&g, VertexId(3), VertexId(5), |_| true).unwrap();
        assert_eq!(a2, VertexId(0));
    }

    #[test]
    fn bfs_lca_reflexive_ancestry() {
        let g = graph(3, &[(0, 1), (1, 2)]);
        let (a, pv, pw) = lca_bfs(&g, VertexId(1), VertexId(2), |_| true).unwrap();
        assert_eq!(a, VertexId(1));
        assert!(pv.is_empty());
        assert_eq!(pw.len(), 1);
    }

    #[test]
    fn bfs_lca_two_flows_joined_by_cross_edge() {
        // Flow A: 0→1→2; flow B: 3→4→5; cross edge 1→4 (A's op delayed B).
        let g = graph(6, &[(0, 1), (1, 2), (3, 4), (4, 5), (1, 4)]);
        // Causal ancestor of (2 in flow A, 5 in flow B) is vertex 1.
        let (a, ..) = lca_bfs(&g, VertexId(2), VertexId(5), |_| true).unwrap();
        assert_eq!(a, VertexId(1));
        // No common ancestor of 0 and 3.
        assert!(lca_bfs(&g, VertexId(0), VertexId(3), |_| true).is_none());
    }

    #[test]
    fn bfs_lca_edge_filter() {
        let g = graph(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        // Exclude the 1→3 edge: paths to 3 must go through 2.
        let excluded = pag::EdgeId(2);
        let (a, _, pw) = lca_bfs(&g, VertexId(1), VertexId(3), |e| e != excluded).unwrap();
        assert_eq!(a, VertexId(0));
        assert_eq!(pw.len(), 2);
    }

    #[test]
    fn bfs_lca_paths_are_valid_edge_chains() {
        let g = graph(7, &[(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6)]);
        let (a, pv, pw) = lca_bfs(&g, VertexId(3), VertexId(6), |_| true).unwrap();
        assert_eq!(a, VertexId(0));
        // pv: 0→1→2→3, pw: 0→4→5→6
        assert_eq!(pv.len(), 3);
        assert_eq!(pw.len(), 3);
        assert_eq!(g.edge(pv[0]).src, VertexId(0));
        assert_eq!(g.edge(pv[2]).dst, VertexId(3));
        assert_eq!(g.edge(pw[2]).dst, VertexId(6));
        for win in pv.windows(2).chain(pw.windows(2)) {
            assert_eq!(g.edge(win[0]).dst, g.edge(win[1]).src);
        }
    }
}
