//! Property-based tests of the graph algorithms on random DAGs and
//! random general graphs.

use proptest::prelude::*;

use pag::{EdgeLabel, Pag, VertexId, VertexLabel, ViewKind};

/// Random DAG: edges only go from lower to higher vertex index.
#[derive(Debug, Clone)]
struct DagSpec {
    n: usize,
    edges: Vec<(usize, usize)>,
    weights: Vec<f64>,
}

fn arb_dag() -> impl Strategy<Value = DagSpec> {
    (2usize..24).prop_flat_map(|n| {
        let edge = (0..n, 0..n).prop_filter_map("forward edges only", |(a, b)| {
            if a < b {
                Some((a, b))
            } else if b < a {
                Some((b, a))
            } else {
                None
            }
        });
        (
            Just(n),
            prop::collection::vec(edge, 0..n * 2),
            prop::collection::vec(0.1..100.0f64, n),
        )
            .prop_map(|(n, edges, weights)| DagSpec { n, edges, weights })
    })
}

fn build(spec: &DagSpec) -> Pag {
    let mut g = Pag::new(ViewKind::Parallel, "dag");
    for (i, &w) in spec.weights.iter().enumerate() {
        let v = g.add_vertex(VertexLabel::Compute, format!("n{i}").as_str());
        g.set_metric(v, pag::mkeys::TIME, w);
    }
    for &(a, b) in &spec.edges {
        g.add_edge(VertexId(a as u32), VertexId(b as u32), EdgeLabel::IntraProc);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Topological sort of a forward-edge DAG succeeds and respects all
    /// edges.
    #[test]
    fn topo_sort_respects_edges(spec in arb_dag()) {
        let g = build(&spec);
        let order = graphalgo::traverse::topo_sort_filtered(&g, |_| true).unwrap();
        prop_assert_eq!(order.len(), spec.n);
        let pos: std::collections::HashMap<VertexId, usize> =
            order.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        for &(a, b) in &spec.edges {
            prop_assert!(pos[&VertexId(a as u32)] < pos[&VertexId(b as u32)]);
        }
    }

    /// The critical path weight is an upper bound on the weight of every
    /// root-to-anywhere greedy path, and its own weight equals the sum of
    /// its vertex weights.
    #[test]
    fn critical_path_dominates(spec in arb_dag()) {
        let g = build(&spec);
        let w = |v: VertexId| g.vertex_time(v);
        let cp = graphalgo::critical_path(&g, |_| true, w).unwrap();
        let sum: f64 = cp.vertices.iter().map(|&v| w(v)).collect::<Vec<_>>().iter().sum();
        prop_assert!((cp.weight - sum).abs() < 1e-6);
        // Consecutive path vertices are actually connected.
        for (i, &e) in cp.edges.iter().enumerate() {
            prop_assert_eq!(g.edge(e).src, cp.vertices[i]);
            prop_assert_eq!(g.edge(e).dst, cp.vertices[i + 1]);
        }
        // Any single vertex is a path: weight must dominate the max vertex.
        let max_v = spec.weights.iter().cloned().fold(0.0, f64::max);
        prop_assert!(cp.weight >= max_v - 1e-9);
    }

    /// The bitset LCA index and the BFS LCA agree on existence, and both
    /// results are genuine common ancestors.
    #[test]
    fn lca_variants_agree(spec in arb_dag(), qa in 0usize..24, qb in 0usize..24) {
        let g = build(&spec);
        let a = VertexId((qa % spec.n) as u32);
        let b = VertexId((qb % spec.n) as u32);
        let idx = graphalgo::LcaIndex::build(&g, |_| true).unwrap();
        let via_index = idx.lca(a, b);
        let via_bfs = graphalgo::lca_bfs(&g, a, b, |_| true).map(|(v, _, _)| v);
        prop_assert_eq!(via_index.is_some(), via_bfs.is_some());
        for anc in [via_index, via_bfs].into_iter().flatten() {
            prop_assert!(idx.is_ancestor(anc, a), "{anc:?} !anc of {a:?}");
            prop_assert!(idx.is_ancestor(anc, b), "{anc:?} !anc of {b:?}");
        }
    }

    /// SCCs of a DAG are all singletons and partition the vertex set.
    #[test]
    fn dag_sccs_are_singletons(spec in arb_dag()) {
        let mut succ = vec![Vec::new(); spec.n];
        for &(a, b) in &spec.edges {
            succ[a].push(b);
        }
        let sccs = graphalgo::tarjan_sccs(&succ);
        prop_assert_eq!(sccs.len(), spec.n);
        prop_assert!(sccs.iter().all(|s| s.len() == 1));
    }

    /// Graph difference then adding back the right graph's metric restores
    /// the left graph's metric (additivity).
    #[test]
    fn diff_is_additive(
        left in prop::collection::vec(0.0..1e4f64, 1..16),
        right_delta in prop::collection::vec(-1e3f64..1e3, 1..16),
    ) {
        let n = left.len().min(right_delta.len());
        let mk = |times: &[f64]| {
            let mut g = Pag::new(ViewKind::TopDown, "d");
            for (i, &t) in times.iter().take(n).enumerate() {
                let v = g.add_vertex(VertexLabel::Compute, format!("n{i}").as_str());
                g.set_metric(v, pag::mkeys::TIME, t);
            }
            g
        };
        let right: Vec<f64> = left.iter().zip(&right_delta).map(|(l, d)| l + d).collect();
        let gl = mk(&left);
        let gr = mk(&right);
        let d = graphalgo::graph_difference_scaled(&gl, &gr, &[pag::keys::TIME], 1.0).unwrap();
        for i in 0..n {
            let v = VertexId(i as u32);
            let restored = d.vertex_time(v) + gr.vertex_time(v);
            prop_assert!((restored - gl.vertex_time(v)).abs() < 1e-6);
        }
    }
}
