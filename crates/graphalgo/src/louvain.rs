//! Louvain community detection.
//!
//! Listed among PerFlow's graph-algorithm APIs (§4.3.1: "breadth-first
//! search, subgraph matching, and community detection, etc."). Communities
//! on a parallel view group flows that interact tightly (e.g. the process
//! grid neighborhoods of a stencil code). It is also the algorithm the
//! Vite case study's *target application* implements, so the workload model
//! and the analysis share semantics.
//!
//! The implementation is the classic two-phase Louvain: greedy local moving
//! to maximize modularity, then graph aggregation, repeated until the
//! modularity gain falls below a threshold. Directed PAG edges are
//! projected onto an undirected weighted graph first.

use pag::{EdgeId, Pag, VertexId};

/// Result of community detection.
#[derive(Debug, Clone)]
pub struct Communities {
    /// `assignment[v]` = community id of vertex `v` (ids are dense, 0-based).
    pub assignment: Vec<u32>,
    /// Number of communities.
    pub count: usize,
    /// Final modularity of the partition.
    pub modularity: f64,
}

impl Communities {
    /// Vertices of a given community.
    pub fn members(&self, community: u32) -> Vec<VertexId> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == community)
            .map(|(i, _)| VertexId(i as u32))
            .collect()
    }
}

/// Undirected weighted adjacency built from a PAG.
struct WGraph {
    /// adj[v] = (neighbor, weight); parallel edges merged.
    adj: Vec<Vec<(usize, f64)>>,
    /// self-loop weight per vertex.
    self_loops: Vec<f64>,
    total_weight: f64, // m = sum of all edge weights (undirected)
}

impl WGraph {
    fn from_pag(g: &Pag, edge_weight: impl Fn(EdgeId) -> f64) -> Self {
        let n = g.num_vertices();
        let mut maps: Vec<std::collections::HashMap<usize, f64>> =
            vec![std::collections::HashMap::new(); n];
        let mut self_loops = vec![0.0; n];
        let mut total = 0.0;
        for e in g.edge_ids() {
            let ed = g.edge(e);
            let w = edge_weight(e);
            if w <= 0.0 {
                continue;
            }
            total += w;
            let (a, b) = (ed.src.index(), ed.dst.index());
            if a == b {
                self_loops[a] += w;
            } else {
                *maps[a].entry(b).or_insert(0.0) += w;
                *maps[b].entry(a).or_insert(0.0) += w;
            }
        }
        let adj = maps
            .into_iter()
            .map(|m| {
                let mut v: Vec<(usize, f64)> = m.into_iter().collect();
                v.sort_by_key(|&(n, _)| n);
                v
            })
            .collect();
        WGraph {
            adj,
            self_loops,
            total_weight: total,
        }
    }

    fn n(&self) -> usize {
        self.adj.len()
    }

    fn weighted_degree(&self, v: usize) -> f64 {
        self.adj[v].iter().map(|&(_, w)| w).sum::<f64>() + 2.0 * self.self_loops[v]
    }
}

/// Run Louvain over the PAG's undirected projection with unit edge weights.
pub fn louvain(g: &Pag) -> Communities {
    louvain_weighted(g, |_| 1.0)
}

/// Run Louvain with a caller-supplied edge weight (e.g. communication
/// bytes or wait time).
pub fn louvain_weighted(g: &Pag, edge_weight: impl Fn(EdgeId) -> f64) -> Communities {
    let base = WGraph::from_pag(g, edge_weight);
    let n = base.n();
    if n == 0 {
        return Communities {
            assignment: Vec::new(),
            count: 0,
            modularity: 0.0,
        };
    }
    if base.total_weight == 0.0 {
        // No edges: every vertex is its own community.
        return Communities {
            assignment: (0..n as u32).collect(),
            count: n,
            modularity: 0.0,
        };
    }

    let membership = cluster(base);
    let relabel = compact(&membership);
    let assignment: Vec<u32> = membership.iter().map(|&m| relabel[&m] as u32).collect();
    let count = relabel.values().max().map(|&m| m + 1).unwrap_or(0);
    let q = modularity_of(&WGraph::from_pag(g, |_| 1.0), &membership);
    Communities {
        assignment,
        count,
        modularity: q,
    }
}

/// The multi-level Louvain loop on a prepared weighted graph; returns the
/// per-vertex membership (ids sparse, compacted by callers).
fn cluster(base: WGraph) -> Vec<usize> {
    let n = base.n();
    let mut membership: Vec<usize> = (0..n).collect();
    let mut level_graph = base;
    loop {
        let (local, improved) = one_level(&level_graph);
        // Re-map original membership through this level's assignment.
        let relabel = compact(&local);
        for m in membership.iter_mut() {
            *m = relabel[&local[*m]];
        }
        if !improved {
            break;
        }
        level_graph = aggregate(&level_graph, &local, &relabel);
        if level_graph.n() <= 1 {
            break;
        }
    }
    membership
}

/// One local-moving phase; returns per-vertex community and whether any
/// move improved modularity.
fn one_level(g: &WGraph) -> (Vec<usize>, bool) {
    let n = g.n();
    let m2 = 2.0 * g.total_weight;
    let mut community: Vec<usize> = (0..n).collect();
    let mut comm_tot: Vec<f64> = (0..n).map(|v| g.weighted_degree(v)).collect();
    let mut improved_any = false;
    let mut improved = true;
    let mut rounds = 0;
    while improved && rounds < 32 {
        improved = false;
        rounds += 1;
        for v in 0..n {
            let cv = community[v];
            let kv = g.weighted_degree(v);
            // Weights from v to each neighboring community. A BTreeMap so
            // the candidate scan below runs in ascending community-id
            // order: exact gain ties deterministically go to the lowest
            // id, which keeps `cluster` a pure function of the graph.
            let mut to_comm: std::collections::BTreeMap<usize, f64> =
                std::collections::BTreeMap::new();
            for &(w, wt) in &g.adj[v] {
                *to_comm.entry(community[w]).or_insert(0.0) += wt;
            }
            // Remove v from its community.
            comm_tot[cv] -= kv;
            let base_links = to_comm.get(&cv).copied().unwrap_or(0.0);
            let mut best_c = cv;
            let mut best_gain = base_links - comm_tot[cv] * kv / m2;
            for (&c, &links) in &to_comm {
                if c == cv {
                    continue;
                }
                let gain = links - comm_tot[c] * kv / m2;
                if gain > best_gain + 1e-12 {
                    best_gain = gain;
                    best_c = c;
                }
            }
            community[v] = best_c;
            comm_tot[best_c] += kv;
            if best_c != cv {
                improved = true;
                improved_any = true;
            }
        }
    }
    (community, improved_any)
}

/// Map sparse community ids to dense 0-based ids.
fn compact(assignment: &[usize]) -> std::collections::HashMap<usize, usize> {
    let mut map = std::collections::HashMap::new();
    for &c in assignment {
        let next = map.len();
        map.entry(c).or_insert(next);
    }
    map
}

/// Build the aggregated super-graph of communities.
fn aggregate(
    g: &WGraph,
    community: &[usize],
    relabel: &std::collections::HashMap<usize, usize>,
) -> WGraph {
    let k = relabel.len();
    let mut maps: Vec<std::collections::HashMap<usize, f64>> =
        vec![std::collections::HashMap::new(); k];
    let mut self_loops = vec![0.0; k];
    let mut total = 0.0;
    for v in 0..g.n() {
        let cv = relabel[&community[v]];
        self_loops[cv] += g.self_loops[v];
        total += g.self_loops[v];
        for &(w, wt) in &g.adj[v] {
            if w < v {
                continue; // count undirected edges once
            }
            total += wt;
            let cw = relabel[&community[w]];
            if cv == cw {
                self_loops[cv] += wt;
            } else {
                *maps[cv].entry(cw).or_insert(0.0) += wt;
                *maps[cw].entry(cv).or_insert(0.0) += wt;
            }
        }
    }
    let adj = maps
        .into_iter()
        .map(|m| {
            let mut v: Vec<(usize, f64)> = m.into_iter().collect();
            v.sort_by_key(|&(n, _)| n);
            v
        })
        .collect();
    WGraph {
        adj,
        self_loops,
        total_weight: total,
    }
}

/// Modularity Q of a partition on the unit-weight projection.
fn modularity_of(g: &WGraph, membership: &[usize]) -> f64 {
    let m2 = 2.0 * g.total_weight;
    if m2 == 0.0 {
        return 0.0;
    }
    let ncomm = membership.iter().max().map(|&m| m + 1).unwrap_or(0);
    let mut internal = vec![0.0; ncomm];
    let mut degree = vec![0.0; ncomm];
    for v in 0..g.n() {
        let cv = membership[v];
        degree[cv] += g.weighted_degree(v);
        internal[cv] += 2.0 * g.self_loops[v];
        for &(w, wt) in &g.adj[v] {
            if membership[w] == cv {
                internal[cv] += wt; // counted from both sides => ×1 here
            }
        }
    }
    (0..ncomm)
        .map(|c| internal[c] / m2 - (degree[c] / m2) * (degree[c] / m2))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pag::{EdgeLabel, VertexLabel, ViewKind};

    /// Two dense 4-cliques joined by a single edge.
    fn two_cliques() -> Pag {
        let mut g = Pag::new(ViewKind::Parallel, "cliques");
        for i in 0..8 {
            g.add_vertex(VertexLabel::Compute, format!("n{i}").as_str());
        }
        for base in [0u32, 4u32] {
            for i in base..base + 4 {
                for j in (i + 1)..base + 4 {
                    g.add_edge(VertexId(i), VertexId(j), EdgeLabel::IntraProc);
                }
            }
        }
        g.add_edge(VertexId(3), VertexId(4), EdgeLabel::InterThread);
        g
    }

    #[test]
    fn separates_cliques() {
        let g = two_cliques();
        let c = louvain(&g);
        assert_eq!(c.count, 2);
        for i in 0..4usize {
            assert_eq!(c.assignment[i], c.assignment[0]);
        }
        for i in 4..8usize {
            assert_eq!(c.assignment[i], c.assignment[4]);
        }
        assert_ne!(c.assignment[0], c.assignment[4]);
        assert!(c.modularity > 0.3, "modularity was {}", c.modularity);
    }

    #[test]
    fn members_listing() {
        let g = two_cliques();
        let c = louvain(&g);
        let m0 = c.members(c.assignment[0]);
        assert_eq!(m0.len(), 4);
        assert!(m0.contains(&VertexId(0)));
    }

    #[test]
    fn empty_graph() {
        let g = Pag::new(ViewKind::Parallel, "empty");
        let c = louvain(&g);
        assert_eq!(c.count, 0);
        assert!(c.assignment.is_empty());
    }

    #[test]
    fn edgeless_graph_is_all_singletons() {
        let mut g = Pag::new(ViewKind::Parallel, "iso");
        for i in 0..5 {
            g.add_vertex(VertexLabel::Compute, format!("n{i}").as_str());
        }
        let c = louvain(&g);
        assert_eq!(c.count, 5);
    }

    #[test]
    fn weighted_edges_dominate() {
        // Path 0-1-2-3 with a heavy middle edge: heavy pair ends together.
        let mut g = Pag::new(ViewKind::Parallel, "weights");
        for i in 0..4 {
            g.add_vertex(VertexLabel::Compute, format!("n{i}").as_str());
        }
        let e01 = g.add_edge(VertexId(0), VertexId(1), EdgeLabel::IntraProc);
        let e12 = g.add_edge(VertexId(1), VertexId(2), EdgeLabel::IntraProc);
        let e23 = g.add_edge(VertexId(2), VertexId(3), EdgeLabel::IntraProc);
        let weights = move |e: EdgeId| -> f64 {
            if e == e12 {
                10.0
            } else if e == e01 || e == e23 {
                1.0
            } else {
                0.0
            }
        };
        let c = louvain_weighted(&g, weights);
        assert_eq!(c.assignment[1], c.assignment[2]);
    }

    #[test]
    fn ring_of_cliques_scales() {
        // 8 cliques of 5 vertices arranged in a ring: Louvain should find
        // roughly one community per clique.
        let mut g = Pag::new(ViewKind::Parallel, "ring");
        let k = 8;
        let s = 5;
        for i in 0..(k * s) {
            g.add_vertex(VertexLabel::Compute, format!("n{i}").as_str());
        }
        for c in 0..k {
            let base = (c * s) as u32;
            for i in base..base + s as u32 {
                for j in (i + 1)..base + s as u32 {
                    g.add_edge(VertexId(i), VertexId(j), EdgeLabel::IntraProc);
                }
            }
            let next = (((c + 1) % k) * s) as u32;
            g.add_edge(VertexId(base), VertexId(next), EdgeLabel::IntraProc);
        }
        let c = louvain(&g);
        assert!(
            c.count >= k / 2 && c.count <= k,
            "found {} communities",
            c.count
        );
        assert!(c.modularity > 0.5);
    }
}
