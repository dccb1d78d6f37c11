//! Subgraph matching (VF2-style backtracking).
//!
//! Contention detection "searches all embeddings of a subgraph query in a
//! large graph" to find resource-contention patterns on the parallel view
//! (§4.3.2-D). Patterns constrain vertex labels and names (glob) and edge
//! labels; matching can be *anchored* at a given graph vertex so a pass can
//! search "around the vertices of the input set".

use pag::{graph::glob_match, EdgeLabel, Pag, VertexId, VertexLabel};

/// A pattern vertex: every constraint is optional (None = wildcard).
#[derive(Debug, Clone, Default)]
pub struct PatternVertex {
    /// Required vertex label.
    pub label: Option<VertexLabel>,
    /// Required name glob (e.g. `allocate*`).
    pub name: Option<String>,
}

impl PatternVertex {
    /// Wildcard pattern vertex.
    pub fn any() -> Self {
        Self::default()
    }

    fn matches(&self, g: &Pag, v: VertexId) -> bool {
        if let Some(l) = self.label {
            if g.vertex(v).label != l {
                return false;
            }
        }
        if let Some(p) = &self.name {
            if !glob_match(p, &g.vertex(v).name) {
                return false;
            }
        }
        true
    }
}

/// A pattern edge between two pattern vertices (by index), optionally
/// constrained to an edge label.
#[derive(Debug, Clone)]
pub struct PatternEdge {
    /// Index of the source pattern vertex.
    pub src: usize,
    /// Index of the destination pattern vertex.
    pub dst: usize,
    /// Required edge label (`None` = any).
    pub label: Option<EdgeLabel>,
}

/// A query pattern: small directed graph with constraints.
#[derive(Debug, Clone, Default)]
pub struct Pattern {
    /// Pattern vertices; embedding maps each to a distinct graph vertex.
    pub vertices: Vec<PatternVertex>,
    /// Pattern edges that must all be present in the embedding.
    pub edges: Vec<PatternEdge>,
}

impl Pattern {
    /// Empty pattern.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a vertex; returns its pattern index.
    pub fn add_vertex(&mut self, v: PatternVertex) -> usize {
        self.vertices.push(v);
        self.vertices.len() - 1
    }

    /// Add an edge between pattern vertices.
    pub fn add_edge(&mut self, src: usize, dst: usize, label: Option<EdgeLabel>) {
        assert!(src < self.vertices.len() && dst < self.vertices.len());
        self.edges.push(PatternEdge { src, dst, label });
    }
}

/// One embedding: `mapping[i]` is the graph vertex matched to pattern
/// vertex `i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Embedding {
    /// Pattern-index → graph-vertex assignment.
    pub mapping: Vec<VertexId>,
}

/// Find embeddings of `pattern` in `g`.
///
/// * `anchor`: optionally require pattern vertex `anchor.0` to map to graph
///   vertex `anchor.1` (used to search around a suspicious vertex).
/// * `max_embeddings`: stop after this many embeddings (0 = unlimited).
pub fn match_subgraph(
    g: &Pag,
    pattern: &Pattern,
    anchor: Option<(usize, VertexId)>,
    max_embeddings: usize,
) -> Vec<Embedding> {
    let k = pattern.vertices.len();
    if k == 0 {
        return Vec::new();
    }
    // Order pattern vertices: anchor first, then by connectivity to already
    // placed vertices (greedy), to keep the search space narrow.
    let order = plan_order(pattern, anchor.map(|(p, _)| p));

    let mut result = Vec::new();
    let mut assignment: Vec<Option<VertexId>> = vec![None; k];
    let mut used: std::collections::HashSet<VertexId> = std::collections::HashSet::new();
    search(
        g,
        pattern,
        &order,
        0,
        anchor,
        &mut assignment,
        &mut used,
        &mut result,
        max_embeddings,
    );
    result
}

fn plan_order(pattern: &Pattern, anchor: Option<usize>) -> Vec<usize> {
    let k = pattern.vertices.len();
    let mut order = Vec::with_capacity(k);
    let mut placed = vec![false; k];
    if let Some(a) = anchor {
        order.push(a);
        placed[a] = true;
    }
    while order.len() < k {
        // Prefer a vertex adjacent to an already placed one.
        let next = (0..k)
            .filter(|&i| !placed[i])
            .max_by_key(|&i| {
                pattern
                    .edges
                    .iter()
                    .filter(|e| (e.src == i && placed[e.dst]) || (e.dst == i && placed[e.src]))
                    .count()
            })
            .expect("unplaced vertex exists");
        order.push(next);
        placed[next] = true;
    }
    order
}

#[allow(clippy::too_many_arguments)]
fn search(
    g: &Pag,
    pattern: &Pattern,
    order: &[usize],
    depth: usize,
    anchor: Option<(usize, VertexId)>,
    assignment: &mut Vec<Option<VertexId>>,
    used: &mut std::collections::HashSet<VertexId>,
    result: &mut Vec<Embedding>,
    max_embeddings: usize,
) -> bool {
    if depth == order.len() {
        result.push(Embedding {
            mapping: assignment.iter().map(|a| a.unwrap()).collect(),
        });
        return max_embeddings != 0 && result.len() >= max_embeddings;
    }
    let pi = order[depth];
    let candidates = candidates_for(g, pattern, pi, anchor, assignment);
    for v in candidates {
        if used.contains(&v) || !pattern.vertices[pi].matches(g, v) {
            continue;
        }
        // Check all pattern edges between pi and already-assigned vertices.
        if !edges_consistent(g, pattern, pi, v, assignment) {
            continue;
        }
        assignment[pi] = Some(v);
        used.insert(v);
        let done = search(
            g,
            pattern,
            order,
            depth + 1,
            anchor,
            assignment,
            used,
            result,
            max_embeddings,
        );
        assignment[pi] = None;
        used.remove(&v);
        if done {
            return true;
        }
    }
    false
}

/// Candidate graph vertices for pattern vertex `pi`: the anchor if pinned,
/// neighbors of already-assigned adjacent pattern vertices if any,
/// otherwise all vertices.
fn candidates_for(
    g: &Pag,
    pattern: &Pattern,
    pi: usize,
    anchor: Option<(usize, VertexId)>,
    assignment: &[Option<VertexId>],
) -> Vec<VertexId> {
    if let Some((ap, av)) = anchor {
        if ap == pi {
            return vec![av];
        }
    }
    for e in &pattern.edges {
        if e.dst == pi {
            if let Some(u) = assignment[e.src] {
                return g.out_neighbors(u).collect();
            }
        }
        if e.src == pi {
            if let Some(u) = assignment[e.dst] {
                return g.in_neighbors(u).collect();
            }
        }
    }
    g.vertex_ids().collect()
}

fn edges_consistent(
    g: &Pag,
    pattern: &Pattern,
    pi: usize,
    v: VertexId,
    assignment: &[Option<VertexId>],
) -> bool {
    for e in &pattern.edges {
        if e.src == pi {
            if let Some(w) = assignment[e.dst] {
                if !has_edge(g, v, w, e.label) {
                    return false;
                }
            }
        } else if e.dst == pi {
            if let Some(u) = assignment[e.src] {
                if !has_edge(g, u, v, e.label) {
                    return false;
                }
            }
        }
    }
    true
}

fn has_edge(g: &Pag, src: VertexId, dst: VertexId, label: Option<EdgeLabel>) -> bool {
    g.out_edges(src).iter().any(|&e| {
        let ed = g.edge(e);
        ed.dst == dst && label.is_none_or(|l| ed.label == l)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pag::{CallKind, CommKind, ViewKind};

    /// The paper's Listing-6 candidate subgraph: A,B -> C -> D,E.
    fn fan_pattern() -> Pattern {
        let mut p = Pattern::new();
        let a = p.add_vertex(PatternVertex::any());
        let b = p.add_vertex(PatternVertex::any());
        let c = p.add_vertex(PatternVertex::any());
        let d = p.add_vertex(PatternVertex::any());
        let e = p.add_vertex(PatternVertex::any());
        p.add_edge(a, c, None);
        p.add_edge(b, c, None);
        p.add_edge(c, d, None);
        p.add_edge(c, e, None);
        p
    }

    fn host() -> Pag {
        // Two fan structures sharing nothing + noise.
        let mut g = Pag::new(ViewKind::Parallel, "host");
        for i in 0..12 {
            g.add_vertex(VertexLabel::Compute, format!("n{i}").as_str());
        }
        for (a, b) in [(0, 2), (1, 2), (2, 3), (2, 4)] {
            g.add_edge(VertexId(a), VertexId(b), EdgeLabel::InterThread);
        }
        for (a, b) in [(5, 7), (6, 7), (7, 8), (7, 9)] {
            g.add_edge(VertexId(a), VertexId(b), EdgeLabel::InterThread);
        }
        g.add_edge(VertexId(10), VertexId(11), EdgeLabel::IntraProc);
        g
    }

    #[test]
    fn finds_both_fans() {
        let g = host();
        let p = fan_pattern();
        let embeddings = match_subgraph(&g, &p, None, 0);
        // Each fan matches 4 ways (A/B swap × D/E swap).
        assert_eq!(embeddings.len(), 8);
        // All embeddings map C (pattern index 2) to vertex 2 or 7.
        for emb in &embeddings {
            assert!(emb.mapping[2] == VertexId(2) || emb.mapping[2] == VertexId(7));
        }
    }

    #[test]
    fn anchored_search_restricts() {
        let g = host();
        let p = fan_pattern();
        let embeddings = match_subgraph(&g, &p, Some((2, VertexId(7))), 0);
        assert_eq!(embeddings.len(), 4);
        assert!(embeddings.iter().all(|e| e.mapping[2] == VertexId(7)));
    }

    #[test]
    fn anchor_mismatch_gives_nothing() {
        let g = host();
        let p = fan_pattern();
        // Vertex 10 has no fan around it.
        assert!(match_subgraph(&g, &p, Some((2, VertexId(10))), 0).is_empty());
    }

    #[test]
    fn max_embeddings_truncates() {
        let g = host();
        let p = fan_pattern();
        assert_eq!(match_subgraph(&g, &p, None, 3).len(), 3);
    }

    #[test]
    fn label_constraints_filter() {
        let mut g = Pag::new(ViewKind::Parallel, "labels");
        let a = g.add_vertex(VertexLabel::Call(CallKind::Lock), "lock");
        let b = g.add_vertex(VertexLabel::Compute, "work");
        let c = g.add_vertex(VertexLabel::Call(CallKind::Lock), "lock");
        g.add_edge(a, b, EdgeLabel::IntraProc);
        g.add_edge(c, b, EdgeLabel::InterThread);

        let mut p = Pattern::new();
        let x = p.add_vertex(PatternVertex {
            label: Some(VertexLabel::Call(CallKind::Lock)),
            name: None,
        });
        let y = p.add_vertex(PatternVertex {
            label: Some(VertexLabel::Compute),
            name: None,
        });
        p.add_edge(x, y, Some(EdgeLabel::InterThread));

        let embeddings = match_subgraph(&g, &p, None, 0);
        assert_eq!(embeddings.len(), 1);
        assert_eq!(embeddings[0].mapping, vec![c, b]);
    }

    fn glob(name: &str) -> PatternVertex {
        PatternVertex {
            label: None,
            name: Some(name.into()),
        }
    }

    #[test]
    fn name_glob_constraints() {
        let mut g = Pag::new(ViewKind::Parallel, "names");
        let a = g.add_vertex(VertexLabel::Call(CallKind::Comm), "MPI_Send");
        let b = g.add_vertex(VertexLabel::Call(CallKind::Comm), "MPI_Recv");
        g.add_edge(a, b, EdgeLabel::InterProcess(CommKind::P2pSync));

        let mut p = Pattern::new();
        let x = p.add_vertex(glob("MPI_S*"));
        let y = p.add_vertex(glob("MPI_R*"));
        p.add_edge(x, y, None);
        assert_eq!(match_subgraph(&g, &p, None, 0).len(), 1);

        let mut p2 = Pattern::new();
        let x2 = p2.add_vertex(glob("MPI_R*"));
        let y2 = p2.add_vertex(glob("MPI_S*"));
        p2.add_edge(x2, y2, None); // wrong direction
        assert!(match_subgraph(&g, &p2, None, 0).is_empty());
    }

    #[test]
    fn injectivity_enforced() {
        // Self-loop graph: pattern with two vertices must not map both to
        // the same graph vertex.
        let mut g = Pag::new(ViewKind::Parallel, "loop");
        let a = g.add_vertex(VertexLabel::Compute, "a");
        g.add_edge(a, a, EdgeLabel::IntraProc);
        let mut p = Pattern::new();
        let x = p.add_vertex(PatternVertex::any());
        let y = p.add_vertex(PatternVertex::any());
        p.add_edge(x, y, None);
        assert!(match_subgraph(&g, &p, None, 0).is_empty());
    }

    #[test]
    fn empty_pattern_matches_nothing() {
        let g = host();
        assert!(match_subgraph(&g, &Pattern::new(), None, 0).is_empty());
    }
}
