//! Contention detection (§4.3.2-D): search the parallel view for
//! resource-contention patterns via subgraph matching around suspicious
//! vertices.

use graphalgo::subgraph::{match_subgraph, Embedding, Pattern, PatternVertex};
use pag::{EdgeId, EdgeLabel, VertexId};

use crate::error::PerFlowError;
use crate::pass::{config_fingerprint, expect_vertices, Pass, PassCx};
use crate::set::{EdgeSet, VertexSet};
use crate::value::Value;

/// Embeddings kept per anchor vertex by the Fig. 14 contention step, in
/// the paradigm graph and the interactive session alike.
pub(crate) const EMBEDDINGS_PER_ANCHOR: usize = 8;

/// The default contention pattern, in the spirit of Listing 6's candidate
/// subgraph (`A,B → C → D,E` over dependence edges): a pivot vertex that
/// *waited on* a holder and then *blocked* two later requesters — the
/// signature of serialized lock traffic.
pub fn default_contention_pattern() -> (Pattern, usize) {
    let mut p = Pattern::new();
    let a = p.add_vertex(PatternVertex::any());
    let c = p.add_vertex(PatternVertex::any()); // pivot (anchor)
    let d = p.add_vertex(PatternVertex::any());
    let e = p.add_vertex(PatternVertex::any());
    p.add_edge(a, c, Some(EdgeLabel::InterThread));
    p.add_edge(c, d, Some(EdgeLabel::InterThread));
    p.add_edge(c, e, Some(EdgeLabel::InterThread));
    (p, c)
}

/// Search for contention embeddings around each input vertex. Returns the
/// matched vertices (scored by how many embeddings they participate in),
/// the matched edges, and the raw embeddings.
pub fn contention(
    set: &VertexSet,
    pattern: Option<(Pattern, usize)>,
    max_per_anchor: usize,
) -> (VertexSet, EdgeSet, Vec<Embedding>) {
    let (pattern, anchor_idx) = pattern.unwrap_or_else(default_contention_pattern);
    let pag = set.graph.pag();
    let mut vertices = VertexSet::new(set.graph.clone(), Vec::new());
    let mut edges: Vec<EdgeId> = Vec::new();
    let mut seen_edges = std::collections::HashSet::new();
    let mut embeddings = Vec::new();
    for &v in &set.ids {
        let embs = match_subgraph(pag, &pattern, Some((anchor_idx, v)), max_per_anchor);
        for emb in embs {
            for &gv in &emb.mapping {
                if !vertices.scores.contains_key(&gv) {
                    vertices.ids.push(gv);
                }
                *vertices.scores.entry(gv).or_insert(0.0) += 1.0;
            }
            for pe in &pattern.edges {
                if let Some(e) = find_edge(pag, emb.mapping[pe.src], emb.mapping[pe.dst], pe.label)
                {
                    if seen_edges.insert(e) {
                        edges.push(e);
                    }
                }
            }
            embeddings.push(emb);
        }
    }
    (vertices, EdgeSet::new(set.graph.clone(), edges), embeddings)
}

fn find_edge(
    pag: &pag::Pag,
    src: VertexId,
    dst: VertexId,
    label: Option<EdgeLabel>,
) -> Option<EdgeId> {
    pag.out_edges(src).iter().copied().find(|&e| {
        let ed = pag.edge(e);
        ed.dst == dst && label.is_none_or(|l| ed.label == l)
    })
}

/// Pass wrapper: suspicious set → (matched vertices, matched edges) of
/// the [`default_contention_pattern`].
pub struct ContentionPass {
    /// Embedding cap per anchor vertex.
    pub max_per_anchor: usize,
}

impl Pass for ContentionPass {
    fn name(&self) -> &str {
        "contention_detection"
    }
    fn arity(&self) -> usize {
        1
    }
    fn run(&self, inputs: &[Value], _cx: &mut PassCx) -> Result<Vec<Value>, PerFlowError> {
        let set = expect_vertices(self, inputs, 0)?;
        let (v, e, _) = contention(set, None, self.max_per_anchor);
        Ok(vec![v.into(), e.into()])
    }
    fn fingerprint(&self) -> Option<u64> {
        config_fingerprint(&[self.name()], &[self.max_per_anchor as u64])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphref::GraphRef;
    use pag::{CallKind, Pag, VertexLabel, ViewKind};
    use std::sync::Arc;

    /// Lock wait chain: t0 → t1 → {t2, t3} (t1 is the pivot).
    fn lock_chain() -> GraphRef {
        let mut g = Pag::new(ViewKind::TopDown, "locks");
        let v: Vec<VertexId> = (0..5)
            .map(|i| {
                g.add_vertex(
                    VertexLabel::Call(CallKind::Lock),
                    format!("allocate@{i}").as_str(),
                )
            })
            .collect();
        g.add_edge(v[0], v[1], EdgeLabel::InterThread);
        g.add_edge(v[1], v[2], EdgeLabel::InterThread);
        g.add_edge(v[1], v[3], EdgeLabel::InterThread);
        // Unrelated intra edge that must not satisfy the pattern.
        g.add_edge(v[4], v[1], EdgeLabel::IntraProc);
        GraphRef::Detached(Arc::new(g))
    }

    #[test]
    fn detects_pivot_embedding() {
        let g = lock_chain();
        let anchors = VertexSet::new(g.clone(), vec![VertexId(1)]);
        let (v, e, embs) = contention(&anchors, None, 0);
        // Two embeddings (D/E swap), 4 distinct vertices, 3 edges.
        assert_eq!(embs.len(), 2);
        assert_eq!(v.len(), 4);
        assert_eq!(e.len(), 3);
        // Pivot participates in both embeddings.
        assert_eq!(v.score(VertexId(1)), 2.0);
    }

    #[test]
    fn no_embedding_around_leaf() {
        let g = lock_chain();
        let anchors = VertexSet::new(g.clone(), vec![VertexId(2)]);
        let (v, e, embs) = contention(&anchors, None, 0);
        assert!(embs.is_empty());
        assert!(v.is_empty());
        assert!(e.is_empty());
    }

    #[test]
    fn per_anchor_cap_respected() {
        let g = lock_chain();
        let anchors = VertexSet::new(g.clone(), vec![VertexId(1)]);
        let (_, _, embs) = contention(&anchors, None, 1);
        assert_eq!(embs.len(), 1);
    }

    #[test]
    fn custom_pattern() {
        let g = lock_chain();
        // Simple pattern: any → any over inter-thread, anchored at src.
        let mut p = Pattern::new();
        let x = p.add_vertex(PatternVertex::any());
        let y = p.add_vertex(PatternVertex::any());
        p.add_edge(x, y, Some(EdgeLabel::InterThread));
        let anchors = VertexSet::new(g.clone(), vec![VertexId(0)]);
        let (v, _, embs) = contention(&anchors, Some((p, 0)), 0);
        assert_eq!(embs.len(), 1);
        assert_eq!(v.len(), 2);
    }
}
