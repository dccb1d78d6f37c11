//! Causal analysis (§4.3.2-C): find the vertices that *cause* a set of
//! detected performance bugs by computing lowest common ancestors on the
//! parallel view, where ancestry = reachability through flow order and
//! cross-flow dependence edges.

use std::collections::HashSet;

use pag::{CallKind, EdgeId, VertexId, VertexLabel};

use crate::error::PerFlowError;
use crate::pass::{config_fingerprint, expect_vertices, Pass, PassCx};
use crate::set::{EdgeSet, VertexSet};
use crate::value::Value;

/// Configuration of the causal-analysis pass ("specific restrictions" in
/// the paper's terms).
#[derive(Debug, Clone)]
pub struct CausalConfig {
    /// Only report ancestors that are members of the input set (the
    /// literal Listing-5 behaviour). Default: report all ancestors.
    pub restrict_to_input: bool,
    /// When the detected ancestor is itself a communication/wait vertex,
    /// walk intra-flow predecessors to the nearest compute/loop vertex —
    /// the computation that made the critical process late.
    pub resolve_to_compute: bool,
    /// Maximum number of descendant pairs to examine (guards quadratic
    /// blowup on huge input sets).
    pub max_pairs: usize,
}

impl Default for CausalConfig {
    fn default() -> Self {
        CausalConfig {
            restrict_to_input: false,
            resolve_to_compute: true,
            max_pairs: 4096,
        }
    }
}

/// Run causal analysis on a set of bug vertices (parallel view).
/// Returns the cause vertices and the propagation-path edges.
pub fn causal(set: &VertexSet, cfg: &CausalConfig) -> (VertexSet, EdgeSet) {
    let pag = set.graph.pag();
    let mut causes = VertexSet::new(set.graph.clone(), Vec::new());
    let mut path_edges: Vec<EdgeId> = Vec::new();
    let mut scanned: HashSet<VertexId> = Default::default();
    let mut pairs = 0usize;

    if set.ids.len() == 1 {
        // A singleton is its own cause (fixpoint for iterated causal
        // analysis, Fig. 11).
        causes.ids.push(set.ids[0]);
        return (causes, EdgeSet::new(set.graph.clone(), path_edges));
    }

    let input: Option<HashSet<VertexId>> = cfg
        .restrict_to_input
        .then(|| set.ids.iter().copied().collect());
    'outer: for (i, &v1) in set.ids.iter().enumerate() {
        if scanned.contains(&v1) {
            continue;
        }
        for &v2 in set.ids.iter().skip(i + 1) {
            if scanned.contains(&v2) {
                continue;
            }
            pairs += 1;
            if pairs > cfg.max_pairs {
                break 'outer;
            }
            let Some((anc, p1, p2)) = graphalgo::lca_bfs(pag, v1, v2, |_| true) else {
                continue;
            };
            scanned.insert(v1);
            scanned.insert(v2);
            let resolved = if cfg.resolve_to_compute {
                resolve_to_compute(pag, anc)
            } else {
                anc
            };
            if input.as_ref().is_none_or(|ids| ids.contains(&resolved)) {
                if !causes.scores.contains_key(&resolved) {
                    causes.ids.push(resolved);
                }
                *causes.scores.entry(resolved).or_insert(0.0) += 1.0;
                path_edges.extend(p1);
                path_edges.extend(p2);
            }
            break; // v1 is paired: every later v2 would be skipped
        }
    }
    path_edges.sort();
    path_edges.dedup();
    (causes, EdgeSet::new(set.graph.clone(), path_edges))
}

/// Resolve a communication/wait ancestor to the computation that made
/// its process late: walk the intra-flow (sequence) predecessors and
/// return the *heaviest* work vertex (compute kernel or lock site) seen;
/// if none carries time, fall back to the nearest non-communication
/// vertex, then to the ancestor itself.
fn resolve_to_compute(pag: &pag::Pag, v: VertexId) -> VertexId {
    let is_comm = |v: VertexId| matches!(pag.vertex(v).label, VertexLabel::Call(CallKind::Comm));
    let is_work = |v: VertexId| {
        matches!(
            pag.vertex(v).label,
            VertexLabel::Compute | VertexLabel::Call(CallKind::Lock)
        )
    };
    if !is_comm(v) {
        return v;
    }
    let mut cur = v;
    let mut best_work: Option<(VertexId, f64)> = None;
    let mut first_noncomm: Option<VertexId> = None;
    for _ in 0..4096 {
        // Follow the intra-flow (sequence) predecessor.
        let prev = pag
            .in_edges(cur)
            .iter()
            .map(|&e| pag.edge(e))
            .find(|ed| ed.label == pag::EdgeLabel::IntraProc)
            .map(|ed| ed.src);
        match prev {
            Some(p) => {
                let t = pag.vertex_time(p);
                if is_work(p) && t > 0.0 && best_work.is_none_or(|(_, bt)| t > bt) {
                    best_work = Some((p, t));
                }
                if first_noncomm.is_none() && !is_comm(p) && t > 0.0 {
                    first_noncomm = Some(p);
                }
                cur = p;
            }
            None => break,
        }
    }
    best_work.map(|(p, _)| p).or(first_noncomm).unwrap_or(v)
}

/// Pass wrapper: bug set → (cause set, propagation edges).
#[derive(Default)]
pub struct CausalPass {
    /// Configuration.
    pub cfg: CausalConfig,
}

impl Pass for CausalPass {
    fn name(&self) -> &str {
        "causal_analysis"
    }
    fn arity(&self) -> usize {
        1
    }
    fn run(&self, inputs: &[Value], _cx: &mut PassCx) -> Result<Vec<Value>, PerFlowError> {
        let set = expect_vertices(self, inputs, 0)?;
        let (causes, edges) = causal(set, &self.cfg);
        Ok(vec![causes.into(), edges.into()])
    }
    fn fingerprint(&self) -> Option<u64> {
        config_fingerprint(
            &[self.name()],
            &[
                self.cfg.restrict_to_input as u64,
                self.cfg.resolve_to_compute as u64,
                self.cfg.max_pairs as u64,
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphref::GraphRef;
    use pag::{mkeys, EdgeLabel, Pag, ViewKind};
    use std::sync::Arc;

    /// Two flows; a heavy loop in flow 0 delays comm vertices in both.
    ///
    /// flow0: f0_start → loop(heavy) → send0
    /// flow1: f1_start → wait1
    /// cross: send0 → wait1
    fn two_flow_graph() -> GraphRef {
        let mut g = Pag::new(ViewKind::TopDown, "causal"); // detached view ok
        let f0 = g.add_vertex(VertexLabel::Function, "flow0");
        let lp = g.add_vertex(VertexLabel::Loop, "loop_1.1");
        let s0 = g.add_vertex(VertexLabel::Call(CallKind::Comm), "MPI_Send");
        let f1 = g.add_vertex(VertexLabel::Function, "flow1");
        let w1 = g.add_vertex(VertexLabel::Call(CallKind::Comm), "MPI_Wait");
        g.add_edge(f0, lp, EdgeLabel::IntraProc);
        g.add_edge(lp, s0, EdgeLabel::IntraProc);
        g.add_edge(f1, w1, EdgeLabel::IntraProc);
        g.add_edge(s0, w1, EdgeLabel::InterProcess(pag::CommKind::P2pAsync));
        g.set_metric(lp, mkeys::TIME, 100.0);
        GraphRef::Detached(Arc::new(g))
    }

    #[test]
    fn lca_of_send_and_wait_resolves_to_loop() {
        let g = two_flow_graph();
        let bugs = VertexSet::new(g.clone(), vec![VertexId(2), VertexId(4)]); // send, wait
        let (causes, edges) = causal(&bugs, &CausalConfig::default());
        assert_eq!(causes.len(), 1);
        assert_eq!(g.pag().vertex_name(causes.ids[0]), "loop_1.1");
        assert!(!edges.is_empty());
    }

    #[test]
    fn without_resolution_ancestor_is_send() {
        let g = two_flow_graph();
        let bugs = VertexSet::new(g.clone(), vec![VertexId(2), VertexId(4)]);
        let cfg = CausalConfig {
            resolve_to_compute: false,
            ..CausalConfig::default()
        };
        let (causes, _) = causal(&bugs, &cfg);
        assert_eq!(g.pag().vertex_name(causes.ids[0]), "MPI_Send");
    }

    #[test]
    fn restrict_to_input_filters() {
        let g = two_flow_graph();
        let bugs = VertexSet::new(g.clone(), vec![VertexId(2), VertexId(4)]);
        let cfg = CausalConfig {
            restrict_to_input: true,
            resolve_to_compute: false,
            ..CausalConfig::default()
        };
        let (causes, _) = causal(&bugs, &cfg);
        // MPI_Send is in the input set and is the LCA → kept.
        assert_eq!(causes.len(), 1);
        assert_eq!(g.pag().vertex_name(causes.ids[0]), "MPI_Send");
    }

    #[test]
    fn singleton_is_fixpoint() {
        let g = two_flow_graph();
        let bugs = VertexSet::new(g.clone(), vec![VertexId(1)]);
        let (causes, edges) = causal(&bugs, &CausalConfig::default());
        assert_eq!(causes.ids, vec![VertexId(1)]);
        assert!(edges.is_empty());
    }

    #[test]
    fn unrelated_vertices_produce_nothing() {
        let mut g = Pag::new(ViewKind::TopDown, "iso");
        let a = g.add_vertex(VertexLabel::Compute, "a");
        let b = g.add_vertex(VertexLabel::Compute, "b");
        let gr = GraphRef::Detached(Arc::new(g));
        let bugs = VertexSet::new(gr, vec![a, b]);
        let (causes, edges) = causal(&bugs, &CausalConfig::default());
        assert!(causes.is_empty());
        assert!(edges.is_empty());
    }
}
