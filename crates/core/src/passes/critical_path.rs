//! Critical-path identification: the heaviest chain of activities through
//! the parallel view (the *critical path* paradigm's core pass, §4.4).

use pag::{mkeys, CallKind, EdgeLabel, VertexLabel};

use crate::error::PerFlowError;
use crate::pass::{config_fingerprint, expect_vertices, Pass, PassCx};
use crate::set::{EdgeSet, VertexSet};
use crate::value::Value;

/// Edge filter that guarantees acyclicity on parallel views.
///
/// Aggregating per-instance dependence records onto per-vertex-pair edges
/// can create cycles (over different iterations the holder/latecomer role
/// alternates, e.g. `allreduce@p0 ⇄ allreduce@p1`). Structural edges are
/// always kept; cross-flow edges are kept only when they point *forward*
/// in program order (the top-down pre-order position of the source is
/// strictly smaller than the destination's), which breaks exactly the
/// alternating-role cycles while preserving the meaningful
/// "earlier snippet delayed a later one" dependences.
fn forward_only(pag: &pag::Pag) -> impl Fn(pag::EdgeId) -> bool + Copy + '_ {
    move |e: pag::EdgeId| {
        let ed = pag.edge(e);
        match ed.label {
            EdgeLabel::IntraProc | EdgeLabel::InterProc => true,
            EdgeLabel::InterThread | EdgeLabel::InterProcess(_) => {
                let pos = |v: pag::VertexId| {
                    pag.metric_i64(v, mkeys::TOPDOWN_VERTEX)
                        .unwrap_or(v.0 as i64)
                };
                pos(ed.src) < pos(ed.dst)
            }
        }
    }
}

/// The recorded `time` of a *leaf* activity (compute kernel,
/// communication call, lock site, external call); structural vertices
/// weigh nothing so inclusive times are not double-counted along a flow.
fn leaf_weight(pag: &pag::Pag, v: pag::VertexId) -> f64 {
    match pag.vertex(v).label {
        VertexLabel::Compute
        | VertexLabel::Call(CallKind::Comm)
        | VertexLabel::Call(CallKind::Lock)
        | VertexLabel::Call(CallKind::External) => pag.vertex_time(v),
        _ => 0.0,
    }
}

/// Compute the critical path over the graph a set lives on, weighing
/// each vertex by `leaf_weight`.
pub fn critical_path_analysis(set: &VertexSet) -> Result<(VertexSet, EdgeSet, f64), PerFlowError> {
    let pag = set.graph.pag();
    let weight = |v| leaf_weight(pag, v);
    let cp = graphalgo::critical_path(pag, |_| true, weight)
        .or_else(|| graphalgo::critical_path(pag, forward_only(pag), weight))
        .ok_or_else(|| {
            PerFlowError::Analysis("critical path requires an acyclic non-empty graph".into())
        })?;
    let mut vs = VertexSet::new(set.graph.clone(), cp.vertices.clone());
    for &v in &cp.vertices {
        vs.scores.insert(v, weight(v));
    }
    Ok((vs, EdgeSet::new(set.graph.clone(), cp.edges), cp.weight))
}

/// Pass wrapper: any set on the target graph → (path vertices, path
/// edges, total weight).
#[derive(Default)]
pub struct CriticalPathPass;

impl Pass for CriticalPathPass {
    fn name(&self) -> &str {
        "critical_path"
    }
    fn arity(&self) -> usize {
        1
    }
    fn run(&self, inputs: &[Value], _cx: &mut PassCx) -> Result<Vec<Value>, PerFlowError> {
        let set = expect_vertices(self, inputs, 0)?;
        let (v, e, w) = critical_path_analysis(set)?;
        Ok(vec![v.into(), e.into(), Value::Num(w)])
    }
    fn fingerprint(&self) -> Option<u64> {
        config_fingerprint(&[self.name()], &[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphref::GraphRef;
    use pag::{mkeys, EdgeLabel, Pag, VertexId, ViewKind};
    use std::sync::Arc;

    /// Two flows with a cross edge; flow1's kernel is heavier.
    fn flows() -> GraphRef {
        let mut g = Pag::new(ViewKind::TopDown, "cp");
        let f0 = g.add_vertex(VertexLabel::Function, "f0"); // structural
        let k0 = g.add_vertex(VertexLabel::Compute, "k0");
        let s0 = g.add_vertex(VertexLabel::Call(CallKind::Comm), "MPI_Send");
        let f1 = g.add_vertex(VertexLabel::Function, "f1");
        let k1 = g.add_vertex(VertexLabel::Compute, "k1");
        let w1 = g.add_vertex(VertexLabel::Call(CallKind::Comm), "MPI_Wait");
        g.add_edge(f0, k0, EdgeLabel::IntraProc);
        g.add_edge(k0, s0, EdgeLabel::IntraProc);
        g.add_edge(f1, k1, EdgeLabel::IntraProc);
        g.add_edge(k1, w1, EdgeLabel::IntraProc);
        g.add_edge(s0, w1, EdgeLabel::InterProcess(pag::CommKind::P2pAsync));
        g.set_metric(f0, mkeys::TIME, 1000.0); // structural: ignored
        g.set_metric(k0, mkeys::TIME, 50.0);
        g.set_metric(s0, mkeys::TIME, 5.0);
        g.set_metric(k1, mkeys::TIME, 10.0);
        g.set_metric(w1, mkeys::TIME, 40.0);
        GraphRef::Detached(Arc::new(g))
    }

    #[test]
    fn path_crosses_flows_through_dependence() {
        let g = flows();
        let (vs, es, w) = critical_path_analysis(&g.all_vertices()).unwrap();
        let names: Vec<&str> = vs.ids.iter().map(|&v| g.pag().vertex_name(v)).collect();
        // Heaviest chain: k0(50) → MPI_Send(5) → MPI_Wait(40) = 95.
        assert_eq!(names, vec!["k0", "MPI_Send", "MPI_Wait"]);
        assert!((w - 95.0).abs() < 1e-9);
        assert_eq!(es.len(), 2);
    }

    #[test]
    fn structural_time_not_counted() {
        let g = flows();
        let (vs, _, w) = critical_path_analysis(&g.all_vertices()).unwrap();
        assert!(!vs.ids.contains(&VertexId(0)) || w < 1000.0);
    }

    #[test]
    fn cyclic_graph_is_error() {
        // Structural cycles (intra-proc) cannot be filtered away.
        let mut g = Pag::new(ViewKind::TopDown, "cyc");
        let a = g.add_vertex(VertexLabel::Compute, "a");
        let b = g.add_vertex(VertexLabel::Compute, "b");
        g.add_edge(a, b, EdgeLabel::IntraProc);
        g.add_edge(b, a, EdgeLabel::IntraProc);
        let gr = GraphRef::Detached(Arc::new(g));
        assert!(critical_path_analysis(&gr.all_vertices()).is_err());
    }

    #[test]
    fn dependence_cycles_are_filtered() {
        // Two flows whose aggregated collective edges form a 2-cycle:
        // the forward-only fallback must still produce a path.
        let mut g = Pag::new(ViewKind::TopDown, "depcyc");
        let k0 = g.add_vertex(VertexLabel::Compute, "k@p0");
        let a0 = g.add_vertex(VertexLabel::Call(CallKind::Comm), "MPI_Allreduce@p0");
        let k1 = g.add_vertex(VertexLabel::Compute, "k@p1");
        let a1 = g.add_vertex(VertexLabel::Call(CallKind::Comm), "MPI_Allreduce@p1");
        g.add_edge(k0, a0, EdgeLabel::IntraProc);
        g.add_edge(k1, a1, EdgeLabel::IntraProc);
        // Alternating latecomer roles across iterations → 2-cycle.
        g.add_edge(a0, a1, EdgeLabel::InterProcess(pag::CommKind::Collective));
        g.add_edge(a1, a0, EdgeLabel::InterProcess(pag::CommKind::Collective));
        g.set_metric(k0, mkeys::TIME, 10.0);
        g.set_metric(a0, mkeys::TIME, 5.0);
        g.set_metric(k1, mkeys::TIME, 20.0);
        g.set_metric(a1, mkeys::TIME, 5.0);
        // Positions: mark both allreduces as the same top-down vertex so
        // the cycle edges are dropped symmetrically.
        g.set_metric_i64(a0, mkeys::TOPDOWN_VERTEX, 1);
        g.set_metric_i64(a1, mkeys::TOPDOWN_VERTEX, 1);
        g.set_metric_i64(k0, mkeys::TOPDOWN_VERTEX, 0);
        g.set_metric_i64(k1, mkeys::TOPDOWN_VERTEX, 0);
        let gr = GraphRef::Detached(Arc::new(g));
        let (vs, _, w) = critical_path_analysis(&gr.all_vertices()).unwrap();
        assert!((w - 25.0).abs() < 1e-9, "heaviest surviving chain k1→a1");
        assert_eq!(gr.pag().vertex_name(vs.ids[0]), "k@p1");
    }
}
