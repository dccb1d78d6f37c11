//! Backtracking analysis — the user-defined pass of the scalability
//! paradigm (Listing 7): walk backwards from detected bug vertices
//! through communications and control/data flow to expose how the bugs
//! propagate, stopping at collective communications.

use pag::{mkeys, EdgeId, EdgeLabel, VertexId};

use crate::error::PerFlowError;
use crate::pass::{config_fingerprint, expect_vertices, Pass, PassCx};
use crate::set::{EdgeSet, VertexSet};
use crate::value::Value;

/// Names treated as collective communications (the paper's
/// `pflow.COLL_COMM` constant): backtracking stops there because a
/// collective synchronizes all processes.
pub const COLL_COMM: &[&str] = &[
    "MPI_Allreduce",
    "MPI_Barrier",
    "MPI_Bcast",
    "MPI_Reduce",
    "MPI_Alltoall",
];

/// Backtrack from each input vertex. At every step the walk prefers, in
/// order: the inter-process dependence in-edge with the largest recorded
/// wait (a communication that delayed us), an inter-thread dependence
/// in-edge, then the intra-flow control-flow in-edge. The walk stops on a
/// collective-communication vertex, an already-visited vertex, a missing
/// in-edge, or after `max_steps`.
pub fn backtracking(set: &VertexSet, max_steps: usize) -> (VertexSet, EdgeSet) {
    let pag = set.graph.pag();
    let mut vs = VertexSet::new(set.graph.clone(), Vec::new());
    let mut es: Vec<EdgeId> = Vec::new();
    let mut visited: std::collections::HashSet<VertexId> = Default::default();

    for &start in &set.ids {
        let mut v = start;
        let mut steps = 0usize;
        loop {
            if !visited.insert(v) {
                break;
            }
            vs.ids.push(v);
            if COLL_COMM.contains(&pag.vertex_name(v)) && v != start {
                break; // collectives synchronize: propagation ends here
            }
            steps += 1;
            if steps > max_steps {
                break;
            }
            let Some(e) = pick_in_edge(pag, v) else {
                break;
            };
            es.push(e);
            v = pag.edge(e).src;
        }
    }
    es.sort();
    es.dedup();
    (vs, EdgeSet::new(set.graph.clone(), es))
}

/// Priority edge selection for one backtracking step.
fn pick_in_edge(pag: &pag::Pag, v: VertexId) -> Option<EdgeId> {
    let in_edges = pag.in_edges(v);
    // 1. Inter-process dependence with the largest wait.
    let best_comm = in_edges
        .iter()
        .copied()
        .filter(|&e| pag.edge(e).label.is_inter_process())
        .max_by(|&a, &b| {
            let wa = pag.emetric_f64(a, mkeys::WAIT_TIME);
            let wb = pag.emetric_f64(b, mkeys::WAIT_TIME);
            wa.total_cmp(&wb)
        });
    if let Some(e) = best_comm {
        return Some(e);
    }
    // 2. Inter-thread dependence.
    if let Some(e) = in_edges
        .iter()
        .copied()
        .find(|&e| pag.edge(e).label == EdgeLabel::InterThread)
    {
        return Some(e);
    }
    // 3. Intra-flow control flow.
    in_edges.iter().copied().find(|&e| {
        matches!(
            pag.edge(e).label,
            EdgeLabel::IntraProc | EdgeLabel::InterProc
        )
    })
}

/// Pass wrapper: bug set → (backtracked vertices, backtracked edges).
pub struct BacktrackingPass {
    /// Walk-length limit per start vertex.
    pub max_steps: usize,
}

impl Pass for BacktrackingPass {
    fn name(&self) -> &str {
        "backtracking_analysis"
    }
    fn arity(&self) -> usize {
        1
    }
    fn run(&self, inputs: &[Value], _cx: &mut PassCx) -> Result<Vec<Value>, PerFlowError> {
        let set = expect_vertices(self, inputs, 0)?;
        let (v, e) = backtracking(set, self.max_steps);
        Ok(vec![v.into(), e.into()])
    }
    fn fingerprint(&self) -> Option<u64> {
        config_fingerprint(&[self.name()], &[self.max_steps as u64])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphref::GraphRef;
    use pag::{CallKind, CommKind, Pag, VertexLabel, ViewKind};
    use std::sync::Arc;

    /// flow0: start0 → loop0 → isend0
    /// flow1: start1 → waitall1 → allreduce1
    /// cross: isend0 →(p2p, wait=5) waitall1
    fn propagation_graph() -> GraphRef {
        let mut g = Pag::new(ViewKind::TopDown, "bt");
        let s0 = g.add_vertex(VertexLabel::Function, "start0");
        let l0 = g.add_vertex(VertexLabel::Loop, "loop_10.1");
        let i0 = g.add_vertex(VertexLabel::Call(CallKind::Comm), "MPI_Isend");
        let s1 = g.add_vertex(VertexLabel::Function, "start1");
        let w1 = g.add_vertex(VertexLabel::Call(CallKind::Comm), "MPI_Waitall");
        let a1 = g.add_vertex(VertexLabel::Call(CallKind::Comm), "MPI_Allreduce");
        g.add_edge(s0, l0, EdgeLabel::IntraProc);
        g.add_edge(l0, i0, EdgeLabel::IntraProc);
        g.add_edge(s1, w1, EdgeLabel::IntraProc);
        g.add_edge(w1, a1, EdgeLabel::IntraProc);
        let cross = g.add_edge(i0, w1, EdgeLabel::InterProcess(CommKind::P2pAsync));
        g.set_emetric(cross, mkeys::WAIT_TIME, 5.0);
        g.set_root(s0);
        GraphRef::Detached(Arc::new(g))
    }

    #[test]
    fn walks_through_comm_edge_to_origin_loop() {
        let g = propagation_graph();
        let bugs = VertexSet::new(g.clone(), vec![VertexId(4)]); // waitall1
        let (vs, es) = backtracking(&bugs, 100);
        let names: Vec<&str> = vs.ids.iter().map(|&v| g.pag().vertex_name(v)).collect();
        // waitall1 → (comm edge) isend0 → loop_10.1 → start0
        assert_eq!(
            names,
            vec!["MPI_Waitall", "MPI_Isend", "loop_10.1", "start0"]
        );
        assert_eq!(es.len(), 3);
    }

    #[test]
    fn stops_at_collective() {
        let g = propagation_graph();
        let bugs = VertexSet::new(g.clone(), vec![VertexId(5)]); // allreduce1
        let (vs, _) = backtracking(&bugs, 100);
        let names: Vec<&str> = vs.ids.iter().map(|&v| g.pag().vertex_name(v)).collect();
        // Starting *at* a collective is allowed; the walk continues from
        // the start vertex but stops if it meets another collective.
        assert!(names.contains(&"MPI_Allreduce"));
        assert!(names.contains(&"loop_10.1"), "{names:?}");
    }

    #[test]
    fn multiple_starts_share_visited_set() {
        let g = propagation_graph();
        let bugs = VertexSet::new(g.clone(), vec![VertexId(4), VertexId(5)]);
        let (vs, _) = backtracking(&bugs, 100);
        // No vertex appears twice.
        let mut sorted = vs.ids.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), vs.ids.len());
    }

    #[test]
    fn merging_walks_keep_first_visit_order() {
        let g = propagation_graph();
        // waitall1 walks the comm edge into flow 0; allreduce1's walk
        // then merges into it at waitall1 after one step.
        let bugs = VertexSet::new(g.clone(), vec![VertexId(4), VertexId(5)]);
        let (vs, es) = backtracking(&bugs, 100);
        assert_eq!(vs.ids, [4, 2, 1, 0, 5].map(VertexId));
        assert_eq!(es.len(), 4);
        // Reversed starts: the first walk covers everything, the second
        // start is already visited and adds nothing.
        let bugs = VertexSet::new(g.clone(), vec![VertexId(5), VertexId(4)]);
        let (vs, es) = backtracking(&bugs, 100);
        assert_eq!(vs.ids, [5, 4, 2, 1, 0].map(VertexId));
        assert_eq!(es.len(), 4);
    }

    #[test]
    fn max_steps_bounds_walk() {
        let g = propagation_graph();
        let bugs = VertexSet::new(g.clone(), vec![VertexId(4)]);
        let (vs, _) = backtracking(&bugs, 1);
        assert!(vs.len() <= 2, "{:?}", vs.ids);
    }
}
