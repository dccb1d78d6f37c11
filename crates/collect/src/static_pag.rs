//! Static extraction of the top-down PAG skeleton.
//!
//! The skeleton is a *static expansion tree*: starting from the entry
//! function, every call site expands its callee inline (recursion is cut
//! at the first repeated function on the expansion stack, marking the
//! call `Recursive`). This mirrors the structure the paper reports in
//! Table 2, where the top-down view of every program has `|E| = |V| - 1`.
//!
//! Construction is one serial depth-first expansion that allocates
//! vertices in pre-order: a vertex, then its loop/branch/region children,
//! then the callee of a non-recursive static call. Vertex ids (and
//! everything keyed on them) are therefore a pure function of the
//! program. The runtime fill-in of indirect call targets
//! ([`expand_dynamic_call`]) reuses the same expansion. The program
//! models have tens of functions, so sharding this walk across threads
//! only adds spawn cost (EXPERIMENTS.md, "collect parallelism audit").

use std::collections::HashMap;

use pag::{keys, CallKind, EdgeLabel, Pag, VertexId, VertexLabel, ViewKind};
use progmodel::{CallTarget, FuncId, Function, Program, Stmt, StmtKind};
use simrt::CtxFrame;

/// The static skeleton plus the structure index used to resolve calling
/// contexts onto vertices.
#[derive(Debug, Clone)]
pub struct StaticPag {
    /// The top-down view skeleton (no performance data yet).
    pub pag: Pag,
    /// `(parent vertex, frame)` → child vertex. Mirrors CCT interning.
    pub child_map: HashMap<(VertexId, CtxFrame), VertexId>,
    /// The root (entry function) vertex.
    pub root: VertexId,
    /// Wall-clock seconds spent in static analysis (Table 1's "static"
    /// column).
    pub static_seconds: f64,
}

/// Run static analysis on a program model.
pub fn static_analysis(prog: &Program) -> StaticPag {
    let t0 = std::time::Instant::now();
    let mut pag = Pag::new(ViewKind::TopDown, prog.name.clone());
    let mut child_map = HashMap::new();
    let root = Expander::new(prog, &mut pag, &mut child_map).function(None, prog.entry);
    pag.set_root(root);
    // The expansion must always produce a well-formed top-down tree; the
    // invariant checker is the authority on what that means.
    #[cfg(debug_assertions)]
    {
        let diags = verify::check_pag(&pag);
        debug_assert!(
            !diags.has_errors(),
            "static_analysis built an invalid PAG:\n{}",
            diags.render_text()
        );
    }
    StaticPag {
        pag,
        child_map,
        root,
        static_seconds: t0.elapsed().as_secs_f64(),
    }
}

/// Expand one function under an (indirect) call vertex of an existing
/// static PAG — the dynamic structure fill-in path.
pub fn expand_dynamic_call(
    sp: &mut StaticPag,
    prog: &Program,
    call_vertex: VertexId,
    fid: FuncId,
) -> VertexId {
    Expander::new(prog, &mut sp.pag, &mut sp.child_map).function(Some(call_vertex), fid)
}

/// Depth-first expansion of function bodies into a top-down PAG, with
/// the stack of functions being expanded for the recursion cut.
struct Expander<'a> {
    prog: &'a Program,
    pag: &'a mut Pag,
    child_map: &'a mut HashMap<(VertexId, CtxFrame), VertexId>,
    stack: Vec<FuncId>,
}

impl<'a> Expander<'a> {
    fn new(
        prog: &'a Program,
        pag: &'a mut Pag,
        child_map: &'a mut HashMap<(VertexId, CtxFrame), VertexId>,
    ) -> Self {
        Expander {
            prog,
            pag,
            child_map,
            stack: Vec::new(),
        }
    }

    /// Expand a function as a child of `parent` (a call vertex), or as
    /// the root when `parent` is `None`.
    fn function(&mut self, parent: Option<VertexId>, fid: FuncId) -> VertexId {
        let func = self.prog.function(fid);
        let v = self
            .pag
            .add_vertex(VertexLabel::Function, func.name.clone());
        self.pag
            .set_vstr(v, keys::DEBUG_INFO, format!("{}:{}", func.file, func.line));
        if let Some(p) = parent {
            self.pag.add_edge(p, v, EdgeLabel::InterProc);
            self.child_map.insert((p, CtxFrame::Func(fid)), v);
        }
        self.stack.push(fid);
        self.stmts(v, func, &func.body);
        self.stack.pop();
        v
    }

    fn stmts(&mut self, parent: VertexId, func: &Function, stmts: &[Stmt]) {
        for stmt in stmts {
            let (label, name) = match &stmt.kind {
                StmtKind::Compute { name, .. } => (VertexLabel::Compute, name.clone()),
                StmtKind::Loop { name, .. } => (VertexLabel::Loop, name.clone()),
                StmtKind::Branch { name, .. } => (VertexLabel::Branch, name.clone()),
                StmtKind::Call {
                    target: CallTarget::Static(callee),
                } => {
                    let kind = if self.stack.contains(callee) {
                        CallKind::Recursive
                    } else {
                        CallKind::User
                    };
                    (
                        VertexLabel::Call(kind),
                        self.prog.function(*callee).name.clone(),
                    )
                }
                StmtKind::Call {
                    target: CallTarget::Indirect { .. },
                } => (
                    VertexLabel::Call(CallKind::Indirect),
                    "indirect_call".into(),
                ),
                StmtKind::Comm(op) => (VertexLabel::Call(CallKind::Comm), op.mpi_name().into()),
                StmtKind::ThreadRegion { .. } => (
                    VertexLabel::Call(CallKind::ThreadSpawn),
                    "parallel_region".into(),
                ),
                StmtKind::Lock { name, .. } => (VertexLabel::Call(CallKind::Lock), name.clone()),
            };
            let v = self.pag.add_vertex(label, name);
            self.pag
                .set_vstr(v, keys::DEBUG_INFO, format!("{}:{}", func.file, stmt.line));
            self.pag.add_edge(parent, v, EdgeLabel::IntraProc);
            self.child_map.insert((parent, CtxFrame::Stmt(stmt.id)), v);
            match &stmt.kind {
                StmtKind::Loop { body, .. } | StmtKind::ThreadRegion { body, .. } => {
                    self.stmts(v, func, body)
                }
                StmtKind::Branch {
                    then_body,
                    else_body,
                    ..
                } => {
                    self.stmts(v, func, then_body);
                    self.stmts(v, func, else_body);
                }
                // Recursive calls are cut here.
                StmtKind::Call {
                    target: CallTarget::Static(callee),
                } if label == VertexLabel::Call(CallKind::User) => {
                    self.function(Some(v), *callee);
                }
                // Indirect call targets are filled in from runtime data
                // during embedding (§3.2: "marks the function calls whose
                // information cannot be obtained at the static phase").
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use progmodel::{c, rank, ProgramBuilder};

    fn sample() -> Program {
        let mut pb = ProgramBuilder::new("s");
        let main = pb.declare("main", "s.c");
        let foo = pb.declare("foo", "s.c");
        pb.define(foo, |f| {
            f.compute("kernel", c(1.0));
            f.allreduce(c(8.0));
        });
        pb.define(main, |f| {
            f.loop_("loop_1", c(10.0), |b| {
                b.call(foo);
                b.call(foo); // second call site → second expansion
            });
            f.barrier();
        });
        pb.build(main)
    }

    #[test]
    fn skeleton_is_a_tree() {
        let p = sample();
        let sp = static_analysis(&p);
        assert_eq!(sp.pag.num_edges(), sp.pag.num_vertices() - 1);
        assert_eq!(sp.pag.root(), Some(sp.root));
        // main, loop_1, 2 × (call foo + foo + kernel + allreduce), barrier
        assert_eq!(sp.pag.num_vertices(), 1 + 1 + 2 * 4 + 1);
    }

    #[test]
    fn call_sites_expand_separately() {
        let p = sample();
        let sp = static_analysis(&p);
        let kernels = sp.pag.find_by_name("kernel");
        assert_eq!(kernels.len(), 2, "one kernel vertex per call site");
        let comms = sp.pag.find_by_name("MPI_*");
        assert_eq!(comms.len(), 3); // 2 allreduce + 1 barrier
    }

    #[test]
    fn debug_info_attached() {
        let p = sample();
        let sp = static_analysis(&p);
        for v in sp.pag.vertex_ids() {
            let d = sp.pag.vstr(v, keys::DEBUG_INFO).unwrap();
            assert!(d.starts_with("s.c:"), "bad debug info {d}");
        }
    }

    #[test]
    fn recursion_is_cut_and_marked() {
        let mut pb = ProgramBuilder::new("rec");
        let main = pb.declare("main", "r.c");
        let f = pb.declare("f", "r.c");
        pb.define(f, |b| {
            b.compute("k", c(1.0));
            b.call(f);
        });
        pb.define(main, |b| b.call(f));
        let p = pb.build(main);
        let sp = static_analysis(&p);
        let rec_calls = sp.pag.find_by_label(VertexLabel::Call(CallKind::Recursive));
        assert_eq!(rec_calls.len(), 1);
        // Finite tree despite infinite static recursion.
        assert!(sp.pag.num_vertices() < 10);
    }

    #[test]
    fn indirect_calls_unexpanded_statically() {
        let mut pb = ProgramBuilder::new("ind");
        let main = pb.declare("main", "i.c");
        let fa = pb.declare("fa", "i.c");
        pb.define(fa, |b| b.compute("ka", c(1.0)));
        pb.define(main, |b| b.call_indirect(vec![fa], rank()));
        let p = pb.build(main);
        let sp = static_analysis(&p);
        let ind = sp.pag.find_by_label(VertexLabel::Call(CallKind::Indirect));
        assert_eq!(ind.len(), 1);
        assert_eq!(sp.pag.out_degree(ind[0]), 0, "not expanded statically");
        assert!(sp.pag.find_by_name("ka").is_empty());
    }

    #[test]
    fn dynamic_fill_in_expands_under_call() {
        let mut pb = ProgramBuilder::new("ind2");
        let main = pb.declare("main", "i.c");
        let fa = pb.declare("fa", "i.c");
        pb.define(fa, |b| b.compute("ka", c(1.0)));
        pb.define(main, |b| b.call_indirect(vec![fa], rank()));
        let p = pb.build(main);
        let mut sp = static_analysis(&p);
        let call = sp.pag.find_by_label(VertexLabel::Call(CallKind::Indirect))[0];
        let fv = expand_dynamic_call(&mut sp, &p, call, progmodel::FuncId(1));
        assert_eq!(sp.pag.vertex_name(fv), "fa");
        assert_eq!(sp.pag.out_degree(call), 1);
        assert_eq!(sp.pag.find_by_name("ka").len(), 1);
        // child_map updated for resolution.
        assert!(sp
            .child_map
            .contains_key(&(call, CtxFrame::Func(progmodel::FuncId(1)))));
    }

    #[test]
    fn branch_expands_both_arms() {
        let mut pb = ProgramBuilder::new("br");
        let main = pb.declare("main", "b.c");
        pb.define(main, |b| {
            b.branch(
                "cond",
                rank().lt(2.0),
                |t| t.compute("then_k", c(1.0)),
                |e| e.compute("else_k", c(1.0)),
            );
        });
        let p = pb.build(main);
        let sp = static_analysis(&p);
        assert_eq!(sp.pag.find_by_name("then_k").len(), 1);
        assert_eq!(sp.pag.find_by_name("else_k").len(), 1);
    }

    #[test]
    fn static_time_is_measured() {
        let sp = static_analysis(&sample());
        assert!(sp.static_seconds >= 0.0);
        assert!(sp.static_seconds < 5.0);
    }

    #[test]
    fn many_function_program_shards_across_template_workers() {
        // The name predates the serial expansion: past 8 functions,
        // templates used to be built on worker threads and stitched. A
        // wide fan-out of calls must still produce the exact
        // expansion-tree shape.
        let mut pb = ProgramBuilder::new("wide");
        let main = pb.declare("main", "w.c");
        let fns: Vec<_> = (0..32)
            .map(|i| pb.declare(&format!("f{i}"), "w.c"))
            .collect();
        for (i, &f) in fns.iter().enumerate() {
            pb.define(f, move |b| b.compute(&format!("k{i}"), c(1.0)));
        }
        pb.define(main, |b| {
            for &f in &fns {
                b.call(f);
            }
        });
        let p = pb.build(main);
        let sp = static_analysis(&p);
        // main + 32 × (call + function + kernel)
        assert_eq!(sp.pag.num_vertices(), 1 + 32 * 3);
        assert_eq!(sp.pag.num_edges(), sp.pag.num_vertices() - 1);
        for i in 0..32 {
            assert_eq!(sp.pag.find_by_name(&format!("k{i}")).len(), 1);
        }
    }
}
