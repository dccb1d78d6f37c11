//! Static extraction of the top-down PAG skeleton.
//!
//! The skeleton is a *static expansion tree*: starting from the entry
//! function, every call site expands its callee inline (recursion is cut
//! at the first repeated function on the expansion stack, marking the
//! call `Recursive`). This mirrors the structure the paper reports in
//! Table 2, where the top-down view of every program has `|E| = |V| - 1`.
//!
//! Construction is sharded per function, following the near-linear
//! function-level parallelism of parallel binary analysis: a *template*
//! (the function's own statement tree, with static calls left as
//! placeholders) is built for every function concurrently on scoped
//! threads, since templates depend only on the immutable [`Program`]. A
//! serial *stitch* then instantiates templates along the expansion tree —
//! callees inline at their call sites, recursion cut against the live
//! expansion stack — allocating vertices in exactly the depth-first order
//! a direct recursive expansion would, so vertex ids (and everything
//! keyed on them) are independent of how many threads built templates.

use std::collections::HashMap;
use std::sync::Arc;

use pag::{keys, CallKind, EdgeLabel, Pag, VertexId, VertexLabel, ViewKind};
use progmodel::{CallTarget, CommOp, FuncId, Function, Program, Stmt, StmtId, StmtKind};
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
    static_analysis_on(prog, crate::par::host_workers())
}

/// [`static_analysis`] with the template-building worker count pinned, so
/// tests can vary it.
pub(crate) fn static_analysis_on(prog: &Program, workers: usize) -> StaticPag {
    let t0 = std::time::Instant::now();
    let templates = build_templates(prog, workers);
    let mut s = Stitcher {
        prog,
        templates,
        pag: Pag::new(ViewKind::TopDown, prog.name.clone()),
        child_map: HashMap::new(),
    };
    let root = s.instantiate_function(None, prog.entry, &mut Vec::new());
    s.pag.set_root(root);
    // Stitching must always produce a well-formed top-down tree; the
    // invariant checker is the authority on what that means.
    #[cfg(debug_assertions)]
    {
        let diags = verify::check_pag(&s.pag);
        debug_assert!(
            !diags.has_errors(),
            "static_analysis built an invalid PAG:\n{}",
            diags.render_text()
        );
    }
    StaticPag {
        pag: s.pag,
        child_map: s.child_map,
        root,
        static_seconds: t0.elapsed().as_secs_f64(),
    }
}

// ------------------------------------------------------------ templates

/// A template vertex's label: fixed, or a static call whose `User` vs
/// `Recursive` kind can only be decided against the stitch-time stack.
#[derive(Debug, Clone)]
enum TLabel {
    Plain(VertexLabel),
    StaticCall(FuncId),
}

/// One statement vertex of a function template.
#[derive(Debug)]
struct TNode {
    tlabel: TLabel,
    name: Arc<str>,
    debug: String,
    stmt: StmtId,
    children: Vec<TNode>,
}

/// One function's statement tree, independent of where it gets expanded.
#[derive(Debug)]
struct FuncTemplate {
    name: Arc<str>,
    debug: String,
    body: Vec<TNode>,
}

/// Build the template of one function (pure: reads only the program).
fn build_template(prog: &Program, fid: FuncId) -> FuncTemplate {
    let func = prog.function(fid);
    FuncTemplate {
        name: func.name.clone(),
        debug: format!("{}:{}", func.file, func.line),
        body: template_stmts(prog, func, &func.body),
    }
}

fn template_stmts(prog: &Program, func: &Function, stmts: &[Stmt]) -> Vec<TNode> {
    stmts
        .iter()
        .map(|stmt| {
            let (tlabel, name): (TLabel, Arc<str>) = match &stmt.kind {
                StmtKind::Compute { name, .. } => {
                    (TLabel::Plain(VertexLabel::Compute), name.clone())
                }
                StmtKind::Loop { name, .. } => (TLabel::Plain(VertexLabel::Loop), name.clone()),
                StmtKind::Branch { name, .. } => (TLabel::Plain(VertexLabel::Branch), name.clone()),
                StmtKind::Call { target } => match target {
                    CallTarget::Static(callee) => (
                        TLabel::StaticCall(*callee),
                        prog.function(*callee).name.clone(),
                    ),
                    CallTarget::Indirect { .. } => (
                        TLabel::Plain(VertexLabel::Call(CallKind::Indirect)),
                        "indirect_call".into(),
                    ),
                },
                StmtKind::Comm(op) => (
                    TLabel::Plain(VertexLabel::Call(CallKind::Comm)),
                    comm_name(op).into(),
                ),
                StmtKind::ThreadRegion { .. } => (
                    TLabel::Plain(VertexLabel::Call(CallKind::ThreadSpawn)),
                    "parallel_region".into(),
                ),
                StmtKind::Lock { name, .. } => (
                    TLabel::Plain(VertexLabel::Call(CallKind::Lock)),
                    name.clone(),
                ),
            };
            let children = match &stmt.kind {
                StmtKind::Loop { body, .. } | StmtKind::ThreadRegion { body, .. } => {
                    template_stmts(prog, func, body)
                }
                StmtKind::Branch {
                    then_body,
                    else_body,
                    ..
                } => {
                    let mut kids = template_stmts(prog, func, then_body);
                    kids.extend(template_stmts(prog, func, else_body));
                    kids
                }
                _ => Vec::new(),
            };
            TNode {
                tlabel,
                name,
                debug: format!("{}:{}", func.file, stmt.line),
                stmt: stmt.id,
                children,
            }
        })
        .collect()
}

/// Build every function's template, sharded across worker threads. The
/// result is keyed by function id, so it is identical no matter how the
/// functions were partitioned. Programs with fewer than 8 functions are
/// not worth a thread spawn.
fn build_templates(prog: &Program, workers: usize) -> HashMap<FuncId, Arc<FuncTemplate>> {
    let nfuncs = prog.functions.len();
    let workers = if nfuncs < 8 { 1 } else { workers };
    crate::par::map_shards(nfuncs, workers, |i| {
        let fid = FuncId(i as u32);
        (fid, Arc::new(build_template(prog, fid)))
    })
    .into_iter()
    .collect()
}

// --------------------------------------------------------------- stitch

/// Serial instantiation of templates along the expansion tree. Allocates
/// vertices in the same depth-first order as a direct recursive
/// expansion, so ids are deterministic.
struct Stitcher<'p> {
    prog: &'p Program,
    templates: HashMap<FuncId, Arc<FuncTemplate>>,
    pag: Pag,
    child_map: HashMap<(VertexId, CtxFrame), VertexId>,
}

impl<'p> Stitcher<'p> {
    /// Fetch (building on demand — the dynamic fill-in path starts with
    /// an empty template cache) the template of `fid`.
    fn template(&mut self, fid: FuncId) -> Arc<FuncTemplate> {
        if let Some(t) = self.templates.get(&fid) {
            return t.clone();
        }
        let t = Arc::new(build_template(self.prog, fid));
        self.templates.insert(fid, t.clone());
        t
    }

    /// Instantiate a function as a child of `parent` (a call vertex), or
    /// as the root when `parent` is `None`.
    fn instantiate_function(
        &mut self,
        parent: Option<VertexId>,
        fid: FuncId,
        stack: &mut Vec<FuncId>,
    ) -> VertexId {
        let t = self.template(fid);
        let v = self.pag.add_vertex(VertexLabel::Function, t.name.clone());
        self.pag.set_vstr(v, keys::DEBUG_INFO, t.debug.clone());
        if let Some(p) = parent {
            self.pag.add_edge(p, v, EdgeLabel::InterProc);
            self.child_map.insert((p, CtxFrame::Func(fid)), v);
        }
        stack.push(fid);
        self.instantiate_nodes(v, &t.body, stack);
        stack.pop();
        v
    }

    fn instantiate_nodes(&mut self, parent: VertexId, nodes: &[TNode], stack: &mut Vec<FuncId>) {
        for n in nodes {
            let label = match &n.tlabel {
                TLabel::Plain(l) => *l,
                TLabel::StaticCall(callee) => {
                    let kind = if stack.contains(callee) {
                        CallKind::Recursive
                    } else {
                        CallKind::User
                    };
                    VertexLabel::Call(kind)
                }
            };
            let v = self.pag.add_vertex(label, n.name.clone());
            self.pag.set_vstr(v, keys::DEBUG_INFO, n.debug.clone());
            self.pag.add_edge(parent, v, EdgeLabel::IntraProc);
            self.child_map.insert((parent, CtxFrame::Stmt(n.stmt)), v);
            self.instantiate_nodes(v, &n.children, stack);
            if let TLabel::StaticCall(callee) = &n.tlabel {
                if !stack.contains(callee) {
                    self.instantiate_function(Some(v), *callee, stack);
                }
                // Recursive calls are cut here, like the direct expansion.
            }
            // Indirect call targets are filled in from runtime data
            // during embedding (§3.2: "marks the function calls whose
            // information cannot be obtained at the static phase").
        }
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
    let mut s = Stitcher {
        prog,
        templates: HashMap::new(),
        pag: std::mem::replace(&mut sp.pag, Pag::new(ViewKind::TopDown, "")),
        child_map: std::mem::take(&mut sp.child_map),
    };
    let v = s.instantiate_function(Some(call_vertex), fid, &mut Vec::new());
    sp.pag = s.pag;
    sp.child_map = s.child_map;
    v
}

fn comm_name(op: &CommOp) -> &'static str {
    op.mpi_name()
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
        // Enough functions to take the parallel template path; the stitch
        // must still produce the exact expansion-tree shape.
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
