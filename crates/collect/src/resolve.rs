//! Calling-context → PAG-vertex resolution with dynamic structure
//! fill-in.
//!
//! Each sampled context is a frame path (functions + statements). Because
//! the static skeleton is the static expansion tree, resolution walks the
//! `child_map` from the root. Two dynamic cases extend or clamp the walk:
//!
//! * an **indirect call** whose target was only observed at runtime: the
//!   callee is expanded under the call vertex on first touch (§3.2's
//!   runtime fill-in);
//! * **recursion** beyond the static cut: the walk clamps at the recursive
//!   call vertex, attributing deeper frames there (standard profiler
//!   truncation).

use pag::{CallKind, VertexId, VertexLabel};
use progmodel::Program;
use simrt::{Cct, CtxFrame, CtxId};

use crate::static_pag::{expand_dynamic_call, StaticPag};

/// Resolve a context to the vertex path from the root to the deepest
/// matching vertex. May extend `sp` (dynamic fill-in).
pub(crate) fn resolve(prog: &Program, sp: &mut StaticPag, cct: &Cct, ctx: CtxId) -> Vec<VertexId> {
    let frames = cct.path(ctx);
    let mut path = Vec::with_capacity(frames.len());
    let mut cur = sp.root;
    path.push(cur);
    // frames[0] is the entry function (== root).
    for frame in frames.into_iter().skip(1) {
        cur = match (sp.child_map.get(&(cur, frame)).copied(), frame) {
            (Some(v), _) => v,
            // A call target observed only at runtime: expand it under the
            // indirect call vertex.
            (None, CtxFrame::Func(fid))
                if sp.pag.vertex(cur).label == VertexLabel::Call(CallKind::Indirect) =>
            {
                expand_dynamic_call(sp, prog, cur, fid)
            }
            // Recursion beyond the static cut, or a statement under it:
            // clamp at the recursive call vertex.
            (None, _) => break,
        };
        path.push(cur);
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::static_pag::static_analysis;
    use progmodel::{c, rank, FuncId, ProgramBuilder, StmtId};
    use simrt::Cct;

    fn indirect_prog() -> Program {
        let mut pb = ProgramBuilder::new("ind");
        let main = pb.declare("main", "i.c");
        let fa = pb.declare("fa", "i.c");
        let fb = pb.declare("fb", "i.c");
        pb.define(fa, |b| b.compute("ka", c(1.0)));
        pb.define(fb, |b| b.compute("kb", c(1.0)));
        pb.define(main, |b| b.call_indirect(vec![fa, fb], rank()));
        pb.build(main)
    }

    #[test]
    fn resolves_static_paths() {
        let mut pb = ProgramBuilder::new("s");
        let main = pb.declare("main", "s.c");
        pb.define(main, |b| {
            b.loop_("l", c(2.0), |l| l.compute("k", c(1.0)));
        });
        let p = pb.build(main);
        let mut sp = static_analysis(&p);
        let mut cct = Cct::new(p.entry);
        // Build the context main → loop l → compute k by stmt ids.
        let mut loop_id = None;
        let mut k_id = None;
        p.visit_stmts(|_, s| match &s.kind {
            progmodel::StmtKind::Loop { .. } => loop_id = Some(s.id),
            progmodel::StmtKind::Compute { .. } => k_id = Some(s.id),
            _ => {}
        });
        let c1 = cct.child(cct.root(), CtxFrame::Stmt(loop_id.unwrap()));
        let c2 = cct.child(c1, CtxFrame::Stmt(k_id.unwrap()));
        let path = resolve(&p, &mut sp, &cct, c2);
        assert_eq!(path.len(), 3);
        assert_eq!(sp.pag.vertex_name(path[0]), "main");
        assert_eq!(sp.pag.vertex_name(path[1]), "l");
        assert_eq!(sp.pag.vertex_name(path[2]), "k");
        // Resolving again returns the same path.
        assert_eq!(resolve(&p, &mut sp, &cct, c2), path);
    }

    #[test]
    fn dynamic_fill_in_during_resolution() {
        let p = indirect_prog();
        let mut sp = static_analysis(&p);
        let before = sp.pag.num_vertices();
        let mut cct = Cct::new(p.entry);
        let call_stmt = {
            let mut id = None;
            p.visit_stmts(|_, s| {
                if matches!(s.kind, progmodel::StmtKind::Call { .. }) {
                    id = Some(s.id);
                }
            });
            id.unwrap()
        };
        let c1 = cct.child(cct.root(), CtxFrame::Stmt(call_stmt));
        let c2 = cct.child(c1, CtxFrame::Func(FuncId(2))); // fb
        let path = resolve(&p, &mut sp, &cct, c2);
        assert_eq!(sp.pag.vertex_name(*path.last().unwrap()), "fb");
        assert!(sp.pag.num_vertices() > before);
        assert_eq!(sp.pag.find_by_name("kb").len(), 1);
        // fa was never observed, so it stays unexpanded.
        assert!(sp.pag.find_by_name("ka").is_empty());
    }

    #[test]
    fn recursion_clamps_to_recursive_call_vertex() {
        let mut pb = ProgramBuilder::new("rec");
        let main = pb.declare("main", "r.c");
        let f = pb.declare("f", "r.c");
        pb.define(f, |b| {
            b.compute("k", c(1.0));
            b.call(f);
        });
        pb.define(main, |b| b.call(f));
        let p = pb.build(main);
        let mut sp = static_analysis(&p);
        let mut cct = Cct::new(p.entry);
        // Find stmt ids: the call in main, compute k, the recursive call.
        let mut main_call = None;
        let mut rec_call = None;
        p.visit_stmts(|func, s| {
            if matches!(s.kind, progmodel::StmtKind::Call { .. }) {
                if func.name.as_ref() == "main" {
                    main_call = Some(s.id);
                } else {
                    rec_call = Some(s.id);
                }
            }
        });
        // Context: main → call f → f → rec call → f → rec call → f (deep).
        let mut ctx = cct.child(cct.root(), CtxFrame::Stmt(main_call.unwrap()));
        ctx = cct.child(ctx, CtxFrame::Func(FuncId(1)));
        let first_f = ctx;
        for _ in 0..3 {
            ctx = cct.child(ctx, CtxFrame::Stmt(rec_call.unwrap()));
            ctx = cct.child(ctx, CtxFrame::Func(FuncId(1)));
        }
        let deep = resolve(&p, &mut sp, &cct, ctx);
        let shallow = resolve(&p, &mut sp, &cct, first_f);
        // The deep context clamps at the recursive call vertex, one level
        // below the first f expansion.
        assert_eq!(deep.len(), shallow.len() + 1);
        let _ = StmtId(0);
    }
}
