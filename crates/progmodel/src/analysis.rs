//! Static structure queries over a program model — the information
//! Dyninst-style binary analysis provides (§3.2): the call graph and
//! dead-code detection.

use std::collections::{BTreeMap, HashSet};

use crate::program::{CallTarget, FuncId, Program, StmtKind};

/// Static call graph: for each function, the statically-known callees.
/// Indirect call sites contribute *all* candidates but are also reported
/// separately so the dynamic phase can refine them. The result is a
/// `BTreeMap` with sorted, deduplicated callee lists, so iteration order
/// (and everything derived from it, e.g. lint output) is deterministic.
pub fn call_graph(p: &Program) -> BTreeMap<FuncId, Vec<FuncId>> {
    let mut cg: BTreeMap<FuncId, Vec<FuncId>> = BTreeMap::new();
    for f in &p.functions {
        cg.entry(f.id).or_default();
    }
    p.visit_stmts(|func, stmt| {
        if let StmtKind::Call { target } = &stmt.kind {
            let entry = cg.entry(func.id).or_default();
            match target {
                CallTarget::Static(callee) => entry.push(*callee),
                CallTarget::Indirect { candidates, .. } => entry.extend(candidates.iter().copied()),
            }
        }
    });
    for callees in cg.values_mut() {
        callees.sort();
        callees.dedup();
    }
    cg
}

/// Functions reachable from `entry` via the static call graph.
fn reachable_from(cg: &BTreeMap<FuncId, Vec<FuncId>>, entry: FuncId) -> HashSet<FuncId> {
    let mut seen = HashSet::new();
    let mut stack = vec![entry];
    seen.insert(entry);
    while let Some(f) = stack.pop() {
        for &callee in cg.get(&f).into_iter().flatten() {
            if seen.insert(callee) {
                stack.push(callee);
            }
        }
    }
    seen
}

/// Functions that can never execute: unreachable from the program entry
/// via the static call graph (including indirect-call candidates, so a
/// function is only "dead" if *no* call site could possibly target it).
/// Sorted by id for deterministic output.
pub fn dead_functions(p: &Program) -> Vec<FuncId> {
    let cg = call_graph(p);
    let live = reachable_from(&cg, p.entry);
    let mut dead: Vec<FuncId> = p
        .functions
        .iter()
        .map(|f| f.id)
        .filter(|id| !live.contains(id))
        .collect();
    dead.sort();
    dead
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::expr::{c, rank};

    fn sample() -> Program {
        let mut pb = ProgramBuilder::new("s");
        let main = pb.declare("main", "s.c");
        let foo = pb.declare("foo", "s.c");
        let bar = pb.declare("bar", "s.c");
        let baz = pb.declare("baz", "s.c");
        let dead = pb.declare("dead", "s.c");
        pb.define(main, |f| {
            f.call(foo);
            f.call_indirect(vec![bar, baz], rank().rem(2.0));
            f.allreduce(c(8.0));
        });
        pb.define(foo, |f| {
            f.compute("k", c(1.0));
            f.call(foo); // direct recursion
        });
        pb.define(bar, |f| f.call(baz));
        pb.define(baz, |f| f.call(bar)); // mutual recursion
        pb.define(dead, |f| f.compute("unused", c(1.0)));
        pb.build(main)
    }

    #[test]
    fn call_graph_includes_indirect_candidates() {
        let p = sample();
        let cg = call_graph(&p);
        let main_callees = &cg[&p.entry];
        assert_eq!(main_callees.len(), 3); // foo, bar, baz
    }

    #[test]
    fn call_graph_iteration_is_deterministic() {
        let p = sample();
        let a: Vec<_> = call_graph(&p).into_iter().collect();
        let b: Vec<_> = call_graph(&p).into_iter().collect();
        assert_eq!(a, b);
        // Keys come out sorted by id.
        let keys: Vec<FuncId> = a.iter().map(|(f, _)| *f).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn dead_functions_reports_unreachable_only() {
        let p = sample();
        let dead = dead_functions(&p);
        let names: Vec<&str> = dead.iter().map(|&f| p.function(f).name.as_ref()).collect();
        assert_eq!(names, vec!["dead"]);
        // Indirect candidates count as live.
        assert!(!names.contains(&"bar"));
        assert!(!names.contains(&"baz"));
    }
}
