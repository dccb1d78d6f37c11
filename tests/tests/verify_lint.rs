//! Integration tests for the `verify` static analyzers: every built-in
//! paradigm graph and example workload must lint clean, cyclic graphs
//! must be rejected pre-flight with named cycle members, the JSON
//! rendering must be well-formed, and diagnostic order must be
//! deterministic regardless of input order.

use perflow::paradigms::{
    causal_seed_graph, causal_step_graph, comm_analysis_graph, contention_graph,
    critical_path_graph, scalability_graph,
};
use perflow::pass::FnPass;
use perflow::{PerFlow, PerFlowError, PerFlowGraph, RunHandleExt, Value};
use proptest::prelude::*;
use simrt::RunConfig;
use verify::{check_pag, lint_program, Diagnostics, GraphShape, NodeShape, Severity, WireShape};

fn run(prog: &progmodel::Program, ranks: u32) -> perflow::RunHandle {
    PerFlow::new().run(prog, &RunConfig::new(ranks)).unwrap()
}

/// Every built-in paradigm PerFlowGraph lints clean (no errors, no
/// warnings, no unconsumed outputs), and the program model itself has
/// no dead functions.
#[test]
fn builtin_paradigm_graphs_lint_clean() {
    let prog = workloads::cg();
    let r = run(&prog, 4);
    let clean = |name: &str, d: Diagnostics| {
        assert!(d.is_clean(), "{name} not clean:\n{}", d.render_text());
        assert_eq!(d.count(Severity::Info), 0, "{name}:\n{}", d.render_text());
    };
    clean("program", lint_program(&prog));
    clean(
        "comm-analysis",
        comm_analysis_graph(r.vertices()).unwrap().0.lint(),
    );
    clean(
        "scalability",
        scalability_graph(&r, &r, 10, 0.2).unwrap().lint(),
    );
    clean("critical-path", critical_path_graph(&r, 10).unwrap().lint());
    clean(
        "causal-seed",
        causal_seed_graph(&r, "MPI_*", 8).unwrap().lint(),
    );
    clean(
        "causal-step",
        causal_step_graph(r.parallel_vertices()).unwrap().lint(),
    );
    clean("contention", contention_graph(&r, &r, 10).unwrap().lint());
}

/// Every example workload produces PAGs that satisfy the structural
/// invariant checker, in both views.
#[test]
fn example_workload_pags_check_clean() {
    let progs = [
        workloads::bt(),
        workloads::cg(),
        workloads::ep(),
        workloads::lu(),
        workloads::zeusmp(),
        workloads::vite(),
    ];
    for prog in &progs {
        let r = run(prog, 4);
        for (view, d) in [
            ("top-down", check_pag(r.topdown())),
            ("parallel", check_pag(r.parallel())),
        ] {
            assert!(
                !d.has_errors(),
                "{} {view} PAG has errors:\n{}",
                prog.name,
                d.render_text()
            );
        }
    }
}

/// A cyclic PerFlowGraph is rejected by the pre-flight lint with a
/// diagnostic naming every node on the ring — not a bare scheduler
/// stall.
#[test]
fn cyclic_graph_rejected_with_named_members() {
    let mut g = PerFlowGraph::new();
    let a = g.add_pass(FnPass::new("stage_a", 1, |i: &[Value]| {
        Ok(vec![i[0].clone()])
    }));
    let b = g.add_pass(FnPass::new("stage_b", 1, |i: &[Value]| {
        Ok(vec![i[0].clone()])
    }));
    let c = g.add_pass(FnPass::new("stage_c", 1, |i: &[Value]| {
        Ok(vec![i[0].clone()])
    }));
    g.pipe(a, b).unwrap();
    g.pipe(b, c).unwrap();
    g.pipe(c, a).unwrap();
    match g.execute() {
        Err(PerFlowError::Rejected { diagnostics }) => {
            let cyc = diagnostics
                .items()
                .iter()
                .find(|d| d.code == verify::codes::CYCLE)
                .expect("cycle diagnostic");
            for name in ["`stage_a`", "`stage_b`", "`stage_c`"] {
                assert!(cyc.message.contains(name), "{}", cyc.message);
            }
        }
        Err(other) => panic!("expected Rejected, got {other:?}"),
        Ok(_) => panic!("expected Rejected, graph executed"),
    }
}

/// The machine-readable rendering stays well-formed even when node
/// names contain JSON metacharacters. (CI runs a real JSON parser over
/// the CLI's `--lint-json` output; this is the cheap in-tree check.)
#[test]
fn lint_json_is_wellformed_with_hostile_names() {
    let g = GraphShape {
        nodes: vec![
            NodeShape {
                name: "he said \"hi\"\\\n\tend".into(),
                arity: 2,
                has_fingerprint: false,
            },
            NodeShape {
                name: "loop{".into(),
                arity: 1,
                has_fingerprint: false,
            },
        ],
        wires: vec![
            WireShape {
                from: 1,
                out_port: 0,
                to: 0,
                in_port: 0,
            },
            WireShape {
                from: 0,
                out_port: 0,
                to: 1,
                in_port: 0,
            },
        ],
    };
    let d = verify::lint_graph(&g);
    assert!(d.has_errors(), "cycle + missing input expected");
    let json = d.to_json().render();
    assert!(json.starts_with('[') && json.ends_with(']'));
    let mut depth = 0i64;
    let mut in_str = false;
    let mut esc = false;
    for ch in json.chars() {
        if esc {
            esc = false;
            continue;
        }
        match ch {
            '\\' if in_str => esc = true,
            '"' => in_str = !in_str,
            '{' | '[' if !in_str => depth += 1,
            '}' | ']' if !in_str => depth -= 1,
            _ => {}
        }
        assert!(depth >= 0);
        if in_str {
            assert!(ch != '\n' && ch != '\t', "raw control char in string");
        }
    }
    assert_eq!(depth, 0, "unbalanced braces");
    assert!(!in_str, "unterminated string");
}

/// Deterministic expansion of a seed into an arbitrary (possibly
/// broken) graph shape: random arities, wires that may dangle, repeat,
/// or point backwards to form cycles.
fn shape_from_seed(n: usize, mix: u64) -> GraphShape {
    let mut state = mix;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let mut g = GraphShape::default();
    for i in 0..n {
        g.nodes.push(NodeShape {
            name: format!("n{}", next() % (n / 2 + 1)), // collisions on purpose
            arity: next() % 3,
            has_fingerprint: i % 2 == 0,
        });
    }
    let wires = next() % (2 * n + 1);
    for _ in 0..wires {
        g.wires.push(WireShape {
            from: next() % (n + 2), // may be out of range
            out_port: next() % 2,
            to: next() % (n + 2),
            in_port: next() % 4, // may gap or duplicate
        });
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Linting the same shape twice yields byte-identical output, and
    /// the emission order is sorted by (code, anchor, message) — so
    /// diagnostics are stable across runs and machines.
    #[test]
    fn lint_order_is_deterministic(n in 1usize..12, mix in any::<u64>()) {
        let g = shape_from_seed(n, mix);
        let d1 = verify::lint_graph(&g);
        let d2 = verify::lint_graph(&g);
        prop_assert_eq!(d1.render_text(), d2.render_text());
        prop_assert_eq!(d1.to_json().render(), d2.to_json().render());
        let items = d1.items();
        for w in items.windows(2) {
            let ka = (w[0].code, &w[0].anchor, &w[0].message);
            let kb = (w[1].code, &w[1].anchor, &w[1].message);
            prop_assert!(ka <= kb, "unsorted: {:?} > {:?}", ka, kb);
        }
    }

    /// Shuffling the wire list does not change the rendered diagnostics:
    /// the report depends on the graph, not on insertion order. (Wires
    /// are clamped in range first — PF0005 deliberately reports the
    /// positional wire index, which is order-dependent by design.)
    #[test]
    fn lint_ignores_wire_insertion_order(n in 2usize..10, mix in any::<u64>(), rot in 0usize..8) {
        let mut g = shape_from_seed(n, mix);
        for w in &mut g.wires {
            w.from %= n;
            w.to %= n;
        }
        let mut rotated = g.clone();
        if !rotated.wires.is_empty() {
            let r = rot % rotated.wires.len();
            rotated.wires.rotate_left(r);
        }
        prop_assert_eq!(
            verify::lint_graph(&g).render_text(),
            verify::lint_graph(&rotated).render_text()
        );
    }
}
