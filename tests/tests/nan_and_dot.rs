//! Regression tests for the NaN-ordering and DOT-escaping bugfix sweep:
//!
//! * `VertexSet::sort_by`/`top` must be total (never panic) and
//!   deterministic when metrics are NaN — exercised end-to-end through a
//!   fault-injected profiling run whose corrupted PMU data yields 0/0
//!   derived scores;
//! * `graphalgo::graph_difference_scaled` must carry a NaN operand into
//!   the difference, and `critical_path` must degrade like `sort_by`;
//! * property test: `sort_by` is a total, deterministic descending order
//!   over arbitrary `f64` scores including NaN and ±inf;
//! * DOT export escapes quotes, backslashes and newlines losslessly in
//!   both `pag::dot::to_dot` and `perflow::PerFlowGraph::to_dot` (the
//!   old code mangled `"` to `'` and `\` to `/`).

use pag::dot::{to_dot, DotOptions};
use pag::{escape_dot, keys, EdgeLabel, Pag, VertexId, VertexLabel, ViewKind};
use perflow::pass::FnPass;
use perflow::{GraphRef, PerFlow, PerFlowGraph, RunHandleExt, Value};
use proptest::prelude::*;
use simrt::{FaultPlan, RunConfig};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// End-to-end: corrupted PMU data → NaN derived metric → sort_by/top survive.
// ---------------------------------------------------------------------------

#[test]
fn nan_scores_from_corrupted_pmu_sort_without_panicking() {
    let pflow = PerFlow::new();
    let prog = workloads::cg();
    // Discard every PMU reading: pmu-instructions and pmu-cycles are
    // absent everywhere, so the derived instructions-per-cycle score is
    // 0/0 = NaN on every vertex.
    let cfg = RunConfig::new(4).with_faults(FaultPlan::new().with_pmu_corruption(1.0));
    let run = pflow.run(&prog, &cfg).expect("degraded run must succeed");

    let mut set = run.vertices();
    for v in set.ids.clone() {
        let ins = set.metric(v, keys::PMU_INSTRUCTIONS);
        let cyc = set.metric(v, keys::PMU_CYCLES);
        set = set.with_score(v, ins / cyc); // NaN wherever cyc == 0
    }
    assert!(
        set.ids.iter().any(|&v| set.metric(v, "score").is_nan()),
        "fault plan should have produced at least one NaN score"
    );

    // The old sort_by used `partial_cmp(..).unwrap()` and panicked here.
    let sorted = set.sort_by("score");
    assert_eq!(sorted.ids.len(), set.ids.len());
    let hot = sorted.top(5);
    assert!(hot.ids.len() <= 5);

    // NaN entries all come after every non-NaN entry.
    let scores: Vec<f64> = sorted
        .ids
        .iter()
        .map(|&v| sorted.metric(v, "score"))
        .collect();
    if let Some(first_nan) = scores.iter().position(|s| s.is_nan()) {
        assert!(
            scores[first_nan..].iter().all(|s| s.is_nan()),
            "NaN scores must be contiguous at the tail: {scores:?}"
        );
    }
    // Deterministic: a second sort yields the identical order.
    assert_eq!(sorted.sort_by("score").ids, sorted.ids);
}

#[test]
fn mixed_nan_and_finite_scores_rank_finite_first() {
    let pflow = PerFlow::new();
    let prog = workloads::cg();
    // Clean run: compute vertices have PMU estimates, comm vertices do
    // not — so ins/cyc is finite on some vertices and NaN on others.
    let run = pflow.run(&prog, &RunConfig::new(4)).unwrap();
    let mut set = run.vertices();
    for v in set.ids.clone() {
        let ins = set.metric(v, keys::PMU_INSTRUCTIONS);
        let cyc = set.metric(v, keys::PMU_CYCLES);
        set = set.with_score(v, ins / cyc);
    }
    let has_nan = set.ids.iter().any(|&v| set.metric(v, "score").is_nan());
    let has_finite = set.ids.iter().any(|&v| set.metric(v, "score").is_finite());
    assert!(
        has_nan && has_finite,
        "expected a mixed NaN/finite score set"
    );

    let sorted = set.sort_by("score");
    let scores: Vec<f64> = sorted
        .ids
        .iter()
        .map(|&v| sorted.metric(v, "score"))
        .collect();
    let first_nan = scores.iter().position(|s| s.is_nan()).unwrap();
    assert!(scores[..first_nan].iter().all(|s| !s.is_nan()));
    assert!(scores[first_nan..].iter().all(|s| s.is_nan()));
    // top(n) over the mixed set keeps the finite head.
    let n = first_nan.min(3);
    let top = sorted.top(n);
    assert!(top.ids.iter().all(|&v| !top.metric(v, "score").is_nan()));
}

// ---------------------------------------------------------------------------
// graphalgo: graph_difference_scaled and critical_path under NaN metrics.
// ---------------------------------------------------------------------------

fn chain_pag(times: &[f64]) -> Pag {
    let mut g = Pag::new(ViewKind::TopDown, "chain");
    for (i, t) in times.iter().enumerate() {
        let v = g.add_vertex(VertexLabel::Compute, format!("f{i}"));
        g.set_metric(v, pag::mkeys::TIME, *t);
        if i > 0 {
            g.add_edge(VertexId(i as u32 - 1), v, EdgeLabel::IntraProc);
        }
    }
    g
}

#[test]
fn graph_difference_propagates_nan_operand() {
    // A NaN `time` on the left propagates through the subtraction into
    // the diff graph (NaN - x = NaN); the finite rows subtract exactly.
    let left = chain_pag(&[10.0, f64::NAN, 30.0, 5.0]);
    let right = chain_pag(&[1.0, 2.0, 3.0, 4.0]);
    let diff = graphalgo::graph_difference_scaled(&left, &right, &[keys::TIME], 1.0).unwrap();
    let times: Vec<f64> = diff.vertex_ids().map(|v| diff.vertex_time(v)).collect();
    assert_eq!(times.len(), 4);
    assert!(times[1].is_nan(), "NaN operand yields a NaN diff");
    assert_eq!([times[0], times[2], times[3]], [9.0, 27.0, 1.0]);
}

#[test]
fn critical_path_ignores_nan_weighted_endpoints() {
    let g = chain_pag(&[1.0, f64::NAN, 2.0]);
    let cp = graphalgo::critical_path(
        &g,
        |_| true,
        |v| g.metric(v, pag::mkeys::TIME).unwrap_or(0.0),
    )
    .expect("NaN weights must not make critical_path fail");
    // The NaN vertex poisons paths through it; the best clean endpoint
    // wins and the search never panics.
    assert!(!cp.weight.is_nan());
    assert!((cp.weight - 2.0).abs() < 1e-9);
}

// ---------------------------------------------------------------------------
// Property: sort_by is a total deterministic descending order on any f64.
// ---------------------------------------------------------------------------

fn arb_score() -> impl Strategy<Value = f64> {
    (0u32..6, -1e6f64..1e6f64).prop_map(|(k, x)| match k {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        _ => x,
    })
}

fn scored_set(scores: &[f64]) -> perflow::VertexSet {
    let mut g = Pag::new(ViewKind::TopDown, "prop");
    for i in 0..scores.len() {
        g.add_vertex(VertexLabel::Compute, format!("v{i}"));
    }
    let gref = GraphRef::Detached(Arc::new(g));
    let mut set = gref.all_vertices();
    for (i, &s) in scores.iter().enumerate() {
        set = set.with_score(VertexId(i as u32), s);
    }
    set
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sort_by_is_total_and_deterministic(
        scores in proptest::collection::vec(arb_score(), 1..24)
    ) {
        let set = scored_set(&scores);
        let sorted = set.sort_by("score"); // must not panic

        // Permutation of the input ids.
        let mut ids = sorted.ids.clone();
        ids.sort();
        prop_assert_eq!(ids, set.ids.clone());

        // Descending among non-NaN entries; NaN contiguous at the tail.
        let out: Vec<f64> = sorted.ids.iter().map(|&v| sorted.metric(v, "score")).collect();
        for w in out.windows(2) {
            if !w[0].is_nan() && !w[1].is_nan() {
                prop_assert!(w[0] >= w[1], "not descending: {} then {}", w[0], w[1]);
            }
            prop_assert!(
                !w[0].is_nan() || w[1].is_nan(),
                "non-NaN after NaN: {:?}", out
            );
        }

        // Deterministic and order-independent: sorting the reversed set
        // yields the identical sequence, and sorting is idempotent.
        let mut reversed = set.clone();
        reversed.ids.reverse();
        prop_assert_eq!(reversed.sort_by("score").ids.clone(), sorted.ids.clone());
        prop_assert_eq!(sorted.sort_by("score").ids.clone(), sorted.ids.clone());

        // top() never exceeds the set and keeps scores only for kept ids.
        let top = sorted.top(3);
        prop_assert!(top.ids.len() <= 3.min(scores.len()));
    }
}

// ---------------------------------------------------------------------------
// DOT escaping: lossless round-trip, shared helper in pag and core.
// ---------------------------------------------------------------------------

/// Inverse of [`pag::escape_dot`] for round-trip checking.
fn unescape_dot(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut it = s.chars();
    while let Some(ch) = it.next() {
        if ch != '\\' {
            out.push(ch);
            continue;
        }
        match it.next() {
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            Some('n') => out.push('\n'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

const EVIL_NAMES: &[&str] = &[
    r#"he said "hi""#,
    r"C:\path\to\file",
    "line1\nline2",
    r#"quote\" and backslash"#,
];

#[test]
fn escape_dot_round_trips_evil_strings() {
    for name in EVIL_NAMES {
        let escaped = escape_dot(name);
        assert_eq!(&unescape_dot(&escaped), name, "round trip of {name:?}");
        // Escaped text never contains a raw quote or newline that would
        // terminate the DOT string literal early.
        assert!(!escaped.contains('\n'));
        let bytes = escaped.as_bytes();
        for (i, &b) in bytes.iter().enumerate() {
            if b == b'"' {
                assert!(
                    i > 0 && bytes[i - 1] == b'\\',
                    "unescaped quote in {escaped:?}"
                );
            }
        }
    }
}

#[test]
fn pag_to_dot_escapes_vertex_names_losslessly() {
    let mut g = Pag::new(ViewKind::TopDown, r#"graph "with" quotes"#);
    for name in EVIL_NAMES {
        g.add_vertex(VertexLabel::Compute, *name);
    }
    let dot = to_dot(&g, &DotOptions::default());
    for name in EVIL_NAMES {
        assert!(
            dot.contains(&escape_dot(name)),
            "missing escaped form of {name:?}"
        );
    }
    // The old lossy code replaced `"` with `'` and `\` with `/`.
    assert!(
        !dot.contains("he said 'hi'"),
        "quotes were mangled to apostrophes"
    );
    assert!(
        !dot.contains("C:/path/to/file"),
        "backslashes were mangled to slashes"
    );
    assert!(dot.contains(r#"digraph "graph \"with\" quotes""#));
}

#[test]
fn perflow_graph_to_dot_uses_same_escaping() {
    let mut g = PerFlowGraph::new();
    let s = g.add_source(1.0);
    let evil = r#"pass "x" over C:\data"#;
    let p = g.add_pass(FnPass::new(evil, 1, |i: &[Value]| Ok(vec![i[0].clone()])));
    g.pipe(s, p).unwrap();
    let dot = g.to_dot(r#"title "t""#);
    assert!(
        dot.contains(&escape_dot(evil)),
        "core must share pag::escape_dot"
    );
    assert!(dot.contains(r#"digraph "title \"t\"""#));
    assert!(!dot.contains("'x'"), "quotes were mangled to apostrophes");
    assert!(
        !dot.contains("C:/data"),
        "backslashes were mangled to slashes"
    );
    assert_eq!(&unescape_dot(&escape_dot(evil)), evil);
}
