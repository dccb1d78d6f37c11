//! Property-based tests of the PAG: serialization roundtrips for
//! arbitrary graphs, glob matching against a reference implementation,
//! and statistics invariants.

use proptest::prelude::*;

use pag::{
    graph::glob_match, mkeys, CallKind, CommKind, EdgeLabel, Pag, VertexId, VertexLabel,
    VertexStats, ViewKind,
};

fn arb_vertex_label() -> impl Strategy<Value = VertexLabel> {
    prop_oneof![
        Just(VertexLabel::Function),
        Just(VertexLabel::Loop),
        Just(VertexLabel::Branch),
        Just(VertexLabel::Compute),
        Just(VertexLabel::Instruction),
        Just(VertexLabel::Call(CallKind::User)),
        Just(VertexLabel::Call(CallKind::Comm)),
        Just(VertexLabel::Call(CallKind::External)),
        Just(VertexLabel::Call(CallKind::Recursive)),
        Just(VertexLabel::Call(CallKind::Indirect)),
        Just(VertexLabel::Call(CallKind::ThreadSpawn)),
        Just(VertexLabel::Call(CallKind::Lock)),
    ]
}

fn arb_edge_label() -> impl Strategy<Value = EdgeLabel> {
    prop_oneof![
        Just(EdgeLabel::IntraProc),
        Just(EdgeLabel::InterProc),
        Just(EdgeLabel::InterThread),
        Just(EdgeLabel::InterProcess(CommKind::P2pSync)),
        Just(EdgeLabel::InterProcess(CommKind::P2pAsync)),
        Just(EdgeLabel::InterProcess(CommKind::Collective)),
    ]
}

#[derive(Debug, Clone)]
struct GraphSpec {
    vertices: Vec<(VertexLabel, String, f64, Option<Vec<f64>>)>,
    edges: Vec<(usize, usize, EdgeLabel, i64)>,
}

fn arb_graph() -> impl Strategy<Value = GraphSpec> {
    let vertex = (
        arb_vertex_label(),
        "[a-zA-Z_][a-zA-Z0-9_.:]{0,12}",
        0.0..1e7f64,
        prop::option::of(prop::collection::vec(0.0..1e5f64, 1..5)),
    );
    prop::collection::vec(vertex, 1..20).prop_flat_map(|vertices| {
        let n = vertices.len();
        let edge = (0..n, 0..n, arb_edge_label(), 0i64..1_000_000);
        (Just(vertices), prop::collection::vec(edge, 0..40))
            .prop_map(|(vertices, edges)| GraphSpec { vertices, edges })
    })
}

fn build(spec: &GraphSpec) -> Pag {
    let mut g = Pag::new(ViewKind::Parallel, "prop-graph");
    for (label, name, time, vec) in &spec.vertices {
        let v = g.add_vertex(*label, name.as_str());
        g.set_metric(v, mkeys::TIME, *time);
        if let Some(vec) = vec {
            g.set_metric_vec(v, mkeys::TIME_PER_PROC, vec.clone());
        }
    }
    for (a, b, label, bytes) in &spec.edges {
        let e = g.add_edge(VertexId(*a as u32), VertexId(*b as u32), *label);
        g.set_emetric_i64(e, mkeys::COMM_BYTES, *bytes);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode → decode is the identity on structure, labels and props.
    #[test]
    fn serialization_roundtrip(spec in arb_graph()) {
        let g = build(&spec);
        let bytes = pag::serialize::encode(&g);
        let h = pag::serialize::decode(&bytes).unwrap();
        prop_assert_eq!(h.num_vertices(), g.num_vertices());
        prop_assert_eq!(h.num_edges(), g.num_edges());
        prop_assert_eq!(h.view(), g.view());
        for v in g.vertex_ids() {
            prop_assert_eq!(h.vertex(v).label, g.vertex(v).label);
            prop_assert_eq!(h.vertex_name(v), g.vertex_name(v));
            prop_assert_eq!(h.vertex_time(v), g.vertex_time(v));
            let a = g.metric_vec(v, pag::mkeys::TIME_PER_PROC);
            let b = h.metric_vec(v, pag::mkeys::TIME_PER_PROC);
            prop_assert_eq!(a, b);
        }
        for e in g.edge_ids() {
            prop_assert_eq!(h.edge(e).src, g.edge(e).src);
            prop_assert_eq!(h.edge(e).dst, g.edge(e).dst);
            prop_assert_eq!(h.edge(e).label, g.edge(e).label);
        }
        // Encoding is deterministic.
        prop_assert_eq!(pag::serialize::encode(&h), bytes);
    }

    /// Decoding arbitrary bytes never panics (it may error).
    #[test]
    fn decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = pag::serialize::decode(&bytes);
    }

    /// Truncating a valid encoding never yields a *larger* graph and never
    /// panics.
    #[test]
    fn truncated_decode_never_panics(spec in arb_graph(), cut in 0usize..1000) {
        let g = build(&spec);
        let bytes = pag::serialize::encode(&g);
        let cut = cut.min(bytes.len());
        let _ = pag::serialize::decode(&bytes[..cut]);
    }

    /// Glob matching agrees with a simple reference matcher.
    #[test]
    fn glob_matches_reference(
        pattern in "[ab*]{0,6}",
        text in "[ab]{0,6}",
    ) {
        prop_assert_eq!(
            glob_match(&pattern, &text),
            reference_glob(pattern.as_bytes(), text.as_bytes()),
            "pattern={} text={}", pattern, text
        );
    }

    /// Full wildcards and exact patterns behave canonically.
    #[test]
    fn glob_canonical_cases(text in "[a-z]{0,10}") {
        prop_assert!(glob_match("*", &text));
        prop_assert!(glob_match(&text, &text));
        let prefix = format!("{text}*");
        let suffix = format!("*{text}");
        prop_assert!(glob_match(&prefix, &text));
        prop_assert!(glob_match(&suffix, &text));
    }

    /// VertexStats invariants: min ≤ mean ≤ max; imbalance ≥ 0; the
    /// argmax really is a maximum.
    #[test]
    fn stats_invariants(values in prop::collection::vec(0.0..1e6f64, 1..32)) {
        let s = VertexStats::from_slice(&values).unwrap();
        prop_assert!(s.min <= s.mean + 1e-9);
        prop_assert!(s.mean <= s.max + 1e-9);
        prop_assert!(s.imbalance() >= 0.0);
        prop_assert_eq!(values[s.argmax], s.max);
        prop_assert_eq!(values[s.argmin], s.min);
        prop_assert!(s.stddev >= 0.0);
    }
}

/// O(2^n) reference glob matcher (correct by construction).
fn reference_glob(pattern: &[u8], text: &[u8]) -> bool {
    match (pattern.first(), text.first()) {
        (None, None) => true,
        (Some(b'*'), _) => {
            reference_glob(&pattern[1..], text)
                || (!text.is_empty() && reference_glob(pattern, &text[1..]))
        }
        (Some(&p), Some(&t)) if p == t => reference_glob(&pattern[1..], &text[1..]),
        _ => false,
    }
}
