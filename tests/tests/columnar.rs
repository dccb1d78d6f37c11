//! Columnar-storage compatibility suite (ISSUE 7): PAG2 wire round-trips
//! under hostile inputs.

use proptest::prelude::*;

use pag::serialize::{decode, encode};
use pag::{mkeys, EdgeLabel, Pag, VertexId, VertexLabel, ViewKind};

// --------------------------------------------------------------- proptests

/// Vertex names the wire format must survive: empty, quoted, unicode,
/// whitespace-laden, and plain identifier-ish ones.
fn arb_name() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        Just("with \"quotes\" and \\escapes".to_string()),
        Just("λ→graph ∀v".to_string()),
        Just("tab\there\nnewline".to_string()),
        "[a-zA-Z_][a-zA-Z0-9_.:]{0,12}",
    ]
}

/// Metric values including the non-finite corners.
fn arb_metric() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(0.0),
        0.0..1e7f64,
    ]
}

type VertexSpec = (String, Option<f64>, Option<i64>, Option<Vec<f64>>);

#[derive(Debug, Clone)]
struct GraphSpec {
    vertices: Vec<VertexSpec>,
    edges: Vec<(usize, usize)>,
}

fn arb_graph() -> impl Strategy<Value = GraphSpec> {
    let vertex = (
        arb_name(),
        prop::option::of(arb_metric()),
        prop::option::of(0i64..1_000_000),
        prop::option::of(prop::collection::vec(arb_metric(), 1..5)),
    );
    prop::collection::vec(vertex, 1..16).prop_flat_map(|vertices| {
        let n = vertices.len();
        (Just(vertices), prop::collection::vec((0..n, 0..n), 0..24))
            .prop_map(|(vertices, edges)| GraphSpec { vertices, edges })
    })
}

fn build(spec: &GraphSpec) -> Pag {
    let mut g = Pag::new(ViewKind::Parallel, "columnar-prop");
    for (name, time, count, vec) in &spec.vertices {
        let v = g.add_vertex(VertexLabel::Compute, name.as_str());
        if let Some(t) = time {
            g.set_metric(v, mkeys::TIME, *t);
        }
        if let Some(c) = count {
            g.set_metric_i64(v, mkeys::COUNT, *c);
        }
        if let Some(xs) = vec {
            g.set_metric_vec(v, mkeys::TIME_PER_PROC, xs.clone());
        }
    }
    for (a, b) in &spec.edges {
        g.add_edge(
            VertexId(*a as u32),
            VertexId(*b as u32),
            EdgeLabel::IntraProc,
        );
    }
    g
}

/// Bit-exact metric comparison (NaN-aware).
fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// PAG2 encode → decode preserves the graph exactly and re-encodes to
    /// the same bytes, even with hostile names, NaN/±inf metrics and
    /// absent columns.
    #[test]
    fn pag2_roundtrip(spec in arb_graph()) {
        let g = build(&spec);
        let v2 = encode(&g);
        let d2 = decode(&v2).unwrap();
        prop_assert_eq!(encode(&d2), v2);

        prop_assert_eq!(d2.num_vertices(), g.num_vertices());
        prop_assert_eq!(d2.num_edges(), g.num_edges());
        for v in g.vertex_ids() {
            prop_assert_eq!(d2.vertex_name(v), g.vertex_name(v));
            prop_assert!(same_bits(
                d2.metric_f64(v, mkeys::TIME),
                g.metric_f64(v, mkeys::TIME)
            ));
            prop_assert_eq!(
                d2.metric_i64(v, mkeys::COUNT),
                g.metric_i64(v, mkeys::COUNT)
            );
            let a = g.metric_vec(v, mkeys::TIME_PER_PROC);
            let b = d2.metric_vec(v, mkeys::TIME_PER_PROC);
            match (a, b) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    prop_assert_eq!(a.len(), b.len());
                    for (x, y) in a.iter().zip(b) {
                        prop_assert!(same_bits(*x, *y));
                    }
                }
                _ => prop_assert!(false, "vector column presence changed"),
            }
        }
    }
}
