//! Columnar-storage compatibility suite (ISSUE 7): PAG1 → PAG2 wire
//! round-trips under hostile inputs, the checked-in legacy fixture, and
//! shim-vs-typed write identity.

use proptest::prelude::*;

use pag::serialize::{decode, encode, encode_v1, DecodeError};
use pag::{keys, mkeys, EdgeLabel, Pag, VertexId, VertexLabel, ViewKind};

/// A legacy PAG1 snapshot checked in before the columnar migration.
/// Readers must keep accepting it forever.
const PAG1_FIXTURE: &[u8] = include_bytes!("../fixtures/sample_pag1.bin");

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

    /// PAG1 → decode → PAG2 → decode preserves the graph exactly, even
    /// with hostile names, NaN/±inf metrics and absent columns.
    #[test]
    fn pag1_to_pag2_roundtrip(spec in arb_graph()) {
        let g = build(&spec);
        let v1 = encode_v1(&g);
        let d1 = decode(&v1).unwrap();
        // The legacy encoding of the decoded graph is byte-stable.
        prop_assert_eq!(encode_v1(&d1), v1);

        let v2 = encode(&d1);
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

    /// The string-keyed shim and the typed accessors address one store:
    /// writing the same logical graph through either API yields
    /// byte-identical encodings in both wire formats.
    #[test]
    fn shim_and_typed_writes_are_one_store(spec in arb_graph()) {
        let typed = build(&spec);
        let mut shim = Pag::new(ViewKind::Parallel, "columnar-prop");
        for (name, time, count, vec) in &spec.vertices {
            let v = shim.add_vertex(VertexLabel::Compute, name.as_str());
            if let Some(t) = time {
                shim.set_vprop(v, keys::TIME, *t);
            }
            if let Some(c) = count {
                shim.set_vprop(v, keys::COUNT, *c);
            }
            if let Some(xs) = vec {
                shim.set_vprop(v, keys::TIME_PER_PROC, xs.clone());
            }
        }
        for (a, b) in &spec.edges {
            shim.add_edge(
                VertexId(*a as u32),
                VertexId(*b as u32),
                EdgeLabel::IntraProc,
            );
        }
        prop_assert_eq!(encode(&shim), encode(&typed));
        prop_assert_eq!(encode_v1(&shim), encode_v1(&typed));
        for v in typed.vertex_ids() {
            // Reads agree in both directions too.
            let via_shim = shim.metric_f64(v, mkeys::TIME);
            let via_typed = typed
                .vprop(v, keys::TIME)
                .and_then(|p| p.as_f64())
                .unwrap_or(0.0);
            prop_assert!(same_bits(via_shim, via_typed));
        }
    }
}

// ---------------------------------------------------------------- fixture

#[test]
fn pag1_fixture_still_decodes() {
    let g = decode(PAG1_FIXTURE).expect("legacy PAG1 snapshot must stay readable");
    assert!(g.num_vertices() > 0, "fixture is not empty");
    // Its metrics landed in the columnar store.
    let total: f64 = g.vertex_ids().map(|v| g.metric_f64(v, mkeys::TIME)).sum();
    assert!(total > 0.0, "fixture carries time metrics");
    // Decode → legacy re-encode reproduces the snapshot byte for byte.
    assert_eq!(
        encode_v1(&g),
        PAG1_FIXTURE,
        "encode_v1 must stay byte-identical to the pre-columnar encoder"
    );
    // And the modern format round-trips the same graph.
    let d2 = decode(&encode(&g)).unwrap();
    assert_eq!(encode_v1(&d2), PAG1_FIXTURE);
}

#[test]
fn pag1_fixture_with_trailing_bytes_is_rejected() {
    let mut padded = PAG1_FIXTURE.to_vec();
    padded.push(0);
    match decode(&padded) {
        Err(DecodeError::TrailingBytes) => {}
        other => panic!("expected TrailingBytes, got {other:?}"),
    }
}
