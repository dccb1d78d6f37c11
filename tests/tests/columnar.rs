//! Columnar-storage compatibility suite (ISSUE 7): PAG2 wire round-trips
//! under hostile inputs and the checked-in legacy PAG1 fixture.

use proptest::prelude::*;

use pag::serialize::{decode, encode, DecodeError};
use pag::{mkeys, EdgeId, EdgeLabel, Pag, VertexId, VertexLabel, ViewKind};

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

// ---------------------------------------------------------------- fixture

#[test]
fn pag1_fixture_still_decodes() {
    let g = decode(PAG1_FIXTURE).expect("legacy PAG1 snapshot must stay readable");
    assert_eq!((g.num_vertices(), g.num_edges()), (4, 3));
    assert_eq!((g.num_procs(), g.threads_per_proc()), (3, 2));
    assert_eq!(g.root(), Some(VertexId(0)));
    // Its metrics landed in the columnar store, its strings in `vstr`.
    assert_eq!(g.metric(VertexId(0), mkeys::TIME), Some(3.25));
    assert_eq!(g.metric_i64(VertexId(0), mkeys::COUNT), Some(7));
    let per_proc = g.metric_vec(VertexId(0), mkeys::TIME_PER_PROC).unwrap();
    assert_eq!((per_proc[0], per_proc[2]), (1.0, f64::INFINITY));
    assert!(per_proc[1].is_nan());
    assert_eq!(g.metric_i64(VertexId(1), mkeys::COMM_BYTES), Some(-9));
    assert_eq!(
        g.metric(VertexId(1), mkeys::WAIT_TIME),
        Some(f64::NEG_INFINITY)
    );
    assert_eq!(
        g.vstr(VertexId(1), pag::keys::DEBUG_INFO),
        Some("main.c:42")
    );
    let user = g.key_id("user-key ∆").expect("user key interned");
    assert_eq!(g.metric(VertexId(2), user), Some(0.5));
    assert_eq!(
        g.vstr(VertexId(2), "user-str"),
        Some("ünïcode \"quoted\"\nnewline")
    );
    let empty = g.key_id("empty-vec").expect("user vector key interned");
    assert_eq!(g.metric_vec(VertexId(3), empty), Some(&[][..]));
    assert_eq!(g.emetric_i64(EdgeId(0), mkeys::COMM_BYTES), Some(4096));
    assert_eq!(g.estr(EdgeId(0), "edge-str"), Some("weight\\label"));
    assert!(g.emetric(EdgeId(1), mkeys::WAIT_TIME).unwrap().is_nan());
    // The modern format round-trips the same graph.
    let v2 = encode(&g);
    let d2 = decode(&v2).unwrap();
    assert_eq!(encode(&d2), v2);
    for v in g.vertex_ids() {
        assert_eq!(
            format!("{:?}", d2.prop_entries(v)),
            format!("{:?}", g.prop_entries(v))
        );
    }
}

#[test]
fn pag1_fixture_with_trailing_bytes_is_rejected() {
    // Torn the other way: no prefix decodes (and none panics).
    for cut in 0..PAG1_FIXTURE.len() {
        assert!(
            decode(&PAG1_FIXTURE[..cut]).is_err(),
            "prefix {cut} decoded"
        );
    }
    let mut padded = PAG1_FIXTURE.to_vec();
    padded.push(0);
    match decode(&padded) {
        Err(DecodeError::TrailingBytes) => {}
        other => panic!("expected TrailingBytes, got {other:?}"),
    }
}
