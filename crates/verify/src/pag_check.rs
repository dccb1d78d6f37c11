//! PAG structural-invariant checker.
//!
//! Verifies a constructed Program Abstraction Graph against the
//! invariants the pass library (and the paper's Table 2 shape data) rely
//! on:
//!
//! * every edge endpoint is a real vertex (`PF0101`);
//! * the top-down view is a tree: a designated root (`PF0102`),
//!   `|E| = |V| - 1` (`PF0103`), and every vertex reachable from the
//!   root (`PF0104`);
//! * only intra-/inter-procedural edge labels appear in the top-down
//!   view (`PF0105`) — cross-flow edges belong to the parallel view;
//! * audited metrics (times, counts, PMU estimates, communication
//!   volumes) are finite and non-negative (`PF0106`);
//! * completeness metadata written by the degraded-collection path is a
//!   finite fraction in `[0, 1]` (`PF0107`) with per-process vectors of
//!   the right length (`PF0108`);
//! * the columnar metric store is internally consistent: every scalar
//!   column's presence bitmap matches its value count (`PF0111`) and no
//!   column exists for a `KeyId` the key table never interned
//!   (`PF0112`).
//!
//! Large PAGs can violate one rule at thousands of vertices, so
//! per-vertex findings are summarized: one diagnostic per (code, key)
//! naming the offender count and the first offender.

use pag::{keys, mkeys, KeyId, Pag, VertexId, ViewKind};

use crate::codes;
use crate::diag::{Anchor, Diagnostics, Severity};

/// Scalar metric keys that must be finite and non-negative wherever they
/// appear. `diff-time` is deliberately absent: differential analysis
/// legitimately produces negative deltas.
const SCALAR_AUDIT: &[KeyId] = &[
    mkeys::TIME,
    mkeys::SELF_TIME,
    mkeys::COUNT,
    mkeys::PMU_INSTRUCTIONS,
    mkeys::PMU_CYCLES,
    mkeys::PMU_CACHE_MISSES,
    mkeys::COMM_BYTES,
    mkeys::COMM_TIME,
    mkeys::WAIT_TIME,
];

/// Per-process vector keys whose every element must be finite and
/// non-negative.
const VECTOR_AUDIT: &[KeyId] = &[
    mkeys::TIME_PER_PROC,
    mkeys::BYTES_PER_PROC,
    mkeys::WAIT_PER_PROC,
];

fn vanchor(g: &Pag, v: VertexId) -> Anchor {
    Anchor::Vertex {
        id: v.0,
        name: g.vertex(v).name.to_string(),
    }
}

/// Check a PAG's structural invariants. The result is sorted and
/// deterministic; see the module docs for the rule set.
pub fn check_pag(g: &Pag) -> Diagnostics {
    let mut d = Diagnostics::new();
    let nv = g.num_vertices();

    // PF0101 — dangling edge endpoints. Edges failing this are excluded
    // from the traversal below (their adjacency entries cannot be
    // trusted).
    let mut edge_ok = vec![true; g.num_edges()];
    for e in g.edge_ids() {
        let ed = g.edge(e);
        if ed.src.index() >= nv || ed.dst.index() >= nv {
            edge_ok[e.index()] = false;
            let bad = if ed.src.index() >= nv { ed.src } else { ed.dst };
            d.push(
                codes::DANGLING_EDGE,
                Severity::Error,
                Anchor::Edge { id: e.0 },
                format!("edge endpoint {bad} is out of range (PAG has {nv} vertices)"),
            );
        }
    }

    if g.view() == ViewKind::TopDown {
        // PF0102 — a non-empty top-down PAG must designate its root.
        let root = g.root().filter(|r| r.index() < nv);
        if nv > 0 && root.is_none() {
            d.push(
                codes::NO_ROOT,
                Severity::Error,
                Anchor::Graph,
                "top-down PAG has no designated root vertex".to_string(),
            );
        }

        // PF0103 — tree invariant |E| = |V| - 1 (Table 2).
        if nv > 0 && g.num_edges() != nv - 1 {
            d.push(
                codes::TREE_VIOLATION,
                Severity::Error,
                Anchor::Graph,
                format!(
                    "top-down view must be a tree (|E| = |V| - 1) but has {} vertices and {} edges",
                    nv,
                    g.num_edges()
                ),
            );
        }

        // PF0104 — all vertices reachable from the root (summarized).
        if let Some(root) = root {
            let mut reach = vec![false; nv];
            reach[root.index()] = true;
            let mut stack = vec![root];
            while let Some(v) = stack.pop() {
                for &e in g.out_edges(v) {
                    if !edge_ok[e.index()] {
                        continue;
                    }
                    let dst = g.edge(e).dst;
                    if !reach[dst.index()] {
                        reach[dst.index()] = true;
                        stack.push(dst);
                    }
                }
            }
            let unrooted: Vec<VertexId> = g.vertex_ids().filter(|v| !reach[v.index()]).collect();
            if let Some(&first) = unrooted.first() {
                let sample: Vec<String> = unrooted
                    .iter()
                    .take(3)
                    .map(|&v| format!("`{}` ({v})", g.vertex(v).name))
                    .collect();
                d.push(
                    codes::UNROOTED_VERTEX,
                    Severity::Error,
                    vanchor(g, first),
                    format!(
                        "{} vertices are unreachable from root `{}`: {}{}",
                        unrooted.len(),
                        g.vertex(root).name,
                        sample.join(", "),
                        if unrooted.len() > 3 { ", …" } else { "" },
                    ),
                );
            }
        }

        // PF0105 — cross-flow (inter-process/inter-thread) edges are
        // illegal in the top-down view (summarized).
        let illegal: Vec<_> = g
            .edge_ids()
            .filter(|&e| edge_ok[e.index()] && g.edge(e).label.is_cross_flow())
            .collect();
        if let Some(&first) = illegal.first() {
            d.push(
                codes::ILLEGAL_EDGE_LABEL,
                Severity::Error,
                Anchor::Edge { id: first.0 },
                format!(
                    "{} `{}`-labeled edge(s) in the top-down view (first at {first}); \
                     cross-flow edges belong to the parallel view",
                    illegal.len(),
                    g.edge(first).label.name(),
                ),
            );
        }
    }

    // Columnar-store faults first: a corrupt presence bitmap makes every
    // value read on that column unreliable, so report the corruption
    // before the value audits below interpret what they see.
    audit_columns(g, &mut d);
    audit_metrics(g, &mut d);
    audit_completeness(g, &mut d);
    audit_truncation(g, &mut d);

    d.finish()
}

/// PF0111 / PF0112 — columnar-store invariants. The query layer and the
/// parallel graph algorithms read presence bitmaps word-at-a-time, so a
/// bitmap whose word count disagrees with its value count is memory
/// corruption waiting to be dereferenced; an orphan column (one whose
/// `KeyId` the key table never interned) can never be named by a pass or
/// a query and signals a serialization or mutation bug.
fn audit_columns(g: &Pag, d: &mut Diagnostics) {
    let known = g.key_table().len();
    for (columns, space) in [
        (g.vmetric_columns(), "vertex"),
        (g.emetric_columns(), "edge"),
    ] {
        for fault in columns.audit(known) {
            match fault {
                pag::ColumnFault::PresenceLen {
                    key,
                    data_len,
                    present_words,
                } => {
                    let expected = data_len.div_ceil(64);
                    let name = if key.index() < known {
                        format!("`{}`", g.key_name(key))
                    } else {
                        format!("key {}", key.0)
                    };
                    d.push(
                        codes::PRESENCE_SHAPE,
                        Severity::Error,
                        Anchor::Graph,
                        format!(
                            "{space} metric column {name} holds {data_len} value(s) but \
                             {present_words} presence word(s); expected {expected}"
                        ),
                    );
                }
                pag::ColumnFault::UnknownKey { key, column } => {
                    d.push(
                        codes::UNKNOWN_COLUMN_KEY,
                        Severity::Error,
                        Anchor::Graph,
                        format!(
                            "{space} {column} column exists for key {} but the key table \
                             only interns {known} key(s)",
                            key.0
                        ),
                    );
                }
            }
        }
    }
}

/// PF0106 — audited metrics must be finite and non-negative. One
/// summary diagnostic per offending key.
fn audit_metrics(g: &Pag, d: &mut Diagnostics) {
    // Columnar scan: one pass per audited key over its metric column,
    // never touching string keys or per-vertex property lists.
    for &key in SCALAR_AUDIT {
        let mut count = 0usize;
        let mut first: Option<(VertexId, f64)> = None;
        for v in g.vertex_ids() {
            if let Some(x) = g.metric(v, key) {
                if !x.is_finite() || x < 0.0 {
                    count += 1;
                    first.get_or_insert((v, x));
                }
            }
        }
        if let Some((v, x)) = first {
            let name = g.key_name(key);
            d.push(
                codes::BAD_METRIC,
                Severity::Warn,
                vanchor(g, v),
                format!(
                    "metric `{name}` is negative/NaN/infinite at {count} vertex(es); first: {x}"
                ),
            );
        }
    }
    for &key in VECTOR_AUDIT {
        let mut count = 0usize;
        let mut first: Option<(VertexId, f64)> = None;
        for v in g.vertex_ids() {
            if let Some(xs) = g.metric_vec(v, key) {
                if let Some(&x) = xs.iter().find(|x| !x.is_finite() || **x < 0.0) {
                    count += 1;
                    first.get_or_insert((v, x));
                }
            }
        }
        if let Some((v, x)) = first {
            let name = g.key_name(key);
            d.push(
                codes::BAD_METRIC,
                Severity::Warn,
                vanchor(g, v),
                format!(
                    "metric `{name}` is negative/NaN/infinite at {count} vertex(es); first: {x}"
                ),
            );
        }
    }
}

/// PF0107 / PF0108 — completeness metadata from the degraded-collection
/// path: a finite fraction in `[0, 1]`, with per-process vectors sized
/// `num_procs` and each element itself a valid fraction.
fn audit_completeness(g: &Pag, d: &mut Diagnostics) {
    let procs = g.num_procs() as usize;
    for v in g.vertex_ids() {
        if let Some(x) = g.metric(v, mkeys::COMPLETENESS) {
            if !x.is_finite() || !(0.0..=1.0).contains(&x) {
                d.push(
                    codes::BAD_COMPLETENESS,
                    Severity::Warn,
                    vanchor(g, v),
                    format!(
                        "`{}` is {x}, expected a finite fraction in [0, 1]",
                        keys::COMPLETENESS
                    ),
                );
            }
        }
        if let Some(xs) = g.metric_vec(v, mkeys::COMPLETENESS_PER_PROC) {
            if xs.len() != procs {
                d.push(
                    codes::COMPLETENESS_SHAPE,
                    Severity::Warn,
                    vanchor(g, v),
                    format!(
                        "`{}` has {} entries but the run has {procs} process(es)",
                        keys::COMPLETENESS_PER_PROC,
                        xs.len(),
                    ),
                );
            }
            if let Some(&x) = xs
                .iter()
                .find(|x| !x.is_finite() || !(0.0..=1.0).contains(*x))
            {
                d.push(
                    codes::BAD_COMPLETENESS,
                    Severity::Warn,
                    vanchor(g, v),
                    format!(
                        "`{}` contains {x}, expected finite fractions in [0, 1]",
                        keys::COMPLETENESS_PER_PROC,
                    ),
                );
            }
        }
    }
}

/// PF0110 — the observation behind this PAG was truncated: the span
/// recorder hit its cap and dropped spans, so the graph is knowingly
/// incomplete. Info-level: the data is still usable, just labeled.
fn audit_truncation(g: &Pag, d: &mut Diagnostics) {
    for v in g.vertex_ids() {
        if let Some(n) = g.metric(v, mkeys::DROPPED_SPANS) {
            if n > 0.0 {
                d.push(
                    codes::TRUNCATED_OBSERVATION,
                    Severity::Info,
                    vanchor(g, v),
                    format!(
                        "observation truncated: {n} span(s) dropped at the recorder's cap; \
                         this PAG under-reports the layers that were still running"
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pag::{CommKind, EdgeLabel, VertexLabel};

    fn tree() -> Pag {
        let mut g = Pag::new(ViewKind::TopDown, "t");
        let root = g.add_vertex(VertexLabel::Root, "main");
        let l = g.add_vertex(VertexLabel::Loop, "loop_1");
        let c = g.add_vertex(VertexLabel::Call(pag::CallKind::Comm), "MPI_Send");
        g.add_edge(root, l, EdgeLabel::IntraProc);
        g.add_edge(l, c, EdgeLabel::IntraProc);
        g.set_root(root);
        g
    }

    fn codes_of(d: &Diagnostics) -> Vec<&'static str> {
        d.items().iter().map(|x| x.code).collect()
    }

    #[test]
    fn well_formed_tree_is_clean() {
        let d = check_pag(&tree());
        assert!(d.is_empty(), "{}", d.render_text());
    }

    #[test]
    fn empty_pag_is_clean() {
        assert!(check_pag(&Pag::new(ViewKind::TopDown, "empty")).is_empty());
        assert!(check_pag(&Pag::new(ViewKind::Parallel, "empty")).is_empty());
    }

    #[test]
    fn pf0101_dangling_edge_endpoint() {
        let mut g = tree();
        // EdgeData exposes its endpoints; point one past the table.
        let e = pag::EdgeId(0);
        g.edge_mut(e).dst = VertexId(99);
        let d = check_pag(&g);
        let m = d
            .items()
            .iter()
            .find(|x| x.code == codes::DANGLING_EDGE)
            .unwrap();
        assert_eq!(m.severity, Severity::Error);
        assert!(m.message.contains("v99"), "{}", m.message);
        assert!(m.message.contains("3 vertices"), "{}", m.message);
    }

    #[test]
    fn pf0102_missing_root() {
        let mut g = Pag::new(ViewKind::TopDown, "t");
        g.add_vertex(VertexLabel::Function, "f");
        let d = check_pag(&g);
        assert!(codes_of(&d).contains(&codes::NO_ROOT));
    }

    #[test]
    fn pf0103_edge_count_breaks_tree_invariant() {
        let mut g = tree();
        // A second path to MPI_Send: |E| becomes |V|.
        g.add_edge(VertexId(0), VertexId(2), EdgeLabel::InterProc);
        let d = check_pag(&g);
        let m = d
            .items()
            .iter()
            .find(|x| x.code == codes::TREE_VIOLATION)
            .unwrap();
        assert!(
            m.message.contains("3 vertices and 3 edges"),
            "{}",
            m.message
        );
    }

    #[test]
    fn pf0104_unrooted_vertices_summarized() {
        let mut g = tree();
        g.add_vertex(VertexLabel::Compute, "orphan_a");
        g.add_vertex(VertexLabel::Compute, "orphan_b");
        let d = check_pag(&g);
        let m = d
            .items()
            .iter()
            .find(|x| x.code == codes::UNROOTED_VERTEX)
            .unwrap();
        assert!(m.message.starts_with("2 vertices"), "{}", m.message);
        assert!(m.message.contains("`orphan_a`"), "{}", m.message);
        assert!(m.message.contains("root `main`"), "{}", m.message);
        // The edge-count violation fires too (5 vertices, 2 edges).
        assert!(codes_of(&d).contains(&codes::TREE_VIOLATION));
    }

    #[test]
    fn pf0105_cross_flow_edge_in_top_down() {
        let mut g = tree();
        // Replace nothing; add an inter-process edge (also breaks the
        // edge count, which is fine — both must fire).
        g.add_edge(
            VertexId(2),
            VertexId(2),
            EdgeLabel::InterProcess(CommKind::Collective),
        );
        let d = check_pag(&g);
        let m = d
            .items()
            .iter()
            .find(|x| x.code == codes::ILLEGAL_EDGE_LABEL)
            .unwrap();
        assert!(m.message.contains("`collective`"), "{}", m.message);
        assert!(m.message.contains("e2"), "{}", m.message);
    }

    #[test]
    fn parallel_view_allows_cross_flow_edges() {
        let mut g = Pag::new(ViewKind::Parallel, "p");
        let a = g.add_vertex(VertexLabel::Call(pag::CallKind::Comm), "MPI_Send");
        let b = g.add_vertex(VertexLabel::Call(pag::CallKind::Comm), "MPI_Recv");
        g.add_edge(a, b, EdgeLabel::InterProcess(CommKind::P2pSync));
        let d = check_pag(&g);
        assert!(d.is_empty(), "{}", d.render_text());
    }

    #[test]
    fn pf0106_bad_metrics_summarized_per_key() {
        let mut g = tree();
        g.set_metric(VertexId(1), mkeys::TIME, -1.0);
        g.set_metric(VertexId(2), mkeys::TIME, f64::NAN);
        g.set_metric_vec(VertexId(2), mkeys::WAIT_PER_PROC, vec![0.5, f64::INFINITY]);
        // A legitimate negative differential must NOT fire.
        g.set_metric(VertexId(1), mkeys::DIFF_TIME, -0.25);
        let d = check_pag(&g);
        let bad: Vec<_> = d
            .items()
            .iter()
            .filter(|x| x.code == codes::BAD_METRIC)
            .collect();
        assert_eq!(bad.len(), 2, "{}", d.render_text());
        let time = bad.iter().find(|x| x.message.contains("`time`")).unwrap();
        assert!(time.message.contains("2 vertex(es)"), "{}", time.message);
        assert!(time.message.contains("first: -1"), "{}", time.message);
        assert!(bad.iter().any(|x| x.message.contains("`wait-per-proc`")));
    }

    #[test]
    fn pf0107_completeness_out_of_range() {
        let mut g = tree();
        g.set_metric(VertexId(0), mkeys::COMPLETENESS, 1.5);
        let d = check_pag(&g);
        let m = d
            .items()
            .iter()
            .find(|x| x.code == codes::BAD_COMPLETENESS)
            .unwrap();
        assert!(m.message.contains("1.5"), "{}", m.message);
    }

    #[test]
    fn pf0108_completeness_vector_wrong_length() {
        let mut g = tree();
        g.set_num_procs(4);
        g.set_metric_vec(VertexId(0), mkeys::COMPLETENESS_PER_PROC, vec![1.0, 1.0]);
        let d = check_pag(&g);
        let m = d
            .items()
            .iter()
            .find(|x| x.code == codes::COMPLETENESS_SHAPE)
            .unwrap();
        assert!(m.message.contains("2 entries"), "{}", m.message);
        assert!(m.message.contains("4 process(es)"), "{}", m.message);
        // Values themselves are valid fractions → no PF0107.
        assert!(!codes_of(&d).contains(&codes::BAD_COMPLETENESS));
    }

    #[test]
    fn valid_completeness_metadata_is_clean() {
        let mut g = tree();
        g.set_num_procs(2);
        g.set_metric(VertexId(0), mkeys::COMPLETENESS, 0.75);
        g.set_metric_vec(VertexId(0), mkeys::COMPLETENESS_PER_PROC, vec![1.0, 0.5]);
        assert!(check_pag(&g).is_empty());
    }

    #[test]
    fn pf0111_presence_bitmap_length_mismatch() {
        let mut g = tree();
        g.set_metric(VertexId(0), mkeys::TIME, 1.0);
        assert!(check_pag(&g).is_empty());
        // Simulate corruption: drop one presence word out from under the
        // `time` column's values.
        g.vmetric_columns_for_test()
            .corrupt_presence_for_test(mkeys::TIME);
        let d = check_pag(&g);
        let m = d
            .items()
            .iter()
            .find(|x| x.code == codes::PRESENCE_SHAPE)
            .unwrap();
        assert_eq!(m.severity, Severity::Error);
        assert!(m.message.contains("`time`"), "{}", m.message);
        assert!(m.message.contains("0 presence word(s)"), "{}", m.message);
        assert!(m.message.contains("expected 1"), "{}", m.message);
    }

    #[test]
    fn pf0112_column_for_uninterned_key() {
        let mut g = tree();
        // Write through a KeyId the key table never handed out.
        g.set_metric(VertexId(0), KeyId(999), 1.0);
        let d = check_pag(&g);
        let m = d
            .items()
            .iter()
            .find(|x| x.code == codes::UNKNOWN_COLUMN_KEY)
            .unwrap();
        assert_eq!(m.severity, Severity::Error);
        assert!(m.message.contains("key 999"), "{}", m.message);
        assert!(m.message.contains("scalar column"), "{}", m.message);
    }

    #[test]
    fn pf0110_truncated_observation_is_info() {
        let mut g = tree();
        g.set_metric_i64(VertexId(0), mkeys::DROPPED_SPANS, 17);
        let d = check_pag(&g);
        let m = d
            .items()
            .iter()
            .find(|x| x.code == codes::TRUNCATED_OBSERVATION)
            .unwrap();
        assert_eq!(m.severity, Severity::Info);
        assert!(m.message.contains("17"), "{}", m.message);
        // Info-level: the PAG still counts as clean for gating purposes.
        assert!(d.is_clean(), "{}", d.render_text());

        // Zero drops (complete observation) → no diagnostic at all.
        let mut g2 = tree();
        g2.set_metric_i64(VertexId(0), mkeys::DROPPED_SPANS, 0);
        assert!(check_pag(&g2).is_empty());
    }
}
