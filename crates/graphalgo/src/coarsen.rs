//! Graph coarsening: collapse groups of vertices into super-vertices.
//!
//! The parallel view replicates every snippet once per process/thread;
//! for visualization and coarse-grained analysis it is often useful to
//! collapse all replicas of a snippet back into one vertex while keeping
//! the aggregated cross-group edges — the graph-operation flavour of the
//! low-level API ("graph operations can … even transform the PAG",
//! §4.3.1).

use std::collections::HashMap;

use pag::{keys, mkeys, EdgeLabel, Pag, VertexId};

/// Collapse vertices into super-vertices according to `group_of` (same
/// key → same super-vertex; `None` drops the vertex). Numeric `time`,
/// `wait-time` and `count` properties are summed; intra-group edges
/// become self-loops only if `keep_self_loops`; parallel inter-group
/// edges are merged with wait/count accumulation.
pub fn coarsen(
    g: &Pag,
    group_of: impl Fn(VertexId) -> Option<i64>,
    keep_self_loops: bool,
) -> (Pag, HashMap<i64, VertexId>) {
    let mut out = Pag::new(g.view(), format!("{}:coarse", g.name()));
    out.set_num_procs(g.num_procs());
    out.set_threads_per_proc(g.threads_per_proc());
    let mut group_vertex: HashMap<i64, VertexId> = HashMap::new();

    // Pass 1: create super-vertices and accumulate vertex metrics.
    for v in g.vertex_ids() {
        let Some(key) = group_of(v) else { continue };
        let data = g.vertex(v);
        let sv = *group_vertex
            .entry(key)
            .or_insert_with(|| out.add_vertex(data.label, data.name.clone()));
        for metric in [mkeys::TIME, mkeys::WAIT_TIME, mkeys::SELF_TIME] {
            let x = g.metric_f64(v, metric);
            if x != 0.0 {
                out.add_metric(sv, metric, x);
            }
        }
        if let Some(c) = g.metric_i64(v, mkeys::COUNT) {
            out.add_metric_i64(sv, mkeys::COUNT, c);
        }
        if let Some(d) = g.vstr(v, keys::DEBUG_INFO) {
            if out.vstr(sv, keys::DEBUG_INFO).is_none() {
                out.set_vstr(sv, keys::DEBUG_INFO, d);
            }
        }
    }

    // Pass 2: merge edges between super-vertices.
    struct EAgg {
        label: EdgeLabel,
        wait: f64,
        count: i64,
    }
    let mut eaggs: HashMap<(VertexId, VertexId, u8), EAgg> = HashMap::new();
    let label_tag = |l: EdgeLabel| -> u8 {
        match l {
            EdgeLabel::IntraProc => 0,
            EdgeLabel::InterProc => 1,
            EdgeLabel::InterThread => 2,
            EdgeLabel::InterProcess(_) => 3,
        }
    };
    for e in g.edge_ids() {
        let ed = g.edge(e);
        let (Some(ks), Some(kd)) = (group_of(ed.src), group_of(ed.dst)) else {
            continue;
        };
        let (Some(&sv), Some(&dv)) = (group_vertex.get(&ks), group_vertex.get(&kd)) else {
            continue;
        };
        if sv == dv && !keep_self_loops {
            continue;
        }
        let agg = eaggs.entry((sv, dv, label_tag(ed.label))).or_insert(EAgg {
            label: ed.label,
            wait: 0.0,
            count: 0,
        });
        agg.wait += g.emetric_f64(e, mkeys::WAIT_TIME);
        agg.count += g.emetric_i64(e, mkeys::COUNT).unwrap_or(1);
    }
    let mut pairs: Vec<((VertexId, VertexId, u8), EAgg)> = eaggs.into_iter().collect();
    pairs.sort_by_key(|&((a, b, t), _)| (a, b, t));
    for ((sv, dv, _), agg) in pairs {
        let e = out.add_edge(sv, dv, agg.label);
        out.set_emetric(e, mkeys::WAIT_TIME, agg.wait);
        out.set_emetric_i64(e, mkeys::COUNT, agg.count);
    }
    (out, group_vertex)
}

/// Collapse a parallel view back onto its top-down skeleton: group by the
/// `topdown-vertex` property.
pub fn coarsen_parallel_by_topdown(g: &Pag) -> (Pag, HashMap<i64, VertexId>) {
    coarsen(g, |v| g.metric_i64(v, mkeys::TOPDOWN_VERTEX), false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pag::{CommKind, VertexLabel, ViewKind};

    /// Two flows of 2 vertices each (A,B) × ranks {0,1} + a cross edge.
    fn mini_parallel() -> Pag {
        let mut g = Pag::new(ViewKind::Parallel, "pv");
        let mut ids = Vec::new();
        for rank in 0..2i64 {
            for (td, name, t) in [(0i64, "A", 1.0), (1i64, "B", 2.0)] {
                let v = g.add_vertex(VertexLabel::Compute, name);
                g.set_metric_i64(v, mkeys::TOPDOWN_VERTEX, td);
                g.set_metric_i64(v, mkeys::PROC, rank);
                g.set_metric(v, mkeys::TIME, t * (rank + 1) as f64);
                ids.push(v);
            }
        }
        // Flow edges A→B per rank; cross edge B@0 → A@1.
        g.add_edge(ids[0], ids[1], EdgeLabel::IntraProc);
        g.add_edge(ids[2], ids[3], EdgeLabel::IntraProc);
        let ce = g.add_edge(ids[1], ids[2], EdgeLabel::InterProcess(CommKind::P2pAsync));
        g.set_emetric(ce, mkeys::WAIT_TIME, 5.0);
        g
    }

    #[test]
    fn collapses_replicas_and_sums_metrics() {
        let g = mini_parallel();
        let (c, groups) = coarsen_parallel_by_topdown(&g);
        assert_eq!(c.num_vertices(), 2);
        let a = groups[&0];
        let b = groups[&1];
        assert_eq!(c.vertex_name(a), "A");
        assert_eq!(c.vertex_time(a), 1.0 + 2.0); // ranks 0+1
        assert_eq!(c.vertex_time(b), 2.0 + 4.0);
    }

    #[test]
    fn merges_parallel_edges_and_drops_self_loops() {
        let g = mini_parallel();
        let (c, groups) = coarsen_parallel_by_topdown(&g);
        // Two intra A→B edges merge into one; B→A cross edge kept.
        assert_eq!(c.num_edges(), 2);
        let a = groups[&0];
        let b = groups[&1];
        let ab = c
            .out_edges(a)
            .iter()
            .copied()
            .find(|&e| c.edge(e).dst == b)
            .unwrap();
        assert_eq!(c.emetric_i64(ab, mkeys::COUNT), Some(2));
        let ba = c
            .out_edges(b)
            .iter()
            .copied()
            .find(|&e| c.edge(e).dst == a)
            .unwrap();
        assert_eq!(c.emetric_f64(ba, mkeys::WAIT_TIME), 5.0);
    }

    #[test]
    fn self_loops_kept_when_requested() {
        let mut g = mini_parallel();
        // Add an edge between two replicas of the same snippet.
        let a0 = VertexId(0);
        let a1 = VertexId(2);
        g.add_edge(a0, a1, EdgeLabel::InterThread);
        let (no_loops, _) = coarsen_parallel_by_topdown(&g);
        let (with_loops, groups) = coarsen(&g, |v| g.metric_i64(v, mkeys::TOPDOWN_VERTEX), true);
        assert_eq!(no_loops.num_edges() + 1, with_loops.num_edges());
        let a = groups[&0];
        assert!(with_loops
            .out_edges(a)
            .iter()
            .any(|&e| with_loops.edge(e).dst == a));
    }

    #[test]
    fn dropping_groups_drops_their_edges() {
        let g = mini_parallel();
        // Keep only group 0.
        let (c, _) = coarsen(
            &g,
            |v| g.metric_i64(v, mkeys::TOPDOWN_VERTEX).filter(|&t| t == 0),
            false,
        );
        assert_eq!(c.num_vertices(), 1);
        assert_eq!(c.num_edges(), 0);
    }
}
