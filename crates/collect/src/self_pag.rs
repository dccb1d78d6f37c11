//! Obs→PAG adapter: lift PerFlow's *own* recorded telemetry into a
//! Program Abstraction Graph, so the engine's execution is analyzed by
//! the same passes it applies to target programs ("PerFlow-on-PerFlow").
//!
//! The mapping mirrors §3 of the paper, with the observed engine playing
//! the role of the profiled application:
//!
//! | telemetry concept            | PAG concept                           |
//! |------------------------------|---------------------------------------|
//! | recorded span                | vertex carrying wall time (µs)        |
//! | span nesting (containment)   | intra-procedural tree edge            |
//! | pipeline layer (`obs::Layer`)| function-level vertex under the root  |
//! | (layer, lane) pair           | a *flow* of the parallel view         |
//! | span-cap truncation          | `dropped-spans` + completeness on root|
//!
//! **Top-down view**: a tree rooted at a synthetic `perflow` vertex, one
//! child per observed layer, then one vertex per distinct span *path*
//! (nesting chain of span names) aggregated across lanes. Interior paths
//! are `Function` vertices, leaves are `Compute`, so the critical-path
//! pass weighs real work and not enclosing phases twice. Every vertex
//! has exactly one parent edge — `|E| = |V| − 1` holds by construction
//! and the result passes `verify::check_pag`.
//!
//! **Parallel view**: one flow per (layer, lane) — scheduler worker
//! lanes, simulator rank lanes — each a chain of per-flow path vertices.
//! `proc` is the global flow index and `topdown-vertex` links each
//! replica to its top-down vertex, which is exactly what the imbalance
//! pass groups by; worker-lane imbalance therefore falls out of the
//! existing pass unmodified.
//!
//! Span nesting comes from [`obs::walk_span_nesting`], the walk the
//! folded-stack exporter folds too, so the PAG and the flamegraph cannot
//! disagree on which span encloses which.

use std::collections::BTreeMap;

use obs::{Layer, Obs};
use pag::{mkeys, EdgeLabel, Pag, VertexId, VertexLabel, ViewKind};

/// A span path: the chain of span names from a layer's outermost span
/// down to this one.
type Path = Vec<String>;

/// Aggregated statistics for one span path (top-down: across lanes;
/// parallel: per flow).
#[derive(Default)]
struct PathStat {
    /// Inclusive wall time, µs.
    incl_us: f64,
    /// Self wall time (inclusive minus direct children), µs.
    self_us: f64,
    /// Number of span instances.
    count: u64,
    /// True when some instance contained a nested span.
    has_children: bool,
}

/// The self-analysis PAG pair built from a recorded [`Obs`] trace.
pub struct SelfPag {
    /// Top-down view: `perflow` root → layer vertices → span-path tree.
    pub topdown: Pag,
    /// Parallel view: one flow per (layer, lane).
    pub parallel: Pag,
    /// The flows of the parallel view, in `proc` index order.
    pub flows: Vec<(&'static str, u32)>,
    /// Spans lost at the recorder's cap (also stamped on the root).
    pub dropped_spans: u64,
}

/// Build the self-analysis PAG pair from a recorded trace. Deterministic
/// for a given span set (the trace itself is sorted and all aggregation
/// uses ordered maps). An empty or disabled handle yields a root-only
/// top-down view and an empty parallel view.
pub fn build_self_pag(obs: &Obs) -> SelfPag {
    let spans = obs.spans();
    let dropped = obs.dropped_spans();

    let mut td_stats: BTreeMap<(Layer, Path), PathStat> = BTreeMap::new();
    let mut fl_stats: BTreeMap<(Layer, u32, Path), PathStat> = BTreeMap::new();
    obs::walk_span_nesting(&spans, |n| {
        let (layer, lane) = (n.span.layer, n.span.lane);
        let path: Path = n
            .ancestors
            .iter()
            .chain([&n.span])
            .map(|s| s.name.to_string())
            .collect();
        for stat in [
            td_stats.entry((layer, path.clone())).or_default(),
            fl_stats.entry((layer, lane, path)).or_default(),
        ] {
            stat.incl_us += n.span.dur_us;
            stat.self_us += n.self_us;
            stat.count += 1;
            stat.has_children |= n.has_children;
        }
    });

    // The flows, one per (layer, lane) that recorded a span, and the
    // lanes per layer in lane order (positions of TIME_PER_PROC).
    let mut flows: Vec<(Layer, u32)> = fl_stats.keys().map(|&(l, ln, _)| (l, ln)).collect();
    flows.dedup();
    let mut layer_lanes: BTreeMap<Layer, Vec<u32>> = BTreeMap::new();
    for &(layer, lane) in &flows {
        layer_lanes.entry(layer).or_default().push(lane);
    }

    // ---- Top-down view -------------------------------------------------
    let mut td = Pag::new(ViewKind::TopDown, "perflow:self");
    let root = td.add_vertex(VertexLabel::Root, "perflow");
    td.set_root(root);
    if dropped > 0 {
        let stored = spans.len() as f64;
        td.set_metric_i64(root, mkeys::DROPPED_SPANS, dropped as i64);
        td.set_metric(
            root,
            mkeys::COMPLETENESS,
            stored / (stored + dropped as f64),
        );
    }

    // Layer vertices: aggregate of that layer's top-level paths.
    let mut layer_vertex: BTreeMap<Layer, VertexId> = BTreeMap::new();
    for (&layer, lanes) in &layer_lanes {
        let v = td.add_vertex(VertexLabel::Function, layer.name());
        td.add_edge(root, v, EdgeLabel::IntraProc);
        let mut per_lane = vec![0.0; lanes.len()];
        let mut total = 0.0;
        for ((l, lane, path), stat) in &fl_stats {
            if *l == layer && path.len() == 1 {
                let pos = lanes.iter().position(|x| x == lane).unwrap();
                per_lane[pos] += stat.incl_us;
                total += stat.incl_us;
            }
        }
        td.set_metric(v, mkeys::TIME, total);
        td.set_metric(v, mkeys::SELF_TIME, 0.0);
        td.set_metric_vec(v, mkeys::TIME_PER_PROC, per_lane);
        layer_vertex.insert(layer, v);
    }

    // Path vertices. BTreeMap order guarantees a parent path (a strict
    // prefix) is visited before its children, so the parent lookup never
    // misses.
    let mut path_vertex: BTreeMap<(Layer, Path), VertexId> = BTreeMap::new();
    for ((layer, path), stat) in &td_stats {
        let label = if stat.has_children {
            VertexLabel::Function
        } else {
            VertexLabel::Compute
        };
        let v = td.add_vertex(label, path.last().unwrap().as_str());
        let parent = if path.len() == 1 {
            layer_vertex[layer]
        } else {
            path_vertex[&(*layer, path[..path.len() - 1].to_vec())]
        };
        td.add_edge(parent, v, EdgeLabel::IntraProc);
        td.set_metric(v, mkeys::TIME, stat.incl_us);
        td.set_metric(v, mkeys::SELF_TIME, stat.self_us);
        td.set_metric_i64(v, mkeys::COUNT, stat.count as i64);
        let lanes = &layer_lanes[layer];
        let mut per_lane = vec![0.0; lanes.len()];
        for (pos, lane) in lanes.iter().enumerate() {
            if let Some(fs) = fl_stats.get(&(*layer, *lane, path.clone())) {
                per_lane[pos] = fs.incl_us;
            }
        }
        td.set_metric_vec(v, mkeys::TIME_PER_PROC, per_lane);
        path_vertex.insert((*layer, path.clone()), v);
    }

    // ---- Parallel view -------------------------------------------------
    let mut pv = Pag::new(ViewKind::Parallel, "perflow:self:parallel");
    pv.set_num_procs(flows.len() as u32);
    for (proc, &(layer, lane)) in flows.iter().enumerate() {
        let fr = pv.add_vertex(
            VertexLabel::Function,
            format!("{}[lane{lane}]", layer.name()).as_str(),
        );
        if proc == 0 {
            pv.set_root(fr);
        }
        pv.set_metric_i64(fr, mkeys::PROC, proc as i64);
        pv.set_metric_i64(fr, mkeys::THREAD, 0);
        pv.set_metric_i64(fr, mkeys::TOPDOWN_VERTEX, layer_vertex[&layer].0 as i64);
        let mut flow_total = 0.0;
        let mut prev = fr;
        for ((l, ln, path), stat) in &fl_stats {
            if (*l, *ln) != (layer, lane) {
                continue;
            }
            if path.len() == 1 {
                flow_total += stat.incl_us;
            }
            let tdv = path_vertex[&(*l, path.clone())];
            let label = td.vertex(tdv).label;
            let v = pv.add_vertex(label, path.last().unwrap().as_str());
            pv.set_metric_i64(v, mkeys::PROC, proc as i64);
            pv.set_metric_i64(v, mkeys::THREAD, 0);
            pv.set_metric_i64(v, mkeys::TOPDOWN_VERTEX, tdv.0 as i64);
            pv.set_metric(v, mkeys::TIME, stat.incl_us);
            pv.set_metric(v, mkeys::SELF_TIME, stat.self_us);
            pv.set_metric_i64(v, mkeys::COUNT, stat.count as i64);
            pv.add_edge(prev, v, EdgeLabel::IntraProc);
            prev = v;
        }
        pv.set_metric(fr, mkeys::TIME, flow_total);
    }

    SelfPag {
        topdown: td,
        parallel: pv,
        flows: flows
            .into_iter()
            .map(|(layer, lane)| (layer.name(), lane))
            .collect(),
        dropped_spans: dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(obs: &Obs, layer: Layer, name: &'static str, lane: u32, s: f64, e: f64) {
        obs.record_span(layer, name, lane, s, e, &[]);
    }

    fn sample_obs() -> Obs {
        let obs = Obs::enabled();
        // Core: two worker lanes running passes under a schedule span.
        record(&obs, Layer::Core, "schedule", 0, 0.0, 100.0);
        record(&obs, Layer::Core, "pass:hotspot", 0, 10.0, 40.0);
        record(&obs, Layer::Core, "pass:imbalance", 1, 0.0, 90.0);
        // Collect: one lane.
        record(&obs, Layer::Collect, "embed", 0, 0.0, 50.0);
        record(&obs, Layer::Collect, "embed.rank", 0, 5.0, 25.0);
        obs
    }

    #[test]
    fn topdown_is_a_rooted_tree() {
        let sp = build_self_pag(&sample_obs());
        let td = &sp.topdown;
        // root + 2 layers + 5 distinct paths.
        assert_eq!(td.num_vertices(), 1 + 2 + 5);
        assert_eq!(td.num_edges(), td.num_vertices() - 1);
        assert_eq!(
            td.root().map(|r| td.vertex_name(r).to_string()).as_deref(),
            Some("perflow")
        );
        assert!(verify::check_pag(td).is_clean());
    }

    #[test]
    fn nesting_becomes_edges_with_self_time() {
        let sp = build_self_pag(&sample_obs());
        let td = &sp.topdown;
        let sched = td.find_by_name("schedule")[0];
        let hot = td.find_by_name("pass:hotspot")[0];
        // schedule → pass:hotspot edge exists.
        assert!(td.out_neighbors(sched).any(|v| v == hot));
        assert_eq!(td.metric(sched, mkeys::TIME), Some(100.0));
        // schedule self time excludes the nested hotspot pass.
        assert_eq!(td.metric(sched, mkeys::SELF_TIME), Some(70.0));
        assert_eq!(td.vertex(sched).label, VertexLabel::Function);
        assert_eq!(td.vertex(hot).label, VertexLabel::Compute);
    }

    #[test]
    fn lanes_become_flows_with_topdown_links() {
        let sp = build_self_pag(&sample_obs());
        assert_eq!(sp.flows, vec![("collect", 0), ("core", 0), ("core", 1)]);
        let pv = &sp.parallel;
        assert_eq!(pv.num_procs(), 3);
        assert!(verify::check_pag(pv).is_clean());
        // The two core flows link to the same top-down layer vertex.
        let core_roots = pv.find_by_name("core[lane*]");
        assert_eq!(core_roots.len(), 2);
        let links: Vec<_> = core_roots
            .iter()
            .map(|&v| pv.metric_i64(v, mkeys::TOPDOWN_VERTEX))
            .collect();
        assert_eq!(links[0], links[1]);
        // Lane imbalance data: lane1 (90µs) vs lane0 (100µs total).
        let t: Vec<f64> = core_roots.iter().map(|&v| pv.vertex_time(v)).collect();
        assert!(t.contains(&100.0) && t.contains(&90.0), "{t:?}");
    }

    #[test]
    fn truncation_is_stamped_and_flagged() {
        let obs = Obs::enabled_with_cap(2);
        for i in 0..5 {
            obs.record_span(Layer::Core, "s", 0, i as f64, i as f64 + 1.0, &[]);
        }
        let sp = build_self_pag(&obs);
        assert_eq!(sp.dropped_spans, 3);
        let root = sp.topdown.root().unwrap();
        assert_eq!(sp.topdown.metric_i64(root, mkeys::DROPPED_SPANS), Some(3));
        let d = verify::check_pag(&sp.topdown);
        assert!(d
            .items()
            .iter()
            .any(|x| x.code == verify::codes::TRUNCATED_OBSERVATION));
        // Info-level only: still clean.
        assert!(d.is_clean());
    }

    #[test]
    fn empty_trace_yields_root_only() {
        let sp = build_self_pag(&Obs::disabled());
        assert_eq!(sp.topdown.num_vertices(), 1);
        assert_eq!(sp.parallel.num_vertices(), 0);
        assert!(verify::check_pag(&sp.topdown).is_clean());
        assert!(verify::check_pag(&sp.parallel).is_clean());
    }

    #[test]
    fn build_is_deterministic() {
        let a = build_self_pag(&sample_obs());
        let b = build_self_pag(&sample_obs());
        assert_eq!(a.topdown.num_vertices(), b.topdown.num_vertices());
        let names_a: Vec<_> = a
            .topdown
            .vertex_ids()
            .map(|v| a.topdown.vertex_name(v).to_string())
            .collect();
        let names_b: Vec<_> = b
            .topdown
            .vertex_ids()
            .map(|v| b.topdown.vertex_name(v).to_string())
            .collect();
        assert_eq!(names_a, names_b);
    }
}
