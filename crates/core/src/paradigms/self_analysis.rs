//! Self-analysis paradigm: PerFlow profiling PerFlow.
//!
//! A recorded [`Obs`] trace of the engine's own execution is lifted into
//! a PAG pair by `collect::self_pag` and fed through the same pass
//! library used on target programs:
//!
//! ```text
//! self top-down  ──► hotspot(self-time) ──┐
//!                                          ├──► report
//! self parallel  ──► imbalance ────────────┘
//! ```
//!
//! Hotspots run over *self* time so a long enclosing phase does not
//! shadow the work inside it; imbalance runs on the parallel view whose
//! flows are (layer, lane) pairs, so lagging scheduler workers or
//! simulator rank lanes surface through the stock imbalance pass.

use std::sync::Arc;

use collect::{build_self_pag, SelfPag};
use obs::Obs;
use pag::{keys, mkeys, Pag, VertexId};

use crate::builder::GraphBuilder;
use crate::dataflow::PerFlowGraph;
use crate::error::PerFlowError;
use crate::graphref::GraphRef;
use crate::passes::{HotspotPass, ImbalancePass, ReportPass};
use crate::report::Report;
use crate::set::VertexSet;
use verify::{check_pag, Diagnostics};

/// The built-in self-analysis PerFlowGraph:
/// `topdown → hotspot(self-time)`, `parallel → imbalance`, joined into
/// one report.
pub fn self_analysis_graph(
    topdown: VertexSet,
    parallel: VertexSet,
) -> Result<PerFlowGraph, PerFlowError> {
    let b = GraphBuilder::new();
    let hot = b.source(topdown).then(HotspotPass {
        metric: keys::SELF_TIME.to_string(),
        n: 10,
    });
    let imb = b.source(parallel).then(ImbalancePass { threshold: 0.1 });
    let report = ReportPass::new(
        "self analysis (PerFlow on PerFlow)",
        &["name", "label", "time", "score", "proc"],
        2,
    );
    b.join(report, &[hot, imb]);
    b.finish()
}

/// Everything the self-analysis produces.
pub struct SelfAnalysisResult {
    /// The self-PAG pair the passes ran on.
    pub pag: SelfPag,
    /// The executed report.
    pub report: Report,
    /// `check_pag` findings for both views (merged; clean on healthy
    /// traces, `PF0110` info entries when the span cap truncated the
    /// observation).
    pub diagnostics: Diagnostics,
    /// Hottest spans by engine self time: `(layer, span path, self µs)`,
    /// hottest first.
    pub hotspots: Vec<(String, String, f64)>,
    /// Lane flows lagging their replica group: `(flow name, % above
    /// group mean)`, worst first.
    pub lagging_lanes: Vec<(String, f64)>,
}

impl SelfAnalysisResult {
    /// Render the human-readable self-analysis report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "self-analysis: PerFlow profiled by PerFlow");
        match self.hotspots.first() {
            Some((layer, name, us)) => {
                let _ = writeln!(
                    out,
                    "hottest engine span: [{layer}] {name} ({us:.1} µs self time)"
                );
            }
            None => {
                let _ = writeln!(out, "hottest engine span: (no spans recorded)");
            }
        }
        for (layer, name, us) in self.hotspots.iter().skip(1).take(4) {
            let _ = writeln!(out, "  then: [{layer}] {name} ({us:.1} µs)");
        }
        if self.lagging_lanes.is_empty() {
            let _ = writeln!(
                out,
                "worker lanes: balanced (no lane ≥10% above its group mean)"
            );
        } else {
            let _ = writeln!(out, "worker-lane imbalance:");
            for (lane, pct) in &self.lagging_lanes {
                let _ = writeln!(out, "  {lane}: {pct:.0}% above group mean");
            }
        }
        out.push('\n');
        out.push_str(&self.report.render());
        if !self.diagnostics.is_empty() {
            out.push('\n');
            out.push_str(&self.diagnostics.render_text());
        }
        out
    }
}

/// The layer a top-down self-PAG vertex belongs to: the name of its
/// ancestor directly below the root.
fn layer_of(td: &Pag, v: VertexId) -> String {
    let root = td.root();
    let mut cur = v;
    loop {
        match td.in_neighbors(cur).next() {
            Some(p) if Some(p) == root => return td.vertex_name(cur).to_string(),
            Some(p) => cur = p,
            None => return td.vertex_name(cur).to_string(),
        }
    }
}

/// Full span path of a top-down self-PAG vertex, `;`-joined, excluding
/// the root and the layer vertex.
fn path_of(td: &Pag, v: VertexId) -> String {
    let root = td.root();
    let mut names = Vec::new();
    let mut cur = v;
    loop {
        match td.in_neighbors(cur).next() {
            Some(p) if Some(p) == root => break,
            Some(p) => {
                names.push(td.vertex_name(cur).to_string());
                cur = p;
            }
            None => break,
        }
    }
    names.reverse();
    names.join(";")
}

/// Run the built-in self-analysis over a recorded trace: build the
/// self-PAG, verify it, execute the paradigm graph, and distill the
/// headline findings.
pub fn self_analysis(trace: &Obs) -> Result<SelfAnalysisResult, PerFlowError> {
    let sp = build_self_pag(trace);
    let mut diagnostics = check_pag(&sp.topdown);
    diagnostics.merge(check_pag(&sp.parallel));

    let td = Arc::new(sp.topdown);
    let pv = Arc::new(sp.parallel);
    let td_ref = GraphRef::Detached(Arc::clone(&td));
    let pv_ref = GraphRef::Detached(Arc::clone(&pv));
    // ImbalancePass dispatches on the PAG's view kind, so the detached
    // parallel view still gets the flow-replica grouping.
    let graph = self_analysis_graph(td_ref.all_vertices(), pv_ref.all_vertices())?;
    let out = graph.execute()?;

    let mut hotspots: Vec<(String, String, f64)> = Vec::new();
    if let Some(set) = graph
        .find("hotspot_detection")
        .and_then(|n| out.vertices(n))
    {
        for &v in &set.ids {
            let self_us = set.graph.pag().metric(v, mkeys::SELF_TIME).unwrap_or(0.0);
            // The root and layer vertices carry zero self time; a span
            // with no exclusive work is not a hotspot either.
            if self_us > 0.0 {
                hotspots.push((layer_of(&td, v), path_of(&td, v), self_us));
            }
        }
        hotspots.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.1.cmp(&b.1)));
    }

    let mut lagging_lanes: Vec<(String, f64)> = Vec::new();
    if let Some(set) = graph
        .find("imbalance_analysis")
        .and_then(|n| out.vertices(n))
    {
        for &v in &set.ids {
            let name = set.graph.pag().vertex_name(v).to_string();
            let proc = set.graph.pag().metric_i64(v, mkeys::PROC).unwrap_or(-1);
            let flow = usize::try_from(proc)
                .ok()
                .and_then(|p| sp.flows.get(p))
                .map(|(layer, lane)| format!("{layer}[lane{lane}]"))
                .unwrap_or_else(|| "?".to_string());
            let score = set.scores.get(&v).copied().unwrap_or(0.0);
            // Flow roots are named after the flow itself — don't print
            // the label twice.
            let label = if name == flow {
                format!("{flow} (whole lane)")
            } else {
                format!("{flow} {name}")
            };
            lagging_lanes.push((label, score * 100.0));
        }
        lagging_lanes.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    }

    let report = (graph.find("report").and_then(|n| out.report(n)))
        .cloned()
        .unwrap_or_else(|| Report::new("self analysis (PerFlow on PerFlow)"));

    // Hand the PAGs back out of the Arcs (sole owners by now).
    let pag = SelfPag {
        topdown: Arc::try_unwrap(td).unwrap_or_else(|a| (*a).clone()),
        parallel: Arc::try_unwrap(pv).unwrap_or_else(|a| (*a).clone()),
        flows: sp.flows,
        dropped_spans: sp.dropped_spans,
    };
    Ok(SelfAnalysisResult {
        pag,
        report,
        diagnostics,
        hotspots,
        lagging_lanes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::Layer;

    fn engine_trace() -> Obs {
        let obs = Obs::enabled();
        // Two core worker lanes running the same pass path: lane 1 lags.
        obs.record_span(Layer::Core, "pass:hotspot_detection", 0, 0.0, 50.0, &[]);
        obs.record_span(Layer::Core, "pass:hotspot_detection", 1, 0.0, 150.0, &[]);
        obs.record_span(Layer::Collect, "embed", 0, 0.0, 80.0, &[]);
        obs
    }

    #[test]
    fn names_hottest_span_and_lagging_lane() {
        let r = self_analysis(&engine_trace()).unwrap();
        assert!(r.diagnostics.is_clean(), "{}", r.diagnostics.render_text());
        // Hottest by self time: lane1's pass instance dominates its
        // path aggregate (50 + 150 inclusive, all self).
        let (layer, name, _) = &r.hotspots[0];
        assert_eq!(layer, "core");
        assert_eq!(name, "pass:hotspot_detection");
        let text = r.render();
        assert!(text.contains("hottest engine span: [core]"), "{text}");
        // Lane 1 runs the pass 3× longer than lane 0 → flagged.
        assert!(
            r.lagging_lanes
                .iter()
                .any(|(l, _)| l.contains("core[lane1]")),
            "{:?}",
            r.lagging_lanes
        );
        assert!(text.contains("worker-lane imbalance"), "{text}");
    }

    #[test]
    fn empty_trace_degrades_gracefully() {
        let r = self_analysis(&Obs::disabled()).unwrap();
        assert!(r.hotspots.is_empty());
        assert!(r.lagging_lanes.is_empty());
        let text = r.render();
        assert!(text.contains("no spans recorded"), "{text}");
    }

    #[test]
    fn graph_shape_is_lintable() {
        let obs = engine_trace();
        let sp = build_self_pag(&obs);
        let td = GraphRef::Detached(Arc::new(sp.topdown));
        let pv = GraphRef::Detached(Arc::new(sp.parallel));
        let g = self_analysis_graph(td.all_vertices(), pv.all_vertices()).unwrap();
        assert_eq!(g.len(), 5);
        let dot = g.to_dot("self");
        assert!(dot.contains("hotspot_detection"));
        assert!(dot.contains("imbalance_analysis"));
        let out = g.execute().unwrap();
        assert!(out.report(g.find("report").unwrap()).is_some());
    }
}
