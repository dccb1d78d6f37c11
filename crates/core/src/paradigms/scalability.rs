//! The scalability-analysis paradigm (Fig. 8, Listing 7; ScalAna-style).
//!
//! The differential pass compares aggregate (CPU-second) time, which is
//! scale-invariant under ideal strong scaling, so growth *is* scaling
//! loss. Backtracking then walks the large run's parallel view from the
//! imbalanced flow replicas of the loss vertices to expose how the loss
//! propagates, and the non-communication terminals are reported as root
//! causes.

use pag::{keys, mkeys};

use super::{by_score, output};
use crate::builder::GraphBuilder;
use crate::dataflow::PerFlowGraph;
use crate::error::PerFlowError;
use crate::graphref::{RunHandle, RunHandleExt};
use crate::pass::{config_fingerprint, expect_vertices, named, Pass, PassCx};
use crate::passes::report_pass::format_time_us;
use crate::passes::{
    BacktrackingPass, DifferentialPass, FilterPass, ImbalancePass, ReportPass, UnionPass,
};
use crate::report::Report;
use crate::set::{EdgeSet, VertexSet};
use crate::value::Value;

/// Everything the scalability paradigm produces.
#[derive(Debug)]
pub struct ScalabilityResult {
    /// The difference set (on the detached diff graph), sorted by loss.
    pub diff: VertexSet,
    /// Top scaling-loss vertices, mapped onto the large run's top-down
    /// view.
    pub scaling_hotspots: VertexSet,
    /// Imbalanced vertices of the large run (top-down view).
    pub imbalanced: VertexSet,
    /// Lagging flow replicas used as backtracking starts (parallel view).
    pub lagging_flows: VertexSet,
    /// All vertices touched by backtracking (parallel view).
    pub backtrack_vertices: VertexSet,
    /// All edges walked by backtracking (parallel view).
    pub backtrack_edges: EdgeSet,
    /// Root causes: non-communication backtrack terminals with real time.
    pub root_causes: VertexSet,
    /// Human-readable report.
    pub report: Report,
    /// The passes the graph ran, in canonical order.
    pub trail: Vec<String>,
}

/// Fig. 8 — the PerFlowGraph [`scalability_analysis`] executes:
/// differential → hotspot → projection, ∪ imbalance → projection onto
/// the parallel view → lagging replicas → backtracking → root causes.
pub fn scalability_graph(
    small: &RunHandle,
    large: &RunHandle,
    top_n: usize,
    imbalance_threshold: f64,
) -> Result<PerFlowGraph, PerFlowError> {
    let b = GraphBuilder::new();
    let imbalance = |name, threshold| named(name, ImbalancePass { threshold });
    let (large_td, small_td) = (b.source(large.vertices()), b.source(small.vertices()));
    let diff = b.join(DifferentialPass::default(), &[large_td, small_td]);
    // The worst scaling vertices, mapped back onto the large run.
    let loss = diff
        .then(by_score(top_n))
        .then(FilterPass::metric_at_least("score", 1e-9));
    let to_td = named("projection:top-down", UnionPass::project());
    let hotspots = b.join(to_td, &[loss, large_td]);
    let imbalanced = large_td.then(imbalance("imbalance_analysis", imbalance_threshold));
    let union = b.join(UnionPass::union(), &[hotspots, imbalanced]);
    // Their flow replicas: the lagging ones start the backtracking, or
    // the slowest per vertex when the loss is uniform.
    let to_pv = named("projection:parallel", UnionPass::project());
    let flows = b.join(to_pv, &[union, b.source(large.parallel_vertices())]);
    let lagging = flows.then(imbalance("imbalance_analysis:lagging", imbalance_threshold));
    let slowest = flows.then(imbalance("imbalance_analysis:slowest", 0.0));
    let columns = ["name", "debug-info", "proc", "time"];
    b.join(UnionPass::first_non_empty(), &[lagging, slowest])
        .then(BacktrackingPass { max_steps: 100_000 })
        .then(RootCausePass(top_n))
        .then(ReportPass::new(
            "scalability analysis (root causes)",
            &columns,
            1,
        ));
    b.finish()
}

/// The root causes among backtracked vertices: *work* vertices (compute
/// kernels, loops and lock sites — never structural function vertices
/// or the communication calls themselves) with recorded time, slowest
/// first, one per code snippet, at most `.0`, scored by their time.
struct RootCausePass(usize);

impl Pass for RootCausePass {
    fn name(&self) -> &str {
        "root_causes"
    }
    fn arity(&self) -> usize {
        1
    }
    fn run(&self, inputs: &[Value], _cx: &mut PassCx) -> Result<Vec<Value>, PerFlowError> {
        let set = expect_vertices(self, inputs, 0)?;
        let pag = set.graph.pag();
        let work = set
            .retain(|v| {
                matches!(
                    pag.vertex(v).label,
                    pag::VertexLabel::Compute
                        | pag::VertexLabel::Loop
                        | pag::VertexLabel::Call(pag::CallKind::Lock)
                ) && pag.metric_f64(v, mkeys::TIME) > 0.0
            })
            .sort_by(keys::TIME);
        let mut names = std::collections::HashSet::new();
        let mut causes = VertexSet::new(work.graph.clone(), Vec::new());
        for &v in &work.ids {
            if causes.len() < self.0 && names.insert(pag.vertex_name(v)) {
                causes.scores.insert(v, pag.vertex_time(v));
                causes.ids.push(v);
            }
        }
        Ok(vec![causes.into()])
    }
    fn fingerprint(&self) -> Option<u64> {
        config_fingerprint(&[self.name()], &[self.0 as u64])
    }
}

/// Run the scalability-analysis paradigm over a small-scale and a
/// large-scale run of the same program: execute [`scalability_graph`],
/// then note the run shapes, the stage sizes and the data quality.
pub fn scalability_analysis(
    small: &RunHandle,
    large: &RunHandle,
    top_n: usize,
    imbalance_threshold: f64,
) -> Result<ScalabilityResult, PerFlowError> {
    // Data-quality gate: degraded runs are analyzed from whatever the
    // surviving ranks recorded, but a run where *no* rank completed has
    // nothing trustworthy to attribute.
    for (tag, run) in [("small", small), ("large", large)] {
        let data = run.data();
        if !data.rank_status.is_empty() && data.rank_status.iter().all(|s| !s.is_completed()) {
            return Err(PerFlowError::DegradedData {
                detail: format!(
                    "every rank of the {tag} run crashed or hung; \
                     scalability analysis needs at least one completed rank"
                ),
            });
        }
    }

    let graph = scalability_graph(small, large, top_n, imbalance_threshold)?;
    let out = graph.execute()?;
    let set = |name| output(&graph, &out, name, 0, Value::as_vertices);
    let scaling_hotspots = set("projection:top-down")?;
    let imbalanced = set("imbalance_analysis")?;
    let backtrack_vertices = set("backtracking_analysis")?;
    let backtrack_edges = output(&graph, &out, "backtracking_analysis", 1, Value::as_edges)?;
    let mut report = output(&graph, &out, "report", 0, Value::as_report)?;
    report.note(format!(
        "run A: {} ranks, {} | run B: {} ranks, {}",
        small.data().nranks,
        format_time_us(small.data().total_time),
        large.data().nranks,
        format_time_us(large.data().total_time),
    ));
    report.note(format!(
        "scaling-loss hotspots: {}; imbalanced vertices: {}; backtracked {} vertices / {} edges",
        scaling_hotspots.len(),
        imbalanced.len(),
        backtrack_vertices.len(),
        backtrack_edges.len(),
    ));
    // Structured data-quality warnings: the analysis above already
    // down-weighted incomplete vertices; here the report states what was
    // missing so the reader can judge the conclusions.
    for (tag, run) in [("run A", small), ("run B", large)] {
        let data = run.data();
        if data.is_complete() {
            continue;
        }
        let mut parts: Vec<String> = data
            .rank_status
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_completed())
            .map(|(r, s)| format!("rank {r} {s}"))
            .collect();
        let lost: u64 = data.dropped_samples.values().sum();
        if lost > 0 {
            parts.push(format!("{lost} samples lost"));
        }
        if data.pmu_corrupted > 0 {
            parts.push(format!("{} PMU reads corrupted", data.pmu_corrupted));
        }
        report.note(format!(
            "data quality: {tag} is degraded ({}); incomplete vertices were \
             down-weighted",
            parts.join("; ")
        ));
    }

    Ok(ScalabilityResult {
        diff: set("differential_analysis")?,
        scaling_hotspots,
        imbalanced,
        lagging_flows: set("first_non_empty")?,
        backtrack_vertices,
        backtrack_edges,
        root_causes: set("root_causes")?,
        report,
        trail: out.trail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::PerFlow;
    use progmodel::{c, noise, nranks, rank, ProgramBuilder};
    use simrt::RunConfig;

    /// ZeusMP-in-miniature: an imbalanced boundary loop feeds
    /// non-blocking exchanges, a waitall chain and an allreduce.
    fn mini_zeusmp() -> progmodel::Program {
        let mut pb = ProgramBuilder::new("mini-zmp");
        let main = pb.declare("main", "z.F");
        let bvald = pb.declare("bvald", "z.F");
        pb.define(bvald, |f| {
            // Boundary ranks (first quarter) do 3× work — imbalance that
            // grows relatively worse with scale.
            f.loop_("loop_10.1", c(8.0), |b| {
                b.compute(
                    "boundary_fill",
                    rank().lt(nranks() / c(4.0)).select(c(360.0), c(120.0)) * noise(0.05, 11),
                );
            });
            f.irecv((rank() + nranks() - 1.0).rem(nranks()), c(4096.0), 1);
            f.isend((rank() + 1.0).rem(nranks()), c(4096.0), 1);
        });
        pb.define(main, |f| {
            f.loop_("timestep", c(30.0), |b| {
                b.call(bvald);
                b.waitall();
                b.allreduce(c(8.0));
            });
        });
        pb.build(main)
    }

    #[test]
    fn detects_boundary_loop_as_root_cause() {
        let pflow = PerFlow::new();
        let prog = mini_zeusmp();
        let small = pflow.run(&prog, &RunConfig::new(4)).unwrap();
        let large = pflow.run(&prog, &RunConfig::new(16)).unwrap();
        let result = scalability_analysis(&small, &large, 10, 0.2).unwrap();

        assert!(!result.diff.is_empty());
        assert!(!result.backtrack_vertices.is_empty());
        assert!(!result.root_causes.is_empty(), "no root causes found");
        // The boundary loop (or its kernel) must appear among the causes.
        let names: Vec<&str> = result
            .root_causes
            .ids
            .iter()
            .map(|&v| result.root_causes.graph.pag().vertex_name(v))
            .collect();
        assert!(
            names
                .iter()
                .any(|n| *n == "boundary_fill" || *n == "loop_10.1"),
            "causes were {names:?}"
        );
        let text = result.report.render();
        assert!(text.contains("scalability analysis"));
    }

    #[test]
    fn scalability_graph_matches_listing7_shape() {
        let pflow = PerFlow::new();
        let prog = mini_zeusmp();
        let small = pflow.run(&prog, &RunConfig::new(4)).unwrap();
        let large = pflow.run(&prog, &RunConfig::new(16)).unwrap();
        let g = scalability_graph(&small, &large, 10, 0.2).unwrap();
        assert!(g.lint().is_clean(), "{}", g.lint().render_text());
        let out = g.execute().unwrap();
        assert!(out.report(g.find("report").unwrap()).is_some());
        let dot = g.to_dot("fig8");
        for pass in [
            "differential_analysis",
            "hotspot_detection",
            "imbalance_analysis",
            "union",
            "projection:parallel",
            "backtracking_analysis",
            "root_causes",
            "report",
        ] {
            assert!(dot.contains(pass), "missing {pass} in DOT");
        }
    }

    #[test]
    fn waitall_carries_scaling_loss() {
        let pflow = PerFlow::new();
        let prog = mini_zeusmp();
        let small = pflow.run(&prog, &RunConfig::new(4)).unwrap();
        let large = pflow.run(&prog, &RunConfig::new(16)).unwrap();
        let result = scalability_analysis(&small, &large, 10, 0.2).unwrap();
        // Waitall / allreduce waits grow with scale: they should show in
        // the scaling hotspots.
        let hot_names: Vec<&str> = result
            .scaling_hotspots
            .ids
            .iter()
            .map(|&v| result.scaling_hotspots.graph.pag().vertex_name(v))
            .collect();
        assert!(
            hot_names
                .iter()
                .any(|n| n.starts_with("MPI_") || *n == "boundary_fill"),
            "hotspots were {hot_names:?}"
        );
    }
}
