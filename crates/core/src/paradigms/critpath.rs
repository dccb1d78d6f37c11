//! The critical-path paradigm (§4.4, inspired by Böhme et al. and
//! Schmitt et al.): extract the heaviest dependence chain through the
//! parallel view and attribute it to code snippets.

use super::output;
use crate::builder::GraphBuilder;
use crate::dataflow::PerFlowGraph;
use crate::error::PerFlowError;
use crate::graphref::{RunHandle, RunHandleExt};
use crate::passes::report_pass::format_time_us;
use crate::passes::{CriticalPathPass, ReportPass, TopPass};
use crate::report::Report;
use crate::set::{EdgeSet, VertexSet};
use crate::value::Value;

/// Result of the critical-path paradigm.
#[derive(Debug)]
pub struct CriticalPathResult {
    /// Path vertices in order (parallel view).
    pub path: VertexSet,
    /// Path edges.
    pub edges: EdgeSet,
    /// Total path weight (µs).
    pub weight: f64,
    /// Share of the run makespan the path explains.
    pub coverage: f64,
    /// Top contributors along the path.
    pub report: Report,
    /// The passes the graph ran, in canonical order.
    pub trail: Vec<String>,
}

/// The PerFlowGraph [`critical_path_paradigm`] executes: `parallel view
/// → critical_path → top(score) → report`.
pub fn critical_path_graph(run: &RunHandle, top_n: usize) -> Result<PerFlowGraph, PerFlowError> {
    let b = GraphBuilder::new();
    let columns = ["name", "debug-info", "proc", "score"];
    b.source(run.parallel_vertices())
        .then(CriticalPathPass)
        .then(TopPass("score", top_n))
        .then(ReportPass::new("critical path", &columns, 1));
    b.finish()
}

/// Run the critical-path paradigm on a profiled run.
pub fn critical_path_paradigm(
    run: &RunHandle,
    top_n: usize,
) -> Result<CriticalPathResult, PerFlowError> {
    let graph = critical_path_graph(run, top_n)?;
    let out = graph.execute()?;
    let weight = output(&graph, &out, "critical_path", 2, |v| match v {
        Value::Num(w) => Some(w),
        _ => None,
    })?;
    let makespan = run.data().total_time.max(1e-12);
    let coverage = weight / makespan;
    let mut report = output(&graph, &out, "report", 0, Value::as_report)?;
    report.note(format!(
        "critical path weight {} = {:.0}% of makespan {}",
        format_time_us(weight),
        100.0 * coverage,
        format_time_us(makespan)
    ));
    Ok(CriticalPathResult {
        path: output(&graph, &out, "critical_path", 0, Value::as_vertices)?,
        edges: output(&graph, &out, "critical_path", 1, Value::as_edges)?,
        weight,
        coverage,
        report,
        trail: out.trail,
    })
}

/// Weight contributions per code snippet name along a critical path —
/// useful for asserting which activity dominates.
pub fn path_breakdown(result: &CriticalPathResult) -> Vec<(String, f64)> {
    let pag = result.path.graph.pag();
    let mut by_name: std::collections::BTreeMap<String, f64> = Default::default();
    for &v in &result.path.ids {
        let t = result.path.score(v);
        if t > 0.0 {
            *by_name.entry(pag.vertex_name(v).to_string()).or_insert(0.0) += t;
        }
    }
    let mut rows: Vec<(String, f64)> = by_name.into_iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::PerFlow;
    use progmodel::{c, rank, ProgramBuilder};
    use simrt::RunConfig;

    #[test]
    fn path_covers_most_of_makespan() {
        // Rank 3 is the straggler; the critical path should run through
        // its kernel.
        let mut pb = ProgramBuilder::new("cp");
        let main = pb.declare("main", "c.c");
        pb.define(main, |f| {
            f.loop_("it", c(50.0), |b| {
                b.compute("kernel", (rank() + 1.0) * c(500.0));
                b.allreduce(c(8.0));
            });
        });
        let prog = pb.build(main);
        let pflow = PerFlow::new();
        let run = pflow.run(&prog, &RunConfig::new(4)).unwrap();
        let result = critical_path_paradigm(&run, 5).unwrap();
        assert!(result.weight > 0.0);
        assert!(
            result.coverage > 0.5,
            "critical path should explain most of the makespan, got {:.2}",
            result.coverage
        );
        let breakdown = path_breakdown(&result);
        assert!(!breakdown.is_empty());
        // The straggler's kernel is a top contributor (it may tie with
        // the allreduce the other ranks wait in).
        assert!(
            breakdown.iter().take(2).any(|(n, _)| n == "kernel"),
            "{breakdown:?}"
        );
        let kernel_w = breakdown
            .iter()
            .find(|(n, _)| n == "kernel")
            .map(|(_, w)| *w)
            .unwrap_or(0.0);
        assert!(kernel_w > 0.0);
        assert!(result.report.render().contains("critical path"));
    }
}
