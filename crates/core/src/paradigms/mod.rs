//! Performance-analysis paradigms (§4.4): "a performance analysis
//! paradigm is a specific PerFlowGraph". Each paradigm builds its graph
//! with a `*_graph` function and executes it; the same graph is what
//! `driver::lint` checks and what `paper fig_perflowgraphs` draws.
//!
//! * [`comm_analysis_graph`] — the communication analysis of Fig. 2;
//! * [`scalability_analysis`] — the ScalAna-style graph of Fig. 8;
//! * [`iterative_causal`] — the LAMMPS-style loop of Fig. 11: a seed
//!   graph, then a causal step re-executed to a fixpoint;
//! * [`contention_diagnosis`] — the Vite-style branching graph of Fig. 14;
//! * [`critical_path_paradigm`] — critical-path extraction and
//!   attribution (inspired by Böhme et al. / Schmitt et al.);
//! * [`self_analysis()`] — PerFlow profiling its own trace.
//!
//! [`mpi_profiler()`](mpi_profiler::mpi_profiler) (inspired by mpiP) is
//! the exception: a report formatter over one filter, with no graph.

pub mod contention_diag;
pub mod critpath;
pub mod mpi_profiler;
pub mod perf_regression;
pub mod scalability;
pub mod self_analysis;

pub use contention_diag::{
    causal_seed_graph, causal_step_graph, contention_diagnosis, contention_graph, iterative_causal,
    ContentionDiagnosis,
};
pub use critpath::{
    critical_path_graph, critical_path_paradigm, path_breakdown, CriticalPathResult,
};
pub use mpi_profiler::mpi_profiler;
pub use perf_regression::{perf_regression, RegressionConfig, RegressionResult};
pub use scalability::{scalability_analysis, scalability_graph, ScalabilityResult};
pub use self_analysis::{self_analysis, self_analysis_graph, SelfAnalysisResult};

use crate::builder::GraphBuilder;
use crate::dataflow::{NodeId, Outputs, PerFlowGraph};
use crate::error::PerFlowError;
use crate::passes::{BreakdownPass, FilterPass, HotspotPass, ImbalancePass, ReportPass};
use crate::set::VertexSet;
use crate::value::Value;

/// Fig. 2 — the communication-analysis PerFlowGraph of §2.2 / Listing 1,
/// run by the driver's comm-analysis session: `run → filter(MPI_*) →
/// hotspot → imbalance → breakdown → report`. Returns the graph and its
/// report node.
pub fn comm_analysis_graph(input: VertexSet) -> Result<(PerFlowGraph, NodeId), PerFlowError> {
    let b = GraphBuilder::new();
    let imb = b
        .source(input)
        .then(FilterPass::name("MPI_*"))
        .then(HotspotPass::by_time(10))
        .then(ImbalancePass::default());
    let bd = imb.then(BreakdownPass::default());
    let columns = ["name", "comm-info", "debug-info", "time"];
    let report = b.join(
        ReportPass::new("communication analysis", &columns, 2),
        &[imb, bd],
    );
    Ok((b.finish()?, report.id()))
}

/// Hotspot detection over a difference set's scores: the worst scaling
/// (or slowdown) vertices.
fn by_score(n: usize) -> HotspotPass {
    let metric = "score".into();
    HotspotPass { metric, n }
}

/// Output `port` of the node of `graph` shown as `name`, read by `as_t`
/// from the outputs of a fail-fast run and cloned out.
fn output<T: Clone>(
    graph: &PerFlowGraph,
    out: &Outputs,
    name: &str,
    port: usize,
    as_t: impl Fn(&Value) -> Option<&T>,
) -> Result<T, PerFlowError> {
    let value = graph.find(name).and_then(|n| out.of(n).get(port));
    value
        .and_then(as_t)
        .cloned()
        .ok_or_else(|| PerFlowError::Analysis(format!("no output {port} of `{name}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::PerFlow;
    use crate::graphref::RunHandleExt;
    use progmodel::{c, nranks, rank, ProgramBuilder};
    use simrt::RunConfig;

    #[test]
    fn comm_graph_executes_and_reports() {
        let mut pb = ProgramBuilder::new("pg");
        let main = pb.declare("main", "p.c");
        pb.define(main, |f| {
            f.loop_("it", c(400.0), |b| {
                b.compute("kern", (rank() + 1.0) * c(180.0));
                b.irecv((rank() + nranks() - 1.0).rem(nranks()), c(512.0), 0);
                b.isend((rank() + 1.0).rem(nranks()), c(512.0), 0);
                b.waitall();
                b.allreduce(c(16.0));
            });
        });
        let prog = pb.build(main);
        let run = PerFlow::new().run(&prog, &RunConfig::new(8)).unwrap();
        let (g, report) = comm_analysis_graph(run.vertices()).unwrap();
        let out = g.execute().unwrap();
        let report = out.of(report)[0].as_report().unwrap();
        assert!(report.render().contains("MPI_"));
        // An unknown node has no outputs.
        assert!(out.of(crate::dataflow::NodeId(99)).is_empty());
        // Fig.-2 shape: 6 nodes.
        assert_eq!(g.len(), 6);
        assert!(g.to_dot("fig2").contains("breakdown_analysis"));
    }
}
