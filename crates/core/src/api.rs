//! The high-level (direct) API — the Rust counterpart of the paper's
//! Python interface (Listing 1): each built-in pass is a method.

use progmodel::Program;
use simrt::RunConfig;

use crate::error::PerFlowError;
use crate::graphref::{RunBundle, RunHandle};
use crate::passes;
use crate::report::Report;
use crate::set::{EdgeSet, VertexSet};

/// The framework facade.
///
/// `PerFlow::run` profiles a program (static analysis + simulated
/// execution + data embedding) and returns a [`RunHandle`]; the pass
/// methods transform vertex sets exactly like the built-in passes of the
/// pass library.
#[derive(Debug, Default)]
pub struct PerFlow;

impl PerFlow {
    /// Create the framework facade.
    pub fn new() -> Self {
        PerFlow
    }

    /// Run a program and build its PAG — the `pflow.run(bin, cmd)` entry
    /// point. The program model plays the role of the binary; the run
    /// configuration plays the role of the `mpirun` command line.
    pub fn run(&self, prog: &Program, cfg: &RunConfig) -> Result<RunHandle, PerFlowError> {
        let profiled = collect::profile(prog, cfg)?;
        Ok(RunBundle::new(profiled))
    }

    /// Filter a set by vertex-name glob (e.g. `MPI_*`).
    pub fn filter(&self, set: &VertexSet, pattern: &str) -> VertexSet {
        set.filter_name(pattern)
    }

    /// Hotspot detection: top `n` by inclusive time.
    pub fn hotspot_detection(&self, set: &VertexSet, n: usize) -> VertexSet {
        passes::hotspot(set, pag::keys::TIME, n)
    }

    /// Hotspot detection by an arbitrary metric.
    pub fn hotspot_by(&self, set: &VertexSet, metric: &str, n: usize) -> VertexSet {
        passes::hotspot(set, metric, n)
    }

    /// Imbalance analysis at the given imbalance-factor threshold.
    pub fn imbalance_analysis(&self, set: &VertexSet, threshold: f64) -> VertexSet {
        passes::imbalance(set, threshold)
    }

    /// Differential analysis of two runs (`left - scale × right`).
    pub fn differential_analysis(
        &self,
        left: &RunHandle,
        right: &RunHandle,
        scale: f64,
    ) -> Result<VertexSet, PerFlowError> {
        passes::differential(left, right, scale)
    }

    /// Breakdown analysis of (communication) vertices.
    pub fn breakdown_analysis(&self, set: &VertexSet) -> (VertexSet, Report) {
        let (causes, report, _) = passes::breakdown(set, 0.2);
        (causes, report)
    }

    /// Causal analysis via lowest common ancestors on the parallel view.
    pub fn causal_analysis(&self, set: &VertexSet) -> (VertexSet, EdgeSet) {
        passes::causal(set, &passes::CausalConfig::default())
    }

    /// Critical path over the graph the set lives on.
    pub fn critical_path(
        &self,
        set: &VertexSet,
    ) -> Result<(VertexSet, EdgeSet, f64), PerFlowError> {
        passes::critical_path_analysis(set)
    }

    /// Build a report over sets with the requested attribute columns.
    pub fn report(&self, sets: &[&VertexSet], attrs: &[&str]) -> Report {
        passes::report_pass::report_sets("perflow report", sets, attrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphref::RunHandleExt;
    use progmodel::{c, rank, ProgramBuilder};

    fn comm_prog() -> Program {
        let mut pb = ProgramBuilder::new("api");
        let main = pb.declare("main", "api.c");
        pb.define(main, |f| {
            f.loop_("iter", c(2000.0), |b| {
                b.compute(
                    "kernel",
                    (rank() + 1.0) * c(120.0) * progmodel::noise(0.05, 9),
                );
                b.allreduce(c(64.0));
            });
        });
        pb.build(main)
    }

    #[test]
    fn listing1_style_pipeline() {
        // The paper's Listing 1: run → filter MPI_* → hotspot →
        // imbalance → report.
        let pflow = PerFlow::new();
        let run = pflow.run(&comm_prog(), &RunConfig::new(4)).unwrap();
        let v_comm = pflow.filter(&run.vertices(), "MPI_*");
        assert_eq!(v_comm.len(), 1);
        let v_hot = pflow.hotspot_detection(&v_comm, 10);
        assert_eq!(v_hot.len(), 1);
        let v_imb = pflow.imbalance_analysis(&v_hot, 0.2);
        // The allreduce waits are imbalanced (fast ranks wait for rank 3).
        assert_eq!(v_imb.len(), 1, "allreduce should be imbalanced");
        let report = pflow.report(
            &[&v_imb],
            &["name", "comm-info", "debug-info", "time", "score"],
        );
        let text = report.render();
        assert!(text.contains("MPI_Allreduce"));
        assert!(text.contains("api.c:"));
    }

    #[test]
    fn differential_of_two_scales() {
        let pflow = PerFlow::new();
        let prog = comm_prog();
        let small = pflow.run(&prog, &RunConfig::new(2)).unwrap();
        let large = pflow.run(&prog, &RunConfig::new(8)).unwrap();
        let diff = pflow.differential_analysis(&large, &small, 1.0).unwrap();
        assert!(!diff.is_empty());
        // The kernel grows with rank count (rank+1 cost), so it tops the
        // difference, or the allreduce (more waits at scale) does.
        let top = diff.graph.pag().vertex_name(diff.ids[0]);
        assert!(
            top == "kernel" || top == "MPI_Allreduce" || top == "iter" || top == "main",
            "unexpected top difference {top}"
        );
    }

    #[test]
    fn backtracking_from_hotspot() {
        let pflow = PerFlow::new();
        let run = pflow.run(&comm_prog(), &RunConfig::new(4)).unwrap();
        let pv = run.parallel_vertices();
        let ar = pv.filter_name("MPI_Allreduce");
        let imb = pflow.imbalance_analysis(&ar, 0.1);
        if !imb.is_empty() {
            let (vs, _es) = passes::backtracking(&imb, 100_000);
            assert!(!vs.is_empty());
        }
    }
}
