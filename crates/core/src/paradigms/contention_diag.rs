//! The Vite-style diagnosis graph (Fig. 14) and the LAMMPS-style
//! iterated causal loop (Fig. 11).

use std::collections::BTreeSet;

use pag::{keys, CallKind, VertexLabel};

use super::{by_score, output};
use crate::builder::GraphBuilder;
use crate::dataflow::PerFlowGraph;
use crate::error::PerFlowError;
use crate::graphref::{RunHandle, RunHandleExt};
use crate::pass::{config_fingerprint, expect_vertices, named, Pass, PassCx};
use crate::passes::contention::EMBEDDINGS_PER_ANCHOR;
use crate::passes::report_pass::report_sets;
use crate::passes::{
    CausalPass, ContentionPass, DifferentialPass, FilterPass, HotspotPass, ImbalancePass,
    ReportPass, TopPass, UnionPass,
};
use crate::report::Report;
use crate::set::{EdgeSet, VertexSet};
use crate::value::Value;

/// Result of the Vite-style comprehensive diagnosis.
#[derive(Debug)]
pub struct ContentionDiagnosis {
    /// Hotspots of the slow run (top-down view).
    pub hotspots: VertexSet,
    /// Vertices whose time grew the most between the two runs (top-down
    /// view of the slow run).
    pub degraded: VertexSet,
    /// Root causes from causal analysis (parallel view).
    pub causes: VertexSet,
    /// Contention-pattern vertices (parallel view).
    pub contention_vertices: VertexSet,
    /// Contention-pattern edges (parallel view).
    pub contention_edges: EdgeSet,
    /// Combined report.
    pub report: Report,
    /// The passes the graph ran, in canonical order.
    pub trail: Vec<String>,
}

/// Fig. 14 — the PerFlowGraph [`contention_diagnosis`] executes: the
/// degraded vertices (else the hotspots) of the slow run are suspects;
/// causal analysis runs over their lagging replicas, contention
/// detection around their replicas and the hot lock sites.
pub fn contention_graph(
    fast: &RunHandle,
    slow: &RunHandle,
    top_n: usize,
) -> Result<PerFlowGraph, PerFlowError> {
    let b = GraphBuilder::new();
    let top = |name, n| named(name, TopPass(keys::TIME, n));
    let fne = |name| named(name, UnionPass::first_non_empty());
    let (slow_td, fast_td) = (b.source(slow.vertices()), b.source(fast.vertices()));
    let slow_pv = b.source(slow.parallel_vertices());
    let hotspots = slow_td.then(HotspotPass::by_time(top_n));
    let diff = b.join(DifferentialPass::default(), &[slow_td, fast_td]);
    let grown = diff.then(named("hotspot_detection:diff", by_score(top_n)));
    let to_td = named("projection:top-down", UnionPass::project());
    let degraded = b
        .join(to_td, &[grown, slow_td])
        .then(FilterPass::metric_at_least("score", 1e-9));
    let suspects = b.join(fne("first_non_empty:suspects"), &[degraded, hotspots]);
    let to_pv = named("projection:parallel", UnionPass::project());
    let flows = b.join(to_pv, &[suspects, slow_pv]);
    let imbalanced = flows.then(ImbalancePass { threshold: 0.1 });
    let causes = b
        .join(fne("first_non_empty:laggards"), &[imbalanced, flows])
        .then(top("top:laggards", 16))
        .then(CausalPass::default());
    let locks = FilterPass::label(VertexLabel::Call(CallKind::Lock));
    let locks = slow_pv
        .then(named("filter:locks", locks))
        .then(top("top:locks", 64));
    let anchors = b.join(
        UnionPass::union(),
        &[flows.then(top("top:flows", 64)), locks],
    );
    let contention = anchors.then(ContentionPass {
        max_per_anchor: EMBEDDINGS_PER_ANCHOR,
    });
    let sets = [causes, hotspots, degraded, contention];
    b.join(DiagnosisReportPass, &sets);
    b.finish()
}

/// The report of Fig. 14: the causes (port 0) as rows, then notes on the
/// hotspot, degraded and contention sets (ports 1–3) and the code
/// snippets the contention was found in.
struct DiagnosisReportPass;

impl Pass for DiagnosisReportPass {
    fn name(&self) -> &str {
        "report"
    }
    fn arity(&self) -> usize {
        4
    }
    fn run(&self, inputs: &[Value], _cx: &mut PassCx) -> Result<Vec<Value>, PerFlowError> {
        let set = |port| expect_vertices(self, inputs, port);
        let (hotspots, degraded, contention) = (set(1)?, set(2)?, set(3)?);
        let mut report = report_sets(
            "comprehensive diagnosis",
            &[set(0)?],
            &["name", "debug-info", "proc", "thread", "time"],
        );
        report.note(format!(
            "hotspots: {}; degraded: {}; contention embeddings around {} vertices",
            hotspots.len(),
            degraded.len(),
            contention.len()
        ));
        if !contention.is_empty() {
            let pag = contention.graph.pag();
            let names = contention.ids.iter().map(|&v| pag.vertex_name(v));
            let names: Vec<&str> = names.collect::<BTreeSet<_>>().into_iter().collect();
            let names = names.join(", ");
            report.note(format!("resource contention detected in: {names}"));
        }
        Ok(vec![report.into()])
    }
    fn fingerprint(&self) -> Option<u64> {
        config_fingerprint(&["diagnosis_report"], &[])
    }
}

/// Run the Fig.-14 diagnosis: `fast` and `slow` are two runs of the same
/// program; the analysis explains why `slow` is slower.
pub fn contention_diagnosis(
    fast: &RunHandle,
    slow: &RunHandle,
    top_n: usize,
) -> Result<ContentionDiagnosis, PerFlowError> {
    let graph = contention_graph(fast, slow, top_n)?;
    let out = graph.execute()?;
    let set = |name, port| output(&graph, &out, name, port, Value::as_vertices);
    Ok(ContentionDiagnosis {
        hotspots: set("hotspot_detection", 0)?,
        degraded: set("filter", 0)?,
        causes: set("causal_analysis", 0)?,
        contention_vertices: set("contention_detection", 0)?,
        contention_edges: output(&graph, &out, "contention_detection", 1, Value::as_edges)?,
        report: output(&graph, &out, "report", 0, Value::as_report)?,
        trail: out.trail,
    })
}

/// The report both Fig.-11 graphs end in.
fn causal_report() -> ReportPass {
    let columns = ["name", "debug-info", "proc", "time"];
    ReportPass::new("iterative causal analysis (root causes)", &columns, 1)
}

/// The seed graph of Fig. 11: the `top_n` hottest vertices matching
/// `comm_pattern`, projected onto the parallel view, where their
/// imbalanced replicas (else the 8 slowest) are the bugs the loop
/// starts from.
pub fn causal_seed_graph(
    run: &RunHandle,
    comm_pattern: &str,
    top_n: usize,
) -> Result<PerFlowGraph, PerFlowError> {
    let b = GraphBuilder::new();
    let comm_hot = b
        .source(run.vertices())
        .then(FilterPass::name(comm_pattern))
        .then(HotspotPass::by_time(top_n));
    let to_pv = named("projection:parallel", UnionPass::project());
    let flows = b.join(to_pv, &[comm_hot, b.source(run.parallel_vertices())]);
    let imbalanced = flows.then(ImbalancePass { threshold: 0.1 });
    let slowest = flows.then(TopPass(keys::TIME, 8));
    b.join(UnionPass::first_non_empty(), &[imbalanced, slowest])
        .then(causal_report());
    b.finish()
}

/// One step of the Fig.-11 loop: causal analysis over the 16 slowest
/// members of `current`.
pub fn causal_step_graph(current: VertexSet) -> Result<PerFlowGraph, PerFlowError> {
    let b = GraphBuilder::new();
    b.source(current)
        .then(TopPass(keys::TIME, 16))
        .then(CausalPass::default())
        .then(causal_report());
    b.finish()
}

/// The Fig.-11 LAMMPS-style loop: "detects imbalanced vertices and
/// performs causal analysis repeatedly until the output set no longer
/// changes, and we identify the outputs as the root causes".
///
/// Executes [`causal_seed_graph`], then [`causal_step_graph`] on the
/// latest set until it is stable or all work vertices, a step finds
/// nothing, or `max_iter` steps ran. Also returns the trail of every
/// graph executed.
pub fn iterative_causal(
    run: &RunHandle,
    comm_pattern: &str,
    top_n: usize,
    max_iter: usize,
) -> Result<(VertexSet, Report, Vec<String>), PerFlowError> {
    let seed = causal_seed_graph(run, comm_pattern, top_n)?;
    let out = seed.execute()?;
    let mut current = output(&seed, &out, "first_non_empty", 0, Value::as_vertices)?;
    let mut report = output(&seed, &out, "report", 0, Value::as_report)?;
    let mut trail = out.trail;
    for _ in 0..max_iter {
        // Once every cause is a *work* vertex (not a communication
        // call), further causal passes keep the set: those are the root
        // causes.
        let pag = current.graph.pag();
        if !current.is_empty() && current.ids.iter().all(|&v| !pag.vertex(v).label.is_comm()) {
            break;
        }
        let step = causal_step_graph(current.clone())?;
        let mut out = step.execute()?;
        let next = output(&step, &out, "causal_analysis", 0, Value::as_vertices)?;
        trail.append(&mut out.trail);
        if next.is_empty() {
            break;
        }
        let ids = |s: &VertexSet| s.ids.iter().copied().collect::<BTreeSet<_>>();
        let stable = ids(&next) == ids(&current);
        current = next;
        report = output(&step, &out, "report", 0, Value::as_report)?;
        if stable {
            break;
        }
    }
    Ok((current, report, trail))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::PerFlow;
    use progmodel::{c, nranks, nthreads, rank, thread, ProgramBuilder};
    use simrt::RunConfig;

    /// Vite-in-miniature: per-thread hash work whose allocations serialize
    /// on the process allocator lock.
    fn mini_vite() -> progmodel::Program {
        let mut pb = ProgramBuilder::new("mini-vite");
        let main = pb.declare("main", "v.cpp");
        pb.define(main, |f| {
            f.loop_("louvain_iter", c(20.0), |b| {
                b.thread_region(nthreads(), |t| {
                    t.loop_("vertex_loop", c(30.0), |l| {
                        l.compute("scan_edges", c(40.0) * progmodel::noise(0.1, 21));
                        l.alloc("_M_realloc_insert", c(25.0));
                    });
                    let _ = thread();
                });
                b.allreduce(c(64.0));
            });
        });
        pb.build(main)
    }

    #[test]
    fn vite_style_diagnosis_finds_allocator_contention() {
        let pflow = PerFlow::new();
        let prog = mini_vite();
        let fast = pflow
            .run(&prog, &RunConfig::new(2).with_threads(2))
            .unwrap();
        let slow = pflow
            .run(&prog, &RunConfig::new(2).with_threads(8))
            .unwrap();
        // More threads → more allocator serialization → slower per-run.
        let d = contention_diagnosis(&fast, &slow, 10).unwrap();
        assert!(
            !d.contention_vertices.is_empty(),
            "no contention embeddings found"
        );
        let pag = d.contention_vertices.graph.pag();
        assert!(d
            .contention_vertices
            .ids
            .iter()
            .all(|&v| pag.vertex_name(v) == "_M_realloc_insert"));
        assert!(!d.contention_edges.is_empty());
        assert!(d.report.render().contains("resource contention"));
    }

    #[test]
    fn diagnosis_graph_has_parallel_branches() {
        let pflow = PerFlow::new();
        let prog = mini_vite();
        let fast = pflow
            .run(&prog, &RunConfig::new(2).with_threads(2))
            .unwrap();
        let slow = pflow
            .run(&prog, &RunConfig::new(2).with_threads(8))
            .unwrap();
        let g = contention_graph(&fast, &slow, 10).unwrap();
        assert!(g.lint().is_clean(), "{}", g.lint().render_text());
        let out = g.execute().unwrap();
        assert!(out.report(g.find("report").unwrap()).is_some());
        let dot = g.to_dot("fig14");
        assert!(dot.contains("contention_detection"));
        assert!(dot.contains("causal_analysis"));
        assert!(dot.contains("differential_analysis"));
    }

    /// LAMMPS-in-miniature: a few overloaded ranks delay blocking
    /// exchanges everywhere.
    fn mini_lammps() -> progmodel::Program {
        let mut pb = ProgramBuilder::new("mini-lmp");
        let main = pb.declare("main", "l.cpp");
        pb.define(main, |f| {
            f.loop_("timestep", c(25.0), |b| {
                b.loop_("loop_1.1", c(10.0), |l| {
                    l.compute(
                        "pair_force",
                        rank().lt(3.0).select(c(300.0), c(100.0)) * progmodel::noise(0.05, 31),
                    );
                });
                b.irecv((rank() + nranks() - 1.0).rem(nranks()), c(40_000.0), 0);
                b.send((rank() + 1.0).rem(nranks()), c(40_000.0), 0);
                b.wait(0);
            });
        });
        pb.build(main)
    }

    #[test]
    fn causal_loop_graph_runs_on_parallel_view() {
        let pflow = PerFlow::new();
        let run = pflow.run(&mini_lammps(), &RunConfig::new(8)).unwrap();
        let seed = causal_seed_graph(&run, "MPI_*", 8).unwrap();
        let out = seed.execute().unwrap();
        let bugs = out
            .vertices(seed.find("first_non_empty").unwrap())
            .unwrap()
            .clone();
        assert!(!bugs.is_empty());
        assert_eq!(bugs.graph.pag().view(), pag::ViewKind::Parallel);
        let step = causal_step_graph(bugs).unwrap();
        for g in [&seed, &step] {
            assert!(g.lint().is_clean(), "{}", g.lint().render_text());
        }
        let out = step.execute().unwrap();
        assert!(out.report(step.find("report").unwrap()).is_some());
        assert_eq!(
            out.trail,
            ["source", "top", "causal_analysis", "report"].map(String::from)
        );
    }

    #[test]
    fn lammps_style_iteration_converges_to_force_loop() {
        let pflow = PerFlow::new();
        let prog = mini_lammps();
        let run = pflow.run(&prog, &RunConfig::new(8)).unwrap();
        let (causes, report, _) = iterative_causal(&run, "MPI_*", 8, 5).unwrap();
        assert!(!causes.is_empty());
        let pag = causes.graph.pag();
        let names: Vec<&str> = causes.ids.iter().map(|&v| pag.vertex_name(v)).collect();
        assert!(
            names.iter().any(|n| *n == "pair_force" || *n == "loop_1.1"),
            "causes were {names:?}"
        );
        assert!(report.render().contains("root causes"));
    }
}
