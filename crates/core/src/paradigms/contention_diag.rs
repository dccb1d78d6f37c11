//! The Vite-style diagnosis graph (Fig. 14) and the LAMMPS-style
//! iterated causal loop (Fig. 11).

use pag::keys;

use crate::error::PerFlowError;
use crate::graphref::{GraphRef, RunHandle, RunHandleExt};
use crate::passes::report_pass::report_sets;
use crate::passes::{causal, contention, differential, hotspot, imbalance, CausalConfig};
use crate::report::Report;
use crate::set::{EdgeSet, VertexSet};

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
}

/// Run the Fig.-14 diagnosis: hotspot + differential branches feeding
/// causal analysis and contention detection.
///
/// `fast` and `slow` are two runs of the same program (e.g. 2 and 8
/// threads of Vite); the analysis explains why `slow` is slower.
pub fn contention_diagnosis(
    fast: &RunHandle,
    slow: &RunHandle,
    top_n: usize,
) -> Result<ContentionDiagnosis, PerFlowError> {
    // Branch 1: hotspot detection on the slow run.
    let hotspots = hotspot(&slow.vertices(), keys::TIME, top_n);

    // Branch 2: differential analysis slow - fast → degraded vertices.
    let diff = differential(slow, fast, 1.0)?;
    let degraded = crate::passes::differential::map_to_run(&hotspot(&diff, "score", top_n), slow)
        .filter_metric("score", 1e-9);

    // Suspicious = hotspot ∩-ish degraded: prefer degraded, fall back to
    // hotspots.
    let suspicious = if degraded.is_empty() {
        hotspots.clone()
    } else {
        degraded.clone()
    };

    // Project suspicious vertices onto the slow run's parallel view
    // (all replicas across processes and threads).
    let pv = GraphRef::Parallel(std::sync::Arc::clone(slow));
    let flows = pv.replicas_of(&suspicious);

    // Causal analysis over the laggard replicas.
    let laggards = {
        let l = imbalance(&flows, 0.1);
        if l.is_empty() {
            flows.clone()
        } else {
            l
        }
    };
    let (causes, _paths) = causal(
        &laggards.sort_by(keys::TIME).top(16),
        &CausalConfig::default(),
    );

    // Contention detection around the suspicious replicas plus every
    // hot lock-site replica (allocator serialization shows up as lock
    // vertices whatever the hotspot branches surfaced).
    let lock_flows = pv
        .all_vertices()
        .filter_label(pag::VertexLabel::Call(pag::CallKind::Lock))
        .sort_by(keys::TIME)
        .top(64);
    let anchors = flows
        .sort_by(keys::TIME)
        .top(64)
        .union(&lock_flows)
        .unwrap_or_else(|_| lock_flows.clone());
    let (contention_vertices, contention_edges, _embs) = contention(&anchors, None, 8);

    let mut report = report_sets(
        "comprehensive diagnosis",
        &[&causes],
        &["name", "debug-info", "proc", "thread", "time"],
    );
    report.note(format!(
        "hotspots: {}; degraded: {}; contention embeddings around {} vertices",
        hotspots.len(),
        degraded.len(),
        contention_vertices.len()
    ));
    if !contention_vertices.is_empty() {
        let pag = contention_vertices.graph.pag();
        let mut names: Vec<&str> = contention_vertices
            .ids
            .iter()
            .map(|&v| pag.vertex_name(v))
            .collect();
        names.sort();
        names.dedup();
        report.note(format!(
            "resource contention detected in: {}",
            names.join(", ")
        ));
    }

    Ok(ContentionDiagnosis {
        hotspots,
        degraded,
        causes,
        contention_vertices,
        contention_edges,
        report,
    })
}

/// The Fig.-11 LAMMPS-style loop: "detects imbalanced vertices and
/// performs causal analysis repeatedly until the output set no longer
/// changes, and we identify the outputs as the root causes".
pub fn iterative_causal(
    run: &RunHandle,
    comm_pattern: &str,
    top_n: usize,
    max_iter: usize,
) -> Result<(VertexSet, Report), PerFlowError> {
    // Hotspot detection → communication filter on the top-down view.
    let comm_hot = hotspot(&run.vertices().filter_name(comm_pattern), keys::TIME, top_n);

    // Project onto the parallel view and find the imbalanced replicas.
    let pv = GraphRef::Parallel(std::sync::Arc::clone(run));
    let flows = pv.replicas_of(&comm_hot);
    let mut current = imbalance(&flows, 0.1);
    if current.is_empty() {
        current = flows.sort_by(keys::TIME).top(8);
    }

    // Iterate causal analysis to a fixpoint. Once every cause is a
    // *work* vertex (not a communication call), the set is stable under
    // further causal passes — those are the root causes.
    let cfg = CausalConfig::default();
    for _ in 0..max_iter {
        let all_work = !current.is_empty()
            && current
                .ids
                .iter()
                .all(|&v| !pv.pag().vertex(v).label.is_comm());
        if all_work {
            break;
        }
        let (next, _) = causal(&current.sort_by(keys::TIME).top(16), &cfg);
        if next.is_empty() {
            break;
        }
        let mut a = next.ids.clone();
        let mut b = current.ids.clone();
        a.sort();
        b.sort();
        if a == b {
            current = next;
            break;
        }
        current = next;
    }

    let report = report_sets(
        "iterative causal analysis (root causes)",
        &[&current],
        &["name", "debug-info", "proc", "time"],
    );
    Ok((current, report))
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
    fn lammps_style_iteration_converges_to_force_loop() {
        let pflow = PerFlow::new();
        let prog = mini_lammps();
        let run = pflow.run(&prog, &RunConfig::new(8)).unwrap();
        let (causes, report) = iterative_causal(&run, "MPI_*", 8, 5).unwrap();
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
