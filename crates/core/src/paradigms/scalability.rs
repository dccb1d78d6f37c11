//! The scalability-analysis paradigm (Fig. 8, Listing 7; ScalAna-style):
//!
//! ```text
//! PAG(small) ─┐
//!             ├─ differential ─┬─ hotspot ──┐
//! PAG(large) ─┘                └─ imbalance ┴─ union → backtracking → report
//! ```
//!
//! The differential pass compares aggregate (CPU-second) time, which is
//! scale-invariant under ideal strong scaling, so growth *is* scaling
//! loss. Backtracking then walks the large run's parallel view from the
//! imbalanced flow replicas of the loss vertices to expose how the loss
//! propagates, and the non-communication terminals are reported as root
//! causes.

use pag::{keys, mkeys};

use crate::error::PerFlowError;
use crate::graphref::{GraphRef, RunHandle, RunHandleExt};
use crate::passes::differential::map_to_run;
use crate::passes::report_pass::{format_time_us, report_sets};
use crate::passes::{backtracking, differential, hotspot, imbalance};
use crate::report::Report;
use crate::set::{EdgeSet, VertexSet};

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
}

/// Run the scalability-analysis paradigm over a small-scale and a
/// large-scale run of the same program.
pub fn scalability_analysis(
    small: &RunHandle,
    large: &RunHandle,
    top_n: usize,
    imbalance_threshold: f64,
) -> Result<ScalabilityResult, PerFlowError> {
    // 0. Data-quality gate: degraded runs are analyzed from whatever the
    //    surviving ranks recorded, but a run where *no* rank completed
    //    has nothing trustworthy to attribute.
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

    // 1. Differential: aggregate-time growth = scaling loss.
    let diff = differential(large, small, 1.0)?;

    // 2. Hotspot on the difference → worst scaling vertices.
    let hot_diff = hotspot(&diff, "score", top_n).filter_metric("score", 1e-9);
    let scaling_hotspots = map_to_run(&hot_diff, large);

    // 3. Imbalance on the large run.
    let imbalanced = imbalance(&large.vertices(), imbalance_threshold);

    // 4. Union.
    let union = scaling_hotspots.union(&imbalanced)?;

    // 5. Project onto the parallel view: the lagging flow replicas of the
    //    union vertices.
    let pv = GraphRef::Parallel(std::sync::Arc::clone(large));
    let flows = pv.replicas_of(&union);
    let mut lagging = imbalance(&flows, imbalance_threshold);
    if lagging.is_empty() {
        // Uniformly lost time: take the slowest replica per vertex.
        lagging = imbalance(&flows, 0.0);
    }

    // 6. Backtracking from the lagging flow vertices.
    let (backtrack_vertices, backtrack_edges) = backtracking(&lagging, 100_000);

    // 7. Root causes: backtracked *work* vertices (compute kernels and
    //    loops — never structural function vertices or the comm calls
    //    themselves), deduplicated per code snippet keeping the slowest
    //    process replica.
    let work = backtrack_vertices
        .retain(|v| {
            let data = pv.pag().vertex(v);
            matches!(
                data.label,
                pag::VertexLabel::Compute
                    | pag::VertexLabel::Loop
                    | pag::VertexLabel::Call(pag::CallKind::Lock)
            ) && pv.pag().metric_f64(v, mkeys::TIME) > 0.0
        })
        .sort_by(keys::TIME);
    let mut seen_names: std::collections::HashSet<&str> = Default::default();
    let mut dedup_ids = Vec::new();
    for &v in &work.ids {
        let name = pv.pag().vertex_name(v);
        if seen_names.insert(name) {
            dedup_ids.push(v);
        }
        if dedup_ids.len() >= top_n {
            break;
        }
    }
    let mut root_causes = crate::set::VertexSet::new(work.graph.clone(), dedup_ids);
    for &v in &root_causes.ids.clone() {
        root_causes.scores.insert(v, pv.pag().vertex_time(v));
    }

    // 8. Report.
    let mut report = report_sets(
        "scalability analysis (root causes)",
        &[&root_causes],
        &["name", "debug-info", "proc", "time"],
    );
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
        diff,
        scaling_hotspots,
        imbalanced,
        lagging_flows: lagging,
        backtrack_vertices,
        backtrack_edges,
        root_causes,
        report,
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
