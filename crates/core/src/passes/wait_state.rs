//! Wait-state classification pass.
//!
//! Scalasca popularized automatic wait-state classification (Late Sender,
//! Late Receiver, Wait at Collective); PerFlow's pass library can express
//! the same analysis as a pass over communication vertices, using the
//! statistics the collection module embeds (§3.3): total operation time,
//! wait time, counts, and the comm-info summary.

use pag::{keys, mkeys, VertexId, VertexStats};

use crate::error::PerFlowError;
use crate::pass::{config_fingerprint, expect_vertices, Pass, PassCx};
use crate::report::Report;
use crate::set::VertexSet;
use crate::value::Value;

/// The classified wait state of one communication vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitClass {
    /// A receive-side operation (Recv/Wait/Waitall) dominated by waiting:
    /// its matching sender posts late.
    LateSender,
    /// A blocking send dominated by waiting: its receiver posts late.
    LateReceiver,
    /// A collective dominated by waiting for the last participant.
    WaitAtCollective,
    /// Wait time is a minor fraction: the operation is bandwidth/latency
    /// bound, not dependence bound.
    TransferBound,
    /// Not a communication vertex / no recorded communication data.
    NotComm,
}

impl WaitClass {
    /// Display name.
    pub fn as_str(self) -> &'static str {
        match self {
            WaitClass::LateSender => "late-sender",
            WaitClass::LateReceiver => "late-receiver",
            WaitClass::WaitAtCollective => "wait-at-collective",
            WaitClass::TransferBound => "transfer-bound",
            WaitClass::NotComm => "not-comm",
        }
    }
}

/// One classified row.
#[derive(Debug, Clone)]
pub struct WaitStateRow {
    /// The vertex.
    pub vertex: VertexId,
    /// Classification.
    pub class: WaitClass,
    /// Wait share of the operation time (0..1).
    pub wait_fraction: f64,
    /// Cross-process imbalance of the vertex's time.
    pub imbalance: f64,
}

/// Classify the wait states of (communication) vertices. `threshold` is
/// the wait fraction above which an operation counts as dependence-bound.
/// Returns the dependence-bound subset (scored by wait share), a report,
/// and the per-vertex rows.
pub fn wait_states(set: &VertexSet, threshold: f64) -> (VertexSet, Report, Vec<WaitStateRow>) {
    let pag = set.graph.pag();
    let mut out = VertexSet::new(set.graph.clone(), Vec::new());
    let mut report = Report::new("wait-state classification").with_columns(&[
        "name",
        "debug-info",
        "class",
        "wait%",
        "imbalance",
    ]);
    let mut rows = Vec::new();
    for &v in &set.ids {
        let data = pag.vertex(v);
        let name = data.name.as_ref();
        let op_time = pag.metric_f64(v, mkeys::COMM_TIME);
        let wait = pag.metric_f64(v, mkeys::WAIT_TIME);
        let imbalance = pag
            .metric_vec(v, mkeys::TIME_PER_PROC)
            .and_then(VertexStats::from_slice)
            .map(|s| s.imbalance())
            .unwrap_or(0.0);
        let class = if !data.label.is_comm() || op_time <= 0.0 {
            WaitClass::NotComm
        } else {
            let frac = wait / op_time;
            if frac < threshold {
                WaitClass::TransferBound
            } else if matches!(
                name,
                "MPI_Allreduce" | "MPI_Barrier" | "MPI_Bcast" | "MPI_Reduce" | "MPI_Alltoall"
            ) {
                WaitClass::WaitAtCollective
            } else if name == "MPI_Send" {
                WaitClass::LateReceiver
            } else {
                WaitClass::LateSender
            }
        };
        let wait_fraction = if op_time > 0.0 {
            (wait / op_time).min(1.0)
        } else {
            0.0
        };
        if !matches!(class, WaitClass::NotComm | WaitClass::TransferBound) {
            out.ids.push(v);
            out.scores.insert(v, wait_fraction);
        }
        report.push_row(vec![
            name.to_string(),
            pag.vstr(v, keys::DEBUG_INFO)
                .map(String::from)
                .unwrap_or_default(),
            class.as_str().to_string(),
            format!("{:.1}", 100.0 * wait_fraction),
            format!("{imbalance:.2}"),
        ]);
        rows.push(WaitStateRow {
            vertex: v,
            class,
            wait_fraction,
            imbalance,
        });
    }
    (out, report, rows)
}

/// Pass wrapper: comm set → (dependence-bound subset, report).
pub struct WaitStatePass {
    /// Wait-fraction threshold for "dependence bound".
    pub threshold: f64,
}

impl Default for WaitStatePass {
    fn default() -> Self {
        WaitStatePass { threshold: 0.5 }
    }
}

impl Pass for WaitStatePass {
    fn name(&self) -> &str {
        "wait_state_classification"
    }
    fn arity(&self) -> usize {
        1
    }
    fn run(&self, inputs: &[Value], _cx: &mut PassCx) -> Result<Vec<Value>, PerFlowError> {
        let set = expect_vertices(self, inputs, 0)?;
        let (subset, report, _) = wait_states(set, self.threshold);
        Ok(vec![subset.into(), report.into()])
    }
    fn fingerprint(&self) -> Option<u64> {
        config_fingerprint(&[self.name()], &[self.threshold.to_bits()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::PerFlow;
    use crate::graphref::RunHandleExt;
    use progmodel::{c, nranks, rank, ProgramBuilder};
    use simrt::RunConfig;

    fn run() -> crate::graphref::RunHandle {
        let mut pb = ProgramBuilder::new("ws");
        let main = pb.declare("main", "w.c");
        pb.define(main, |f| {
            f.loop_("it", c(300.0), |b| {
                // Rank-skewed work before both a p2p chain and a collective.
                b.compute("work", (rank() + 1.0) * c(200.0));
                b.irecv((rank() + nranks() - 1.0).rem(nranks()), c(512.0), 0);
                b.isend((rank() + 1.0).rem(nranks()), c(512.0), 0);
                b.waitall();
                b.allreduce(c(16.0));
            });
        });
        let prog = pb.build(main);
        PerFlow::new().run(&prog, &RunConfig::new(4)).unwrap()
    }

    #[test]
    fn classifies_collective_and_p2p_waits() {
        let run = run();
        let comm = run.vertices().filter_name("MPI_*");
        let (bound, report, rows) = wait_states(&comm, 0.5);
        let class_of = |name: &str| {
            rows.iter()
                .find(|r| bound.graph.pag().vertex_name(r.vertex) == name)
                .map(|r| r.class)
        };
        assert_eq!(class_of("MPI_Allreduce"), Some(WaitClass::WaitAtCollective));
        assert_eq!(class_of("MPI_Waitall"), Some(WaitClass::LateSender));
        // Posts are cheap: transfer/overhead bound, not dependence bound.
        assert_eq!(class_of("MPI_Isend"), Some(WaitClass::TransferBound));
        assert!(report.render().contains("wait-at-collective"));
        // The dependence-bound subset excludes transfer-bound posts.
        let names: Vec<&str> = bound
            .ids
            .iter()
            .map(|&v| bound.graph.pag().vertex_name(v))
            .collect();
        assert!(!names.contains(&"MPI_Isend"), "{names:?}");
        assert!(names.contains(&"MPI_Allreduce"));
    }

    #[test]
    fn non_comm_vertices_are_marked() {
        let run = run();
        let all = run.vertices().filter_name("work");
        let (bound, _, rows) = wait_states(&all, 0.5);
        assert!(bound.is_empty());
        assert_eq!(rows[0].class, WaitClass::NotComm);
    }

    #[test]
    fn pass_wrapper_emits_subset_and_report() {
        let run = run();
        let comm = run.vertices().filter_name("MPI_*");
        let out = WaitStatePass::default()
            .run(&[comm.into()], &mut PassCx::new())
            .unwrap();
        assert!(out[0].as_vertices().is_some());
        assert!(out[1].as_report().is_some());
    }
}
