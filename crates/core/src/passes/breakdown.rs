//! Breakdown analysis: decompose detected communication bugs to determine
//! "whether the cause of imbalance is different message sizes, the load
//! imbalance before the communications, or others" (§2.2).

use pag::{keys, mkeys, VertexId, VertexStats};

use crate::error::PerFlowError;
use crate::pass::{config_fingerprint, expect_vertices, Pass, PassCx};
use crate::report::Report;
use crate::set::VertexSet;
use crate::value::Value;

/// Verdict for one communication vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommCause {
    /// The code executed before the communication is imbalanced — the
    /// communication waits are secondary.
    LoadImbalanceBefore,
    /// Processes communicate different amounts of data ("different
    /// message sizes", the first cause §2.2 lists).
    MessageSizes,
    /// The communication itself is imbalanced across processes (message
    /// sizes / counts differ).
    ImbalancedCommunication,
    /// Nothing anomalous found.
    Uniform,
}

impl CommCause {
    /// Human-readable verdict.
    pub fn as_str(self) -> &'static str {
        match self {
            CommCause::LoadImbalanceBefore => "load-imbalance-before-comm",
            CommCause::MessageSizes => "different-message-sizes",
            CommCause::ImbalancedCommunication => "imbalanced-communication",
            CommCause::Uniform => "uniform",
        }
    }
}

/// Breakdown of one vertex.
#[derive(Debug, Clone)]
pub struct BreakdownRow {
    /// The analyzed vertex.
    pub vertex: VertexId,
    /// Verdict.
    pub cause: CommCause,
    /// The vertex identified as the cause (the preceding snippet for
    /// [`CommCause::LoadImbalanceBefore`], the vertex itself otherwise).
    pub cause_vertex: VertexId,
    /// Wait fraction of the vertex's time.
    pub wait_fraction: f64,
    /// Imbalance factor of the predecessor.
    pub predecessor_imbalance: f64,
}

/// Run breakdown analysis on a set of (typically communication) vertices
/// of a top-down view. Returns the cause vertices plus a report.
pub fn breakdown(set: &VertexSet, threshold: f64) -> (VertexSet, Report, Vec<BreakdownRow>) {
    let pag = set.graph.pag();
    let mut causes = VertexSet::new(set.graph.clone(), Vec::new());
    let mut report = Report::new("breakdown analysis").with_columns(&[
        "name",
        "debug-info",
        "cause",
        "wait-frac",
        "pred-imb",
    ]);
    let mut rows = Vec::new();
    for &v in &set.ids {
        let time = pag.vertex_time(v).max(1e-12);
        let wait = pag.metric_f64(v, mkeys::WAIT_TIME);
        let wait_fraction = (wait / time).min(1.0);

        // The snippet executed immediately before: the previous sibling
        // under the same parent, or the parent itself.
        let pred = preceding_vertex(pag, v);
        let pred_imb = pred
            .and_then(|p| {
                pag.metric_vec(p, mkeys::TIME_PER_PROC)
                    .and_then(VertexStats::from_slice)
            })
            .map(|s| s.imbalance())
            .unwrap_or(0.0);

        let own_imb = pag
            .metric_vec(v, mkeys::TIME_PER_PROC)
            .and_then(VertexStats::from_slice)
            .map(|s| s.imbalance())
            .unwrap_or(0.0);
        // Do processes move different amounts of data through this call?
        let bytes_imb = pag
            .metric_vec(v, mkeys::BYTES_PER_PROC)
            .and_then(VertexStats::from_slice)
            .map(|s| s.imbalance())
            .unwrap_or(0.0);

        let (cause, cause_vertex) = if pred_imb >= threshold {
            (CommCause::LoadImbalanceBefore, pred.unwrap_or(v))
        } else if bytes_imb >= threshold {
            (CommCause::MessageSizes, v)
        } else if own_imb >= threshold {
            (CommCause::ImbalancedCommunication, v)
        } else {
            (CommCause::Uniform, v)
        };
        if cause != CommCause::Uniform && !causes.scores.contains_key(&cause_vertex) {
            causes.ids.push(cause_vertex);
            causes
                .scores
                .insert(cause_vertex, pred_imb.max(own_imb).max(bytes_imb));
        }
        report.push_row(vec![
            pag.vertex_name(v).to_string(),
            pag.vstr(v, keys::DEBUG_INFO)
                .map(String::from)
                .unwrap_or_default(),
            cause.as_str().to_string(),
            format!("{wait_fraction:.2}"),
            format!("{pred_imb:.2}"),
        ]);
        rows.push(BreakdownRow {
            vertex: v,
            cause,
            cause_vertex,
            wait_fraction,
            predecessor_imbalance: pred_imb,
        });
    }
    (causes, report, rows)
}

/// The vertex executed immediately before `v`: the previous sibling in
/// the top-down tree (by edge order), or the parent when `v` is the first
/// child.
pub fn preceding_vertex(pag: &pag::Pag, v: VertexId) -> Option<VertexId> {
    let parent_edge = pag.in_edges(v).first()?;
    let parent = pag.edge(*parent_edge).src;
    let siblings: Vec<VertexId> = pag.out_neighbors(parent).collect();
    let pos = siblings.iter().position(|&s| s == v)?;
    if pos == 0 {
        Some(parent)
    } else {
        Some(siblings[pos - 1])
    }
}

/// Pass wrapper: vertex set → (cause set, report).
pub struct BreakdownPass {
    /// Imbalance threshold for verdicts.
    pub threshold: f64,
}

impl Default for BreakdownPass {
    fn default() -> Self {
        BreakdownPass { threshold: 0.2 }
    }
}

impl Pass for BreakdownPass {
    fn name(&self) -> &str {
        "breakdown_analysis"
    }
    fn arity(&self) -> usize {
        1
    }
    fn run(&self, inputs: &[Value], _cx: &mut PassCx) -> Result<Vec<Value>, PerFlowError> {
        let set = expect_vertices(self, inputs, 0)?;
        let (causes, report, _) = breakdown(set, self.threshold);
        Ok(vec![causes.into(), report.into()])
    }
    fn fingerprint(&self) -> Option<u64> {
        config_fingerprint(&[self.name()], &[self.threshold.to_bits()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphref::GraphRef;
    use pag::{CallKind, EdgeLabel, Pag, VertexLabel, ViewKind};
    use std::sync::Arc;

    /// main → loop_1 (imbalanced) → nothing; main → MPI_Waitall after it.
    fn tree() -> GraphRef {
        let mut g = Pag::new(ViewKind::TopDown, "b");
        let main = g.add_vertex(VertexLabel::Function, "main");
        let l = g.add_vertex(VertexLabel::Loop, "loop_1");
        let w = g.add_vertex(VertexLabel::Call(CallKind::Comm), "MPI_Waitall");
        g.add_edge(main, l, EdgeLabel::IntraProc);
        g.add_edge(main, w, EdgeLabel::IntraProc);
        g.set_metric_vec(l, mkeys::TIME_PER_PROC, vec![1.0, 1.0, 1.0, 9.0]);
        g.set_metric(l, mkeys::TIME, 12.0);
        g.set_metric(w, mkeys::TIME, 8.0);
        g.set_metric(w, mkeys::WAIT_TIME, 7.5);
        g.set_metric_vec(w, mkeys::TIME_PER_PROC, vec![2.6, 2.6, 2.6, 0.2]);
        g.set_root(main);
        GraphRef::Detached(Arc::new(g))
    }

    #[test]
    fn attributes_wait_to_preceding_imbalance() {
        let g = tree();
        let waitall = VertexSet::new(g.clone(), vec![pag::VertexId(2)]);
        let (causes, report, rows) = breakdown(&waitall, 0.2);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].cause, CommCause::LoadImbalanceBefore);
        assert_eq!(g.pag().vertex_name(rows[0].cause_vertex), "loop_1");
        assert_eq!(causes.len(), 1);
        assert!(report.render().contains("load-imbalance-before-comm"));
        assert!(rows[0].wait_fraction > 0.9);
    }

    #[test]
    fn preceding_vertex_logic() {
        let g = tree();
        let pag = g.pag();
        // loop_1 is the first child → predecessor is parent main.
        assert_eq!(
            preceding_vertex(pag, pag::VertexId(1)),
            Some(pag::VertexId(0))
        );
        // MPI_Waitall follows loop_1.
        assert_eq!(
            preceding_vertex(pag, pag::VertexId(2)),
            Some(pag::VertexId(1))
        );
        // Root has no predecessor.
        assert_eq!(preceding_vertex(pag, pag::VertexId(0)), None);
    }

    #[test]
    fn unequal_bytes_classified_as_message_sizes() {
        let mut g = Pag::new(ViewKind::TopDown, "mb");
        let main = g.add_vertex(VertexLabel::Function, "main");
        let s = g.add_vertex(VertexLabel::Call(CallKind::Comm), "MPI_Send");
        g.add_edge(main, s, EdgeLabel::IntraProc);
        g.set_metric(s, mkeys::TIME, 4.0);
        g.set_metric(s, mkeys::WAIT_TIME, 2.0);
        // Balanced times but rank 3 ships 10× the data.
        g.set_metric_vec(s, mkeys::TIME_PER_PROC, vec![1.0, 1.0, 1.0, 1.0]);
        g.set_metric_vec(s, mkeys::BYTES_PER_PROC, vec![100.0, 100.0, 100.0, 1000.0]);
        let gr = GraphRef::Detached(Arc::new(g));
        let set = VertexSet::new(gr.clone(), vec![pag::VertexId(1)]);
        let (_, report, rows) = breakdown(&set, 0.2);
        assert_eq!(rows[0].cause, CommCause::MessageSizes);
        assert!(report.render().contains("different-message-sizes"));
    }

    #[test]
    fn uniform_comm_not_reported_as_cause() {
        let mut g = Pag::new(ViewKind::TopDown, "u");
        let main = g.add_vertex(VertexLabel::Function, "main");
        let w = g.add_vertex(VertexLabel::Call(CallKind::Comm), "MPI_Barrier");
        g.add_edge(main, w, EdgeLabel::IntraProc);
        g.set_metric(w, mkeys::TIME, 1.0);
        g.set_metric_vec(w, mkeys::TIME_PER_PROC, vec![0.25, 0.25, 0.25, 0.25]);
        let gr = GraphRef::Detached(Arc::new(g));
        let set = VertexSet::new(gr, vec![pag::VertexId(1)]);
        let (causes, _, rows) = breakdown(&set, 0.2);
        assert!(causes.is_empty());
        assert_eq!(rows[0].cause, CommCause::Uniform);
    }
}
