//! Values flowing along PerFlowGraph edges.

use crate::graphref::GraphRef;
use crate::report::Report;
use crate::set::{EdgeSet, VertexSet};
use obs::Fnv;

/// A value on a PerFlowGraph edge: a vertex set, an edge set, a finished
/// report, or a scalar (thresholds, counts).
#[derive(Debug, Clone)]
pub enum Value {
    /// A set of PAG vertices.
    Vertices(VertexSet),
    /// A set of PAG edges.
    Edges(EdgeSet),
    /// A rendered analysis report.
    Report(Report),
    /// A scalar parameter or result.
    Num(f64),
}

impl Value {
    /// Extract a vertex set.
    pub fn as_vertices(&self) -> Option<&VertexSet> {
        match self {
            Value::Vertices(v) => Some(v),
            _ => None,
        }
    }

    /// Extract an edge set.
    pub fn as_edges(&self) -> Option<&EdgeSet> {
        match self {
            Value::Edges(e) => Some(e),
            _ => None,
        }
    }

    /// Extract a report.
    pub fn as_report(&self) -> Option<&Report> {
        match self {
            Value::Report(r) => Some(r),
            _ => None,
        }
    }

    /// Extract a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

impl Value {
    /// Content fingerprint, used as a cache key component by the
    /// pass-result cache. Two values with the same fingerprint are
    /// treated as interchangeable pass inputs: sets hash their member
    /// ids, scores, and the *identity* of the graph they live on (the
    /// shared handle, not the graph contents — PAGs are immutable while
    /// sets flow through a PerFlowGraph), reports hash their full text
    /// content, and numbers hash their bits.
    pub fn fingerprint(&self) -> u64 {
        self.fold(|g| {
            let (tag, ptr) = g.identity();
            Some((tag, ptr as u64))
        })
        .expect("every graph has a handle identity")
    }

    /// Process-independent content fingerprint, used by checkpoint
    /// snapshots. Identical to [`Value::fingerprint`] except that sets
    /// identify their graph by its *content digest*
    /// ([`crate::graphref::GraphRef::content_identity`]) instead of the
    /// handle address, so the same value in a re-created process hashes
    /// the same. `None` when any referenced graph has no stable content
    /// identity (detached graphs) — such values cannot be resumed.
    pub fn stable_fingerprint(&self) -> Option<u64> {
        self.fold(GraphRef::content_identity)
    }

    /// The one hash fold behind both fingerprints; `graph_id` names a
    /// set's graph as a `(view tag, token)` pair, or `None` to give up.
    fn fold(&self, graph_id: impl Fn(&GraphRef) -> Option<(u8, u64)>) -> Option<u64> {
        let mut h = Fnv::new();
        match self {
            Value::Num(n) => {
                h.u64(1);
                h.u64(n.to_bits());
            }
            Value::Vertices(v) => {
                h.u64(2);
                let (tag, token) = graph_id(&v.graph)?;
                h.u64(tag as u64);
                h.u64(token);
                h.u64(v.ids.len() as u64);
                for id in &v.ids {
                    h.u64(id.0 as u64);
                }
                h.u64(v.scores.len() as u64);
                for (id, s) in &v.scores {
                    h.u64(id.0 as u64);
                    h.u64(s.to_bits());
                }
            }
            Value::Edges(e) => {
                h.u64(3);
                let (tag, token) = graph_id(&e.graph)?;
                h.u64(tag as u64);
                h.u64(token);
                h.u64(e.ids.len() as u64);
                for id in &e.ids {
                    h.u64(id.0 as u64);
                }
            }
            Value::Report(r) => {
                h.u64(4);
                h.str(&r.title);
                h.u64(r.columns.len() as u64);
                for c in &r.columns {
                    h.str(c);
                }
                h.u64(r.rows.len() as u64);
                for row in &r.rows {
                    h.u64(row.len() as u64);
                    for cell in row {
                        h.str(cell);
                    }
                }
                h.u64(r.notes.len() as u64);
                for n in &r.notes {
                    h.str(n);
                }
            }
        }
        Some(h.finish())
    }
}

impl From<VertexSet> for Value {
    fn from(v: VertexSet) -> Self {
        Value::Vertices(v)
    }
}
impl From<EdgeSet> for Value {
    fn from(e: EdgeSet) -> Self {
        Value::Edges(e)
    }
}
impl From<Report> for Value {
    fn from(r: Report) -> Self {
        Value::Report(r)
    }
}
impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checkpoint (`PFCK` v1) keys fold these values; they must not move.
    #[test]
    fn stable_fingerprints_are_pinned() {
        assert_eq!(
            Value::Num(2.5).stable_fingerprint(),
            Some(4113108009647811648)
        );
        let mut r = Report::new("hotspot").with_columns(&["name", "time"]);
        r.push_row(vec!["kernel".into(), "1.5".into()]);
        r.note("n");
        let v = Value::Report(r);
        assert_eq!(v.stable_fingerprint(), Some(9302869650229742610));
        assert_eq!(v.stable_fingerprint(), Some(v.fingerprint()));
    }
}
