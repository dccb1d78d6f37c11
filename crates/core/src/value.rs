//! Values flowing along PerFlowGraph edges.

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
    /// Process-independent content fingerprint: the input half of the
    /// pass-cache and checkpoint key. Sets hash their graph's content
    /// identity
    /// ([`GraphRef::content_identity`](crate::graphref::GraphRef::content_identity)),, their member ids and
    /// scores; reports hash their full text content; numbers hash their
    /// bits. `None` when the value lives on a detached graph, which has
    /// no content identity — a pass fed such a value is never cached or
    /// checkpointed.
    pub fn fingerprint(&self) -> Option<u64> {
        let mut h = Fnv::new();
        match self {
            Value::Num(n) => {
                h.u64(1);
                h.u64(n.to_bits());
            }
            Value::Vertices(v) => {
                h.u64(2);
                let (tag, token) = v.graph.content_identity()?;
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
                let (tag, token) = e.graph.content_identity()?;
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
        assert_eq!(Value::Num(2.5).fingerprint(), Some(4113108009647811648));
        let mut r = Report::new("hotspot").with_columns(&["name", "time"]);
        r.push_row(vec!["kernel".into(), "1.5".into()]);
        r.note("n");
        let v = Value::Report(r);
        assert_eq!(v.fingerprint(), Some(9302869650229742610));
    }
}
