//! Set-operation passes: union, intersection, difference (§4.3.1's "set
//! operation APIs … computing intersection, union, complement, and
//! difference of sets"), plus projection, fallback and top-n.

use crate::error::PerFlowError;
use crate::pass::{config_fingerprint, expect_vertices, Pass, PassCx};
use crate::value::Value;

/// Which set operation a [`UnionPass`] node performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOp {
    /// Union.
    Union,
    /// Intersection.
    Intersect,
    /// Difference (left minus right).
    Difference,
    /// Projection of the left set onto the view the right set lives on
    /// (see `GraphRef::project`).
    Project,
    /// The left set when it is non-empty, else the right one: a stage
    /// with a fallback.
    FirstNonEmpty,
}

/// Binary set-operation pass.
pub struct UnionPass {
    /// The operation.
    pub op: SetOp,
}

impl UnionPass {
    /// Union pass (the Fig. 8 `∪` node).
    pub fn union() -> Self {
        UnionPass { op: SetOp::Union }
    }
    /// Intersection pass.
    pub fn intersect() -> Self {
        UnionPass {
            op: SetOp::Intersect,
        }
    }
    /// Difference pass.
    pub fn difference() -> Self {
        UnionPass {
            op: SetOp::Difference,
        }
    }
    /// Projection pass.
    pub(crate) fn project() -> Self {
        UnionPass { op: SetOp::Project }
    }
    /// First-non-empty pass.
    pub(crate) fn first_non_empty() -> Self {
        UnionPass {
            op: SetOp::FirstNonEmpty,
        }
    }
}

impl Pass for UnionPass {
    fn name(&self) -> &str {
        match self.op {
            SetOp::Union => "union",
            SetOp::Intersect => "intersect",
            SetOp::Difference => "difference",
            SetOp::Project => "projection",
            SetOp::FirstNonEmpty => "first_non_empty",
        }
    }
    fn arity(&self) -> usize {
        2
    }
    fn run(&self, inputs: &[Value], _cx: &mut PassCx) -> Result<Vec<Value>, PerFlowError> {
        let a = expect_vertices(self, inputs, 0)?;
        let b = expect_vertices(self, inputs, 1)?;
        let out = match self.op {
            SetOp::Union => a.union(b)?,
            SetOp::Intersect => a.intersect(b)?,
            SetOp::Difference => a.difference(b)?,
            SetOp::Project => b.graph.project(a),
            SetOp::FirstNonEmpty if a.is_empty() => b.clone(),
            SetOp::FirstNonEmpty => a.clone(),
        };
        Ok(vec![out.into()])
    }
    fn fingerprint(&self) -> Option<u64> {
        // The display name is distinct per operation.
        config_fingerprint(&[self.name()], &[])
    }
}

/// `sort_by(metric).top(n)`: unlike hotspot detection, the metric is
/// not weighted by completeness.
pub(crate) struct TopPass(pub &'static str, pub usize);

impl Pass for TopPass {
    fn name(&self) -> &str {
        "top"
    }
    fn arity(&self) -> usize {
        1
    }
    fn run(&self, inputs: &[Value], _cx: &mut PassCx) -> Result<Vec<Value>, PerFlowError> {
        let set = expect_vertices(self, inputs, 0)?;
        Ok(vec![set.sort_by(self.0).top(self.1).into()])
    }
    fn fingerprint(&self) -> Option<u64> {
        config_fingerprint(&[self.name(), self.0], &[self.1 as u64])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphref::GraphRef;
    use crate::set::VertexSet;
    use pag::{Pag, VertexId, VertexLabel, ViewKind};
    use std::sync::Arc;

    fn graph() -> GraphRef {
        let mut g = Pag::new(ViewKind::TopDown, "s");
        for i in 0..4 {
            g.add_vertex(VertexLabel::Compute, format!("k{i}").as_str());
        }
        GraphRef::Detached(Arc::new(g))
    }

    #[test]
    fn all_three_ops() {
        let g = graph();
        let a = VertexSet::new(g.clone(), vec![VertexId(0), VertexId(1)]);
        let b = VertexSet::new(g.clone(), vec![VertexId(1), VertexId(2)]);
        let mut cx = PassCx::new();
        let u = UnionPass::union()
            .run(&[a.clone().into(), b.clone().into()], &mut cx)
            .unwrap();
        assert_eq!(u[0].as_vertices().unwrap().len(), 3);
        let i = UnionPass::intersect()
            .run(&[a.clone().into(), b.clone().into()], &mut cx)
            .unwrap();
        assert_eq!(i[0].as_vertices().unwrap().ids, vec![VertexId(1)]);
        let d = UnionPass::difference()
            .run(&[a.into(), b.into()], &mut cx)
            .unwrap();
        assert_eq!(d[0].as_vertices().unwrap().ids, vec![VertexId(0)]);
    }
}
