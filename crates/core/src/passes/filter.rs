//! The filter set-operation (§4.3.1): "designed to deliver specific PAG
//! vertices and edges to specific passes", e.g. matching `MPI_*` selects
//! communication vertices.

use pag::VertexLabel;

use crate::error::PerFlowError;
use crate::pass::{expect_vertices, Pass, PassCx};
use crate::value::Value;

/// What a [`FilterPass`] filters on.
#[derive(Debug, Clone)]
pub enum FilterSpec {
    /// Name glob (e.g. `MPI_*`, `istream::read`).
    Name(String),
    /// Vertex label.
    Label(VertexLabel),
    /// Metric at least this value.
    MetricAtLeast(String, f64),
}

/// Pass wrapper for PerFlowGraphs.
pub struct FilterPass {
    /// The criterion.
    pub spec: FilterSpec,
}

impl FilterPass {
    /// Filter by name glob.
    pub fn name(pattern: impl Into<String>) -> Self {
        FilterPass {
            spec: FilterSpec::Name(pattern.into()),
        }
    }

    /// Filter by label.
    pub fn label(label: VertexLabel) -> Self {
        FilterPass {
            spec: FilterSpec::Label(label),
        }
    }

    /// Filter by metric threshold.
    pub fn metric_at_least(metric: impl Into<String>, min: f64) -> Self {
        FilterPass {
            spec: FilterSpec::MetricAtLeast(metric.into(), min),
        }
    }
}

impl Pass for FilterPass {
    fn name(&self) -> &str {
        "filter"
    }
    fn arity(&self) -> usize {
        1
    }
    fn run(&self, inputs: &[Value], _cx: &mut PassCx) -> Result<Vec<Value>, PerFlowError> {
        let set = expect_vertices(self, inputs, 0)?;
        let out = match &self.spec {
            FilterSpec::Name(p) => set.filter_name(p),
            FilterSpec::Label(l) => set.filter_label(*l),
            FilterSpec::MetricAtLeast(m, min) => set.filter_metric(m, *min),
        };
        Ok(vec![out.into()])
    }
    fn fingerprint(&self) -> Option<u64> {
        let mut h = obs::Fnv::new();
        h.str(self.name());
        match &self.spec {
            FilterSpec::Name(p) => {
                h.u64(0);
                h.str(p);
            }
            FilterSpec::Label(l) => {
                h.u64(1);
                h.str(l.name());
            }
            FilterSpec::MetricAtLeast(m, min) => {
                h.u64(2);
                h.str(m);
                h.u64(min.to_bits());
            }
        }
        Some(h.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphref::GraphRef;
    use pag::{keys, mkeys, CallKind, Pag, ViewKind};
    use std::sync::Arc;

    fn graph() -> GraphRef {
        let mut g = Pag::new(ViewKind::TopDown, "f");
        let a = g.add_vertex(VertexLabel::Call(CallKind::Comm), "MPI_Send");
        let b = g.add_vertex(VertexLabel::Compute, "kernel");
        g.set_metric(a, mkeys::TIME, 2.0);
        g.set_metric(b, mkeys::TIME, 8.0);
        GraphRef::Detached(Arc::new(g))
    }

    #[test]
    fn filters_by_each_spec() {
        let set = graph().all_vertices();
        let mut cx = PassCx::new();
        let by_name = FilterPass::name("MPI_*")
            .run(&[set.clone().into()], &mut cx)
            .unwrap();
        assert_eq!(by_name[0].as_vertices().unwrap().len(), 1);
        let by_label = FilterPass::label(VertexLabel::Compute)
            .run(&[set.clone().into()], &mut cx)
            .unwrap();
        assert_eq!(by_label[0].as_vertices().unwrap().len(), 1);
        let by_metric = FilterPass::metric_at_least(keys::TIME, 5.0)
            .run(&[set.into()], &mut cx)
            .unwrap();
        assert_eq!(by_metric[0].as_vertices().unwrap().len(), 1);
    }
}
