//! Fluent typed builder for [`PerFlowGraph`]s.
//!
//! The raw graph API (`add_pass` / `connect(from, 0, to, 1)`) keeps
//! nodes and wires as loose integers; the builder wraps them in typed
//! handles so a PerFlowGraph reads like the dataflow it describes:
//!
//! ```
//! use perflow::builder::GraphBuilder;
//! use perflow::pass::FnPass;
//! use perflow::Value;
//!
//! let b = GraphBuilder::new();
//! let s = b.source(2.0);
//! let double = s.then(FnPass::new("double", 1, |i: &[Value]| {
//!     Ok(vec![Value::Num(i[0].as_num().unwrap() * 2.0)])
//! }));
//! let sum = b
//!     .node(FnPass::new("sum", 2, |i: &[Value]| {
//!         Ok(vec![Value::Num(
//!             i[0].as_num().unwrap() + i[1].as_num().unwrap(),
//!         )])
//!     }))
//!     .input(0, s.out(0))
//!     .input(1, double.out(0));
//! let g = b.finish().unwrap();
//! let out = g.execute().unwrap();
//! assert_eq!(out.of(sum.id())[0].as_num(), Some(6.0));
//! ```
//!
//! Wiring errors (port conflicts, bad nodes) are recorded as they happen
//! and surfaced once by [`GraphBuilder::finish`], so chains stay fluent.
//! The builder uses interior mutability (`RefCell`) and is single-thread
//! by design; the built [`PerFlowGraph`] is `Sync`, so several threads
//! can execute it at once.

use std::cell::RefCell;

use crate::dataflow::{NodeId, PerFlowGraph};
use crate::error::PerFlowError;
use crate::pass::Pass;
use crate::value::Value;

struct Inner {
    graph: PerFlowGraph,
    /// First wiring error; later operations still allocate nodes but the
    /// graph is refused at `finish()`.
    error: Option<PerFlowError>,
}

/// Builder accumulating nodes and wires for one [`PerFlowGraph`].
pub struct GraphBuilder {
    inner: RefCell<Inner>,
}

impl Default for GraphBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl GraphBuilder {
    /// Fresh builder for an empty graph.
    pub fn new() -> Self {
        GraphBuilder {
            inner: RefCell::new(Inner {
                graph: PerFlowGraph::new(),
                error: None,
            }),
        }
    }

    /// Add a pass node and return its handle.
    pub fn node(&self, pass: impl Pass + 'static) -> NodeHandle<'_> {
        let id = self.inner.borrow_mut().graph.add_pass(pass);
        NodeHandle { builder: self, id }
    }

    /// Add a source node emitting a fixed value.
    pub fn source(&self, value: impl Into<Value>) -> NodeHandle<'_> {
        let id = self.inner.borrow_mut().graph.add_source(value);
        NodeHandle { builder: self, id }
    }

    /// Add `pass` fed from the first output of each of `inputs`, in port
    /// order — the join step.
    pub(crate) fn join(&self, pass: impl Pass + 'static, inputs: &[NodeHandle]) -> NodeHandle<'_> {
        let node = self.node(pass);
        for (port, from) in inputs.iter().enumerate() {
            self.connect(from.id, 0, node.id, port);
        }
        node
    }

    /// Record a wire, keeping only the first error.
    fn connect(&self, from: NodeId, out_port: usize, to: NodeId, in_port: usize) {
        let mut inner = self.inner.borrow_mut();
        if let Err(e) = inner.graph.connect(from, out_port, to, in_port) {
            inner.error.get_or_insert(e);
        }
    }

    /// Finish building: the executable graph, or the first wiring error.
    /// Takes `&self` so node handles stay usable (for `Outputs` lookups)
    /// after the graph is extracted; the builder itself is drained and
    /// starts over empty.
    pub fn finish(&self) -> Result<PerFlowGraph, PerFlowError> {
        let mut inner = self.inner.borrow_mut();
        let graph = std::mem::take(&mut inner.graph);
        match inner.error.take() {
            Some(e) => Err(e),
            None => Ok(graph),
        }
    }
}

/// A typed handle to one node of a graph under construction.
#[derive(Clone, Copy)]
pub struct NodeHandle<'b> {
    builder: &'b GraphBuilder,
    id: NodeId,
}

/// One output port of a node — what [`NodeHandle::input`] plugs in.
#[derive(Debug, Clone, Copy)]
pub struct OutPort {
    /// Producing node.
    pub node: NodeId,
    /// Output port index.
    pub port: usize,
}

impl<'b> NodeHandle<'b> {
    /// The underlying node id (for [`crate::dataflow::Outputs`] lookups).
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Output port `port` of this node.
    pub fn out(&self, port: usize) -> OutPort {
        OutPort {
            node: self.id,
            port,
        }
    }

    /// Append `pass` fed from this node's first output (port 0 → port
    /// 0), returning the new node's handle — the linear-pipeline step.
    pub fn then(&self, pass: impl Pass + 'static) -> NodeHandle<'b> {
        let next = self.builder.node(pass);
        self.builder.connect(self.id, 0, next.id, 0);
        next
    }

    /// Wire `from` into input port `port` of this node; chainable.
    pub fn input(&self, port: usize, from: OutPort) -> NodeHandle<'b> {
        self.builder.connect(from.node, from.port, self.id, port);
        *self
    }
}

impl From<NodeHandle<'_>> for NodeId {
    fn from(h: NodeHandle<'_>) -> NodeId {
        h.id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::FnPass;

    fn add2() -> FnPass<impl Fn(&[Value]) -> Result<Vec<Value>, PerFlowError> + Send + Sync> {
        FnPass::new("add", 2, |i: &[Value]| {
            Ok(vec![Value::Num(
                i[0].as_num().unwrap() + i[1].as_num().unwrap(),
            )])
        })
    }

    #[test]
    fn fluent_diamond() {
        let b = GraphBuilder::new();
        let s = b.source(10.0);
        let inc = s.then(FnPass::new("inc", 1, |i: &[Value]| {
            Ok(vec![Value::Num(i[0].as_num().unwrap() + 1.0)])
        }));
        let dec = s.then(FnPass::new("dec", 1, |i: &[Value]| {
            Ok(vec![Value::Num(i[0].as_num().unwrap() - 1.0)])
        }));
        let join = b.node(add2()).input(0, inc.out(0)).input(1, dec.out(0));
        let g = b.finish().unwrap();
        let out = g.execute().unwrap();
        assert_eq!(out.of(join.id())[0].as_num(), Some(20.0));
    }

    #[test]
    fn then_chains_linearly() {
        let b = GraphBuilder::new();
        let end = b
            .source(1.0)
            .then(FnPass::new("x2", 1, |i: &[Value]| {
                Ok(vec![Value::Num(i[0].as_num().unwrap() * 2.0)])
            }))
            .then(FnPass::new("x3", 1, |i: &[Value]| {
                Ok(vec![Value::Num(i[0].as_num().unwrap() * 3.0)])
            }));
        let g = b.finish().unwrap();
        let out = g.execute().unwrap();
        assert_eq!(out.of(end.into())[0].as_num(), Some(6.0));
    }

    #[test]
    fn secondary_output_ports() {
        let b = GraphBuilder::new();
        let split = b.source(5.0).then(FnPass::new("split", 1, |i: &[Value]| {
            let v = i[0].as_num().unwrap();
            Ok(vec![Value::Num(v), Value::Num(-v)])
        }));
        let neg = b
            .node(FnPass::new("id", 1, |i: &[Value]| Ok(vec![i[0].clone()])))
            .input(0, split.out(1));
        let g = b.finish().unwrap();
        let out = g.execute().unwrap();
        assert_eq!(out.of(neg.id())[0].as_num(), Some(-5.0));
    }

    #[test]
    fn wiring_errors_surface_at_finish() {
        let b = GraphBuilder::new();
        let a = b.source(1.0);
        let c = b.source(2.0);
        let sum = b.node(add2()).input(0, a.out(0));
        // Second producer for port 0: recorded, surfaced at finish().
        let _ = sum.input(0, c.out(0));
        assert!(matches!(b.finish(), Err(PerFlowError::PortConflict { .. })));
    }
}
