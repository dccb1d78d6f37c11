//! The PerFlowGraph: an executable dataflow graph of passes (§4.1).
//!
//! Nodes are passes; edges carry [`Value`]s from an output port of one
//! node to an input port of another. `execute()` runs the nodes one at a
//! time on the calling thread, in canonical topological order (smallest
//! node id first among the ready ones); the pre-flight lint has already
//! rejected cycles and unwired ports. [`ExecOptions::with_cache`] adds a
//! content-hash pass-result cache ([`crate::cache::PassCache`]) so
//! re-running an unchanged graph replays memoized results.
//!
//! Each node's outputs depend only on its inputs, and the trail lists
//! the passes in the order they ran, so a graph yields the same outputs
//! and trail on every run.

use std::collections::HashMap;

use obs::{names, Layer};

use crate::cache::{self, CacheStats};
use crate::error::PerFlowError;
use crate::exec::{ExecOptions, ExecPolicy, PassFailure};
use crate::metrics::{PassMetric, RunMetrics};
use crate::pass::{Pass, PassCx, SourcePass};
use crate::value::Value;
use verify::{lint_graph, Diagnostics, GraphShape, NodeShape, WireShape};

/// Identifier of a node within one [`PerFlowGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

struct Node {
    pass: Box<dyn Pass>,
}

/// A wire from `(from_node, out_port)` to `(to_node, in_port)`.
#[derive(Debug, Clone, Copy)]
struct Wire {
    from: NodeId,
    out_port: usize,
    to: NodeId,
    in_port: usize,
}

/// Result of running one node: its outputs plus the pass trail.
type NodeResult = Result<(Vec<Value>, Vec<String>), PerFlowError>;

/// An executable dataflow graph of performance-analysis passes.
#[derive(Default)]
pub struct PerFlowGraph {
    nodes: Vec<Node>,
    wires: Vec<Wire>,
}

/// All node outputs after execution.
///
/// Under [`ExecPolicy::Isolate`] a run can complete *degraded*: failed
/// nodes are listed in [`Outputs::failures`], their transitive
/// downstream in [`Outputs::skipped`], and neither contributes values
/// or trail entries — [`Outputs::of`] on them returns an empty slice.
/// Human-readable degraded-data warnings accumulate in
/// [`Outputs::warnings`].
#[derive(Debug, Default)]
pub struct Outputs {
    values: HashMap<NodeId, Vec<Value>>,
    /// Order in which passes ran (merged trails).
    pub trail: Vec<String>,
    /// Scheduler metrics (empty unless the run was observed via
    /// [`ExecOptions::with_obs`]).
    pub metrics: RunMetrics,
    /// Nodes that failed (error or panic) in an [`ExecPolicy::Isolate`]
    /// run, sorted by node id. Empty on fail-fast runs — those return
    /// `Err` instead.
    pub failures: Vec<PassFailure>,
    /// Nodes skipped because a transitive producer failed, sorted.
    pub skipped: Vec<NodeId>,
    /// Degraded-data warnings, in deterministic order.
    pub warnings: Vec<String>,
}

impl Outputs {
    /// The outputs of one node (empty slice when the node is unknown or
    /// left no outputs).
    pub fn of(&self, node: NodeId) -> &[Value] {
        self.values.get(&node).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Convenience: the first output of a node as a vertex set.
    pub fn vertices(&self, node: NodeId) -> Option<&crate::set::VertexSet> {
        self.of(node).first().and_then(Value::as_vertices)
    }

    /// Convenience: the first output of a node as a report.
    pub fn report(&self, node: NodeId) -> Option<&crate::report::Report> {
        self.of(node).first().and_then(Value::as_report)
    }

    /// True when the run completed with failed or skipped nodes
    /// (possible only under [`ExecPolicy::Isolate`]).
    pub fn degraded(&self) -> bool {
        !self.failures.is_empty() || !self.skipped.is_empty()
    }
}

impl PerFlowGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a pass node.
    pub fn add_pass(&mut self, pass: impl Pass + 'static) -> NodeId {
        self.nodes.push(Node {
            pass: Box::new(pass),
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Add a source node emitting a fixed value.
    pub fn add_source(&mut self, value: impl Into<Value>) -> NodeId {
        self.add_pass(SourcePass::new(value))
    }

    /// Connect output port `out_port` of `from` to input port `in_port`
    /// of `to`.
    pub fn connect(
        &mut self,
        from: NodeId,
        out_port: usize,
        to: NodeId,
        in_port: usize,
    ) -> Result<(), PerFlowError> {
        for n in [from, to] {
            if n.0 >= self.nodes.len() {
                return Err(PerFlowError::BadNode { node: n.0 });
            }
        }
        if self
            .wires
            .iter()
            .any(|w| w.to == to && w.in_port == in_port)
        {
            return Err(PerFlowError::PortConflict {
                node: to.0,
                port: in_port,
            });
        }
        self.wires.push(Wire {
            from,
            out_port,
            to,
            in_port,
        });
        Ok(())
    }

    /// Shorthand: connect first output of `from` to port 0 of `to`.
    pub fn pipe(&mut self, from: NodeId, to: NodeId) -> Result<(), PerFlowError> {
        self.connect(from, 0, to, 0)
    }

    /// The node shown as `name`: unique in a graph that lints without
    /// PF0008 (duplicate names).
    pub fn find(&self, name: &str) -> Option<NodeId> {
        let i = self.nodes.iter().position(|n| n.pass.name() == name)?;
        Some(NodeId(i))
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Render the PerFlowGraph itself as DOT — the visualization the
    /// paper draws in Figs. 2, 8, 11 and 14 (passes as boxes, set flow as
    /// arrows).
    pub fn to_dot(&self, title: &str) -> String {
        use pag::escape_dot as esc;
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{}\" {{", esc(title));
        let _ = writeln!(out, "  rankdir=LR;");
        let _ = writeln!(
            out,
            "  node [shape=box, style=\"rounded,filled\", fillcolor=\"#eef3fb\", fontname=\"Helvetica\"];"
        );
        for (i, node) in self.nodes.iter().enumerate() {
            let name = node.pass.name();
            let shape = if name == "source" {
                ", shape=ellipse, fillcolor=\"#f4f4f4\""
            } else if name == "report" {
                ", shape=note, fillcolor=\"#fdf3dd\""
            } else {
                ""
            };
            let _ = writeln!(out, "  n{i} [label=\"{}\"{shape}];", esc(name));
        }
        for w in &self.wires {
            let label = if w.out_port == 0 && w.in_port == 0 {
                String::new()
            } else {
                format!(" [label=\"{}→{}\"]", w.out_port, w.in_port)
            };
            let _ = writeln!(out, "  n{} -> n{}{};", w.from.0, w.to.0, label);
        }
        out.push_str("}\n");
        out
    }

    /// Structural snapshot of this graph for the static linter: node
    /// names, arities, fingerprint availability, and wires — everything
    /// `verify::lint_graph` inspects, nothing it could execute.
    pub fn shape(&self) -> GraphShape {
        GraphShape {
            nodes: self
                .nodes
                .iter()
                .map(|n| NodeShape {
                    name: n.pass.name().to_string(),
                    arity: n.pass.arity(),
                    has_fingerprint: n.pass.fingerprint().is_some(),
                })
                .collect(),
            wires: self
                .wires
                .iter()
                .map(|w| WireShape {
                    from: w.from.0,
                    out_port: w.out_port,
                    to: w.to.0,
                    in_port: w.in_port,
                })
                .collect(),
        }
    }

    /// Run the static linter over this graph without executing it. The
    /// `execute` methods run this as a pre-flight gate and refuse to
    /// schedule anything when it reports errors; warnings and infos
    /// never block execution.
    pub fn lint(&self) -> Diagnostics {
        lint_graph(&self.shape())
    }

    /// Canonical topological order (smallest node id first among ready
    /// nodes) — the order the trail is reported in, independent of the
    /// order nodes actually completed in.
    fn topo_order(&self) -> Vec<usize> {
        let n = self.nodes.len();
        let mut deps: Vec<usize> = vec![0; n];
        for w in &self.wires {
            deps[w.to.0] += 1;
        }
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
            .filter(|&i| deps[i] == 0)
            .map(std::cmp::Reverse)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(std::cmp::Reverse(i)) = heap.pop() {
            order.push(i);
            for w in self.wires.iter().filter(|w| w.from.0 == i) {
                deps[w.to.0] -= 1;
                if deps[w.to.0] == 0 {
                    heap.push(std::cmp::Reverse(w.to.0));
                }
            }
        }
        order
    }

    /// Execute the graph with the default [`ExecOptions`].
    pub fn execute(&self) -> Result<Outputs, PerFlowError> {
        self.execute_with(&ExecOptions::new())
    }

    /// Execute the graph under `opts`: failure policy, cache and
    /// observability (see [`ExecOptions`]).
    /// The nodes run one at a time on the calling thread, in canonical
    /// topological order.
    pub fn execute_with(&self, opts: &ExecOptions<'_>) -> Result<Outputs, PerFlowError> {
        let n = self.nodes.len();
        if n == 0 {
            return Ok(Outputs::default());
        }
        // Pre-flight static gate: refuse to run structurally broken
        // graphs (cycles, missing inputs, port gaps, …) with localized
        // diagnostics instead of failing mid-run. Lint warnings/infos
        // never block execution.
        let diagnostics = self.lint();
        if diagnostics.has_errors() {
            return Err(PerFlowError::Rejected { diagnostics });
        }
        // The lint has ruled out missing, gapped and duplicated ports
        // (PF0002–PF0004), so sorting a node's wires by port gives its
        // inputs in order.
        let mut wires_in: Vec<Vec<Wire>> = vec![Vec::new(); n];
        for w in &self.wires {
            wires_in[w.to.0].push(*w);
        }
        for ws in &mut wires_in {
            ws.sort_by_key(|w| w.in_port);
        }
        let obs = &opts.obs;
        let observed = obs.is_enabled();
        let isolate = opts.policy == ExecPolicy::Isolate;
        let sched_start = obs.now_us();
        let cache_stats0 = opts.cache.map(|c| c.stats());
        let mut values: HashMap<NodeId, Vec<Value>> = HashMap::new();
        let mut trail: Vec<String> = Vec::new();
        let mut failures: Vec<PassFailure> = Vec::new();
        let mut skipped: Vec<NodeId> = Vec::new();
        let mut passes: Vec<PassMetric> = Vec::new();
        // Observability: when each node finished; a node is ready once
        // its last producer has (empty when the run is unobserved — no
        // clock reads on the fast path).
        let mut done_at = vec![sched_start; if observed { n } else { 0 }];
        for i in self.topo_order() {
            let pass = &self.nodes[i].pass;
            // Every producer ran before this node. Under Isolate, one
            // that left no outputs failed or was skipped: this node is
            // skipped too, and so, in turn, are its dependents.
            if isolate && wires_in[i].iter().any(|w| !values.contains_key(&w.from)) {
                skipped.push(NodeId(i));
                continue;
            }
            let inputs = match self.snapshot_inputs(&values, i, &wires_in[i]) {
                Ok(inputs) => inputs,
                // Producer ran but lacks the wired output port.
                Err(error) if isolate => {
                    failures.push(PassFailure {
                        node: i,
                        pass: pass.name().to_string(),
                        error,
                    });
                    continue;
                }
                Err(e) => return Err(e),
            };
            let start_us = obs.now_us();
            let run = run_node(pass.as_ref(), &inputs, opts);
            if observed {
                let end_us = obs.now_us();
                let ready_us = wires_in[i]
                    .iter()
                    .map(|w| done_at[w.from.0])
                    .fold(sched_start, f64::max);
                done_at[i] = end_us;
                let dispatch_seq = passes.len();
                let cache_hit = run.cache_hit == Some(true);
                obs.record_span(
                    Layer::Core,
                    format!("pass:{}", pass.name()),
                    0,
                    start_us,
                    end_us,
                    &[
                        ("node", i as f64),
                        ("cache_hit", if cache_hit { 1.0 } else { 0.0 }),
                        ("dispatch_seq", dispatch_seq as f64),
                    ],
                );
                if let Some(hit) = run.cache_hit {
                    obs.count(
                        if hit {
                            "core.cache.hit"
                        } else {
                            "core.cache.miss"
                        },
                        1,
                    );
                }
                obs.count("core.pass.dispatched", 1);
                passes.push(PassMetric {
                    node: i,
                    name: pass.name().to_string(),
                    wall_us: end_us - start_us,
                    queue_wait_us: (start_us - ready_us).max(0.0),
                    cache_hit,
                    worker: 0,
                    dispatch_seq,
                });
            }
            match run.result {
                Ok((outs, pass_trail)) => {
                    trail.push(pass.name().to_string());
                    trail.extend(pass_trail);
                    values.insert(NodeId(i), outs);
                }
                Err(error) if isolate => failures.push(PassFailure {
                    node: i,
                    pass: pass.name().to_string(),
                    error,
                }),
                Err(e) => return Err(e),
            }
        }
        failures.sort_by_key(|f| f.node);
        skipped.sort();
        let warnings = self.run_warnings(&failures, &skipped);
        let metrics = if observed {
            let cache = opts.cache.map(|c| {
                let s1 = c.stats();
                let s0 = cache_stats0.unwrap_or_default();
                CacheStats {
                    hits: s1.hits - s0.hits,
                    misses: s1.misses - s0.misses,
                }
            });
            passes.sort_by_key(|p| p.node);
            // Distribution views of the same timings: into the run's
            // metrics and into the handle's histogram store, so the
            // Prometheus exposition carries them too.
            let mut wall_hist = obs::Histogram::new();
            let mut queue_hist = obs::Histogram::new();
            for p in &passes {
                wall_hist.record(p.wall_us);
                queue_hist.record(p.queue_wait_us);
            }
            obs.observe_merged("core.pass.wall_us", &wall_hist);
            obs.observe_merged("core.pass.queue_wait_us", &queue_hist);
            let busy_us = passes.iter().map(|p| p.wall_us).sum();
            RunMetrics {
                passes,
                cache,
                total_wall_us: obs.now_us() - sched_start,
                workers: 1,
                worker_busy_us: vec![busy_us],
                wall_hist,
                queue_hist,
            }
        } else {
            RunMetrics::default()
        };
        Ok(Outputs {
            values,
            trail,
            metrics,
            failures,
            skipped,
            warnings,
        })
    }

    /// Assemble the deterministic degraded-data warnings of a completed
    /// run: one per failure, then one naming every skipped pass.
    fn run_warnings(&self, failures: &[PassFailure], skipped: &[NodeId]) -> Vec<String> {
        let mut warnings = Vec::new();
        for f in failures {
            warnings.push(format!("degraded data: {f}"));
        }
        if !skipped.is_empty() {
            let names: Vec<String> = skipped
                .iter()
                .map(|&id| format!("`{}` (node {})", self.nodes[id.0].pass.name(), id.0))
                .collect();
            warnings.push(format!(
                "degraded data: skipped {} downstream pass(es): {}",
                names.len(),
                names.join(", ")
            ));
        }
        warnings
    }

    /// Node `i`'s inputs, read from its producers' outputs.
    fn snapshot_inputs(
        &self,
        values: &HashMap<NodeId, Vec<Value>>,
        i: usize,
        wires: &[Wire],
    ) -> Result<Vec<Value>, PerFlowError> {
        let mut inputs = Vec::with_capacity(wires.len());
        for w in wires {
            match values.get(&w.from).and_then(|outs| outs.get(w.out_port)) {
                Some(v) => inputs.push(v.clone()),
                None => {
                    return Err(PerFlowError::MissingInput {
                        pass: self.nodes[i].pass.name().to_string(),
                        port: w.in_port,
                    })
                }
            }
        }
        Ok(inputs)
    }
}

/// What running one node produced, and how.
struct NodeRun {
    result: NodeResult,
    /// Whether the cache answered the node's lookup; `None` when it was
    /// not looked up (no cache attached, or the node has no content key).
    cache_hit: Option<bool>,
}

/// Run one node: replay a cached result when there is one, else execute
/// the pass once under panic capture and fill the cache from a success.
fn run_node(pass: &dyn Pass, inputs: &[Value], opts: &ExecOptions<'_>) -> NodeRun {
    // The content key is computed only when a cache is attached. An
    // unkeyed node runs every time.
    let key = opts.cache.and_then(|_| cache::key(pass, inputs));
    // A hit clones the payload pointer; the deep clone below happens off
    // the cache lock.
    let cached = opts.cache.zip(key).map(|(c, k)| c.get(k));
    let cache_hit = cached.as_ref().map(Option::is_some);
    let result = match cached.flatten() {
        Some(r) => Ok((r.outputs.clone(), r.trail.clone())),
        None => run_guarded(pass, inputs, &opts.obs),
    };
    if let (Some(c), Some(k), Some(false), Ok((outs, trail))) =
        (opts.cache, key, cache_hit, &result)
    {
        c.insert(k, outs.clone(), trail.clone());
    }
    NodeRun { result, cache_hit }
}

/// Run a pass under `catch_unwind`, converting an unwind into a
/// structured error. `AssertUnwindSafe` is sound here: on panic both the
/// context and any partially-built outputs are discarded, so no broken
/// invariant is ever observed.
fn run_guarded(pass: &dyn Pass, inputs: &[Value], obs: &obs::Obs) -> NodeResult {
    let mut cx = PassCx::new();
    let caught =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pass.run(inputs, &mut cx)));
    match caught {
        Ok(Ok(outs)) => Ok((outs, cx.trail)),
        Ok(Err(e)) => Err(e),
        Err(payload) => {
            obs.count(names::PASS_PANIC, 1);
            Err(PerFlowError::PassPanicked {
                pass: pass.name().to_string(),
                payload: panic_payload_text(payload.as_ref()),
            })
        }
    }
}

/// Render a panic payload: `&str` and `String` payloads verbatim,
/// anything else a placeholder.
fn panic_payload_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::FnPass;
    use obs::Obs;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    fn add_pass() -> FnPass<impl Fn(&[Value]) -> Result<Vec<Value>, PerFlowError> + Send + Sync> {
        FnPass::new("add", 2, |inputs: &[Value]| {
            let a = inputs[0].as_num().unwrap();
            let b = inputs[1].as_num().unwrap();
            Ok(vec![Value::Num(a + b)])
        })
    }

    #[test]
    fn linear_pipeline() {
        let mut g = PerFlowGraph::new();
        let s = g.add_source(2.0);
        let double = g.add_pass(FnPass::new("double", 1, |i: &[Value]| {
            Ok(vec![Value::Num(i[0].as_num().unwrap() * 2.0)])
        }));
        g.pipe(s, double).unwrap();
        let out = g.execute().unwrap();
        assert_eq!(out.of(double)[0].as_num(), Some(4.0));
        assert!(out.trail.contains(&"double".to_string()));
    }

    #[test]
    fn diamond_with_two_inputs() {
        let mut g = PerFlowGraph::new();
        let a = g.add_source(1.0);
        let b = g.add_source(2.0);
        let sum = g.add_pass(add_pass());
        g.connect(a, 0, sum, 0).unwrap();
        g.connect(b, 0, sum, 1).unwrap();
        let out = g.execute().unwrap();
        assert_eq!(out.of(sum)[0].as_num(), Some(3.0));
    }

    #[test]
    fn parallel_branches_both_execute() {
        let mut g = PerFlowGraph::new();
        let s = g.add_source(10.0);
        let inc = g.add_pass(FnPass::new("inc", 1, |i: &[Value]| {
            Ok(vec![Value::Num(i[0].as_num().unwrap() + 1.0)])
        }));
        let dec = g.add_pass(FnPass::new("dec", 1, |i: &[Value]| {
            Ok(vec![Value::Num(i[0].as_num().unwrap() - 1.0)])
        }));
        g.pipe(s, inc).unwrap();
        g.pipe(s, dec).unwrap();
        let join = g.add_pass(add_pass());
        g.connect(inc, 0, join, 0).unwrap();
        g.connect(dec, 0, join, 1).unwrap();
        let out = g.execute().unwrap();
        assert_eq!(out.of(join)[0].as_num(), Some(20.0));
    }

    #[test]
    fn multiple_output_ports() {
        let mut g = PerFlowGraph::new();
        let s = g.add_source(5.0);
        let split = g.add_pass(FnPass::new("split", 1, |i: &[Value]| {
            let v = i[0].as_num().unwrap();
            Ok(vec![Value::Num(v), Value::Num(-v)])
        }));
        g.pipe(s, split).unwrap();
        let neg = g.add_pass(FnPass::new("id", 1, |i: &[Value]| Ok(vec![i[0].clone()])));
        g.connect(split, 1, neg, 0).unwrap();
        let out = g.execute().unwrap();
        assert_eq!(out.of(neg)[0].as_num(), Some(-5.0));
    }

    #[test]
    fn port_conflict_rejected() {
        let mut g = PerFlowGraph::new();
        let a = g.add_source(1.0);
        let b = g.add_source(2.0);
        let sum = g.add_pass(add_pass());
        g.connect(a, 0, sum, 0).unwrap();
        assert!(matches!(
            g.connect(b, 0, sum, 0),
            Err(PerFlowError::PortConflict { .. })
        ));
    }

    #[test]
    fn cycle_rejected_preflight_with_named_ring() {
        let mut g = PerFlowGraph::new();
        let id1 = g.add_pass(FnPass::new("id1", 1, |i: &[Value]| Ok(vec![i[0].clone()])));
        let id2 = g.add_pass(FnPass::new("id2", 1, |i: &[Value]| Ok(vec![i[0].clone()])));
        g.pipe(id1, id2).unwrap();
        g.pipe(id2, id1).unwrap();
        // The pre-flight lint rejects the cycle and names its members.
        match g.execute() {
            Err(PerFlowError::Rejected { diagnostics }) => {
                let cyc = diagnostics
                    .items()
                    .iter()
                    .find(|d| d.code == verify::codes::CYCLE)
                    .expect("cycle diagnostic");
                assert!(cyc.message.contains("`id1`"), "{}", cyc.message);
                assert!(cyc.message.contains("`id2`"), "{}", cyc.message);
            }
            Err(other) => panic!("expected Rejected, got {other:?}"),
            Ok(_) => panic!("expected Rejected, graph executed"),
        }
    }

    #[test]
    fn bad_node_rejected() {
        let mut g = PerFlowGraph::new();
        let a = g.add_source(1.0);
        assert!(matches!(
            g.connect(a, 0, NodeId(99), 0),
            Err(PerFlowError::BadNode { node: 99 })
        ));
    }

    #[test]
    fn missing_arity_input_rejected() {
        let mut g = PerFlowGraph::new();
        let a = g.add_source(1.0);
        let sum = g.add_pass(add_pass()); // needs 2 inputs
        g.connect(a, 0, sum, 0).unwrap();
        match g.execute() {
            Err(PerFlowError::Rejected { diagnostics }) => {
                let m = diagnostics.first_error().unwrap();
                assert_eq!(m.code, verify::codes::MISSING_INPUT);
                assert!(m.message.contains("`add`"), "{}", m.message);
                assert!(m.message.contains("port 1"), "{}", m.message);
            }
            Err(other) => panic!("expected Rejected, got {other:?}"),
            Ok(_) => panic!("expected Rejected, graph executed"),
        }
    }

    #[test]
    fn dot_renders_passes_and_wires() {
        let mut g = PerFlowGraph::new();
        let a = g.add_source(1.0);
        let b = g.add_source(2.0);
        let sum = g.add_pass(add_pass());
        g.connect(a, 0, sum, 0).unwrap();
        g.connect(b, 0, sum, 1).unwrap();
        let dot = g.to_dot("fig");
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("add"));
        assert!(dot.contains("n0 -> n2"));
        assert!(dot.contains("0→1")); // non-default port labeled
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn dot_escapes_quotes_and_newlines() {
        let mut g = PerFlowGraph::new();
        g.add_pass(FnPass::new("evil \"pass\"\nname", 0, |_: &[Value]| {
            Ok(vec![])
        }));
        let dot = g.to_dot("ti\"tle\nx");
        assert!(dot.contains("digraph \"ti\\\"tle\\nx\""), "{dot}");
        assert!(dot.contains("label=\"evil \\\"pass\\\"\\nname\""), "{dot}");
        // No raw newline survives inside any label.
        for line in dot.lines() {
            assert!(!line.contains("evil \"pass\""), "unescaped: {line}");
        }
    }

    #[test]
    fn cache_hits_every_node_on_reexecution() {
        let runs = Arc::new(AtomicU32::new(0));
        let mut g = PerFlowGraph::new();
        let s = g.add_source(3.0);
        let sq = g.add_pass(FpPass::counted("square", |v| v * v, &runs));
        g.pipe(s, sq).unwrap();
        let cache = crate::cache::PassCache::new();
        let opts = ExecOptions::new().with_cache(&cache);
        let first = g.execute_with(&opts).unwrap();
        assert_eq!(first.of(sq)[0].as_num(), Some(9.0));
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().hits, 0);
        let second = g.execute_with(&opts).unwrap();
        assert_eq!(second.of(sq)[0].as_num(), Some(9.0));
        assert_eq!(cache.stats().hits, 2, "every node replays from cache");
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(runs.load(Ordering::SeqCst), 1, "the pass ran exactly once");
        // Trails are identical between the live and the cached run.
        assert_eq!(first.trail, second.trail);
    }

    #[test]
    fn unkeyed_pass_runs_every_time_and_is_never_counted() {
        let runs = Arc::new(AtomicU32::new(0));
        let mut g = PerFlowGraph::new();
        let s = g.add_source(3.0);
        let runs2 = Arc::clone(&runs);
        let sq = g.add_pass(FnPass::new("square", 1, move |i: &[Value]| {
            runs2.fetch_add(1, Ordering::SeqCst);
            let v = i[0].as_num().unwrap();
            Ok(vec![Value::Num(v * v)])
        }));
        g.pipe(s, sq).unwrap();
        let cache = crate::cache::PassCache::new();
        let obs = Obs::enabled();
        let opts = ExecOptions::new().with_cache(&cache).with_obs(obs.clone());
        for _ in 0..2 {
            let out = g.execute_with(&opts).unwrap();
            assert_eq!(out.of(sq)[0].as_num(), Some(9.0));
        }
        // Only the keyed source is looked up: one miss, then one hit.
        assert_eq!(runs.load(Ordering::SeqCst), 2, "the closure runs each time");
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(obs.counter("core.cache.miss"), 1);
        assert_eq!(obs.counter("core.cache.hit"), 1);
    }

    #[test]
    fn observed_run_reports_one_worker() {
        let mut g = PerFlowGraph::new();
        let s = g.add_source(3.0);
        let id = g.add_pass(FnPass::new("id", 1, |i: &[Value]| Ok(vec![i[0].clone()])));
        g.pipe(s, id).unwrap();
        let out = g
            .execute_with(&ExecOptions::new().with_obs(Obs::enabled()))
            .unwrap();
        assert_eq!(out.metrics.workers, 1);
        assert_eq!(out.metrics.worker_busy_us.len(), 1);
        // Passes run in node order here, on lane 0, one after another.
        let seq: Vec<(usize, usize, usize)> = out
            .metrics
            .passes
            .iter()
            .map(|p| (p.node, p.worker, p.dispatch_seq))
            .collect();
        assert_eq!(seq, vec![(0, 0, 0), (1, 0, 1)]);
    }

    #[test]
    fn cache_misses_on_changed_input() {
        let cache = crate::cache::PassCache::new();
        for (seed, want) in [(2.0, 4.0), (5.0, 25.0)] {
            let mut g = PerFlowGraph::new();
            let s = g.add_source(seed);
            let sq = g.add_pass(FpPass::new("square", |v| v * v));
            g.pipe(s, sq).unwrap();
            let out = g
                .execute_with(&ExecOptions::new().with_cache(&cache))
                .unwrap();
            assert_eq!(out.of(sq)[0].as_num(), Some(want));
        }
        // Different source values → different keys → no false hits.
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn wide_fanout_32_branches() {
        let mut g = PerFlowGraph::new();
        let s = g.add_source(1.0);
        let branches: Vec<NodeId> = (0..32)
            .map(|k| {
                let b = g.add_pass(FnPass::new(format!("b{k}"), 1, move |i: &[Value]| {
                    Ok(vec![Value::Num(i[0].as_num().unwrap() + k as f64)])
                }));
                g.pipe(s, b).unwrap();
                b
            })
            .collect();
        let out = g.execute().unwrap();
        for (k, &b) in branches.iter().enumerate() {
            assert_eq!(out.of(b)[0].as_num(), Some(1.0 + k as f64));
        }
        // Every branch (and the source) shows up in the trail.
        assert!(out.trail.contains(&"source".to_string()));
        for k in 0..32 {
            assert!(out.trail.contains(&format!("b{k}")));
        }
    }

    #[test]
    fn gap_in_ports_rejected() {
        let mut g = PerFlowGraph::new();
        let a = g.add_source(1.0);
        let sum = g.add_pass(add_pass());
        g.connect(a, 0, sum, 1).unwrap(); // port 0 never wired
        match g.execute() {
            Err(PerFlowError::Rejected { diagnostics }) => {
                let m = diagnostics.first_error().unwrap();
                assert_eq!(m.code, verify::codes::MISSING_INPUT);
                assert!(m.message.contains("port 0"), "{}", m.message);
            }
            Err(other) => panic!("expected Rejected, got {other:?}"),
            Ok(_) => panic!("expected Rejected, graph executed"),
        }
    }

    #[test]
    fn validate_wiring_reports_node_and_port() {
        // The pre-flight lint is the only wiring gate: a missing port is
        // reported against the node and the exact port.
        let mut g = PerFlowGraph::new();
        let a = g.add_source(1.0);
        let sum = g.add_pass(add_pass());
        g.connect(a, 0, sum, 1).unwrap();
        match g.execute() {
            Err(PerFlowError::Rejected { diagnostics }) => {
                let m = diagnostics.first_error().unwrap();
                assert_eq!(m.code, verify::codes::MISSING_INPUT);
                assert_eq!(
                    m.anchor,
                    verify::Anchor::Node {
                        id: sum.0,
                        name: "add".into()
                    }
                );
                assert!(m.message.contains("port 0"), "{}", m.message);
                assert!(m.message.contains("no producer"), "{}", m.message);
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
    }

    #[test]
    fn lint_is_exposed_without_execution() {
        let mut g = PerFlowGraph::new();
        let s = g.add_source(1.0);
        let id = g.add_pass(FnPass::new("id", 1, |i: &[Value]| Ok(vec![i[0].clone()])));
        g.pipe(s, id).unwrap();
        let d = g.lint();
        assert!(!d.has_errors(), "{}", d.render_text());
        // The closure pass has no fingerprint → cache-effectiveness warn.
        assert!(d
            .items()
            .iter()
            .any(|x| x.code == verify::codes::NO_FINGERPRINT));
    }

    // ----- resilient execution -------------------------------------

    /// A fingerprinted unary pass: `f(x)` on Num inputs, content-keyed
    /// on its name, counting its runs.
    struct FpPass {
        name: &'static str,
        f: fn(f64) -> f64,
        runs: Arc<AtomicU32>,
    }

    impl FpPass {
        fn new(name: &'static str, f: fn(f64) -> f64) -> Self {
            Self::counted(name, f, &Arc::default())
        }

        fn counted(name: &'static str, f: fn(f64) -> f64, runs: &Arc<AtomicU32>) -> Self {
            FpPass {
                name,
                f,
                runs: Arc::clone(runs),
            }
        }
    }

    impl Pass for FpPass {
        fn name(&self) -> &str {
            self.name
        }
        fn arity(&self) -> usize {
            1
        }
        fn run(&self, inputs: &[Value], _cx: &mut PassCx) -> Result<Vec<Value>, PerFlowError> {
            self.runs.fetch_add(1, Ordering::SeqCst);
            Ok(vec![Value::Num((self.f)(inputs[0].as_num().unwrap()))])
        }
        fn fingerprint(&self) -> Option<u64> {
            let mut h = obs::Fnv::new();
            h.str("fp-pass");
            h.str(self.name);
            Some(h.finish())
        }
    }

    fn panicking_graph() -> (PerFlowGraph, NodeId, NodeId, NodeId) {
        // source ─→ boom ─→ sink        (fails, then skipped)
        //    └────→ ok                   (independent, must complete)
        let mut g = PerFlowGraph::new();
        let s = g.add_source(1.0);
        let boom = g.add_pass(FnPass::new(
            "boom",
            1,
            |_: &[Value]| -> Result<Vec<Value>, PerFlowError> { panic!("injected pass panic") },
        ));
        let sink = g.add_pass(FnPass::new("sink", 1, |i: &[Value]| Ok(vec![i[0].clone()])));
        let ok = g.add_pass(FnPass::new("ok", 1, |i: &[Value]| {
            Ok(vec![Value::Num(i[0].as_num().unwrap() + 41.0)])
        }));
        g.pipe(s, boom).unwrap();
        g.pipe(boom, sink).unwrap();
        g.pipe(s, ok).unwrap();
        (g, boom, sink, ok)
    }

    #[test]
    fn panic_becomes_structured_error() {
        let (g, ..) = panicking_graph();
        match g.execute() {
            Err(PerFlowError::PassPanicked { pass, payload }) => {
                assert_eq!(pass, "boom");
                assert_eq!(payload, "injected pass panic");
            }
            other => panic!("expected PassPanicked, got {other:?}"),
        }
    }

    #[test]
    fn isolate_skips_downstream_and_finishes_independent_branches() {
        let (g, boom, sink, ok) = panicking_graph();
        let obs = Obs::enabled();
        let opts = ExecOptions::new()
            .with_policy(ExecPolicy::Isolate)
            .with_obs(obs.clone());
        let out = g.execute_with(&opts).expect("isolate run completes");
        assert!(out.degraded());
        assert_eq!(out.failures.len(), 1);
        assert_eq!(out.failures[0].node, boom.0);
        assert!(matches!(
            out.failures[0].error,
            PerFlowError::PassPanicked { .. }
        ));
        assert_eq!(out.skipped, vec![sink]);
        // The independent branch completed with its value.
        assert_eq!(out.of(ok)[0].as_num(), Some(42.0));
        // Failed/skipped nodes have no outputs and no trail entry.
        assert!(out.of(sink).is_empty());
        assert!(!out.trail.contains(&"boom".to_string()));
        assert!(!out.trail.contains(&"sink".to_string()));
        // Degraded-data warnings name both the failure and the skip.
        assert!(
            out.warnings.iter().any(|w| w.contains("boom")),
            "{:?}",
            out.warnings
        );
        assert!(
            out.warnings.iter().any(|w| w.contains("sink")),
            "{:?}",
            out.warnings
        );
        assert_eq!(obs.counter(obs::names::PASS_PANIC), 1);
    }

    #[test]
    fn isolate_on_clean_graph_is_identical_to_failfast() {
        let mut g = PerFlowGraph::new();
        let a = g.add_source(1.0);
        let b = g.add_source(2.0);
        let sum = g.add_pass(add_pass());
        g.connect(a, 0, sum, 0).unwrap();
        g.connect(b, 0, sum, 1).unwrap();
        let plain = g.execute().unwrap();
        let isolated = g
            .execute_with(&ExecOptions::new().with_policy(ExecPolicy::Isolate))
            .unwrap();
        assert_eq!(plain.of(sum)[0].as_num(), isolated.of(sum)[0].as_num());
        assert_eq!(plain.trail, isolated.trail);
        assert!(!isolated.degraded());
        assert!(isolated.warnings.is_empty());
    }
}
