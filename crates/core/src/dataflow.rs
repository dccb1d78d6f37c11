//! The PerFlowGraph: an executable dataflow graph of passes (§4.1).
//!
//! Nodes are passes; edges carry [`Value`]s from an output port of one
//! node to an input port of another. `execute()` runs the graph on an
//! event-driven work queue: a node is dispatched the moment its *last*
//! input lands, onto a bounded pool of scoped worker threads — dataflow
//! graphs with independent branches (e.g. the Vite diagnosis graph of
//! Fig. 14) exploit multicore hosts automatically, without the idle
//! bubbles of level-synchronous scheduling. [`ExecOptions::with_cache`]
//! adds a content-hash pass-result cache ([`crate::cache::PassCache`]) so
//! re-running an unchanged graph replays memoized results.
//!
//! Results are deterministic regardless of worker count or dispatch
//! order: each node's outputs depend only on its inputs, and the
//! reported trail is assembled in canonical topological order after the
//! run, not in completion order.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use obs::{names, Layer, Obs};

use crate::cache::{CacheStats, PassCache};
use crate::checkpoint;
use crate::error::PerFlowError;
use crate::exec::{ExecOptions, ExecPolicy, PassFailure};
use crate::metrics::{PassMetric, RunMetrics};
use crate::pass::{Pass, PassCx, SourcePass};
use crate::value::Value;
use verify::{lint_checkpoint, lint_graph, Diagnostics, GraphShape, NodeShape, WireShape};

/// Lock the scheduler state, recovering from poisoning: a worker that
/// panicked outside `catch_unwind` (e.g. an allocation failure while
/// publishing) must not strand its siblings on a poisoned mutex. The
/// guarded state is always structurally consistent — every mutation
/// below is a field write, not a multi-step invariant — so recovery is
/// safe.
fn lock_state<'a>(m: &'a Mutex<ExecState>) -> MutexGuard<'a, ExecState> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Identifier of a node within one [`PerFlowGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

struct Node {
    pass: Arc<dyn Pass>,
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
/// or trail entries — [`Outputs::try_of`] on them returns
/// [`PerFlowError::MissingOutput`]. Human-readable degraded-data
/// warnings accumulate in [`Outputs::warnings`].
#[derive(Debug, Default)]
pub struct Outputs {
    values: HashMap<NodeId, Vec<Value>>,
    /// Order in which passes ran (merged trails).
    pub trail: Vec<String>,
    /// Scheduler metrics (empty unless the run was observed via
    /// [`ExecOptions::with_obs`]).
    pub metrics: RunMetrics,
    /// Nodes that failed (error, panic, or timeout after retries) in an
    /// [`ExecPolicy::Isolate`] run, sorted by node id. Empty on
    /// fail-fast runs — those return `Err` instead.
    pub failures: Vec<PassFailure>,
    /// Nodes skipped because a transitive producer failed, sorted.
    pub skipped: Vec<NodeId>,
    /// Degraded-data and checkpoint warnings, in deterministic order.
    pub warnings: Vec<String>,
    /// Nodes replayed from a resume snapshot instead of executing.
    pub resumed: usize,
}

impl Outputs {
    /// The outputs of one node (empty slice when the node is unknown —
    /// prefer [`Outputs::try_of`] to distinguish "no outputs" from "no
    /// such node").
    pub fn of(&self, node: NodeId) -> &[Value] {
        self.values.get(&node).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// The outputs of one node, failing with
    /// [`PerFlowError::MissingOutput`] when the node was not part of the
    /// executed graph.
    pub fn try_of(&self, node: NodeId) -> Result<&[Value], PerFlowError> {
        self.values
            .get(&node)
            .map(|v| v.as_slice())
            .ok_or(PerFlowError::MissingOutput { node: node.0 })
    }

    /// Convenience: the first output of a node as a vertex set.
    pub fn vertices(&self, node: NodeId) -> Option<&crate::set::VertexSet> {
        self.of(node).first().and_then(Value::as_vertices)
    }

    /// Convenience: the first output of a node as an edge set.
    pub fn edges(&self, node: NodeId) -> Option<&crate::set::EdgeSet> {
        self.of(node).first().and_then(Value::as_edges)
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
            pass: Arc::new(pass),
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

    /// Execute the graph. A node is dispatched as soon as its last input
    /// lands; independent nodes run concurrently on a bounded pool.
    pub fn execute(&self) -> Result<Outputs, PerFlowError> {
        self.execute_with(&ExecOptions::new())
    }

    /// Fully configurable resilient execution; see [`ExecOptions`] for the
    /// failure policy, deadline, retry, cache, worker-count, observability
    /// and checkpoint/resume knobs. Outputs and trail are identical for
    /// every worker count.
    pub fn execute_with(&self, opts: &ExecOptions<'_>) -> Result<Outputs, PerFlowError> {
        let n = self.nodes.len();
        let obs = &opts.obs;
        let cache = opts.cache;
        if n == 0 {
            return Ok(Outputs::default());
        }
        // Pre-flight static gate: refuse to schedule structurally broken
        // graphs (cycles, missing inputs, port gaps, …) with localized
        // diagnostics instead of stalling or failing mid-run. Lint
        // warnings/infos never block execution.
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
        let mut out_wires: Vec<Vec<Wire>> = vec![Vec::new(); n];
        let mut deps_left: Vec<usize> = vec![0; n];
        for w in &self.wires {
            out_wires[w.from.0].push(*w);
            deps_left[w.to.0] += 1;
        }
        let observed = obs.is_enabled();
        let sched_start = obs.now_us();
        let cache_stats0 = cache.map(|c| c.stats());
        let ready: VecDeque<usize> = (0..n).filter(|&i| deps_left[i] == 0).collect();
        let mut ready_at = vec![0.0f64; if observed { n } else { 0 }];
        if observed {
            for &i in &ready {
                ready_at[i] = sched_start;
            }
        }
        let workers = opts.pool_size().min(n);
        let state = Mutex::new(ExecState {
            deps_left,
            ready,
            outputs: vec![None; n],
            trails: vec![None; n],
            in_flight: 0,
            completed: 0,
            error: None,
            failed: vec![false; n],
            skipped: vec![false; n],
            failures: Vec::new(),
            resume_hits: 0,
            ready_at,
            node_metrics: vec![None; if observed { n } else { 0 }],
            dispatched: 0,
            worker_busy: vec![0.0; if observed { workers } else { 0 }],
        });
        let wake = Condvar::new();
        let ctx = WorkerCtx {
            wires_in: &wires_in,
            out_wires: &out_wires,
            opts,
            // Stable content keys are only needed (and only computed)
            // when a snapshot is being written or replayed.
            need_stable: opts.checkpoint.is_some() || opts.resume.is_some(),
        };

        if workers <= 1 {
            self.worker(&state, &wake, &ctx, 0);
        } else {
            std::thread::scope(|s| {
                let (state, wake, ctx) = (&state, &wake, &ctx);
                for w in 0..workers {
                    s.spawn(move || self.worker(state, wake, ctx, w));
                }
            });
        }

        let mut st = state.into_inner().unwrap_or_else(|p| p.into_inner());
        if let Some(e) = st.error.take() {
            return Err(e);
        }
        let mut failures = std::mem::take(&mut st.failures);
        // Completion order is nondeterministic; node order is not.
        failures.sort_by_key(|f| f.node);
        let skipped: Vec<NodeId> = (0..n).filter(|&i| st.skipped[i]).map(NodeId).collect();
        let mut values: HashMap<NodeId, Vec<Value>> = HashMap::new();
        let mut trail: Vec<String> = Vec::new();
        for i in self.topo_order() {
            // Failed and skipped nodes contribute neither outputs nor
            // trail entries — the trail reports what actually ran.
            if let Some(outs) = st.outputs[i].take() {
                trail.push(self.nodes[i].pass.name().to_string());
                trail.extend(st.trails[i].take().unwrap_or_default());
                values.insert(NodeId(i), outs);
            }
        }
        let warnings = self.run_warnings(opts, &failures, &skipped);
        let metrics = if observed {
            let cache_delta = cache.map(|c| {
                let s1 = c.stats();
                let s0 = cache_stats0.unwrap_or_default();
                CacheStats {
                    hits: s1.hits - s0.hits,
                    misses: s1.misses - s0.misses,
                    evictions: s1.evictions - s0.evictions,
                    coalesced: s1.coalesced - s0.coalesced,
                }
            });
            let passes: Vec<PassMetric> = st.node_metrics.into_iter().flatten().collect();
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
            obs.set_gauge("core.pool.workers", workers as f64);
            RunMetrics {
                passes,
                cache: cache_delta,
                total_wall_us: obs.now_us() - sched_start,
                workers,
                worker_busy_us: st.worker_busy,
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
            resumed: st.resume_hits,
        })
    }

    /// Assemble the deterministic warning list of a completed run:
    /// checkpoint-readiness lint findings (when snapshotting was
    /// requested), degraded-data records for failures and skips, and
    /// best-effort checkpoint/resume anomalies.
    fn run_warnings(
        &self,
        opts: &ExecOptions<'_>,
        failures: &[PassFailure],
        skipped: &[NodeId],
    ) -> Vec<String> {
        let mut warnings = Vec::new();
        if opts.checkpoint.is_some() || opts.resume.is_some() {
            for d in lint_checkpoint(&self.shape()).items() {
                warnings.push(d.render_text());
            }
        }
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
        if let Some(w) = opts.checkpoint {
            if let Some(e) = w.error() {
                warnings.push(format!("checkpoint: {e}"));
            }
        }
        if let Some(s) = opts.resume {
            if s.dropped > 0 {
                warnings.push(format!(
                    "resume: {} snapshot entr{} referenced a run digest not loaded in this process and could not be replayed",
                    s.dropped,
                    if s.dropped == 1 { "y" } else { "ies" }
                ));
            }
        }
        warnings
    }

    /// One scheduler worker: pull ready nodes off the queue until the
    /// graph completes, errors, or stalls (cycle).
    fn worker(
        &self,
        state: &Mutex<ExecState>,
        wake: &Condvar,
        ctx: &WorkerCtx<'_, '_>,
        widx: usize,
    ) {
        let n = self.nodes.len();
        let opts = ctx.opts;
        let obs = &opts.obs;
        let cache = opts.cache;
        let observed = obs.is_enabled();
        let isolate = opts.policy == ExecPolicy::Isolate;
        loop {
            // Claim a ready node and snapshot its inputs.
            let (i, inputs, dispatch_seq) = {
                let mut st = lock_state(state);
                let (i, inputs) = loop {
                    if st.error.is_some() || st.completed == n {
                        return;
                    }
                    if let Some(i) = st.ready.pop_front() {
                        // Isolate: a node fed by a failed or skipped
                        // producer is skipped without dispatch, and the
                        // taint cascades to its own dependents. All
                        // producers are final (done/failed/skipped) by
                        // the time a node is enqueued, so this decision
                        // is deterministic.
                        if isolate
                            && ctx.wires_in[i]
                                .iter()
                                .any(|w| st.failed[w.from.0] || st.skipped[w.from.0])
                        {
                            st.skipped[i] = true;
                            st.finish_node(&ctx.out_wires[i], observed, obs);
                            wake.notify_all();
                            continue;
                        }
                        match self.snapshot_inputs(&st, i, &ctx.wires_in[i]) {
                            Ok(inputs) => break (i, inputs),
                            Err(e) => {
                                // Producer ran but lacks the wired
                                // output port.
                                if isolate {
                                    st.failed[i] = true;
                                    st.failures.push(PassFailure {
                                        node: i,
                                        pass: self.nodes[i].pass.name().to_string(),
                                        error: e,
                                        attempts: 0,
                                    });
                                    st.finish_node(&ctx.out_wires[i], observed, obs);
                                    wake.notify_all();
                                    continue;
                                }
                                st.error = Some(e);
                                wake.notify_all();
                                return;
                            }
                        }
                    }
                    if st.in_flight == 0 {
                        // Nothing running, nothing ready, nodes left:
                        // the remaining nodes form a cycle.
                        st.error = Some(PerFlowError::CyclicGraph);
                        wake.notify_all();
                        return;
                    }
                    st = wake.wait(st).unwrap_or_else(|p| p.into_inner());
                };
                st.in_flight += 1;
                let seq = st.dispatched;
                st.dispatched += 1;
                (i, inputs, seq)
            };

            // Run the pass (or replay a cached/resumed result) off the
            // lock.
            let pass = &self.nodes[i].pass;
            let start_us = obs.now_us();
            let mut cache_hit = false;
            let mut resume_hit = false;
            let mut attempts: u32 = 1;
            let stable_key = if ctx.need_stable {
                checkpoint::stable_key(&**pass, &inputs)
            } else {
                None
            };
            // Probe the cache: a hit clones the payload pointer (the
            // deep clone below happens off the cache lock); a miss hands
            // this worker the single-flight fill guard, so concurrent
            // probes of the same key wait for our fill instead of
            // re-running the pass or double-counting the miss.
            let mut fill = None;
            let cached = cache.map(|c| c.probe(PassCache::key(pass, &inputs)));
            let cached = match cached {
                Some(crate::cache::Probe::Hit(r)) => Some(r),
                Some(crate::cache::Probe::Miss(g)) => {
                    fill = Some(g);
                    None
                }
                None => None,
            };
            let result: NodeResult = if let Some(r) = cached {
                cache_hit = true;
                Ok((r.outputs.clone(), r.trail.clone()))
            } else if let Some(r) =
                stable_key.and_then(|k| opts.resume.and_then(|snap| snap.get(k)))
            {
                resume_hit = true;
                obs.count(names::PASS_RESUME_HIT, 1);
                Ok(r)
            } else {
                let retry = opts.retry_override.or_else(|| pass.retry_policy());
                let max_attempts = 1 + retry.map(|r| r.max_retries).unwrap_or(0);
                loop {
                    let r = run_attempt(pass, &inputs, opts.pass_timeout_ms);
                    match &r {
                        Err(PerFlowError::PassPanicked { .. }) => obs.count(names::PASS_PANIC, 1),
                        Err(PerFlowError::PassTimeout { .. }) => obs.count(names::PASS_TIMEOUT, 1),
                        _ => {}
                    }
                    match r {
                        Ok(v) => break Ok(v),
                        Err(e) => {
                            if attempts >= max_attempts {
                                break Err(e);
                            }
                            // Deterministic capped exponential backoff;
                            // the policy exists because attempts > 1.
                            let backoff = retry
                                .expect("retrying implies a retry policy")
                                .backoff_ms(attempts);
                            obs.count(names::PASS_RETRY, 1);
                            obs.observe(names::PASS_RETRY_LATENCY_MS, backoff as f64);
                            std::thread::sleep(std::time::Duration::from_millis(backoff));
                            attempts += 1;
                        }
                    }
                }
            };
            if let Ok((outs, trail)) = &result {
                // Fill the cache from executed *and* resumed results, and
                // append every stable-keyed success to the snapshot —
                // a resumed run rewrites a complete checkpoint file.
                if let Some(g) = fill.take() {
                    g.fill(outs.clone(), trail.clone(), Arc::clone(pass));
                }
                if let (Some(w), Some(k)) = (opts.checkpoint, stable_key) {
                    w.record(k, outs, trail);
                }
            }
            // A failed pass abandons its fill guard, promoting one
            // coalesced waiter (if any) to run the pass itself.
            drop(fill);
            let end_us = obs.now_us();
            if observed {
                let name = pass.name();
                obs.record_span(
                    Layer::Core,
                    format!("pass:{name}"),
                    widx as u32,
                    start_us,
                    end_us,
                    &[
                        ("node", i as f64),
                        ("cache_hit", if cache_hit { 1.0 } else { 0.0 }),
                        ("resume_hit", if resume_hit { 1.0 } else { 0.0 }),
                        ("attempts", attempts as f64),
                        ("dispatch_seq", dispatch_seq as f64),
                    ],
                );
                if cache.is_some() {
                    obs.count(
                        if cache_hit {
                            "core.cache.hit"
                        } else {
                            "core.cache.miss"
                        },
                        1,
                    );
                }
                obs.count("core.pass.dispatched", 1);
            }

            // Publish and release dependents.
            let mut st = lock_state(state);
            st.in_flight -= 1;
            if observed {
                st.worker_busy[widx] += end_us - start_us;
                st.node_metrics[i] = Some(PassMetric {
                    node: i,
                    name: pass.name().to_string(),
                    wall_us: end_us - start_us,
                    queue_wait_us: (start_us - st.ready_at[i]).max(0.0),
                    cache_hit,
                    worker: widx,
                    dispatch_seq,
                });
            }
            match result {
                Ok((outs, trail)) => {
                    if resume_hit {
                        st.resume_hits += 1;
                    }
                    st.outputs[i] = Some(outs);
                    st.trails[i] = Some(trail);
                    st.finish_node(&ctx.out_wires[i], observed, obs);
                }
                Err(e) => {
                    if isolate {
                        st.failed[i] = true;
                        st.failures.push(PassFailure {
                            node: i,
                            pass: pass.name().to_string(),
                            error: e,
                            attempts,
                        });
                        // Dependents still enqueue (so the skip cascade
                        // can visit and finish them), but carry no data.
                        st.finish_node(&ctx.out_wires[i], observed, obs);
                    } else {
                        st.error.get_or_insert(e);
                    }
                }
            }
            wake.notify_all();
        }
    }

    /// Snapshot node `i`'s inputs from its producers' published outputs
    /// (caller holds the state lock).
    fn snapshot_inputs(
        &self,
        st: &ExecState,
        i: usize,
        wires: &[Wire],
    ) -> Result<Vec<Value>, PerFlowError> {
        let mut inputs = Vec::with_capacity(wires.len());
        for w in wires {
            let v = st.outputs[w.from.0]
                .as_ref()
                .and_then(|outs| outs.get(w.out_port))
                .cloned();
            match v {
                Some(v) => inputs.push(v),
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

/// Immutable per-run context shared by all workers.
struct WorkerCtx<'a, 'o> {
    wires_in: &'a [Vec<Wire>],
    out_wires: &'a [Vec<Wire>],
    opts: &'a ExecOptions<'o>,
    need_stable: bool,
}

/// Run one execution attempt of `pass`: panics are caught and converted
/// to [`PerFlowError::PassPanicked`]; with a deadline, the pass runs on
/// a detached watchdog thread and is abandoned on expiry (its eventual
/// result, if any, is discarded).
fn run_attempt(pass: &Arc<dyn Pass>, inputs: &[Value], timeout_ms: Option<u64>) -> NodeResult {
    let Some(ms) = timeout_ms else {
        return run_guarded(pass, inputs);
    };
    let (tx, rx) = std::sync::mpsc::channel();
    let pass2 = Arc::clone(pass);
    let inputs2 = inputs.to_vec();
    std::thread::spawn(move || {
        // A send after the deadline hits a dropped receiver; ignore it.
        let _ = tx.send(run_guarded(&pass2, &inputs2));
    });
    match rx.recv_timeout(std::time::Duration::from_millis(ms)) {
        Ok(r) => r,
        Err(_) => Err(PerFlowError::PassTimeout {
            pass: pass.name().to_string(),
            timeout_ms: ms,
        }),
    }
}

/// Run a pass under `catch_unwind`, converting an unwind into a
/// structured error. `AssertUnwindSafe` is sound here: on panic both the
/// context and any partially-built outputs are discarded, so no broken
/// invariant is ever observed.
fn run_guarded(pass: &Arc<dyn Pass>, inputs: &[Value]) -> NodeResult {
    let mut cx = PassCx::new();
    let caught =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pass.run(inputs, &mut cx)));
    match caught {
        Ok(Ok(outs)) => Ok((outs, cx.trail)),
        Ok(Err(e)) => Err(e),
        Err(payload) => Err(PerFlowError::PassPanicked {
            pass: pass.name().to_string(),
            payload: panic_payload_text(payload.as_ref()),
        }),
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

/// Shared scheduler state behind the work-queue mutex.
struct ExecState {
    /// Unsatisfied input-wire counts; a node enqueues at zero.
    deps_left: Vec<usize>,
    /// Nodes whose inputs are all available.
    ready: VecDeque<usize>,
    /// Per-node outputs (produced or replayed).
    outputs: Vec<Option<Vec<Value>>>,
    /// Per-node pass trails.
    trails: Vec<Option<Vec<String>>>,
    /// Nodes currently executing on some worker.
    in_flight: usize,
    /// Nodes in a final state: done, failed, or skipped. The pool drains
    /// when this reaches the node count — failed branches count too, so
    /// an isolated failure can never deadlock waiting workers.
    completed: usize,
    /// First error observed; stops the run (fail-fast only).
    error: Option<PerFlowError>,
    /// Isolate: nodes whose execution failed after all retries.
    failed: Vec<bool>,
    /// Isolate: nodes skipped because a transitive producer failed.
    skipped: Vec<bool>,
    /// Isolate: post-mortem records, in completion order (sorted later).
    failures: Vec<PassFailure>,
    /// Nodes replayed from a resume snapshot.
    resume_hits: usize,
    /// Observability: per-node timestamp of when it became ready (empty
    /// when the run is unobserved — no clock reads on the fast path).
    ready_at: Vec<f64>,
    /// Observability: per-node pass metric, filled at completion.
    node_metrics: Vec<Option<PassMetric>>,
    /// Observability: dispatch counter (0 = dispatched first).
    dispatched: usize,
    /// Observability: accumulated busy time per worker, µs.
    worker_busy: Vec<f64>,
}

impl ExecState {
    /// Move a node into a final state (done, failed, or skipped):
    /// count it and release its dependents. Dependents of failed/skipped
    /// nodes still enqueue so the skip cascade can finish them.
    fn finish_node(&mut self, out_wires: &[Wire], observed: bool, obs: &Obs) {
        self.completed += 1;
        for w in out_wires {
            self.deps_left[w.to.0] -= 1;
            if self.deps_left[w.to.0] == 0 {
                self.ready.push_back(w.to.0);
                if observed {
                    self.ready_at[w.to.0] = obs.now_us();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::FnPass;

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
        // The pre-flight lint names the cycle members instead of letting
        // the scheduler stall into a bare CyclicGraph error.
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
        use std::sync::atomic::{AtomicUsize, Ordering};
        let runs = Arc::new(AtomicUsize::new(0));
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
        let opts = ExecOptions::new().with_cache(&cache);
        let first = g.execute_with(&opts).unwrap();
        assert_eq!(first.of(sq)[0].as_num(), Some(9.0));
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().hits, 0);
        let second = g.execute_with(&opts).unwrap();
        assert_eq!(second.of(sq)[0].as_num(), Some(9.0));
        assert_eq!(cache.stats().hits, 2, "every node replays from cache");
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(runs.load(Ordering::SeqCst), 1, "closure ran exactly once");
        // Trails are identical between the live and the cached run.
        assert_eq!(first.trail, second.trail);
    }

    #[test]
    fn zero_pinned_workers_run_as_one() {
        let mut g = PerFlowGraph::new();
        let s = g.add_source(3.0);
        let id = g.add_pass(FnPass::new("id", 1, |i: &[Value]| Ok(vec![i[0].clone()])));
        g.pipe(s, id).unwrap();
        // Settable only through the public field; `with_workers` agrees.
        let mut opts = ExecOptions::new().with_obs(Obs::enabled());
        opts.workers = Some(0);
        let out = g.execute_with(&opts).unwrap();
        assert_eq!(out.metrics.workers, 1);
        assert_eq!(out.metrics.worker_busy_us.len(), 1);
        assert_eq!(ExecOptions::new().with_workers(0).pool_size(), 1);
    }

    #[test]
    fn cache_misses_on_changed_input() {
        let cache = crate::cache::PassCache::new();
        for (seed, want) in [(2.0, 4.0), (5.0, 25.0)] {
            let mut g = PerFlowGraph::new();
            let s = g.add_source(seed);
            let sq = g.add_pass(FnPass::new("square", 1, |i: &[Value]| {
                let v = i[0].as_num().unwrap();
                Ok(vec![Value::Num(v * v)])
            }));
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

    use crate::exec::RetryPolicy;

    /// A fingerprinted unary pass for checkpoint tests: `f(x)` on Num
    /// inputs, content-keyed on its name.
    struct FpPass {
        name: String,
        f: fn(f64) -> f64,
    }

    impl Pass for FpPass {
        fn name(&self) -> &str {
            &self.name
        }
        fn arity(&self) -> usize {
            1
        }
        fn run(&self, inputs: &[Value], _cx: &mut PassCx) -> Result<Vec<Value>, PerFlowError> {
            Ok(vec![Value::Num((self.f)(inputs[0].as_num().unwrap()))])
        }
        fn fingerprint(&self) -> Option<u64> {
            let mut h = obs::Fnv::new();
            h.str("fp-pass");
            h.str(&self.name);
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
    fn panic_becomes_structured_error_at_every_worker_count() {
        let (g, ..) = panicking_graph();
        for workers in [1, 2, 8] {
            let opts = ExecOptions::new().with_workers(workers);
            match g.execute_with(&opts) {
                Err(PerFlowError::PassPanicked { pass, payload }) => {
                    assert_eq!(pass, "boom");
                    assert_eq!(payload, "injected pass panic");
                }
                other => panic!("workers={workers}: expected PassPanicked, got {other:?}"),
            }
        }
    }

    #[test]
    fn isolate_skips_downstream_and_finishes_independent_branches() {
        let (g, boom, sink, ok) = panicking_graph();
        for workers in [1, 2, 8] {
            let obs = Obs::enabled();
            let opts = ExecOptions::new()
                .with_policy(ExecPolicy::Isolate)
                .with_workers(workers)
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
            assert!(matches!(
                out.try_of(sink),
                Err(PerFlowError::MissingOutput { .. })
            ));
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
    }

    #[test]
    fn deadline_watchdog_abandons_stalled_pass() {
        let mut g = PerFlowGraph::new();
        let s = g.add_source(1.0);
        let stall = g.add_pass(FnPass::new("stall", 1, |i: &[Value]| {
            std::thread::sleep(std::time::Duration::from_millis(400));
            Ok(vec![i[0].clone()])
        }));
        g.pipe(s, stall).unwrap();
        let obs = Obs::enabled();
        let opts = ExecOptions::new()
            .with_pass_timeout_ms(30)
            .with_obs(obs.clone());
        match g.execute_with(&opts) {
            Err(PerFlowError::PassTimeout { pass, timeout_ms }) => {
                assert_eq!(pass, "stall");
                assert_eq!(timeout_ms, 30);
            }
            other => panic!("expected PassTimeout, got {other:?}"),
        }
        assert_eq!(obs.counter(obs::names::PASS_TIMEOUT), 1);
        // A generous deadline lets the same graph complete.
        let opts = ExecOptions::new().with_pass_timeout_ms(10_000);
        assert!(g.execute_with(&opts).is_ok());
    }

    #[test]
    fn retry_recovers_transient_failures() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let tries = Arc::new(AtomicU32::new(0));
        let mut g = PerFlowGraph::new();
        let s = g.add_source(7.0);
        let t2 = Arc::clone(&tries);
        let flaky = g.add_pass(FnPass::new("flaky", 1, move |i: &[Value]| {
            if t2.fetch_add(1, Ordering::SeqCst) < 2 {
                Err(PerFlowError::Analysis("transient".into()))
            } else {
                Ok(vec![i[0].clone()])
            }
        }));
        g.pipe(s, flaky).unwrap();
        let obs = Obs::enabled();
        let opts = ExecOptions::new()
            .with_retry(RetryPolicy::new(3).with_backoff_ms(1, 2))
            .with_obs(obs.clone());
        let out = g.execute_with(&opts).expect("retries recover");
        assert_eq!(out.of(flaky)[0].as_num(), Some(7.0));
        assert_eq!(tries.load(Ordering::SeqCst), 3);
        assert_eq!(obs.counter(obs::names::PASS_RETRY), 2);
        assert_eq!(
            obs.histogram(obs::names::PASS_RETRY_LATENCY_MS)
                .unwrap()
                .count(),
            2
        );
    }

    #[test]
    fn retries_exhaust_to_final_error() {
        let mut g = PerFlowGraph::new();
        let s = g.add_source(1.0);
        let bad = g.add_pass(FnPass::new("bad", 1, |_: &[Value]| {
            Err(PerFlowError::Analysis("permanent".into()))
        }));
        g.pipe(s, bad).unwrap();
        let opts = ExecOptions::new().with_retry(RetryPolicy::new(2).with_backoff_ms(1, 1));
        match g.execute_with(&opts) {
            Err(PerFlowError::Analysis(m)) => assert_eq!(m, "permanent"),
            other => panic!("expected Analysis, got {other:?}"),
        }
        // Under Isolate the same exhaustion is a recorded failure with
        // the attempt count.
        let opts = ExecOptions::new()
            .with_policy(ExecPolicy::Isolate)
            .with_retry(RetryPolicy::new(2).with_backoff_ms(1, 1));
        let out = g.execute_with(&opts).unwrap();
        assert_eq!(out.failures.len(), 1);
        assert_eq!(out.failures[0].attempts, 3);
    }

    #[test]
    fn per_pass_retry_policy_is_honored() {
        use std::sync::atomic::{AtomicU32, Ordering};
        struct SelfHealing(Arc<AtomicU32>);
        impl Pass for SelfHealing {
            fn name(&self) -> &str {
                "self_healing"
            }
            fn arity(&self) -> usize {
                0
            }
            fn run(&self, _: &[Value], _: &mut PassCx) -> Result<Vec<Value>, PerFlowError> {
                if self.0.fetch_add(1, Ordering::SeqCst) == 0 {
                    Err(PerFlowError::Analysis("first try fails".into()))
                } else {
                    Ok(vec![Value::Num(5.0)])
                }
            }
            fn retry_policy(&self) -> Option<RetryPolicy> {
                Some(RetryPolicy::new(1).with_backoff_ms(1, 1))
            }
        }
        let tries = Arc::new(AtomicU32::new(0));
        let mut g = PerFlowGraph::new();
        let node = g.add_pass(SelfHealing(Arc::clone(&tries)));
        let out = g.execute().expect("pass-declared retry applies");
        assert_eq!(out.of(node)[0].as_num(), Some(5.0));
        assert_eq!(tries.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn checkpoint_then_resume_replays_without_execution() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let path = {
            let mut p = std::env::temp_dir();
            p.push(format!("perflow-dataflow-ckpt-{}", std::process::id()));
            p
        };
        let runs = Arc::new(AtomicU32::new(0));

        let build = |runs: Arc<AtomicU32>| {
            let mut g = PerFlowGraph::new();
            let s = g.add_source(3.0);
            let double = g.add_pass(FpPass {
                name: "double".into(),
                f: |x| x * 2.0,
            });
            struct Counting(Arc<AtomicU32>);
            impl Pass for Counting {
                fn name(&self) -> &str {
                    "counting_inc"
                }
                fn arity(&self) -> usize {
                    1
                }
                fn run(&self, i: &[Value], _: &mut PassCx) -> Result<Vec<Value>, PerFlowError> {
                    self.0.fetch_add(1, Ordering::SeqCst);
                    Ok(vec![Value::Num(i[0].as_num().unwrap() + 1.0)])
                }
                fn fingerprint(&self) -> Option<u64> {
                    let mut h = obs::Fnv::new();
                    h.str("counting_inc");
                    Some(h.finish())
                }
            }
            let inc = g.add_pass(Counting(runs));
            g.pipe(s, double).unwrap();
            g.pipe(double, inc).unwrap();
            (g, inc)
        };

        // First run writes the snapshot.
        let (g1, inc1) = build(Arc::clone(&runs));
        let writer = checkpoint::CheckpointWriter::create(&path, 77).unwrap();
        let opts = ExecOptions::new().with_checkpoint(&writer);
        let first = g1.execute_with(&opts).unwrap();
        assert_eq!(first.of(inc1)[0].as_num(), Some(7.0));
        assert_eq!(writer.recorded(), 3, "all three passes are stable-keyed");
        assert!(writer.error().is_none());
        assert_eq!(runs.load(Ordering::SeqCst), 1);

        // Second run (fresh graph objects, same content) resumes: no
        // pass re-executes, outputs identical.
        let (g2, inc2) = build(Arc::clone(&runs));
        let file = checkpoint::CheckpointFile::load(&path).unwrap();
        file.expect_context(77).unwrap();
        let snap = file.rebind(&[]);
        assert_eq!(snap.len(), 3);
        let obs = Obs::enabled();
        let opts = ExecOptions::new().with_resume(&snap).with_obs(obs.clone());
        let second = g2.execute_with(&opts).unwrap();
        assert_eq!(second.of(inc2)[0].as_num(), Some(7.0));
        assert_eq!(second.resumed, 3);
        assert_eq!(runs.load(Ordering::SeqCst), 1, "no re-execution on resume");
        assert_eq!(obs.counter(obs::names::PASS_RESUME_HIT), 3);
        assert_eq!(first.trail, second.trail);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_warns_on_unresumable_passes() {
        let path = {
            let mut p = std::env::temp_dir();
            p.push(format!("perflow-dataflow-warn-{}", std::process::id()));
            p
        };
        let mut g = PerFlowGraph::new();
        let s = g.add_source(1.0);
        // Closure pass: no fingerprint, so it can never be checkpointed.
        let id = g.add_pass(FnPass::new("opaque", 1, |i: &[Value]| {
            Ok(vec![i[0].clone()])
        }));
        g.pipe(s, id).unwrap();
        let writer = checkpoint::CheckpointWriter::create(&path, 1).unwrap();
        let opts = ExecOptions::new().with_checkpoint(&writer);
        let out = g.execute_with(&opts).unwrap();
        assert!(
            out.warnings
                .iter()
                .any(|w| w.contains("PF0011") && w.contains("opaque")),
            "{:?}",
            out.warnings
        );
        // Only the fingerprinted source was recorded.
        assert_eq!(writer.recorded(), 1);
        let _ = std::fs::remove_file(&path);
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
