//! Interactive analysis mode (§4.5).
//!
//! "For scenarios in which developers do not know what analysis to
//! apply, PerFlow supports an interactive mode. It is advisable to first
//! use a general built-in analysis pass, such as hotspot detection. The
//! output of the previous pass will provide some insights to help
//! determine or design the next passes."
//!
//! [`InteractiveSession`] keeps a *current set*, applies built-in passes
//! step by step, records the history (rendered by
//! [`InteractiveSession::report`], so the final PerFlowGraph can be
//! reconstructed from an exploratory session), and offers heuristic
//! [`InteractiveSession::suggest`]ions for the next pass based on what
//! the current set contains.

use pag::{keys, CallKind, VertexLabel};

use crate::graphref::{GraphRef, RunHandle, RunHandleExt};
use crate::passes;
use crate::passes::contention::EMBEDDINGS_PER_ANCHOR;
use crate::report::Report;
use crate::set::VertexSet;

/// One recorded step of an interactive session.
#[derive(Debug, Clone)]
pub struct StepRecord {
    /// Pass applied (with its parameters rendered).
    pub pass: String,
    /// Set size before.
    pub input_len: usize,
    /// Set size after.
    pub output_len: usize,
}

/// A suggested next pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Suggestion {
    /// Start (or restart) with hotspot detection.
    Hotspot,
    /// The set is communication-heavy: check cross-process balance.
    Imbalance,
    /// Imbalanced communication found: break it down / find causes.
    Breakdown,
    /// Move to the parallel view and run causal analysis.
    Causal,
    /// Lock sites dominate: search for contention patterns.
    Contention,
    /// The set is empty: relax thresholds or widen the filter.
    Widen,
}

/// An interactive analysis session over one profiled run.
pub struct InteractiveSession {
    run: RunHandle,
    current: VertexSet,
    history: Vec<StepRecord>,
}

impl InteractiveSession {
    /// Start a session on the run's top-down view (all vertices).
    pub fn new(run: &RunHandle) -> Self {
        InteractiveSession {
            run: std::sync::Arc::clone(run),
            current: run.vertices(),
            history: Vec::new(),
        }
    }

    /// The current working set.
    pub fn current(&self) -> &VertexSet {
        &self.current
    }

    fn step(&mut self, pass: String, next: VertexSet) {
        self.history.push(StepRecord {
            pass,
            input_len: self.current.len(),
            output_len: next.len(),
        });
        self.current = next;
    }

    /// Apply a name filter.
    pub fn filter(&mut self, pattern: &str) -> &VertexSet {
        let next = self.current.filter_name(pattern);
        self.step(format!("filter({pattern})"), next);
        &self.current
    }

    /// Apply hotspot detection.
    pub fn hotspot(&mut self, n: usize) -> &VertexSet {
        let next = passes::hotspot(&self.current, keys::TIME, n);
        self.step(format!("hotspot_detection(n={n})"), next);
        &self.current
    }

    /// Apply imbalance analysis.
    pub fn imbalance(&mut self, threshold: f64) -> &VertexSet {
        let next = passes::imbalance(&self.current, threshold);
        self.step(format!("imbalance_analysis(threshold={threshold})"), next);
        &self.current
    }

    /// Breakdown analysis: replaces the set with the cause vertices and
    /// returns the explanation report.
    pub fn breakdown(&mut self, threshold: f64) -> Report {
        let (causes, report, _) = passes::breakdown(&self.current, threshold);
        self.step(format!("breakdown_analysis(threshold={threshold})"), causes);
        report
    }

    /// Project the current set onto the parallel view (all flow replicas
    /// of the current top-down vertices).
    pub fn to_parallel(&mut self) -> &VertexSet {
        let next = GraphRef::Parallel(std::sync::Arc::clone(&self.run)).project(&self.current);
        self.step("to_parallel_view".to_string(), next);
        &self.current
    }

    /// Causal analysis on the current (parallel-view) set.
    pub fn causal(&mut self) -> &VertexSet {
        let (causes, _) = passes::causal(&self.current, &passes::CausalConfig::default());
        self.step("causal_analysis".to_string(), causes);
        &self.current
    }

    /// Contention detection around the current (parallel-view) set.
    pub fn contention(&mut self) -> &VertexSet {
        let (v, _, _) = passes::contention(&self.current, None, EMBEDDINGS_PER_ANCHOR);
        self.step("contention_detection".to_string(), v);
        &self.current
    }

    /// Heuristic next-pass suggestion based on the current set.
    pub fn suggest(&self) -> Suggestion {
        if self.history.is_empty() {
            return Suggestion::Hotspot;
        }
        if self.current.is_empty() {
            return Suggestion::Widen;
        }
        let pag = self.current.graph.pag();
        let n = self.current.len() as f64;
        let comm = self
            .current
            .ids
            .iter()
            .filter(|&&v| pag.vertex(v).label.is_comm())
            .count() as f64;
        let locks = self
            .current
            .ids
            .iter()
            .filter(|&&v| pag.vertex(v).label == VertexLabel::Call(CallKind::Lock))
            .count() as f64;
        let already_imbalance = self.history.iter().any(|s| s.pass.starts_with("imbalance"));
        let on_parallel = matches!(self.current.graph, GraphRef::Parallel(_));
        if locks / n > 0.3 {
            Suggestion::Contention
        } else if on_parallel {
            Suggestion::Causal
        } else if comm / n > 0.5 && !already_imbalance {
            Suggestion::Imbalance
        } else if comm / n > 0.5 {
            Suggestion::Breakdown
        } else {
            Suggestion::Hotspot
        }
    }

    /// Render the session as a report: history + current set.
    pub fn report(&self, attrs: &[&str]) -> Report {
        let mut r =
            passes::report_pass::report_sets("interactive session", &[&self.current], attrs);
        for (i, s) in self.history.iter().enumerate() {
            r.note(format!(
                "step {}: {} ({} → {} vertices)",
                i + 1,
                s.pass,
                s.input_len,
                s.output_len
            ));
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::PerFlow;
    use progmodel::{c, nranks, nthreads, rank, ProgramBuilder};
    use simrt::RunConfig;

    fn run() -> RunHandle {
        let mut pb = ProgramBuilder::new("inter");
        let main = pb.declare("main", "i.c");
        pb.define(main, |f| {
            f.loop_("it", c(800.0), |b| {
                b.compute(
                    "kernel",
                    rank().lt(nranks() / c(4.0)).select(c(500.0), c(150.0)),
                );
                b.allreduce(c(64.0));
            });
        });
        let prog = pb.build(main);
        PerFlow::new().run(&prog, &RunConfig::new(8)).unwrap()
    }

    #[test]
    fn guided_session_reaches_the_root_cause() {
        let run = run();
        let mut s = InteractiveSession::new(&run);
        // Fresh session: suggests hotspot.
        assert_eq!(s.suggest(), Suggestion::Hotspot);
        s.filter("MPI_*");
        s.hotspot(5);
        // Comm-heavy set → imbalance next.
        assert_eq!(s.suggest(), Suggestion::Imbalance);
        s.imbalance(0.2);
        assert!(!s.current().is_empty(), "allreduce waits are imbalanced");
        // Comm still, imbalance done → breakdown next.
        assert_eq!(s.suggest(), Suggestion::Breakdown);
        let report = s.breakdown(0.2);
        assert!(report.render().contains("load-imbalance-before-comm"));
        // The cause set now holds the kernel's loop context.
        let names: Vec<&str> = s
            .current()
            .ids
            .iter()
            .map(|&v| s.current().graph.pag().vertex_name(v))
            .collect();
        assert!(
            names.iter().any(|n| *n == "kernel" || *n == "it"),
            "cause set {names:?}"
        );
        assert_eq!(s.history.len(), 4);
    }

    #[test]
    fn parallel_projection_then_causal_suggested() {
        let run = run();
        let mut s = InteractiveSession::new(&run);
        s.filter("MPI_*");
        s.to_parallel();
        assert_eq!(s.current().len(), 8, "one replica per rank");
        assert_eq!(s.suggest(), Suggestion::Causal);
        s.causal();
        assert!(!s.current().is_empty());
    }

    #[test]
    fn empty_set_suggests_widening() {
        let run = run();
        let mut s = InteractiveSession::new(&run);
        s.filter("does_not_exist_*");
        assert_eq!(s.suggest(), Suggestion::Widen);
    }

    /// The session's contention step finds what the Fig. 14 paradigm's
    /// contention pass finds around the same anchors, on a run whose
    /// threads serialize on the allocator lock.
    #[test]
    fn contention_step_matches_the_paradigm() {
        let mut pb = ProgramBuilder::new("locks");
        let main = pb.declare("main", "l.cpp");
        pb.define(main, |f| {
            f.loop_("iter", c(20.0), |b| {
                b.thread_region(nthreads(), |t| {
                    t.loop_("vertex_loop", c(30.0), |l| {
                        l.compute("scan", c(40.0) * progmodel::noise(0.1, 21));
                        l.alloc("_M_realloc_insert", c(25.0));
                    });
                });
                b.allreduce(c(64.0));
            });
        });
        let prog = pb.build(main);
        let pflow = PerFlow::new();
        let fast = pflow.run(&prog, &RunConfig::new(2).with_threads(2));
        let slow = pflow.run(&prog, &RunConfig::new(2).with_threads(8));
        let (fast, slow) = (fast.unwrap(), slow.unwrap());
        let g = crate::paradigms::contention_graph(&fast, &slow, 10).unwrap();
        let out = g.execute().unwrap();
        let anchors = out.vertices(g.find("union").unwrap()).unwrap();
        let found = out.vertices(g.find("contention_detection").unwrap());
        let found = found.unwrap();
        assert!(!found.is_empty(), "the run has no contention to find");
        let mut s = InteractiveSession::new(&slow);
        s.current = anchors.clone();
        let step = s.contention();
        assert_eq!(step.ids, found.ids);
        assert_eq!(step.scores, found.scores);
    }

    #[test]
    fn session_report_lists_history() {
        let run = run();
        let mut s = InteractiveSession::new(&run);
        s.filter("MPI_*");
        s.hotspot(3);
        let text = s.report(&["name", "time"]).render();
        assert!(text.contains("step 1: filter(MPI_*)"));
        assert!(text.contains("step 2: hotspot_detection(n=3)"));
    }
}
