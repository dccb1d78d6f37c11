//! # Analysis driver
//!
//! The reusable layer between the front-ends (`perflow-cli`, `perflow-serve`)
//! and the perflow library: run-size bounds, workload selection, paradigm
//! assembly, lint collection and the observed comm-analysis session.
//! Front-ends parse arguments and print; everything that decides *what
//! to run* lives here so it can be driven programmatically.

pub mod bench_diff;

use obs::json::{obj, Json};
use perflow::paradigms::{
    causal_seed_graph, causal_step_graph, comm_analysis_graph, contention_diagnosis,
    contention_graph, critical_path_graph, critical_path_paradigm, iterative_causal, mpi_profiler,
    scalability_analysis, scalability_graph,
};
use perflow::pass::FnPass;
use perflow::passes::{HotspotPass, ReportPass};
use perflow::verify::{check_pag, lint_program, lint_query_text, Diagnostics, Severity};
use perflow::{
    execute_query, ExecOptions, ExecPolicy, GraphBuilder, Obs, PerFlow, PerFlowError, PerFlowGraph,
    Report, RunHandle, RunHandleExt,
};
use progmodel::Program;
use simrt::RunConfig;

/// A driver-level failure: a human-readable message ready for stderr.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriverError(pub String);

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DriverError {}

/// Names of all bundled workloads (canonical names, no aliases).
pub const WORKLOAD_NAMES: &[&str] = &[
    "bt",
    "cg",
    "ep",
    "ft",
    "is",
    "lu",
    "mg",
    "sp",
    "zeusmp",
    "zeusmp-fixed",
    "lammps",
    "lammps-balanced",
    "vite",
    "vite-optimized",
];

/// Look up a bundled workload by name (a few aliases accepted).
pub fn workload(name: &str) -> Option<Program> {
    Some(match name {
        "bt" => workloads::bt(),
        "cg" => workloads::cg(),
        "ep" => workloads::ep(),
        "ft" => workloads::ft(),
        "is" => workloads::is(),
        "lu" => workloads::lu(),
        "mg" => workloads::mg(),
        "sp" => workloads::sp(),
        "zeusmp" | "zmp" => workloads::zeusmp(),
        "zeusmp-fixed" => workloads::zeusmp_fixed(),
        "lammps" | "lmp" => workloads::lammps(),
        "lammps-balanced" => workloads::lammps_balanced(),
        "vite" => workloads::vite(),
        "vite-optimized" => workloads::vite_optimized(),
        _ => return None,
    })
}

/// The built-in analysis paradigms a front-end can dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Paradigm {
    /// mpiP-style flat communication profile.
    MpiProfiler,
    /// Top-N hotspot report.
    Hotspot,
    /// Differential scalability analysis (small vs. large run).
    Scalability,
    /// Critical-path extraction over the parallel view.
    CriticalPath,
    /// Iterated causal analysis to a fixpoint.
    Causal,
    /// Contention diagnosis (low- vs. high-thread run).
    Contention,
}

impl Paradigm {
    /// Every paradigm, in display order.
    pub const ALL: [Paradigm; 6] = [
        Paradigm::MpiProfiler,
        Paradigm::Hotspot,
        Paradigm::Scalability,
        Paradigm::CriticalPath,
        Paradigm::Causal,
        Paradigm::Contention,
    ];

    /// Command-line name.
    pub fn name(&self) -> &'static str {
        match self {
            Paradigm::MpiProfiler => "mpip",
            Paradigm::Hotspot => "hotspot",
            Paradigm::Scalability => "scalability",
            Paradigm::CriticalPath => "critical-path",
            Paradigm::Causal => "causal",
            Paradigm::Contention => "contention",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Paradigm> {
        Paradigm::ALL.iter().copied().find(|p| p.name() == s)
    }
}

/// Shape of the analysis runs a front-end requests.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Ranks for the main run.
    pub ranks: u32,
    /// Ranks for the reference run of differential scalability analysis.
    pub small_ranks: u32,
    /// Threads per rank for the main run.
    pub threads: u32,
    /// Simulation seed (shared by the main and any reference run).
    pub seed: u64,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            ranks: 16,
            small_ranks: 4,
            threads: 1,
            seed: 0x5EED,
        }
    }
}

impl AnalysisConfig {
    /// Check the run sizes every front-end accepts: `ranks` and
    /// `small_ranks` in 1..=4096, `threads` in 1..=256.
    pub fn check_bounds(&self) -> Result<(), DriverError> {
        let check = |field: &str, n: u32, max: u32| {
            let err = || DriverError(format!("`{field}` must be in 1..={max}, got {n}"));
            (1..=max).contains(&n).then_some(()).ok_or_else(err)
        };
        check("ranks", self.ranks, 4096)?;
        check("small_ranks", self.small_ranks, 4096)?;
        check("threads", self.threads, 256)
    }
}

/// The one-line run banner plus the collection summary.
pub fn run_summary(prog: &Program, run: &RunHandle, cfg: &AnalysisConfig) -> String {
    format!(
        "{}: {} ranks × {} threads, top-down PAG {} vertices\n{}",
        prog.name,
        cfg.ranks,
        cfg.threads,
        run.topdown().num_vertices(),
        run.data().summary().render()
    )
}

/// Paradigm settings shared by `analyze` and `lint`.
const TOP_N: usize = 10;
const IMBALANCE: f64 = 0.2;
const CAUSAL_COMM: &str = "MPI_*";
const CAUSAL_TOP_N: usize = 8;

/// Execute `paradigm` against an existing main `run`, launching any
/// reference runs it needs (scalability, contention); return its report.
pub fn analyze(
    pflow: &PerFlow,
    prog: &Program,
    run: &RunHandle,
    paradigm: Paradigm,
    cfg: &AnalysisConfig,
) -> Result<Report, DriverError> {
    let failed = |what: &str, e: PerFlowError| DriverError(format!("{what} failed: {e}"));
    let reference = |n, t| pflow.run(prog, &RunConfig::new(n).with_threads(t).with_seed(cfg.seed));
    Ok(match paradigm {
        Paradigm::MpiProfiler => mpi_profiler(run),
        Paradigm::Hotspot => {
            let graph = hotspot_graph(run).map_err(|e| failed("hotspot analysis", e))?;
            let out = graph.execute();
            let out = out.map_err(|e| failed("hotspot analysis", e))?;
            let report = graph.find("report").and_then(|n| out.report(n));
            report
                .cloned()
                .expect("a fail-fast run leaves every node's outputs")
        }
        Paradigm::Scalability => {
            let small = reference(cfg.small_ranks, 1).map_err(|e| failed("small run", e))?;
            scalability_analysis(&small, run, TOP_N, IMBALANCE)
                .map_err(|e| failed("scalability analysis", e))?
                .report
        }
        Paradigm::CriticalPath => {
            critical_path_paradigm(run, TOP_N)
                .map_err(|e| failed("critical-path analysis", e))?
                .report
        }
        Paradigm::Causal => {
            iterative_causal(run, CAUSAL_COMM, CAUSAL_TOP_N, 5)
                .map_err(|e| failed("causal analysis", e))?
                .1
        }
        Paradigm::Contention => {
            let fast = reference(cfg.ranks, 2).map_err(|e| failed("reference run", e))?;
            contention_diagnosis(&fast, run, TOP_N)
                .map_err(|e| failed("contention analysis", e))?
                .report
        }
    })
}

/// The hotspot paradigm's PerFlowGraph: `run → hotspot(15) → report`.
fn hotspot_graph(run: &RunHandle) -> Result<PerFlowGraph, PerFlowError> {
    let b = GraphBuilder::new();
    let columns = ["name", "label", "debug-info", "time"];
    b.source(run.vertices())
        .then(HotspotPass::by_time(15))
        .then(ReportPass::new("perflow report", &columns, 1));
    b.finish()
}

/// Every graph the paradigms and the comm session run, built on `run`.
fn paradigm_graphs(run: &RunHandle) -> Result<Vec<(&'static str, PerFlowGraph)>, PerFlowError> {
    let comm = comm_analysis_graph(run.vertices())?.0;
    let scalability = scalability_graph(run, run, TOP_N, IMBALANCE)?;
    let seed = causal_seed_graph(run, CAUSAL_COMM, CAUSAL_TOP_N)?;
    let step = causal_step_graph(run.parallel_vertices())?;
    Ok(vec![
        ("graph:comm-analysis", comm),
        ("graph:hotspot", hotspot_graph(run)?),
        ("graph:scalability", scalability),
        ("graph:critical-path", critical_path_graph(run, TOP_N)?),
        ("graph:causal-seed", seed),
        ("graph:causal-step", step),
        ("graph:contention", contention_graph(run, run, TOP_N)?),
    ])
}

/// Graphviz rendering of the top-25 hotspot set (the CLI's `--dot`).
pub fn hotspot_dot(pflow: &PerFlow, run: &RunHandle) -> String {
    let hot = pflow.hotspot_detection(&run.vertices(), 25);
    Report::set_to_dot(&hot)
}

// ---------------------------------------------------------------------------
// Lint
// ---------------------------------------------------------------------------

/// Diagnostics from linting the program model, every PerFlowGraph a
/// paradigm executes (built, never executed) and both PAG views.
pub struct LintOutcome {
    /// `(target name, diagnostics)` in a stable order.
    pub targets: Vec<(&'static str, Diagnostics)>,
}

impl LintOutcome {
    /// Total diagnostics of a given severity across all targets.
    pub fn count(&self, sev: Severity) -> usize {
        self.targets.iter().map(|(_, d)| d.count(sev)).sum()
    }

    /// True when no target has errors (lint passes).
    pub fn is_clean(&self) -> bool {
        self.count(Severity::Error) == 0
    }

    /// Human-readable rendering, one section per target plus a summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, d) in &self.targets {
            out.push_str(&format!("== {name} ==\n"));
            if d.is_empty() {
                out.push_str("  (clean)\n");
            } else {
                for line in d.render_text().lines() {
                    out.push_str(&format!("  {line}\n"));
                }
            }
        }
        out.push_str(&format!(
            "lint: {} error(s), {} warning(s), {} info(s) across {} targets",
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Info),
            self.targets.len()
        ));
        out
    }

    /// Machine-readable form tagged with the workload name.
    pub fn to_json(&self, workload: &str) -> Json {
        fn counts(count: impl Fn(Severity) -> usize) -> [(&'static str, Json); 3] {
            [
                ("errors", Json::Num(count(Severity::Error) as f64)),
                ("warnings", Json::Num(count(Severity::Warn) as f64)),
                ("infos", Json::Num(count(Severity::Info) as f64)),
            ]
        }
        let targets = self
            .targets
            .iter()
            .map(|(name, d)| {
                let mut fields = vec![("target", Json::Str(name.to_string()))];
                fields.extend(counts(|sev| d.count(sev)));
                fields.push(("diagnostics", d.to_json()));
                obj(fields)
            })
            .collect();
        let mut fields = vec![("workload", Json::Str(workload.into()))];
        fields.extend(counts(|sev| self.count(sev)));
        fields.push(("targets", Json::Arr(targets)));
        obj(fields)
    }
}

/// Run the static analyzers over everything lintable for this run.
pub fn lint(prog: &Program, run: &RunHandle) -> Result<LintOutcome, DriverError> {
    let mut targets: Vec<(&'static str, Diagnostics)> = vec![("program", lint_program(prog))];
    let graphs = paradigm_graphs(run).map_err(|e| DriverError(e.to_string()))?;
    targets.extend(graphs.iter().map(|(name, g)| (*name, g.lint())));
    targets.push(("pag:top-down", check_pag(run.topdown())));
    targets.push(("pag:parallel", check_pag(run.parallel())));
    Ok(LintOutcome { targets })
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

/// Statically analyze query text without executing anything: parse
/// errors surface as `PF0300`, everything else comes from the PF03xx
/// semantic analyzer over the static schema of the query's own view.
pub fn check_query(text: &str) -> Diagnostics {
    lint_query_text(text).1
}

/// What [`run_query`] produced: the lint findings plus — only when the
/// lint found no errors — the executed report.
pub struct QueryOutcome {
    /// The query text as submitted.
    pub query: String,
    /// PF03xx findings (always populated; may be warnings only).
    pub diagnostics: Diagnostics,
    /// The report, absent when lint errors blocked execution.
    pub report: Option<Report>,
}

impl QueryOutcome {
    /// True when the query executed (no lint errors).
    pub fn executed(&self) -> bool {
        self.report.is_some()
    }

    /// Human-readable rendering: diagnostics first (if any), then the
    /// report or a refusal note.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if !self.diagnostics.is_empty() {
            out.push_str(&self.diagnostics.render_text());
        }
        match &self.report {
            Some(r) => out.push_str(&r.render()),
            None => out.push_str(&format!(
                "query rejected by static analysis ({}); nothing was executed\n",
                self.diagnostics.summary()
            )),
        }
        out
    }

    /// Machine-readable form tagged with the workload name.
    pub fn to_json(&self, workload: &str) -> Json {
        obj(vec![
            ("workload", Json::Str(workload.into())),
            ("query", Json::Str(self.query.clone())),
            ("executed", Json::Bool(self.executed())),
            (
                "errors",
                Json::Num(self.diagnostics.count(Severity::Error) as f64),
            ),
            (
                "warnings",
                Json::Num(self.diagnostics.count(Severity::Warn) as f64),
            ),
            ("diagnostics", self.diagnostics.to_json()),
            (
                "report",
                self.report
                    .as_ref()
                    .map_or(Json::Null, |r| Json::Str(r.render())),
            ),
        ])
    }
}

/// Lint `text` and — only when clean of errors — execute it against
/// `run`. An invalid query never reaches the evaluator, so the
/// rejection path runs no pass at all.
pub fn run_query(run: &RunHandle, text: &str) -> Result<QueryOutcome, DriverError> {
    let (parsed, diagnostics) = lint_query_text(text);
    if diagnostics.has_errors() {
        return Ok(QueryOutcome {
            query: text.to_string(),
            diagnostics,
            report: None,
        });
    }
    let q = parsed.expect("lint without errors implies a parsed query");
    let report = execute_query(&q, run)
        .map_err(|e| DriverError(format!("query execution failed: {e}")))?
        .into_report();
    Ok(QueryOutcome {
        query: text.to_string(),
        diagnostics,
        report: Some(report),
    })
}

/// Content fingerprint of "`text` applied to this run" — keys a report
/// cache exactly like [`report_fingerprint`] does for paradigms.
pub fn query_fingerprint(run: &RunHandle, text: &str) -> u64 {
    fnv_words(&[run.content_digest(), fnv_str(text)])
}

// ---------------------------------------------------------------------------
// Digests
// ---------------------------------------------------------------------------

/// FNV-1a over a string — used for report digests and as an ingredient of
/// the run and report fingerprints.
pub fn fnv_str(s: &str) -> u64 {
    let mut h = obs::Fnv::new();
    h.write(s.as_bytes());
    h.finish()
}

fn fnv_words(words: &[u64]) -> u64 {
    let mut h = obs::Fnv::new();
    for &w in words {
        h.u64(w);
    }
    h.finish()
}

/// Digest of workload + shape-determining config + the run's content
/// digest. The library does not read it: it is kept only because the
/// benchmark harness (`benchmark/src`) passes it as
/// [`comm_analysis_session`]'s unused `_context` argument.
pub fn checkpoint_context(workload: &str, cfg: &AnalysisConfig, run: &RunHandle) -> u64 {
    fnv_words(&[
        fnv_str(workload),
        cfg.ranks as u64,
        cfg.threads as u64,
        cfg.seed,
        run.content_digest(),
    ])
}

/// Content fingerprint of the *simulation* a front-end is about to
/// request: everything that shapes [`PerFlow::run`]'s deterministic
/// output for `workload` under `cfg`. Two submissions with equal sim
/// fingerprints produce byte-identical [`simrt::RunData`], so a server
/// can reuse a cached run handle instead of re-simulating.
pub fn sim_fingerprint(workload: &str, cfg: &AnalysisConfig) -> u64 {
    fnv_words(&[
        fnv_str(workload),
        cfg.ranks as u64,
        cfg.threads as u64,
        cfg.seed,
    ])
}

/// Content fingerprint of "`paradigm` applied to this run under `cfg`":
/// the run's [`RunData::digest`](simrt::RunData) (via
/// [`RunBundle::content_digest`](perflow::RunBundle::content_digest))
/// plus every knob that shapes the report, including the reference-run
/// configuration paradigms like scalability and contention launch
/// internally. Keys a report cache: equal fingerprints guarantee a
/// byte-identical rendered report.
pub fn report_fingerprint(paradigm: Paradigm, cfg: &AnalysisConfig, run: &RunHandle) -> u64 {
    fnv_words(&[
        run.content_digest(),
        fnv_str(paradigm.name()),
        cfg.ranks as u64,
        cfg.small_ranks as u64,
        cfg.threads as u64,
        cfg.seed,
    ])
}

// ---------------------------------------------------------------------------
// Observed comm-analysis session
// ---------------------------------------------------------------------------

/// Pass-failure knobs for [`comm_analysis_session`].
#[derive(Debug, Clone, Default)]
pub struct ResilienceConfig {
    /// Pass-failure policy (fail fast vs. isolate).
    pub fail_policy: Option<ExecPolicy>,
    /// Inject a panicking pass (fault-tolerance demo/testing).
    pub inject_pass_panic: bool,
}

impl ResilienceConfig {
    /// True when any knob is set, i.e. resilient execution was requested.
    pub fn is_active(&self) -> bool {
        self.fail_policy.is_some() || self.inject_pass_panic
    }
}

/// What [`comm_analysis_session`] produced.
pub struct CommAnalysisOutcome {
    /// Raw dataflow outputs (metrics, warnings, failure lists, ...).
    pub outputs: perflow::dataflow::Outputs,
    /// The rendered comm-analysis report (empty when the report node
    /// produced nothing, e.g. when it was skipped after a failure).
    pub report: String,
    /// Stable digest of the rendered report — lets scripts compare two
    /// runs' results.
    pub report_digest: u64,
}

/// Run the standard communication-analysis PerFlowGraph under the
/// observed scheduler, with `res`'s failure policy, so the trace covers
/// the core layer too. The session runs without a pass cache: no two of
/// its nodes share a content key, so one could never hit.
///
/// `_context` is unused. It is kept only because the benchmark harness
/// (`benchmark/src`) passes [`checkpoint_context`] here.
pub fn comm_analysis_session(
    run: &RunHandle,
    obs: &Obs,
    res: &ResilienceConfig,
    _context: u64,
) -> Result<CommAnalysisOutcome, DriverError> {
    let _app = obs.span(perflow::Layer::App, "comm-analysis-graph", 0);
    let (mut g, report_node) = comm_analysis_graph(run.vertices())
        .map_err(|e| DriverError(format!("comm-analysis graph construction failed: {e}")))?;
    if res.inject_pass_panic {
        g.add_pass(FnPass::new(
            "injected_panic",
            0,
            |_inp: &[perflow::Value]| panic!("injected failure (--inject-pass-panic)"),
        ));
    }

    let opts = ExecOptions::new()
        .with_obs(obs.clone())
        .with_policy(res.fail_policy.unwrap_or_default());
    let outputs = g
        .execute_with(&opts)
        .map_err(|e| DriverError(format!("comm-analysis graph failed: {e}")))?;
    drop(_app);

    let report = outputs
        .of(report_node)
        .first()
        .and_then(|v| v.as_report())
        .map(Report::render)
        .unwrap_or_default();
    let report_digest = fnv_str(&report);
    Ok(CommAnalysisOutcome {
        outputs,
        report,
        report_digest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every report, run and cache digest folds through these;
    /// the constants are the pre-hoist values, so none can move.
    #[test]
    fn fnv_digests_are_pinned() {
        assert_eq!(fnv_str(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv_str("perflow"), 0x6d7a_c6cd_9b51_6b7c);
        assert_eq!(fnv_words(&[1, 0xdead_beef]), 0x4067_17b4_c10e_f40a);
    }

    #[test]
    fn run_sizes_are_bounded_by_field() {
        let ok = AnalysisConfig {
            ranks: 4096,
            small_ranks: 1,
            threads: 256,
            ..AnalysisConfig::default()
        };
        assert_eq!(ok.check_bounds(), Ok(()));
        assert_eq!(AnalysisConfig::default().check_bounds(), Ok(()));
        for (field, bad) in [
            (
                "ranks",
                AnalysisConfig {
                    ranks: 0,
                    ..ok.clone()
                },
            ),
            (
                "ranks",
                AnalysisConfig {
                    ranks: 4097,
                    ..ok.clone()
                },
            ),
            (
                "small_ranks",
                AnalysisConfig {
                    small_ranks: 0,
                    ..ok.clone()
                },
            ),
            (
                "threads",
                AnalysisConfig {
                    threads: 0,
                    ..ok.clone()
                },
            ),
            (
                "threads",
                AnalysisConfig {
                    threads: 257,
                    ..ok.clone()
                },
            ),
        ] {
            let err = bad.check_bounds().unwrap_err().0;
            assert!(
                err.starts_with(&format!("`{field}` must be in 1..=")),
                "{err}"
            );
        }
    }

    #[test]
    fn workload_lookup_and_aliases() {
        for name in WORKLOAD_NAMES {
            assert!(workload(name).is_some(), "missing workload {name}");
        }
        assert!(workload("zmp").is_some());
        assert!(workload("lmp").is_some());
        assert!(workload("no-such-thing").is_none());
    }

    #[test]
    fn paradigm_names_round_trip() {
        for p in Paradigm::ALL {
            assert_eq!(Paradigm::parse(p.name()), Some(p));
        }
        assert_eq!(Paradigm::parse("bogus"), None);
    }

    #[test]
    fn hotspot_analysis_end_to_end() {
        let pflow = PerFlow::new();
        let prog = workload("cg").unwrap();
        let cfg = AnalysisConfig {
            ranks: 4,
            ..AnalysisConfig::default()
        };
        let run = pflow
            .run(&prog, &RunConfig::new(cfg.ranks).with_seed(cfg.seed))
            .unwrap();
        let report = analyze(&pflow, &prog, &run, Paradigm::Hotspot, &cfg).unwrap();
        assert!(!report.render().is_empty());
        assert!(run_summary(&prog, &run, &cfg).contains("4 ranks"));
    }

    #[test]
    fn query_hotspot_digest_matches_paradigm() {
        let pflow = PerFlow::new();
        let prog = workload("cg").unwrap();
        let cfg = AnalysisConfig {
            ranks: 4,
            ..AnalysisConfig::default()
        };
        let run = pflow
            .run(&prog, &RunConfig::new(cfg.ranks).with_seed(cfg.seed))
            .unwrap();
        let paradigm = analyze(&pflow, &prog, &run, Paradigm::Hotspot, &cfg).unwrap();
        let out = run_query(
            &run,
            "from vertices | score time | sort score desc nan_last | top 15 \
             | select name, label, debug-info, time",
        )
        .unwrap();
        assert!(out.executed(), "{}", out.render_text());
        assert!(out.diagnostics.is_empty(), "{}", out.render_text());
        assert_eq!(
            fnv_str(&out.report.as_ref().unwrap().render()),
            fnv_str(&paradigm.render()),
            "query-built hotspot must digest identically to the paradigm"
        );
    }

    #[test]
    fn invalid_query_is_rejected_without_execution() {
        let pflow = PerFlow::new();
        let prog = workload("cg").unwrap();
        let run = pflow.run(&prog, &RunConfig::new(4)).unwrap();
        let out = run_query(&run, "from vertices | filter tme > 5").unwrap();
        assert!(!out.executed());
        assert!(out.report.is_none());
        assert!(out.diagnostics.has_errors());
        assert!(
            out.render_text().contains("PF0301"),
            "{}",
            out.render_text()
        );
        assert!(out.render_text().contains("nothing was executed"));
        let json = out.to_json("cg").render();
        assert!(json.contains("\"executed\":false"), "{json}");
        assert!(json.contains("\"report\":null"), "{json}");
        assert!(json.contains("PF0301"), "{json}");
        // Rejection is deterministic: same text, same rendering.
        let again = run_query(&run, "from vertices | filter tme > 5").unwrap();
        assert_eq!(out.to_json("cg").render(), again.to_json("cg").render());
    }

    #[test]
    fn check_query_is_pure_static_analysis() {
        assert!(
            check_query("from vertices | sort time desc nan_last | top 5 | select name, time")
                .is_empty()
        );
        let d = check_query("from vertices | fliter time > 5");
        assert!(d.has_errors());
        assert_eq!(d.items()[0].code, "PF0300");
        // Warnings alone don't block execution.
        let d = check_query("from vertices | sort time desc");
        assert!(!d.has_errors());
        assert_eq!(d.items()[0].code, "PF0304");
    }

    #[test]
    fn query_fingerprint_keys_on_run_and_text() {
        let pflow = PerFlow::new();
        let prog = workload("cg").unwrap();
        let run = pflow.run(&prog, &RunConfig::new(4)).unwrap();
        let a = query_fingerprint(&run, "from vertices | top 3");
        assert_eq!(a, query_fingerprint(&run, "from vertices | top 3"));
        assert_ne!(a, query_fingerprint(&run, "from vertices | top 4"));
        let other = pflow.run(&prog, &RunConfig::new(8)).unwrap();
        assert_ne!(a, query_fingerprint(&other, "from vertices | top 3"));
    }

    #[test]
    fn lint_is_clean_on_a_healthy_run() {
        let pflow = PerFlow::new();
        let prog = workload("cg").unwrap();
        let run = pflow.run(&prog, &RunConfig::new(4)).unwrap();
        let outcome = lint(&prog, &run).unwrap();
        assert!(outcome.is_clean(), "{}", outcome.render_text());
        assert!(outcome
            .to_json("cg")
            .render()
            .starts_with("{\"workload\":\"cg\""));
    }

    /// The run `analyze` gets from the CLI at its default scales.
    fn default_run(name: &str, cfg: &AnalysisConfig) -> (Program, RunHandle) {
        let prog = workload(name).unwrap();
        let run_cfg = RunConfig::new(cfg.ranks)
            .with_threads(cfg.threads)
            .with_seed(cfg.seed);
        let run = PerFlow::new().run(&prog, &run_cfg).unwrap();
        (prog, run)
    }

    /// Only the graphs paradigms execute are linted: none has an
    /// unconsumed output or a pass without a fingerprint, and every node
    /// of each shows up in the trail of the paradigm (or comm-analysis
    /// session) that runs it.
    #[test]
    fn lint_covers_exactly_the_executed_graphs() {
        let cfg = AnalysisConfig::default();
        for name in ["zeusmp", "lammps", "vite"] {
            let (prog, run) = default_run(name, &cfg);
            let outcome = lint(&prog, &run).unwrap();
            for (target, d) in &outcome.targets {
                if target.starts_with("graph:") {
                    let codes: Vec<&str> = d.items().iter().map(|x| x.code).collect();
                    assert!(
                        !codes.contains(&"PF0009") && !codes.contains(&"PF0010"),
                        "{name} {target}: {codes:?}"
                    );
                }
            }
            // The trails of the runs `analyze` and the CLI session make,
            // with the same reference runs and settings.
            let reference = |ranks, threads| {
                let ref_cfg = AnalysisConfig {
                    ranks,
                    threads,
                    ..cfg.clone()
                };
                default_run(name, &ref_cfg).1
            };
            let session = comm_analysis_session(&run, &Obs::disabled(), &Default::default(), 0);
            let hotspot = hotspot_graph(&run).unwrap().execute().unwrap();
            let small = reference(cfg.small_ranks, 1);
            let scalability = scalability_analysis(&small, &run, TOP_N, IMBALANCE).unwrap();
            let critical_path = critical_path_paradigm(&run, TOP_N).unwrap();
            let causal = iterative_causal(&run, CAUSAL_COMM, CAUSAL_TOP_N, 5).unwrap();
            let fast = reference(cfg.ranks, 2);
            let contention = contention_diagnosis(&fast, &run, TOP_N).unwrap();
            for (target, graph) in paradigm_graphs(&run).unwrap() {
                let ran = match target {
                    "graph:comm-analysis" => &session.as_ref().unwrap().outputs.trail,
                    "graph:hotspot" => &hotspot.trail,
                    "graph:scalability" => &scalability.trail,
                    "graph:critical-path" => &critical_path.trail,
                    "graph:causal-seed" | "graph:causal-step" => &causal.2,
                    "graph:contention" => &contention.trail,
                    other => panic!("no paradigm runs {other}"),
                };
                let linted: Vec<&str> = outcome
                    .targets
                    .iter()
                    .map(|(t, _)| *t)
                    .filter(|t| t.starts_with("graph:"))
                    .collect();
                assert!(linted.contains(&target), "{target} is not linted");
                for node in graph.shape().nodes {
                    assert!(
                        ran.contains(&node.name),
                        "{name} {target}: `{}` not in {ran:?}",
                        node.name
                    );
                }
            }
        }
    }

    /// Each paradigm graph runs fail-fast to completion: every node
    /// leaves its outputs and the trail is not empty.
    #[test]
    fn paradigm_graphs_run_every_node() {
        let cfg = AnalysisConfig::default();
        let (_, zeusmp) = default_run("zeusmp", &cfg);
        let (_, small) = default_run(
            "zeusmp",
            &AnalysisConfig {
                ranks: cfg.small_ranks,
                ..cfg.clone()
            },
        );
        let (_, lammps) = default_run("lammps", &cfg);
        let threads = |threads| AnalysisConfig {
            threads,
            ..cfg.clone()
        };
        let (_, vite) = default_run("vite", &threads(4));
        let (_, vite_fast) = default_run("vite", &threads(2));

        let seed = causal_seed_graph(&lammps, CAUSAL_COMM, CAUSAL_TOP_N).unwrap();
        let out = seed.execute().unwrap();
        let bugs = out.vertices(seed.find("first_non_empty").unwrap());
        let graphs = [
            (
                "comm-analysis",
                comm_analysis_graph(zeusmp.vertices()).unwrap().0,
            ),
            ("hotspot", hotspot_graph(&zeusmp).unwrap()),
            (
                "scalability",
                scalability_graph(&small, &zeusmp, TOP_N, IMBALANCE).unwrap(),
            ),
            (
                "critical-path",
                critical_path_graph(&lammps, TOP_N).unwrap(),
            ),
            (
                "causal-step",
                causal_step_graph(bugs.unwrap().clone()).unwrap(),
            ),
            ("causal-seed", seed),
            (
                "contention",
                contention_graph(&vite_fast, &vite, TOP_N).unwrap(),
            ),
        ];
        for (name, graph) in &graphs {
            let out = graph.execute().unwrap();
            assert!(!out.trail.is_empty(), "{name} ran nothing");
            for i in 0..graph.len() {
                let node = perflow::NodeId(i);
                assert!(!out.of(node).is_empty(), "{name}: node {i} left no outputs");
            }
        }
    }

    #[test]
    fn checkpoint_context_depends_on_config() {
        let pflow = PerFlow::new();
        let prog = workload("cg").unwrap();
        let run = pflow.run(&prog, &RunConfig::new(4)).unwrap();
        let a = AnalysisConfig {
            ranks: 4,
            ..AnalysisConfig::default()
        };
        let b = AnalysisConfig {
            seed: 7,
            ..a.clone()
        };
        assert_eq!(
            checkpoint_context("cg", &a, &run),
            checkpoint_context("cg", &a, &run)
        );
        assert_ne!(
            checkpoint_context("cg", &a, &run),
            checkpoint_context("cg", &b, &run)
        );
        assert_ne!(
            checkpoint_context("cg", &a, &run),
            checkpoint_context("bt", &a, &run)
        );
    }

    /// Equal report fingerprints must mean byte-identical reports, so
    /// the fingerprint sees the program's names, not only its run data
    /// (which holds ids).
    #[test]
    fn report_fingerprint_sees_function_names() {
        let pflow = PerFlow::new();
        let cfg = AnalysisConfig {
            ranks: 4,
            ..AnalysisConfig::default()
        };
        let prog = workload("cg").unwrap();
        let mut renamed = prog.clone();
        renamed.functions[renamed.entry.0 as usize].name = "renamed_main".into();
        let report = |prog: &Program| {
            let run = pflow
                .run(prog, &RunConfig::new(cfg.ranks).with_seed(cfg.seed))
                .unwrap();
            let text = analyze(&pflow, prog, &run, Paradigm::Hotspot, &cfg)
                .unwrap()
                .render();
            (report_fingerprint(Paradigm::Hotspot, &cfg, &run), text)
        };
        let (fp, text) = report(&prog);
        let (renamed_fp, renamed_text) = report(&renamed);
        assert_ne!(text, renamed_text, "the rename shows in the report");
        assert_ne!(fp, renamed_fp, "so it must show in the fingerprint");
    }

    #[test]
    fn comm_analysis_session_produces_a_report() {
        let pflow = PerFlow::new();
        let prog = workload("cg").unwrap();
        let cfg = AnalysisConfig {
            ranks: 4,
            ..AnalysisConfig::default()
        };
        let obs = Obs::enabled();
        let run = pflow
            .run(
                &prog,
                &RunConfig::new(cfg.ranks)
                    .with_seed(cfg.seed)
                    .with_obs(obs.clone()),
            )
            .unwrap();
        let out = comm_analysis_session(&run, &obs, &ResilienceConfig::default(), 0).unwrap();
        assert!(!out.report.is_empty());
        assert_eq!(out.report_digest, fnv_str(&out.report));
    }

    fn pinned_diagnostics() -> Diagnostics {
        let mut d = Diagnostics::new();
        d.push(
            "PF0301",
            Severity::Error,
            perflow::verify::Anchor::Stage {
                index: 1,
                op: "filter",
            },
            "unknown \"tme\"\n😀",
        );
        d.push(
            "PF0304",
            Severity::Warn,
            perflow::verify::Anchor::Graph,
            "nan",
        );
        d.finish()
    }

    #[test]
    fn json_renderings_are_pinned() {
        let lint = LintOutcome {
            targets: vec![
                ("program", Diagnostics::new()),
                ("pag:top-down", pinned_diagnostics()),
            ],
        };
        assert_eq!(lint.to_json("c\"g").render(), "{\"workload\":\"c\\\"g\",\"errors\":1,\"warnings\":1,\"infos\":0,\"targets\":[{\"target\":\"program\",\"errors\":0,\"warnings\":0,\"infos\":0,\"diagnostics\":[]},{\"target\":\"pag:top-down\",\"errors\":1,\"warnings\":1,\"infos\":0,\"diagnostics\":[{\"code\":\"PF0301\",\"severity\":\"error\",\"anchor\":{\"kind\":\"stage\",\"index\":1,\"op\":\"filter\"},\"message\":\"unknown \\\"tme\\\"\\n😀\"},{\"code\":\"PF0304\",\"severity\":\"warning\",\"anchor\":{\"kind\":\"graph\"},\"message\":\"nan\"}]}]}");
        let mut report = Report::new("t\"itle").with_columns(&["a", "b"]);
        report.push_row(vec!["1".into(), "x\ny".into()]);
        let ran = QueryOutcome {
            query: "from vertices | top 3 😀".into(),
            diagnostics: Diagnostics::new(),
            report: Some(report),
        };
        assert_eq!(ran.to_json("cg").render(), "{\"workload\":\"cg\",\"query\":\"from vertices | top 3 😀\",\"executed\":true,\"errors\":0,\"warnings\":0,\"diagnostics\":[],\"report\":\"== t\\\"itle ==\\na  b\\n--------\\n1  x\\ny\\n\"}");
        let rejected = QueryOutcome {
            query: "from vertices | filter tme > 5".into(),
            diagnostics: pinned_diagnostics(),
            report: None,
        };
        assert_eq!(rejected.to_json("cg").render(), "{\"workload\":\"cg\",\"query\":\"from vertices | filter tme > 5\",\"executed\":false,\"errors\":1,\"warnings\":1,\"diagnostics\":[{\"code\":\"PF0301\",\"severity\":\"error\",\"anchor\":{\"kind\":\"stage\",\"index\":1,\"op\":\"filter\"},\"message\":\"unknown \\\"tme\\\"\\n😀\"},{\"code\":\"PF0304\",\"severity\":\"warning\",\"anchor\":{\"kind\":\"graph\"},\"message\":\"nan\"}],\"report\":null}");
        let diff = bench_diff::BenchDiffOutcome {
            diagnostics: pinned_diagnostics(),
            report: Report::new("r"),
            aligned: 4,
        };
        assert_eq!(diff.to_json().render(), "{\"regressed\":true,\"aligned\":4,\"summary\":\"1 error, 1 warning, 0 infos\",\"diagnostics\":[{\"code\":\"PF0301\",\"severity\":\"error\",\"anchor\":{\"kind\":\"stage\",\"index\":1,\"op\":\"filter\"},\"message\":\"unknown \\\"tme\\\"\\n😀\"},{\"code\":\"PF0304\",\"severity\":\"warning\",\"anchor\":{\"kind\":\"graph\"},\"message\":\"nan\"}]}");
    }
}
