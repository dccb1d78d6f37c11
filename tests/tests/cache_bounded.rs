//! Pass-cache semantics: a [`PassCache`] must never change *what* a
//! graph computes — only how much of it replays from memory — on a
//! re-execution, on a re-created run, and when several executions share
//! it at once.

use perflow::paradigms::comm_analysis_graph;
use perflow::pass::{Pass, PassCx};
use perflow::{ExecOptions, PassCache, PerFlowError, PerFlowGraph, RunHandle, RunHandleExt, Value};

/// A fingerprinted arithmetic pass, `x * mul + add` on one input or
/// `x * mul + y` on two, so the pass cache keys it by content.
struct Arith {
    name: String,
    arity: usize,
    mul: f64,
    add: f64,
}

impl Pass for Arith {
    fn name(&self) -> &str {
        &self.name
    }
    fn arity(&self) -> usize {
        self.arity
    }
    fn run(&self, inp: &[Value], _cx: &mut PassCx) -> Result<Vec<Value>, PerFlowError> {
        let num = |v: &Value| v.as_num().expect("arithmetic passes receive nums");
        let rest = inp.get(1).map_or(self.add, num);
        Ok(vec![Value::Num(num(&inp[0]) * self.mul + rest)])
    }
    fn fingerprint(&self) -> Option<u64> {
        let mut h = obs::Fnv::new();
        h.str(&self.name);
        h.u64(self.arity as u64);
        h.u64(self.mul.to_bits());
        h.u64(self.add.to_bits());
        Some(h.finish())
    }
}

/// A deterministic 12-node graph: 4 sources fan into chains of
/// arithmetic passes that join into one sink.
fn build_graph() -> (PerFlowGraph, perflow::NodeId) {
    let mut g = PerFlowGraph::new();
    let sources: Vec<_> = (0..4)
        .map(|i| g.add_source(Value::Num(i as f64 + 1.0)))
        .collect();
    let mut stage = Vec::new();
    for (i, &s) in sources.iter().enumerate() {
        let scale = g.add_pass(Arith {
            name: format!("scale{i}"),
            arity: 1,
            mul: 3.0,
            add: i as f64,
        });
        g.pipe(s, scale).unwrap();
        stage.push(scale);
    }
    let join2 = |g: &mut PerFlowGraph, name: &str, a, b| {
        let n = g.add_pass(Arith {
            name: name.to_string(),
            arity: 2,
            mul: 7.0,
            add: 0.0,
        });
        g.connect(a, 0, n, 0).unwrap();
        g.connect(b, 0, n, 1).unwrap();
        n
    };
    let left = join2(&mut g, "joinL", stage[0], stage[1]);
    let right = join2(&mut g, "joinR", stage[2], stage[3]);
    let sink = join2(&mut g, "sink", left, right);
    (g, sink)
}

fn sink_value(out: &perflow::dataflow::Outputs, sink: perflow::NodeId) -> f64 {
    match out.of(sink) {
        [Value::Num(n)] => *n,
        other => panic!("unexpected sink output {other:?}"),
    }
}

/// The rendered report of the comm-analysis graph on `run`, executed
/// against `cache`.
fn cached_comm_report(run: &RunHandle, cache: &PassCache) -> String {
    let (g, report) = comm_analysis_graph(run.vertices()).unwrap();
    let out = g
        .execute_with(&ExecOptions::new().with_cache(cache))
        .unwrap();
    out.of(report)[0].as_report().unwrap().render()
}

#[test]
fn concurrent_executions_share_one_bounded_cache() {
    let (g, sink) = build_graph();
    let baseline = sink_value(&g.execute().unwrap(), sink);
    let cache = PassCache::new();
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                for _ in 0..2 {
                    let out = g
                        .execute_with(&ExecOptions::new().with_cache(&cache))
                        .unwrap();
                    assert_eq!(sink_value(&out, sink), baseline);
                }
            });
        }
    });
    let stats = cache.stats();
    // Accounting stays coherent under contention: every lookup is
    // exactly one of hit or miss (8 threads × 2 executions × 11 nodes).
    assert_eq!(stats.hits + stats.misses, 8 * 2 * 11, "{stats:?}");
    assert!(
        stats.misses >= 11,
        "cold passes miss at least once: {stats:?}"
    );
    assert_eq!(cache.len(), 11);
}

#[test]
fn comm_session_reports_are_identical_across_cache_capacities() {
    let prog = driver::workload("cg").expect("cg workload");
    let pflow = perflow::PerFlow::new();
    let cfg = driver::AnalysisConfig {
        ranks: 4,
        small_ranks: 2,
        threads: 2,
        seed: 7,
    };
    let run = pflow
        .run(
            &prog,
            &simrt::RunConfig::new(cfg.ranks)
                .with_threads(cfg.threads)
                .with_seed(cfg.seed),
        )
        .unwrap();
    let obs = perflow::Obs::default();

    let session =
        |res: driver::ResilienceConfig| driver::comm_analysis_session(&run, &obs, &res, 0).unwrap();
    let plain = session(Default::default());
    let baseline = plain.report_digest;
    // A cold and a cached execution of the same graph render the
    // session's report.
    let cache = PassCache::new();
    for run_no in 0..2 {
        assert_eq!(
            cached_comm_report(&run, &cache),
            plain.report,
            "execution {run_no} against a cache changed the comm report"
        );
    }
    assert!(cache.stats().hits > 0, "{:?}", cache.stats());

    // Nor does the isolate policy on a clean run.
    let isolated = session(driver::ResilienceConfig {
        fail_policy: Some(perflow::ExecPolicy::Isolate),
        ..Default::default()
    });
    assert!(!isolated.outputs.degraded());
    assert_eq!(
        isolated.report_digest, baseline,
        "the isolate policy changed the report"
    );
    assert_eq!(isolated.outputs.trail, plain.outputs.trail);
}

#[test]
fn shared_cache_replays_a_repeated_comm_session() {
    let prog = driver::workload("cg").expect("cg workload");
    let pflow = perflow::PerFlow::new();
    let cfg = driver::AnalysisConfig {
        ranks: 4,
        small_ranks: 2,
        threads: 2,
        seed: 11,
    };
    let run = pflow
        .run(
            &prog,
            &simrt::RunConfig::new(cfg.ranks)
                .with_threads(cfg.threads)
                .with_seed(cfg.seed),
        )
        .unwrap();
    let cache = PassCache::new();

    let cold = cached_comm_report(&run, &cache);
    let cold_stats = cache.stats();
    assert!(cold_stats.misses > 0);
    let warm = cached_comm_report(&run, &cache);
    let warm_stats = cache.stats();

    assert_eq!(warm, cold, "cached replay changed the report");
    assert!(
        warm_stats.hits > cold_stats.hits,
        "second execution should replay from the shared cache: {cold_stats:?} -> {warm_stats:?}"
    );
    assert_eq!(
        warm_stats.misses, cold_stats.misses,
        "second identical execution should add no misses"
    );

    // The same spec run again is a new handle with the same content: its
    // graph replays from the shared cache too.
    let rerun = pflow
        .run(
            &prog,
            &simrt::RunConfig::new(cfg.ranks)
                .with_threads(cfg.threads)
                .with_seed(cfg.seed),
        )
        .unwrap();
    let again = cached_comm_report(&rerun, &cache);
    assert_eq!(again, cold, "a re-created run changed the report");
    assert_eq!(
        cache.stats().misses,
        cold_stats.misses,
        "a re-created run of the same spec should add no misses"
    );
}
