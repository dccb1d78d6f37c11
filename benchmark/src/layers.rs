//! The traced run: the op taken apart into the public calls it is made
//! of, a span around each, then direct probes of single passes on the
//! op's own inputs and a served leg through the daemon. Yields the
//! per-layer metrics; layer = crate.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use driver::{Paradigm, ResilienceConfig};
use pag::{CallKind, VertexLabel};
use perflow::paradigms::{
    comm_analysis_graph, contention_diagnosis, critical_path_paradigm, iterative_causal,
    mpi_profiler, scalability_analysis,
};
use perflow::passes::{self, differential::map_to_run};
use perflow::{
    mkeys, ExecOptions, Obs, PassCache, PerFlow, Report, RunBundle, RunHandle, RunHandleExt,
    VertexSet,
};
use progmodel::Program;
use simrt::RunConfig;

use crate::metrics::{RunResult, PER_LAYER};
use crate::served::{self, Budget, JobKind, JobSample, Session};
use crate::stats::{median, ratio};
use crate::trace::{Recorder, Span};
use crate::workload::{cli_op, sim_seeds, DigestLedger, Oracles, Reference, Spec, TOP5_QUERY};

/// Traced ops per probe round (three rounds beside ten ops); a probe's
/// value is the median over the rounds.
const OPS_PER_PROBE_ROUND: u32 = 4;
/// Iterations inside one span of the sub-microsecond query probes.
const QUERY_BATCH: usize = 1000;
/// Served jobs per traced op (`serve_mix`: 150 jobs beside 10 ops).
const SERVED_JOBS_PER_OP: usize = 15;
/// Jobs per client of the served leg on the CLI workloads: one of each
/// kind and one drawn.
const SERVED_LEG_JOBS: usize = 4;

/// `static_analysis` → `simulate` → `embed` → `RunBundle::new`: what
/// `PerFlow::run` does, one span per call. `names` are the span names of
/// the three calls.
fn profile(
    rec: &mut Recorder,
    prog: &Program,
    cfg: &RunConfig,
    names: [&'static str; 3],
) -> Result<RunHandle, String> {
    let skeleton = rec.call(names[0], || collect::static_analysis(prog));
    let data = rec
        .call(names[1], || simrt::simulate(prog, cfg))
        .map_err(|e| format!("run failed: {e}"))?;
    let profiled = rec.call(names[2], || collect::embed(prog, skeleton, data));
    Ok(RunBundle::new(profiled))
}

/// `driver::analyze` with the reference run hoisted out, so that the
/// paradigm is timed with its runs and views already built.
fn paradigm_report(
    pflow: &PerFlow,
    paradigm: Paradigm,
    main: &RunHandle,
    reference: Option<&RunHandle>,
) -> Result<Report, String> {
    let reference = || reference.ok_or("paradigm needs a reference run");
    Ok(match paradigm {
        Paradigm::MpiProfiler => mpi_profiler(main),
        Paradigm::Hotspot => {
            let hot = pflow.hotspot_detection(&main.vertices(), 15);
            pflow.report(&[&hot], &["name", "label", "debug-info", "time"])
        }
        Paradigm::Scalability => {
            scalability_analysis(reference()?, main, 10, 0.2)
                .map_err(|e| e.to_string())?
                .report
        }
        Paradigm::CriticalPath => {
            critical_path_paradigm(main, 10)
                .map_err(|e| e.to_string())?
                .report
        }
        Paradigm::Causal => {
            iterative_causal(main, "MPI_*", 8, 5)
                .map_err(|e| e.to_string())?
                .1
        }
        Paradigm::Contention => {
            contention_diagnosis(reference()?, main, 10)
                .map_err(|e| e.to_string())?
                .report
        }
    })
}

/// Span names of the three calls of `profile` inside an op.
const OP_PROFILE: [&str; 3] = ["collect.static_pag", "simrt.simulate", "collect.embed"];
const OP_REFERENCE_PROFILE: [&str; 3] =
    ["collect.static_pag", "simrt.simulate_ref", "collect.embed"];

/// The op of `workload::cli_op` as decomposed public calls, down to
/// freeing the runs. Its output must digest like the CLI path's, which
/// the caller checks.
fn traced_op(rec: &mut Recorder, spec: &Spec, op: u32, sim_seed: u64) -> Result<String, String> {
    rec.scope("op", op, |rec| {
        let prog = rec
            .call("driver.workload_build", || driver::workload(spec.program))
            .ok_or("unknown program")?;
        let main = profile(rec, &prog, &spec.run_config(sim_seed), OP_PROFILE)?;
        let reference = match spec.reference {
            Reference::None => None,
            _ => Some(profile(
                rec,
                &prog,
                &spec.reference_config(sim_seed),
                OP_REFERENCE_PROFILE,
            )?),
        };
        if spec.needs_parallel_view() {
            rec.call("collect.parallel_view", || {
                main.parallel();
            });
        }
        let pflow = PerFlow::new();
        let mut out = String::new();
        for &paradigm in spec.paradigms {
            let report = rec.call("core.paradigm", || {
                paradigm_report(&pflow, paradigm, &main, reference.as_ref())
            })?;
            out.push_str(&rec.call("core.report_render", || report.render()));
        }
        if let Some(text) = spec.query {
            let outcome = rec
                .call("core.paradigm", || driver::run_query(&main, text))
                .map_err(|e| e.to_string())?;
            out.push_str(&rec.call("core.report_render", || outcome.render_text()));
        }
        if spec.comm_session {
            let cfg = spec.analysis_config(sim_seed);
            let session = rec
                .call("core.paradigm", || {
                    let context = driver::checkpoint_context(spec.program, &cfg, &main);
                    driver::comm_analysis_session(
                        &main,
                        &Obs::disabled(),
                        &ResilienceConfig::default(),
                        context,
                    )
                })
                .map_err(|e| e.to_string())?;
            out.push_str(&session.report);
        }
        rec.call("pag.drop", || drop((prog, main, reference)));
        Ok(out)
    })
}

/// The parallel-view replicas of the top-down vertices in `of`.
fn replicas(flows: &VertexSet, of: &VertexSet) -> VertexSet {
    let pag = flows.graph.pag();
    let wanted: std::collections::HashSet<i64> = of.ids.iter().map(|v| v.0 as i64).collect();
    flows.retain(|v| {
        pag.metric_i64(v, mkeys::TOPDOWN_VERTEX)
            .is_some_and(|topdown| wanted.contains(&topdown))
    })
}

/// Single passes and graph algorithms called directly on runs of the
/// op's shape, each with the arguments its paradigm gives it, so that a
/// pass has a number on every workload and not only where a paradigm
/// reaches it. Where the op builds no reference run or parallel view,
/// the one built here stands in under the metric's span name.
fn probes(
    rec: &mut Recorder,
    spec: &Spec,
    round: u32,
    sim_seed: u64,
    ledger: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    rec.scope("probes", 100 + round, |rec| {
        let prog = driver::workload(spec.program).ok_or("unknown program")?;
        let main = &profile(
            rec,
            &prog,
            &spec.run_config(sim_seed),
            ["probe.static_pag", "probe.simulate", "probe.embed"],
        )?;
        let op_has_reference = spec.reference != Reference::None;
        let reference = profile(
            rec,
            &prog,
            &spec.reference_config(sim_seed),
            [
                "probe.static_pag",
                if op_has_reference {
                    "probe.simulate"
                } else {
                    "simrt.simulate_ref"
                },
                "probe.embed",
            ],
        )?;
        let view_span = if spec.needs_parallel_view() {
            "probe.parallel_view"
        } else {
            "collect.parallel_view"
        };
        rec.call(view_span, || {
            main.parallel();
        });
        if round == 0 {
            count_work(main, ledger);
        }
        let pflow = PerFlow::new();
        let pag = main.parallel();
        let topdown = main.vertices();
        let flows = main.parallel_vertices();
        let by_time = |set: &VertexSet| set.sort_by_key(mkeys::TIME);

        // The scalability pipeline, stage by stage.
        let diff = rec
            .call("core.differential", || {
                pflow.differential_analysis(main, &reference, 1.0)
            })
            .map_err(|e| e.to_string())?;
        rec.call("core.hotspot", || pflow.hotspot_detection(&topdown, 15));
        let imbalanced = rec.call("core.imbalance", || pflow.imbalance_analysis(&topdown, 0.2));
        rec.call("core.mpi_profiler", || mpi_profiler(main));
        let loss = map_to_run(
            &pflow
                .hotspot_by(&diff, "score", 10)
                .filter_metric("score", 1e-9),
            main,
        );
        let suspects = replicas(&flows, &loss.union(&imbalanced).map_err(|e| e.to_string())?);
        let mut lagging = pflow.imbalance_analysis(&suspects, 0.2);
        if lagging.is_empty() {
            lagging = pflow.imbalance_analysis(&suspects, 0.0);
        }
        rec.call("core.backtracking", || {
            passes::backtracking(&lagging, 100_000)
        });

        // The first round of the iterated causal loop.
        let comm_hot = pflow.hotspot_detection(&pflow.filter(&topdown, "MPI_*"), 8);
        let comm_flows = replicas(&flows, &comm_hot);
        let mut waiting = pflow.imbalance_analysis(&comm_flows, 0.1);
        if waiting.is_empty() {
            waiting = by_time(&comm_flows).top(8);
        }
        let waiting = by_time(&waiting).top(16);
        rec.call("core.causal", || pflow.causal_analysis(&waiting));
        // An error here means a cyclic view; the timing still stands.
        let _ = rec.call("core.critical_path", || pflow.critical_path(&flows));
        rec.call("graphalgo.critical_path", || {
            graphalgo::critical_path(pag, |_| true, |v| pag.vertex_time(v))
        });

        // Contention detection around the hottest lock sites, as the
        // diagnosis paradigm anchors it.
        let locks = by_time(&flows.filter_label(VertexLabel::Call(CallKind::Lock))).top(64);
        rec.call("core.contention", || passes::contention(&locks, None, 8));
        let (pattern, pivot) = passes::default_contention_pattern();
        let anchor = locks
            .ids
            .first()
            .or(waiting.ids.first())
            .or(flows.ids.first())
            .copied()
            .ok_or("empty parallel view")?;
        rec.call("graphalgo.subgraph_match", || {
            graphalgo::subgraph::match_subgraph(pag, &pattern, Some((pivot, anchor)), 8)
        });

        // The scheduler's fixed costs: the comm-analysis graph cold, then
        // replayed from a shared pass cache.
        let (graph, _) = comm_analysis_graph(topdown.clone()).map_err(|e| e.to_string())?;
        let cache = PassCache::new();
        let options = ExecOptions::new().with_cache(&cache);
        rec.call("core.sched_cold", || graph.execute_with(&options))
            .map_err(|e| e.to_string())?;
        rec.call("core.sched_replay", || graph.execute_with(&options))
            .map_err(|e| e.to_string())?;
        let stats = cache.stats();
        ledger.extend([
            ("core.sched_passes", graph.len() as f64),
            (
                "core.pass_cache_hit_ratio",
                ratio(stats.hits as f64, (stats.hits + stats.misses) as f64),
            ),
        ]);

        let parsed = query::parser::parse(TOP5_QUERY).map_err(|e| format!("{e:?}"))?;
        rec.call("query.parse", || {
            for _ in 0..QUERY_BATCH {
                black_box(query::parser::parse(black_box(TOP5_QUERY)).is_ok());
            }
        });
        rec.call("verify.query_lint", || {
            for _ in 0..QUERY_BATCH {
                black_box(verify::lint_query_text(black_box(TOP5_QUERY)));
            }
        });
        rec.call("core.query_exec", || {
            for _ in 0..QUERY_BATCH {
                black_box(perflow::execute_query(black_box(&parsed), main).is_ok());
            }
        });
        Ok(())
    })
}

fn us_since(origin: Instant, t: Instant) -> f64 {
    t.saturating_duration_since(origin).as_secs_f64() * 1e6
}

/// Add the clients' spans of each served job under a `job` root.
fn record_jobs(rec: &mut Recorder, samples: &[JobSample]) {
    let origin = rec.origin();
    for (i, sample) in samples.iter().enumerate() {
        let (Some(first), Some(last)) = (sample.spans.first(), sample.spans.last()) else {
            continue;
        };
        let (op, lane) = (1000 + i as u32, 1 + sample.client as u32);
        let root = rec.push(Span {
            name: "job",
            start_us: us_since(origin, first.1),
            end_us: us_since(origin, last.2),
            parent: None,
            op,
            lane,
        });
        for &(name, start, end) in &sample.spans {
            rec.push(Span {
                name,
                start_us: us_since(origin, start),
                end_us: us_since(origin, end),
                parent: Some(root),
                op,
                lane,
            });
        }
    }
}

/// The served leg: this workload's analysis submitted as jobs to an
/// in-process daemon. Fills in every `serve.*` metric and returns the
/// job samples.
fn served_leg(
    rec: &mut Recorder,
    spec: &Spec,
    bench_seed: u64,
    jobs_per_client: usize,
    oracles: &Oracles,
    ledger: &mut BTreeMap<&'static str, f64>,
) -> Result<Vec<JobSample>, String> {
    let mut session = Session::start(spec, bench_seed)?;
    let start_ms = session.start_ms;
    let healthz = session.healthz_rtts_ms(20)?;
    let before = session.scrape()?;
    let mut samples = session.run(Budget::JobsPerClient(jobs_per_client), true);
    let after = session.scrape()?;
    session.verify(oracles, &mut samples);
    let (drain_ms, _) = session.shutdown();
    record_jobs(rec, &samples);

    let delta = |name: &str| {
        after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
    };
    let hit_ratio = |cache: &str| {
        let hits = delta(&format!("perflow_serve_{cache}_cache_hit_total"));
        ratio(
            hits,
            hits + delta(&format!("perflow_serve_{cache}_cache_miss_total")),
        )
    };
    let of_kind = |kind: JobKind| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.plan.kind == kind)
            .map(|s| s.op_ms)
            .collect()
    };
    let per_job = |f: fn(&JobSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let status_rtts: Vec<f64> = samples
        .iter()
        .flat_map(|s| s.status_ms.iter().copied())
        .collect();
    ledger.extend([
        ("serve.start_ms", start_ms),
        ("serve.drain_ms", drain_ms),
        ("serve.healthz_rtt_ms_p50", median(&healthz)),
        ("serve.submit_rtt_ms_p50", per_job(|s| s.submit_ms)),
        ("serve.status_rtt_ms_p50", median(&status_rtts)),
        (
            "serve.queue_wait_ms_p50",
            per_job(|s| s.queue_wait_us / 1e3),
        ),
        ("serve.exec_ms_p50", per_job(|s| s.exec_us / 1e3)),
        ("serve.total_ms_p50", per_job(|s| s.total_us / 1e3)),
        (
            "serve.overhead_ms_p50",
            per_job(|s| s.op_ms - s.total_us / 1e3),
        ),
        ("serve.cold_ms_p50", median(&of_kind(JobKind::Cold))),
        ("serve.run_hit_ms_p50", median(&of_kind(JobKind::RunHit))),
        (
            "serve.report_hit_ms_p50",
            median(&of_kind(JobKind::ReportHit)),
        ),
        (
            "serve.polls_per_job",
            ratio(status_rtts.len() as f64, samples.len() as f64),
        ),
        ("serve.report_cache_hit_ratio", hit_ratio("report")),
        ("serve.run_cache_hit_ratio", hit_ratio("run")),
        ("serve.dropped_spans", delta("perflow_dropped_spans_total")),
        (
            "serve.rejected",
            delta("perflow_serve_jobs_rejected_quota_total")
                + delta("perflow_serve_jobs_rejected_full_total"),
        ),
    ]);
    Ok(samples)
}

/// One traced run of `spec`: `ops` traced ops, as many untraced and half
/// as many `obs`-enabled ops interleaved with them for the two overhead
/// figures, three probe rounds, then the served leg. Writes `out/trace_<workload>.json`.
pub fn traced_run(
    spec: &Spec,
    bench_seed: u64,
    ops: u32,
    oracles: &Oracles,
    out_dir: &str,
) -> Result<RunResult, String> {
    let seeds = sim_seeds(bench_seed, spec.name);
    let mut rec = Recorder::new();
    let mut digests = DigestLedger::default();
    let mut failures = Vec::new();
    let mut ledger: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut traced_ms = Vec::new();
    // Overheads are taken pairwise against the plain op of the same
    // iteration (same seed, adjacent in time), in percent.
    let (mut trace_overhead, mut obs_overhead) = (Vec::new(), Vec::new());

    for op in 0..ops {
        let sim_seed = seeds[op as usize % seeds.len()];
        let mut timed = |rec: &mut Recorder, obs: Option<&Obs>| {
            let begin = Instant::now();
            let outcome = match obs {
                None => traced_op(rec, spec, op, sim_seed),
                Some(obs) => cli_op(spec, sim_seed, obs),
            };
            let ms = begin.elapsed().as_secs_f64() * 1e3;
            failures.extend(digests.check_op(spec, oracles, sim_seed, outcome).err());
            ms
        };
        // Alternate which of the traced and the plain op runs first, so
        // that neither always inherits the other's warm caches.
        let (traced, plain) = if op % 2 == 0 {
            (
                timed(&mut rec, None),
                timed(&mut rec, Some(&Obs::disabled())),
            )
        } else {
            let plain = timed(&mut rec, Some(&Obs::disabled()));
            (timed(&mut rec, None), plain)
        };
        traced_ms.push(traced);
        trace_overhead.push(100.0 * (traced / plain - 1.0));
        if op % 2 == 0 {
            let obs = Obs::enabled();
            obs_overhead.push(100.0 * (timed(&mut rec, Some(&obs)) / plain - 1.0));
            ledger.insert("obs.spans_per_op", obs.spans().len() as f64);
        }
        if op < ops.div_ceil(OPS_PER_PROBE_ROUND) {
            probes(&mut rec, spec, op, sim_seed, &mut ledger)?;
        }
    }
    let direct_ops = 2 * traced_ms.len() + obs_overhead.len();

    let jobs_per_client = if spec.served {
        ops as usize * SERVED_JOBS_PER_OP / served::CLIENTS
    } else {
        SERVED_LEG_JOBS
    };
    let samples = served_leg(
        &mut rec,
        spec,
        bench_seed,
        jobs_per_client,
        oracles,
        &mut ledger,
    )?;
    failures.extend(samples.iter().filter_map(|s| s.error.clone()));

    rec.check_well_formed()?;
    let path = format!("{out_dir}/trace_{}.json", spec.name);
    std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&path, rec.chrome_trace()))
        .map_err(|e| format!("{path}: {e}"))?;

    // Span timings: (metric, span, iterations per span).
    let span_ms = |span: &str| median(&rec.self_us_per_root(span)) / 1e3;
    for (metric, span) in [
        ("driver.workload_build_ms", "driver.workload_build"),
        ("simrt.simulate_ms", "simrt.simulate"),
        ("simrt.simulate_ref_ms", "simrt.simulate_ref"),
        ("collect.static_pag_ms", "collect.static_pag"),
        ("collect.embed_ms", "collect.embed"),
        ("collect.parallel_view_ms", "collect.parallel_view"),
        ("core.paradigm_ms", "core.paradigm"),
        ("core.report_render_ms", "core.report_render"),
        ("pag.drop_ms", "pag.drop"),
        ("core.backtracking_ms", "core.backtracking"),
        ("core.differential_ms", "core.differential"),
        ("core.imbalance_ms", "core.imbalance"),
        ("core.causal_ms", "core.causal"),
        ("core.critical_path_ms", "core.critical_path"),
        ("core.contention_ms", "core.contention"),
        ("core.hotspot_ms", "core.hotspot"),
        ("core.mpi_profiler_ms", "core.mpi_profiler"),
        ("core.sched_cold_ms", "core.sched_cold"),
        ("core.sched_replay_ms", "core.sched_replay"),
        ("graphalgo.subgraph_match_ms", "graphalgo.subgraph_match"),
        ("graphalgo.critical_path_ms", "graphalgo.critical_path"),
    ] {
        ledger.insert(metric, span_ms(span));
    }
    for (metric, span) in [
        ("query.parse_us", "query.parse"),
        ("verify.query_lint_us", "verify.query_lint"),
        ("core.query_exec_us", "core.query_exec"),
    ] {
        ledger.insert(metric, span_ms(span) * 1e3 / QUERY_BATCH as f64);
    }
    let op_ms = median(&traced_ms);
    ledger.extend([
        (
            "simrt.ns_per_event",
            ratio(ledger["simrt.simulate_ms"] * 1e6, ledger["simrt.events"]),
        ),
        (
            "collect.parallel_view_ns_per_vertex",
            ratio(
                ledger["collect.parallel_view_ms"] * 1e6,
                ledger["collect.parallel_vertices"],
            ),
        ),
        (
            "core.sched_us_per_pass",
            ratio(
                ledger["core.sched_replay_ms"] * 1e3,
                ledger["core.sched_passes"],
            ),
        ),
        ("obs.enabled_overhead_pct", median(&obs_overhead)),
        ("trace.op_ms_p50", op_ms),
        ("trace.overhead_pct", median(&trace_overhead)),
        (
            "trace.unattributed_pct",
            100.0 * ratio(span_ms("op"), op_ms),
        ),
    ]);

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let value = ledger.get(name).copied();
            value
                .map(|v| (name, v))
                .ok_or(format!("no value for `{name}`"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(RunResult {
        attempted: direct_ops + samples.len(),
        failures,
        metrics,
    })
}

/// Work counts of one main run; they repeat exactly for a given seed.
fn count_work(main: &RunHandle, ledger: &mut BTreeMap<&'static str, f64>) {
    let data = main.data();
    let samples: u64 = data.samples.values().sum();
    let events =
        data.comm_records.len() + data.msg_edges.len() + data.lock_records.len() + samples as usize;
    ledger.extend([
        ("simrt.events", events as f64),
        ("simrt.comm_records", data.comm_records.len() as f64),
        ("simrt.lock_records", data.lock_records.len() as f64),
        ("simrt.virtual_makespan_us", data.total_time),
        (
            "collect.topdown_vertices",
            main.topdown().num_vertices() as f64,
        ),
        (
            "collect.parallel_vertices",
            main.parallel().num_vertices() as f64,
        ),
        ("collect.parallel_edges", main.parallel().num_edges() as f64),
        ("pag.space_bytes", main.profiled().space_cost() as f64),
    ]);
}
