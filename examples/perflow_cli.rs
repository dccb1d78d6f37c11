//! `perflow-cli` — run any bundled workload under any built-in paradigm
//! from the command line.
//!
//! This binary is a thin argument parser over the [`driver`] crate, which
//! owns workload selection, paradigm assembly and report rendering (and
//! will also back `perflow-serve`).
//!
//! ```sh
//! cargo run --release --bin perflow-cli -- list
//! cargo run --release --bin perflow-cli -- zeusmp --paradigm scalability --ranks 64
//! cargo run --release --bin perflow-cli -- vite --paradigm contention --threads 8
//! cargo run --release --bin perflow-cli -- cg --paradigm mpip --ranks 16
//! cargo run --release --bin perflow-cli -- lammps --paradigm causal --ranks 32
//! cargo run --release --bin perflow-cli -- bt --paradigm critical-path --dot
//! cargo run --release --bin perflow-cli -- cg --ranks 8 --crash 5@10000 --sample-loss 0.1
//! cargo run --release --bin perflow-cli -- cg --query 'from vertices | sort time desc nan_last | top 5 | select name, time'
//! cargo run --release --bin perflow-cli -- cg --check-query 'from vertices | filter tme > 5'
//! cargo run --release --bin perflow-cli -- --bench-diff before.json benchmark/out/BENCH_pipeline.json --bench-threshold 0.15
//! ```

mod closed_stdout;

use driver::{AnalysisConfig, Paradigm, ResilienceConfig, WORKLOAD_NAMES};
use perflow::{ExecPolicy, Obs, PerFlow};
use simrt::{FaultPlan, RunConfig};

fn usage() -> ! {
    eprintln!(
        "usage: perflow-cli <workload|list> [--paradigm mpip|hotspot|scalability|critical-path|causal|contention]\n\
         \x20                [--ranks N] [--small-ranks N] [--threads N] [--seed N] [--dot]\n\
         \x20                [--trace-out FILE] [--metrics] [--metrics-json] [--lint] [--lint-json]\n\
         \x20                [--query QUERY] [--check-query QUERY] [--query-json]\n\
         \x20                [--bench-diff OLD NEW [--bench-threshold F] [--bench-noise-floor US] [--bench-json]]\n\
         \x20                [--self-analyze] [--prom-out FILE] [--folded-out FILE] [--app-folded-out FILE]\n\
         \x20                [--fail-policy failfast|isolate] [--inject-pass-panic]\n\
         \x20                [--crash RANK@US] [--hang RANK@US] [--sample-loss RATE]\n\
         \x20                [--msg-drop RATE@DELAY_US] [--pmu-corrupt RATE] [--truncate-stacks DEPTH]"
    );
    std::process::exit(2)
}

/// Parse a `RANK@VALUE` fault operand (e.g. `--crash 5@10000`).
/// Lint a query (`--check-query`), print the findings, and exit —
/// code 1 iff the analyzer found error-level findings.
fn check_query_exit(qtext: &str, json: bool) -> ! {
    let d = driver::check_query(qtext);
    if json {
        println!("{}", d.to_json().render());
    } else if d.is_empty() {
        println!("query ok: no findings");
    } else {
        print!("{}", d.render_text());
        println!("{}", d.summary());
    }
    std::process::exit(if d.has_errors() { 1 } else { 0 });
}

/// The regression watchdog (`--bench-diff OLD NEW`): load two bench /
/// `--metrics-json` snapshots, align passes by name, print PF04xx
/// verdicts, and exit — code 1 iff a pass regressed past the threshold.
fn bench_diff_exit(rest: &[String]) -> ! {
    let (Some(old_path), Some(new_path)) = (rest.first(), rest.get(1)) else {
        eprintln!("--bench-diff needs two snapshot files: OLD NEW");
        std::process::exit(2);
    };
    let mut cfg = driver::bench_diff::BenchDiffConfig::default();
    let mut json = false;
    let mut it = rest[2..].iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> f64 {
            it.next()
                .and_then(|v| v.parse().ok())
                .filter(|v| *v >= 0.0)
                .unwrap_or_else(|| {
                    eprintln!("{name} needs a non-negative number");
                    std::process::exit(2)
                })
        };
        match flag.as_str() {
            "--bench-threshold" => cfg.threshold = val("--bench-threshold"),
            "--bench-noise-floor" => cfg.noise_floor_us = val("--bench-noise-floor"),
            "--bench-json" => json = true,
            other => {
                eprintln!("unknown flag {other} after --bench-diff");
                std::process::exit(2);
            }
        }
    }
    let read = |path: &String| {
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")))
    };
    let outcome = driver::bench_diff::bench_diff_texts(&read(old_path), &read(new_path), &cfg)
        .unwrap_or_else(|e| fail(e));
    if json {
        println!("{}", outcome.to_json().render());
    } else {
        print!("{}", outcome.render_text());
    }
    std::process::exit(if outcome.regressed() { 1 } else { 0 });
}

fn rank_at(flag: &str, s: &str) -> (u32, f64) {
    let parsed = s
        .split_once('@')
        .and_then(|(r, t)| Some((r.parse().ok()?, t.parse().ok()?)));
    parsed.unwrap_or_else(|| {
        eprintln!("{flag} expects RANK@MICROSECONDS, got `{s}`");
        std::process::exit(2)
    })
}

fn fail(e: impl std::fmt::Display) -> ! {
    eprintln!("{e}");
    std::process::exit(1)
}

fn main() {
    closed_stdout::exit_quietly_on_closed_stdout();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(target) = args.first() else { usage() };
    if target == "list" {
        println!("workloads:");
        for n in WORKLOAD_NAMES {
            println!("  {n}");
        }
        let names: Vec<&str> = Paradigm::ALL.iter().map(|p| p.name()).collect();
        println!("paradigms: {}", names.join(" "));
        return;
    }
    // `--check-query` is pure static analysis — no workload, no
    // simulation — so it also works with the positional omitted.
    if target == "--check-query" {
        let Some(qtext) = args.get(1) else {
            eprintln!("--check-query needs a value");
            std::process::exit(2);
        };
        check_query_exit(qtext, args.iter().any(|a| a == "--query-json"));
    }
    // `--bench-diff` compares two saved snapshots — no workload, no
    // simulation — so it too works with the positional omitted.
    if target == "--bench-diff" {
        bench_diff_exit(&args[1..]);
    }
    let Some(prog) = driver::workload(target) else {
        eprintln!("unknown workload `{target}` (try `list`)");
        std::process::exit(2);
    };

    // Flag parsing.
    let mut cfg = AnalysisConfig::default();
    let mut paradigm = Paradigm::Hotspot;
    let mut dot = false;
    let mut trace_out: Option<String> = None;
    let mut prom_out: Option<String> = None;
    let mut folded_out: Option<String> = None;
    let mut app_folded_out: Option<String> = None;
    let mut metrics = false;
    let mut metrics_json = false;
    let mut self_analyze = false;
    let mut lint = false;
    let mut lint_json = false;
    let mut query: Option<String> = None;
    let mut check_query: Option<String> = None;
    let mut query_json = false;
    let mut res = ResilienceConfig::default();
    let mut faults = FaultPlan::new();
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("{name} needs a value");
                    std::process::exit(2)
                })
                .clone()
        };
        match flag.as_str() {
            "--paradigm" => {
                let v = val("--paradigm");
                paradigm = Paradigm::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown paradigm {v}");
                    usage()
                });
            }
            "--ranks" => cfg.ranks = val("--ranks").parse().unwrap_or_else(|_| usage()),
            "--small-ranks" => {
                cfg.small_ranks = val("--small-ranks").parse().unwrap_or_else(|_| usage())
            }
            "--threads" => cfg.threads = val("--threads").parse().unwrap_or_else(|_| usage()),
            "--seed" => cfg.seed = val("--seed").parse().unwrap_or_else(|_| usage()),
            "--dot" => dot = true,
            "--trace-out" => trace_out = Some(val("--trace-out")),
            "--prom-out" => prom_out = Some(val("--prom-out")),
            "--folded-out" => folded_out = Some(val("--folded-out")),
            "--app-folded-out" => app_folded_out = Some(val("--app-folded-out")),
            "--metrics" => metrics = true,
            "--metrics-json" => metrics_json = true,
            "--self-analyze" => self_analyze = true,
            "--lint" => lint = true,
            "--lint-json" => lint_json = true,
            "--query" => query = Some(val("--query")),
            "--check-query" => check_query = Some(val("--check-query")),
            "--query-json" => query_json = true,
            "--fail-policy" => {
                let v = val("--fail-policy");
                res.fail_policy = Some(ExecPolicy::parse(&v).unwrap_or_else(|| {
                    eprintln!("--fail-policy expects `failfast` or `isolate`, got `{v}`");
                    std::process::exit(2)
                }));
            }
            "--inject-pass-panic" => res.inject_pass_panic = true,
            "--crash" => {
                let (r, t) = rank_at("--crash", &val("--crash"));
                faults = faults.crash_rank(r, t);
            }
            "--hang" => {
                let (r, t) = rank_at("--hang", &val("--hang"));
                faults = faults.hang_rank(r, t);
            }
            "--sample-loss" => {
                faults = faults
                    .with_sample_loss(val("--sample-loss").parse().unwrap_or_else(|_| usage()))
            }
            "--msg-drop" => {
                let (rate, delay) = val("--msg-drop")
                    .split_once('@')
                    .and_then(|(r, d)| Some((r.parse().ok()?, d.parse().ok()?)))
                    .unwrap_or_else(|| {
                        eprintln!("--msg-drop expects RATE@DELAY_US");
                        std::process::exit(2)
                    });
                faults = faults.with_message_drop(rate, delay);
            }
            "--pmu-corrupt" => {
                faults = faults
                    .with_pmu_corruption(val("--pmu-corrupt").parse().unwrap_or_else(|_| usage()))
            }
            "--truncate-stacks" => {
                faults = faults.with_stack_truncation(
                    val("--truncate-stacks").parse().unwrap_or_else(|_| usage()),
                )
            }
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }

    // Pure static analysis: lint the query and exit before any
    // simulation runs (exit 1 iff the analyzer found errors).
    if let Some(qtext) = &check_query {
        check_query_exit(qtext, query_json);
    }

    let pflow = PerFlow::new();
    let observed = trace_out.is_some()
        || prom_out.is_some()
        || folded_out.is_some()
        || metrics
        || metrics_json
        || self_analyze;
    let obs = if observed {
        Obs::enabled()
    } else {
        Obs::disabled()
    };
    let run_cfg = RunConfig::new(cfg.ranks)
        .with_threads(cfg.threads)
        .with_seed(cfg.seed)
        .with_faults(faults)
        .with_obs(obs.clone());
    let run = pflow
        .run(&prog, &run_cfg)
        .unwrap_or_else(|e| fail(format!("run failed: {e}")));

    if lint || lint_json {
        let outcome = driver::lint(&prog, &run).unwrap_or_else(|e| fail(e));
        if lint_json {
            println!("{}", outcome.to_json(target).render());
        } else {
            println!("{}", outcome.render_text());
        }
        std::process::exit(if outcome.is_clean() { 0 } else { 1 });
    }

    if let Some(qtext) = &query {
        // Lint gates execution: an invalid query is rejected here and
        // never reaches the evaluator.
        let out = driver::run_query(&run, qtext).unwrap_or_else(|e| fail(e));
        if query_json {
            println!("{}", out.to_json(target).render());
        } else {
            print!("{}", out.render_text());
        }
        std::process::exit(if out.diagnostics.has_errors() { 1 } else { 0 });
    }

    print!("{}", driver::run_summary(&prog, &run, &cfg));
    let report = driver::analyze(&pflow, &prog, &run, paradigm, &cfg).unwrap_or_else(|e| fail(e));
    println!("\n{}", report.render());

    if obs.is_enabled() || res.is_active() {
        let resilient = res.is_active();
        let out = driver::comm_analysis_session(&run, &obs, &res, 0).unwrap_or_else(|e| fail(e));
        if resilient {
            if !out.report.is_empty() {
                println!("\n{}", out.report);
            }
            // Stable digest of the rendered report: lets scripts compare
            // two runs' results.
            println!("comm-analysis report digest: {:016x}", out.report_digest);
            for w in &out.outputs.warnings {
                println!("warning: {w}");
            }
            println!(
                "resilience: {} failed, {} skipped{}",
                out.outputs.failures.len(),
                out.outputs.skipped.len(),
                if out.outputs.degraded() {
                    " (degraded)"
                } else {
                    ""
                }
            );
        }
        if metrics {
            print!("\n{}", out.outputs.metrics.render());
        }
        if metrics_json {
            println!("{}", out.outputs.metrics.to_json().render());
        }
        let write_file = |path: &String, what: &str, contents: String| {
            std::fs::write(path, contents)
                .unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
            eprintln!("wrote {what} to {path}");
        };
        if let Some(path) = &trace_out {
            write_file(path, "chrome trace", obs.chrome_trace());
            eprintln!(
                "  ({} spans, {} dropped)",
                obs.spans().len(),
                obs.dropped_spans()
            );
        }
        if let Some(path) = &prom_out {
            write_file(path, "prometheus exposition", obs.prometheus());
        }
        if let Some(path) = &folded_out {
            write_file(path, "folded engine stacks", obs.folded_stacks());
        }
        if self_analyze {
            let sa = perflow::self_analysis(&obs)
                .unwrap_or_else(|e| fail(format!("self-analysis failed: {e}")));
            println!("\n{}", sa.render());
        }
    }
    if let Some(path) = &app_folded_out {
        std::fs::write(path, collect::folded_samples(&prog, run.data()))
            .unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
        eprintln!("wrote folded application stacks to {path}");
    }

    if dot {
        println!("{}", driver::hotspot_dot(&pflow, &run));
    }
}
