//! The whole benchmark in one command: every workload, end-to-end and
//! traced, each run a child process of its own (so that `peak_rss_mb` is
//! per workload), every metric printed by name, the output checked
//! against `BENCHMARK.json`, and `out/BENCH_pipeline.json` written for
//! `perflow-cli --bench-diff`.

use std::process::{Command, Stdio};

use obs::json::Json;
use perflow::{PassMetric, RunMetrics};

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workload::SPECS;
use crate::Args;

/// `run_seconds` of `BENCHMARK.json`: the run length the op counts and
/// tail percentiles are sized for.
pub const DEFAULT_SECONDS: u64 = 15;

/// One child run, parsed: `(metric, value, unit)` in output order.
struct ChildRun {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

fn child_run(args: &Args, workload: &str, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--dir", &args.dir, "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload}: run ended with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("run printed nothing")?;
    let json = Json::parse(last).map_err(|e| format!("{workload}: last line: {e}"))?;
    let Some(Json::Obj(fields)) = json.get("metrics") else {
        return Err(format!("{workload}: result has no metrics object"));
    };
    let metrics = fields
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            let unit = m.get("unit").and_then(Json::as_str);
            match (value, unit) {
                (Some(v), Some(u)) if v.is_finite() => Ok((name.clone(), v, u.to_string())),
                _ => Err(format!("{workload}: metric `{name}` is malformed")),
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    let count = |key| json.get(key).and_then(Json::as_u64);
    match (count("attempted"), count("failed"), json.get("correct")) {
        (Some(attempted), Some(failed), Some(Json::Bool(correct)))
            if attempted >= 1 && *correct == (failed == 0) =>
        {
            Ok(ChildRun {
                attempted,
                failed,
                metrics,
            })
        }
        _ => Err(format!("{workload}: malformed result line: {last}")),
    }
}

/// `(name, unit)` of each entry of a `BENCHMARK.json` list.
fn declared(json: &Json, list: &str) -> Result<Vec<(String, Option<String>)>, String> {
    let Some(Json::Arr(items)) = json.get(list) else {
        return Err(format!("BENCHMARK.json has no `{list}` list"));
    };
    items
        .iter()
        .map(|item| {
            let name = item.get("name").and_then(Json::as_str);
            let unit = item.get("unit").and_then(Json::as_str).map(str::to_string);
            name.map(|n| (n.to_string(), unit))
                .ok_or(format!("BENCHMARK.json: a `{list}` entry has no name"))
        })
        .collect()
}

/// `BENCHMARK.json` must declare exactly the workloads and metrics the
/// binary produces, with the same units and well-formed names.
fn check_manifest(dir: &str) -> Result<(), String> {
    let path = format!("{dir}/../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if json.get("run_seconds").and_then(Json::as_u64) != Some(DEFAULT_SECONDS) {
        return Err(format!(
            "BENCHMARK.json: run_seconds is not {DEFAULT_SECONDS}"
        ));
    }
    let workloads: Vec<(String, Option<String>)> =
        SPECS.iter().map(|s| (s.name.to_string(), None)).collect();
    let table = |t: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), Some(u.to_string())))
            .collect()
    };
    for (list, produced) in [
        ("workloads", workloads),
        ("end_to_end", table(END_TO_END)),
        ("per_layer", table(PER_LAYER)),
    ] {
        let declared = declared(&json, list)?;
        if declared != produced {
            let odd = declared
                .iter()
                .find(|d| !produced.contains(d))
                .or(produced.iter().find(|p| !declared.contains(p)));
            return Err(format!(
                "BENCHMARK.json `{list}` and the binary disagree, first at {odd:?}"
            ));
        }
        for (name, _) in &declared {
            let well_formed = name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
            if !well_formed {
                return Err(format!("BENCHMARK.json: `{name}` is not a valid name"));
            }
        }
    }
    Ok(())
}

/// µs per unit, for the timings that go into `BENCH_pipeline.json`.
fn unit_us(unit: &str) -> Option<f64> {
    match unit {
        "s" => Some(1e6),
        "ms" => Some(1e3),
        "us" => Some(1.0),
        "ns" => Some(1e-3),
        _ => None,
    }
}

pub fn run_all(args: &Args) -> Result<(), String> {
    check_manifest(&args.dir)?;
    let mut pipeline = RunMetrics {
        workers: 1,
        ..RunMetrics::default()
    };
    let mut failed = 0;
    for spec in &SPECS {
        for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            let run = child_run(args, spec.name, trace)?;
            let produced: Vec<(&str, &str)> = run
                .metrics
                .iter()
                .map(|(n, _, u)| (n.as_str(), u.as_str()))
                .collect();
            if produced != table {
                return Err(format!("{}: metric names or units are off", spec.name));
            }
            println!(
                "== {} ({}): {} ops attempted, {} failed",
                spec.name,
                if trace { "traced" } else { "end to end" },
                run.attempted,
                run.failed
            );
            failed += run.failed;
            for (name, value, unit) in &run.metrics {
                println!("{name:<40} {value:>16.4} {unit}");
                if let Some(us) = unit_us(unit) {
                    let node = pipeline.passes.len();
                    pipeline.passes.push(PassMetric {
                        node,
                        name: format!("pipeline/{}/{name}", spec.name),
                        wall_us: value * us,
                        queue_wait_us: 0.0,
                        cache_hit: false,
                        worker: 0,
                        dispatch_seq: node,
                    });
                }
            }
        }
    }
    pipeline.total_wall_us = pipeline.busy_us();
    pipeline.worker_busy_us = vec![pipeline.total_wall_us];
    let path = format!("{}/out/BENCH_pipeline.json", args.dir);
    std::fs::write(&path, format!("{}\n", pipeline.render_json()))
        .map_err(|e| format!("{path}: {e}"))?;
    println!("wrote {path} and {}/out/trace_<workload>.json", args.dir);
    match failed {
        0 => Ok(()),
        n => Err(format!("{n} ops failed their checks")),
    }
}
