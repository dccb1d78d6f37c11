//! Daemon overhead of `perflow-serve` versus the direct driver path
//! (ISSUE 10 satellite): the same cold hotspot analysis measured (a)
//! in-process through [`driver::analyze`] and (b) end to end through
//! the HTTP daemon — socket, admission, queue, executor dispatch and
//! status polling included — plus the raw request rate of a cheap
//! endpoint (`GET /healthz`).
//!
//! Running with `PERFLOW_BENCH_JSON_OUT=BENCH_serve.json` emits the
//! measurements in the `RunMetrics` field vocabulary, so the serve
//! trajectory is diffable with `perflow-cli --bench-diff` like every
//! other checked-in baseline.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use bench::pagbench::{entries_to_json, BenchEntry};
use bench::{median_secs, print_table};
use driver::AnalysisConfig;
use obs::json::Json;
use perflow::PerFlow;
use serve::{Server, ServerConfig};
use simrt::RunConfig;

const WORKLOAD: &str = "cg";
const RANKS: u32 = 2;
const THREADS: u32 = 2;
/// Jobs per served batch; seeds vary per job so every one is cold in
/// all three server-side caches.
const BATCH: u64 = 6;

fn http(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut req = format!("{method} {path} HTTP/1.1\r\nHost: bench\r\n");
    match body {
        Some(b) => req.push_str(&format!("Content-Length: {}\r\n\r\n{b}", b.len())),
        None => req.push_str("\r\n"),
    }
    s.write_all(req.as_bytes()).unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read response");
    let status = raw.split(' ').nth(1).and_then(|c| c.parse().ok()).unwrap();
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// One cold in-process analysis: simulate + hotspot report, exactly the
/// work a served job's executor performs.
fn direct_job(seed: u64) {
    let cfg = AnalysisConfig {
        ranks: RANKS,
        threads: THREADS,
        seed,
        ..AnalysisConfig::default()
    };
    let prog = driver::workload(WORKLOAD).expect("bundled workload");
    let pflow = PerFlow::new();
    let run_cfg = RunConfig::new(cfg.ranks)
        .with_threads(cfg.threads)
        .with_seed(cfg.seed);
    let run = pflow.run(&prog, &run_cfg).expect("run");
    std::hint::black_box(
        driver::analyze(&pflow, &prog, &run, driver::Paradigm::Hotspot, &cfg)
            .expect("analysis")
            .render(),
    );
}

/// Submit `BATCH` cold jobs and poll each to completion; returns once
/// every report exists. Per-job time = batch wall / BATCH.
fn served_batch(addr: SocketAddr, seed_base: u64) {
    let mut ids = Vec::new();
    for i in 0..BATCH {
        let spec = format!(
            r#"{{"workload":"{WORKLOAD}","paradigm":"hotspot","ranks":{RANKS},"threads":{THREADS},"seed":{}}}"#,
            seed_base + i
        );
        let (status, body) = http(addr, "POST", "/jobs", Some(&spec));
        assert_eq!(status, 202, "{body}");
        ids.push(
            Json::parse(&body)
                .unwrap()
                .get("id")
                .and_then(Json::as_u64)
                .unwrap(),
        );
    }
    for id in ids {
        loop {
            let (status, body) = http(addr, "GET", &format!("/jobs/{id}"), None);
            assert_eq!(status, 200, "{body}");
            let j = Json::parse(&body).unwrap();
            match j.get("status").and_then(Json::as_str) {
                Some("done") => break,
                Some("failed") => panic!("bench job failed: {body}"),
                _ => std::thread::sleep(Duration::from_micros(500)),
            }
        }
    }
}

fn main() {
    let reps = 5;

    let mut seed = 1u64;
    let direct_secs = median_secs(reps, || {
        for _ in 0..BATCH {
            direct_job(seed);
            seed += 1;
        }
    });
    let direct_job_us = direct_secs * 1e6 / BATCH as f64;

    let server = Server::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("server start");
    let addr = server.local_addr();

    let mut batch = 0u64;
    let served_secs = median_secs(reps, || {
        // A fresh seed range per rep keeps every job cold in the run
        // and report caches, matching the direct path's work.
        batch += 1;
        served_batch(addr, 1000 * batch);
    });
    let served_job_us = served_secs * 1e6 / BATCH as f64;

    let healthz_secs = median_secs(reps, || {
        for _ in 0..50 {
            let (status, _) = http(addr, "GET", "/healthz", None);
            assert_eq!(status, 200);
        }
    });
    let healthz_rtt_us = healthz_secs * 1e6 / 50.0;

    server.shutdown();

    let daemon_overhead_us = (served_job_us - direct_job_us).max(0.0);
    let entries = vec![
        BenchEntry {
            name: "serve_throughput/direct_job_us".into(),
            wall_us: direct_job_us,
        },
        BenchEntry {
            name: "serve_throughput/served_job_us".into(),
            wall_us: served_job_us,
        },
        BenchEntry {
            name: "serve_throughput/daemon_overhead_us".into(),
            wall_us: daemon_overhead_us,
        },
        BenchEntry {
            name: "serve_throughput/healthz_rtt_us".into(),
            wall_us: healthz_rtt_us,
        },
    ];

    print_table(
        "perflow-serve throughput (cold jobs, 1 worker)",
        &["measurement", "median", "rate"],
        &[
            vec![
                "direct driver job".into(),
                format!("{direct_job_us:.0} µs"),
                format!("{:.1} jobs/s", 1e6 / direct_job_us),
            ],
            vec![
                "served job (HTTP + queue + poll)".into(),
                format!("{served_job_us:.0} µs"),
                format!("{:.1} jobs/s", 1e6 / served_job_us),
            ],
            vec![
                "daemon overhead per job".into(),
                format!("{daemon_overhead_us:.0} µs"),
                format!(
                    "{:.1}%",
                    100.0 * daemon_overhead_us / direct_job_us.max(1e-9)
                ),
            ],
            vec![
                "GET /healthz round trip".into(),
                format!("{healthz_rtt_us:.0} µs"),
                format!("{:.0} req/s", 1e6 / healthz_rtt_us),
            ],
        ],
    );

    if let Ok(path) = std::env::var("PERFLOW_BENCH_JSON_OUT") {
        let json = entries_to_json(&entries);
        std::fs::write(&path, format!("{json}\n")).expect("cannot write bench json");
        eprintln!("wrote serve perf baseline to {path}");
    }
}
