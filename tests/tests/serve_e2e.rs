//! End-to-end exercise of the `perflow-serve` daemon over real sockets:
//! concurrent multi-tenant submissions, quota and queue-capacity
//! enforcement, the fingerprint-keyed report cache, and graceful drain.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use obs::json::Json;
use serve::{Server, ServerConfig};

fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: Option<&str>,
) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut req = format!("{method} {path} HTTP/1.1\r\nHost: test\r\n");
    for (k, v) in headers {
        req.push_str(&format!("{k}: {v}\r\n"));
    }
    match body {
        Some(b) => req.push_str(&format!("Content-Length: {}\r\n\r\n{b}", b.len())),
        None => req.push_str("\r\n"),
    }
    s.write_all(req.as_bytes()).unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split(' ')
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn submit(addr: SocketAddr, key: &str, spec: &str) -> (u16, Json) {
    let (status, body) = http(addr, "POST", "/jobs", &[("X-Api-Key", key)], Some(spec));
    (status, Json::parse(&body).expect("JSON response"))
}

/// Poll `GET /jobs/:id` until it settles; panics after `secs`.
fn wait_done(addr: SocketAddr, key: &str, id: u64, secs: u64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        let (status, body) = http(
            addr,
            "GET",
            &format!("/jobs/{id}"),
            &[("X-Api-Key", key)],
            None,
        );
        assert_eq!(status, 200, "job {id} lookup: {body}");
        let j = Json::parse(&body).unwrap();
        match j.get("status").and_then(Json::as_str) {
            Some("done") | Some("failed") => return j,
            _ if Instant::now() > deadline => panic!("job {id} never settled: {body}"),
            _ => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

fn job_spec(workload: &str) -> String {
    format!(r#"{{"workload":"{workload}","paradigm":"hotspot","ranks":2,"threads":2,"seed":3}}"#)
}

/// The span names of job `id`'s trace.
fn trace_span_names(addr: SocketAddr, key: &str, id: u64) -> Vec<String> {
    let (status, trace) = http(
        addr,
        "GET",
        &format!("/jobs/{id}/trace"),
        &[("X-Api-Key", key)],
        None,
    );
    assert_eq!(status, 200, "{trace}");
    let t = Json::parse(&trace).unwrap();
    let Some(Json::Arr(events)) = t.get("traceEvents") else {
        panic!("no traceEvents array: {trace}");
    };
    events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .map(|e| e.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

#[test]
fn eight_concurrent_distinct_workloads_complete() {
    let server = Server::start(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    assert_eq!(http(addr, "GET", "/healthz", &[], None).0, 200);
    let workloads = ["bt", "cg", "ep", "ft", "is", "lu", "mg", "sp"];
    let ids: Vec<(String, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = workloads
            .iter()
            .map(|w| {
                s.spawn(move || {
                    let (status, j) = submit(addr, "tenant-a", &job_spec(w));
                    assert_eq!(status, 202, "{w}: {}", j.render());
                    (w.to_string(), j.get("id").and_then(Json::as_u64).unwrap())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(ids.len(), 8);

    let mut digests = Vec::new();
    for (w, id) in &ids {
        let j = wait_done(addr, "tenant-a", *id, 60);
        assert_eq!(
            j.get("status").and_then(Json::as_str),
            Some("done"),
            "{w}: {}",
            j.render()
        );
        assert_eq!(j.get("workload").and_then(Json::as_str), Some(w.as_str()));
        let report = j.get("report").and_then(Json::as_str).unwrap();
        assert!(!report.is_empty(), "{w} produced an empty report");
        digests.push(
            j.get("report_digest")
                .and_then(Json::as_str)
                .unwrap()
                .to_string(),
        );
    }
    // Distinct workloads produce distinct reports.
    let mut unique = digests.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), digests.len(), "digest collision: {digests:?}");

    let stats = server.shutdown();
    assert_eq!(stats.completed, 8);
    assert_eq!(stats.failed, 0);
}

#[test]
fn per_tenant_quota_is_enforced() {
    // One worker + held jobs keep tenant-a's submissions active.
    let server = Server::start(ServerConfig {
        workers: 1,
        tenant_quota: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let held = r#"{"workload":"ep","paradigm":"hotspot","ranks":2,"threads":2,"hold_ms":400}"#;

    let (s1, j1) = submit(addr, "tenant-a", held);
    let (s2, _) = submit(addr, "tenant-a", held);
    assert_eq!((s1, s2), (202, 202));
    // Third active job for the same tenant trips the quota.
    let (s3, j3) = submit(addr, "tenant-a", held);
    assert_eq!(s3, 429, "{}", j3.render());
    assert_eq!(j3.get("quota").and_then(Json::as_u64), Some(2));
    // A different tenant is unaffected.
    let (s4, j4) = submit(addr, "tenant-b", &job_spec("cg"));
    assert_eq!(s4, 202, "{}", j4.render());

    // Once tenant-a's jobs settle, its quota slot frees up.
    let id1 = j1.get("id").and_then(Json::as_u64).unwrap();
    wait_done(addr, "tenant-a", id1, 60);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (s, j) = submit(addr, "tenant-a", &job_spec("is"));
        if s == 202 {
            break;
        }
        assert_eq!(s, 429, "{}", j.render());
        assert!(Instant::now() < deadline, "quota slot never freed");
        std::thread::sleep(Duration::from_millis(25));
    }
    server.shutdown();
}

#[test]
fn repeated_identical_submission_is_served_from_the_report_cache() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let spec = r#"{"workload":"cg","paradigm":"comm","ranks":4,"threads":2,"seed":9}"#;

    let (s1, j1) = submit(addr, "t", spec);
    assert_eq!(s1, 202);
    let cold = wait_done(addr, "t", j1.get("id").and_then(Json::as_u64).unwrap(), 60);
    assert_eq!(cold.get("status").and_then(Json::as_str), Some("done"));
    assert_eq!(cold.get("cached").and_then(Json::as_bool), Some(false));

    let (s2, j2) = submit(addr, "t", spec);
    assert_eq!(s2, 202);
    let warm = wait_done(addr, "t", j2.get("id").and_then(Json::as_u64).unwrap(), 60);
    assert_eq!(
        warm.get("cached").and_then(Json::as_bool),
        Some(true),
        "identical resubmission should come from the report cache: {}",
        warm.render()
    );
    // Byte-identical report, identical digest.
    assert_eq!(
        warm.get("report").and_then(Json::as_str),
        cold.get("report").and_then(Json::as_str)
    );
    assert_eq!(
        warm.get("report_digest").and_then(Json::as_str),
        cold.get("report_digest").and_then(Json::as_str)
    );
    // The cold job ran the comm graph's passes; the repeat ran none.
    let pass_spans = |j: &Json| {
        let id = j.get("id").and_then(Json::as_u64).unwrap();
        trace_span_names(addr, "t", id)
            .iter()
            .filter(|n| n.starts_with("pass:"))
            .count()
    };
    assert!(pass_spans(&cold) > 0);
    assert_eq!(pass_spans(&warm), 0, "a report-cache hit runs no pass");

    // The hit is visible in /metrics.
    let (ms, metrics) = http(addr, "GET", "/metrics", &[], None);
    assert_eq!(ms, 200);
    let hit_line = metrics
        .lines()
        .find(|l| l.starts_with("perflow_serve_report_cache_hit_total"))
        .unwrap_or_else(|| panic!("no report-cache hit counter in:\n{metrics}"));
    let hits: f64 = hit_line.split(' ').next_back().unwrap().parse().unwrap();
    assert!(hits >= 1.0, "{hit_line}");
    assert!(metrics.contains("perflow_serve_jobs_submitted_total 2"));

    let stats = server.shutdown();
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.report_cache_hits, 1);
}

#[test]
fn query_endpoint_lints_before_enqueue_and_matches_the_paradigm() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // A typo'd metric is rejected 400 with PF03xx diagnostics before
    // anything is admitted: the lint runs pre-enqueue, so no job
    // record exists and no pass executes.
    let bad = r#"{"workload":"cg","ranks":2,"threads":2,"seed":3,
                  "query":"from vertices | filter tme > 10 | select name"}"#;
    let (s, body) = http(addr, "POST", "/jobs", &[("X-Api-Key", "t")], Some(bad));
    assert_eq!(s, 400, "{body}");
    let j = Json::parse(&body).expect("diagnostics body must be valid JSON");
    assert_eq!(j.get("error").and_then(Json::as_str), Some("invalid query"));
    assert!(body.contains("PF0301"), "{body}");
    assert!(body.contains("did you mean `time`"), "{body}");
    assert_eq!(body, "{\"error\":\"invalid query\",\"summary\":\"1 error, 0 warnings, 0 infos\",\"diagnostics\":[{\"code\":\"PF0301\",\"severity\":\"error\",\"anchor\":{\"kind\":\"stage\",\"index\":1,\"op\":\"filter\"},\"message\":\"unknown metric or field `tme`; did you mean `time`?\"}]}", "invalid-query body changed");
    let (_, jobs) = http(addr, "GET", "/jobs", &[("X-Api-Key", "t")], None);
    assert_eq!(jobs.trim(), r#"{"jobs":[]}"#, "rejected query was enqueued");

    // `POST /jobs` is the one submission route.
    let (s, body) = http(addr, "POST", "/query", &[("X-Api-Key", "t")], Some(bad));
    assert_eq!(s, 404, "{body}");

    // A clean query executes and digests identically to the built-in
    // hotspot paradigm over the same run shape.
    let query_spec = r#"{"workload":"cg","ranks":2,"threads":2,"seed":3,
        "query":"from vertices | score time | sort score desc nan_last | top 15 | select name, label, debug-info, time"}"#;
    let (s, j) = http(
        addr,
        "POST",
        "/jobs",
        &[("X-Api-Key", "t")],
        Some(query_spec),
    );
    assert_eq!(s, 202, "{j}");
    let qid = Json::parse(&j)
        .unwrap()
        .get("id")
        .and_then(Json::as_u64)
        .unwrap();
    let qjob = wait_done(addr, "t", qid, 60);
    assert_eq!(
        qjob.get("status").and_then(Json::as_str),
        Some("done"),
        "{}",
        qjob.render()
    );
    assert_eq!(qjob.get("paradigm").and_then(Json::as_str), Some("query"));
    assert!(qjob.get("query").and_then(Json::as_str).is_some());

    let (s, j) = submit(addr, "t", &job_spec("cg"));
    assert_eq!(s, 202, "{}", j.render());
    let pid = j.get("id").and_then(Json::as_u64).unwrap();
    let pjob = wait_done(addr, "t", pid, 60);
    assert_eq!(
        qjob.get("report_digest").and_then(Json::as_str),
        pjob.get("report_digest").and_then(Json::as_str),
        "query-built hotspot must digest identically to the paradigm\nquery: {}\nparadigm: {}",
        qjob.render(),
        pjob.render()
    );

    // Resubmitting the identical query is a report-cache hit.
    let (s, j) = http(
        addr,
        "POST",
        "/jobs",
        &[("X-Api-Key", "t")],
        Some(query_spec),
    );
    assert_eq!(s, 202, "{j}");
    let rid = Json::parse(&j)
        .unwrap()
        .get("id")
        .and_then(Json::as_u64)
        .unwrap();
    let warm = wait_done(addr, "t", rid, 60);
    assert_eq!(warm.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(
        warm.get("report").and_then(Json::as_str),
        qjob.get("report").and_then(Json::as_str)
    );

    server.shutdown();
}

#[test]
fn a_full_queue_refuses_with_503_and_keeps_no_record() {
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let held = r#"{"workload":"ep","paradigm":"hotspot","ranks":2,"threads":2,"hold_ms":2000}"#;
    let (s, j) = submit(addr, "t", held);
    assert_eq!(s, 202, "{}", j.render());
    let running = j.get("id").and_then(Json::as_u64).unwrap();
    // Wait until the one executor holds the first job, so the queue is
    // empty again.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (_, body) = http(
            addr,
            "GET",
            &format!("/jobs/{running}"),
            &[("X-Api-Key", "t")],
            None,
        );
        let status = Json::parse(&body).unwrap();
        if status.get("status").and_then(Json::as_str) == Some("running") {
            break;
        }
        assert!(Instant::now() < deadline, "job never started: {body}");
        std::thread::sleep(Duration::from_millis(10));
    }
    let (s, j) = submit(addr, "t", &job_spec("cg"));
    assert_eq!(s, 202, "{}", j.render());
    assert_eq!(j.get("queue_depth").and_then(Json::as_u64), Some(1));
    let (s, j) = submit(addr, "t", &job_spec("bt"));
    assert_eq!(s, 503, "{}", j.render());
    assert_eq!(
        j.get("error").and_then(Json::as_str),
        Some("job queue is full")
    );
    let (_, jobs) = http(addr, "GET", "/jobs", &[("X-Api-Key", "t")], None);
    let Some(Json::Arr(listed)) = Json::parse(&jobs).unwrap().get("jobs").cloned() else {
        panic!("no jobs array: {jobs}");
    };
    assert_eq!(listed.len(), 2, "{jobs}");
    // The refused submission used up no job id.
    wait_done(addr, "t", running, 60);
    let (s, j) = submit(addr, "t", &job_spec("bt"));
    assert_eq!(s, 202, "{}", j.render());
    assert_eq!(j.get("id").and_then(Json::as_u64), Some(running + 2));
    let stats = server.shutdown();
    assert_eq!((stats.completed, stats.failed), (3, 0));
}

#[test]
fn graceful_shutdown_drains_queued_and_running_jobs() {
    let server = Server::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let held = r#"{"workload":"ep","paradigm":"hotspot","ranks":2,"threads":2,"hold_ms":150}"#;
    for _ in 0..3 {
        let (s, j) = submit(addr, "t", held);
        assert_eq!(s, 202, "{}", j.render());
    }
    let (s, j) = http(addr, "POST", "/shutdown", &[], None);
    assert_eq!(s, 202, "{j}");
    assert_eq!(
        Json::parse(&j)
            .unwrap()
            .get("status")
            .and_then(Json::as_str),
        Some("draining")
    );
    // The drain finishes every accepted job before the server exits.
    let stats = server.wait();
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.failed, 0);
    // The listener is gone afterwards.
    assert!(TcpStream::connect(addr).is_err(), "listener survived drain");
}

#[test]
fn comm_job_trace_is_one_connected_tree() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let spec = r#"{"workload":"cg","paradigm":"comm","ranks":2,"threads":2,"seed":5}"#;
    let (s, j) = submit(addr, "t", spec);
    assert_eq!(s, 202, "{}", j.render());
    let id = j.get("id").and_then(Json::as_u64).unwrap();
    let job = wait_done(addr, "t", id, 60);
    assert_eq!(job.get("status").and_then(Json::as_str), Some("done"));

    // The status JSON carries the trace id and a per-job latency block
    // whose queue wait is measured from HTTP admission.
    assert_eq!(job.get("trace").and_then(Json::as_u64), Some(id));
    let metrics = job.get("metrics").expect("terminal job has metrics");
    let queue_wait = metrics.get("queue_wait_us").and_then(Json::as_f64).unwrap();
    let exec = metrics.get("exec_us").and_then(Json::as_f64).unwrap();
    let total = metrics.get("total_us").and_then(Json::as_f64).unwrap();
    assert!(queue_wait >= 0.0 && exec >= 0.0, "{}", job.render());
    assert!(total >= queue_wait, "{}", job.render());
    // A comm job executes the observed scheduler, so its RunMetrics
    // ride along.
    let run = metrics.get("run").expect("run block");
    assert!(
        matches!(run.get("passes"), Some(Json::Arr(p)) if !p.is_empty()),
        "comm job should embed RunMetrics: {}",
        job.render()
    );

    // The trace endpoint returns valid Chrome-trace JSON where every
    // span carries the job's trace id, spanning the serve layer (HTTP
    // admission, queue wait, execution) and the core scheduler's
    // per-pass spans.
    let (ts, trace) = http(
        addr,
        "GET",
        &format!("/jobs/{id}/trace"),
        &[("X-Api-Key", "t")],
        None,
    );
    assert_eq!(ts, 200, "{trace}");
    let t = Json::parse(&trace).expect("trace must be valid JSON");
    let Some(Json::Arr(events)) = t.get("traceEvents") else {
        panic!("no traceEvents array: {trace}");
    };
    let xs: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .collect();
    assert!(!xs.is_empty(), "{trace}");
    let mut cats = Vec::new();
    let mut names = Vec::new();
    for e in &xs {
        assert_eq!(
            e.get("trace").and_then(Json::as_u64),
            Some(id),
            "span without the job's trace id: {}",
            e.render()
        );
        cats.push(e.get("cat").and_then(Json::as_str).unwrap().to_string());
        names.push(e.get("name").and_then(Json::as_str).unwrap().to_string());
    }
    for cat in ["serve", "core"] {
        assert!(cats.iter().any(|c| c == cat), "no {cat} spans in {names:?}");
    }
    for name in ["job.admit", "job.queue_wait", "job.exec", "job"] {
        assert!(names.iter().any(|n| n == name), "no {name} in {names:?}");
    }
    assert!(
        names.iter().any(|n| n.starts_with("pass:")),
        "no scheduler pass spans in {names:?}"
    );
    // The queue-wait span is non-negative and inside the whole-job span.
    let span = |name: &str| {
        xs.iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
            .unwrap()
    };
    let wait = span("job.queue_wait");
    let whole = span("job");
    let ts_of = |e: &Json| e.get("ts").and_then(Json::as_f64).unwrap();
    let dur_of = |e: &Json| e.get("dur").and_then(Json::as_f64).unwrap();
    assert!(dur_of(wait) >= 0.0);
    assert!(ts_of(wait) >= ts_of(whole) - 1e-6);
    let other = t.get("otherData").expect("otherData");
    assert_eq!(other.get("trace").and_then(Json::as_u64), Some(id));
    assert_eq!(
        other.get("spanCount").and_then(Json::as_u64),
        Some(xs.len() as u64)
    );
    let digest = other.get("traceDigest").and_then(Json::as_str).unwrap();
    assert_eq!(digest.len(), 16, "digest is 16 hex chars: {digest}");

    // Other tenants cannot see the trace (same 404 as job status).
    let (s404, _) = http(
        addr,
        "GET",
        &format!("/jobs/{id}/trace"),
        &[("X-Api-Key", "someone-else")],
        None,
    );
    assert_eq!(s404, 404);
    server.shutdown();
}

#[test]
fn identical_jobs_trace_digests_match_across_servers() {
    let spec = r#"{"workload":"ep","paradigm":"comm","ranks":2,"threads":2,"seed":11}"#;
    let digest_of = || {
        let server = Server::start(ServerConfig::default()).unwrap();
        let addr = server.local_addr();
        let (s, j) = submit(addr, "t", spec);
        assert_eq!(s, 202, "{}", j.render());
        let id = j.get("id").and_then(Json::as_u64).unwrap();
        let job = wait_done(addr, "t", id, 60);
        assert_eq!(job.get("status").and_then(Json::as_str), Some("done"));
        let (ts, trace) = http(
            addr,
            "GET",
            &format!("/jobs/{id}/trace"),
            &[("X-Api-Key", "t")],
            None,
        );
        assert_eq!(ts, 200);
        server.shutdown();
        Json::parse(&trace)
            .unwrap()
            .get("otherData")
            .and_then(|o| o.get("traceDigest"))
            .and_then(Json::as_str)
            .unwrap()
            .to_string()
    };
    // Same spec on two fresh servers executes the same span structure,
    // so the timestamp-free digests agree.
    assert_eq!(digest_of(), digest_of());
}

#[test]
fn bench_diff_endpoint_judges_snapshots() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let base = r#"{"passes":[{"name":"a","wall_us":100.0},{"name":"b","wall_us":500.0}]}"#;

    // Identical snapshots: no regression.
    let body = format!(r#"{{"baseline":{base},"current":{base}}}"#);
    let (s, out) = http(addr, "POST", "/bench-diff", &[], Some(&body));
    assert_eq!(s, 200, "{out}");
    let j = Json::parse(&out).unwrap();
    assert_eq!(j.get("regressed").and_then(Json::as_bool), Some(false));
    assert_eq!(j.get("aligned").and_then(Json::as_u64), Some(2));

    // A 3x slowdown past threshold and noise floor regresses with a
    // PF0401 verdict.
    let cur = r#"{"passes":[{"name":"a","wall_us":300.0},{"name":"b","wall_us":500.0}]}"#;
    let body =
        format!(r#"{{"baseline":{base},"current":{cur},"threshold":0.5,"noise_floor_us":10}}"#);
    let (s, out) = http(addr, "POST", "/bench-diff", &[], Some(&body));
    assert_eq!(s, 200, "{out}");
    let j = Json::parse(&out).unwrap();
    assert_eq!(j.get("regressed").and_then(Json::as_bool), Some(true));
    assert!(out.contains("PF0401"), "{out}");

    // Snapshots may also arrive as JSON-encoded strings.
    let body = format!(
        r#"{{"baseline":{},"current":{}}}"#,
        obs::json::Json::Str(base.to_string()).render(),
        obs::json::Json::Str(base.to_string()).render()
    );
    let (s, out) = http(addr, "POST", "/bench-diff", &[], Some(&body));
    assert_eq!(s, 200, "{out}");
    assert_eq!(
        Json::parse(&out)
            .unwrap()
            .get("regressed")
            .and_then(Json::as_bool),
        Some(false)
    );

    // Malformed input is a 400, not a 500.
    let (s, out) = http(addr, "POST", "/bench-diff", &[], Some(r#"{"baseline":{}}"#));
    assert_eq!(s, 400, "{out}");
    server.shutdown();
}

#[test]
fn api_keys_and_tenant_isolation() {
    let server = Server::start(ServerConfig {
        api_keys: vec!["alpha".into(), "beta".into()],
        admin_key: Some("root".into()),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();

    let (s, _) = http(addr, "POST", "/jobs", &[], Some(&job_spec("cg")));
    assert_eq!(s, 401, "keyless submission must be rejected");
    let (s, _) = http(
        addr,
        "POST",
        "/jobs",
        &[("X-Api-Key", "nope")],
        Some(&job_spec("cg")),
    );
    assert_eq!(s, 401);

    let (s, j) = submit(addr, "alpha", &job_spec("cg"));
    assert_eq!(s, 202, "{}", j.render());
    let id = j.get("id").and_then(Json::as_u64).unwrap();
    wait_done(addr, "alpha", id, 60);
    // Another tenant cannot even observe the job's existence.
    let (s, _) = http(
        addr,
        "GET",
        &format!("/jobs/{id}"),
        &[("X-Api-Key", "beta")],
        None,
    );
    assert_eq!(s, 404);

    // Bad submissions are rejected with a reason.
    let (s, body) = http(
        addr,
        "POST",
        "/jobs",
        &[("X-Api-Key", "alpha")],
        Some(r#"{"workload":"no-such-workload"}"#),
    );
    assert_eq!(s, 400);
    assert!(body.contains("unknown workload"), "{body}");

    // Shutdown needs the admin key.
    let (s, _) = http(addr, "POST", "/shutdown", &[("X-Api-Key", "alpha")], None);
    assert_eq!(s, 403);
    let (s, _) = http(addr, "POST", "/shutdown", &[("X-Admin-Key", "root")], None);
    assert_eq!(s, 202);
    let stats = server.wait();
    assert_eq!(stats.completed, 1);
}
