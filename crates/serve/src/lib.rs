//! # `perflow-serve` — a multi-tenant analysis daemon
//!
//! PerFlow's serving half: a zero-external-dependency HTTP/1.1 server
//! (std `TcpListener` + threads, matching the workspace's no-deps
//! style) that accepts analysis jobs and executes them through the
//! [`driver`] crate over a bounded, priority-ordered job queue.
//!
//! ## Endpoints
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /jobs` | Submit a job (JSON body: `workload`, `paradigm`, `ranks`, `small_ranks`, `threads`, `seed`, `priority`, `fail_policy`, `hold_ms`; any other field is a 400 that names it). 202 + job id. |
//! | `POST /query` | Submit a perflow-query job (body adds a required `query` string). The query is statically linted (PF03xx) **before** admission: lint errors are a 400 with the diagnostics as JSON and nothing is enqueued or executed. 202 + job id otherwise. |
//! | `GET /jobs/:id` | Job status; includes the report, its digest, `cached` and a per-job `metrics` latency block once done. |
//! | `GET /jobs/:id/trace` | The job's end-to-end trace as Chrome-trace JSON: every span stamped with the job's trace id (= job id), from HTTP admission through queue wait to per-pass scheduler spans. |
//! | `GET /jobs` | The calling tenant's jobs (no report bodies). |
//! | `POST /bench-diff` | Regression watchdog: diff two bench/`RunMetrics` snapshots (body: `baseline`, `current`, optional `threshold`, `noise_floor_us`) into PF04xx verdicts. |
//! | `GET /metrics` | Prometheus text exposition of the whole engine + daemon. |
//! | `GET /healthz` | Liveness. |
//! | `POST /shutdown` | Graceful shutdown: stop accepting, drain queued and running jobs, exit. |
//!
//! ## Tracing
//!
//! Every admitted job gets a deterministic trace id equal to its job
//! id. The HTTP layer records a `job.admit` span, the executor records
//! `job.queue_wait` (admission → dispatch), `job.exec` and a whole-`job`
//! span, and the core scheduler's per-pass spans inherit the id through
//! a trace-scoped [`Obs`] handle, so `GET /jobs/:id/trace` returns one
//! connected tree across the serve, core, simrt and collect layers.
//!
//! ## Multi-tenancy and scheduling
//!
//! The `X-Api-Key` header names the tenant (`anonymous` when absent;
//! submissions are rejected 401 when the server was started with an
//! explicit key list). Each tenant may hold at most `tenant_quota`
//! *active* (queued + running) jobs — the 429 path. Admitted jobs land
//! on a bounded queue ordered by `(priority desc, arrival asc)`:
//! strict FIFO within a priority level.
//!
//! ## Caching
//!
//! Two content-fingerprint-keyed LRU layers:
//! * a **run cache** ([`driver::sim_fingerprint`] → [`RunHandle`]) so an
//!   identical simulation is never re-run, and
//! * a **report cache** ([`driver::report_fingerprint`] /
//!   [`RunBundle::content_digest`](perflow::RunBundle) → rendered text +
//!   digest) so an identical submission is answered without re-running
//!   the analysis (`"cached": true` in the job JSON).
//!
//! There is no pass-level layer: a pass result is a pure function of its
//! pass and inputs, so a repeated job is answered whole by the report
//! cache, and a run the run cache evicts is freed.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use driver::fnv_str;
use obs::names;
use perflow::{Obs, PerFlow, RunHandle};
use simrt::RunConfig;

pub mod cache;
pub mod http;
pub mod jobs;
pub mod queue;

use cache::LruMap;
use http::{respond, Request};
use jobs::{JobKind, JobRecord, JobRegistry, JobResult, JobSpec, Registry};
use obs::json::{obj, Json};
use queue::{JobQueue, PushError};

/// Everything tunable about the daemon.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Executor threads pulling jobs off the queue.
    pub workers: usize,
    /// Maximum undispatched jobs across all tenants.
    pub queue_capacity: usize,
    /// Maximum active (queued + running) jobs per tenant.
    pub tenant_quota: usize,
    /// Entry cap of the simulated-run cache (LRU).
    pub run_cache_capacity: usize,
    /// Entry cap of the rendered-report cache (LRU).
    pub report_cache_capacity: usize,
    /// Accepted API keys; empty accepts any caller (key or anonymous).
    pub api_keys: Vec<String>,
    /// When set, `POST /shutdown` requires this value in `X-Admin-Key`.
    pub admin_key: Option<String>,
    /// Span cap of the daemon's obs handle (bounds trace memory).
    pub span_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_capacity: 64,
            tenant_quota: 8,
            run_cache_capacity: 16,
            report_cache_capacity: 256,
            api_keys: Vec::new(),
            admin_key: None,
            span_cap: 65_536,
        }
    }
}

/// Counters reported by [`Server::shutdown`] after the drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainStats {
    /// Jobs that finished with a report over the server's lifetime.
    pub completed: u64,
    /// Jobs that finished with an error.
    pub failed: u64,
    /// Of the completed jobs, how many were answered from the report
    /// cache.
    pub report_cache_hits: u64,
}

struct Shared {
    cfg: ServerConfig,
    obs: Obs,
    pflow: PerFlow,
    registry: Registry,
    queue: JobQueue<u64>,
    run_cache: LruMap<RunHandle>,
    report_cache: LruMap<Arc<(String, u64)>>,
    /// Set once shutdown begins: submissions are rejected 503.
    draining: AtomicBool,
    /// Signaled by `POST /shutdown` / [`Server::request_shutdown`].
    shutdown: (Mutex<bool>, Condvar),
}

impl Shared {
    fn tick_queue_gauge(&self) {
        self.obs
            .set_gauge(names::SERVE_QUEUE_DEPTH, self.queue.len() as f64);
    }
}

/// A running daemon. Dropping without [`Server::shutdown`] leaves
/// detached threads running; call `shutdown` (or serve `POST
/// /shutdown` + [`Server::wait`]) for a clean exit.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the acceptor and the executor pool, and return.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let obs = Obs::enabled_with_cap(cfg.span_cap);
        let shared = Arc::new(Shared {
            obs,
            pflow: PerFlow::new(),
            registry: Arc::new(JobRegistry::default()),
            queue: JobQueue::new(cfg.queue_capacity),
            run_cache: LruMap::new(cfg.run_cache_capacity),
            report_cache: LruMap::new(cfg.report_cache_capacity),
            draining: AtomicBool::new(false),
            shutdown: (Mutex::new(false), Condvar::new()),
            cfg,
        });

        let workers = (0..shared.cfg.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || executor_loop(&shared))
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, listener))
        };
        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's telemetry handle (what `/metrics` exports).
    pub fn obs(&self) -> &Obs {
        &self.shared.obs
    }

    /// Ask the server to shut down, as `POST /shutdown` does. Returns
    /// immediately; pair with [`Server::wait`].
    pub fn request_shutdown(&self) {
        *self
            .shared
            .shutdown
            .0
            .lock()
            .unwrap_or_else(|p| p.into_inner()) = true;
        self.shared.shutdown.1.notify_all();
    }

    /// Block until shutdown is requested, then drain: stop accepting
    /// submissions, let queued and running jobs finish, join every
    /// thread, and report lifetime counters.
    pub fn wait(mut self) -> DrainStats {
        {
            let (lock, cv) = &self.shared.shutdown;
            let mut requested = lock.lock().unwrap_or_else(|p| p.into_inner());
            while !*requested {
                requested = cv.wait(requested).unwrap_or_else(|p| p.into_inner());
            }
        }
        let shared = &self.shared;
        shared.draining.store(true, Ordering::SeqCst);
        // Drain: queued jobs still dispatch; pop returns None once the
        // closed queue is empty, so executors exit after their last job.
        shared.queue.close();
        shared.registry.wait_idle();
        // Unblock the acceptor (it re-checks `draining` per connection).
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        DrainStats {
            completed: shared.obs.counter(names::SERVE_JOBS_COMPLETED),
            failed: shared.obs.counter(names::SERVE_JOBS_FAILED),
            report_cache_hits: shared.obs.counter(names::SERVE_REPORT_CACHE_HIT),
        }
    }

    /// [`Server::request_shutdown`] + [`Server::wait`].
    pub fn shutdown(self) -> DrainStats {
        self.request_shutdown();
        self.wait()
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            // The drain's wake-up connection (or a late client): stop
            // accepting. In-flight handler threads finish on their own.
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        std::thread::spawn(move || handle_connection(&shared, stream));
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    shared.obs.count(names::SERVE_HTTP_REQUESTS, 1);
    match Request::read_from(&mut reader) {
        Ok(req) => {
            let (status, content_type, body) = route(shared, &req);
            let _ = respond(&mut writer, status, content_type, &body);
        }
        Err(e) => {
            let body = obj(vec![("error", Json::Str(e.message().to_string()))]).render();
            let _ = respond(&mut writer, e.status(), "application/json", &body);
        }
    }
    let _ = writer.flush();
}

/// JSON error body helper.
fn err_body(msg: impl Into<String>) -> String {
    obj(vec![("error", Json::Str(msg.into()))]).render()
}

/// The caller's tenant identity, or an auth failure response.
fn authenticate(shared: &Shared, req: &Request) -> Result<String, (u16, String)> {
    let key = req.header("x-api-key");
    if shared.cfg.api_keys.is_empty() {
        return Ok(key.unwrap_or("anonymous").to_string());
    }
    match key {
        Some(k) if shared.cfg.api_keys.iter().any(|a| a == k) => Ok(k.to_string()),
        Some(_) => Err((401, err_body("unknown API key"))),
        None => Err((401, err_body("missing X-Api-Key header"))),
    }
}

type Response = (u16, &'static str, String);

fn route(shared: &Arc<Shared>, req: &Request) -> Response {
    let path = req.path.trim_end_matches('/');
    let path = if path.is_empty() { "/" } else { path };
    match (req.method.as_str(), path) {
        ("GET", "/") => (
            200,
            "application/json",
            obj(vec![
                ("name", Json::Str("perflow-serve".into())),
                (
                    "endpoints",
                    Json::Arr(
                        [
                            "POST /jobs",
                            "POST /query",
                            "POST /bench-diff",
                            "GET /jobs",
                            "GET /jobs/:id",
                            "GET /jobs/:id/trace",
                            "GET /metrics",
                            "GET /healthz",
                            "POST /shutdown",
                        ]
                        .iter()
                        .map(|s| Json::Str(s.to_string()))
                        .collect(),
                    ),
                ),
                ("workers", Json::Num(shared.cfg.workers as f64)),
                (
                    "queue_capacity",
                    Json::Num(shared.cfg.queue_capacity as f64),
                ),
                ("tenant_quota", Json::Num(shared.cfg.tenant_quota as f64)),
            ])
            .render(),
        ),
        ("GET", "/healthz") => (
            200,
            "application/json",
            obj(vec![("status", Json::Str("ok".into()))]).render(),
        ),
        ("GET", "/metrics") => {
            shared.tick_queue_gauge();
            (200, "text/plain; version=0.0.4", shared.obs.prometheus())
        }
        ("POST", "/jobs") => submit(shared, req, false),
        ("POST", "/query") => submit(shared, req, true),
        ("POST", "/bench-diff") => bench_diff_endpoint(shared, req),
        ("GET", "/jobs") => match authenticate(shared, req) {
            Err((status, body)) => (status, "application/json", body),
            Ok(tenant) => {
                let jobs: Vec<Json> = shared
                    .registry
                    .for_tenant(&tenant)
                    .iter()
                    .map(|j| j.to_json(false))
                    .collect();
                (
                    200,
                    "application/json",
                    obj(vec![("jobs", Json::Arr(jobs))]).render(),
                )
            }
        },
        ("GET", p) if p.starts_with("/jobs/") && p.ends_with("/trace") => {
            let id_text = &p["/jobs/".len()..p.len() - "/trace".len()];
            job_trace(shared, req, id_text)
        }
        ("GET", p) if p.starts_with("/jobs/") => job_status(shared, req, &p["/jobs/".len()..]),
        ("POST", "/shutdown") => {
            if let Some(admin) = &shared.cfg.admin_key {
                if req.header("x-admin-key") != Some(admin.as_str()) {
                    return (403, "application/json", err_body("X-Admin-Key required"));
                }
            }
            let active = shared.registry.active_total();
            // Signal the waiter; the drain itself happens in
            // `Server::wait`, off this connection thread.
            *shared.shutdown.0.lock().unwrap_or_else(|p| p.into_inner()) = true;
            shared.shutdown.1.notify_all();
            (
                202,
                "application/json",
                obj(vec![
                    ("status", Json::Str("draining".into())),
                    ("active_jobs", Json::Num(active as f64)),
                ])
                .render(),
            )
        }
        (_, "/jobs")
        | (_, "/query")
        | (_, "/bench-diff")
        | (_, "/metrics")
        | (_, "/healthz")
        | (_, "/shutdown")
        | (_, "/") => (405, "application/json", err_body("method not allowed")),
        _ => (404, "application/json", err_body("not found")),
    }
}

fn submit(shared: &Arc<Shared>, req: &Request, require_query: bool) -> Response {
    let tenant = match authenticate(shared, req) {
        Ok(t) => t,
        Err((status, body)) => return (status, "application/json", body),
    };
    if shared.draining.load(Ordering::SeqCst) {
        shared.obs.count(names::SERVE_REJECT_FULL, 1);
        return (503, "application/json", err_body("server is draining"));
    }
    let body = match req.body_str() {
        Ok(b) => b,
        Err(e) => return (400, "application/json", err_body(e.message())),
    };
    let parsed = match Json::parse(body) {
        Ok(v) => v,
        Err(e) => return (400, "application/json", err_body(format!("bad JSON: {e}"))),
    };
    let spec = match JobSpec::from_json(&parsed) {
        Ok(s) => s,
        Err(e) => return (400, "application/json", err_body(e)),
    };
    if require_query && !matches!(spec.kind, JobKind::Query(_)) {
        return (
            400,
            "application/json",
            err_body("missing required string field `query`"),
        );
    }
    // Static gate: a query job never reaches the queue with lint
    // errors, so executors only ever see verified query programs.
    if let JobKind::Query(text) = &spec.kind {
        let d = driver::check_query(text);
        if d.has_errors() {
            return (
                400,
                "application/json",
                obj(vec![
                    ("error", Json::Str("invalid query".into())),
                    ("summary", Json::Str(d.summary())),
                    ("diagnostics", d.to_json()),
                ])
                .render(),
            );
        }
    }
    let admitted_us = shared.obs.now_us();
    let record = match shared
        .registry
        .admit(&tenant, spec, shared.cfg.tenant_quota, admitted_us)
    {
        Ok(r) => r,
        Err(active) => {
            shared.obs.count(names::SERVE_REJECT_QUOTA, 1);
            return (
                429,
                "application/json",
                obj(vec![
                    ("error", Json::Str("tenant quota exceeded".into())),
                    ("active", Json::Num(active as f64)),
                    ("quota", Json::Num(shared.cfg.tenant_quota as f64)),
                ])
                .render(),
            );
        }
    };
    match shared.queue.push(record.spec.priority, record.id) {
        Ok(depth) => {
            // The job's trace starts here: a Serve-layer span stamped
            // with the deterministic trace id (= job id).
            shared.obs.with_trace(record.id).record_span(
                obs::Layer::Serve,
                "job.admit",
                record.id as u32,
                admitted_us,
                shared.obs.now_us(),
                &[("priority", record.spec.priority as f64)],
            );
            shared.obs.count(names::SERVE_JOBS_SUBMITTED, 1);
            shared.obs.set_gauge(names::SERVE_QUEUE_DEPTH, depth as f64);
            (
                202,
                "application/json",
                obj(vec![
                    ("id", Json::Num(record.id as f64)),
                    ("status", Json::Str("queued".into())),
                    ("tenant", Json::Str(tenant)),
                    ("queue_depth", Json::Num(depth as f64)),
                ])
                .render(),
            )
        }
        Err(e) => {
            shared.registry.retract(record.id);
            shared.obs.count(names::SERVE_REJECT_FULL, 1);
            let msg = match e {
                PushError::Full => "job queue is full",
                PushError::Closed => "server is draining",
            };
            (503, "application/json", err_body(msg))
        }
    }
}

fn job_status(shared: &Arc<Shared>, req: &Request, id_text: &str) -> Response {
    let tenant = match authenticate(shared, req) {
        Ok(t) => t,
        Err((status, body)) => return (status, "application/json", body),
    };
    if req.method != "GET" {
        return (405, "application/json", err_body("method not allowed"));
    }
    let Ok(id) = id_text.parse::<u64>() else {
        return (
            400,
            "application/json",
            err_body("job id must be an integer"),
        );
    };
    match shared.registry.get(id) {
        None => (404, "application/json", err_body("no such job")),
        Some(j) if j.tenant != tenant => {
            // Existence of other tenants' jobs is not disclosed.
            (404, "application/json", err_body("no such job"))
        }
        Some(j) => (200, "application/json", j.to_json(true).render()),
    }
}

/// `GET /jobs/:id/trace` — the job's spans as Chrome-trace JSON.
/// Tenant visibility mirrors [`job_status`]: other tenants' jobs 404.
fn job_trace(shared: &Arc<Shared>, req: &Request, id_text: &str) -> Response {
    let tenant = match authenticate(shared, req) {
        Ok(t) => t,
        Err((status, body)) => return (status, "application/json", body),
    };
    let Ok(id) = id_text.parse::<u64>() else {
        return (
            400,
            "application/json",
            err_body("job id must be an integer"),
        );
    };
    match shared.registry.get(id) {
        None => (404, "application/json", err_body("no such job")),
        Some(j) if j.tenant != tenant => (404, "application/json", err_body("no such job")),
        Some(_) => (200, "application/json", shared.obs.chrome_trace_for(id)),
    }
}

/// `POST /bench-diff` — the regression watchdog over two snapshots.
///
/// Body: `{"baseline": ..., "current": ..., "threshold"?: f,
/// "noise_floor_us"?: f}` where each snapshot is either an embedded
/// bench/`RunMetrics` JSON object or a string holding one.
fn bench_diff_endpoint(shared: &Arc<Shared>, req: &Request) -> Response {
    if let Err((status, body)) = authenticate(shared, req) {
        return (status, "application/json", body);
    }
    let body = match req.body_str() {
        Ok(b) => b,
        Err(e) => return (400, "application/json", err_body(e.message())),
    };
    let parsed = match Json::parse(body) {
        Ok(v) => v,
        Err(e) => return (400, "application/json", err_body(format!("bad JSON: {e}"))),
    };
    let snapshot = |field: &str| -> Result<driver::bench_diff::BenchSnapshot, String> {
        let v = parsed
            .get(field)
            .ok_or_else(|| format!("missing required field `{field}`"))?;
        match v {
            Json::Str(text) => driver::bench_diff::BenchSnapshot::parse(text)
                .map_err(|e| format!("`{field}`: {e}")),
            other => driver::bench_diff::BenchSnapshot::from_json(other)
                .map_err(|e| format!("`{field}`: {e}")),
        }
    };
    let mut cfg = driver::bench_diff::BenchDiffConfig::default();
    if let Some(t) = parsed.get("threshold") {
        match t.as_f64() {
            Some(v) if v >= 0.0 => cfg.threshold = v,
            _ => {
                return (
                    400,
                    "application/json",
                    err_body("`threshold` must be a non-negative number"),
                )
            }
        }
    }
    if let Some(n) = parsed.get("noise_floor_us") {
        match n.as_f64() {
            Some(v) if v >= 0.0 => cfg.noise_floor_us = v,
            _ => {
                return (
                    400,
                    "application/json",
                    err_body("`noise_floor_us` must be a non-negative number"),
                )
            }
        }
    }
    let outcome = match (snapshot("baseline"), snapshot("current")) {
        (Ok(b), Ok(c)) => match driver::bench_diff::bench_diff(&b, &c, &cfg) {
            Ok(o) => o,
            Err(e) => return (400, "application/json", err_body(e.to_string())),
        },
        (Err(e), _) | (_, Err(e)) => return (400, "application/json", err_body(e)),
    };
    shared.obs.count(names::SERVE_BENCH_DIFF, 1);
    (200, "application/json", outcome.to_json().render())
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

fn executor_loop(shared: &Arc<Shared>) {
    while let Some(id) = shared.queue.pop() {
        shared.tick_queue_gauge();
        let Some(record) = shared.registry.get(id) else {
            continue;
        };
        // Everything this job does — including the core scheduler's
        // per-pass spans — records through a trace-scoped handle, so
        // `/jobs/:id/trace` can filter one connected tree back out.
        let jobobs = shared.obs.with_trace(id);
        let lane = id as u32;
        let dispatched_us = jobobs.now_us();
        shared.registry.start(id, dispatched_us);
        jobobs.record_span(
            obs::Layer::Serve,
            "job.queue_wait",
            lane,
            record.admitted_us.min(dispatched_us),
            dispatched_us,
            &[("priority", record.spec.priority as f64)],
        );
        if record.spec.hold_ms > 0 {
            std::thread::sleep(Duration::from_millis(record.spec.hold_ms));
        }
        let outcome = execute(shared, &record, &jobobs);
        let finished_us = jobobs.now_us();
        match &outcome {
            Ok(_) => shared.obs.count(names::SERVE_JOBS_COMPLETED, 1),
            Err(_) => shared.obs.count(names::SERVE_JOBS_FAILED, 1),
        }
        jobobs.record_span(
            obs::Layer::Serve,
            "job.exec",
            lane,
            dispatched_us,
            finished_us,
            &[],
        );
        jobobs.record_span(
            obs::Layer::Serve,
            "job",
            lane,
            record.admitted_us.min(dispatched_us),
            finished_us,
            &[("priority", record.spec.priority as f64)],
        );
        let queue_wait = (dispatched_us - record.admitted_us).max(0.0);
        let exec = (finished_us - dispatched_us).max(0.0);
        let total = (finished_us - record.admitted_us).max(0.0);
        shared
            .obs
            .observe(names::SERVE_JOB_QUEUE_WAIT_US, queue_wait);
        shared.obs.observe(names::SERVE_JOB_EXEC_US, exec);
        shared.obs.observe(names::SERVE_JOB_TOTAL_US, total);
        for (suffix, value) in [
            ("queue_wait_us", queue_wait),
            ("exec_us", exec),
            ("total_us", total),
        ] {
            shared
                .obs
                .observe(format!("serve.tenant.{}.{suffix}", record.tenant), value);
        }
        shared.registry.finish(id, outcome, finished_us);
    }
}

/// Run one job through the two cache layers (run → report).
/// `obs` is the job's trace-scoped handle: spans recorded below it
/// (simulator, collector, scheduler passes) carry the job's trace id.
fn execute(shared: &Arc<Shared>, record: &JobRecord, obs: &Obs) -> Result<JobResult, String> {
    let spec = &record.spec;
    let prog = driver::workload(&spec.workload)
        .ok_or_else(|| format!("unknown workload {}", spec.workload))?;

    let sim_fp = spec.sim_fingerprint();
    let run = match shared.run_cache.get(sim_fp) {
        Some(run) => {
            obs.count(names::SERVE_RUN_CACHE_HIT, 1);
            run
        }
        None => {
            obs.count(names::SERVE_RUN_CACHE_MISS, 1);
            let run_cfg = RunConfig::new(spec.cfg.ranks)
                .with_threads(spec.cfg.threads)
                .with_seed(spec.cfg.seed)
                .with_obs(obs.clone());
            let run = shared
                .pflow
                .run(&prog, &run_cfg)
                .map_err(|e| format!("run failed: {e}"))?;
            let evicted = shared.run_cache.insert(sim_fp, run.clone());
            if evicted > 0 {
                obs.count(names::SERVE_RUN_CACHE_EVICT, evicted as u64);
            }
            run
        }
    };

    let report_fp = match &spec.kind {
        JobKind::Paradigm(p) => driver::report_fingerprint(*p, &spec.cfg, &run),
        // The comm session's report depends on the run plus the
        // failure policy that can degrade it.
        JobKind::Comm => fnv_str(&format!(
            "comm:{:016x}:{:?}",
            run.content_digest(),
            spec.resilience.fail_policy,
        )),
        JobKind::Query(text) => driver::query_fingerprint(&run, text),
    };
    if let Some(hit) = shared.report_cache.get(report_fp) {
        obs.count(names::SERVE_REPORT_CACHE_HIT, 1);
        return Ok(JobResult {
            report: hit.0.clone(),
            report_digest: hit.1,
            cached: true,
            run_metrics: None,
        });
    }
    obs.count(names::SERVE_REPORT_CACHE_MISS, 1);

    let mut run_metrics = None;
    let (report, report_digest) = match &spec.kind {
        JobKind::Paradigm(p) => {
            let rendered = driver::analyze(&shared.pflow, &prog, &run, *p, &spec.cfg)
                .map_err(|e| e.to_string())?
                .render();
            let digest = fnv_str(&rendered);
            (rendered, digest)
        }
        JobKind::Query(text) => {
            // Submission already linted the query; a rejection here
            // means the text was tampered with between admit and run.
            let out = driver::run_query(&run, text).map_err(|e| e.to_string())?;
            if !out.executed() {
                return Err(format!(
                    "query rejected by static analysis ({})",
                    out.diagnostics.summary()
                ));
            }
            let rendered = out.render_text();
            let digest = fnv_str(&rendered);
            (rendered, digest)
        }
        JobKind::Comm => {
            let out = driver::comm_analysis_session(&run, obs, &spec.resilience, 0)
                .map_err(|e| e.to_string())?;
            run_metrics = Some(out.outputs.metrics.to_json());
            (out.report, out.report_digest)
        }
    };
    let evicted = shared
        .report_cache
        .insert(report_fp, Arc::new((report.clone(), report_digest)));
    if evicted > 0 {
        obs.count(names::SERVE_REPORT_CACHE_EVICT, evicted as u64);
    }
    Ok(JobResult {
        report,
        report_digest,
        cached: false,
        run_metrics,
    })
}

// Re-export the pieces front-ends and tests need.
pub use jobs::{JobKind as ServeJobKind, JobStatus as ServeJobStatus};

#[cfg(test)]
mod tests {
    use super::*;

    /// Admit `body` as a job of `server` and run it through the cache
    /// layers on this thread.
    fn run_job(server: &Server, body: &str) -> JobSpec {
        let spec = JobSpec::from_json(&Json::parse(body).unwrap()).unwrap();
        let shared = &server.shared;
        let record = shared.registry.admit("t", spec, 1, 0.0).unwrap();
        let outcome = execute(shared, &record, &Obs::disabled());
        assert!(outcome.is_ok(), "{outcome:?}");
        shared.registry.finish(record.id, outcome, 0.0);
        record.spec
    }

    #[test]
    fn a_run_evicted_from_the_run_cache_is_freed() {
        let server = Server::start(ServerConfig {
            workers: 1,
            run_cache_capacity: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        let comm = run_job(
            &server,
            r#"{"workload":"cg","paradigm":"comm","ranks":2,"threads":2,"seed":5}"#,
        );
        let run = server.shared.run_cache.get(comm.sim_fingerprint()).unwrap();
        let weak = Arc::downgrade(&run);
        drop(run);
        run_job(
            &server,
            r#"{"workload":"cg","paradigm":"hotspot","ranks":2,"threads":2,"seed":6}"#,
        );
        assert!(
            weak.upgrade().is_none(),
            "nothing may keep a run alive once the run cache evicted it"
        );
        server.shutdown();
    }
}
