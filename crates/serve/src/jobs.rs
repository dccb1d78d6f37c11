//! Job specifications, records and the registry.
//!
//! A job is one analysis request: a bundled workload, an analysis kind
//! (a built-in [`driver::Paradigm`] or the observed comm-analysis
//! session), and the run configuration. Specs parse from the `POST
//! /jobs` JSON body; records track a job from `queued` to a terminal
//! state and render back to JSON for `GET /jobs/:id`.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};

use driver::{AnalysisConfig, Paradigm, ResilienceConfig};
use perflow::ExecPolicy;

use obs::json::{obj, Json};

/// What kind of analysis a job runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobKind {
    /// One of the driver's built-in paradigms.
    Paradigm(Paradigm),
    /// The observed comm-analysis session. A repeat is answered by the
    /// report cache, keyed on the run's content digest and the failure
    /// policy.
    Comm,
    /// A perflow-query program (a `query` field in the `POST /jobs`
    /// body), statically linted before admission. The string is the
    /// query text.
    Query(String),
}

impl JobKind {
    /// Wire name, matching [`Paradigm::name`] plus `comm` / `query`.
    pub fn name(&self) -> &'static str {
        match self {
            JobKind::Paradigm(p) => p.name(),
            JobKind::Comm => "comm",
            JobKind::Query(_) => "query",
        }
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> Option<JobKind> {
        if s == "comm" || s == "comm-analysis" {
            return Some(JobKind::Comm);
        }
        Paradigm::parse(s).map(JobKind::Paradigm)
    }
}

/// Every field a `POST /jobs` body may carry; any other is refused.
const FIELDS: &[&str] = &[
    "workload",
    "paradigm",
    "query",
    "ranks",
    "small_ranks",
    "threads",
    "seed",
    "fail_policy",
    "hold_ms",
];

/// A validated analysis-job request.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Bundled workload name (validated against [`driver::workload`]).
    pub workload: String,
    /// Analysis to run.
    pub kind: JobKind,
    /// Run shape (ranks, threads, seed, reference-run ranks).
    pub cfg: AnalysisConfig,
    /// Pass-failure policy for `comm` jobs.
    pub resilience: ResilienceConfig,
    /// Debug/testing knob: hold the executor this long before running,
    /// to simulate a long job (bounded to 10 s).
    pub hold_ms: u64,
}

impl JobSpec {
    /// Parse and validate a `POST /jobs` body; an unknown field is an error.
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        let Json::Obj(fields) = v else {
            return Err("job spec must be a JSON object".into());
        };
        if let Some((key, _)) = fields.iter().find(|(k, _)| !FIELDS.contains(&k.as_str())) {
            return Err(format!("unknown field `{key}`"));
        }
        let workload = v
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("missing required string field `workload`")?
            .to_string();
        if driver::workload(&workload).is_none() {
            return Err(format!("unknown workload `{workload}`"));
        }
        let kind = match (v.get("query"), v.get("paradigm")) {
            (Some(_), Some(_)) => {
                return Err("`query` and `paradigm` are mutually exclusive".into());
            }
            (Some(q), None) => {
                let text = q.as_str().ok_or("`query` must be a string")?;
                if text.trim().is_empty() {
                    return Err("`query` must not be empty".into());
                }
                JobKind::Query(text.to_string())
            }
            (None, None) => JobKind::Paradigm(Paradigm::Hotspot),
            (None, Some(p)) => {
                let name = p.as_str().ok_or("`paradigm` must be a string")?;
                JobKind::parse(name).ok_or_else(|| format!("unknown paradigm `{name}`"))?
            }
        };
        let u32_field = |name: &str, default: u32| -> Result<u32, String> {
            match v.get(name) {
                None => Ok(default),
                Some(j) => j
                    .as_u64()
                    .filter(|&n| n <= u32::MAX as u64)
                    .map(|n| n as u32)
                    .ok_or_else(|| format!("`{name}` must be a non-negative integer")),
            }
        };
        let defaults = AnalysisConfig::default();
        let cfg = AnalysisConfig {
            ranks: u32_field("ranks", defaults.ranks)?,
            small_ranks: u32_field("small_ranks", defaults.small_ranks)?,
            threads: u32_field("threads", defaults.threads)?,
            seed: match v.get("seed") {
                None => defaults.seed,
                Some(j) => j.as_u64().ok_or("`seed` must be a non-negative integer")?,
            },
        };
        cfg.check_bounds().map_err(|e| e.0)?;
        let mut resilience = ResilienceConfig::default();
        if let Some(j) = v.get("fail_policy") {
            let s = j.as_str().ok_or("`fail_policy` must be a string")?;
            let bad = || format!("`fail_policy` must be failfast|isolate, got `{s}`");
            resilience.fail_policy = Some(ExecPolicy::parse(s).ok_or_else(bad)?);
        }
        let hold_ms = match v.get("hold_ms") {
            None => 0,
            Some(j) => j
                .as_u64()
                .filter(|&n| n <= 10_000)
                .ok_or("`hold_ms` must be an integer at most 10000")?,
        };
        Ok(JobSpec {
            workload,
            kind,
            cfg,
            resilience,
            hold_ms,
        })
    }

    /// Fingerprint of the simulation this spec requests (see
    /// [`driver::sim_fingerprint`]).
    pub fn sim_fingerprint(&self) -> u64 {
        driver::sim_fingerprint(&self.workload, &self.cfg)
    }
}

/// Lifecycle of a job record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted, waiting for an executor.
    Queued,
    /// An executor is running it.
    Running,
    /// Finished with a report.
    Done,
    /// Finished with an error.
    Failed,
}

impl JobStatus {
    /// Wire name.
    pub fn name(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
        }
    }
}

/// A finished job's payload.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The rendered report.
    pub report: String,
    /// FNV digest of `report` (stable across identical submissions).
    pub report_digest: u64,
    /// True when the report came from the fingerprint-keyed cache
    /// without re-running the analysis.
    pub cached: bool,
    /// [`perflow::RunMetrics::to_json`] for jobs that executed the
    /// observed scheduler (`comm` jobs that actually ran). `None` for
    /// paradigm/query jobs and report-cache hits.
    pub run_metrics: Option<Json>,
}

/// One tracked job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Server-assigned id (monotonic).
    pub id: u64,
    /// Owning tenant (API-key identity).
    pub tenant: String,
    /// The validated request.
    pub spec: JobSpec,
    /// Current lifecycle state.
    pub status: JobStatus,
    /// Present when `status == Done`.
    pub result: Option<JobResult>,
    /// Present when `status == Failed`.
    pub error: Option<String>,
    /// Monotonic timestamp (`Obs::now_us`) when the HTTP layer admitted
    /// the job — queue wait is measured from here, not from dispatch.
    pub admitted_us: f64,
    /// When an executor picked the job up.
    pub dispatched_us: Option<f64>,
    /// When the job settled into a terminal state.
    pub finished_us: Option<f64>,
}

impl JobRecord {
    /// The `GET /jobs/:id` JSON body. `with_report` controls whether the
    /// (possibly large) report text is included.
    pub fn to_json(&self, with_report: bool) -> Json {
        let mut fields = vec![
            ("id", Json::Num(self.id as f64)),
            ("status", Json::Str(self.status.name().into())),
            ("workload", Json::Str(self.spec.workload.clone())),
            ("paradigm", Json::Str(self.spec.kind.name().into())),
            ("ranks", Json::Num(self.spec.cfg.ranks as f64)),
            ("threads", Json::Num(self.spec.cfg.threads as f64)),
            ("seed", Json::Num(self.spec.cfg.seed as f64)),
            ("tenant", Json::Str(self.tenant.clone())),
            ("trace", Json::Num(self.id as f64)),
        ];
        if let JobKind::Query(text) = &self.spec.kind {
            fields.push(("query", Json::Str(text.clone())));
        }
        if let Some(r) = &self.result {
            fields.push(("cached", Json::Bool(r.cached)));
            fields.push((
                "report_digest",
                Json::Str(format!("{:016x}", r.report_digest)),
            ));
            if with_report {
                fields.push(("report", Json::Str(r.report.clone())));
            }
        }
        if let Some(e) = &self.error {
            fields.push(("error", Json::Str(e.clone())));
        }
        if let Some(m) = self.metrics_json() {
            fields.push(("metrics", m));
        }
        obj(fields)
    }

    /// Per-job latency block for terminal jobs: queue wait measured
    /// from HTTP admission, executor time, end-to-end time, and the
    /// scheduler's `RunMetrics` when the job produced one.
    fn metrics_json(&self) -> Option<Json> {
        let dispatched = self.dispatched_us?;
        let finished = self.finished_us?;
        let run = self
            .result
            .as_ref()
            .and_then(|r| r.run_metrics.clone())
            .unwrap_or(Json::Null);
        Some(obj(vec![
            (
                "queue_wait_us",
                Json::Num((dispatched - self.admitted_us).max(0.0)),
            ),
            ("exec_us", Json::Num((finished - dispatched).max(0.0))),
            (
                "total_us",
                Json::Num((finished - self.admitted_us).max(0.0)),
            ),
            ("run", run),
        ]))
    }
}

/// Why [`JobRegistry::admit`] refused a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// [`JobRegistry::close`] was called: the server is draining.
    Draining,
    /// The tenant already holds this many active (queued + running)
    /// jobs, its quota.
    Quota(usize),
    /// The queue already holds `capacity` undispatched jobs.
    Full,
}

/// The daemon's one job table: every record, the FIFO of queued ids,
/// per-tenant active counts (queued + running, which back quota
/// enforcement) and the closed flag, all behind one lock. Admission,
/// dispatch and settling are each one critical section, so no job is
/// ever half admitted.
pub struct JobRegistry {
    inner: Mutex<RegistryState>,
    /// Maximum undispatched (queued) jobs across all tenants.
    capacity: usize,
    /// Signaled when a job is queued or the table closes (wakes executors).
    ready: Condvar,
    /// Signaled on every terminal transition and on close (wakes the
    /// drain waiter).
    settled: Condvar,
}

#[derive(Default)]
struct RegistryState {
    jobs: HashMap<u64, JobRecord>,
    next_id: u64,
    /// Ids of queued jobs, oldest first.
    queue: VecDeque<u64>,
    active_per_tenant: HashMap<String, usize>,
    active_total: usize,
    /// Set by [`JobRegistry::close`]: admission refuses, dispatch drains.
    closed: bool,
}

impl JobRegistry {
    /// An empty, open table queueing at most `capacity` jobs.
    pub fn new(capacity: usize) -> JobRegistry {
        JobRegistry {
            inner: Mutex::default(),
            capacity,
            ready: Condvar::new(),
            settled: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryState> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Admit a job at the back of the queue, unless the table is closed,
    /// the tenant already holds `quota` active jobs or the queue is full.
    /// Returns the new job's id and the queue depth after the push.
    /// `now_us` is the admission timestamp queue wait is measured from.
    pub fn admit(
        &self,
        tenant: &str,
        spec: JobSpec,
        quota: usize,
        now_us: f64,
    ) -> Result<(u64, usize), Refusal> {
        let mut st = self.lock();
        if st.closed {
            return Err(Refusal::Draining);
        }
        let active = st.active_per_tenant.get(tenant).copied().unwrap_or(0);
        if active >= quota {
            return Err(Refusal::Quota(active));
        }
        if st.queue.len() >= self.capacity {
            return Err(Refusal::Full);
        }
        st.next_id += 1;
        let id = st.next_id;
        let record = JobRecord {
            id,
            tenant: tenant.to_string(),
            spec,
            status: JobStatus::Queued,
            result: None,
            error: None,
            admitted_us: now_us,
            dispatched_us: None,
            finished_us: None,
        };
        st.jobs.insert(id, record);
        st.queue.push_back(id);
        *st.active_per_tenant.entry(tenant.to_string()).or_insert(0) += 1;
        st.active_total += 1;
        let depth = st.queue.len();
        drop(st);
        self.ready.notify_one();
        Ok((id, depth))
    }

    /// Hand an executor the oldest queued job, already marked running
    /// with its dispatch time taken from `now_us`. Blocks while the table
    /// is open and nothing is queued; returns `None` only once it is
    /// closed *and* drained.
    pub fn dispatch(&self, now_us: impl FnOnce() -> f64) -> Option<JobRecord> {
        let mut st = self.lock();
        loop {
            if let Some(id) = st.queue.pop_front() {
                let job = st.jobs.get_mut(&id).expect("a queued id has a record");
                job.status = JobStatus::Running;
                job.dispatched_us = Some(now_us());
                return Some(job.clone());
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Snapshot one job.
    pub fn get(&self, id: u64) -> Option<JobRecord> {
        self.lock().jobs.get(&id).cloned()
    }

    /// Snapshot a tenant's jobs, id-ascending.
    pub fn for_tenant(&self, tenant: &str) -> Vec<JobRecord> {
        let st = self.lock();
        let mut jobs: Vec<JobRecord> = st
            .jobs
            .values()
            .filter(|j| j.tenant == tenant)
            .cloned()
            .collect();
        jobs.sort_by_key(|j| j.id);
        jobs
    }

    /// Settle a dispatched job into a terminal state and release its
    /// quota slot.
    pub fn finish(&self, id: u64, outcome: Result<JobResult, String>, now_us: f64) {
        let mut st = self.lock();
        if let Some(j) = st.jobs.get_mut(&id) {
            match outcome {
                Ok(r) => {
                    j.status = JobStatus::Done;
                    j.result = Some(r);
                }
                Err(e) => {
                    j.status = JobStatus::Failed;
                    j.error = Some(e);
                }
            }
            j.finished_us = Some(now_us);
            let tenant = j.tenant.clone();
            if let Some(n) = st.active_per_tenant.get_mut(&tenant) {
                *n = n.saturating_sub(1);
            }
            st.active_total = st.active_total.saturating_sub(1);
        }
        drop(st);
        self.settled.notify_all();
    }

    /// Jobs not yet in a terminal state (queued + running), across all
    /// tenants.
    pub fn active_total(&self) -> usize {
        self.lock().active_total
    }

    /// Undispatched jobs.
    pub fn queued(&self) -> usize {
        self.lock().queue.len()
    }

    /// Stop admitting and wake every blocked executor and drain waiter.
    /// Queued jobs still come out of [`JobRegistry::dispatch`], oldest
    /// first.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
        self.settled.notify_all();
    }

    /// True once [`JobRegistry::close`] was called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Block until the table is closed and no job is queued or running
    /// (graceful shutdown).
    pub fn wait_drained(&self) {
        let mut st = self.lock();
        while !st.closed || st.active_total > 0 {
            st = self.settled.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(workload: &str) -> JobSpec {
        JobSpec::from_json(&Json::parse(&format!("{{\"workload\":\"{workload}\"}}")).unwrap())
            .unwrap()
    }

    #[test]
    fn spec_parsing_validates() {
        let ok = JobSpec::from_json(
            &Json::parse(
                r#"{"workload":"cg","paradigm":"comm","ranks":8,"small_ranks":2,"seed":7,
                    "fail_policy":"isolate","hold_ms":10}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(ok.kind, JobKind::Comm);
        assert_eq!(ok.cfg.ranks, 8);
        assert_eq!(ok.cfg.small_ranks, 2);
        assert_eq!(ok.cfg.seed, 7);
        assert_eq!(ok.resilience.fail_policy, Some(ExecPolicy::Isolate));
        assert!(ok.resilience.is_active());

        for bad in [
            r#"{}"#,
            r#"{"workload":"nope"}"#,
            r#"{"workload":"cg","paradigm":"nope"}"#,
            r#"{"workload":"cg","ranks":0}"#,
            r#"{"workload":"cg","ranks":99999}"#,
            r#"{"workload":"cg","small_ranks":0}"#,
            r#"{"workload":"cg","small_ranks":4097}"#,
            r#"{"workload":"cg","threads":0}"#,
            r#"{"workload":"cg","threads":257}"#,
            r#"{"workload":"cg","hold_ms":999999}"#,
            r#"{"workload":"cg","fail_policy":"explode"}"#,
            r#"{"workload":"cg","seed":-1}"#,
            r#"{"workload":"cg","query":"from vertices","paradigm":"hotspot"}"#,
            r#"{"workload":"cg","query":42}"#,
            r#"{"workload":"cg","query":"   "}"#,
        ] {
            assert!(
                JobSpec::from_json(&Json::parse(bad).unwrap()).is_err(),
                "accepted bad spec {bad}"
            );
        }
        // Fields the daemon does not know are refused by name, not
        // silently ignored.
        for key in ["retries", "pass_timeout_ms", "priority", "rnaks"] {
            let body = format!(r#"{{"workload":"cg","paradigm":"comm","{key}":1}}"#);
            let err = JobSpec::from_json(&Json::parse(&body).unwrap()).unwrap_err();
            assert!(err.contains(&format!("`{key}`")), "{key}: {err}");
        }
    }

    #[test]
    fn query_spec_parses_and_round_trips() {
        let ok = JobSpec::from_json(
            &Json::parse(r#"{"workload":"cg","query":"from vertices | sum time"}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(
            ok.kind,
            JobKind::Query("from vertices | sum time".to_string())
        );
        assert_eq!(ok.kind.name(), "query");

        let reg = JobRegistry::new(1);
        let (id, _) = reg.admit("t1", ok, 1, 0.0).unwrap();
        let j = reg.get(id).unwrap().to_json(false);
        assert_eq!(j.get("paradigm").and_then(Json::as_str), Some("query"));
        assert_eq!(
            j.get("query").and_then(Json::as_str),
            Some("from vertices | sum time")
        );
    }

    #[test]
    fn sim_fingerprint_tracks_shape() {
        let a = spec("cg");
        let b = spec("bt");
        assert_ne!(a.sim_fingerprint(), b.sim_fingerprint());
        assert_eq!(a.sim_fingerprint(), spec("cg").sim_fingerprint());
    }

    #[test]
    fn quotas_and_lifecycle() {
        let reg = JobRegistry::new(16);
        let (a, _) = reg.admit("t1", spec("cg"), 2, 10.0).unwrap();
        reg.admit("t1", spec("bt"), 2, 11.0).unwrap();
        assert_eq!(reg.admit("t1", spec("ep"), 2, 12.0), Err(Refusal::Quota(2)));
        // Another tenant is unaffected.
        assert!(reg.admit("t2", spec("ep"), 2, 13.0).is_ok());
        assert_eq!(reg.active_total(), 3);
        let running = reg.dispatch(|| 25.0).unwrap();
        assert_eq!((running.id, running.status), (a, JobStatus::Running));
        assert_eq!(reg.get(a).unwrap().dispatched_us, Some(25.0));
        reg.finish(
            a,
            Ok(JobResult {
                report: "r".into(),
                report_digest: 1,
                cached: false,
                run_metrics: None,
            }),
            40.0,
        );
        let finished = reg.get(a).unwrap();
        assert_eq!(finished.status, JobStatus::Done);
        // Queue wait is measured from HTTP admission, not dispatch.
        let m = finished.to_json(false);
        let metrics = m.get("metrics").expect("terminal job carries metrics");
        assert_eq!(
            metrics.get("queue_wait_us").and_then(Json::as_f64),
            Some(15.0)
        );
        assert_eq!(metrics.get("exec_us").and_then(Json::as_f64), Some(15.0));
        assert_eq!(metrics.get("total_us").and_then(Json::as_f64), Some(30.0));
        assert_eq!(metrics.get("run"), Some(&Json::Null));
        // The slot frees up.
        assert!(reg.admit("t1", spec("ep"), 2, 50.0).is_ok());
        assert_eq!(reg.for_tenant("t1").len(), 3);
    }

    #[test]
    fn record_json_shape() {
        let reg = JobRegistry::new(1);
        let (a, _) = reg.admit("t1", spec("cg"), 1, 0.0).unwrap();
        reg.dispatch(|| 1.0).unwrap();
        reg.finish(
            a,
            Ok(JobResult {
                report: "line1\nline2".into(),
                report_digest: 0xabcd,
                cached: true,
                run_metrics: Some(obj(vec![("total_wall_us", Json::Num(5.0))])),
            }),
            2.0,
        );
        let j = reg.get(a).unwrap().to_json(true);
        assert_eq!(j.get("status").and_then(Json::as_str), Some("done"));
        assert_eq!(j.get("trace").and_then(Json::as_f64), Some(a as f64));
        assert_eq!(
            j.get("metrics")
                .and_then(|m| m.get("run"))
                .and_then(|r| r.get("total_wall_us"))
                .and_then(Json::as_f64),
            Some(5.0)
        );
        assert_eq!(j.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(
            j.get("report_digest").and_then(Json::as_str),
            Some("000000000000abcd")
        );
        assert_eq!(j.get("report").and_then(Json::as_str), Some("line1\nline2"));
        // Render/parse round trip survives the embedded newline.
        let rendered = j.render();
        assert_eq!(Json::parse(&rendered).unwrap(), j);
    }

    #[test]
    fn jobs_dispatch_in_fifo_order() {
        let reg = JobRegistry::new(16);
        let ids: Vec<u64> = ["cg", "bt", "ep", "ft"]
            .iter()
            .enumerate()
            .map(|(i, w)| {
                reg.admit(&format!("t{}", i % 2), spec(w), 4, 0.0)
                    .unwrap()
                    .0
            })
            .collect();
        let order: Vec<u64> = (0..ids.len())
            .map(|_| reg.dispatch(|| 1.0).unwrap().id)
            .collect();
        assert_eq!(order, ids);
        assert_eq!(reg.queued(), 0);
        assert!(reg
            .for_tenant("t0")
            .iter()
            .all(|j| j.status == JobStatus::Running));
    }

    #[test]
    fn a_full_queue_refuses_without_using_an_id() {
        let reg = JobRegistry::new(2);
        assert_eq!(reg.admit("t", spec("cg"), 8, 0.0), Ok((1, 1)));
        assert_eq!(reg.admit("t", spec("bt"), 8, 0.0), Ok((2, 2)));
        assert_eq!(reg.admit("t", spec("ep"), 8, 0.0), Err(Refusal::Full));
        assert_eq!(reg.for_tenant("t").len(), 2);
        assert_eq!(reg.active_total(), 2);
        // Capacity bounds queued jobs only: a dispatched job frees a slot.
        reg.dispatch(|| 1.0).unwrap();
        assert_eq!(reg.admit("t", spec("ep"), 8, 0.0), Ok((3, 2)));
    }

    #[test]
    fn close_refuses_admission_and_drains_the_queue() {
        let reg = JobRegistry::new(8);
        let (a, _) = reg.admit("t", spec("cg"), 8, 0.0).unwrap();
        let (b, _) = reg.admit("t", spec("bt"), 8, 0.0).unwrap();
        reg.close();
        assert!(reg.is_closed());
        assert_eq!(reg.admit("t", spec("ep"), 8, 0.0), Err(Refusal::Draining));
        assert_eq!(reg.dispatch(|| 1.0).map(|j| j.id), Some(a));
        assert_eq!(reg.dispatch(|| 1.0).map(|j| j.id), Some(b));
        assert!(reg.dispatch(|| 1.0).is_none());
        assert_eq!(reg.for_tenant("t").len(), 2);
    }

    #[test]
    fn a_blocked_dispatch_wakes_on_admit_and_on_close() {
        let reg = &JobRegistry::new(8);
        let (to_main, from_executor) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let executor = s.spawn(move || {
                let mut got = Vec::new();
                loop {
                    to_main.send(()).unwrap();
                    match reg.dispatch(|| 1.0) {
                        Some(j) => got.push(j.id),
                        None => return got,
                    }
                }
            });
            // Each step waits until the executor is about to block.
            from_executor.recv().unwrap();
            let (id, _) = reg.admit("t", spec("cg"), 8, 0.0).unwrap();
            from_executor.recv().unwrap();
            reg.close();
            assert_eq!(executor.join().unwrap(), vec![id]);
        });
    }

    #[test]
    fn concurrent_admission_respects_capacity_and_quota() {
        const CAPACITY: usize = 5;
        const QUOTA: usize = 3;
        let reg = JobRegistry::new(CAPACITY);
        let start = std::sync::Barrier::new(8);
        let outcomes: Vec<Result<(u64, usize), Refusal>> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..8)
                .map(|t| {
                    let (reg, start) = (&reg, &start);
                    s.spawn(move || {
                        let tenant = if t % 2 == 0 { "a" } else { "b" };
                        start.wait();
                        (0..2)
                            .map(|_| reg.admit(tenant, spec("cg"), QUOTA, 0.0))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            threads
                .into_iter()
                .flat_map(|t| t.join().unwrap())
                .collect()
        });
        let mut ids: Vec<u64> = outcomes
            .iter()
            .filter_map(|o| o.ok())
            .map(|o| o.0)
            .collect();
        ids.sort_unstable();
        // Quota allows six across the two tenants, so capacity binds.
        assert_eq!(ids, (1..=CAPACITY as u64).collect::<Vec<_>>());
        assert!(outcomes
            .iter()
            .all(|o| matches!(o, Ok(_) | Err(Refusal::Full) | Err(Refusal::Quota(QUOTA)))));
        for tenant in ["a", "b"] {
            assert!(reg.for_tenant(tenant).len() <= QUOTA, "{tenant}");
        }
        // No refused admission left a record behind.
        let records = reg.for_tenant("a").len() + reg.for_tenant("b").len();
        assert_eq!(records, CAPACITY);
        assert_eq!((reg.queued(), reg.active_total()), (CAPACITY, CAPACITY));
    }
}
