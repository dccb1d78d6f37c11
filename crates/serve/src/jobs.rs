//! Job specifications, records and the registry.
//!
//! A job is one analysis request: a bundled workload, an analysis kind
//! (a built-in [`driver::Paradigm`] or the observed comm-analysis
//! session), and the run configuration. Specs parse from the `POST
//! /jobs` JSON body; records track a job from `queued` to a terminal
//! state and render back to JSON for `GET /jobs/:id`.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use driver::{AnalysisConfig, Paradigm, ResilienceConfig};
use perflow::ExecPolicy;

use obs::json::{obj, Json};

/// What kind of analysis a job runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobKind {
    /// One of the driver's built-in paradigms.
    Paradigm(Paradigm),
    /// The observed/resilient comm-analysis session. A repeat is
    /// answered by the report cache, keyed on the run's content digest
    /// and the resilience knobs.
    Comm,
    /// A perflow-query program, statically linted before admission
    /// (`POST /query`). The string is the query text.
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

/// Highest accepted priority (priorities are `0..=MAX_PRIORITY`).
pub const MAX_PRIORITY: u8 = 9;
/// Priority assigned when a submission does not name one.
pub const DEFAULT_PRIORITY: u8 = 4;

/// A validated analysis-job request.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Bundled workload name (validated against [`driver::workload`]).
    pub workload: String,
    /// Analysis to run.
    pub kind: JobKind,
    /// Run shape (ranks, threads, seed, reference-run ranks).
    pub cfg: AnalysisConfig,
    /// Scheduling priority, `0..=9`, FIFO within equal priorities.
    pub priority: u8,
    /// Resilient-scheduler knobs for `comm` jobs.
    pub resilience: ResilienceConfig,
    /// Debug/testing knob: hold the executor this long before running,
    /// to simulate a long job (bounded to 10 s).
    pub hold_ms: u64,
}

impl JobSpec {
    /// Parse and validate a `POST /jobs` body.
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        if !matches!(v, Json::Obj(_)) {
            return Err("job spec must be a JSON object".into());
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
        if cfg.ranks == 0 || cfg.ranks > 4096 {
            return Err("`ranks` must be in 1..=4096".into());
        }
        if cfg.threads > 256 {
            return Err("`threads` must be at most 256".into());
        }
        let priority = match v.get("priority") {
            None => DEFAULT_PRIORITY,
            Some(j) => j
                .as_u64()
                .filter(|&n| n <= MAX_PRIORITY as u64)
                .map(|n| n as u8)
                .ok_or_else(|| format!("`priority` must be an integer in 0..={MAX_PRIORITY}"))?,
        };
        let mut resilience = ResilienceConfig::default();
        if let Some(j) = v.get("fail_policy") {
            let s = j.as_str().ok_or("`fail_policy` must be a string")?;
            resilience.fail_policy = Some(
                ExecPolicy::parse(s)
                    .ok_or_else(|| format!("`fail_policy` must be failfast|isolate, got `{s}`"))?,
            );
        }
        if let Some(j) = v.get("retries") {
            resilience.retries = Some(
                j.as_u64()
                    .ok_or("`retries` must be a non-negative integer")? as u32,
            );
        }
        if let Some(j) = v.get("pass_timeout_ms") {
            resilience.pass_timeout_ms = Some(
                j.as_u64()
                    .ok_or("`pass_timeout_ms` must be a non-negative integer")?,
            );
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
            priority,
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
            ("priority", Json::Num(self.spec.priority as f64)),
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

/// Thread-safe registry of every job plus per-tenant active counts
/// (queued + running), which back quota enforcement.
#[derive(Default)]
pub struct JobRegistry {
    inner: Mutex<RegistryState>,
    /// Signaled on every terminal transition (used by drain/wait).
    settled: Condvar,
}

#[derive(Default)]
struct RegistryState {
    jobs: HashMap<u64, JobRecord>,
    next_id: u64,
    active_per_tenant: HashMap<String, usize>,
    active_total: usize,
}

impl JobRegistry {
    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryState> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Admit a job if the tenant is below `quota` active jobs. Returns
    /// the new record or the tenant's current active count. `now_us` is
    /// the admission timestamp queue wait is measured from.
    pub fn admit(
        &self,
        tenant: &str,
        spec: JobSpec,
        quota: usize,
        now_us: f64,
    ) -> Result<JobRecord, usize> {
        let mut st = self.lock();
        let active = st.active_per_tenant.get(tenant).copied().unwrap_or(0);
        if active >= quota {
            return Err(active);
        }
        st.next_id += 1;
        let record = JobRecord {
            id: st.next_id,
            tenant: tenant.to_string(),
            spec,
            status: JobStatus::Queued,
            result: None,
            error: None,
            admitted_us: now_us,
            dispatched_us: None,
            finished_us: None,
        };
        st.jobs.insert(record.id, record.clone());
        *st.active_per_tenant.entry(tenant.to_string()).or_insert(0) += 1;
        st.active_total += 1;
        Ok(record)
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

    /// Mark a job running, stamping the dispatch time.
    pub fn start(&self, id: u64, now_us: f64) {
        if let Some(j) = self.lock().jobs.get_mut(&id) {
            j.status = JobStatus::Running;
            j.dispatched_us = Some(now_us);
        }
    }

    /// Settle a job into a terminal state and release its quota slot.
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
            if j.dispatched_us.is_none() {
                j.dispatched_us = Some(now_us);
            }
            let tenant = j.tenant.clone();
            if let Some(n) = st.active_per_tenant.get_mut(&tenant) {
                *n = n.saturating_sub(1);
            }
            st.active_total = st.active_total.saturating_sub(1);
        }
        drop(st);
        self.settled.notify_all();
    }

    /// Remove a just-admitted job whose enqueue failed, releasing its
    /// quota slot as if it never existed.
    pub fn retract(&self, id: u64) {
        let mut st = self.lock();
        if let Some(j) = st.jobs.remove(&id) {
            if let Some(n) = st.active_per_tenant.get_mut(&j.tenant) {
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

    /// Block until no job is queued or running (used by graceful
    /// shutdown after the queue stops accepting work).
    pub fn wait_idle(&self) {
        let mut st = self.lock();
        while st.active_total > 0 {
            st = self.settled.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// Shareable registry handle.
pub type Registry = Arc<JobRegistry>;

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
                r#"{"workload":"cg","paradigm":"comm","ranks":8,"seed":7,"priority":9,
                    "fail_policy":"isolate","retries":2,"pass_timeout_ms":500,"hold_ms":10}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(ok.kind, JobKind::Comm);
        assert_eq!(ok.cfg.ranks, 8);
        assert_eq!(ok.cfg.seed, 7);
        assert_eq!(ok.priority, 9);
        assert_eq!(ok.resilience.retries, Some(2));
        assert!(ok.resilience.is_active());

        for bad in [
            r#"{}"#,
            r#"{"workload":"nope"}"#,
            r#"{"workload":"cg","paradigm":"nope"}"#,
            r#"{"workload":"cg","ranks":0}"#,
            r#"{"workload":"cg","ranks":99999}"#,
            r#"{"workload":"cg","priority":10}"#,
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

        let reg = JobRegistry::default();
        let rec = reg.admit("t1", ok, 1, 0.0).unwrap();
        let j = reg.get(rec.id).unwrap().to_json(false);
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
        let reg = JobRegistry::default();
        let a = reg.admit("t1", spec("cg"), 2, 10.0).unwrap();
        let _b = reg.admit("t1", spec("bt"), 2, 11.0).unwrap();
        assert_eq!(reg.admit("t1", spec("ep"), 2, 12.0).err(), Some(2));
        // Another tenant is unaffected.
        assert!(reg.admit("t2", spec("ep"), 2, 13.0).is_ok());
        assert_eq!(reg.active_total(), 3);
        reg.start(a.id, 25.0);
        assert_eq!(reg.get(a.id).unwrap().status, JobStatus::Running);
        reg.finish(
            a.id,
            Ok(JobResult {
                report: "r".into(),
                report_digest: 1,
                cached: false,
                run_metrics: None,
            }),
            40.0,
        );
        let done = reg.get(a.id).unwrap();
        assert_eq!(done.status, JobStatus::Done);
        // Queue wait is measured from HTTP admission, not dispatch.
        let m = done.to_json(false);
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
        let reg = JobRegistry::default();
        let a = reg.admit("t1", spec("cg"), 1, 0.0).unwrap();
        reg.finish(
            a.id,
            Ok(JobResult {
                report: "line1\nline2".into(),
                report_digest: 0xabcd,
                cached: true,
                run_metrics: Some(obj(vec![("total_wall_us", Json::Num(5.0))])),
            }),
            2.0,
        );
        let j = reg.get(a.id).unwrap().to_json(true);
        assert_eq!(j.get("status").and_then(Json::as_str), Some("done"));
        assert_eq!(j.get("trace").and_then(Json::as_f64), Some(a.id as f64));
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
}
