//! The daemon tenant's side: an in-process `serve::Server`, closed-loop
//! HTTP clients (each waits for its reply before sending the next job),
//! and the seeded job mix they submit.

use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use driver::Paradigm;
use obs::json::Json;
use serve::{Server, ServerConfig};

use crate::workload::{direct_report, splitmix64, Oracles, Spec, SMALL_RANKS};

/// Closed-loop client threads; equals the cores of the sizing box.
pub const CLIENTS: usize = 2;
/// Sleep between two status polls of an unfinished job.
const POLL_SLEEP: Duration = Duration::from_millis(1);
/// A hit repeats one of this many latest cold jobs of the same client.
/// Two clients times this window stays well inside the daemon's 16-entry
/// run cache, so a planned hit is never turned into a miss by eviction.
const HIT_WINDOW: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Unique seed: misses the run, report and pass caches.
    Cold,
    /// Exact repeat of a recent cold job: answered by the report cache.
    ReportHit,
    /// A recent cold job's run under another paradigm: the run cache
    /// spares the simulation, the analysis still executes.
    RunHit,
}

#[derive(Debug, Clone, Copy)]
pub struct JobPlan {
    pub kind: JobKind,
    pub paradigm: Paradigm,
    pub seed: u64,
}

/// One client's deterministic job sequence: 60 % cold, 20 % report hits,
/// 20 % run hits, drawn from the benchmark seed. It opens with one job of
/// each kind, so that even the shortest run samples all three.
pub struct JobMix {
    rng: u64,
    issued: usize,
    next_seed: u64,
    cold_paradigm: Paradigm,
    /// Latest cold seeds, and whether their run hit was already used (a
    /// second one would be a report hit, not a run hit).
    recent: VecDeque<(u64, bool)>,
}

impl JobMix {
    pub fn new(spec: &Spec, bench_seed: u64, client: usize) -> JobMix {
        let mut rng = bench_seed ^ driver::fnv_str(spec.name) ^ ((client as u64 + 1) << 56);
        // Disjoint seed ranges per client, below 2^53 (seeds travel as
        // JSON numbers).
        let base = (splitmix64(&mut rng) >> 13) + ((client as u64) << 32);
        JobMix {
            rng,
            issued: 0,
            next_seed: base,
            cold_paradigm: spec.paradigms[0],
            recent: VecDeque::new(),
        }
    }

    fn other_paradigm(&self) -> Paradigm {
        match self.cold_paradigm {
            Paradigm::MpiProfiler => Paradigm::Hotspot,
            _ => Paradigm::MpiProfiler,
        }
    }

    pub fn next_job(&mut self) -> JobPlan {
        let draw = match self.issued {
            0 => 0,
            1 => 6,
            2 => 8,
            _ => splitmix64(&mut self.rng) % 10,
        };
        self.issued += 1;
        let pick = (splitmix64(&mut self.rng) % HIT_WINDOW as u64) as usize;
        if draw >= 8 && !self.recent.is_empty() {
            // Prefer the drawn slot; fall forward to one not yet used.
            let n = self.recent.len();
            if let Some(i) = (0..n).map(|k| (pick + k) % n).find(|&i| !self.recent[i].1) {
                self.recent[i].1 = true;
                return JobPlan {
                    kind: JobKind::RunHit,
                    paradigm: self.other_paradigm(),
                    seed: self.recent[i].0,
                };
            }
        } else if draw >= 6 && !self.recent.is_empty() {
            return JobPlan {
                kind: JobKind::ReportHit,
                paradigm: self.cold_paradigm,
                seed: self.recent[pick % self.recent.len()].0,
            };
        }
        let seed = self.next_seed;
        self.next_seed += 1;
        self.recent.push_back((seed, false));
        if self.recent.len() > HIT_WINDOW {
            self.recent.pop_front();
        }
        JobPlan {
            kind: JobKind::Cold,
            paradigm: self.cold_paradigm,
            seed,
        }
    }
}

/// One HTTP exchange on a fresh connection, as the protocol requires.
pub fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(io)?;
    let mut request = format!("{method} {path} HTTP/1.1\r\nHost: benchmark\r\n");
    match body {
        Some(b) => request.push_str(&format!("Content-Length: {}\r\n\r\n{b}", b.len())),
        None => request.push_str("\r\n"),
    }
    stream.write_all(request.as_bytes()).map_err(io)?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(io)?;
    let status = raw
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("{method} {path}: no status line"))?;
    let body = raw.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    Ok((status, body.to_string()))
}

/// Round-trip time (ms) of one liveness probe.
fn healthz_rtt_ms(addr: SocketAddr) -> Result<f64, String> {
    let asked = Instant::now();
    match http(addr, "GET", "/healthz", None)? {
        (200, _) => Ok(asked.elapsed().as_secs_f64() * 1e3),
        (status, body) => Err(format!("healthz answered {status}: {body}")),
    }
}

/// What one served job looked like from the client.
#[derive(Debug)]
pub struct JobSample {
    pub client: usize,
    pub plan: JobPlan,
    /// Submit sent → `done` seen.
    pub op_ms: f64,
    pub submit_ms: f64,
    pub status_ms: Vec<f64>,
    /// The status JSON's `metrics` block (server clock).
    pub queue_wait_us: f64,
    pub exec_us: f64,
    pub total_us: f64,
    pub report: String,
    /// Why the job counts as failed, if it does.
    pub error: Option<String>,
    /// `(name, start, end)` of the client-side spans, when recorded.
    pub spans: Vec<(&'static str, Instant, Instant)>,
}

fn job_body(spec: &Spec, plan: &JobPlan) -> String {
    format!(
        "{{\"workload\":\"{}\",\"paradigm\":\"{}\",\"ranks\":{},\"threads\":{},\
         \"small_ranks\":{SMALL_RANKS},\"seed\":{}}}",
        spec.program,
        plan.paradigm.name(),
        spec.ranks,
        spec.threads,
        plan.seed
    )
}

/// Submit one job and poll it to completion. Any non-2xx answer, a
/// `failed` job or a wrong `cached` flag is recorded in `error`.
fn run_job(
    addr: SocketAddr,
    spec: &Spec,
    client: usize,
    plan: JobPlan,
    record_spans: bool,
) -> JobSample {
    let mut sample = JobSample {
        client,
        plan,
        op_ms: 0.0,
        submit_ms: 0.0,
        status_ms: Vec::new(),
        queue_wait_us: 0.0,
        exec_us: 0.0,
        total_us: 0.0,
        report: String::new(),
        error: None,
        spans: Vec::new(),
    };
    let begin = Instant::now();
    let outcome = (|| -> Result<(), String> {
        let (status, body) = http(addr, "POST", "/jobs", Some(&job_body(spec, &plan)))?;
        let submitted = Instant::now();
        sample.submit_ms = (submitted - begin).as_secs_f64() * 1e3;
        if record_spans {
            sample.spans.push(("serve.submit", begin, submitted));
        }
        if status != 202 {
            return Err(format!("submit answered {status}: {body}"));
        }
        let id = Json::parse(&body)?
            .get("id")
            .and_then(Json::as_u64)
            .ok_or("submit reply has no id")?;
        let path = format!("/jobs/{id}");
        loop {
            let asked = Instant::now();
            let (status, body) = http(addr, "GET", &path, None)?;
            let answered = Instant::now();
            sample
                .status_ms
                .push((answered - asked).as_secs_f64() * 1e3);
            if record_spans {
                sample.spans.push(("serve.status", asked, answered));
            }
            if status != 200 {
                return Err(format!("status answered {status}: {body}"));
            }
            let job = Json::parse(&body)?;
            match job.get("status").and_then(Json::as_str) {
                Some("done") => {
                    sample.op_ms = (answered - begin).as_secs_f64() * 1e3;
                    let latency = |key| {
                        job.get("metrics")
                            .and_then(|m| m.get(key))
                            .and_then(Json::as_f64)
                            .ok_or(format!("done job has no metrics.{key}"))
                    };
                    sample.queue_wait_us = latency("queue_wait_us")?;
                    sample.exec_us = latency("exec_us")?;
                    sample.total_us = latency("total_us")?;
                    sample.report = job
                        .get("report")
                        .and_then(Json::as_str)
                        .ok_or("done job has no report")?
                        .to_string();
                    let cached = job.get("cached").and_then(Json::as_bool);
                    if cached != Some(plan.kind == JobKind::ReportHit) {
                        return Err(format!("{:?} job came back cached={cached:?}", plan.kind));
                    }
                    return Ok(());
                }
                Some("failed") => return Err(format!("job failed: {body}")),
                _ => {
                    std::thread::sleep(POLL_SLEEP);
                    if record_spans {
                        sample
                            .spans
                            .push(("client.poll_sleep", answered, Instant::now()));
                    }
                }
            }
        }
    })();
    if sample.op_ms == 0.0 {
        sample.op_ms = begin.elapsed().as_secs_f64() * 1e3;
    }
    sample.error = outcome.err();
    sample
}

/// How long the clients keep submitting.
#[derive(Clone, Copy)]
pub enum Budget {
    /// Each client runs exactly this many jobs (counts repeat exactly).
    JobsPerClient(usize),
    /// Each client starts no job after this instant.
    Until(Instant),
}

/// A running daemon plus the clients' position in their job sequences.
pub struct Session<'a> {
    spec: &'a Spec,
    server: Server,
    addr: SocketAddr,
    mixes: Vec<JobMix>,
    /// Reports of the cold jobs verified so far, by seed.
    cold_reports: BTreeMap<u64, String>,
    pub start_ms: f64,
}

impl<'a> Session<'a> {
    /// Start the daemon: one executor, every other setting at its default.
    pub fn start(spec: &'a Spec, bench_seed: u64) -> Result<Session<'a>, String> {
        let begin = Instant::now();
        let server = Server::start(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        })
        .map_err(|e| format!("daemon start: {e}"))?;
        let addr = server.local_addr();
        healthz_rtt_ms(addr)?;
        Ok(Session {
            spec,
            server,
            addr,
            mixes: (0..CLIENTS)
                .map(|c| JobMix::new(spec, bench_seed, c))
                .collect(),
            cold_reports: BTreeMap::new(),
            start_ms: begin.elapsed().as_secs_f64() * 1e3,
        })
    }

    /// Run the client threads to the end of `budget`; samples come back
    /// grouped by client, each client's in submission order.
    pub fn run(&mut self, budget: Budget, record_spans: bool) -> Vec<JobSample> {
        let (addr, spec) = (self.addr, self.spec);
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .mixes
                .iter_mut()
                .enumerate()
                .map(|(client, mix)| {
                    scope.spawn(move || {
                        let mut samples = Vec::new();
                        loop {
                            let more = match budget {
                                Budget::JobsPerClient(n) => samples.len() < n,
                                Budget::Until(deadline) => Instant::now() < deadline,
                            };
                            if !more {
                                return samples;
                            }
                            samples.push(run_job(addr, spec, client, mix.next_job(), record_spans));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    }

    /// Check the reports of one `run`: each contains its paradigm's
    /// planted strings, a report hit equals the cold job it repeats, and
    /// the first cold job of each client equals what the direct driver
    /// path renders for the same spec. Marks offenders failed in place.
    pub fn verify(&mut self, oracles: &Oracles, samples: &mut [JobSample]) {
        let mut compared_direct = [false; CLIENTS];
        for sample in samples.iter_mut().filter(|s| s.error.is_none()) {
            let plan = sample.plan;
            let checked = (|| -> Result<(), String> {
                let oracle = format!("served.{}.{}", self.spec.program, plan.paradigm.name());
                oracles.check(&oracle, &sample.report)?;
                match plan.kind {
                    JobKind::Cold => {
                        if !std::mem::replace(&mut compared_direct[sample.client], true) {
                            let direct = direct_report(self.spec, plan.paradigm, plan.seed)?;
                            if direct != sample.report {
                                return Err("served report differs from the direct driver's".into());
                            }
                        }
                        self.cold_reports.insert(plan.seed, sample.report.clone());
                    }
                    JobKind::ReportHit => {
                        if self.cold_reports.get(&plan.seed) != Some(&sample.report) {
                            return Err("report hit differs from the cold job it repeats".into());
                        }
                    }
                    JobKind::RunHit => {}
                }
                Ok(())
            })();
            sample.error = checked.err();
        }
    }

    /// Round-trip times (ms) of `n` liveness probes.
    pub fn healthz_rtts_ms(&self, n: usize) -> Result<Vec<f64>, String> {
        (0..n).map(|_| healthz_rtt_ms(self.addr)).collect()
    }

    /// The daemon's counters as a tenant sees them: `GET /metrics`,
    /// un-labelled samples only.
    pub fn scrape(&self) -> Result<BTreeMap<String, f64>, String> {
        let (status, text) = http(self.addr, "GET", "/metrics", None)?;
        if status != 200 {
            return Err(format!("/metrics answered {status}"));
        }
        Ok(text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.contains('{'))
            .filter_map(|l| {
                let (name, value) = l.split_once(' ')?;
                Some((name.to_string(), value.trim().parse().ok()?))
            })
            .collect())
    }

    /// Drain and stop the daemon; returns the drain time (ms) and how
    /// many jobs the daemon itself counted as failed.
    pub fn shutdown(self) -> (f64, u64) {
        let begin = Instant::now();
        let stats = self.server.shutdown();
        (begin.elapsed().as_secs_f64() * 1e3, stats.failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::spec;

    #[test]
    fn mix_is_deterministic_and_hits_only_follow_cold_jobs() {
        let spec = spec("serve_mix").unwrap();
        let plan = |seed| {
            let mut mix = JobMix::new(spec, seed, 0);
            (0..200).map(|_| mix.next_job()).collect::<Vec<_>>()
        };
        let (a, b) = (plan(7), plan(7));
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.kind == y.kind && x.seed == y.seed));
        let mut cold = Vec::new();
        let mut run_hits = Vec::new();
        for job in &a {
            match job.kind {
                JobKind::Cold => {
                    assert!(!cold.contains(&job.seed));
                    cold.push(job.seed);
                }
                JobKind::ReportHit => {
                    assert!(cold[cold.len().saturating_sub(HIT_WINDOW)..].contains(&job.seed))
                }
                JobKind::RunHit => {
                    assert!(
                        !run_hits.contains(&job.seed),
                        "second run hit is a report hit"
                    );
                    run_hits.push(job.seed);
                }
            }
        }
        let share = cold.len() as f64 / a.len() as f64;
        assert!((0.5..0.75).contains(&share), "cold share {share}");
        assert_ne!(plan(8)[0].seed, a[0].seed);
    }
}
