//! # Observability for PerFlow's own pipeline
//!
//! PerFlow analyzes *other* programs' performance; this crate lets it
//! observe itself. It is a small telemetry subsystem behind an explicit
//! [`Obs`] handle — no globals, no thread-locals — carrying four
//! instrument kinds and three exporters:
//!
//! * wall-clock **spans** (RAII guards or explicit intervals),
//! * monotonic **counters**,
//! * log-bucketed **histograms** ([`Histogram`], deterministic merge),
//! * last-write-wins **gauges**,
//!
//! exported as a Chrome trace ([`Obs::chrome_trace`], for
//! `chrome://tracing` / [Perfetto](https://ui.perfetto.dev)), Prometheus
//! text exposition ([`Obs::prometheus`]), or folded stacks
//! ([`Obs::folded_stacks`], flamegraph.pl/inferno-compatible). A recorded
//! trace can also be lifted into a Program Abstraction Graph by
//! `collect::self_pag`, so PerFlow's own passes analyze PerFlow.
//!
//! Design constraints (all load-bearing for the rest of the workspace):
//!
//! * **No-op when disabled.** A default-constructed handle is disabled:
//!   every instrumentation call short-circuits without reading the clock
//!   or allocating, so digest-asserted deterministic code paths behave
//!   byte-identically whether or not they are instrumented.
//! * **Allocation-light when enabled.** Static span names are borrowed
//!   (`Cow::Borrowed`); dynamic names go through [`Obs::span_with`],
//!   whose closure only runs when the handle is enabled.
//! * **Bounded.** Recorded spans are capped ([`Obs::enabled_with_cap`]);
//!   spans beyond the cap are counted, not stored. Histograms and
//!   gauges are fixed-size per name.
//! * **Deterministic output ordering.** Every exporter sorts: spans by
//!   (start, layer, lane, name), counters/histograms/gauges
//!   alphabetically — equal telemetry always serializes identically.

mod chrome_trace;
mod fnv;
mod folded;
pub mod json;
pub mod metrics;
mod prometheus;

pub use fnv::Fnv;
pub use folded::{render_folded, sanitize_frame, walk_span_nesting, NestedSpan, FOLDED_ROOT};
pub use metrics::{bucket_bound, Histogram, HIST_BUCKETS};

/// Well-known instrument names recorded by the pass scheduler and the
/// `perflow-serve` daemon.
/// Counters render in the Prometheus exposition as
/// `perflow_<sanitized>_total` (e.g. `perflow_core_pass_panic_total`),
/// histograms as `perflow_<sanitized>_bucket`/`_sum`/`_count`.
pub mod names {
    /// Counter: pass executions that panicked (caught and converted to a
    /// structured error by the scheduler).
    pub const PASS_PANIC: &str = "core.pass.panic";

    // `perflow-serve` daemon instruments (exposed via `/metrics`).

    /// Counter: HTTP requests handled (any route, any status).
    pub const SERVE_HTTP_REQUESTS: &str = "serve.http.requests";
    /// Counter: jobs accepted onto the queue.
    pub const SERVE_JOBS_SUBMITTED: &str = "serve.jobs.submitted";
    /// Counter: jobs that finished with a report.
    pub const SERVE_JOBS_COMPLETED: &str = "serve.jobs.completed";
    /// Counter: jobs that finished with an error.
    pub const SERVE_JOBS_FAILED: &str = "serve.jobs.failed";
    /// Counter: submissions rejected by a per-tenant quota (HTTP 429).
    pub const SERVE_REJECT_QUOTA: &str = "serve.jobs.rejected_quota";
    /// Counter: submissions rejected because the queue was full or the
    /// server was draining (HTTP 503).
    pub const SERVE_REJECT_FULL: &str = "serve.jobs.rejected_full";
    /// Counter: jobs answered from the fingerprint-keyed report cache.
    pub const SERVE_REPORT_CACHE_HIT: &str = "serve.report_cache.hit";
    /// Counter: jobs that had to compute their report.
    pub const SERVE_REPORT_CACHE_MISS: &str = "serve.report_cache.miss";
    /// Counter: simulations reused from the run cache.
    pub const SERVE_RUN_CACHE_HIT: &str = "serve.run_cache.hit";
    /// Counter: simulations that had to execute.
    pub const SERVE_RUN_CACHE_MISS: &str = "serve.run_cache.miss";
    /// Gauge: jobs currently queued (not yet running).
    pub const SERVE_QUEUE_DEPTH: &str = "serve.queue.depth";
    /// Counter: run-cache entries dropped by LRU eviction.
    pub const SERVE_RUN_CACHE_EVICT: &str = "serve.run_cache.evictions";
    /// Counter: report-cache entries dropped by LRU eviction.
    pub const SERVE_REPORT_CACHE_EVICT: &str = "serve.report_cache.evictions";
    /// Histogram: per-job queue wait (HTTP admission → executor
    /// dispatch), µs. Per-tenant variants are emitted as
    /// `serve.tenant.<tenant>.queue_wait_us`.
    pub const SERVE_JOB_QUEUE_WAIT_US: &str = "serve.job.queue_wait_us";
    /// Histogram: per-job execution time (dispatch → settled), µs.
    pub const SERVE_JOB_EXEC_US: &str = "serve.job.exec_us";
    /// Histogram: per-job end-to-end latency (admission → settled), µs.
    pub const SERVE_JOB_TOTAL_US: &str = "serve.job.total_us";
    /// Counter: `POST /bench-diff` comparisons served.
    pub const SERVE_BENCH_DIFF: &str = "serve.bench_diff.requests";
}

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default cap on stored spans (~26 MB worst case of span records).
pub const DEFAULT_SPAN_CAP: usize = 262_144;

/// Which pipeline layer a span belongs to. Layers map to Chrome-trace
/// *processes* so the timeline groups the simulator, the collection
/// pipeline and the pass scheduler into separate swim-lane blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// The discrete-event simulator (phases, rank segments).
    Simrt,
    /// Static analysis + embedding (PAG construction).
    Collect,
    /// The PerFlowGraph pass scheduler and cache.
    Core,
    /// Application-level spans (CLI, benches, user code).
    App,
    /// The `perflow-serve` daemon (job admission, queueing, dispatch).
    Serve,
}

impl Layer {
    /// Human-readable layer name (the trace's process name).
    pub fn name(self) -> &'static str {
        match self {
            Layer::Simrt => "simrt",
            Layer::Collect => "collect",
            Layer::Core => "core",
            Layer::App => "app",
            Layer::Serve => "serve",
        }
    }

    /// Chrome-trace process id.
    pub(crate) fn pid(self) -> u32 {
        match self {
            Layer::Simrt => 1,
            Layer::Collect => 2,
            Layer::Core => 3,
            Layer::App => 4,
            Layer::Serve => 5,
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Pipeline layer (trace process).
    pub layer: Layer,
    /// Span name.
    pub name: Cow<'static, str>,
    /// Lane within the layer (trace thread id) — rank index, worker
    /// index, or 0 for scheduler-level spans.
    pub lane: u32,
    /// Start, µs since the handle's epoch.
    pub start_us: f64,
    /// Duration in µs.
    pub dur_us: f64,
    /// Trace id stamped by the recording handle (0 = untraced). Serve
    /// jobs record through [`Obs::with_trace`] so every span of one job
    /// — HTTP admission through the core scheduler's passes — carries
    /// the same id and can be exported as one request-scoped trace.
    pub trace: u64,
    /// Numeric annotations.
    pub args: Vec<(&'static str, f64)>,
}

#[derive(Default)]
struct State {
    spans: Vec<SpanRec>,
    dropped: u64,
    counters: BTreeMap<Cow<'static, str>, u64>,
    histograms: BTreeMap<Cow<'static, str>, Histogram>,
    gauges: BTreeMap<Cow<'static, str>, f64>,
}

struct Inner {
    epoch: Instant,
    cap: usize,
    state: Mutex<State>,
}

/// The observability handle. Cheap to clone (an `Option<Arc>`); a
/// disabled handle ([`Obs::disabled`], also the `Default`) makes every
/// instrumentation call a no-op.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Inner>>,
    /// Trace id stamped onto every span this handle records (0 = none).
    trace: u64,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.is_enabled())
            .field("trace", &self.trace)
            .finish()
    }
}

impl Obs {
    /// A disabled handle: all instrumentation compiles to branches that
    /// never touch the clock.
    pub fn disabled() -> Self {
        Obs {
            inner: None,
            trace: 0,
        }
    }

    /// An enabled handle with the default span cap.
    pub fn enabled() -> Self {
        Self::enabled_with_cap(DEFAULT_SPAN_CAP)
    }

    /// An enabled handle storing at most `cap` spans; further spans are
    /// counted in [`Obs::dropped_spans`] but not stored.
    pub fn enabled_with_cap(cap: usize) -> Self {
        Obs {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                cap,
                state: Mutex::new(State::default()),
            })),
            trace: 0,
        }
    }

    /// Whether instrumentation is recording.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A handle sharing this one's storage (same spans, counters, epoch)
    /// that stamps `trace` onto every span it records. Zero means
    /// untraced; serve derives one per job (trace id = job id) so the
    /// whole request — admission, queue wait, dispatch, and every core
    /// pass executed on its behalf — shares one trace id.
    pub fn with_trace(&self, trace: u64) -> Obs {
        Obs {
            inner: self.inner.clone(),
            trace,
        }
    }

    /// The trace id this handle stamps (0 = untraced).
    pub fn trace_id(&self) -> u64 {
        self.trace
    }

    /// The span cap of this handle (0 when disabled).
    pub fn span_cap(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.cap)
    }

    /// Number of spans currently stored. Spans are only ever appended
    /// (up to the cap), so this doubles as the span-storage high-water
    /// mark.
    pub fn stored_spans(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.state.lock().unwrap().spans.len(),
            None => 0,
        }
    }

    /// Microseconds since this handle's epoch (0.0 when disabled).
    pub fn now_us(&self) -> f64 {
        match &self.inner {
            Some(inner) => inner.epoch.elapsed().as_secs_f64() * 1e6,
            None => 0.0,
        }
    }

    /// Open a span with a static name; it records itself on drop.
    pub fn span(&self, layer: Layer, name: &'static str, lane: u32) -> Span<'_> {
        self.begin(layer, Cow::Borrowed(name), lane)
    }

    /// Open a span with a dynamically built name. The closure runs only
    /// when the handle is enabled, so disabled paths never allocate.
    pub fn span_with(&self, layer: Layer, lane: u32, name: impl FnOnce() -> String) -> Span<'_> {
        if self.inner.is_some() {
            self.begin(layer, Cow::Owned(name()), lane)
        } else {
            Span {
                obs: self,
                rec: None,
            }
        }
    }

    fn begin(&self, layer: Layer, name: Cow<'static, str>, lane: u32) -> Span<'_> {
        let rec = self.inner.as_ref().map(|_| SpanRec {
            layer,
            name,
            lane,
            start_us: self.now_us(),
            dur_us: 0.0,
            trace: self.trace,
            args: Vec::new(),
        });
        Span { obs: self, rec }
    }

    /// Record a fully formed span with explicit timestamps (for callers
    /// that measured the interval themselves, e.g. the pass scheduler).
    pub fn record_span(
        &self,
        layer: Layer,
        name: impl Into<Cow<'static, str>>,
        lane: u32,
        start_us: f64,
        end_us: f64,
        args: &[(&'static str, f64)],
    ) {
        if let Some(inner) = &self.inner {
            inner.push(SpanRec {
                layer,
                name: name.into(),
                lane,
                start_us,
                dur_us: (end_us - start_us).max(0.0),
                trace: self.trace,
                args: args.to_vec(),
            });
        }
    }

    /// Add `delta` to a named counter. Names are usually `&'static str`
    /// constants from [`names`]; owned `String`s are accepted for
    /// dynamically labelled series (e.g. per-tenant metrics) and only
    /// allocate when the handle is enabled.
    pub fn count(&self, name: impl Into<Cow<'static, str>>, delta: u64) {
        if let Some(inner) = &self.inner {
            *inner
                .state
                .lock()
                .unwrap()
                .counters
                .entry(name.into())
                .or_insert(0) += delta;
        }
    }

    /// Current value of a counter (0 when unknown or disabled).
    pub fn counter(&self, name: &str) -> u64 {
        match &self.inner {
            Some(inner) => inner
                .state
                .lock()
                .unwrap()
                .counters
                .get(name)
                .copied()
                .unwrap_or(0),
            None => 0,
        }
    }

    /// Snapshot of all counters, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        match &self.inner {
            Some(inner) => inner
                .state
                .lock()
                .unwrap()
                .counters
                .iter()
                .map(|(k, &v)| (k.to_string(), v))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Snapshot of recorded spans in deterministic order: (start, layer,
    /// lane, name).
    pub fn spans(&self) -> Vec<SpanRec> {
        match &self.inner {
            Some(inner) => {
                let mut spans = inner.state.lock().unwrap().spans.clone();
                spans.sort_by(|a, b| {
                    a.start_us
                        .total_cmp(&b.start_us)
                        .then(a.layer.cmp(&b.layer))
                        .then(a.lane.cmp(&b.lane))
                        .then(a.name.cmp(&b.name))
                });
                spans
            }
            None => Vec::new(),
        }
    }

    /// Record one measurement into the named histogram (no-op when
    /// disabled, so instrumented code stays digest-identical).
    pub fn observe(&self, name: impl Into<Cow<'static, str>>, value: f64) {
        if let Some(inner) = &self.inner {
            inner
                .state
                .lock()
                .unwrap()
                .histograms
                .entry(name.into())
                .or_default()
                .record(value);
        }
    }

    /// Merge a pre-aggregated histogram into the named one (no-op when
    /// disabled). Used by workers that accumulate locally and publish
    /// once; `Histogram::merge` is order-invariant, so the result does
    /// not depend on worker completion order.
    pub fn observe_merged(&self, name: impl Into<Cow<'static, str>>, h: &Histogram) {
        if let Some(inner) = &self.inner {
            inner
                .state
                .lock()
                .unwrap()
                .histograms
                .entry(name.into())
                .or_default()
                .merge(h);
        }
    }

    /// Snapshot of the named histogram (`None` when disabled or never
    /// observed).
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.inner
            .as_ref()
            .and_then(|inner| inner.state.lock().unwrap().histograms.get(name).cloned())
    }

    /// Snapshot of all histograms, sorted by name.
    pub fn histograms(&self) -> Vec<(String, Histogram)> {
        match &self.inner {
            Some(inner) => inner
                .state
                .lock()
                .unwrap()
                .histograms
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Set a gauge to a value (last write wins; no-op when disabled).
    pub fn set_gauge(&self, name: impl Into<Cow<'static, str>>, value: f64) {
        if let Some(inner) = &self.inner {
            inner
                .state
                .lock()
                .unwrap()
                .gauges
                .insert(name.into(), value);
        }
    }

    /// Current value of a gauge (`None` when disabled or never set).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.inner
            .as_ref()
            .and_then(|inner| inner.state.lock().unwrap().gauges.get(name).copied())
    }

    /// Snapshot of all gauges, sorted by name.
    pub fn gauges(&self) -> Vec<(String, f64)> {
        match &self.inner {
            Some(inner) => inner
                .state
                .lock()
                .unwrap()
                .gauges
                .iter()
                .map(|(k, &v)| (k.to_string(), v))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Spans recorded under `trace`, in deterministic order (same sort
    /// as [`Obs::spans`]).
    pub fn spans_for_trace(&self, trace: u64) -> Vec<SpanRec> {
        let mut spans = self.spans();
        spans.retain(|s| s.trace == trace);
        spans
    }

    /// A timestamp-free digest of one trace: FNV-1a over the sorted
    /// multiset of (layer, span name) pairs. Two runs of the same job
    /// execute the same spans in the same layers, so their digests are
    /// equal even though wall-clock timestamps differ; a missing or
    /// extra pass changes the digest.
    pub fn trace_digest(&self, trace: u64) -> u64 {
        let mut keys: Vec<String> = match &self.inner {
            Some(inner) => inner
                .state
                .lock()
                .unwrap()
                .spans
                .iter()
                .filter(|s| s.trace == trace)
                .map(|s| format!("{}\u{1f}{}", s.layer.name(), s.name))
                .collect(),
            None => Vec::new(),
        };
        keys.sort();
        let mut h = Fnv::new();
        for key in &keys {
            h.write(key.as_bytes());
            h.write(&[0x1e]);
        }
        h.finish()
    }

    /// Spans discarded because the cap was reached.
    pub fn dropped_spans(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.state.lock().unwrap().dropped,
            None => 0,
        }
    }

    /// True when at least one recorded span belongs to `layer`.
    pub fn has_layer(&self, layer: Layer) -> bool {
        match &self.inner {
            Some(inner) => inner
                .state
                .lock()
                .unwrap()
                .spans
                .iter()
                .any(|s| s.layer == layer),
            None => false,
        }
    }
}

impl Inner {
    fn push(&self, rec: SpanRec) {
        let mut st = self.state.lock().unwrap();
        if st.spans.len() < self.cap {
            st.spans.push(rec);
        } else {
            st.dropped += 1;
        }
    }
}

/// A RAII span guard: records the elapsed interval when dropped. Inert
/// (holds nothing) when the handle is disabled.
#[must_use = "a span records its interval when dropped"]
pub struct Span<'a> {
    obs: &'a Obs,
    rec: Option<SpanRec>,
}

impl Span<'_> {
    /// Attach a numeric argument (builder style).
    pub fn arg(mut self, key: &'static str, value: f64) -> Self {
        self.add_arg(key, value);
        self
    }

    /// Attach a numeric argument in place.
    pub fn add_arg(&mut self, key: &'static str, value: f64) {
        if let Some(rec) = &mut self.rec {
            rec.args.push((key, value));
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(mut rec) = self.rec.take() {
            rec.dur_us = (self.obs.now_us() - rec.start_us).max(0.0);
            if let Some(inner) = &self.obs.inner {
                inner.push(rec);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        assert_eq!(obs.now_us(), 0.0);
        {
            let _s = obs.span(Layer::Core, "x", 0).arg("k", 1.0);
        }
        let _never = obs.span_with(Layer::Core, 0, || panic!("must not run"));
        drop(_never);
        obs.count("c", 5);
        assert_eq!(obs.counter("c"), 0);
        obs.observe("h", 3.0);
        assert!(obs.histogram("h").is_none());
        assert!(obs.histograms().is_empty());
        obs.set_gauge("g", 1.0);
        assert!(obs.gauge("g").is_none());
        assert!(obs.gauges().is_empty());
        assert!(obs.spans().is_empty());
        assert_eq!(obs.chrome_trace(), Obs::disabled().chrome_trace());
    }

    #[test]
    fn spans_record_on_drop() {
        let obs = Obs::enabled();
        {
            let _s = obs.span(Layer::Simrt, "phase", 3).arg("ranks", 4.0);
        }
        let spans = obs.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "phase");
        assert_eq!(spans[0].lane, 3);
        assert_eq!(spans[0].args, vec![("ranks", 4.0)]);
        assert!(spans[0].dur_us >= 0.0);
        assert!(obs.has_layer(Layer::Simrt));
        assert!(!obs.has_layer(Layer::Core));
    }

    #[test]
    fn counters_accumulate() {
        let obs = Obs::enabled();
        obs.count("hits", 2);
        obs.count("hits", 3);
        obs.count("misses", 1);
        assert_eq!(obs.counter("hits"), 5);
        assert_eq!(
            obs.counters(),
            vec![("hits".to_string(), 5), ("misses".to_string(), 1)]
        );
        // Owned (dynamically labelled) names land in the same namespace.
        obs.count(format!("tenant.{}.hits", "acme"), 2);
        assert_eq!(obs.counter("tenant.acme.hits"), 2);
    }

    #[test]
    fn histograms_and_gauges_record() {
        let obs = Obs::enabled();
        obs.observe("lat", 2.0);
        obs.observe("lat", 8.0);
        let mut local = Histogram::new();
        local.record(32.0);
        obs.observe_merged("lat", &local);
        let h = obs.histogram("lat").unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 42.0);
        obs.set_gauge("depth", 4.0);
        obs.set_gauge("depth", 7.0);
        assert_eq!(obs.gauge("depth"), Some(7.0));
        assert_eq!(obs.gauges(), vec![("depth".to_string(), 7.0)]);
        assert_eq!(obs.histograms().len(), 1);
        assert_eq!(obs.histograms()[0].0, "lat");
    }

    #[test]
    fn span_cap_counts_drops() {
        let obs = Obs::enabled_with_cap(2);
        for i in 0..5 {
            obs.record_span(Layer::App, "s", i, 0.0, 1.0, &[]);
        }
        assert_eq!(obs.spans().len(), 2);
        assert_eq!(obs.dropped_spans(), 3);
        assert!(obs.chrome_trace().contains("\"droppedSpans\":3"));
    }

    #[test]
    fn chrome_trace_shape_and_escaping() {
        let obs = Obs::enabled();
        obs.record_span(
            Layer::Core,
            "pass:\"ev\\il\"\n",
            1,
            10.0,
            25.0,
            &[("n", 2.0)],
        );
        obs.record_span(Layer::Simrt, "phase", 0, 5.0, 7.0, &[]);
        obs.count("core.cache.hit", 1);
        let t = obs.chrome_trace();
        assert!(t.starts_with("{\"traceEvents\":["));
        assert!(t.ends_with("}}"));
        // Process metadata for both layers.
        assert!(t.contains("\"process_name\""));
        assert!(t.contains("\"name\":\"simrt\""));
        assert!(t.contains("\"name\":\"core\""));
        // Span fields, escaped name, sorted order (simrt span starts first).
        assert!(t.contains("\"ph\":\"X\""));
        assert!(t.contains("pass:\\\"ev\\\\il\\\"\\n"));
        assert!(t.find("\"phase\"").unwrap() < t.find("pass:").unwrap());
        assert!(t.contains("\"core.cache.hit\":1"));
        // No raw control characters escaped into the output.
        assert!(!t.contains('\n'));
        // Balanced braces/brackets (cheap well-formedness check; the CI
        // workflow runs a real JSON parser over CLI output).
        let mut in_str = false;
        let mut esc = false;
        let (mut braces, mut brackets) = (0i32, 0i32);
        for c in t.chars() {
            if esc {
                esc = false;
                continue;
            }
            match c {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' if !in_str => braces += 1,
                '}' if !in_str => braces -= 1,
                '[' if !in_str => brackets += 1,
                ']' if !in_str => brackets -= 1,
                _ => {}
            }
        }
        assert_eq!((braces, brackets), (0, 0));
    }

    #[test]
    fn deterministic_export_ordering() {
        let build = |order: &[u32]| {
            let obs = Obs::enabled();
            for &lane in order {
                obs.record_span(Layer::Core, "s", lane, lane as f64, 2.0, &[]);
            }
            obs.chrome_trace()
        };
        assert_eq!(build(&[2, 0, 1]), build(&[0, 1, 2]));
    }

    #[test]
    fn nonfinite_args_serialize_as_null() {
        let obs = Obs::enabled();
        obs.record_span(Layer::App, "s", 0, 0.0, 1.0, &[("bad", f64::NAN)]);
        let t = obs.chrome_trace();
        assert!(t.contains("\"bad\":null"));
        assert!(!t.contains("NaN"));
    }

    #[test]
    fn with_trace_shares_storage_and_stamps_ids() {
        let obs = Obs::enabled();
        assert_eq!(obs.trace_id(), 0);
        let job = obs.with_trace(7);
        assert_eq!(job.trace_id(), 7);
        {
            let _s = job.span(Layer::Serve, "job", 0);
        }
        job.record_span(Layer::Core, "pass:a", 1, 0.0, 5.0, &[]);
        obs.record_span(Layer::App, "background", 0, 0.0, 1.0, &[]);
        // All three spans share one store...
        assert_eq!(obs.spans().len(), 3);
        // ...but only the job handle's spans carry the trace id.
        let traced = obs.spans_for_trace(7);
        assert_eq!(traced.len(), 2);
        assert!(traced.iter().all(|s| s.trace == 7));
        assert_eq!(obs.spans_for_trace(0).len(), 1);
        // Counters recorded through a traced handle are shared too.
        job.count("c", 1);
        assert_eq!(obs.counter("c"), 1);
    }

    #[test]
    fn trace_digest_ignores_timestamps_but_not_structure() {
        let run = |start: f64| {
            let obs = Obs::enabled().with_trace(3);
            obs.record_span(Layer::Serve, "job", 0, start, start + 9.0, &[]);
            obs.record_span(Layer::Core, "pass:a", 1, start + 1.0, start + 2.0, &[]);
            obs.record_span(Layer::Core, "pass:b", 2, start + 2.0, start + 4.0, &[]);
            obs.trace_digest(3)
        };
        assert_eq!(run(0.0), run(1234.5));

        let missing_pass = {
            let obs = Obs::enabled().with_trace(3);
            obs.record_span(Layer::Serve, "job", 0, 0.0, 9.0, &[]);
            obs.record_span(Layer::Core, "pass:a", 1, 1.0, 2.0, &[]);
            obs.trace_digest(3)
        };
        assert_ne!(run(0.0), missing_pass);
        // Other traces' spans do not leak into the digest.
        let obs = Obs::enabled();
        obs.with_trace(3)
            .record_span(Layer::Core, "pass:a", 0, 0.0, 1.0, &[]);
        let lone = obs.trace_digest(3);
        obs.with_trace(4)
            .record_span(Layer::Core, "pass:z", 0, 0.0, 1.0, &[]);
        assert_eq!(obs.trace_digest(3), lone);
    }

    #[test]
    fn span_cap_and_high_water_are_reported() {
        let obs = Obs::enabled_with_cap(2);
        assert_eq!(obs.span_cap(), 2);
        assert_eq!(obs.stored_spans(), 0);
        for i in 0..5 {
            obs.record_span(Layer::App, "s", i, 0.0, 1.0, &[]);
        }
        assert_eq!(obs.stored_spans(), 2);
        assert_eq!(Obs::disabled().span_cap(), 0);
        assert_eq!(Obs::disabled().stored_spans(), 0);
    }
}

/// Cases for the JSON string escaper and number rendering, exercised
/// through `Json::render`, the only JSON writer.
#[cfg(test)]
mod escape {
    mod tests {
        use crate::json::Json;

        fn lit(s: &str) -> String {
            Json::Str(s.into()).render()
        }

        #[test]
        fn escapes_quotes_backslashes_and_controls() {
            assert_eq!(lit("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
            assert_eq!(lit("\t\r"), "\"\\t\\r\"");
            assert_eq!(lit("\u{1}\u{1f}"), "\"\\u0001\\u001f\"");
            assert_eq!(lit("\u{8}\u{c}"), "\"\\b\\f\"");
            assert_eq!(lit("plain"), "\"plain\"");
            // Unicode above the control range passes through.
            assert_eq!(lit("µs → спан 😀"), "\"µs → спан 😀\"");
        }

        #[test]
        fn json_str_quotes() {
            assert_eq!(lit("a\"b"), "\"a\\\"b\"");
            assert_eq!(lit(""), "\"\"");
        }

        #[test]
        fn json_num_clamps_nonfinite() {
            assert_eq!(Json::Num(1.5).render(), "1.5");
            // JSON has no NaN or infinities.
            for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                assert_eq!(Json::Num(n).render(), "null");
            }
        }
    }
}
