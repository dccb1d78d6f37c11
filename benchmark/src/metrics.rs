//! Names and units of every metric the benchmark prints. `BENCHMARK.json`
//! repeats them; `selfcheck` fails when the two disagree.

/// What a user of the system sees, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// The per-crate ledger of the traced run. A timing is the median, over
/// the ops that entered that code, of the span's self time.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("driver.workload_build_ms", "ms"),
    ("simrt.simulate_ms", "ms"),
    ("simrt.simulate_ref_ms", "ms"),
    ("simrt.events", "count"),
    ("simrt.ns_per_event", "ns"),
    ("simrt.comm_records", "count"),
    ("simrt.lock_records", "count"),
    ("simrt.virtual_makespan_us", "us"),
    ("collect.static_pag_ms", "ms"),
    ("collect.embed_ms", "ms"),
    ("collect.parallel_view_ms", "ms"),
    ("collect.parallel_view_ns_per_vertex", "ns"),
    ("collect.topdown_vertices", "count"),
    ("collect.parallel_vertices", "count"),
    ("collect.parallel_edges", "count"),
    ("pag.space_bytes", "count"),
    ("pag.drop_ms", "ms"),
    ("core.paradigm_ms", "ms"),
    ("core.report_render_ms", "ms"),
    ("core.backtracking_ms", "ms"),
    ("core.differential_ms", "ms"),
    ("core.imbalance_ms", "ms"),
    ("core.causal_ms", "ms"),
    ("core.critical_path_ms", "ms"),
    ("core.contention_ms", "ms"),
    ("core.hotspot_ms", "ms"),
    ("core.mpi_profiler_ms", "ms"),
    ("core.sched_cold_ms", "ms"),
    ("core.sched_replay_ms", "ms"),
    ("core.sched_passes", "count"),
    ("core.sched_us_per_pass", "us"),
    ("core.pass_cache_hit_ratio", "ratio"),
    ("graphalgo.subgraph_match_ms", "ms"),
    ("graphalgo.critical_path_ms", "ms"),
    ("query.parse_us", "us"),
    ("verify.query_lint_us", "us"),
    ("core.query_exec_us", "us"),
    ("obs.enabled_overhead_pct", "%"),
    ("obs.spans_per_op", "count"),
    ("serve.start_ms", "ms"),
    ("serve.drain_ms", "ms"),
    ("serve.healthz_rtt_ms_p50", "ms"),
    ("serve.submit_rtt_ms_p50", "ms"),
    ("serve.status_rtt_ms_p50", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.total_ms_p50", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.cold_ms_p50", "ms"),
    ("serve.run_hit_ms_p50", "ms"),
    ("serve.report_hit_ms_p50", "ms"),
    ("serve.polls_per_job", "count"),
    ("serve.report_cache_hit_ratio", "ratio"),
    ("serve.run_cache_hit_ratio", "ratio"),
    ("serve.dropped_spans", "count"),
    ("serve.rejected", "count"),
    ("trace.op_ms_p50", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
}

/// The result of one run: what the last line of standard output says.
pub struct RunResult {
    pub attempted: usize,
    /// Why each failed op failed.
    pub failures: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
}

impl RunResult {
    /// The one-line JSON object the driver reads. Values keep every digit
    /// (`{}` prints the shortest text that reads back to the same f64).
    pub fn render(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = unit_of(name).expect("metric is in the tables above");
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failures.len(),
            metrics.join(",")
        )
    }

    /// Exactly the metrics of `table`, in its order, all finite.
    pub fn check_against(&self, table: &[(&str, &str)]) -> Result<(), String> {
        let names = self.metrics.iter().map(|(name, _)| name);
        if !names.eq(table.iter().map(|(name, _)| name)) {
            return Err("the metrics reported are not the table's".into());
        }
        match self.metrics.iter().find(|(_, v)| !v.is_finite()) {
            Some((name, value)) => Err(format!("metric `{name}` is {value}")),
            None => Ok(()),
        }
    }
}
