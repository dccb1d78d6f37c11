//! Prometheus text exposition format (version 0.0.4) exporter.
//!
//! Everything the handle recorded becomes scrape-able metrics, all under
//! the `perflow_` namespace:
//!
//! * counters → `perflow_<name>_total` (type `counter`),
//! * gauges → `perflow_<name>` (type `gauge`),
//! * histograms → `perflow_<name>_bucket{le="…"}` / `_sum` / `_count`
//!   (type `histogram`, cumulative `le` series ending at `+Inf`),
//! * span aggregates → `perflow_span_time_us_total` summed per
//!   `{layer,name}` pair plus `perflow_spans_total`,
//! * the drop counter → `perflow_dropped_spans_total`.
//!
//! Metric names are sanitized to `[a-zA-Z_:][a-zA-Z0-9_:]*`; label
//! values are escaped per the exposition spec (`\\`, `\"`, `\n`). All
//! sections iterate sorted maps, so output is deterministic.

use std::collections::BTreeMap;

use crate::Obs;

/// Sanitize a metric-name fragment: every character outside
/// `[a-zA-Z0-9_:]` becomes `_`, and a leading digit gets a `_` prefix.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { c } else { '_' });
    }
    out
}

/// Escape a label value per the exposition format: backslash, double
/// quote and newline.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render a bucket bound as an `le` label value (`+Inf` for infinity;
/// whole numbers without a fractional part).
fn le_value(bound: f64) -> String {
    if bound.is_infinite() {
        "+Inf".to_string()
    } else if bound == bound.trunc() {
        format!("{}", bound as u64)
    } else {
        format!("{bound}")
    }
}

fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

impl Obs {
    /// Export all recorded telemetry in Prometheus text exposition
    /// format. Deterministic for a given telemetry state; returns only
    /// the drop counter when nothing else was recorded, and an exposition
    /// with zero samples when the handle is disabled.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.counters() {
            let metric = format!("perflow_{}_total", sanitize_metric_name(&name));
            header(&mut out, &metric, "Monotonic counter.", "counter");
            out.push_str(&format!("{metric} {value}\n"));
        }
        for (name, value) in self.gauges() {
            let metric = format!("perflow_{}", sanitize_metric_name(&name));
            header(&mut out, &metric, "Gauge (last written value).", "gauge");
            out.push_str(&format!("{metric} {value}\n"));
        }
        for (name, hist) in self.histograms() {
            let metric = format!("perflow_{}", sanitize_metric_name(&name));
            header(&mut out, &metric, "Log-bucketed histogram.", "histogram");
            for (bound, cum) in hist.cumulative_buckets() {
                out.push_str(&format!(
                    "{metric}_bucket{{le=\"{}\"}} {cum}\n",
                    le_value(bound)
                ));
            }
            out.push_str(&format!("{metric}_sum {}\n", hist.sum()));
            out.push_str(&format!("{metric}_count {}\n", hist.count()));
        }
        // Span aggregates: total wall time and count per (layer, name).
        let spans = self.spans();
        if !spans.is_empty() {
            let mut agg: BTreeMap<(&'static str, String), (f64, u64)> = BTreeMap::new();
            for s in &spans {
                let e = agg
                    .entry((s.layer.name(), s.name.to_string()))
                    .or_insert((0.0, 0));
                e.0 += s.dur_us;
                e.1 += 1;
            }
            header(
                &mut out,
                "perflow_span_time_us_total",
                "Total recorded span wall time in microseconds.",
                "counter",
            );
            for ((layer, name), (dur, _)) in &agg {
                out.push_str(&format!(
                    "perflow_span_time_us_total{{layer=\"{}\",name=\"{}\"}} {dur}\n",
                    escape_label_value(layer),
                    escape_label_value(name),
                ));
            }
            header(
                &mut out,
                "perflow_spans_total",
                "Number of recorded spans.",
                "counter",
            );
            for ((layer, name), (_, n)) in &agg {
                out.push_str(&format!(
                    "perflow_spans_total{{layer=\"{}\",name=\"{}\"}} {n}\n",
                    escape_label_value(layer),
                    escape_label_value(name),
                ));
            }
        }
        // Span-storage visibility (enabled handles only): the cap and
        // the high-water mark make trace truncation observable before
        // `GET /jobs/:id/trace` silently caps.
        if self.is_enabled() {
            header(
                &mut out,
                "perflow_span_cap",
                "Maximum number of spans the handle will store.",
                "gauge",
            );
            out.push_str(&format!("perflow_span_cap {}\n", self.span_cap()));
            header(
                &mut out,
                "perflow_span_high_water",
                "Spans currently stored (monotonic: spans are only appended, up to the cap).",
                "gauge",
            );
            out.push_str(&format!(
                "perflow_span_high_water {}\n",
                self.stored_spans()
            ));
        }
        header(
            &mut out,
            "perflow_dropped_spans_total",
            "Spans discarded because the span cap was reached.",
            "counter",
        );
        out.push_str(&format!(
            "perflow_dropped_spans_total {}\n",
            self.dropped_spans()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Layer;

    #[test]
    fn sanitizes_names() {
        assert_eq!(sanitize_metric_name("core.cache.hit"), "core_cache_hit");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name("a-b c"), "a_b_c");
        assert_eq!(sanitize_metric_name("ok_name:x2"), "ok_name:x2");
    }

    #[test]
    fn escapes_label_values() {
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn exposition_shape() {
        let obs = Obs::enabled();
        obs.count("core.cache.hit", 3);
        obs.set_gauge("pool.workers", 4.0);
        obs.observe("pass.wall_us", 10.0);
        obs.observe("pass.wall_us", 1000.0);
        obs.record_span(Layer::Core, "pass:hotspot", 0, 0.0, 50.0, &[]);
        obs.record_span(Layer::Core, "pass:hotspot", 1, 0.0, 70.0, &[]);
        let text = obs.prometheus();
        assert!(text.contains("# TYPE perflow_core_cache_hit_total counter"));
        assert!(text.contains("perflow_core_cache_hit_total 3\n"));
        assert!(text.contains("# TYPE perflow_pool_workers gauge"));
        assert!(text.contains("perflow_pool_workers 4\n"));
        assert!(text.contains("# TYPE perflow_pass_wall_us histogram"));
        assert!(text.contains("perflow_pass_wall_us_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("perflow_pass_wall_us_count 2\n"));
        assert!(
            text.contains("perflow_span_time_us_total{layer=\"core\",name=\"pass:hotspot\"} 120\n")
        );
        assert!(text.contains("perflow_spans_total{layer=\"core\",name=\"pass:hotspot\"} 2\n"));
        assert!(text.contains("perflow_dropped_spans_total 0\n"));
        assert!(text.contains("# TYPE perflow_span_cap gauge"));
        assert!(text.contains(&format!("perflow_span_cap {}\n", crate::DEFAULT_SPAN_CAP)));
        assert!(text.contains("perflow_span_high_water 2\n"));
        // Every non-comment line is `name{…}? value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (_, value) = line.rsplit_once(' ').expect("sample line has a value");
            value.parse::<f64>().expect("sample value parses");
        }
    }

    #[test]
    fn resilience_counters_render() {
        let obs = Obs::enabled();
        obs.count(crate::names::PASS_PANIC, 2);
        let text = obs.prometheus();
        assert!(text.contains("# TYPE perflow_core_pass_panic_total counter"));
        assert!(text.contains("perflow_core_pass_panic_total 2\n"));
    }

    #[test]
    fn hostile_names_stay_well_formed() {
        let obs = Obs::enabled();
        obs.record_span(Layer::App, "evil\"name\\with\nstuff", 0, 0.0, 1.0, &[]);
        let text = obs.prometheus();
        assert!(text.contains("name=\"evil\\\"name\\\\with\\nstuff\""));
        // No raw newline inside a sample line (escaped form only).
        for line in text.lines() {
            assert!(!line.is_empty());
        }
    }

    #[test]
    fn disabled_exports_only_drop_counter() {
        let text = Obs::disabled().prometheus();
        assert_eq!(
            text.lines().filter(|l| !l.starts_with('#')).count(),
            1,
            "{text}"
        );
        assert!(text.contains("perflow_dropped_spans_total 0"));
    }
}
