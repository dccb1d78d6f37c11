//! Chrome-trace JSON exporter (the `chrome://tracing` / Perfetto "JSON
//! Object" flavor).

use crate::json::{obj, Json};
use crate::{Layer, Obs, SpanRec};

/// A µs timestamp rounded to the nanosecond, the trace's resolution.
fn us(t: f64) -> Json {
    Json::Num((t * 1000.0).round() / 1000.0)
}

impl Obs {
    /// Export everything as Chrome-trace JSON: one complete (`"X"`)
    /// event per span, process-name metadata per layer, counters under
    /// `otherData`. Output ordering is deterministic for a given span
    /// set.
    pub fn chrome_trace(&self) -> String {
        self.trace_json(&self.spans(), None).render()
    }

    /// Export a single trace (spans stamped with `trace` by
    /// [`Obs::with_trace`]) as Chrome-trace JSON. `otherData` carries
    /// the trace id and its timestamp-free [`Obs::trace_digest`] so
    /// callers can compare two runs of the same job structurally.
    pub fn chrome_trace_for(&self, trace: u64) -> String {
        self.trace_json(&self.spans_for_trace(trace), Some(trace))
            .render()
    }

    fn trace_json(&self, spans: &[SpanRec], trace: Option<u64>) -> Json {
        let mut layers: Vec<Layer> = spans.iter().map(|s| s.layer).collect();
        layers.sort();
        layers.dedup();
        let mut events: Vec<Json> = layers
            .iter()
            .map(|layer| {
                obj(vec![
                    ("ph", Json::Str("M".into())),
                    ("name", Json::Str("process_name".into())),
                    ("pid", Json::Num(layer.pid().into())),
                    ("tid", Json::Num(0.0)),
                    ("args", obj(vec![("name", Json::Str(layer.name().into()))])),
                ])
            })
            .collect();
        for s in spans {
            let mut ev = vec![
                ("ph", Json::Str("X".into())),
                ("name", Json::Str(s.name.to_string())),
                ("cat", Json::Str(s.layer.name().into())),
                ("pid", Json::Num(s.layer.pid().into())),
                ("tid", Json::Num(s.lane.into())),
                ("ts", us(s.start_us)),
                ("dur", us(s.dur_us)),
            ];
            if s.trace != 0 {
                // Non-standard field; trace viewers ignore unknown keys.
                ev.push(("trace", Json::Num(s.trace as f64)));
            }
            if !s.args.is_empty() {
                let args = s.args.iter().map(|&(k, v)| (k, Json::Num(v))).collect();
                ev.push(("args", obj(args)));
            }
            events.push(obj(ev));
        }
        let mut other: Vec<(String, Json)> = match trace {
            Some(id) => vec![
                ("trace".into(), Json::Num(id as f64)),
                (
                    "traceDigest".into(),
                    Json::Str(format!("{:016x}", self.trace_digest(id))),
                ),
                ("spanCount".into(), Json::Num(spans.len() as f64)),
            ],
            None => self
                .counters()
                .into_iter()
                .map(|(k, v)| (k, Json::Num(v as f64)))
                .collect(),
        };
        other.push((
            "droppedSpans".into(),
            Json::Num(self.dropped_spans() as f64),
        ));
        obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::Str("ms".into())),
            ("otherData", Json::Obj(other)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use crate::json::Json;
    use crate::{Layer, Obs};

    #[test]
    fn per_trace_export_filters_and_digests() {
        let obs = Obs::enabled();
        let job = obs.with_trace(11);
        job.record_span(Layer::Serve, "job", 0, 0.0, 20.0, &[]);
        job.record_span(Layer::Core, "pass:a", 1, 2.0, 6.0, &[]);
        obs.record_span(Layer::App, "background", 0, 0.0, 1.0, &[]);

        let t = obs.chrome_trace_for(11);
        assert!(t.contains("\"trace\":11"));
        assert!(t.contains("\"pass:a\""));
        assert!(!t.contains("background"));
        assert!(t.contains("\"spanCount\":2"));
        assert!(t.contains(&format!(
            "\"traceDigest\":\"{:016x}\"",
            obs.trace_digest(11)
        )));
        // The full export still includes everything, with trace ids on
        // the stamped events only.
        let full = obs.chrome_trace();
        assert!(full.contains("background"));
        assert!(full.contains("\"trace\":11"));
    }

    #[test]
    fn untraced_spans_omit_the_trace_field() {
        let obs = Obs::enabled();
        obs.record_span(Layer::Core, "pass:a", 0, 0.0, 1.0, &[]);
        assert!(!obs.chrome_trace().contains("\"trace\":"));
    }

    #[test]
    fn export_is_pinned() {
        let obs = Obs::enabled();
        obs.record_span(
            Layer::Core,
            "pass:\"a\"\n😀",
            2,
            1.0 / 3.0,
            12.5,
            &[("n", 2.5), ("bad", f64::NAN)],
        );
        obs.record_span(Layer::Simrt, "phase", 0, 0.0, 100.0, &[]);
        obs.with_trace(9)
            .record_span(Layer::Serve, "job", 1, 1234.5678, 2345.0001, &[]);
        obs.count("c\"x", 4);
        // The expected texts write `ts`/`dur` with three decimals; the
        // exporter writes them in shortest form, so compare through the
        // parser: the same values, and the same bytes everywhere else.
        let expect = |text: &str| Json::parse(text).unwrap().render();
        assert_eq!(
            obs.chrome_trace(),
            expect("{\"traceEvents\":[{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"simrt\"}},{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":3,\"tid\":0,\"args\":{\"name\":\"core\"}},{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":5,\"tid\":0,\"args\":{\"name\":\"serve\"}},{\"ph\":\"X\",\"name\":\"phase\",\"cat\":\"simrt\",\"pid\":1,\"tid\":0,\"ts\":0.000,\"dur\":100.000},{\"ph\":\"X\",\"name\":\"pass:\\\"a\\\"\\n😀\",\"cat\":\"core\",\"pid\":3,\"tid\":2,\"ts\":0.333,\"dur\":12.167,\"args\":{\"n\":2.5,\"bad\":null}},{\"ph\":\"X\",\"name\":\"job\",\"cat\":\"serve\",\"pid\":5,\"tid\":1,\"ts\":1234.568,\"dur\":1110.432,\"trace\":9}],\"displayTimeUnit\":\"ms\",\"otherData\":{\"c\\\"x\":4,\"droppedSpans\":0}}")
        );
        assert_eq!(
            obs.chrome_trace_for(9),
            expect("{\"traceEvents\":[{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":5,\"tid\":0,\"args\":{\"name\":\"serve\"}},{\"ph\":\"X\",\"name\":\"job\",\"cat\":\"serve\",\"pid\":5,\"tid\":1,\"ts\":1234.568,\"dur\":1110.432,\"trace\":9}],\"displayTimeUnit\":\"ms\",\"otherData\":{\"trace\":9,\"traceDigest\":\"240d461f0f189a12\",\"spanCount\":1,\"droppedSpans\":0}}")
        );
    }
}
