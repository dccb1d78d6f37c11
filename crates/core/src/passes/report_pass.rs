//! The report module as a pass: formats vertex sets as tables with the
//! attributes the developer requested (Listing 1's
//! `pflow.report(V_imb, V_bd, attrs)`).

use pag::PropValue;

use crate::error::PerFlowError;
use crate::pass::{Pass, PassCx};
use crate::report::Report;
use crate::set::VertexSet;
use crate::value::Value;

/// Build a report table from vertex sets: one row per member, one column
/// per requested attribute. The pseudo-attribute `"score"` reads the
/// set's score annotations; `"proc"`/`"thread"` and any vertex property
/// read directly.
pub fn report_sets(title: &str, sets: &[&VertexSet], attrs: &[&str]) -> Report {
    let mut report = Report::new(title).with_columns(attrs);
    for set in sets {
        let pag = set.graph.pag();
        for &v in &set.ids {
            let row = attrs
                .iter()
                .map(|&attr| match attr {
                    "name" => pag.vertex_name(v).to_string(),
                    "label" => pag.vertex(v).label.name().to_string(),
                    "score" => format!("{:.4}", set.score(v)),
                    "time" => format_time_us(set.metric(v, pag::keys::TIME)),
                    other => pag
                        .prop_by_name(v, other)
                        .map(|p| render_prop(&p))
                        .unwrap_or_default(),
                })
                .collect();
            report.push_row(row);
        }
    }
    report
}

fn render_prop(p: &PropValue) -> String {
    match p {
        PropValue::Float(f) => format!("{f:.3}"),
        other => other.to_string(),
    }
}

/// Render µs readably (ms / s above the natural thresholds).
pub fn format_time_us(us: f64) -> String {
    if us >= 1e6 {
        format!("{:.3}s", us / 1e6)
    } else if us >= 1e3 {
        format!("{:.2}ms", us / 1e3)
    } else {
        format!("{us:.1}us")
    }
}

/// Pass wrapper: N vertex-set inputs → one report.
pub struct ReportPass {
    /// Report title.
    pub title: String,
    /// Attribute columns.
    pub attrs: Vec<String>,
    /// Number of set inputs to expect.
    pub inputs: usize,
}

impl ReportPass {
    /// Report with the given attributes over `inputs` sets.
    pub fn new(title: impl Into<String>, attrs: &[&str], inputs: usize) -> Self {
        ReportPass {
            title: title.into(),
            attrs: attrs.iter().map(|s| s.to_string()).collect(),
            inputs,
        }
    }
}

impl Pass for ReportPass {
    fn name(&self) -> &str {
        "report"
    }
    fn arity(&self) -> usize {
        self.inputs
    }
    fn run(&self, inputs: &[Value], _cx: &mut PassCx) -> Result<Vec<Value>, PerFlowError> {
        let mut sets = Vec::new();
        for (i, v) in inputs.iter().enumerate().take(self.inputs) {
            let set = v.as_vertices().ok_or(PerFlowError::WrongValueType {
                pass: "report".into(),
                port: i,
                expected: "Vertices",
            })?;
            sets.push(set);
        }
        let attrs: Vec<&str> = self.attrs.iter().map(String::as_str).collect();
        Ok(vec![report_sets(&self.title, &sets, &attrs).into()])
    }
    fn fingerprint(&self) -> Option<u64> {
        let mut h = obs::Fnv::new();
        h.str(self.name());
        h.str(&self.title);
        h.u64(self.attrs.len() as u64);
        for a in &self.attrs {
            h.str(a);
        }
        h.u64(self.inputs as u64);
        Some(h.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphref::GraphRef;
    use pag::{keys, mkeys, Pag, VertexLabel, ViewKind};
    use std::sync::Arc;

    fn set() -> VertexSet {
        let mut g = Pag::new(ViewKind::TopDown, "r");
        let v = g.add_vertex(VertexLabel::Compute, "kern");
        g.set_metric(v, mkeys::TIME, 1_500_000.0);
        g.set_vstr(v, keys::DEBUG_INFO, "a.c:12");
        let flops = g.intern_key("flops");
        g.set_metric(v, flops, 2.5);
        g.set_metric_i64(v, mkeys::COUNT, 3);
        g.set_metric_vec(v, mkeys::WAIT_PER_PROC, vec![1.0, 2.0]);
        GraphRef::Detached(Arc::new(g))
            .all_vertices()
            .with_score(v, 0.5)
    }

    #[test]
    fn renders_requested_attrs() {
        let s = set();
        let r = report_sets(
            "t",
            &[&s],
            &["name", "time", "debug-info", "score", "label"],
        );
        let text = r.render();
        assert!(text.contains("kern"));
        assert!(text.contains("1.500s"));
        assert!(text.contains("a.c:12"));
        assert!(text.contains("0.5000"));
        assert!(text.contains("compute"));
        // Free-form attributes go through the by-name lookup: a user
        // float, an int-kinded counter, a vector and a string.
        let r = report_sets(
            "t",
            &[&s],
            &["flops", "count", "wait-per-proc", "debug-info"],
        );
        assert_eq!(r.rows[0], ["2.500", "3", "[1.0000, 2.0000]", "a.c:12"]);
    }

    #[test]
    fn missing_attr_renders_empty() {
        let s = set();
        let r = report_sets("t", &[&s], &["name", "comm-info"]);
        assert_eq!(r.rows[0][1], "");
    }

    #[test]
    fn time_formatting() {
        assert_eq!(format_time_us(12.3), "12.3us");
        assert_eq!(format_time_us(12_300.0), "12.30ms");
        assert_eq!(format_time_us(12_300_000.0), "12.300s");
    }
}
