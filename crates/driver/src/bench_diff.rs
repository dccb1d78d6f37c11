//! The bench-snapshot regression watchdog: load two `RunMetrics`-shaped
//! JSON snapshots (any `--metrics-json` output, or the benchmark's
//! `benchmark/out/BENCH_pipeline.json`), align passes by name through the
//! [`perf_regression`] paradigm, and render PF-diagnostic verdicts.
//!
//! The watchdog is deliberately front-end-agnostic: `perflow-cli
//! --bench-diff OLD NEW` and serve's `POST /bench-diff` both funnel into
//! [`bench_diff`], so the exit code and the HTTP response are the same
//! judgment. A comparison "regresses" exactly when at least one aligned
//! pass slowed past the relative threshold *and* the absolute noise
//! floor — that single error-severity code ([`PF0401`]) is what drives
//! the CLI's exit 1.
//!
//! [`PF0401`]: perflow::verify::codes::BENCH_REGRESSED

use obs::json::{obj, Json};
use perflow::paradigms::perf_regression::{perf_regression, RegressionConfig, RegressionResult};
use perflow::passes::report_pass::format_time_us;
use perflow::verify::{codes, Anchor, Diagnostics, Severity};
use perflow::Report;

use crate::DriverError;

/// Knobs for the verdict, mirrored by `--bench-threshold` /
/// `--bench-noise-floor` and the `POST /bench-diff` body fields.
#[derive(Debug, Clone, Copy)]
pub struct BenchDiffConfig {
    /// Relative change that counts (0.10 = ±10 %).
    pub threshold: f64,
    /// Absolute change (µs) below which a pass is never flagged.
    pub noise_floor_us: f64,
}

impl Default for BenchDiffConfig {
    fn default() -> Self {
        let d = RegressionConfig::default();
        BenchDiffConfig {
            threshold: d.threshold,
            noise_floor_us: d.noise_floor_us,
        }
    }
}

/// A parsed bench snapshot: `(pass name, wall µs)` in input order.
/// Duplicate names (one pass dispatched to several nodes in a real
/// `RunMetrics`) are summed so the comparison sees total wall time.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSnapshot {
    /// Aggregated samples.
    pub passes: Vec<(String, f64)>,
}

impl BenchSnapshot {
    /// Parse a `RunMetrics` JSON document (`{"passes":[{"name":…,
    /// "wall_us":…},…],…}`).
    pub fn parse(text: &str) -> Result<BenchSnapshot, DriverError> {
        let v = Json::parse(text).map_err(|e| DriverError(format!("bad snapshot JSON: {e}")))?;
        Self::from_json(&v)
    }

    /// Extract the samples from an already-parsed `RunMetrics` value.
    pub fn from_json(v: &Json) -> Result<BenchSnapshot, DriverError> {
        let passes = match v.get("passes") {
            Some(Json::Arr(items)) => items,
            _ => {
                return Err(DriverError(
                    "snapshot has no `passes` array (expected RunMetrics JSON)".into(),
                ))
            }
        };
        let mut order: Vec<String> = Vec::new();
        let mut sums: std::collections::BTreeMap<String, f64> = Default::default();
        for (i, item) in passes.iter().enumerate() {
            let name = item
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| DriverError(format!("passes[{i}] has no string `name`")))?;
            let wall = item
                .get("wall_us")
                .and_then(Json::as_f64)
                .ok_or_else(|| DriverError(format!("passes[{i}] has no numeric `wall_us`")))?;
            if !sums.contains_key(name) {
                order.push(name.to_string());
            }
            *sums.entry(name.to_string()).or_insert(0.0) += wall;
        }
        Ok(BenchSnapshot {
            passes: order
                .into_iter()
                .map(|n| {
                    let w = sums[&n];
                    (n, w)
                })
                .collect(),
        })
    }
}

/// The watchdog's full output: structured diagnostics plus the
/// paradigm's report table.
#[derive(Debug)]
pub struct BenchDiffOutcome {
    /// PF04xx findings in canonical order.
    pub diagnostics: Diagnostics,
    /// The paradigm's verdict table (regressed + improved passes).
    pub report: Report,
    /// Number of passes aligned across both snapshots.
    pub aligned: usize,
}

impl BenchDiffOutcome {
    /// True when at least one pass regressed (drives exit 1 / HTTP
    /// verdict).
    pub fn regressed(&self) -> bool {
        self.diagnostics.has_errors()
    }

    /// Render the verdict as text: one PF line per finding, then the
    /// summary.
    pub fn render_text(&self) -> String {
        let mut out = self.diagnostics.render_text();
        out.push_str(&format!(
            "bench-diff: {} passes aligned, {} — {}\n",
            self.aligned,
            self.diagnostics.summary(),
            if self.regressed() { "REGRESSED" } else { "ok" }
        ));
        out
    }

    /// The verdict as a JSON object.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("regressed", Json::Bool(self.regressed())),
            ("aligned", Json::Num(self.aligned as f64)),
            ("summary", Json::Str(self.diagnostics.summary())),
            ("diagnostics", self.diagnostics.to_json()),
        ])
    }
}

/// Compare two snapshots under `cfg`.
pub fn bench_diff(
    baseline: &BenchSnapshot,
    current: &BenchSnapshot,
    cfg: &BenchDiffConfig,
) -> Result<BenchDiffOutcome, DriverError> {
    let rcfg = RegressionConfig {
        threshold: cfg.threshold,
        noise_floor_us: cfg.noise_floor_us,
    };
    let result = perf_regression(&baseline.passes, &current.passes, &rcfg)
        .map_err(|e| DriverError(format!("alignment failed: {e}")))?;

    let base: std::collections::BTreeMap<&str, f64> = baseline
        .passes
        .iter()
        .map(|(n, w)| (n.as_str(), *w))
        .collect();
    let cur: std::collections::BTreeMap<&str, f64> = current
        .passes
        .iter()
        .map(|(n, w)| (n.as_str(), *w))
        .collect();
    let aligned = base.keys().filter(|k| cur.contains_key(*k)).count();

    let mut diags = Diagnostics::new();
    let anchor = |set: &perflow::VertexSet, v: pag::VertexId| Anchor::Node {
        id: v.index(),
        name: set.graph.pag().vertex_name(v).to_string(),
    };
    let RegressionResult {
        regressed,
        improved,
        missing,
        added,
        unusable,
        report,
    } = result;
    for &v in &regressed.ids {
        let name = regressed.graph.pag().vertex_name(v).to_string();
        let (b, c) = (base[name.as_str()], cur[name.as_str()]);
        diags.push(
            codes::BENCH_REGRESSED,
            Severity::Error,
            anchor(&regressed, v),
            format!(
                "pass slowed {} -> {} ({:+.1}%, threshold {:.1}%)",
                format_time_us(b),
                format_time_us(c),
                (c - b) / b * 100.0,
                cfg.threshold * 100.0
            ),
        );
    }
    for &v in &improved.ids {
        let name = improved.graph.pag().vertex_name(v).to_string();
        let (b, c) = (base[name.as_str()], cur[name.as_str()]);
        diags.push(
            codes::BENCH_IMPROVED,
            Severity::Info,
            anchor(&improved, v),
            format!(
                "pass sped up {} -> {} ({:+.1}%)",
                format_time_us(b),
                format_time_us(c),
                (c - b) / b * 100.0
            ),
        );
    }
    for &v in &missing.ids {
        let name = missing.graph.pag().vertex_name(v).to_string();
        diags.push(
            codes::BENCH_MISSING_PASS,
            Severity::Warn,
            anchor(&missing, v),
            format!(
                "pass ({}) present in the baseline but absent from the current snapshot",
                format_time_us(base[name.as_str()])
            ),
        );
    }
    for &v in &added.ids {
        let name = added.graph.pag().vertex_name(v).to_string();
        diags.push(
            codes::BENCH_NEW_PASS,
            Severity::Info,
            anchor(&added, v),
            format!(
                "pass ({}) appears only in the current snapshot",
                format_time_us(cur[name.as_str()])
            ),
        );
    }
    for &v in &unusable.ids {
        let name = unusable.graph.pag().vertex_name(v).to_string();
        let (b, c) = (base[name.as_str()], cur[name.as_str()]);
        diags.push(
            codes::BENCH_BAD_BASELINE,
            Severity::Warn,
            anchor(&unusable, v),
            format!("unusable samples (baseline {b}, current {c}); no ratio formed"),
        );
    }

    Ok(BenchDiffOutcome {
        diagnostics: diags.finish(),
        report,
        aligned,
    })
}

/// Convenience for front-ends holding raw JSON text.
pub fn bench_diff_texts(
    baseline: &str,
    current: &str,
    cfg: &BenchDiffConfig,
) -> Result<BenchDiffOutcome, DriverError> {
    bench_diff(
        &BenchSnapshot::parse(baseline)?,
        &BenchSnapshot::parse(current)?,
        cfg,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(pairs: &[(&str, f64)]) -> String {
        let passes: Vec<String> = pairs
            .iter()
            .map(|(n, w)| {
                format!(
                    "{{\"cache_hit\":false,\"dispatch_seq\":0,\"name\":\"{n}\",\
                     \"node\":0,\"queue_wait_us\":0,\"wall_us\":{w}}}"
                )
            })
            .collect();
        format!(
            "{{\"cache\":null,\"passes\":[{}],\"total_wall_us\":1,\"workers\":1}}",
            passes.join(",")
        )
    }

    #[test]
    fn identical_snapshots_pass() {
        let s = snapshot(&[("a", 1000.0), ("b", 2000.0)]);
        let out = bench_diff_texts(&s, &s, &BenchDiffConfig::default()).unwrap();
        assert!(!out.regressed());
        assert_eq!(out.aligned, 2);
        assert!(out.diagnostics.is_empty());
        assert!(out.render_text().contains("2 passes aligned"));
        assert!(out.to_json().render().contains("\"regressed\":false"));
    }

    #[test]
    fn regression_is_an_error_with_a_pf_code() {
        let old = snapshot(&[("pag/build", 1000.0)]);
        let new = snapshot(&[("pag/build", 2000.0)]);
        let out = bench_diff_texts(&old, &new, &BenchDiffConfig::default()).unwrap();
        assert!(out.regressed());
        let text = out.render_text();
        assert!(
            text.contains("error[PF0401]")
                && text.contains("+100.0%")
                && text.contains("REGRESSED"),
            "{text}"
        );
        // Deterministic: same inputs, same rendering.
        let again = bench_diff_texts(&old, &new, &BenchDiffConfig::default()).unwrap();
        assert_eq!(text, again.render_text());
    }

    #[test]
    fn missing_and_new_passes_warn_but_do_not_fail() {
        let old = snapshot(&[("a", 1000.0), ("gone", 500.0)]);
        let new = snapshot(&[("a", 1000.0), ("fresh", 500.0)]);
        let out = bench_diff_texts(&old, &new, &BenchDiffConfig::default()).unwrap();
        assert!(!out.regressed());
        let text = out.render_text();
        assert!(
            text.contains("warning[PF0402]") && text.contains("`gone`"),
            "{text}"
        );
        assert!(
            text.contains("info[PF0404]") && text.contains("`fresh`"),
            "{text}"
        );
    }

    #[test]
    fn nan_and_zero_baselines_are_bad_baseline_warnings() {
        // NaN is not representable in JSON; build snapshots directly.
        let old = BenchSnapshot {
            passes: vec![("nan".into(), f64::NAN), ("zero".into(), 0.0)],
        };
        let new = BenchSnapshot {
            passes: vec![("nan".into(), 100.0), ("zero".into(), 100.0)],
        };
        let out = bench_diff(&old, &new, &BenchDiffConfig::default()).unwrap();
        assert!(!out.regressed());
        let text = out.render_text();
        assert_eq!(out.diagnostics.count(Severity::Warn), 2, "{text}");
        assert!(text.contains("warning[PF0405]"), "{text}");
    }

    #[test]
    fn threshold_boundary_is_exclusive() {
        let old = snapshot(&[("edge", 1000.0)]);
        let at = snapshot(&[("edge", 1100.0)]);
        let over = snapshot(&[("edge", 1100.1)]);
        let cfg = BenchDiffConfig {
            threshold: 0.10,
            noise_floor_us: 0.0,
        };
        assert!(!bench_diff_texts(&old, &at, &cfg).unwrap().regressed());
        assert!(bench_diff_texts(&old, &over, &cfg).unwrap().regressed());
    }

    #[test]
    fn noise_floor_suppresses_small_absolute_regressions() {
        let old = snapshot(&[("tiny", 10.0)]);
        let new = snapshot(&[("tiny", 40.0)]);
        assert!(!bench_diff_texts(&old, &new, &BenchDiffConfig::default())
            .unwrap()
            .regressed());
    }

    #[test]
    fn duplicate_pass_names_aggregate() {
        let old = r#"{"passes":[{"name":"p","wall_us":100},{"name":"p","wall_us":200}]}"#;
        let snap = BenchSnapshot::parse(old).unwrap();
        assert_eq!(snap.passes, vec![("p".to_string(), 300.0)]);
    }

    #[test]
    fn malformed_snapshots_are_rejected() {
        assert!(BenchSnapshot::parse("not json").is_err());
        assert!(BenchSnapshot::parse("{}").is_err());
        assert!(BenchSnapshot::parse(r#"{"passes":[{"wall_us":1}]}"#).is_err());
        assert!(BenchSnapshot::parse(r#"{"passes":[{"name":"a"}]}"#).is_err());
    }

    /// A real document: the `--metrics-json` rendering of an observed
    /// comm-analysis session, exactly as `perflow-cli` prints it.
    #[test]
    fn live_run_metrics_self_compare_clean_and_flag_a_tripled_pass() {
        let cfg = crate::AnalysisConfig {
            ranks: 4,
            ..crate::AnalysisConfig::default()
        };
        let obs = perflow::Obs::enabled();
        let run = perflow::PerFlow::new()
            .run(
                &crate::workload("cg").unwrap(),
                &simrt::RunConfig::new(cfg.ranks)
                    .with_seed(cfg.seed)
                    .with_obs(obs.clone()),
            )
            .unwrap();
        let res = crate::ResilienceConfig::default();
        let session = crate::comm_analysis_session(&run, &obs, &res, 0).unwrap();
        let text = session.outputs.metrics.to_json().render();

        let clean = bench_diff_texts(&text, &text, &BenchDiffConfig::default()).unwrap();
        assert!(!clean.regressed(), "{}", clean.render_text());
        assert!(clean.aligned > 0);

        // Tripling the slowest pass regresses; without a noise floor that
        // holds however fast a 4-rank session's passes are.
        let baseline = BenchSnapshot::parse(&text).unwrap();
        let mut slowed = baseline.clone();
        let slowest = slowed
            .passes
            .iter_mut()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        slowest.1 *= 3.0;
        let cfg = BenchDiffConfig {
            noise_floor_us: 0.0,
            ..BenchDiffConfig::default()
        };
        let out = bench_diff(&baseline, &slowed, &cfg).unwrap();
        let text = out.render_text();
        assert!(out.regressed() && text.contains("error[PF0401]"), "{text}");
    }
}
