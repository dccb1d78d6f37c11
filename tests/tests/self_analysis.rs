//! End-to-end tests of the self-analysis loop: PerFlow profiling
//! PerFlow. The engine's own `obs` trace is lifted into a PAG pair
//! (`collect::self_pag`), verified with the same `check_pag` linter used
//! on target programs, and analyzed by the built-in self-analysis
//! PerFlowGraph — plus property tests for the histogram model and a
//! `python3 -m json.tool` round-trip of every JSON exporter against
//! hostile span names.

use obs::json::Json;
use obs::{Histogram, Layer, Obs};
use perflow::paradigms::comm_analysis_graph;
use perflow::verify::{check_pag, Anchor, Diagnostics, Severity};
use perflow::{self_analysis, ExecOptions, PassCache, PerFlow, RunHandleExt};
use progmodel::{c, nranks, rank, Program, ProgramBuilder};
use proptest::prelude::*;
use simrt::RunConfig;

fn workload() -> Program {
    let mut pb = ProgramBuilder::new("self-e2e");
    let main = pb.declare("main", "s.c");
    pb.define(main, |f| {
        f.loop_("iter", c(40.0), |b| {
            b.compute("kernel", (c(50.0) + rank() * c(5.0)) / nranks());
            b.allreduce(c(16.0));
        });
    });
    pb.build(main)
}

/// Run an observed profile + comm-analysis graph and hand back the
/// populated trace.
fn observed_trace() -> Obs {
    let obs = Obs::enabled();
    let pflow = PerFlow::new();
    let run = pflow
        .run(&workload(), &RunConfig::new(4).with_obs(obs.clone()))
        .expect("observed run failed");
    let (g, report) = comm_analysis_graph(run.vertices()).expect("graph wiring failed");
    let cache = PassCache::new();
    let out = g
        .execute_with(&ExecOptions::new().with_obs(obs.clone()).with_cache(&cache))
        .expect("observed execution failed");
    assert!(!out.of(report).is_empty());
    obs
}

#[test]
fn self_pag_passes_verification_end_to_end() {
    let obs = observed_trace();
    let sp = collect::build_self_pag(&obs);
    for (name, pag) in [("top-down", &sp.topdown), ("parallel", &sp.parallel)] {
        let d = check_pag(pag);
        assert_eq!(
            d.count(Severity::Error),
            0,
            "self-PAG {name} view must lint clean:\n{}",
            d.render_text()
        );
    }
    // The trace covers all three engine layers, so the top-down view has
    // a layer vertex for each under the root.
    for layer in ["simrt", "collect", "core"] {
        assert!(
            !sp.topdown.find_by_name(layer).is_empty(),
            "missing layer vertex `{layer}`"
        );
    }
    assert!(
        sp.flows.len() >= 2,
        "expected multiple lanes: {:?}",
        sp.flows
    );
}

#[test]
fn self_analysis_names_hotspots_and_reports() {
    let r = self_analysis(&observed_trace()).expect("self-analysis failed");
    assert_eq!(
        r.diagnostics.count(Severity::Error),
        0,
        "{}",
        r.diagnostics.render_text()
    );
    assert!(!r.hotspots.is_empty(), "engine work must surface hotspots");
    let text = r.render();
    assert!(text.contains("hottest engine span:"), "{text}");
    assert!(
        text.contains("self analysis (PerFlow on PerFlow)"),
        "{text}"
    );
}

#[test]
fn analysis_is_digest_identical_with_observation_on_or_off() {
    let prog = workload();
    let pflow = PerFlow::new();
    let plain = pflow.run(&prog, &RunConfig::new(4)).unwrap();
    let obs = Obs::enabled();
    let watched = pflow
        .run(&prog, &RunConfig::new(4).with_obs(obs.clone()))
        .unwrap();
    assert_eq!(
        plain.data().digest(),
        watched.data().digest(),
        "observation must not perturb the run"
    );
    // The analysis result is identical too — histograms and gauges are
    // bookkeeping, not inputs.
    let report = |run: &perflow::RunHandle| {
        let hot = pflow.hotspot_detection(&run.vertices(), 10);
        pflow.report(&[&hot], &["name", "label", "time"]).render()
    };
    assert_eq!(report(&plain), report(&watched));
}

/// Feed a value set into one histogram directly and into per-chunk
/// histograms merged in the given order; both must agree bit-for-bit.
fn merged_in_order(values: &[f64], chunk: usize, reverse: bool) -> Histogram {
    let mut parts: Vec<Histogram> = values
        .chunks(chunk.max(1))
        .map(|ch| {
            let mut h = Histogram::new();
            for &v in ch {
                h.record(v);
            }
            h
        })
        .collect();
    if reverse {
        parts.reverse();
    }
    let mut acc = Histogram::new();
    for p in &parts {
        acc.merge(p);
    }
    acc
}

proptest! {
    #[test]
    fn histogram_record_is_deterministic(
        values in prop::collection::vec(
            prop_oneof![
                0.0..1e9f64,
                Just(0.0),
                Just(-1.0),
                Just(f64::NAN),
                Just(f64::INFINITY),
            ],
            0..80,
        ),
    ) {
        let build = || {
            let mut h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            h
        };
        let (a, b) = (build(), build());
        prop_assert_eq!(a.to_json().render(), b.to_json().render());
        prop_assert_eq!(a.count(), values.len() as u64);
    }

    #[test]
    fn histogram_merge_is_order_invariant(
        values in prop::collection::vec(0.0..1e9f64, 1..120),
        chunk in 1usize..16,
    ) {
        let mut whole = Histogram::new();
        for &v in &values {
            whole.record(v);
        }
        let fwd = merged_in_order(&values, chunk, false);
        let rev = merged_in_order(&values, chunk, true);
        prop_assert_eq!(whole.to_json().render(), fwd.to_json().render());
        prop_assert_eq!(fwd.to_json().render(), rev.to_json().render());
    }
}

/// Round-trip every JSON exporter with hostile strings: in-process
/// through `obs::json` (parse, then render back to the same bytes), and
/// through `python3 -m json.tool`, which is skipped silently when python3
/// is not on PATH.
#[test]
fn json_exports_survive_python_round_trip() {
    const HOSTILE: [&str; 5] = [
        "quote\"backslash\\",
        "newline\nand\ttab",
        "control\u{1}\u{8}\u{c}chars",
        "unicode π µs ✓",
        "non-BMP 😀 𝄞",
    ];
    let mut docs: Vec<(&str, String)> = Vec::new();

    let obs = Obs::enabled();
    for (i, name) in HOSTILE.iter().enumerate() {
        obs.record_span(Layer::Core, *name, i as u32, 1.0, 10.0, &[("k\"ey", 1.0)]);
    }
    obs.count("evil\"counter", 3);
    docs.push(("chrome_trace", obs.chrome_trace()));

    let mut h = Histogram::new();
    for v in [0.25, 3.0, 1e19, f64::NAN] {
        h.record(v);
    }
    docs.push(("Histogram", h.to_json().render()));

    let mut d = Diagnostics::new();
    for (i, name) in HOSTILE.iter().enumerate() {
        d.push(
            "PF0102",
            Severity::Warn,
            Anchor::Vertex {
                id: i as u32,
                name: name.to_string(),
            },
            format!("vertex {name} is odd"),
        );
    }
    let d = d.finish();
    docs.push(("Diagnostics", d.to_json().render()));
    let lint = driver::LintOutcome {
        targets: vec![("pag:top-down", d.clone())],
    };
    docs.push(("LintOutcome", lint.to_json(HOSTILE[0]).render()));
    let mut report = perflow::Report::new(HOSTILE[1]).with_columns(&HOSTILE);
    report.push_row(HOSTILE.iter().map(|s| s.to_string()).collect());
    let query = driver::QueryOutcome {
        query: HOSTILE[4].into(),
        diagnostics: d,
        report: Some(report),
    };
    docs.push(("QueryOutcome", query.to_json(HOSTILE[2]).render()));
    let snapshot = |wall_us: f64| driver::bench_diff::BenchSnapshot {
        passes: HOSTILE.iter().map(|n| (n.to_string(), wall_us)).collect(),
    };
    let diff = driver::bench_diff::bench_diff(
        &snapshot(1_000.0),
        &snapshot(9_000.0),
        &driver::bench_diff::BenchDiffConfig::default(),
    )
    .unwrap();
    assert!(diff.regressed());
    docs.push(("BenchDiffOutcome", diff.to_json().render()));

    // An observed run's --metrics-json output.
    let pflow = PerFlow::new();
    let obs2 = Obs::enabled();
    let run = pflow
        .run(&workload(), &RunConfig::new(2).with_obs(obs2.clone()))
        .unwrap();
    let (g, _) = comm_analysis_graph(run.vertices()).unwrap();
    let out = g
        .execute_with(&ExecOptions::new().with_obs(obs2.clone()))
        .unwrap();
    docs.push(("RunMetrics", out.metrics.to_json().render()));
    docs.push((
        "empty RunMetrics",
        perflow::RunMetrics::default().to_json().render(),
    ));

    for (what, text) in &docs {
        let back = Json::parse(text)
            .unwrap_or_else(|e| panic!("{what} does not parse: {e}\n{text}"))
            .render();
        assert_eq!(&back, text, "{what} does not round-trip");
    }

    let python_ok = std::process::Command::new("python3")
        .arg("--version")
        .output()
        .is_ok();
    if !python_ok {
        eprintln!("python3 unavailable; skipping round-trip check");
        return;
    }
    for (what, text) in &docs {
        use std::io::Write as _;
        let mut child = std::process::Command::new("python3")
            .args(["-m", "json.tool"])
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn python3");
        child
            .stdin
            .take()
            .unwrap()
            .write_all(text.as_bytes())
            .unwrap();
        let out = child.wait_with_output().unwrap();
        assert!(
            out.status.success(),
            "{what} is not valid JSON: {}\n{text}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
