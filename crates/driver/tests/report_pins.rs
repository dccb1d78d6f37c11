//! Byte-level pins of the reports `driver::analyze` renders for each
//! paradigm that executes a PerFlowGraph, at the CLI's default scales
//! (16 ranks, 4-rank reference run, seed 0x5EED). A change to a
//! paradigm's wiring, a pass, or the report layout moves a digest.
//! Two degraded runs (30 % of samples lost) cover the completeness
//! weighting of the hotspot and imbalance stages.

use driver::{analyze, fnv_str, AnalysisConfig, Paradigm};
use perflow::PerFlow;
use simrt::{FaultPlan, RunConfig};

fn report_digest(workload: &str, paradigm: Paradigm, threads: u32, sample_loss: f64) -> u64 {
    let cfg = AnalysisConfig {
        threads,
        ..AnalysisConfig::default()
    };
    let pflow = PerFlow::new();
    let prog = driver::workload(workload).unwrap();
    let mut faults = FaultPlan::new();
    if sample_loss > 0.0 {
        faults = faults.with_sample_loss(sample_loss);
    }
    let run = pflow
        .run(
            &prog,
            &RunConfig::new(cfg.ranks)
                .with_threads(cfg.threads)
                .with_seed(cfg.seed)
                .with_faults(faults),
        )
        .unwrap();
    let report = analyze(&pflow, &prog, &run, paradigm, &cfg).unwrap();
    fnv_str(&report.render())
}

#[test]
fn paradigm_report_digest_is_pinned() {
    let cases: [(&str, Paradigm, u32, f64, u64); 8] = [
        (
            "zeusmp",
            Paradigm::Scalability,
            1,
            0.0,
            0x892e_5692_4814_2075,
        ),
        (
            "zeusmp",
            Paradigm::Scalability,
            1,
            0.3,
            0xf678_12f0_ae52_cde1,
        ),
        ("lammps", Paradigm::Causal, 1, 0.0, 0xefe9_18bf_35fd_decb),
        ("vite", Paradigm::Contention, 4, 0.0, 0x6c38_63aa_2213_4212),
        ("vite", Paradigm::Contention, 4, 0.3, 0x63a8_0653_8dde_5e42),
        (
            "lammps",
            Paradigm::CriticalPath,
            1,
            0.0,
            0x8a8c_13c6_2c2f_79c7,
        ),
        (
            "zeusmp",
            Paradigm::CriticalPath,
            1,
            0.0,
            0xc54b_0b18_2eac_102e,
        ),
        ("cg", Paradigm::Hotspot, 1, 0.0, 0x898e_f354_58f9_4e51),
    ];
    for (workload, paradigm, threads, loss, want) in cases {
        let got = report_digest(workload, paradigm, threads, loss);
        assert_eq!(
            got,
            want,
            "{workload} {} (threads {threads}, sample loss {loss}): {got:#018x}",
            paradigm.name()
        );
    }
}
