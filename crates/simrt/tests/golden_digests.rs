//! `RunData::digest()` pinned across commits. The engine's other
//! determinism tests compare serial against pool *within one build*; these
//! values were recorded on the commit before the interpreter was lowered
//! and its hot maps replaced, so any change to record order, CCT
//! interning order or a float's bits fails here — at every worker count.
//!
//! Next to each digest sit the run's `simrt.steps` and `simrt.segments`
//! counters. They pin the interpreter's step granularity, which decides
//! where an injected crash or hang fires; observing a run measures host
//! time only and leaves its digest alone.

use obs::Obs;
use progmodel::Program;
use simrt::{simulate, FaultPlan, RunConfig};

/// Pin a run's digest, its interpreter steps and its rank segments.
fn assert_digest(prog: &Program, cfg: RunConfig, digest: u64, steps: u64, segments: u64) {
    for workers in [1, 2, 4] {
        let run = cfg
            .clone()
            .with_sim_workers(workers)
            .with_obs(Obs::enabled());
        let data = simulate(prog, &run).unwrap();
        let got = (
            data.digest(),
            run.obs.counter("simrt.steps"),
            run.obs.counter("simrt.segments"),
        );
        assert_eq!(
            got,
            (digest, steps, segments),
            "{} {}x{} at {workers} worker(s): got {:016x}, {} steps, {} segments",
            prog.name,
            cfg.nranks,
            cfg.nthreads,
            got.0,
            got.1,
            got.2
        );
    }
}

fn cfg(ranks: u32, threads: u32, seed: u64) -> RunConfig {
    RunConfig::new(ranks).with_threads(threads).with_seed(seed)
}

#[test]
fn cg_digests() {
    assert_digest(
        &workloads::cg(),
        cfg(1024, 1, 1),
        0x7acaf7992ed43f80,
        717_824,
        77_824,
    );
    assert_digest(
        &workloads::cg(),
        cfg(128, 1, 1),
        0xf8ad8f2a7257a7d2,
        89_728,
        9_728,
    );
}

#[test]
fn zeusmp_digests() {
    assert_digest(
        &workloads::zeusmp(),
        cfg(128, 1, 1),
        0x1fc451243e64d6f5,
        944_768,
        5_248,
    );
    assert_digest(
        &workloads::zeusmp(),
        cfg(16, 1, 1),
        0xaa9c3663d3dd64de,
        118_096,
        656,
    );
}

#[test]
fn lammps_digest() {
    assert_digest(
        &workloads::lammps(),
        cfg(128, 1, 1),
        0x492a725b9f4f832c,
        230_784,
        12_928,
    );
}

#[test]
fn vite_digests() {
    assert_digest(
        &workloads::vite(),
        cfg(64, 8, 1),
        0x0cabafe296919696,
        16_640,
        832,
    );
    assert_digest(
        &workloads::vite(),
        cfg(64, 2, 1),
        0xa20739e982124104,
        16_640,
        832,
    );
}

/// Every collection fault at once plus a crash: the sample-loss map path,
/// the PMU-corruption stream, the message-drop stream and the shrunken
/// collectives all feed this digest.
#[test]
fn faulted_lammps_digest() {
    let plan = FaultPlan::new()
        .crash_rank(5, 2000.0)
        .with_message_drop(0.1, 500.0)
        .with_sample_loss(0.2)
        .with_pmu_corruption(0.1);
    let run = cfg(64, 1, 7).with_faults(plan);
    assert_digest(
        &workloads::lammps(),
        run.clone(),
        0x3bfe4399b192638c,
        114_489,
        6_331,
    );
    let data = simulate(&workloads::lammps(), &run).unwrap();
    assert_eq!(data.retransmits, 342);
    assert_eq!(data.pmu_corrupted, 8804);
}

/// A parameter override and a slow rank: both are folded into the bound
/// program / the rank state before the first step.
#[test]
fn overridden_zeusmp_digest() {
    let run = cfg(32, 1, 3)
        .with_param("class_scale", 2.5)
        .with_slow_rank(3, 1.7);
    assert_digest(
        &workloads::zeusmp(),
        run,
        0x6449908c5dd82134,
        236_192,
        1_312,
    );
}
