//! **Parallel profiling pipeline** — serial-vs-parallel speedup of the
//! phase-based simulation engine and the hit rate of the pass-result
//! cache, the two acceptance criteria of the event-driven execution
//! work:
//!
//! 1. an 8-rank ZeusMP-style profiling run on the worker pool must
//!    produce **byte-identical** `RunData` (asserted via
//!    [`simrt::RunData::digest`]) and, on an idle multicore host, run
//!    ≥ 2× faster than the one-rank-at-a-time serial engine;
//! 2. re-executing an unchanged PerFlowGraph against a `PassCache` must
//!    hit the cache on every node (asserted on the cache counters).
//!
//! The workload is a ZeusMP-shaped timestep loop (bulk MHD sweep →
//! imbalanced boundary fill → halo exchange → allreduce) with chunky
//! per-phase compute, so each rank's segment carries enough simulation
//! work to amortize the phase handshake. The correctness assertions are
//! host-independent; the speedup row is informational on hosts with few
//! cores (it is printed next to the detected core count).
//!
//! ```sh
//! cargo bench --bench parallel_speedup
//! ```

use bench::{median_secs, print_table};
use criterion::{criterion_group, criterion_main, Criterion};
use perflow::paradigms::comm_analysis_graph;
use perflow::{ExecOptions, PassCache, PerFlow, RunHandleExt};
use progmodel::{c, noise, nranks, rank, Program, ProgramBuilder};
use simrt::{simulate, RunConfig};

const RANKS: u32 = 8;

/// ZeusMP-shaped workload with chunky per-phase compute: every rank
/// simulates thousands of statements between communication points, so
/// the phase segments dominate the pool handshake.
fn zeusmp_style() -> Program {
    let mut pb = ProgramBuilder::new("ZMP-bench");
    let main = pb.declare("main", "zeusmp.F");
    let hsmoc = pb.declare("hsmoc", "hsmoc.F");
    let bvald = pb.declare("bvald", "bvald.F");
    pb.define(hsmoc, |f| {
        f.loop_("mhd_sweep", c(2_500.0), |b| {
            b.compute("hsmoc_cell", c(40.0) / nranks() * noise(0.03, 7));
        });
    });
    pb.define(bvald, |f| {
        // Boundary ranks do extra fill work, as in the §5.3 case study.
        let surplus = rank().rem(c(8.0)).lt(1.0).select(c(90.0), c(0.0));
        f.loop_("loop_10", c(600.0), |b| {
            b.compute(
                "bvald_fill",
                (c(160.0) + surplus) / nranks() * noise(0.04, 11),
            );
        });
        f.irecv((rank() + nranks() - 1.0).rem(nranks()), c(12_288.0), 3);
        f.isend((rank() + 1.0).rem(nranks()), c(12_288.0), 3);
        f.waitall();
    });
    pb.define(main, |f| {
        f.loop_("timestep", c(8.0), |b| {
            b.call(hsmoc);
            b.call(bvald);
            b.allreduce(c(8.0));
        });
    });
    pb.build(main)
}

fn cfg(workers: usize) -> RunConfig {
    RunConfig::new(RANKS).with_sim_workers(workers)
}

/// Serial vs pooled profiling of the same run: identical bytes, less
/// wall clock (given cores to run on).
fn bench_sim_speedup(c: &mut Criterion) {
    let prog = zeusmp_style();

    // Correctness first: the pool must not change a single byte.
    let serial = simulate(&prog, &cfg(1)).expect("serial run failed");
    let pooled = simulate(&prog, &cfg(RANKS as usize)).expect("pooled run failed");
    assert_eq!(
        serial.digest(),
        pooled.digest(),
        "parallel simulation must be bit-identical to serial"
    );

    let mut group = c.benchmark_group("sim_speedup");
    group.sample_size(10);
    group.bench_function("zeusmp_8ranks_serial", |b| {
        b.iter(|| simulate(&prog, &cfg(1)).unwrap())
    });
    group.bench_function("zeusmp_8ranks_pooled", |b| {
        b.iter(|| simulate(&prog, &cfg(RANKS as usize)).unwrap())
    });
    group.finish();

    let reps = 5;
    let t_serial = median_secs(reps, || {
        simulate(&prog, &cfg(1)).unwrap();
    });
    let t_pooled = median_secs(reps, || {
        simulate(&prog, &cfg(RANKS as usize)).unwrap();
    });
    let speedup = t_serial / t_pooled.max(1e-12);
    print_table(
        &format!("ZeusMP-style {RANKS}-rank profiling: serial vs worker pool"),
        &["engine", "median(ms)", "speedup", "digest"],
        &[
            vec![
                "serial".into(),
                format!("{:.2}", t_serial * 1e3),
                "1.00x".into(),
                format!("{:016x}", serial.digest()),
            ],
            vec![
                format!("pool({RANKS})"),
                format!("{:.2}", t_pooled * 1e3),
                format!("{speedup:.2}x"),
                format!("{:016x}", pooled.digest()),
            ],
        ],
    );
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "\nspeedup target: >= 2x on an idle multicore host \
         (got {speedup:.2}x on {cores} core(s); bytes identical: yes)"
    );
}

/// Cache hit rate when re-executing an unchanged PerFlowGraph.
fn bench_pass_cache(c: &mut Criterion) {
    let pflow = PerFlow::new();
    let run = pflow
        .run(&zeusmp_style(), &RunConfig::new(RANKS))
        .expect("profiling run failed");
    let (g, _) = comm_analysis_graph(run.vertices()).expect("paradigm wiring failed");
    let nodes = g.len() as u64;

    // Correctness first: a warm cache must answer every node.
    let cache = PassCache::new();
    let cached = ExecOptions::new().with_cache(&cache);
    let cold = g.execute_with(&cached).expect("cold run failed");
    assert_eq!(cache.stats().misses, nodes, "cold run fills every node");
    let warm = g.execute_with(&cached).expect("warm run failed");
    assert_eq!(
        cache.stats().hits,
        nodes,
        "re-executing an unchanged graph must hit the cache on every node"
    );
    assert_eq!(cold.trail, warm.trail);

    let mut group = c.benchmark_group("pass_cache");
    group.sample_size(20);
    group.bench_function("comm_graph_uncached", |b| b.iter(|| g.execute().unwrap()));
    let warm_cache = PassCache::new();
    let warm_opts = ExecOptions::new().with_cache(&warm_cache);
    g.execute_with(&warm_opts).unwrap();
    group.bench_function("comm_graph_cached", |b| {
        b.iter(|| g.execute_with(&warm_opts).unwrap())
    });
    group.finish();

    let reps = 9;
    let t_uncached = median_secs(reps, || {
        g.execute().unwrap();
    });
    let t_cached = median_secs(reps, || {
        g.execute_with(&warm_opts).unwrap();
    });
    let stats = warm_cache.stats();
    print_table(
        "PerFlowGraph re-execution: uncached vs warm pass cache",
        &["mode", "median(us)", "hit rate"],
        &[
            vec![
                "uncached".into(),
                format!("{:.1}", t_uncached * 1e6),
                "-".into(),
            ],
            vec![
                "cached".into(),
                format!("{:.1}", t_cached * 1e6),
                format!("{:.1}%", stats.hit_rate() * 100.0),
            ],
        ],
    );
}

criterion_group!(benches, bench_sim_speedup, bench_pass_cache);
criterion_main!(benches);
