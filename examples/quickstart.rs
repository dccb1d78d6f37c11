//! Quickstart: profile a small MPI+threads program, inspect both PAG
//! views, and run a first analysis.
//!
//! ```sh
//! cargo run --bin quickstart
//! ```

use perflow::{PerFlow, RunHandleExt};
use progmodel::{c, nthreads, rank, ProgramBuilder};
use simrt::RunConfig;

fn main() {
    // 1. Describe a program (the substitute for an executable binary):
    //    an MPI+Pthreads program like the paper's Listing 2.
    let mut pb = ProgramBuilder::new("quickstart");
    let main_fn = pb.declare("main", "quickstart.c");
    let worker = pb.declare("worker", "quickstart.c");
    pb.define(worker, |f| {
        // Rank-dependent work: rank r costs (r+1) × 200 µs per call.
        f.compute("add", (rank() + 1.0) * c(200.0));
    });
    pb.define(main_fn, |f| {
        f.loop_("loop_1", c(500.0), |b| {
            b.call(worker);
            // An OpenMP-style region.
            b.thread_region(nthreads(), |t| {
                t.compute("thread_work", c(120.0));
            });
            b.allreduce(c(64.0));
        });
    });
    let prog = pb.build(main_fn);

    // 2. Run it: `pflow.run(bin, cmd)` — 4 processes × 4 threads.
    let pflow = PerFlow::new();
    let cfg = RunConfig::new(4).with_threads(4);
    let run = pflow.run(&prog, &cfg).expect("simulation failed");

    println!("== run summary ==");
    println!(
        "ranks: {}  threads/rank: {}  makespan: {:.2} ms",
        run.data().nranks,
        run.data().nthreads,
        run.data().total_time / 1e3
    );

    // 3. The top-down view of the PAG.
    let td = run.topdown();
    println!(
        "top-down view: {} vertices, {} edges",
        td.num_vertices(),
        td.num_edges()
    );

    // 4. The parallel view.
    let pv = run.parallel();
    println!(
        "parallel view: {} vertices, {} edges",
        pv.num_vertices(),
        pv.num_edges()
    );

    // 5. Read metrics through the typed accessors. Metric keys are
    //    interned `KeyId`s (re-exported as `perflow::mkeys`), so the hot
    //    path never hashes a string — `metric_f64` is an O(1) column
    //    lookup. String properties (`debug-info`) read through `vstr`.
    let total: f64 = td
        .vertex_ids()
        .map(|v| td.metric_f64(v, perflow::mkeys::SELF_TIME))
        .sum();
    println!("total self time (typed accessors): {:.2} ms", total / 1e3);

    // 6. A first analysis: hotspots, then imbalance.
    let hot = pflow.hotspot_detection(&run.vertices(), 5);
    let imb = pflow.imbalance_analysis(&hot, 0.2);
    let report = pflow.report(&[&imb], &["name", "debug-info", "time", "score"]);
    println!("\n{}", report.render());

    // 7. Graphical output (DOT) of the hot subgraph.
    let dot = perflow::Report::set_to_dot(&hot);
    println!("(DOT output: {} bytes — pipe to `dot -Tsvg`)", dot.len());
}
