//! **Figure 10** — Backtracking-analysis results on the parallel view of
//! ZeusMP's PAG: boxed imbalanced process vertices, red arrows showing
//! how the waits propagate back to `loop_10.1` in `bvald_`.
//!
//! Paper conclusion: "the load imbalance [of loop_10.1 at bvald.F:358]
//! propagates through three non-blocking point-to-point communications
//! and causes the poor scalability of mpi_allreduce_". Shape to hold:
//! backtracking from the imbalanced waitall/allreduce flow vertices
//! reaches the bvald boundary loop of another rank over inter-process
//! edges.

use bench::bench_large_ranks;
use perflow::paradigms::scalability_analysis;
use perflow::PerFlow;
use simrt::RunConfig;

fn main() {
    let pflow = PerFlow::new();
    let prog = workloads::zeusmp();
    let small = pflow.run(&prog, &RunConfig::new(16)).unwrap();
    let large = pflow
        .run(&prog, &RunConfig::new(bench_large_ranks()))
        .unwrap();

    let result = scalability_analysis(&small, &large, 10, 0.2).unwrap();
    println!("{}", result.report.render());

    // Print a sample of the backtracked propagation paths (Fig. 10's red
    // arrows): inter-process edges walked.
    let pv = result.backtrack_edges.graph.pag();
    println!("sample propagation edges (dst ← src):");
    let mut shown = 0;
    for &e in &result.backtrack_edges.ids {
        let ed = pv.edge(e);
        if !ed.label.is_inter_process() {
            continue;
        }
        let (s, d) = (pv.vertex(ed.src), pv.vertex(ed.dst));
        println!(
            "  {}@p{} ← {}@p{}   (wait {:.1} ms over {} instances)",
            d.name,
            pv.metric_i64(ed.dst, pag::mkeys::PROC).unwrap_or(-1),
            s.name,
            pv.metric_i64(ed.src, pag::mkeys::PROC).unwrap_or(-1),
            pv.emetric_f64(e, pag::mkeys::WAIT_TIME) / 1e3,
            pv.emetric_i64(e, pag::mkeys::COUNT).unwrap_or(0),
        );
        shown += 1;
        if shown >= 10 {
            break;
        }
    }

    // Shape check: the paper identifies loop_10.1 in bvald_.
    let causes = &result.root_causes;
    let pag = causes.graph.pag();
    assert!(
        causes.ids.iter().any(|&v| {
            pag.vertex(v).label == pag::VertexLabel::Loop
                && pag
                    .vstr(v, pag::keys::DEBUG_INFO)
                    .is_some_and(|d| d.starts_with("bvald.F"))
        }),
        "no bvald.F loop among the root causes:\n{}",
        result.report.render()
    );
}
