//! **Figure 9** — Output vertices of the differential-analysis pass on
//! ZeusMP's top-down view.
//!
//! Paper: comparing 16 vs 2,048 processes detects `Loop`,
//! `mpi_waitall_` and `mpi_allreduce_` vertices with scaling loss. Shape
//! to hold: the same three kinds of vertices (the boundary loop and the
//! waitall/allreduce chain) top the loss ranking.

use bench::{bench_large_ranks, print_table};
use perflow::PerFlow;
use simrt::RunConfig;

fn main() {
    let pflow = PerFlow::new();
    let prog = workloads::zeusmp();
    let small_ranks = 16;
    let large_ranks = bench_large_ranks();
    let small = pflow.run(&prog, &RunConfig::new(small_ranks)).unwrap();
    let large = pflow.run(&prog, &RunConfig::new(large_ranks)).unwrap();

    let diff = pflow.differential_analysis(&large, &small, 1.0).unwrap();
    let pag = diff.graph.pag();
    let rows: Vec<Vec<String>> = diff
        .ids
        .iter()
        .take(12)
        .map(|&v| {
            vec![
                pag.vertex_name(v).to_string(),
                pag.vertex(v).label.name().to_string(),
                pag.vstr(v, pag::keys::DEBUG_INFO)
                    .unwrap_or_default()
                    .to_string(),
                format!("{:.1}", diff.score(v) / 1e3),
            ]
        })
        .collect();
    print_table(
        &format!("Fig. 9: differential analysis on ZeusMP ({small_ranks} vs {large_ranks} ranks)"),
        &["vertex", "label", "site", "loss(ms)"],
        &rows,
    );

    // Shape assertion for EXPERIMENTS.md.
    let top_names: Vec<&str> = diff
        .ids
        .iter()
        .take(12)
        .map(|&v| pag.vertex_name(v))
        .collect();
    let hits = [
        "MPI_Waitall",
        "MPI_Allreduce",
        "loop_10.1",
        "loop_10",
        "bvald_fill",
    ]
    .iter()
    .filter(|n| top_names.contains(n))
    .count();
    println!(
        "\nshape check: {hits}/5 expected loss vertices (waitall/allreduce/boundary loop) in top 12 — paper detects the same three kinds"
    );
}
