//! The MPI-profiler paradigm (inspired by mpiP): a statistical profile of
//! all communication call sites.

use pag::{keys, mkeys};

use crate::graphref::{RunHandle, RunHandleExt};
use crate::passes::report_pass::format_time_us;
use crate::report::Report;

/// Profile every `MPI_*` call site of a run: time, share of total
/// aggregate time, call count, bytes, mean message size and wait share.
pub fn mpi_profiler(run: &RunHandle) -> Report {
    let pag = run.topdown();
    let total: f64 = run.data().elapsed.iter().sum::<f64>().max(1e-12);
    let comm = run.vertices().filter_name("MPI_*").sort_by(keys::COMM_TIME);
    let mut report = Report::new("MPI profile (mpiP-style)").with_columns(&[
        "call", "site", "time", "app%", "count", "bytes", "avg-msg", "wait%",
    ]);
    let mut covered = 0.0;
    for &v in &comm.ids {
        // PMPI-style exact operation time (independent of sampling).
        let time = pag.metric_f64(v, mkeys::COMM_TIME);
        let count = pag.metric_i64(v, mkeys::COUNT).unwrap_or(0);
        if count == 0 {
            continue;
        }
        covered += time;
        let bytes = pag.metric_i64(v, mkeys::COMM_BYTES).unwrap_or(0);
        let wait = pag.metric_f64(v, mkeys::WAIT_TIME);
        report.push_row(vec![
            pag.vertex_name(v).to_string(),
            pag.vstr(v, keys::DEBUG_INFO)
                .map(String::from)
                .unwrap_or_default(),
            format_time_us(time),
            format!("{:.2}", 100.0 * time / total),
            count.to_string(),
            bytes.to_string(),
            (bytes / count).to_string(),
            format!("{:.1}", 100.0 * wait / time.max(1e-12)),
        ]);
    }
    report.note(format!(
        "aggregate communication time: {} ({:.2}% of total)",
        format_time_us(covered),
        100.0 * covered / total
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::PerFlow;
    use progmodel::{c, nranks, rank, ProgramBuilder};
    use simrt::RunConfig;

    #[test]
    fn profiles_all_mpi_sites() {
        let mut pb = ProgramBuilder::new("prof");
        let main = pb.declare("main", "p.c");
        pb.define(main, |f| {
            f.loop_("it", c(500.0), |b| {
                b.compute("work", (rank() + 1.0) * c(400.0));
                b.irecv((rank() + nranks() - 1.0).rem(nranks()), c(2048.0), 0);
                b.isend((rank() + 1.0).rem(nranks()), c(2048.0), 0);
                b.waitall();
                b.allreduce(c(16.0));
            });
        });
        let prog = pb.build(main);
        let pflow = PerFlow::new();
        let run = pflow.run(&prog, &RunConfig::new(4)).unwrap();
        let report = mpi_profiler(&run);
        let text = report.render();
        assert!(text.contains("MPI_Allreduce"));
        assert!(text.contains("MPI_Waitall"));
        assert!(text.contains("MPI_Isend"));
        assert!(text.contains("aggregate communication time"));
        // Allreduce waits dominated by rank imbalance → wait% should be
        // large for it.
        let ar_row = report
            .rows
            .iter()
            .find(|r| r[0] == "MPI_Allreduce")
            .expect("allreduce row");
        let wait_pct: f64 = ar_row[7].parse().unwrap();
        assert!(wait_pct > 50.0, "allreduce wait% = {wait_pct}");
    }
}
