//! HPCToolkit-style sampling profiler.
//!
//! HPCToolkit samples call stacks and attributes time to calling
//! contexts; `hpcviewer` presents loop-level hotspots, and differential
//! profiles of two scales expose scalability losses (Coarfa et al.). What
//! it does *not* do is explain propagation: "the root cause of poor
//! scalability and the underlying reasons cannot be easily obtained"
//! (§5.3). This module reproduces the scaling-loss view from
//! [`collect::ProfiledRun`] data.

use collect::ProfiledRun;
use pag::{keys, mkeys, VertexId};

/// One scaling-loss row.
#[derive(Debug, Clone)]
pub struct HpcRow {
    /// Code snippet name.
    pub name: String,
    /// Debug info (`file:line`).
    pub site: String,
    /// µs of loss.
    pub value: f64,
    /// Percentage of total.
    pub pct: f64,
}

/// The HPCToolkit-style report.
#[derive(Debug, Clone)]
pub struct HpcToolkitReport {
    /// Report kind ("scaling losses").
    pub kind: &'static str,
    /// Rows sorted by value descending.
    pub rows: Vec<HpcRow>,
}

impl HpcToolkitReport {
    /// Render the viewer-style table.
    pub fn render(&self) -> String {
        let mut out = format!("--- hpcviewer: {} ---\n", self.kind);
        for r in &self.rows {
            out.push_str(&format!(
                "{:>8.2}% {:>12.1}us  {:<28} {}\n",
                r.pct, r.value, r.name, r.site
            ));
        }
        out
    }
}

fn row(run: &ProfiledRun, v: VertexId, value: f64, total: f64) -> HpcRow {
    HpcRow {
        name: run.pag.vertex_name(v).to_string(),
        site: run
            .pag
            .vstr(v, keys::DEBUG_INFO)
            .unwrap_or_default()
            .to_string(),
        value,
        pct: 100.0 * value / total.max(1e-12),
    }
}

/// Scaling losses: per-vertex `time(large) - time(small)` of aggregate
/// inclusive time (expected to stay flat under ideal strong scaling).
/// Requires same-binary runs (identical skeletons).
pub fn hpctoolkit_scaling(
    small: &ProfiledRun,
    large: &ProfiledRun,
    top_n: usize,
) -> HpcToolkitReport {
    let n = small.pag.num_vertices().min(large.pag.num_vertices());
    let total_loss: f64 = {
        let ts: f64 = small.data.elapsed.iter().sum();
        let tl: f64 = large.data.elapsed.iter().sum();
        (tl - ts).max(1e-12)
    };
    let mut rows: Vec<(VertexId, f64)> = (0..n as u32)
        .map(VertexId)
        .map(|v| {
            let loss = large.pag.metric_f64(v, mkeys::SELF_TIME)
                - small.pag.metric_f64(v, mkeys::SELF_TIME);
            (v, loss)
        })
        .filter(|&(_, l)| l > 0.0)
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    rows.truncate(top_n);
    HpcToolkitReport {
        kind: "scaling losses",
        rows: rows
            .into_iter()
            .map(|(v, l)| row(large, v, l, total_loss))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use progmodel::{c, nranks, rank, ProgramBuilder};
    use simrt::RunConfig;

    fn prog() -> progmodel::Program {
        let mut pb = ProgramBuilder::new("hpc");
        let main = pb.declare("main", "h.c");
        pb.define(main, |f| {
            f.loop_("it", c(400.0), |b| {
                // Kernel scales; the serial section does not.
                b.compute("kernel", c(4000.0) / nranks());
                b.compute("serial_section", c(300.0) * progmodel::noise(0.05, 77));
                b.allreduce(c(8.0));
            });
        });
        let _ = rank();
        pb.build(main)
    }

    #[test]
    fn scaling_losses_rank_serial_section_first() {
        let small = collect::profile(&prog(), &RunConfig::new(2)).unwrap();
        let large = collect::profile(&prog(), &RunConfig::new(16)).unwrap();
        let report = hpctoolkit_scaling(&small, &large, 5);
        assert!(!report.rows.is_empty());
        // The non-scaling serial section (or the allreduce waits it
        // causes) tops the loss list; the well-scaling kernel must not.
        assert_ne!(report.rows[0].name, "kernel", "{:?}", report.rows);
        assert!(report.render().contains("hpcviewer: scaling losses"));
    }
}
