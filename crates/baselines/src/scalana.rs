//! ScalAna-style monolithic scaling-loss analyzer.
//!
//! ScalAna (Jin et al., SC'20) builds a Program Structure Graph, detects
//! scaling loss with a differential model and backtracks dependence to
//! root causes — exactly what PerFlow's scalability paradigm composes
//! from reusable passes. Here the same analysis is written the ScalAna
//! way: one special-purpose function with the differential model, the
//! imbalance detector and the backtracking walker hard-wired together and
//! no reusable intermediate abstractions. Besides validating PerFlow's
//! paradigm output, this module is the LoC-comparison artifact of §5.3
//! ("the source code of ScalAna has thousands of lines" vs. 27 lines of
//! PerFlow APIs) — see `bench`'s comparison table, which counts the lines
//! of both implementations.

use std::collections::{HashMap, HashSet};

use collect::ProfiledRun;
use pag::{keys, mkeys, VertexId};

/// A detected root cause.
#[derive(Debug, Clone)]
pub struct ScalAnaCause {
    /// Snippet name.
    pub name: String,
    /// Debug info.
    pub site: String,
    /// Scaling loss attributed (µs of aggregate time growth).
    pub loss_us: f64,
    /// Imbalance factor at the large scale.
    pub imbalance: f64,
}

/// The analyzer output.
#[derive(Debug, Clone)]
pub struct ScalAnaReport {
    /// Root causes sorted by loss.
    pub causes: Vec<ScalAnaCause>,
    /// Number of dependence edges walked.
    pub edges_walked: usize,
}

impl ScalAnaReport {
    /// Render the report.
    pub fn render(&self) -> String {
        let mut out = String::from("--- scalana-style scaling analysis ---\n");
        for c in &self.causes {
            out.push_str(&format!(
                "loss {:>12.1}us  imb {:>5.2}  {:<24} {}\n",
                c.loss_us, c.imbalance, c.name, c.site
            ));
        }
        out.push_str(&format!(
            "(walked {} dependence edges)\n",
            self.edges_walked
        ));
        out
    }
}

/// Run the monolithic analysis over a small and a large run.
pub fn scalana_analyze(small: &ProfiledRun, large: &ProfiledRun, top_n: usize) -> ScalAnaReport {
    // --- Phase 1: differential model (inline, special-purpose). -------
    let n = small.pag.num_vertices().min(large.pag.num_vertices());
    let mut loss: Vec<(VertexId, f64)> = Vec::new();
    for i in 0..n as u32 {
        let v = VertexId(i);
        let l = large.pag.metric_f64(v, mkeys::TIME) - small.pag.metric_f64(v, mkeys::TIME);
        if l > 0.0 {
            loss.push((v, l));
        }
    }
    loss.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    loss.truncate(top_n.max(8));
    let loss_of: HashMap<VertexId, f64> = loss.iter().copied().collect();

    // --- Phase 2: imbalance detector (inline). -------------------------
    let imb_of = |run: &ProfiledRun, v: VertexId| -> f64 {
        run.pag
            .metric_vec(v, mkeys::TIME_PER_PROC)
            .and_then(pag::VertexStats::from_slice)
            .map(|s| s.imbalance())
            .unwrap_or(0.0)
    };

    // --- Phase 3: backtracking over dependence records (inline). ------
    // Walk msg-edge dependencies backwards from lossy comm contexts to
    // the earliest origins, then attribute to the origin's non-comm
    // predecessor in the static tree.
    let mut dep_from: HashMap<VertexId, Vec<VertexId>> = HashMap::new();
    for e in &large.data.msg_edges {
        if let (Some(s), Some(d)) = (large.ctx_leaf(e.src_ctx), large.ctx_leaf(e.dst_ctx)) {
            dep_from.entry(d).or_default().push(s);
        }
    }
    let mut edges_walked = 0usize;
    let mut origins: HashSet<VertexId> = HashSet::new();
    for &v in loss_of.keys() {
        let mut cur = v;
        let mut seen = HashSet::new();
        while seen.insert(cur) {
            match dep_from.get(&cur).and_then(|d| d.first()).copied() {
                Some(prev) => {
                    edges_walked += 1;
                    cur = prev;
                }
                None => break,
            }
        }
        // Attribute comm origins to the code before them.
        let mut origin = cur;
        for _ in 0..64 {
            if !large.pag.vertex(origin).label.is_comm() {
                break;
            }
            let Some(&pe) = large.pag.in_edges(origin).first() else {
                break;
            };
            let parent = large.pag.edge(pe).src;
            // Previous sibling (tree order) or parent.
            let siblings: Vec<VertexId> = large.pag.out_neighbors(parent).collect();
            let pos = siblings.iter().position(|&s| s == origin).unwrap_or(0);
            origin = if pos == 0 { parent } else { siblings[pos - 1] };
        }
        origins.insert(origin);
    }

    // --- Phase 4: rank causes. -----------------------------------------
    let mut causes: Vec<ScalAnaCause> = origins
        .into_iter()
        .map(|v| ScalAnaCause {
            name: large.pag.vertex_name(v).to_string(),
            site: large
                .pag
                .vstr(v, keys::DEBUG_INFO)
                .unwrap_or_default()
                .to_string(),
            loss_us: loss_of.get(&v).copied().unwrap_or_else(|| {
                large.pag.metric_f64(v, mkeys::TIME) - small.pag.metric_f64(v, mkeys::TIME)
            }),
            imbalance: imb_of(large, v),
        })
        .collect();
    causes.sort_by(|a, b| {
        b.loss_us
            .total_cmp(&a.loss_us)
            .then(b.imbalance.total_cmp(&a.imbalance))
            .then(a.name.cmp(&b.name))
    });
    causes.truncate(top_n);
    ScalAnaReport {
        causes,
        edges_walked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use progmodel::{c, noise, nranks, rank, ProgramBuilder};
    use simrt::RunConfig;

    fn prog() -> progmodel::Program {
        let mut pb = ProgramBuilder::new("sa");
        let main = pb.declare("main", "sa.f");
        pb.define(main, |f| {
            f.loop_("step", c(40.0), |b| {
                b.loop_("loop_bound", c(6.0), |l| {
                    l.compute(
                        "bound_fill",
                        rank().rem(c(4.0)).lt(1.0).select(c(400.0), c(150.0)) * noise(0.05, 3),
                    );
                });
                b.irecv((rank() + nranks() - 1.0).rem(nranks()), c(2048.0), 0);
                b.isend((rank() + 1.0).rem(nranks()), c(2048.0), 0);
                b.waitall();
                b.allreduce(c(8.0));
            });
        });
        pb.build(main)
    }

    #[test]
    fn finds_the_imbalanced_loop_like_perflow_does() {
        let p = prog();
        let small = collect::profile(&p, &RunConfig::new(4)).unwrap();
        let large = collect::profile(&p, &RunConfig::new(16)).unwrap();
        let report = scalana_analyze(&small, &large, 5);
        assert!(!report.causes.is_empty());
        let names: Vec<&str> = report.causes.iter().map(|c| c.name.as_str()).collect();
        assert!(
            names
                .iter()
                .any(|n| *n == "bound_fill" || *n == "loop_bound"),
            "causes {names:?}"
        );
        assert!(report.render().contains("scalana"));
    }
}
