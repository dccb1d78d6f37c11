//! Folded-stack export of the *simulated application's* sampled calling
//! contexts — the profiled-program counterpart of the engine-side
//! `Obs::folded_stacks`.
//!
//! Each CCT sample path becomes one folded line (frames resolved to
//! function/statement names through the program IR, joined by `;`), with
//! the value in sampled microseconds (sample count × sampling period)
//! when the period is known, raw sample counts otherwise. Samples are
//! aggregated across ranks and threads, the way a flamegraph aggregates
//! threads; output lines are sorted and deterministic.

use std::collections::{BTreeMap, HashMap};

use obs::{render_folded, sanitize_frame};
use progmodel::{Program, StmtKind};
use simrt::{CtxFrame, RunData};

/// Resolve every statement id to its display name.
fn stmt_names(prog: &Program) -> HashMap<u32, String> {
    let mut names = HashMap::new();
    prog.visit_stmts(|_, s| {
        let name: String = match &s.kind {
            StmtKind::Compute { name, .. }
            | StmtKind::Loop { name, .. }
            | StmtKind::Branch { name, .. }
            | StmtKind::Lock { name, .. } => name.to_string(),
            StmtKind::Call { .. } => "call".to_string(),
            StmtKind::Comm(op) => op.mpi_name().to_string(),
            StmtKind::ThreadRegion { .. } => "thread_region".to_string(),
        };
        names.insert(s.id.0, name);
    });
    names
}

/// Collapse the run's sample counts into folded stacks. Values are µs
/// (a stack's total count × sampling period, rounded once) when the run
/// sampled on a period, raw counts otherwise. Empty string when the run
/// has no samples.
pub fn folded_samples(prog: &Program, data: &RunData) -> String {
    let names = stmt_names(prog);
    let scale = data.sample_period_us.unwrap_or(1.0);
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for (&(ctx, _rank, _thread), &count) in &data.samples {
        let mut stack = String::new();
        for frame in data.cct.path(ctx) {
            if !stack.is_empty() {
                stack.push(';');
            }
            let frame_name = match frame {
                CtxFrame::Func(fid) => sanitize_frame(&prog.function(fid).name),
                CtxFrame::Stmt(sid) => names
                    .get(&sid.0)
                    .map(|n| sanitize_frame(n))
                    .unwrap_or_else(|| format!("stmt_{}", sid.0)),
            };
            stack.push_str(&frame_name);
        }
        if stack.is_empty() {
            continue;
        }
        *counts.entry(stack).or_insert(0) += count;
    }
    // Round per stack, not per (rank, thread) bucket, so a stack's value
    // does not depend on how its samples split across ranks.
    let stacks = counts
        .into_iter()
        .map(|(stack, n)| (stack, (n as f64 * scale).round() as u64))
        .collect();
    render_folded(&stacks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile;
    use progmodel::{c, ProgramBuilder};
    use simrt::{CollectionConfig, RunConfig};

    fn fold_prog(trips: f64, kernel_us: f64) -> Program {
        let mut pb = ProgramBuilder::new("fold");
        let main = pb.declare("main", "f.c");
        pb.define(main, |f| {
            f.loop_("outer", c(trips), |b| {
                b.compute("kernel", c(kernel_us));
            });
        });
        pb.build(main)
    }

    #[test]
    fn sampled_run_produces_rooted_stacks() {
        // The second run samples each rank's kernel once on a 2.5 µs
        // period: 64 × 2.5 = 160 µs, where rounding every rank's bucket
        // first would read 64 × 3 = 192.
        let fractional = RunConfig::new(64).with_collection(CollectionConfig {
            sampling_period_us: Some(2.5),
            sample_cost_us: 0.0,
            ..CollectionConfig::default()
        });
        let runs = [
            (fold_prog(20.0, 500.0), RunConfig::new(2)),
            (fold_prog(1.0, 3.0), fractional),
        ];
        let folded: Vec<String> = runs
            .iter()
            .map(|(p, cfg)| folded_samples(p, &profile(p, cfg).unwrap().data))
            .collect();
        for folded in &folded {
            assert!(!folded.is_empty());
            // Every stack starts at the entry function.
            for line in folded.lines() {
                assert!(line.starts_with("main"), "{line}");
                let (_, v) = line.rsplit_once(' ').unwrap();
                v.parse::<u64>().unwrap();
            }
            // The hot kernel appears under its loop.
            assert!(
                folded.lines().any(|l| l.contains("outer;kernel")),
                "{folded}"
            );
        }
        assert!(
            folded[1].lines().any(|l| l == "main;outer;kernel 160"),
            "{}",
            folded[1]
        );
    }

    #[test]
    fn deterministic_output() {
        let mut pb = ProgramBuilder::new("det");
        let main = pb.declare("main", "d.c");
        pb.define(main, |f| {
            f.compute("work", c(800.0));
        });
        let p = pb.build(main);
        let a = profile(&p, &RunConfig::new(2)).unwrap();
        let b = profile(&p, &RunConfig::new(2)).unwrap();
        assert_eq!(folded_samples(&p, &a.data), folded_samples(&p, &b.data));
    }
}
