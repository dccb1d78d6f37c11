//! # Hybrid static-dynamic analysis (§3.2–3.4)
//!
//! This crate turns a program model plus a simulated run into Program
//! Abstraction Graphs:
//!
//! 1. **Static analysis** ([`static_analysis`]) walks the program IR —
//!    the Dyninst substitute — and produces the *top-down view* skeleton:
//!    a static expansion tree whose vertices are functions, loops,
//!    branches, calls, compute kernels and comm operations, with
//!    intra-procedural tree edges and inter-procedural call edges.
//!    Indirect call sites are marked for runtime fill-in.
//! 2. **Dynamic analysis** runs the program under [`simrt`] with the
//!    built-in sampling collection module.
//! 3. **Performance data embedding** ([`embed()`](embed::embed), §3.3) resolves each
//!    sample's calling context to the skeleton path and accumulates
//!    per-process inclusive time, PMU estimates, communication statistics
//!    and lock statistics onto the vertices. Contexts reaching through
//!    runtime-resolved indirect calls extend the skeleton on the fly;
//!    recursion beyond the static cut is clamped to the recursive call
//!    vertex.
//! 4. **Parallel view construction** ([`parallel::build_parallel_view`],
//!    §3.4) replicates the executed structure as one *flow* per process
//!    (plus per-thread flows under thread regions) and adds inter-process
//!    and inter-thread edges from the run's message and lock records.

pub mod app_folded;
pub mod embed;
mod par;
pub mod parallel;
pub mod resolve;
pub mod self_pag;
pub mod static_pag;

pub use app_folded::folded_samples;
pub use embed::{embed, embed_observed, ProfiledRun};
pub use parallel::build_parallel_view;
pub use resolve::ContextResolver;
pub use self_pag::{build_self_pag, SelfPag};
pub use static_pag::{static_analysis, StaticPag};

use progmodel::Program;
use simrt::{simulate, RunConfig, SimError};

/// End-to-end: static analysis + simulated run + embedding. This is what
/// PerFlow's `pflow.run(...)` performs under the hood.
///
/// When `cfg.obs` is enabled, each stage records `Collect`-layer spans
/// (`static_pag`, `embed.resolve`, per-rank `embed.rank`, `embed.merge`)
/// and the simulation records `Simrt`-layer spans; results are
/// bit-identical either way.
pub fn profile(prog: &Program, cfg: &RunConfig) -> Result<ProfiledRun, SimError> {
    let static_pag = {
        let _span = cfg.obs.span(obs::Layer::Collect, "static_pag", 0);
        static_analysis(prog)
    };
    let data = simulate(prog, cfg)?;
    Ok(embed_observed(prog, static_pag, data, &cfg.obs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrt::FaultPlan;

    /// `static_analysis` and `embed` promise bit-identical output at any
    /// worker count; pin the count and compare the encoded PAGs.
    #[test]
    fn outputs_are_bit_identical_at_any_worker_count() {
        let cases = [
            ("cg", workloads::cg(), RunConfig::new(16)),
            (
                "zeusmp",
                workloads::zeusmp(),
                RunConfig::new(16).with_faults(
                    FaultPlan::new()
                        .crash_rank(5, 10_000.0)
                        .with_sample_loss(0.1),
                ),
            ),
            ("vite", workloads::vite(), RunConfig::new(4).with_threads(4)),
        ];
        // Both sides of `static_pag`'s serial cutoff are exercised.
        assert!(cases.iter().any(|(_, p, _)| p.functions.len() < 8));
        assert!(cases.iter().any(|(_, p, _)| p.functions.len() >= 8));
        for (name, prog, cfg) in &cases {
            let collect_on = |workers: usize| {
                let sp = static_pag::static_analysis_on(prog, workers);
                let skeleton = pag::serialize::encode(&sp.pag);
                let data = simulate(prog, cfg).unwrap();
                assert_eq!(data.is_complete(), cfg.faults.is_inert(), "{name}");
                let run = embed::embed_on(prog, sp, data, &obs::Obs::disabled(), workers);
                (skeleton, pag::serialize::encode(&run.pag), run.space_cost())
            };
            let serial = collect_on(1);
            for workers in [2, 3, 8] {
                assert!(collect_on(workers) == serial, "{name}: workers={workers}");
            }
        }
    }
}
