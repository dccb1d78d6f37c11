//! Property-based tests over core invariants, spanning crates: random
//! programs are generated, simulated and analyzed; structural and timing
//! invariants must always hold.

use progmodel::{c, nranks, rank, Expr, ProgramBuilder};
use proptest::prelude::*;
use simrt::{simulate, RunConfig};

/// A tiny random program description.
#[derive(Debug, Clone)]
struct RandProgram {
    kernels: Vec<(u32, bool)>, // (cost 1..=500 µs, rank_scaled)
    iters: u32,
    use_allreduce: bool,
    use_ring: bool,
    nranks: u32,
    seed: u64,
}

fn rand_program_strategy() -> impl Strategy<Value = RandProgram> {
    (
        prop::collection::vec((1u32..=500, any::<bool>()), 1..6),
        1u32..=20,
        any::<bool>(),
        any::<bool>(),
        2u32..=8,
        any::<u64>(),
    )
        .prop_map(
            |(kernels, iters, use_allreduce, use_ring, nranks, seed)| RandProgram {
                kernels,
                iters,
                use_allreduce,
                use_ring,
                nranks,
                seed,
            },
        )
}

fn build(rp: &RandProgram) -> progmodel::Program {
    let mut pb = ProgramBuilder::new("prop");
    let main = pb.declare("main", "p.c");
    let kernels = rp.kernels.clone();
    let use_allreduce = rp.use_allreduce;
    let use_ring = rp.use_ring;
    pb.define(main, |f| {
        f.loop_("it", c(rp.iters as f64), |b| {
            for (i, (cost, scaled)) in kernels.iter().enumerate() {
                let e: Expr = if *scaled {
                    (rank() + 1.0) * c(*cost as f64)
                } else {
                    c(*cost as f64)
                };
                b.compute(&format!("k{i}"), e);
            }
            if use_ring {
                b.irecv((rank() + nranks() - 1.0).rem(nranks()), c(256.0), 0);
                b.isend((rank() + 1.0).rem(nranks()), c(256.0), 0);
                b.waitall();
            }
            if use_allreduce {
                b.allreduce(c(16.0));
            }
        });
    });
    pb.build(main)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Simulation must terminate, be deterministic, and produce clocks
    /// that never run backwards.
    #[test]
    fn simulation_invariants(rp in rand_program_strategy()) {
        let prog = build(&rp);
        let cfg = RunConfig::new(rp.nranks).with_seed(rp.seed);
        let a = simulate(&prog, &cfg).unwrap();
        let b = simulate(&prog, &cfg).unwrap();
        prop_assert_eq!(a.total_time, b.total_time);
        prop_assert!(a.total_time >= 0.0);
        prop_assert_eq!(a.elapsed.len(), rp.nranks as usize);
        for r in &a.comm_records {
            prop_assert!(r.complete >= r.post, "comm record went backwards");
            prop_assert!(r.wait >= 0.0);
            prop_assert!(r.wait <= r.complete - r.post + 1e-9);
        }
        // Collectives (if present) synchronize: with an allreduce last in
        // the loop body, final clocks agree up to the per-rank sampling
        // perturbation (each rank pays its own sample-handler costs).
        if rp.use_allreduce {
            let min = a.elapsed.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = a.elapsed.iter().cloned().fold(0.0, f64::max);
            let slack = 8.0 * (1.0 + max / 5000.0); // ≤ one sample cost per period
            prop_assert!(max - min <= slack, "collective did not synchronize: spread {}", max - min);
        }
    }

    /// The PAG pipeline preserves structural invariants for any program.
    #[test]
    fn pag_invariants(rp in rand_program_strategy()) {
        let prog = build(&rp);
        let cfg = RunConfig::new(rp.nranks).with_seed(rp.seed);
        let run = collect::profile(&prog, &cfg).unwrap();
        // Top-down view is a tree rooted at main.
        prop_assert_eq!(run.pag.num_edges(), run.pag.num_vertices() - 1);
        let root = run.root;
        prop_assert_eq!(run.pag.in_degree(root), 0);
        // Every vertex is reachable from the root.
        let order = graphalgo::bfs_order(&run.pag, root);
        prop_assert_eq!(order.len(), run.pag.num_vertices());
        // Per-proc vectors have exactly nranks entries.
        for v in run.pag.vertex_ids() {
            if let Some(vec) = run.pag.metric_vec(v, pag::mkeys::TIME_PER_PROC) {
                prop_assert_eq!(vec.len(), rp.nranks as usize);
            }
        }
        // Parallel view replicates exactly.
        let pv = collect::build_parallel_view(&run);
        prop_assert_eq!(pv.num_vertices(), run.pag.num_vertices() * rp.nranks as usize);
        // Serialization roundtrips.
        let back = pag::serialize::decode(&pag::serialize::encode(&pv)).unwrap();
        prop_assert_eq!(back.num_vertices(), pv.num_vertices());
        prop_assert_eq!(back.num_edges(), pv.num_edges());
    }

    /// Embedding must never panic and must conserve attributed time
    /// under arbitrary injected sample loss and call-stack truncation:
    /// every fired sample is either kept or counted as dropped, and the
    /// lost time plus the degraded PAG's attributed self time equals the
    /// clean PAG's.
    #[test]
    fn embed_survives_sample_loss_and_truncation(
        rp in rand_program_strategy(),
        loss in 0.0f64..0.95,
        depth in prop::option::of(0usize..5),
    ) {
        use simrt::FaultPlan;
        let prog = build(&rp);
        let clean_cfg = RunConfig::new(rp.nranks).with_seed(rp.seed);
        let mut faults = FaultPlan::new().with_sample_loss(loss);
        if let Some(d) = depth {
            faults = faults.with_stack_truncation(d);
        }
        let fault_cfg = clean_cfg.clone().with_faults(faults);
        let clean = collect::profile(&prog, &clean_cfg).unwrap();
        let run = collect::profile(&prog, &fault_cfg).unwrap(); // must not panic

        // Collection faults are observer-only: virtual timing identical.
        prop_assert_eq!(&run.data.elapsed, &clean.data.elapsed);

        // Sample conservation: every fired sample is kept or counted lost.
        let kept: u64 = run.data.samples.values().sum();
        let lost: u64 = run.data.dropped_samples.values().sum();
        let clean_kept: u64 = clean.data.samples.values().sum();
        prop_assert_eq!(kept + lost, clean_kept);

        // Attributed-time conservation on the PAG.
        let period = run.data.sample_period_us.unwrap();
        let sum_self = |r: &collect::ProfiledRun| -> f64 {
            r.pag
                .vertex_ids()
                .map(|v| r.pag.metric_f64(v, pag::mkeys::SELF_TIME))
                .sum()
        };
        let faulted_total = sum_self(&run) + lost as f64 * period;
        let clean_total = sum_self(&clean);
        prop_assert!(
            (faulted_total - clean_total).abs() <= 1e-6 * clean_total.max(1.0),
            "attributed time not conserved: {} vs {}", faulted_total, clean_total
        );

        // Completeness metadata stays in range and appears iff degraded.
        for v in run.pag.vertex_ids() {
            if let Some(cp) = run.pag.metric(v, pag::mkeys::COMPLETENESS) {
                prop_assert!((0.0..=1.0).contains(&cp), "completeness {} out of range", cp);
            }
        }
        if lost > 0 {
            let root_compl = run.pag.metric(run.root, pag::mkeys::COMPLETENESS);
            prop_assert!(root_compl.is_some(), "degraded run must mark the root");
        }
    }

    /// Set algebra laws hold on sets derived from real runs.
    #[test]
    fn set_algebra_laws(rp in rand_program_strategy()) {
        use perflow::{PerFlow, RunHandleExt};
        let prog = build(&rp);
        let pflow = PerFlow::new();
        let run = pflow.run(&prog, &RunConfig::new(rp.nranks).with_seed(rp.seed)).unwrap();
        let all = run.vertices();
        let comm = all.filter_name("MPI_*");
        let compute = all.filter_name("k*");
        // union is commutative on membership.
        let ab = comm.union(&compute).unwrap();
        let ba = compute.union(&comm).unwrap();
        let mut a_sorted = ab.ids.clone();
        let mut b_sorted = ba.ids.clone();
        a_sorted.sort();
        b_sorted.sort();
        prop_assert_eq!(a_sorted, b_sorted);
        // intersect(x, x) == x; difference(x, x) == ∅.
        prop_assert_eq!(comm.intersect(&comm).unwrap().len(), comm.len());
        prop_assert_eq!(comm.difference(&comm).unwrap().len(), 0);
        // filter ⊆ input, top(n) ≤ n.
        prop_assert!(comm.len() <= all.len());
        prop_assert!(all.sort_by(pag::keys::TIME).top(3).len() <= 3);
        // Hotspot output is sorted descending by the metric.
        let hot = pflow.hotspot_detection(&all, all.len());
        let times: Vec<f64> = hot.ids.iter().map(|&v| hot.graph.pag().vertex_time(v)).collect();
        for w in times.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
    }
}
