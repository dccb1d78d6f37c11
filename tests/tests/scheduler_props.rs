//! Property-based tests of the event-driven PerFlowGraph scheduler:
//! random DAGs must produce identical values and trails no matter how
//! many workers execute them, and the pass-result cache must replay
//! those exact results.

use perflow::pass::FnPass;
use perflow::{ExecOptions, NodeId, PassCache, PerFlowGraph, Value};
use proptest::prelude::*;

/// A random DAG description: node `i`'s inputs are drawn from nodes
/// `< i`, so the graph is acyclic by construction. `preds[i]` holds the
/// chosen predecessor of each input port (empty → source node).
#[derive(Debug, Clone)]
struct RandDag {
    preds: Vec<Vec<usize>>,
    seeds: Vec<u32>,
}

fn rand_dag_strategy() -> impl Strategy<Value = RandDag> {
    (2usize..=14, any::<u64>()).prop_map(|(n, mix)| {
        // Deterministic expansion of `mix` into a wiring plan: node 0 is
        // always a source; later nodes take 0..=3 inputs from earlier
        // nodes (0 inputs → another source).
        let mut preds = Vec::with_capacity(n);
        let mut state = mix;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for i in 0..n {
            if i == 0 {
                preds.push(Vec::new());
                continue;
            }
            let fan_in = next() % 4.min(i + 1);
            preds.push((0..fan_in).map(|_| next() % i).collect());
        }
        let seeds = (0..n).map(|i| (i as u32) * 31 + 7).collect();
        RandDag { preds, seeds }
    })
}

/// Materialize a [`RandDag`] as a PerFlowGraph of deterministic numeric
/// passes. Returns the graph and its node ids.
fn build(dag: &RandDag) -> (PerFlowGraph, Vec<NodeId>) {
    let mut g = PerFlowGraph::new();
    let mut nodes = Vec::with_capacity(dag.preds.len());
    for (i, preds) in dag.preds.iter().enumerate() {
        let seed = dag.seeds[i] as f64;
        let arity = preds.len();
        let id = g.add_pass(FnPass::new(
            format!("n{i}"),
            arity,
            move |inp: &[Value]| {
                let mut acc = seed;
                for (k, v) in inp.iter().enumerate() {
                    acc += (k as f64 + 1.0) * v.as_num().unwrap();
                }
                Ok(vec![Value::Num(acc), Value::Num(-acc)])
            },
        ));
        for (port, &p) in preds.iter().enumerate() {
            // Alternate output ports so multi-port wiring is exercised.
            g.connect(nodes[p], port % 2, id, port).unwrap();
        }
        nodes.push(id);
    }
    (g, nodes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Serial (1 worker) and parallel (2, 4, 8 workers) execution of a
    /// random DAG agree on every node's values and on the trail.
    #[test]
    fn scheduler_equivalence_serial_vs_parallel(dag in rand_dag_strategy()) {
        let (g, nodes) = build(&dag);
        let serial = g.execute_with(&ExecOptions::new().with_workers(1)).unwrap();
        for workers in [2usize, 4, 8] {
            let par = g.execute_with(&ExecOptions::new().with_workers(workers)).unwrap();
            for &id in &nodes {
                let a: Vec<Option<f64>> = serial.of(id).iter().map(Value::as_num).collect();
                let b: Vec<Option<f64>> = par.of(id).iter().map(Value::as_num).collect();
                prop_assert_eq!(a, b, "node {:?} differs at {} workers", id, workers);
            }
            // The trail is canonical (topological) and must match as a
            // sequence — and therefore also as a set.
            prop_assert_eq!(&serial.trail, &par.trail);
            let mut sa = serial.trail.clone();
            let mut sb = par.trail.clone();
            sa.sort();
            sb.sort();
            prop_assert_eq!(sa, sb);
        }
    }

    /// Re-executing an unchanged random DAG against one cache misses
    /// exactly once per node, then hits exactly once per node, with
    /// identical values both times.
    #[test]
    fn cache_hit_miss_determinism(dag in rand_dag_strategy()) {
        let (g, nodes) = build(&dag);
        let n = nodes.len() as u64;
        let cache = PassCache::new();
        let opts = ExecOptions::new().with_cache(&cache);
        let cold = g.execute_with(&opts).unwrap();
        prop_assert_eq!(cache.stats().misses, n);
        prop_assert_eq!(cache.stats().hits, 0);
        let warm = g.execute_with(&opts).unwrap();
        prop_assert_eq!(cache.stats().misses, n, "warm run must not miss");
        prop_assert_eq!(cache.stats().hits, n, "warm run must hit every node");
        for &id in &nodes {
            let a: Vec<Option<f64>> = cold.of(id).iter().map(Value::as_num).collect();
            let b: Vec<Option<f64>> = warm.of(id).iter().map(Value::as_num).collect();
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(cold.trail, warm.trail);
    }
}
