//! Property-based tests of the PerFlowGraph scheduler: on random DAGs
//! every node's values must match a direct recursive evaluation of the
//! DAG, the trail must list each node once in a topological order, and
//! the pass-result cache must replay those exact results.

use perflow::pass::{Pass, PassCx};
use perflow::{ExecOptions, NodeId, PassCache, PerFlowError, PerFlowGraph, Value};
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

/// Node `i` of a [`RandDag`]: `seed + Σ (k + 1) · input_k`, emitted as
/// `(acc, -acc)`, fingerprinted so the pass cache keys it by content.
struct DagPass {
    name: String,
    arity: usize,
    seed: f64,
}

impl Pass for DagPass {
    fn name(&self) -> &str {
        &self.name
    }
    fn arity(&self) -> usize {
        self.arity
    }
    fn run(&self, inp: &[Value], cx: &mut PassCx) -> Result<Vec<Value>, PerFlowError> {
        cx.trail.push(self.name.clone());
        let mut acc = self.seed;
        for (k, v) in inp.iter().enumerate() {
            acc += (k as f64 + 1.0) * v.as_num().unwrap();
        }
        Ok(vec![Value::Num(acc), Value::Num(-acc)])
    }
    fn fingerprint(&self) -> Option<u64> {
        let mut h = obs::Fnv::new();
        h.str(&self.name);
        h.u64(self.arity as u64);
        h.u64(self.seed.to_bits());
        Some(h.finish())
    }
}

/// Materialize a [`RandDag`] as a PerFlowGraph of deterministic numeric
/// passes. Returns the graph and its node ids.
fn build(dag: &RandDag) -> (PerFlowGraph, Vec<NodeId>) {
    let mut g = PerFlowGraph::new();
    let mut nodes = Vec::with_capacity(dag.preds.len());
    for (i, preds) in dag.preds.iter().enumerate() {
        let id = g.add_pass(DagPass {
            name: format!("n{i}"),
            arity: preds.len(),
            seed: dag.seeds[i] as f64,
        });
        for (port, &p) in preds.iter().enumerate() {
            // Alternate output ports so multi-port wiring is exercised.
            g.connect(nodes[p], port % 2, id, port).unwrap();
        }
        nodes.push(id);
    }
    (g, nodes)
}

/// Node `i`'s two outputs by direct recursive evaluation of `dag` (the
/// arithmetic of [`build`]'s passes, without a graph or a scheduler),
/// memoized in `memo`.
fn evaluate(dag: &RandDag, i: usize, memo: &mut [Option<[f64; 2]>]) -> [f64; 2] {
    if let Some(v) = memo[i] {
        return v;
    }
    let mut acc = dag.seeds[i] as f64;
    for (port, &p) in dag.preds[i].iter().enumerate() {
        acc += (port as f64 + 1.0) * evaluate(dag, p, memo)[port % 2];
    }
    memo[i] = Some([acc, -acc]);
    [acc, -acc]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Executing a random DAG yields, for every node, the values a direct
    /// recursive evaluation gives, and a trail that names every node once,
    /// each after all of its producers.
    #[test]
    fn scheduler_matches_recursive_evaluation(dag in rand_dag_strategy()) {
        let (g, nodes) = build(&dag);
        let out = g.execute().unwrap();
        let mut memo = vec![None; nodes.len()];
        for (i, &id) in nodes.iter().enumerate() {
            let got: Vec<Option<f64>> = out.of(id).iter().map(Value::as_num).collect();
            let want = evaluate(&dag, i, &mut memo).map(Some).to_vec();
            prop_assert_eq!(got, want, "node {:?}", id);
        }
        // The trail holds each node's name, then the trail its pass
        // wrote: a `DagPass` writes its own name once more.
        let mut ran = out.trail.clone();
        ran.dedup();
        prop_assert_eq!(ran.len(), nodes.len(), "{:?}", out.trail);
        let position = |i: usize| ran.iter().position(|t| *t == format!("n{i}"));
        for (i, preds) in dag.preds.iter().enumerate() {
            let at = position(i);
            prop_assert!(at.is_some(), "n{} missing from {:?}", i, ran);
            for &p in preds {
                prop_assert!(position(p) < at, "n{} ran before its producer n{}", i, p);
            }
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
