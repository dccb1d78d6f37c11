//! Integration properties of the scheduler's failure policies: an
//! injected panic must fail its own pass and, under `Isolate`, skip
//! exactly the passes downstream of it; under `FailFast` it must abort
//! the run with a structured error.

use perflow::pass::{Pass, PassCx};
use perflow::{ExecOptions, ExecPolicy, NodeId, PerFlowError, PerFlowGraph, Value};
use proptest::prelude::*;

/// A deterministic numeric pass; an armed one unwinds with a
/// recognizable payload instead.
struct NumPass {
    name: String,
    arity: usize,
    seed: f64,
    armed: bool,
}

impl Pass for NumPass {
    fn name(&self) -> &str {
        &self.name
    }
    fn arity(&self) -> usize {
        self.arity
    }
    fn run(&self, inputs: &[Value], _cx: &mut PassCx) -> Result<Vec<Value>, PerFlowError> {
        if self.armed {
            panic!("injected fault in {}", self.name);
        }
        let mut acc = self.seed;
        for (k, v) in inputs.iter().enumerate() {
            acc += (k as f64 + 1.0) * v.as_num().unwrap();
        }
        Ok(vec![Value::Num(acc), Value::Num(-acc)])
    }
}

/// A random DAG plus one designated fault node: node `i`'s inputs are
/// drawn from nodes `< i`, so the graph is acyclic by construction.
#[derive(Debug, Clone)]
struct FaultyDag {
    preds: Vec<Vec<usize>>,
    fault: usize,
}

fn faulty_dag_strategy() -> impl Strategy<Value = FaultyDag> {
    (2usize..=10, any::<u64>()).prop_map(|(n, mix)| {
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
        let fault = next() % n;
        FaultyDag { preds, fault }
    })
}

/// Materialize the DAG with the fault node armed; everyone else
/// computes. Seeds are a pure function of the node index.
fn build(dag: &FaultyDag) -> (PerFlowGraph, Vec<NodeId>) {
    let mut g = PerFlowGraph::new();
    let mut nodes = Vec::with_capacity(dag.preds.len());
    for (i, preds) in dag.preds.iter().enumerate() {
        let id = g.add_pass(NumPass {
            name: format!("n{i}"),
            arity: preds.len(),
            seed: (i as f64) * 31.0 + 7.0,
            armed: i == dag.fault,
        });
        for (port, &p) in preds.iter().enumerate() {
            g.connect(nodes[p], port % 2, id, port).unwrap();
        }
        nodes.push(id);
    }
    (g, nodes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under `Isolate`, an injected panic fails the fault node alone and
    /// skips exactly its transitive downstream.
    #[test]
    fn injected_panic_skips_exactly_its_downstream(dag in faulty_dag_strategy()) {
        let (g, nodes) = build(&dag);
        let out = g
            .execute_with(&ExecOptions::new().with_policy(ExecPolicy::Isolate))
            .unwrap();
        prop_assert!(out.degraded());
        prop_assert_eq!(out.failures.len(), 1);
        prop_assert_eq!(out.failures[0].node, dag.fault);
        // Node `i` is tainted when the fault or a tainted node feeds it;
        // producers have smaller ids, so one forward sweep settles it.
        let mut tainted = vec![false; nodes.len()];
        for (i, preds) in dag.preds.iter().enumerate() {
            tainted[i] = i == dag.fault || preds.iter().any(|&p| tainted[p]);
        }
        let downstream: Vec<NodeId> = (0..nodes.len())
            .filter(|&i| tainted[i] && i != dag.fault)
            .map(|i| nodes[i])
            .collect();
        prop_assert_eq!(&out.skipped, &downstream);
        for (i, &id) in nodes.iter().enumerate() {
            prop_assert_eq!(out.of(id).is_empty(), tainted[i], "node {}", i);
        }
    }

    /// Under `FailFast`, the injected panic surfaces as a structured
    /// error naming the fault node's pass.
    #[test]
    fn injected_panic_failfast_error_is_stable(dag in faulty_dag_strategy()) {
        let (g, _) = build(&dag);
        let err = g.execute().unwrap_err().to_string();
        prop_assert!(err.contains("panicked"), "{}", err);
        let fault = format!("injected fault in n{}", dag.fault);
        prop_assert!(err.contains(&fault), "{}", err);
    }
}
