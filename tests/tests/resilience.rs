//! Integration properties of the resilient scheduler: an injected fault
//! (panic, timeout) must fail its own pass and skip exactly the passes
//! downstream of it, and a run that dies partway through must resume
//! from its checkpoint to a result indistinguishable from an
//! uninterrupted run.

use std::sync::atomic::{AtomicUsize, Ordering};

use perflow::pass::{Pass, PassCx};
use perflow::{
    CheckpointFile, CheckpointWriter, ExecOptions, ExecPolicy, NodeId, PerFlowError, PerFlowGraph,
    Value,
};
use proptest::prelude::*;

/// FNV-1a over 64-bit words — a process-independent fingerprint base.
fn fnv(words: &[u64]) -> u64 {
    let mut h = obs::Fnv::new();
    for &w in words {
        h.u64(w);
    }
    h.finish()
}

/// What an [`FpPass`] does when it runs.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Behavior {
    /// Deterministic arithmetic over the inputs.
    Compute,
    /// Unwind with a recognizable payload.
    Panic,
}

/// A deterministic, *fingerprinted* numeric pass — unlike `FnPass`, its
/// results can be checkpointed and resumed. The fault behavior is part
/// of the object, not the fingerprint: an armed and a disarmed instance
/// share a checkpoint key, exactly like a re-run of a crashing pipeline
/// after the bug is fixed (the paper's resume story).
struct FpPass {
    name: String,
    arity: usize,
    seed: f64,
    behavior: Behavior,
}

impl Pass for FpPass {
    fn name(&self) -> &str {
        &self.name
    }
    fn arity(&self) -> usize {
        self.arity
    }
    fn run(&self, inputs: &[Value], _cx: &mut PassCx) -> Result<Vec<Value>, PerFlowError> {
        if self.behavior == Behavior::Panic {
            panic!("injected fault in {}", self.name);
        }
        let mut acc = self.seed;
        for (k, v) in inputs.iter().enumerate() {
            acc += (k as f64 + 1.0) * v.as_num().unwrap();
        }
        Ok(vec![Value::Num(acc), Value::Num(-acc)])
    }
    fn fingerprint(&self) -> Option<u64> {
        Some(fnv(&[self.arity as u64, self.seed.to_bits()]))
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

/// Materialize the DAG; the fault node gets `behavior`, everyone else
/// computes. Seeds are a pure function of the node index, so a disarmed
/// rebuild produces fingerprint-identical passes.
fn build(dag: &FaultyDag, behavior: Behavior) -> (PerFlowGraph, Vec<NodeId>) {
    let mut g = PerFlowGraph::new();
    let mut nodes = Vec::with_capacity(dag.preds.len());
    for (i, preds) in dag.preds.iter().enumerate() {
        let id = g.add_pass(FpPass {
            name: format!("n{i}"),
            arity: preds.len(),
            seed: (i as f64) * 31.0 + 7.0,
            behavior: if i == dag.fault {
                behavior
            } else {
                Behavior::Compute
            },
        });
        for (port, &p) in preds.iter().enumerate() {
            g.connect(nodes[p], port % 2, id, port).unwrap();
        }
        nodes.push(id);
    }
    (g, nodes)
}

/// Unique checkpoint path per invocation (tests run concurrently).
fn temp_checkpoint() -> std::path::PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "perflow-resilience-{}-{n}.pfck",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under `Isolate`, an injected panic fails the fault node alone and
    /// skips exactly its transitive downstream.
    #[test]
    fn injected_panic_skips_exactly_its_downstream(dag in faulty_dag_strategy()) {
        let (g, nodes) = build(&dag, Behavior::Panic);
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
            prop_assert_eq!(out.try_of(id).is_ok(), !tainted[i], "node {}", i);
        }
    }

    /// Under `FailFast`, the injected panic surfaces as a structured
    /// error naming the fault node's pass.
    #[test]
    fn injected_panic_failfast_error_is_stable(dag in faulty_dag_strategy()) {
        let (g, _) = build(&dag, Behavior::Panic);
        let err = g.execute().unwrap_err().to_string();
        prop_assert!(err.contains("panicked"), "{}", err);
        let fault = format!("injected fault in n{}", dag.fault);
        prop_assert!(err.contains(&fault), "{}", err);
    }

    /// Kill-then-resume round trip: a run that dies on an injected panic
    /// leaves a checkpoint of every completed pass; disarming the fault
    /// and resuming replays that prefix and converges to a result
    /// identical to a run that never crashed.
    #[test]
    fn kill_then_resume_matches_uninterrupted_run(dag in faulty_dag_strategy()) {
        // Reference: the uninterrupted (disarmed) execution.
        let (clean, nodes) = build(&dag, Behavior::Compute);
        let reference = clean.execute().unwrap();

        // Doomed run: checkpoint everything that completes, then die.
        let path = temp_checkpoint();
        let writer = CheckpointWriter::create(&path, 0xC0FFEE).unwrap();
        let (armed, _) = build(&dag, Behavior::Panic);
        let crash = armed.execute_with(&ExecOptions::new().with_checkpoint(&writer));
        prop_assert!(crash.is_err());
        let recorded = writer.recorded();
        prop_assert!(writer.error().is_none());
        drop(writer);

        // Resume: the persisted prefix replays, the rest executes.
        let file = CheckpointFile::load(&path).unwrap();
        prop_assert!(!file.truncated);
        file.expect_context(0xC0FFEE).unwrap();
        prop_assert_eq!(file.len(), recorded);
        let snapshot = file.rebind(&[]);
        prop_assert_eq!(snapshot.dropped, 0);
        let resumed = clean
            .execute_with(&ExecOptions::new().with_resume(&snapshot))
            .unwrap();
        std::fs::remove_file(&path).ok();

        prop_assert_eq!(resumed.resumed, recorded, "every persisted pass must replay");
        prop_assert!(resumed.failures.is_empty());
        for &id in &nodes {
            let a: Vec<Option<f64>> = reference.of(id).iter().map(Value::as_num).collect();
            let b: Vec<Option<f64>> = resumed.of(id).iter().map(Value::as_num).collect();
            prop_assert_eq!(a, b, "node {:?} diverged after resume", id);
        }
        prop_assert_eq!(&reference.trail, &resumed.trail);
    }
}

/// A stalled pass trips the watchdog deadline, fails, and takes only its
/// downstream with it (fixed graph: sleep is wall-clock, so this is a
/// plain test rather than a property).
#[test]
fn injected_timeout_degrades_to_its_downstream() {
    struct Stall;
    impl Pass for Stall {
        fn name(&self) -> &str {
            "stall"
        }
        fn arity(&self) -> usize {
            0
        }
        fn run(&self, _inputs: &[Value], _cx: &mut PassCx) -> Result<Vec<Value>, PerFlowError> {
            std::thread::sleep(std::time::Duration::from_millis(200));
            Ok(vec![Value::Num(1.0)])
        }
    }

    let mut g = PerFlowGraph::new();
    let stall = g.add_pass(Stall);
    let ok = g.add_pass(FpPass {
        name: "ok".into(),
        arity: 0,
        seed: 3.0,
        behavior: Behavior::Compute,
    });
    let downstream = g.add_pass(FpPass {
        name: "downstream".into(),
        arity: 1,
        seed: 5.0,
        behavior: Behavior::Compute,
    });
    g.connect(stall, 0, downstream, 0).unwrap();
    let out = g
        .execute_with(
            &ExecOptions::new()
                .with_policy(ExecPolicy::Isolate)
                .with_pass_timeout_ms(10),
        )
        .unwrap();
    assert!(out.degraded());
    assert_eq!(out.failures.len(), 1);
    assert!(
        out.failures[0].to_string().contains("deadline"),
        "{}",
        out.failures[0]
    );
    assert_eq!(out.skipped, vec![downstream]);
    assert_eq!(out.of(ok).first().and_then(Value::as_num), Some(3.0));
}
