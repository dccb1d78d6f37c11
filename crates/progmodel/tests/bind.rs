//! The lowering `simrt` runs before the first interpreter step is an
//! identity: a bound expression evaluates to the same bits as the
//! original under every context of the run it was bound against.

use std::collections::HashMap;

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use progmodel::{c, nranks, nthreads, param, rank, EvalCtx, Expr, ProgramBuilder, StmtKind};

/// Parameter names expressions draw from; `zero` is set to 0.0 and
/// `missing` is never set, so both fold to a zero divisor / condition.
const NAMES: [&str; 4] = ["n", "scale", "zero", "missing"];

/// Random expression trees over every [`Expr`] variant.
#[derive(Debug)]
struct ArbExpr {
    depth: u32,
}

fn leaf(rng: &mut TestRng) -> Expr {
    match rng.below(10) {
        0 => Expr::Rank,
        1 => Expr::NRanks,
        2 => Expr::Thread,
        3 => Expr::NThreads,
        4 => Expr::Iter,
        5 => Expr::IterUp(rng.below(4) as u32),
        6 => param(NAMES[rng.below(4) as usize]),
        7 => Expr::Noise {
            amp: rng.unit_f64(),
            salt: rng.below(5),
        },
        8 => c([0.0, -0.0, 1.0, -1.0, 0.5, 1e300, f64::INFINITY][rng.below(7) as usize]),
        _ => c((rng.unit_f64() - 0.3) * 100.0),
    }
}

fn tree(rng: &mut TestRng, depth: u32) -> Expr {
    if depth == 0 || rng.below(4) == 0 {
        return leaf(rng);
    }
    let (a, b, c) = (
        tree(rng, depth - 1),
        tree(rng, depth - 1),
        tree(rng, depth - 1),
    );
    match rng.below(13) {
        0 => a + b,
        1 => a - b,
        2 => a * b,
        3 => a / b,
        4 => a.rem(b),
        5 => a.min(b),
        6 => a.max(b),
        7 => a.lt(b),
        8 => a.eq(b),
        9 => a.floor(),
        10 => a.sqrt(),
        11 => a.log2(),
        _ => a.select(b, c),
    }
}

impl Strategy for ArbExpr {
    type Value = Expr;
    fn generate(&self, rng: &mut TestRng) -> Expr {
        tree(rng, self.depth)
    }
}

/// A run: its rank count and parameter values (`missing` left unset).
fn arb_run() -> impl Strategy<Value = (u32, HashMap<String, f64>)> {
    (1u32..2049, -50.0..50.0f64, 0.0..4.0f64).prop_map(|(nranks, n, scale)| {
        let params = [("n", n), ("scale", scale), ("zero", 0.0)];
        let params = params.iter().map(|&(k, v)| (k.to_string(), v)).collect();
        (nranks, params)
    })
}

/// Everything else an evaluation context carries.
fn arb_point() -> impl Strategy<Value = (u32, u32, u32, Vec<u64>, u64)> {
    (
        0u32..2048,
        0u32..16,
        1u32..17,
        prop::collection::vec(0u64..1000, 0..4),
        any::<u64>(),
    )
}

fn same_bits(e: &Expr, bound: &Expr, ctx: &EvalCtx<'_>) {
    assert_eq!(
        bound.eval(ctx).to_bits(),
        e.eval(ctx).to_bits(),
        "{e:?}\n  bound to {bound:?}\n  under {ctx:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn bound_expr_evaluates_to_the_same_bits(
        e in ArbExpr { depth: 5 },
        run in arb_run(),
        points in prop::collection::vec(arb_point(), 1..6),
    ) {
        let (nranks, params) = run;
        let bound = e.bind(&params, nranks);
        for (rank, thread, nthreads, iters, seed) in &points {
            let ctx = EvalCtx {
                rank: rank % nranks,
                nranks,
                thread: *thread,
                nthreads: *nthreads,
                iters,
                params: &params,
                seed: *seed,
            };
            same_bits(&e, &bound, &ctx);
            // Nothing the run fixes is looked up again.
            let (no_params, other_nranks) = (HashMap::new(), nranks + 1);
            let blind = EvalCtx { params: &no_params, nranks: other_nranks, ..ctx.clone() };
            prop_assert_eq!(bound.eval(&blind).to_bits(), bound.eval(&ctx).to_bits());
        }
    }
}

fn ctx<'a>(params: &'a HashMap<String, f64>, nthreads: u32) -> EvalCtx<'a> {
    EvalCtx {
        rank: 3,
        nranks: 8,
        thread: 1,
        nthreads,
        iters: &[],
        params,
        seed: 9,
    }
}

#[test]
fn folds_what_the_run_fixes_and_nothing_else() {
    let mut params = HashMap::new();
    params.insert("n".to_string(), 64.0);
    // Closed sub-trees become constants, open ones keep their shape.
    let e = (param("n") * nranks() / 4.0) * rank();
    match e.bind(&params, 8) {
        Expr::Mul(k, r) => {
            assert!(matches!(*k, Expr::Const(v) if v == 128.0));
            assert!(matches!(*r, Expr::Rank));
        }
        other => panic!("unexpected shape {other:?}"),
    }
    // A zero divisor that only exists after folding still yields 0.0.
    for e in [rank() / param("missing"), rank().rem(param("missing"))] {
        let bound = e.bind(&params, 8);
        assert_eq!(bound.eval(&ctx(&params, 1)), 0.0);
        same_bits(&e, &bound, &ctx(&params, 1));
    }
    // A folded condition picks its arm; the other arm is gone.
    let e = param("n").lt(100.0).select(rank(), c(7.0));
    assert!(matches!(e.bind(&params, 8), Expr::Rank));
    let e = param("missing").select(rank(), nranks() * 2.0);
    assert!(matches!(e.bind(&params, 8), Expr::Const(v) if v == 16.0));
    // `NThreads` is not the run's to fix: a thread region overrides it.
    let e = nthreads() * param("n");
    let bound = e.bind(&params, 8);
    assert_eq!(bound.eval(&ctx(&params, 8)), 512.0);
    assert_eq!(bound.eval(&ctx(&params, 2)), 128.0);
}

#[test]
fn program_bind_reaches_every_expression_and_keeps_the_structure() {
    let mut pb = ProgramBuilder::new("all-kinds");
    let main = pb.declare("main", "all.c");
    let callee = pb.declare("callee", "all.c");
    pb.param("n", 3.0);
    pb.define(callee, |f| f.compute("leaf", param("n")));
    pb.define(main, |f| {
        f.compute("k", param("n") * 2.0);
        f.loop_("l", param("n"), |b| {
            b.branch(
                "br",
                param("n").lt(5.0),
                |t| t.lock("crit", progmodel::LockId(1), param("n")),
                |e| e.call(callee),
            );
            b.call_indirect(vec![callee], param("n"));
        });
        f.thread_region(param("n"), |r| r.alloc("malloc", param("n")));
        f.send(param("n"), param("n"), 1);
        f.recv(param("n"), param("n"), 1);
        f.isend(param("n"), param("n"), 2);
        f.irecv(param("n"), param("n"), 2);
        f.waitall();
        f.barrier();
        f.bcast(param("n"), param("n"));
        f.reduce(param("n"), param("n"));
        f.allreduce(param("n"));
        f.alltoall(param("n"));
    });
    let prog = pb.build(main);
    let bound = prog.bind(&prog.default_params, 4);
    // Same statements, in the same order, under the same ids …
    let ids = |p: &progmodel::Program| {
        let mut ids = Vec::new();
        p.visit_stmts(|f, s| ids.push((f.id, s.id, std::mem::discriminant(&s.kind))));
        ids
    };
    assert_eq!(ids(&bound), ids(&prog));
    assert_eq!(bound.stmt_count, prog.stmt_count);
    // … and no expression still asks for a parameter.
    assert!(format!("{prog:?}").contains("Param("));
    let text = format!("{bound:?}");
    assert!(
        !text.contains("Param("),
        "unbound parameter left in:\n{text}"
    );
    bound.visit_stmts(|_, s| {
        if let StmtKind::Compute { cost_us, .. } = &s.kind {
            assert!(matches!(cost_us, Expr::Const(_)), "{cost_us:?}");
        }
    });
}
