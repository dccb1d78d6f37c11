//! Scalar expression language for costs, trip counts, peers and
//! predicates.
//!
//! A single program model must describe *every* run of a program: any
//! process count, any thread count, any input class, with realistic
//! rank-dependent load imbalance. Expressions are evaluated against an
//! [`EvalCtx`] carrying the executing rank/thread, the current loop
//! iteration stack, scale parameters and a run seed for deterministic
//! noise.

use std::collections::HashMap;
use std::sync::Arc;

/// Evaluation context for an [`Expr`].
#[derive(Debug, Clone)]
pub struct EvalCtx<'a> {
    /// Executing process (rank).
    pub rank: u32,
    /// Total processes in the run.
    pub nranks: u32,
    /// Executing thread within the process.
    pub thread: u32,
    /// Threads per process.
    pub nthreads: u32,
    /// Innermost-last stack of current loop iteration indices.
    pub iters: &'a [u64],
    /// Named scale parameters (problem size, class, …).
    pub params: &'a HashMap<String, f64>,
    /// Run seed; all noise is a pure function of (seed, salt, rank,
    /// thread, iters).
    pub seed: u64,
}

impl<'a> EvalCtx<'a> {
    /// Innermost loop iteration (0 outside any loop).
    pub fn iter(&self) -> u64 {
        self.iters.last().copied().unwrap_or(0)
    }
}

/// A scalar expression. Build with the helper constructors ([`c`],
/// [`rank`], [`param`], …) and std arithmetic operators.
#[derive(Debug, Clone)]
pub enum Expr {
    /// Literal constant.
    Const(f64),
    /// Executing rank.
    Rank,
    /// Number of ranks.
    NRanks,
    /// Executing thread.
    Thread,
    /// Threads per process.
    NThreads,
    /// Innermost loop iteration index.
    Iter,
    /// Loop iteration index `levels` above the innermost (0 = innermost).
    IterUp(u32),
    /// Named scale parameter (0.0 if unset).
    Param(Arc<str>),
    /// Sum.
    Add(Box<Expr>, Box<Expr>),
    /// Difference.
    Sub(Box<Expr>, Box<Expr>),
    /// Product.
    Mul(Box<Expr>, Box<Expr>),
    /// Quotient (0 when the divisor is 0).
    Div(Box<Expr>, Box<Expr>),
    /// Euclidean remainder (0 when the divisor is 0).
    Rem(Box<Expr>, Box<Expr>),
    /// Minimum.
    Min(Box<Expr>, Box<Expr>),
    /// Maximum.
    Max(Box<Expr>, Box<Expr>),
    /// Floor.
    Floor(Box<Expr>),
    /// Square root (of max(x,0)).
    Sqrt(Box<Expr>),
    /// Base-2 logarithm (of max(x,1)).
    Log2(Box<Expr>),
    /// 1.0 if `a < b` else 0.0.
    Lt(Box<Expr>, Box<Expr>),
    /// 1.0 if `a == b` (exact) else 0.0.
    Eq(Box<Expr>, Box<Expr>),
    /// `cond != 0 ? then : els`.
    Select {
        /// Condition expression (non-zero = true).
        cond: Box<Expr>,
        /// Value when true.
        then: Box<Expr>,
        /// Value when false.
        els: Box<Expr>,
    },
    /// Deterministic multiplicative noise: uniform in `[1-amp, 1+amp]`,
    /// a pure function of (run seed, salt, rank, thread, iteration stack).
    Noise {
        /// Relative amplitude (0.05 = ±5 %).
        amp: f64,
        /// Salt distinguishing co-located noise sources.
        salt: u64,
    },
}

impl Expr {
    /// Evaluate the expression.
    pub fn eval(&self, ctx: &EvalCtx<'_>) -> f64 {
        match self {
            Expr::Const(v) => *v,
            Expr::Rank => ctx.rank as f64,
            Expr::NRanks => ctx.nranks as f64,
            Expr::Thread => ctx.thread as f64,
            Expr::NThreads => ctx.nthreads as f64,
            Expr::Iter => ctx.iter() as f64,
            Expr::IterUp(levels) => {
                let n = ctx.iters.len();
                let idx = n.checked_sub(1 + *levels as usize);
                idx.map(|i| ctx.iters[i] as f64).unwrap_or(0.0)
            }
            Expr::Param(name) => ctx.params.get(name.as_ref()).copied().unwrap_or(0.0),
            Expr::Add(a, b) => a.eval(ctx) + b.eval(ctx),
            Expr::Sub(a, b) => a.eval(ctx) - b.eval(ctx),
            Expr::Mul(a, b) => a.eval(ctx) * b.eval(ctx),
            Expr::Div(a, b) => {
                let d = b.eval(ctx);
                if d == 0.0 {
                    0.0
                } else {
                    a.eval(ctx) / d
                }
            }
            Expr::Rem(a, b) => {
                let d = b.eval(ctx);
                if d == 0.0 {
                    0.0
                } else {
                    a.eval(ctx).rem_euclid(d)
                }
            }
            Expr::Min(a, b) => a.eval(ctx).min(b.eval(ctx)),
            Expr::Max(a, b) => a.eval(ctx).max(b.eval(ctx)),
            Expr::Floor(a) => a.eval(ctx).floor(),
            Expr::Sqrt(a) => a.eval(ctx).max(0.0).sqrt(),
            Expr::Log2(a) => a.eval(ctx).max(1.0).log2(),
            Expr::Lt(a, b) => {
                if a.eval(ctx) < b.eval(ctx) {
                    1.0
                } else {
                    0.0
                }
            }
            Expr::Eq(a, b) => {
                if a.eval(ctx) == b.eval(ctx) {
                    1.0
                } else {
                    0.0
                }
            }
            Expr::Select { cond, then, els } => {
                if cond.eval(ctx) != 0.0 {
                    then.eval(ctx)
                } else {
                    els.eval(ctx)
                }
            }
            Expr::Noise { amp, salt } => {
                let mut h = splitmix64(ctx.seed ^ salt.wrapping_mul(0x9E3779B97F4A7C15));
                h = splitmix64(h ^ ctx.rank as u64);
                h = splitmix64(h ^ ((ctx.thread as u64) << 32));
                for &i in ctx.iters {
                    h = splitmix64(h ^ i);
                }
                // Map to [-1, 1), scale by amplitude, center at 1.0.
                let u = (h >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
                1.0 + amp * (2.0 * u - 1.0)
            }
        }
    }

    /// Lower the expression against one run: every `Param` becomes its
    /// value (0.0 if unset), `NRanks` becomes `nranks`, and any sub-tree
    /// left with only constant operands is folded by [`Expr::eval`]
    /// itself, so the bound tree evaluates to the same bits as the
    /// original under every context of that run. `NThreads` stays: a
    /// thread region overrides it with the region's own thread count.
    pub fn bind(&self, params: &HashMap<String, f64>, nranks: u32) -> Expr {
        use Expr::*;
        let konst = |e: &Expr| matches!(e, Const(_));
        let bin = |mk: fn(Box<Expr>, Box<Expr>) -> Expr, a: &Expr, b: &Expr| {
            let (a, b) = (a.bind(params, nranks), b.bind(params, nranks));
            let closed = konst(&a) && konst(&b);
            (mk(Box::new(a), Box::new(b)), closed)
        };
        let un = |mk: fn(Box<Expr>) -> Expr, a: &Expr| {
            let a = a.bind(params, nranks);
            let closed = konst(&a);
            (mk(Box::new(a)), closed)
        };
        let (bound, closed) = match self {
            Param(_) | NRanks => (self.clone(), true),
            Const(_) | Rank | Thread | NThreads | Iter | IterUp(_) | Noise { .. } => {
                (self.clone(), false)
            }
            Add(a, b) => bin(Add, a, b),
            Sub(a, b) => bin(Sub, a, b),
            Mul(a, b) => bin(Mul, a, b),
            Div(a, b) => bin(Div, a, b),
            Rem(a, b) => bin(Rem, a, b),
            Min(a, b) => bin(Min, a, b),
            Max(a, b) => bin(Max, a, b),
            Lt(a, b) => bin(Lt, a, b),
            Eq(a, b) => bin(Eq, a, b),
            Floor(a) => un(Floor, a),
            Sqrt(a) => un(Sqrt, a),
            Log2(a) => un(Log2, a),
            Select { cond, then, els } => match cond.bind(params, nranks) {
                Const(v) if v != 0.0 => return then.bind(params, nranks),
                Const(_) => return els.bind(params, nranks),
                cond => {
                    let (then, els) = (then.bind(params, nranks), els.bind(params, nranks));
                    (cond.select(then, els), false)
                }
            },
        };
        if !closed {
            return bound;
        }
        // No context-dependent leaf is left below `bound`; only `nranks`
        // and `params` are read.
        Const(bound.eval(&EvalCtx {
            rank: 0,
            nranks,
            thread: 0,
            nthreads: 1,
            iters: &[],
            params,
            seed: 0,
        }))
    }

    /// Evaluate and round to a non-negative integer (trip counts, peers).
    pub fn eval_u64(&self, ctx: &EvalCtx<'_>) -> u64 {
        self.eval(ctx).max(0.0).round() as u64
    }

    /// `self < other` as a 0/1 expression.
    pub fn lt(self, other: impl Into<Expr>) -> Expr {
        Expr::Lt(Box::new(self), Box::new(other.into()))
    }

    /// `self == other` as a 0/1 expression.
    pub fn eq(self, other: impl Into<Expr>) -> Expr {
        Expr::Eq(Box::new(self), Box::new(other.into()))
    }

    /// `self % other` (euclidean). The name mirrors the DSL's other
    /// combinators; `std::ops::Rem` is not implemented because the
    /// semantics (euclidean, zero-divisor-safe) differ from `%`.
    #[allow(clippy::should_implement_trait)]
    pub fn rem(self, other: impl Into<Expr>) -> Expr {
        Expr::Rem(Box::new(self), Box::new(other.into()))
    }

    /// Elementwise minimum.
    pub fn min(self, other: impl Into<Expr>) -> Expr {
        Expr::Min(Box::new(self), Box::new(other.into()))
    }

    /// Elementwise maximum.
    pub fn max(self, other: impl Into<Expr>) -> Expr {
        Expr::Max(Box::new(self), Box::new(other.into()))
    }

    /// Floor.
    pub fn floor(self) -> Expr {
        Expr::Floor(Box::new(self))
    }

    /// Square root of `max(self, 0)`.
    pub fn sqrt(self) -> Expr {
        Expr::Sqrt(Box::new(self))
    }

    /// Base-2 logarithm of `max(self, 1)`.
    pub fn log2(self) -> Expr {
        Expr::Log2(Box::new(self))
    }

    /// Conditional: `if self != 0 { then } else { els }`.
    pub fn select(self, then: impl Into<Expr>, els: impl Into<Expr>) -> Expr {
        Expr::Select {
            cond: Box::new(self),
            then: Box::new(then.into()),
            els: Box::new(els.into()),
        }
    }
}

/// SplitMix64 hash step (public-domain constant schedule).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Constant expression.
pub fn c(v: f64) -> Expr {
    Expr::Const(v)
}
/// The executing rank.
pub fn rank() -> Expr {
    Expr::Rank
}
/// The number of ranks.
pub fn nranks() -> Expr {
    Expr::NRanks
}
/// The executing thread.
pub fn thread() -> Expr {
    Expr::Thread
}
/// Threads per process.
pub fn nthreads() -> Expr {
    Expr::NThreads
}
/// Innermost loop iteration.
pub fn iter() -> Expr {
    Expr::Iter
}
/// Named scale parameter.
pub fn param(name: &str) -> Expr {
    Expr::Param(Arc::from(name))
}
/// Deterministic multiplicative noise of relative amplitude `amp`.
pub fn noise(amp: f64, salt: u64) -> Expr {
    Expr::Noise { amp, salt }
}

impl From<f64> for Expr {
    fn from(v: f64) -> Expr {
        Expr::Const(v)
    }
}
impl From<u32> for Expr {
    fn from(v: u32) -> Expr {
        Expr::Const(v as f64)
    }
}
impl From<i32> for Expr {
    fn from(v: i32) -> Expr {
        Expr::Const(v as f64)
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $variant:ident) => {
        impl<T: Into<Expr>> std::ops::$trait<T> for Expr {
            type Output = Expr;
            fn $method(self, rhs: T) -> Expr {
                Expr::$variant(Box::new(self), Box::new(rhs.into()))
            }
        }
    };
}
impl_binop!(Add, add, Add);
impl_binop!(Sub, sub, Sub);
impl_binop!(Mul, mul, Mul);
impl_binop!(Div, div, Div);

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(params: &'a HashMap<String, f64>, iters: &'a [u64]) -> EvalCtx<'a> {
        EvalCtx {
            rank: 3,
            nranks: 8,
            thread: 1,
            nthreads: 4,
            iters,
            params,
            seed: 42,
        }
    }

    #[test]
    fn basic_arithmetic() {
        let p = HashMap::new();
        let cx = ctx(&p, &[]);
        assert_eq!((c(2.0) + c(3.0)).eval(&cx), 5.0);
        assert_eq!((c(2.0) * c(3.0) - c(1.0)).eval(&cx), 5.0);
        assert_eq!((c(7.0) / c(2.0)).eval(&cx), 3.5);
        assert_eq!((c(7.0) / c(0.0)).eval(&cx), 0.0);
        assert_eq!(c(7.0).rem(3.0).eval(&cx), 1.0);
        assert_eq!(c(-1.0).rem(8.0).eval(&cx), 7.0); // euclidean for peers
    }

    #[test]
    fn context_variables() {
        let p = HashMap::new();
        let cx = ctx(&p, &[5, 9]);
        assert_eq!(rank().eval(&cx), 3.0);
        assert_eq!(nranks().eval(&cx), 8.0);
        assert_eq!(thread().eval(&cx), 1.0);
        assert_eq!(nthreads().eval(&cx), 4.0);
        assert_eq!(iter().eval(&cx), 9.0);
        assert_eq!(Expr::IterUp(1).eval(&cx), 5.0);
        assert_eq!(Expr::IterUp(2).eval(&cx), 0.0); // above the stack
    }

    #[test]
    fn params_default_zero() {
        let mut p = HashMap::new();
        p.insert("n".to_string(), 256.0);
        let cx = ctx(&p, &[]);
        assert_eq!(param("n").eval(&cx), 256.0);
        assert_eq!(param("missing").eval(&cx), 0.0);
    }

    #[test]
    fn comparisons_and_select() {
        let p = HashMap::new();
        let cx = ctx(&p, &[]);
        // rank = 3 < 4 → heavy branch
        let e = rank().lt(4.0).select(c(100.0), c(10.0));
        assert_eq!(e.eval(&cx), 100.0);
        let e2 = rank().eq(3.0).select(c(1.0), c(0.0));
        assert_eq!(e2.eval(&cx), 1.0);
        assert_eq!(rank().lt(2.0).eval(&cx), 0.0);
    }

    #[test]
    fn min_max_floor_log() {
        let p = HashMap::new();
        let cx = ctx(&p, &[]);
        assert_eq!(c(3.0).min(5.0).eval(&cx), 3.0);
        assert_eq!(c(3.0).max(5.0).eval(&cx), 5.0);
        assert_eq!(c(3.7).floor().eval(&cx), 3.0);
        assert_eq!(c(9.0).sqrt().eval(&cx), 3.0);
        assert_eq!(c(-4.0).sqrt().eval(&cx), 0.0);
        assert_eq!(c(8.0).log2().eval(&cx), 3.0);
        assert_eq!(c(0.0).log2().eval(&cx), 0.0); // clamped at 1
    }

    #[test]
    fn noise_is_deterministic_and_bounded() {
        let p = HashMap::new();
        let its = [2u64];
        let cx = ctx(&p, &its);
        let n = noise(0.1, 7);
        let a = n.eval(&cx);
        let b = n.eval(&cx);
        assert_eq!(a, b);
        assert!((0.9..=1.1).contains(&a), "noise {a} out of bounds");
    }

    #[test]
    fn noise_varies_with_rank_and_iter() {
        let p = HashMap::new();
        let n = noise(0.1, 7);
        let mut values = std::collections::HashSet::new();
        for r in 0..16u32 {
            for it in 0..4u64 {
                let its = [it];
                let cx = EvalCtx {
                    rank: r,
                    nranks: 16,
                    thread: 0,
                    nthreads: 1,
                    iters: &its,
                    params: &p,
                    seed: 1,
                };
                values.insert(n.eval(&cx).to_bits());
            }
        }
        assert!(
            values.len() > 48,
            "noise not varied: {} distinct",
            values.len()
        );
    }

    #[test]
    fn eval_u64_clamps_and_rounds() {
        let p = HashMap::new();
        let cx = ctx(&p, &[]);
        assert_eq!(c(3.6).eval_u64(&cx), 4);
        assert_eq!(c(-5.0).eval_u64(&cx), 0);
    }
}
