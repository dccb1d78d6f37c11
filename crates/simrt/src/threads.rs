//! Fork-join thread-region simulation with exact FIFO lock contention.
//!
//! An OpenMP-like region forks `T` threads that execute the body
//! concurrently in virtual time. Each thread's execution is a sequence of
//! *segments*: compute intervals and lock acquisitions. Threads interact
//! only through locks (per-process objects, including the designated
//! allocator lock): a FIFO mutex grants requests in request-time order, so
//! a holder delays every later requester — precisely the serialization the
//! Vite case study's contention pattern encodes (§5.5).
//!
//! The algorithm processes lock requests through a min-heap keyed by
//! adjusted request time. Because threads only influence each other at
//! lock grants, the earliest pending request is always final, making the
//! simulation exact for this model.

use std::collections::HashMap;

use progmodel::{CallTarget, EvalCtx, PmuSpec, Program, Stmt, StmtId, StmtKind};

use crate::cct::{Cct, CtxFrame, CtxId};
use crate::collector::Collector;
use crate::error::SimError;
use crate::hash::IntMap;
use crate::record::LockRecord;

const MAX_CALL_DEPTH: usize = 256;

/// One executed segment of a thread.
enum Seg {
    Compute {
        dur: f64,
        ctx: CtxId,
        pmu: PmuSpec,
        stmt: StmtId,
    },
    Lock {
        lock: u32,
        hold: f64,
        ctx: CtxId,
        stmt: StmtId,
    },
}

/// Execute a thread region. Returns the region end time (join point).
#[allow(clippy::too_many_arguments)]
pub fn run_thread_region(
    prog: &Program,
    body: &[Stmt],
    region_ctx: CtxId,
    region_start: f64,
    rank: u32,
    nranks: u32,
    region_threads: u32,
    params: &HashMap<String, f64>,
    seed: u64,
    outer_iters: &[u64],
    compute_slowdown: f64,
    col: &mut Collector,
) -> Result<f64, SimError> {
    let t_count = region_threads.max(1);
    // Phase 1: build per-thread segment lists.
    let mut all_segs: Vec<Vec<Seg>> = Vec::with_capacity(t_count as usize);
    for thread in 0..t_count {
        let mut segs = Vec::new();
        let mut iters = outer_iters.to_vec();
        let mut env = ThreadEnv {
            prog,
            rank,
            nranks,
            thread,
            nthreads: t_count,
            params,
            seed,
            depth: 0,
            slowdown: compute_slowdown,
        };
        build_segs(
            &mut env,
            body,
            region_ctx,
            &mut iters,
            &mut col.data.cct,
            &mut segs,
        )?;
        all_segs.push(segs);
    }

    // Phase 2: process all threads, resolving lock contention FIFO.
    let mut cursor = vec![0usize; t_count as usize];
    let mut clock = vec![region_start; t_count as usize];
    // Per lock: when it is next free, and who holds it until then.
    let mut locks: IntMap<u32, (f64, (u32, StmtId, CtxId))> = IntMap::default();
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(TotalF64, u32)>> =
        std::collections::BinaryHeap::new();
    let mut end = region_start;

    // Advance a thread through compute segments to its next lock (or end).
    macro_rules! advance {
        ($t:expr) => {{
            let t = $t as usize;
            loop {
                if cursor[t] >= all_segs[t].len() {
                    end = end.max(clock[t]);
                    break;
                }
                match &all_segs[t][cursor[t]] {
                    Seg::Compute {
                        dur,
                        ctx,
                        pmu,
                        stmt,
                    } => {
                        let t0 = clock[t];
                        let t1 = t0 + dur;
                        let fired = col.account($t, *ctx, t0, t1);
                        col.pmu(*ctx, *dur, pmu);
                        col.trace(*stmt, t0, t1);
                        clock[t] =
                            t1 + fired as f64 * col.sample_cost_us() + col.trace_probe_cost_us();
                        cursor[t] += 1;
                    }
                    Seg::Lock { .. } => {
                        heap.push(std::cmp::Reverse((TotalF64(clock[t]), $t)));
                        break;
                    }
                }
            }
        }};
    }

    for t in 0..t_count {
        advance!(t);
    }

    while let Some(std::cmp::Reverse((TotalF64(req), t))) = heap.pop() {
        let ti = t as usize;
        let (lock, hold, ctx, stmt) = match &all_segs[ti][cursor[ti]] {
            Seg::Lock {
                lock,
                hold,
                ctx,
                stmt,
            } => (*lock, *hold, *ctx, *stmt),
            Seg::Compute { .. } => unreachable!("heap entries point at lock segments"),
        };
        let held = locks.get(&lock).copied();
        let acquire = req.max(held.map_or(f64::NEG_INFINITY, |(free, _)| free));
        let wait = acquire - req;
        let blocked_by = held.filter(|_| wait > 0.0).map(|(_, holder)| holder);
        let release = acquire + hold;
        let fired = col.account(t, ctx, req, release);
        col.trace(stmt, req, release);
        let probe = fired as f64 * col.sample_cost_us() + col.trace_probe_cost_us();
        col.lock(LockRecord {
            rank,
            thread: t,
            ctx,
            stmt,
            lock,
            request: req,
            acquire,
            release,
            blocked_by,
        });
        locks.insert(lock, (release, (t, stmt, ctx)));
        clock[ti] = release + probe;
        cursor[ti] += 1;
        advance!(t);
    }

    Ok(end)
}

/// Total-ordered f64 for heap keys (times are finite and non-NaN).
#[derive(PartialEq)]
struct TotalF64(f64);
impl Eq for TotalF64 {}
impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

struct ThreadEnv<'p> {
    prog: &'p Program,
    rank: u32,
    nranks: u32,
    thread: u32,
    nthreads: u32,
    params: &'p HashMap<String, f64>,
    seed: u64,
    depth: usize,
    slowdown: f64,
}

impl<'p> ThreadEnv<'p> {
    fn eval_ctx<'a>(&'a self, iters: &'a [u64]) -> EvalCtx<'a> {
        EvalCtx {
            rank: self.rank,
            nranks: self.nranks,
            thread: self.thread,
            nthreads: self.nthreads,
            iters,
            params: self.params,
            seed: self.seed,
        }
    }
}

/// Recursively execute a statement list for one thread, emitting segments.
fn build_segs(
    env: &mut ThreadEnv<'_>,
    stmts: &[Stmt],
    parent_ctx: CtxId,
    iters: &mut Vec<u64>,
    cct: &mut Cct,
    segs: &mut Vec<Seg>,
) -> Result<(), SimError> {
    for stmt in stmts {
        let ctx = cct.child(parent_ctx, CtxFrame::Stmt(stmt.id));
        match &stmt.kind {
            StmtKind::Compute { cost_us, pmu, .. } => {
                let dur = cost_us.eval(&env.eval_ctx(iters)).max(0.0) * env.slowdown;
                segs.push(Seg::Compute {
                    dur,
                    ctx,
                    pmu: *pmu,
                    stmt: stmt.id,
                });
            }
            StmtKind::Loop { trips, body, .. } => {
                let n = trips.eval_u64(&env.eval_ctx(iters));
                iters.push(0);
                for i in 0..n {
                    *iters.last_mut().unwrap() = i;
                    build_segs(env, body, ctx, iters, cct, segs)?;
                }
                iters.pop();
            }
            StmtKind::Branch {
                cond,
                then_body,
                else_body,
                ..
            } => {
                let taken = cond.eval(&env.eval_ctx(iters)) != 0.0;
                let body = if taken { then_body } else { else_body };
                build_segs(env, body, ctx, iters, cct, segs)?;
            }
            StmtKind::Call { target } => {
                if env.depth >= MAX_CALL_DEPTH {
                    return Err(SimError::StackOverflow { stmt: stmt.id });
                }
                let fid = match target {
                    CallTarget::Static(f) => *f,
                    CallTarget::Indirect {
                        candidates,
                        selector,
                    } => {
                        let idx =
                            selector.eval_u64(&env.eval_ctx(iters)) as usize % candidates.len();
                        candidates[idx]
                    }
                };
                let fctx = cct.child(ctx, CtxFrame::Func(fid));
                env.depth += 1;
                let prog = env.prog;
                build_segs(env, &prog.function(fid).body, fctx, iters, cct, segs)?;
                env.depth -= 1;
            }
            StmtKind::Lock { lock, hold_us, .. } => {
                let hold = hold_us.eval(&env.eval_ctx(iters)).max(0.0);
                segs.push(Seg::Lock {
                    lock: lock.0,
                    hold,
                    ctx,
                    stmt: stmt.id,
                });
            }
            StmtKind::Comm(_) => {
                return Err(SimError::CommInThreadRegion { stmt: stmt.id });
            }
            StmtKind::ThreadRegion { .. } => {
                return Err(SimError::NestedThreadRegion { stmt: stmt.id });
            }
        }
    }
    Ok(())
}
