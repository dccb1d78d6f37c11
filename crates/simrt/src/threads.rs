//! Fork-join thread-region simulation with exact FIFO lock contention.
//!
//! An OpenMP-like region forks `T` threads that execute the body
//! concurrently in virtual time. Each thread's execution is a sequence of
//! *segments*: compute intervals and lock acquisitions, built by walking
//! the body with the same [`Walker`] that steps ranks. Threads interact
//! only through locks (per-process objects, including the designated
//! allocator lock): a FIFO mutex grants requests in request-time order, so
//! a holder delays every later requester — precisely the serialization the
//! Vite case study's contention pattern encodes (§5.5).
//!
//! The algorithm processes lock requests through a min-heap keyed by
//! adjusted request time. Because threads only influence each other at
//! lock grants, the earliest pending request is always final, making the
//! simulation exact for this model.

use progmodel::{EvalCtx, PmuSpec, Program, Stmt, StmtId, StmtKind};

use crate::cct::CtxId;
use crate::collector::Collector;
use crate::error::SimError;
use crate::hash::IntMap;
use crate::record::LockRecord;
use crate::walker::{Next, Walker};

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

/// Execute a thread region of `ev.nthreads` threads, each evaluating in
/// `ev` with its own thread index. Returns the region end time (join
/// point).
pub(crate) fn run_thread_region<'p>(
    prog: &'p Program,
    body: &'p [Stmt],
    region_ctx: CtxId,
    region_start: f64,
    ev: &EvalCtx<'_>,
    compute_slowdown: f64,
    col: &mut Collector,
) -> Result<f64, SimError> {
    let t_count = ev.nthreads;
    // Phase 1: build per-thread segment lists.
    let mut all_segs: Vec<Vec<Seg>> = Vec::with_capacity(t_count as usize);
    let mut walker = Walker::new(body, region_ctx, ev.iters);
    for thread in 0..t_count {
        let base = EvalCtx { thread, ..*ev };
        walker.restart(body, region_ctx, ev.iters);
        // Threads of a region mostly run alike: size for the last one.
        let mut segs = Vec::with_capacity(all_segs.last().map_or(0, Vec::len));
        loop {
            let (stmt, ctx) = match walker.next(prog, &base, col)? {
                Next::Done => break,
                Next::Entered => continue,
                Next::Leaf(stmt, ctx) => (stmt, ctx),
            };
            let ev = walker.ectx(&base);
            segs.push(match &stmt.kind {
                StmtKind::Compute { cost_us, pmu, .. } => Seg::Compute {
                    dur: cost_us.eval(&ev).max(0.0) * compute_slowdown,
                    ctx,
                    pmu: *pmu,
                    stmt: stmt.id,
                },
                StmtKind::Lock { lock, hold_us, .. } => Seg::Lock {
                    lock: lock.0,
                    hold: hold_us.eval(&ev).max(0.0),
                    ctx,
                    stmt: stmt.id,
                },
                StmtKind::Comm(_) => return Err(SimError::CommInThreadRegion { stmt: stmt.id }),
                // The walker yields no other control flow.
                _ => return Err(SimError::NestedThreadRegion { stmt: stmt.id }),
            });
        }
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
            rank: ev.rank,
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
