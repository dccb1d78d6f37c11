//! The discrete-event engine: per-rank interpreters plus a central
//! communication matcher, organised as a *phase-based* scheduler so the
//! ranks can be simulated on a worker pool.
//!
//! Each rank interprets the program with an explicit frame stack and a
//! virtual clock. A *segment* runs one rank until it blocks — on a
//! blocking receive, a rendezvous send, an `MPI_Wait(all)` whose request
//! is unmatched, or a collective. Segments touch only rank-local state:
//! the rank's `RankState`, its own [`Collector`] shard (with its own
//! CCT), and a buffer of *effects* (channel posts, collective arrivals)
//! to be published later. Between phases the scheduler — always a single
//! thread — applies the buffered effects in rank order, pairs
//! point-to-point operations per `(src, dst, tag)` channel (eager below
//! the threshold, rendezvous above), completes collectives when every
//! live rank arrived, and resolves blocked ranks. Because segments are
//! independent and every cross-rank step is serial and rank-ordered, the
//! result is bit-identical whether the segments of a phase run one at a
//! time or concurrently on the pool ([`RunConfig::sim_workers`]).
//!
//! If neither the segment phase nor resolution makes progress the program
//! has deadlocked and the engine reports which ranks block where (after
//! the quiescence watchdog gives pending injected faults a last chance to
//! fire).
//!
//! Everything observable — samples, comm/lock records, message edges,
//! traces — flows through the per-rank [`Collector`] shards, which
//! [`merge_shards`] folds back into one [`RunData`] in rank order.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use progmodel::{CallTarget, CommOp, EvalCtx, Program, Stmt, StmtId, StmtKind};

use crate::cct::{CtxFrame, CtxId};
use crate::collector::{merge_shards, Collector};
use crate::config::RunConfig;
use crate::faults::{fault_roll, FaultStream};
use crate::hash::IntMap;
use crate::net::collective_cost;
use crate::record::{CommKindTag, CommRecord, LockRecord, MsgEdge, RankStatus, RunData};
use crate::threads::run_thread_region;

pub use crate::error::SimError;

const MAX_CALL_DEPTH: usize = 256;

/// Simulate one run of `prog` under `cfg`.
///
/// With an injected crash in `cfg.faults` the run still returns `Ok`:
/// surviving ranks complete (fail-fast notified of dead peers, collectives
/// shrunk to the survivors) and [`RunData::rank_status`] records who died
/// when. An injected hang instead returns [`SimError::Hang`] with the
/// hung ranks, the ranks blocked behind them and the virtual time — the
/// quiescence watchdog's triage of an otherwise silent stall.
pub fn simulate(prog: &Program, cfg: &RunConfig) -> Result<RunData, SimError> {
    // Span measures host wall-clock only; the simulation's virtual clocks
    // and all collected data are unaffected by observation.
    let _span = cfg.obs.span(obs::Layer::Simrt, "simulate", 0);
    let mut params = prog.default_params.clone();
    params.extend(cfg.params.iter().map(|(k, v)| (k.clone(), *v)));
    // Everything run-invariant in the program's expressions is evaluated
    // here, once, instead of on every interpreter step.
    let bound = prog.bind(&params, cfg.nranks);
    let mut engine = Engine::new(&bound, cfg, params);
    engine.run(POOL_PAYS)?;
    Ok(engine.finish())
}

// ------------------------------------------------------------------ state

/// A posted, not-yet-consumed request (Isend/Irecv).
#[derive(Debug, Clone)]
struct Req {
    kind: CommKindTag,
    peer: u32,
    bytes: u64,
    post: f64,
    completion: Option<f64>,
    /// Matched remote side (rank, stmt, ctx) once known.
    matched: Option<(u32, StmtId, CtxId)>,
}

#[derive(Debug)]
enum FrameKind {
    Body,
    Loop { trips: u64, cur: u64 },
}

#[derive(Debug)]
struct Frame<'p> {
    stmts: &'p [Stmt],
    idx: usize,
    ctx: CtxId,
    kind: FrameKind,
}

#[derive(Debug, Clone)]
enum BlockInfo {
    /// Blocking send or recv; the matcher fills `resume`.
    P2p {
        kind: CommKindTag,
        ctx: CtxId,
        stmt: StmtId,
        peer: u32,
        bytes: u64,
        post: f64,
        /// Remote (rank, stmt, ctx) filled by the matcher.
        matched: Option<(u32, StmtId, CtxId)>,
    },
    /// Waiting for one request slot.
    Wait {
        slot: usize,
        ctx: CtxId,
        stmt: StmtId,
        post: f64,
    },
    /// Waiting for all outstanding requests.
    Waitall { ctx: CtxId, stmt: StmtId, post: f64 },
    /// Waiting for a collective instance.
    Coll {
        inst: u64,
        ctx: CtxId,
        stmt: StmtId,
        post: f64,
        kind: CommKindTag,
        bytes: u64,
    },
}

impl BlockInfo {
    fn stmt(&self) -> StmtId {
        match self {
            BlockInfo::P2p { stmt, .. }
            | BlockInfo::Wait { stmt, .. }
            | BlockInfo::Waitall { stmt, .. }
            | BlockInfo::Coll { stmt, .. } => *stmt,
        }
    }
}

#[derive(Debug)]
struct Blocked {
    resume: Option<f64>,
    info: BlockInfo,
}

/// Fault-injection health of one rank.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Health {
    /// Running normally.
    Ok,
    /// Crashed (injected) at the given virtual time.
    Crashed(f64),
    /// Stopped progressing at the given virtual time: an injected hang,
    /// or (`injected: false`) a survivor stuck forever behind a crash.
    Hung {
        at: f64,
        stmt: Option<StmtId>,
        injected: bool,
    },
}

impl Health {
    fn is_ok(self) -> bool {
        matches!(self, Health::Ok)
    }
}

struct RankState<'p> {
    rank: u32,
    clock: f64,
    frames: Vec<Frame<'p>>,
    iters: Vec<u64>,
    /// Request slots; emptied whenever `outstanding` empties.
    reqs: Vec<Req>,
    outstanding: Vec<usize>,
    coll_seq: u64,
    blocked: Option<Blocked>,
    done: bool,
    call_depth: usize,
    health: Health,
    /// This rank's entries of `RunConfig::rank_slowdown` and the fault
    /// plan's crash / hang tables, looked up once.
    slow: f64,
    crash_at: Option<f64>,
    hang_at: Option<f64>,
}

impl RankState<'_> {
    /// Whether the rank can run a segment in the next phase.
    fn runnable(&self) -> bool {
        !self.done && self.blocked.is_none() && self.health.is_ok()
    }
}

#[derive(Debug, Clone)]
struct SendInst {
    rank: u32,
    stmt: StmtId,
    ctx: CtxId,
    post: f64,
    bytes: u64,
    eager: bool,
    /// Sender request slot (`None` for a blocking send).
    req_slot: Option<usize>,
}

#[derive(Debug, Clone)]
struct RecvInst {
    rank: u32,
    stmt: StmtId,
    ctx: CtxId,
    post: f64,
    /// Receiver request slot (`None` for a blocking recv).
    req_slot: Option<usize>,
}

#[derive(Default)]
struct Channel {
    sends: VecDeque<SendInst>,
    recvs: VecDeque<RecvInst>,
    /// Matches made so far: keys the message-drop fault stream (the match
    /// sequence *within* a channel is deterministic; the global
    /// interleaving across channels is not).
    matches: u64,
    /// Already listed for matching in the current inter-phase step.
    touched: bool,
}

/// One arrival at a collective: (rank, post time, context, statement).
type CollPost = (u32, f64, CtxId, StmtId);

struct CollInst {
    kind: CommKindTag,
    bytes: u64,
    /// One entry per arrived rank (a rank posts an instance once).
    posts: Vec<CollPost>,
    completion: Option<f64>,
    /// The last arriver, fixed when the instance completes.
    late: Option<CollPost>,
}

/// A cross-rank action buffered during a segment and published by the
/// scheduler between phases, in rank order — so the channel/collective
/// state evolves identically no matter how segments were scheduled.
enum Effect {
    Send {
        key: (u32, u32, u32),
        inst: SendInst,
    },
    Recv {
        key: (u32, u32, u32),
        inst: RecvInst,
    },
    Coll {
        inst: u64,
        kind: CommKindTag,
        bytes: u64,
        rank: u32,
        post: f64,
        ctx: CtxId,
        stmt: StmtId,
    },
}

/// Everything one rank's segment may touch: its interpreter state, its
/// collector shard, its buffered effects and a deferred error slot.
struct RankCtx<'p> {
    state: RankState<'p>,
    shard: Collector,
    effects: Vec<Effect>,
    error: Option<SimError>,
}

/// Matcher state owned by the (single-threaded) inter-phase scheduler.
#[derive(Default)]
struct Shared {
    channels: IntMap<(u32, u32, u32), Channel>,
    /// Collective instances, indexed by the per-rank sequence number
    /// every rank counts identically.
    collectives: Vec<CollInst>,
    /// Every instance below this index has completed.
    open_coll: usize,
    /// Cross-rank dependence edges; each endpoint's context lives in
    /// that endpoint rank's shard until the final merge remaps them.
    msg_edges: Vec<MsgEdge>,
    retransmits: u64,
}

struct Engine<'p> {
    prog: &'p Program,
    cfg: &'p RunConfig,
    params: HashMap<String, f64>,
    rankctxs: Vec<Mutex<RankCtx<'p>>>,
    shared: Shared,
}

enum StepOutcome {
    Progress,
    Blocked,
    Done,
}

// ------------------------------------------------------- rank-local ops

/// Kill a rank at virtual time `at` (rank-local part; the scheduler's
/// crash sweep handles peer notification).
fn crash_state(state: &mut RankState<'_>, at: f64) {
    state.health = Health::Crashed(at);
    state.clock = at;
    state.blocked = None;
    state.frames.clear();
}

/// Stop a rank from progressing at virtual time `at` without killing it
/// ([`Health::Hung`]). `injected` distinguishes a planned hang from a
/// survivor derived-stalled behind a crash.
fn stall_state(state: &mut RankState<'_>, at: f64, injected: bool) {
    let stmt = state.blocked.as_ref().map(|b| b.info.stmt()).or_else(|| {
        state
            .frames
            .last()
            .and_then(|f| f.stmts.get(f.idx))
            .map(|s| s.id)
    });
    state.health = Health::Hung { at, stmt, injected };
    state.clock = state.clock.max(at);
    state.blocked = None;
}

fn push_req(
    state: &mut RankState<'_>,
    kind: CommKindTag,
    peer: u32,
    bytes: u64,
    post: f64,
) -> usize {
    let slot = state.reqs.len();
    state.reqs.push(Req {
        kind,
        peer,
        bytes,
        post,
        completion: None,
        matched: None,
    });
    state.outstanding.push(slot);
    slot
}

// ------------------------------------------------------------- segments

/// Read-only context for running rank segments, shared by every thread
/// that runs them. `crashed` is the phase's crash *snapshot*: only the
/// scheduler writes it, and only between phases, so a rank crashing
/// mid-phase becomes visible to its peers at the next phase boundary,
/// which keeps segments order-independent. `Relaxed` suffices: a pool
/// thread reads it after taking the [`PoolCtrl`] mutex the scheduler
/// released to start the phase.
struct SegCtx<'a, 'p> {
    prog: &'p Program,
    cfg: &'a RunConfig,
    params: &'a HashMap<String, f64>,
    crashed: &'a [AtomicBool],
}

impl<'a, 'p> SegCtx<'a, 'p> {
    /// Run the segment of every runnable rank of `rankctxs`. A segment
    /// touches only its own rank, so any split of a phase's ranks among
    /// threads gives the same result.
    fn run_segments(&self, rankctxs: &[Mutex<RankCtx<'p>>]) {
        for m in rankctxs {
            self.run_segment(m);
        }
    }

    /// Run one rank, if it can run, until it blocks, finishes, faults or
    /// errors.
    fn run_segment(&self, m: &Mutex<RankCtx<'p>>) {
        let rc = &mut *m.lock().unwrap();
        if !rc.state.runnable() {
            return;
        }
        let t0 = self.cfg.obs.now_us();
        let mut steps = 0u64;
        loop {
            // A scheduled crash/hang fires at the first event boundary at
            // or after its virtual time.
            if self.apply_rank_fault(rc) {
                break;
            }
            match self.step(rc) {
                Ok(StepOutcome::Progress) => steps += 1,
                Ok(StepOutcome::Blocked) => {
                    steps += 1;
                    break;
                }
                Ok(StepOutcome::Done) => break,
                Err(e) => {
                    rc.error = Some(e);
                    break;
                }
            }
        }
        if self.cfg.obs.is_enabled() {
            self.cfg.obs.record_span(
                obs::Layer::Simrt,
                "segment",
                rc.state.rank,
                t0,
                self.cfg.obs.now_us(),
                &[("vclock_us", rc.state.clock)],
            );
            self.cfg.obs.count("simrt.segments", 1);
            self.cfg.obs.count("simrt.steps", steps);
        }
    }

    /// Apply a scheduled crash/hang if the rank's clock reached the fault
    /// time. Returns whether a fault was applied.
    fn apply_rank_fault(&self, rc: &mut RankCtx<'p>) -> bool {
        if rc.state.done || !rc.state.health.is_ok() {
            return false;
        }
        if let Some(t) = rc.state.crash_at {
            if rc.state.clock >= t {
                let at = rc.state.clock.max(t);
                crash_state(&mut rc.state, at);
                return true;
            }
        }
        if let Some(t) = rc.state.hang_at {
            if rc.state.clock >= t {
                let at = rc.state.clock.max(t);
                stall_state(&mut rc.state, at, true);
                return true;
            }
        }
        false
    }

    /// True when `rank` was crashed as of the start of this phase.
    fn is_crashed(&self, rank: u32) -> bool {
        self.crashed[rank as usize].load(Ordering::Relaxed)
    }

    fn ectx<'s>(&'s self, state: &'s RankState<'p>) -> EvalCtx<'s> {
        EvalCtx {
            rank: state.rank,
            nranks: self.cfg.nranks,
            thread: 0,
            nthreads: self.cfg.nthreads,
            iters: &state.iters,
            params: self.params,
            seed: self.cfg.seed,
        }
    }

    /// Advance the rank's clock by `dt`, attributing the interval to
    /// `ctx`. Fired samples charge their handler cost to the clock — the
    /// observer effect the Table-1 overhead experiment measures.
    fn advance(&self, rc: &mut RankCtx<'p>, dt: f64, ctx: CtxId) {
        debug_assert!(dt >= 0.0);
        let t0 = rc.state.clock;
        let t1 = t0 + dt;
        let fired = rc.shard.account(0, ctx, t0, t1);
        rc.state.clock = t1 + fired as f64 * rc.shard.sample_cost_us();
    }

    /// Execute one step of the rank. Must only be called when unblocked.
    fn step(&self, rc: &mut RankCtx<'p>) -> Result<StepOutcome, SimError> {
        // Handle frame exhaustion / loop iteration.
        loop {
            let frame = match rc.state.frames.last() {
                Some(f) => f,
                None => {
                    rc.state.done = true;
                    return Ok(StepOutcome::Done);
                }
            };
            if frame.idx < frame.stmts.len() {
                break;
            }
            let frame = rc.state.frames.last_mut().unwrap();
            match &mut frame.kind {
                FrameKind::Loop { trips, cur } if *cur + 1 < *trips => {
                    *cur += 1;
                    frame.idx = 0;
                    let cur = *cur;
                    *rc.state.iters.last_mut().unwrap() = cur;
                }
                FrameKind::Loop { .. } => {
                    rc.state.iters.pop();
                    rc.state.frames.pop();
                }
                FrameKind::Body => {
                    rc.state.frames.pop();
                    if rc.state.call_depth > 0 {
                        rc.state.call_depth -= 1;
                    }
                }
            }
            if rc.state.frames.is_empty() {
                rc.state.done = true;
                return Ok(StepOutcome::Done);
            }
        }

        let frame = rc.state.frames.last().unwrap();
        let stmt: &'p Stmt = &frame.stmts[frame.idx];
        let parent_ctx = frame.ctx;
        let ctx = rc.shard.data.cct.child(parent_ctx, CtxFrame::Stmt(stmt.id));

        match &stmt.kind {
            StmtKind::Compute { cost_us, pmu, .. } => {
                let dt = cost_us.eval(&self.ectx(&rc.state)).max(0.0) * rc.state.slow;
                let t0 = rc.state.clock;
                self.advance(rc, dt, ctx);
                rc.shard.pmu(ctx, dt, pmu);
                rc.shard.trace(stmt.id, t0, t0 + dt);
                rc.state.clock += rc.shard.trace_probe_cost_us();
                rc.state.frames.last_mut().unwrap().idx += 1;
                Ok(StepOutcome::Progress)
            }
            StmtKind::Loop { trips, body, .. } => {
                let n = trips.eval_u64(&self.ectx(&rc.state));
                rc.state.frames.last_mut().unwrap().idx += 1;
                if n > 0 {
                    rc.state.iters.push(0);
                    rc.state.frames.push(Frame {
                        stmts: body,
                        idx: 0,
                        ctx,
                        kind: FrameKind::Loop { trips: n, cur: 0 },
                    });
                }
                Ok(StepOutcome::Progress)
            }
            StmtKind::Branch {
                cond,
                then_body,
                else_body,
                ..
            } => {
                let taken = cond.eval(&self.ectx(&rc.state)) != 0.0;
                rc.state.frames.last_mut().unwrap().idx += 1;
                let body = if taken { then_body } else { else_body };
                if !body.is_empty() {
                    rc.state.frames.push(Frame {
                        stmts: body,
                        idx: 0,
                        ctx,
                        kind: FrameKind::Body,
                    });
                }
                Ok(StepOutcome::Progress)
            }
            StmtKind::Call { target } => {
                if rc.state.call_depth >= MAX_CALL_DEPTH {
                    return Err(SimError::StackOverflow { stmt: stmt.id });
                }
                let fid = match target {
                    CallTarget::Static(f) => *f,
                    CallTarget::Indirect {
                        candidates,
                        selector,
                    } => {
                        let idx =
                            selector.eval_u64(&self.ectx(&rc.state)) as usize % candidates.len();
                        let fid = candidates[idx];
                        rc.shard.indirect(stmt.id, fid);
                        fid
                    }
                };
                let fctx = rc.shard.data.cct.child(ctx, CtxFrame::Func(fid));
                rc.state.frames.last_mut().unwrap().idx += 1;
                rc.state.call_depth += 1;
                rc.state.frames.push(Frame {
                    stmts: &self.prog.function(fid).body,
                    idx: 0,
                    ctx: fctx,
                    kind: FrameKind::Body,
                });
                Ok(StepOutcome::Progress)
            }
            StmtKind::ThreadRegion { threads, body } => {
                let t = threads.eval_u64(&self.ectx(&rc.state)).max(1) as u32;
                let start = rc.state.clock;
                let end = run_thread_region(
                    self.prog,
                    body,
                    ctx,
                    start,
                    rc.state.rank,
                    self.cfg.nranks,
                    t,
                    self.params,
                    self.cfg.seed,
                    &rc.state.iters,
                    rc.state.slow,
                    &mut rc.shard,
                )?;
                rc.state.clock = end;
                rc.state.frames.last_mut().unwrap().idx += 1;
                Ok(StepOutcome::Progress)
            }
            StmtKind::Lock { lock, hold_us, .. } => {
                // Rank-level lock: no intra-process contention (single
                // thread), but still recorded for completeness.
                let hold = hold_us.eval(&self.ectx(&rc.state)).max(0.0);
                let t0 = rc.state.clock;
                self.advance(rc, hold, ctx);
                let rank = rc.state.rank;
                rc.shard.lock(LockRecord {
                    rank,
                    thread: 0,
                    ctx,
                    stmt: stmt.id,
                    lock: lock.0,
                    request: t0,
                    acquire: t0,
                    release: t0 + hold,
                    blocked_by: None,
                });
                rc.shard.trace(stmt.id, t0, t0 + hold);
                rc.state.frames.last_mut().unwrap().idx += 1;
                Ok(StepOutcome::Progress)
            }
            StmtKind::Comm(op) => self.step_comm(rc, stmt, ctx, op),
        }
    }

    // ---------------------------------------------------- communication

    fn eval_peer(
        &self,
        rc: &RankCtx<'p>,
        e: &progmodel::Expr,
        stmt: StmtId,
    ) -> Result<u32, SimError> {
        let v = e.eval(&self.ectx(&rc.state)).round() as i64;
        if v < 0 || v >= self.cfg.nranks as i64 {
            return Err(SimError::BadPeer {
                stmt,
                peer: v,
                nranks: self.cfg.nranks,
            });
        }
        Ok(v as u32)
    }

    /// Complete a point-to-point operation addressed to a crashed peer
    /// immediately as failed (fail-fast notification): the survivor must
    /// not block on a rank that can never answer.
    #[allow(clippy::too_many_arguments)]
    fn fail_fast_p2p(
        &self,
        rc: &mut RankCtx<'p>,
        kind: CommKindTag,
        ctx: CtxId,
        stmt: StmtId,
        peer: u32,
        bytes: u64,
        nonblocking: bool,
    ) {
        let overhead = self.cfg.network.op_overhead_us;
        let post = rc.state.clock;
        if nonblocking {
            let slot = push_req(&mut rc.state, kind, peer, bytes, post);
            rc.state.reqs[slot].completion = Some(post + overhead);
        }
        let rank = rc.state.rank;
        self.advance(rc, overhead, ctx);
        rc.shard.comm(CommRecord {
            rank,
            ctx,
            stmt,
            kind,
            peer,
            bytes,
            post,
            complete: post + overhead,
            wait: 0.0,
        });
        rc.shard.trace(stmt, post, post + overhead);
        rc.state.frames.last_mut().unwrap().idx += 1;
    }

    fn step_comm(
        &self,
        rc: &mut RankCtx<'p>,
        stmt: &'p Stmt,
        ctx: CtxId,
        op: &'p CommOp,
    ) -> Result<StepOutcome, SimError> {
        let rank = rc.state.rank;
        // PMPI wrapper / trace-event cost of intercepting this call.
        rc.state.clock += rc.shard.comm_call_cost_us();
        let net = &self.cfg.network;
        let overhead = net.op_overhead_us;
        match op {
            CommOp::Isend { peer, bytes, tag } => {
                let peer = self.eval_peer(rc, peer, stmt.id)?;
                let bytes = bytes.eval_u64(&self.ectx(&rc.state));
                if self.is_crashed(peer) {
                    self.fail_fast_p2p(rc, CommKindTag::Isend, ctx, stmt.id, peer, bytes, true);
                    return Ok(StepOutcome::Progress);
                }
                let post = rc.state.clock;
                let eager = bytes <= net.eager_threshold;
                let slot = push_req(&mut rc.state, CommKindTag::Isend, peer, bytes, post);
                if eager {
                    rc.state.reqs[slot].completion = Some(post + overhead);
                }
                rc.effects.push(Effect::Send {
                    key: (rank, peer, *tag),
                    inst: SendInst {
                        rank,
                        stmt: stmt.id,
                        ctx,
                        post,
                        bytes,
                        eager,
                        req_slot: Some(slot),
                    },
                });
                self.advance(rc, overhead, ctx);
                rc.shard.comm(CommRecord {
                    rank,
                    ctx,
                    stmt: stmt.id,
                    kind: CommKindTag::Isend,
                    peer,
                    bytes,
                    post,
                    complete: post + overhead,
                    wait: 0.0,
                });
                rc.shard.trace(stmt.id, post, post + overhead);
                rc.state.frames.last_mut().unwrap().idx += 1;
                Ok(StepOutcome::Progress)
            }
            CommOp::Irecv { peer, bytes, tag } => {
                let peer = self.eval_peer(rc, peer, stmt.id)?;
                let bytes = bytes.eval_u64(&self.ectx(&rc.state));
                if self.is_crashed(peer) {
                    self.fail_fast_p2p(rc, CommKindTag::Irecv, ctx, stmt.id, peer, bytes, true);
                    return Ok(StepOutcome::Progress);
                }
                let post = rc.state.clock;
                let slot = push_req(&mut rc.state, CommKindTag::Irecv, peer, bytes, post);
                rc.effects.push(Effect::Recv {
                    key: (peer, rank, *tag),
                    inst: RecvInst {
                        rank,
                        stmt: stmt.id,
                        ctx,
                        post,
                        req_slot: Some(slot),
                    },
                });
                self.advance(rc, overhead, ctx);
                rc.shard.comm(CommRecord {
                    rank,
                    ctx,
                    stmt: stmt.id,
                    kind: CommKindTag::Irecv,
                    peer,
                    bytes,
                    post,
                    complete: post + overhead,
                    wait: 0.0,
                });
                rc.shard.trace(stmt.id, post, post + overhead);
                rc.state.frames.last_mut().unwrap().idx += 1;
                Ok(StepOutcome::Progress)
            }
            CommOp::Send { peer, bytes, tag } => {
                let peer = self.eval_peer(rc, peer, stmt.id)?;
                let bytes = bytes.eval_u64(&self.ectx(&rc.state));
                if self.is_crashed(peer) {
                    self.fail_fast_p2p(rc, CommKindTag::Send, ctx, stmt.id, peer, bytes, false);
                    return Ok(StepOutcome::Progress);
                }
                let post = rc.state.clock;
                let eager = bytes <= net.eager_threshold;
                rc.effects.push(Effect::Send {
                    key: (rank, peer, *tag),
                    inst: SendInst {
                        rank,
                        stmt: stmt.id,
                        ctx,
                        post,
                        bytes,
                        eager,
                        req_slot: None,
                    },
                });
                if eager {
                    // Eager send completes locally; receiver matches later.
                    self.advance(rc, overhead, ctx);
                    rc.shard.comm(CommRecord {
                        rank,
                        ctx,
                        stmt: stmt.id,
                        kind: CommKindTag::Send,
                        peer,
                        bytes,
                        post,
                        complete: post + overhead,
                        wait: 0.0,
                    });
                    rc.shard.trace(stmt.id, post, post + overhead);
                    rc.state.frames.last_mut().unwrap().idx += 1;
                    Ok(StepOutcome::Progress)
                } else {
                    rc.state.blocked = Some(Blocked {
                        resume: None,
                        info: BlockInfo::P2p {
                            kind: CommKindTag::Send,
                            ctx,
                            stmt: stmt.id,
                            peer,
                            bytes,
                            post,
                            matched: None,
                        },
                    });
                    Ok(StepOutcome::Blocked)
                }
            }
            CommOp::Recv { peer, bytes, tag } => {
                let peer = self.eval_peer(rc, peer, stmt.id)?;
                let bytes = bytes.eval_u64(&self.ectx(&rc.state));
                if self.is_crashed(peer) {
                    self.fail_fast_p2p(rc, CommKindTag::Recv, ctx, stmt.id, peer, bytes, false);
                    return Ok(StepOutcome::Progress);
                }
                let post = rc.state.clock;
                rc.effects.push(Effect::Recv {
                    key: (peer, rank, *tag),
                    inst: RecvInst {
                        rank,
                        stmt: stmt.id,
                        ctx,
                        post,
                        req_slot: None,
                    },
                });
                rc.state.blocked = Some(Blocked {
                    resume: None,
                    info: BlockInfo::P2p {
                        kind: CommKindTag::Recv,
                        ctx,
                        stmt: stmt.id,
                        peer,
                        bytes,
                        post,
                        matched: None,
                    },
                });
                Ok(StepOutcome::Blocked)
            }
            CommOp::Wait { back } => {
                let outstanding = rc.state.outstanding.len();
                let Some(i) = outstanding.checked_sub(1 + *back as usize) else {
                    return Err(SimError::BadWait {
                        stmt: stmt.id,
                        back: *back,
                        outstanding,
                    });
                };
                let slot = rc.state.outstanding[i];
                let post = rc.state.clock;
                rc.state.blocked = Some(Blocked {
                    resume: None,
                    info: BlockInfo::Wait {
                        slot,
                        ctx,
                        stmt: stmt.id,
                        post,
                    },
                });
                Ok(StepOutcome::Blocked)
            }
            CommOp::Waitall => {
                let post = rc.state.clock;
                rc.state.blocked = Some(Blocked {
                    resume: None,
                    info: BlockInfo::Waitall {
                        ctx,
                        stmt: stmt.id,
                        post,
                    },
                });
                Ok(StepOutcome::Blocked)
            }
            CommOp::Barrier
            | CommOp::Bcast { .. }
            | CommOp::Reduce { .. }
            | CommOp::Allreduce { .. }
            | CommOp::Alltoall { .. } => {
                let (kind, bytes) = match op {
                    CommOp::Barrier => (CommKindTag::Barrier, 0),
                    CommOp::Bcast { bytes, .. } => {
                        (CommKindTag::Bcast, bytes.eval_u64(&self.ectx(&rc.state)))
                    }
                    CommOp::Reduce { bytes, .. } => {
                        (CommKindTag::Reduce, bytes.eval_u64(&self.ectx(&rc.state)))
                    }
                    CommOp::Allreduce { bytes } => (
                        CommKindTag::Allreduce,
                        bytes.eval_u64(&self.ectx(&rc.state)),
                    ),
                    CommOp::Alltoall { bytes } => {
                        (CommKindTag::Alltoall, bytes.eval_u64(&self.ectx(&rc.state)))
                    }
                    _ => unreachable!(),
                };
                let inst = rc.state.coll_seq;
                rc.state.coll_seq += 1;
                let post = rc.state.clock;
                rc.effects.push(Effect::Coll {
                    inst,
                    kind,
                    bytes,
                    rank,
                    post,
                    ctx,
                    stmt: stmt.id,
                });
                rc.state.blocked = Some(Blocked {
                    resume: None,
                    info: BlockInfo::Coll {
                        inst,
                        ctx,
                        stmt: stmt.id,
                        post,
                        kind,
                        bytes,
                    },
                });
                Ok(StepOutcome::Blocked)
            }
        }
    }
}

// ------------------------------------------------------------ scheduler

/// The scheduler thread starts every phase alone and shares the rest
/// with the pool once the remaining segments, at the pace of those it has
/// run, would take this long inline. Waking a helper costs tens of µs,
/// and whatever a helper allocates it page-faults in afresh each run
/// (its allocator arena does not stay warm the way the scheduler
/// thread's does), so shorter phases are faster inline. Host time may
/// pick the path because both compute the same bits.
const POOL_PAYS: Duration = Duration::from_millis(2);

/// The inter-phase scheduler: runs on one thread, owns the matcher state,
/// and performs every cross-rank step in rank order.
struct Sched<'a, 'p> {
    seg: &'a SegCtx<'a, 'p>,
    cfg: &'a RunConfig,
    rankctxs: &'a [Mutex<RankCtx<'p>>],
    shared: &'a mut Shared,
}

impl<'a, 'p> Sched<'a, 'p> {
    fn drive(&mut self, pool: Option<(&PoolCtrl, &dyn Fn())>) -> Result<(), SimError> {
        // Ranks that can run a segment in the coming phase.
        let mut nrun = self.rankctxs.len();
        let mut phase_idx: u64 = 0;
        loop {
            // Segments: the identical per-rank code runs either inline
            // (serial) or shared out among the pool — bit-identical by
            // construction since segments touch only rank-local state.
            let progressed = nrun > 0;
            if progressed {
                let t0 = self.cfg.obs.now_us();
                match pool {
                    // The first phase builds every rank's context tree
                    // and buffers: all allocation, so never shared.
                    Some((ctrl, spawn)) if phase_idx > 0 => {
                        ctrl.run_phase(self.seg, self.rankctxs, spawn)
                    }
                    _ => self.seg.run_segments(self.rankctxs),
                }
                if self.cfg.obs.is_enabled() {
                    self.cfg.obs.record_span(
                        obs::Layer::Simrt,
                        "phase",
                        0,
                        t0,
                        self.cfg.obs.now_us(),
                        &[("phase", phase_idx as f64), ("runnable", nrun as f64)],
                    );
                    self.cfg.obs.count("simrt.phases", 1);
                }
                phase_idx += 1;
            }
            // Crash sweep: notify peers of ranks that died this phase.
            for (dead, at) in self.publish_effects()? {
                self.seg.crashed[dead as usize].store(true, Ordering::Relaxed);
                self.notify_crash(dead, at);
            }
            self.complete_ready_collectives();
            let (resolved, runnable, all_done) = self.resolve_blocked();
            nrun = runnable;
            if all_done {
                return self.check_injected_hangs();
            }
            if !progressed && !resolved {
                // Quiescence watchdog. First, force any still-pending
                // scheduled fault onto its (blocked) rank: a rank whose
                // clock stopped short of its fault time would otherwise
                // never reach it.
                if self.apply_scheduled_faults_to_blocked() {
                    continue;
                }
                let blocked = self.blocked_ranks();
                if self.any_injected_hang() {
                    return Err(self.hang_error(blocked));
                }
                if self.seg.crashed.iter().any(|c| c.load(Ordering::Relaxed)) {
                    // Survivors stuck forever behind the crash (e.g. a
                    // dependence the fail-fast notification cannot break):
                    // mark them hung and degrade gracefully to a partial
                    // run instead of failing the whole simulation.
                    for m in self.rankctxs {
                        let mut rc = m.lock().unwrap();
                        if rc.state.health.is_ok() && rc.state.blocked.is_some() {
                            let at = rc.state.clock;
                            stall_state(&mut rc.state, at, false);
                        }
                    }
                    continue;
                }
                return Err(SimError::Deadlock { blocked });
            }
        }
    }

    /// Publish every rank's buffered effects in rank order, then pair
    /// what became matchable, channel by channel in first-touched order.
    /// Returns the ranks that crashed during the phase. A segment's
    /// deferred error surfaces here, lowest rank first, independent of
    /// scheduling.
    fn publish_effects(&mut self) -> Result<Vec<(u32, f64)>, SimError> {
        let mut touched = Vec::new();
        let mut died = Vec::new();
        for m in self.rankctxs {
            let mut rc = m.lock().unwrap();
            if let Some(e) = rc.error.take() {
                return Err(e);
            }
            match rc.state.health {
                Health::Crashed(at) if !self.seg.is_crashed(rc.state.rank) => {
                    died.push((rc.state.rank, at))
                }
                _ => {}
            }
            for eff in rc.effects.drain(..) {
                match eff {
                    Effect::Send { key, inst } => {
                        self.shared.channel(key, &mut touched).sends.push_back(inst)
                    }
                    Effect::Recv { key, inst } => {
                        self.shared.channel(key, &mut touched).recvs.push_back(inst)
                    }
                    Effect::Coll {
                        inst,
                        kind,
                        bytes,
                        rank,
                        post,
                        ctx,
                        stmt,
                    } => {
                        // A rank reaches instance k only through k-1, so
                        // a new instance is always the next index.
                        let colls = &mut self.shared.collectives;
                        if inst as usize == colls.len() {
                            colls.push(CollInst {
                                kind,
                                bytes: 0,
                                posts: Vec::with_capacity(self.rankctxs.len()),
                                completion: None,
                                late: None,
                            });
                        }
                        let entry = &mut colls[inst as usize];
                        debug_assert_eq!(
                            entry.kind, kind,
                            "ranks disagree on collective {inst}: {:?} vs {kind:?}",
                            entry.kind
                        );
                        entry.bytes = entry.bytes.max(bytes);
                        entry.posts.push((rank, post, ctx, stmt));
                    }
                }
            }
        }
        for key in touched {
            self.try_match(key);
        }
        Ok(died)
    }

    // -------------------------------------------------- fault machinery

    /// Force pending scheduled faults onto blocked ranks (quiescence
    /// watchdog path). Returns whether anything fired.
    fn apply_scheduled_faults_to_blocked(&mut self) -> bool {
        let mut any = false;
        for (r, m) in self.rankctxs.iter().enumerate() {
            let fired_crash = {
                let mut rc = m.lock().unwrap();
                let state = &mut rc.state;
                if state.done || !state.health.is_ok() || state.blocked.is_none() {
                    continue;
                }
                if let Some(t) = state.crash_at {
                    let at = state.clock.max(t);
                    crash_state(state, at);
                    any = true;
                    Some(at)
                } else {
                    if let Some(t) = state.hang_at {
                        let at = state.clock.max(t);
                        stall_state(state, at, true);
                        any = true;
                    }
                    None
                }
            };
            if let Some(at) = fired_crash {
                self.seg.crashed[r].store(true, Ordering::Relaxed);
                self.notify_crash(r as u32, at);
                self.complete_ready_collectives();
            }
        }
        any
    }

    /// Peer notification after rank `dead` crashed at `at`: operations
    /// already targeting the dead rank complete as failed no earlier than
    /// the crash (an ULFM-style revoke).
    fn notify_crash(&mut self, dead: u32, at: f64) {
        for (p, m) in self.rankctxs.iter().enumerate() {
            if p == dead as usize {
                continue;
            }
            let mut rc = m.lock().unwrap();
            for req in &mut rc.state.reqs {
                if req.peer == dead && req.completion.is_none() {
                    req.completion = Some(req.post.max(at));
                }
            }
            if let Some(b) = rc.state.blocked.as_mut() {
                if let BlockInfo::P2p {
                    peer,
                    post,
                    matched: None,
                    ..
                } = &b.info
                {
                    if *peer == dead && b.resume.is_none() {
                        b.resume = Some(post.max(at));
                    }
                }
            }
        }
    }

    /// `Err(SimError::Hang)` describing every injected-hung rank plus the
    /// healthy ranks blocked behind them.
    fn hang_error(&self, blocked: Vec<(u32, StmtId)>) -> SimError {
        let mut hung = Vec::new();
        let mut virtual_time_us = 0.0f64;
        for m in self.rankctxs {
            let rc = m.lock().unwrap();
            virtual_time_us = virtual_time_us.max(rc.state.clock);
            if let Health::Hung {
                at,
                stmt,
                injected: true,
            } = rc.state.health
            {
                hung.push((rc.state.rank, stmt, at));
            }
        }
        SimError::Hang {
            hung,
            blocked,
            virtual_time_us,
        }
    }

    /// At termination: an injected hang is an error even when no other
    /// rank was blocked behind it — a silently missing rank must never
    /// look like a clean run.
    fn check_injected_hangs(&self) -> Result<(), SimError> {
        if self.any_injected_hang() {
            return Err(self.hang_error(Vec::new()));
        }
        Ok(())
    }

    fn any_injected_hang(&self) -> bool {
        self.rankctxs.iter().any(|m| {
            matches!(
                m.lock().unwrap().state.health,
                Health::Hung { injected: true, .. }
            )
        })
    }

    fn blocked_ranks(&self) -> Vec<(u32, StmtId)> {
        self.rankctxs
            .iter()
            .filter_map(|m| {
                let rc = m.lock().unwrap();
                if rc.state.health.is_ok() {
                    rc.state
                        .blocked
                        .as_ref()
                        .map(|b| (rc.state.rank, b.info.stmt()))
                } else {
                    None
                }
            })
            .collect()
    }

    // ----------------------------------------------------------- matcher

    fn msg_edge(&mut self, edge: MsgEdge) {
        if self.cfg.collection.collect_comm {
            self.shared.msg_edges.push(edge);
        }
    }

    /// Match pending sends/recvs on one channel, computing completions.
    fn try_match(&mut self, key: (u32, u32, u32)) {
        let rankctxs = self.rankctxs;
        let cfg = self.cfg;
        let Shared {
            channels,
            msg_edges,
            retransmits,
            ..
        } = &mut *self.shared;
        let chan = channels.get_mut(&key).expect("touched channels exist");
        chan.touched = false;
        while !chan.sends.is_empty() && !chan.recvs.is_empty() {
            let send = chan.sends.pop_front().expect("checked non-empty");
            let recv = chan.recvs.pop_front().expect("checked non-empty");
            let overhead = cfg.network.op_overhead_us;
            let mut transfer = cfg.network.transfer_us(send.bytes);
            // Injected network fault: this message is dropped and
            // retransmitted after a timeout, stretching its transfer.
            // Each match is keyed by its channel and its index in that
            // channel's (deterministic, FIFO) match sequence, so the drop
            // pattern replays under a seed no matter how matching work
            // interleaves across channels.
            if cfg.faults.msg_drop_rate > 0.0 {
                let id = chan.matches;
                chan.matches += 1;
                let chan_id = ((key.0 as u64) << 42) ^ ((key.1 as u64) << 21) ^ key.2 as u64;
                if fault_roll(cfg.seed, FaultStream::MsgDrop, chan_id, id)
                    < cfg.faults.msg_drop_rate
                {
                    transfer += cfg.faults.msg_delay_us;
                    *retransmits += 1;
                }
            }
            let (send_complete, xfer_end) = if send.eager {
                (send.post + overhead, send.post + overhead + transfer)
            } else {
                let end = send.post.max(recv.post) + transfer;
                (end, end)
            };
            let recv_complete = recv.post.max(xfer_end);

            // Sender side. An eager send completed locally at post time:
            // nothing to resolve — and its request slot may have been
            // retired and reused long before this match.
            if !send.eager {
                let mut rc = rankctxs[send.rank as usize].lock().unwrap();
                if let Some(slot) = send.req_slot {
                    let req = &mut rc.state.reqs[slot];
                    req.completion = Some(send_complete);
                    req.matched = Some((recv.rank, recv.stmt, recv.ctx));
                } else {
                    // Blocking rendezvous send: unblock.
                    if let Some(b) = rc.state.blocked.as_mut() {
                        debug_assert!(
                            matches!(
                                b.info,
                                BlockInfo::P2p {
                                    kind: CommKindTag::Send,
                                    ..
                                }
                            ),
                            "rendezvous sender must be blocked on its send"
                        );
                        b.resume = Some(send_complete);
                        if let BlockInfo::P2p { matched, .. } = &mut b.info {
                            *matched = Some((recv.rank, recv.stmt, recv.ctx));
                        }
                    }
                    // Late receiver delayed the sender: dependence edge
                    // receiver → sender.
                    if recv.post > send.post && cfg.collection.collect_comm {
                        msg_edges.push(MsgEdge {
                            src_rank: recv.rank,
                            src_stmt: recv.stmt,
                            src_ctx: recv.ctx,
                            dst_rank: send.rank,
                            dst_stmt: send.stmt,
                            dst_ctx: send.ctx,
                            bytes: send.bytes,
                            kind: CommKindTag::Send,
                            wait: recv.post - send.post,
                        });
                    }
                }
            }
            // Receiver side.
            let mut rc = rankctxs[recv.rank as usize].lock().unwrap();
            let matched_send = Some((send.rank, send.stmt, send.ctx));
            if let Some(slot) = recv.req_slot {
                let req = &mut rc.state.reqs[slot];
                req.completion = Some(recv_complete);
                req.matched = matched_send;
            } else if let Some(b) = rc.state.blocked.as_mut() {
                b.resume = Some(recv_complete);
                if let BlockInfo::P2p { matched, .. } = &mut b.info {
                    *matched = matched_send;
                }
            }
        }
    }

    /// Complete every open collective whose live ranks have all arrived.
    /// Crashed ranks are dropped from the membership (the shrunken
    /// communicator), while hung ranks still count — a hang blocks
    /// collectives, which is how it propagates. A rank posts an instance
    /// at most once, so "every live rank posted" is a count, and only a
    /// new post or a crash can make it true.
    fn complete_ready_collectives(&mut self) {
        let seg = self.seg;
        let live = (0..self.cfg.nranks).filter(|&r| !seg.is_crashed(r)).count();
        let shared = &mut *self.shared;
        for c in &mut shared.collectives[shared.open_coll..] {
            if c.completion.is_some()
                || c.posts.iter().filter(|p| !seg.is_crashed(p.0)).count() < live
            {
                continue;
            }
            let cost = collective_cost(&self.cfg.network, c.kind, c.bytes, self.cfg.nranks);
            let max_post = c
                .posts
                .iter()
                .map(|&(_, p, _, _)| p)
                .fold(f64::NEG_INFINITY, f64::max);
            c.completion = Some(max_post + cost);
            c.late = c.posts.iter().max_by(|a, b| a.1.total_cmp(&b.1)).copied();
            // Resuming ranks read `completion` and `late` only.
            c.posts = Vec::new();
        }
        while (shared.collectives.get(shared.open_coll)).is_some_and(|c| c.completion.is_some()) {
            shared.open_coll += 1;
        }
    }

    // -------------------------------------------------------- resolution

    /// Resolve blocked ranks whose completion is now computable, in rank
    /// order. Returns whether any rank was unblocked, how many ranks can
    /// run a segment next, and whether every rank has finished or faulted.
    fn resolve_blocked(&mut self) -> (bool, usize, bool) {
        let (mut any, mut runnable, mut all_done) = (false, 0, true);
        for m in self.rankctxs {
            let mut rc = m.lock().unwrap();
            if let Some(blocked) = rc.state.blocked.take() {
                if self.try_finish(&mut rc, &blocked) {
                    any = true;
                } else {
                    rc.state.blocked = Some(blocked);
                }
            }
            runnable += rc.state.runnable() as usize;
            all_done &= rc.state.done || !rc.state.health.is_ok();
        }
        (any, runnable, all_done)
    }

    /// Attempt to complete a blocked operation; true if the rank resumed.
    fn try_finish(&mut self, rc: &mut RankCtx<'p>, blocked: &Blocked) -> bool {
        let rank = rc.state.rank;
        match &blocked.info {
            BlockInfo::P2p {
                kind,
                ctx,
                stmt,
                peer,
                bytes,
                post,
                matched,
            } => {
                let Some(resume) = blocked.resume else {
                    return false;
                };
                let wait = (resume - post).max(0.0);
                let fired = rc.shard.account(0, *ctx, *post, resume);
                let resume = resume + fired as f64 * rc.shard.sample_cost_us();
                rc.shard.comm(CommRecord {
                    rank,
                    ctx: *ctx,
                    stmt: *stmt,
                    kind: *kind,
                    peer: *peer,
                    bytes: *bytes,
                    post: *post,
                    complete: resume,
                    wait,
                });
                rc.shard.trace(*stmt, *post, resume);
                if *kind == CommKindTag::Recv && wait > 0.0 {
                    if let Some((src_rank, src_stmt, src_ctx)) = matched {
                        self.msg_edge(MsgEdge {
                            src_rank: *src_rank,
                            src_stmt: *src_stmt,
                            src_ctx: *src_ctx,
                            dst_rank: rank,
                            dst_stmt: *stmt,
                            dst_ctx: *ctx,
                            bytes: *bytes,
                            kind: CommKindTag::Recv,
                            wait,
                        });
                    }
                }
                rc.state.clock = resume.max(rc.state.clock);
                rc.state.frames.last_mut().unwrap().idx += 1;
                true
            }
            BlockInfo::Wait {
                slot,
                ctx,
                stmt,
                post,
            } => {
                let Some(completion) = rc.state.reqs[*slot].completion else {
                    return false;
                };
                let resume = completion.max(*post);
                self.finish_requests(rc, Some(*slot), *ctx, *stmt, *post, resume);
                true
            }
            BlockInfo::Waitall { ctx, stmt, post } => {
                let mut resume = *post;
                for &s in &rc.state.outstanding {
                    match rc.state.reqs[s].completion {
                        Some(c) => resume = resume.max(c),
                        None => return false,
                    }
                }
                self.finish_requests(rc, None, *ctx, *stmt, *post, resume);
                true
            }
            BlockInfo::Coll {
                inst,
                ctx,
                stmt,
                post,
                kind,
                bytes,
            } => {
                let c = &self.shared.collectives[*inst as usize];
                let Some(completion) = c.completion else {
                    return false;
                };
                // Dependence edge from the last arriver to this rank.
                let late = c.late;
                let resume = completion.max(*post);
                let wait = resume - post;
                let fired = rc.shard.account(0, *ctx, *post, resume);
                let resume = resume + fired as f64 * rc.shard.sample_cost_us();
                rc.shard.comm(CommRecord {
                    rank,
                    ctx: *ctx,
                    stmt: *stmt,
                    kind: *kind,
                    peer: u32::MAX,
                    bytes: *bytes,
                    post: *post,
                    complete: resume,
                    wait,
                });
                rc.shard.trace(*stmt, *post, resume);
                if let Some((late_rank, late_post, late_ctx, late_stmt)) = late {
                    if late_rank != rank && wait > 0.0 && late_post > *post {
                        self.msg_edge(MsgEdge {
                            src_rank: late_rank,
                            src_stmt: late_stmt,
                            src_ctx: late_ctx,
                            dst_rank: rank,
                            dst_stmt: *stmt,
                            dst_ctx: *ctx,
                            bytes: *bytes,
                            kind: *kind,
                            wait,
                        });
                    }
                }
                rc.state.clock = resume;
                rc.state.frames.last_mut().unwrap().idx += 1;
                true
            }
        }
    }

    /// Complete an `MPI_Wait` on `slot`, or (`None`) an `MPI_Waitall` on
    /// every outstanding request: retire the slots, record, resume.
    fn finish_requests(
        &mut self,
        rc: &mut RankCtx<'p>,
        slot: Option<usize>,
        ctx: CtxId,
        stmt: StmtId,
        post: f64,
        resume: f64,
    ) {
        let rank = rc.state.rank;
        let kind = match slot {
            Some(_) => CommKindTag::Wait,
            None => CommKindTag::Waitall,
        };
        let wait = (resume - post).max(0.0);
        let fired = rc.shard.account(0, ctx, post, resume);
        let resume = resume + fired as f64 * rc.shard.sample_cost_us();
        let state = &mut rc.state;
        let retired = match &slot {
            Some(s) => std::slice::from_ref(s),
            None => &state.outstanding[..],
        };
        // A single-request wait reports its request's peer; Waitall has no
        // single peer.
        let peer = match retired {
            [s] => state.reqs[*s].peer,
            _ => u32::MAX,
        };
        let mut bytes_total = 0;
        for &s in retired {
            let req = &state.reqs[s];
            bytes_total += req.bytes;
            // A matched remote operation that delayed this wait produces a
            // dependence edge onto the wait statement.
            if let (Some((src_rank, src_stmt, src_ctx)), Some(c)) = (req.matched, req.completion) {
                if req.kind == CommKindTag::Irecv && c > post {
                    self.msg_edge(MsgEdge {
                        src_rank,
                        src_stmt,
                        src_ctx,
                        dst_rank: rank,
                        dst_stmt: stmt,
                        dst_ctx: ctx,
                        bytes: req.bytes,
                        kind,
                        wait: c - post,
                    });
                }
            }
        }
        match slot {
            Some(s) => state.outstanding.retain(|&o| o != s),
            None => state.outstanding.clear(),
        }
        // No match will look a retired slot up: a match completes the
        // request it names (eager sends aside, which it leaves alone), and
        // a request completed without one had a peer that crashed and
        // will never match. So the slots are reused.
        if state.outstanding.is_empty() {
            state.reqs.clear();
        }
        rc.shard.comm(CommRecord {
            rank,
            ctx,
            stmt,
            kind,
            peer,
            bytes: bytes_total,
            post,
            complete: resume,
            wait,
        });
        rc.shard.trace(stmt, post, resume);
        rc.state.clock = resume;
        rc.state.frames.last_mut().unwrap().idx += 1;
    }
}

impl Shared {
    /// The channel `key`, listed in `touched` the first time an
    /// inter-phase step reaches it.
    fn channel(
        &mut self,
        key: (u32, u32, u32),
        touched: &mut Vec<(u32, u32, u32)>,
    ) -> &mut Channel {
        let chan = self.channels.entry(key).or_default();
        if !chan.touched {
            chan.touched = true;
            touched.push(key);
        }
        chan
    }
}

// ---------------------------------------------------------- worker pool

/// Ranks claimed at a time from [`PoolCtrl::next`].
const CLAIM: usize = 4;

#[derive(Default)]
struct PoolState {
    generation: u64,
    shutdown: bool,
    /// Helpers currently claiming ranks.
    active: usize,
    /// The helper threads exist (spawned when a phase is first shared).
    spawned: bool,
}

/// The helper threads and the part of a phase they help with. Once the
/// scheduler decides to share a phase, every thread — the scheduler
/// included — claims the remaining ranks [`CLAIM`] at a time from `next`;
/// the scheduler wakes the helpers by bumping `generation`, never waits
/// for one to arrive, and leaves the phase when no rank is unclaimed and
/// no helper is `active`. A helper registers as active before it claims,
/// so one that arrives after the phase ended finds `next` exhausted — or,
/// arriving later still, joins the next shared phase.
struct PoolCtrl {
    state: Mutex<PoolState>,
    start: Condvar,
    done: Condvar,
    /// First unclaimed rank of the shared phase. `SeqCst`: a helper's
    /// claim must see everything the scheduler wrote before it set the
    /// counter, [`SegCtx::crashed`] included.
    next: AtomicUsize,
    /// [`POOL_PAYS`] (zero in tests, to share every phase).
    pays: Duration,
}

impl PoolCtrl {
    /// Run the segments of claimed ranks until none is left unclaimed.
    fn run_claimed<'p>(&self, seg: &SegCtx<'_, 'p>, rankctxs: &[Mutex<RankCtx<'p>>]) {
        loop {
            let r = self.next.fetch_add(CLAIM, Ordering::SeqCst);
            if r >= rankctxs.len() {
                return;
            }
            seg.run_segments(&rankctxs[r..rankctxs.len().min(r + CLAIM)]);
        }
    }

    /// Run one phase on the scheduler thread, sharing the rest with the
    /// helpers (`spawn`ed the first time) once the remaining ranks, at
    /// the pace of those already run, would take `pays` inline.
    fn run_phase<'p>(
        &self,
        seg: &SegCtx<'_, 'p>,
        rankctxs: &[Mutex<RankCtx<'p>>],
        spawn: &dyn Fn(),
    ) {
        let n = rankctxs.len();
        let t = Instant::now();
        for r in 0..n {
            // Look at the clock at doubling rank counts only; too short
            // a sample of the phase's pace decides nothing.
            if r >= CLAIM && r.is_power_of_two() {
                let spent = t.elapsed();
                if spent >= self.pays / 4 && spent * (n - r) as u32 >= self.pays * r as u32 {
                    return self.share(seg, rankctxs, r, spawn);
                }
            }
            seg.run_segment(&rankctxs[r]);
        }
    }

    /// Share the ranks from `from` on; returns when all have run.
    fn share<'p>(
        &self,
        seg: &SegCtx<'_, 'p>,
        rankctxs: &[Mutex<RankCtx<'p>>],
        from: usize,
        spawn: &dyn Fn(),
    ) {
        self.next.store(from, Ordering::SeqCst);
        {
            let mut st = self.state.lock().unwrap();
            st.generation += 1;
            if !std::mem::replace(&mut st.spawned, true) {
                spawn();
            }
        }
        self.start.notify_all();
        self.run_claimed(seg, rankctxs);
        let mut st = self.state.lock().unwrap();
        while st.active > 0 {
            st = self.done.wait(st).unwrap();
        }
    }

    fn shutdown(&self) {
        self.state.lock().unwrap().shutdown = true;
        self.start.notify_all();
    }
}

fn helper_loop<'p>(seg: &SegCtx<'_, 'p>, rankctxs: &[Mutex<RankCtx<'p>>], ctrl: &PoolCtrl) {
    let mut generation = 0u64;
    loop {
        {
            let mut st = ctrl.state.lock().unwrap();
            while !st.shutdown && st.generation == generation {
                st = ctrl.start.wait(st).unwrap();
            }
            if st.shutdown {
                return;
            }
            generation = st.generation;
            st.active += 1;
        }
        ctrl.run_claimed(seg, rankctxs);
        let mut st = ctrl.state.lock().unwrap();
        st.active -= 1;
        if st.active == 0 {
            ctrl.done.notify_all();
        }
    }
}

// --------------------------------------------------------------- engine

impl<'p> Engine<'p> {
    fn new(prog: &'p Program, cfg: &'p RunConfig, params: HashMap<String, f64>) -> Self {
        let rankctxs = (0..cfg.nranks)
            .map(|rank| {
                let shard = Collector::new(
                    cfg.collection.clone(),
                    cfg.faults.clone(),
                    cfg.seed,
                    rank,
                    cfg.nranks,
                    cfg.nthreads,
                    prog.entry,
                );
                let root = shard.data.cct.root();
                Mutex::new(RankCtx {
                    state: RankState {
                        rank,
                        clock: 0.0,
                        frames: vec![Frame {
                            stmts: &prog.function(prog.entry).body,
                            idx: 0,
                            ctx: root,
                            kind: FrameKind::Body,
                        }],
                        iters: Vec::new(),
                        reqs: Vec::new(),
                        outstanding: Vec::new(),
                        coll_seq: 0,
                        blocked: None,
                        done: false,
                        call_depth: 0,
                        health: Health::Ok,
                        slow: cfg.rank_slowdown.get(&rank).copied().unwrap_or(1.0),
                        crash_at: cfg.faults.crash.get(&rank).copied(),
                        hang_at: cfg.faults.hang.get(&rank).copied(),
                    },
                    shard,
                    effects: Vec::new(),
                    error: None,
                })
            })
            .collect();
        Engine {
            prog,
            cfg,
            params,
            rankctxs,
            shared: Shared::default(),
        }
    }

    /// Simulate to completion; `pool_pays` is [`POOL_PAYS`].
    fn run(&mut self, pool_pays: Duration) -> Result<(), SimError> {
        let nranks = self.cfg.nranks as usize;
        let workers = match self.cfg.sim_workers {
            Some(n) => n.max(1),
            None => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
        .min(nranks.max(1));
        let crashed: Vec<AtomicBool> = (0..nranks).map(|_| AtomicBool::new(false)).collect();
        let seg = SegCtx {
            prog: self.prog,
            cfg: self.cfg,
            params: &self.params,
            crashed: &crashed,
        };
        let rankctxs: &[Mutex<RankCtx<'p>>] = &self.rankctxs;
        let mut sched = Sched {
            seg: &seg,
            cfg: self.cfg,
            rankctxs,
            shared: &mut self.shared,
        };
        if workers <= 1 {
            return sched.drive(None);
        }
        // The scheduler thread is worker 0. The pool control block must
        // outlive the scope's spawned threads, so it lives here, not
        // inside the scope closure.
        let ctrl = PoolCtrl {
            state: Mutex::default(),
            start: Condvar::new(),
            done: Condvar::new(),
            next: AtomicUsize::new(0),
            pays: pool_pays,
        };
        std::thread::scope(|s| {
            let spawn = || {
                for _ in 1..workers {
                    s.spawn(|| helper_loop(&seg, rankctxs, &ctrl));
                }
            };
            let out = sched.drive(Some((&ctrl, &spawn)));
            ctrl.shutdown();
            out
        })
    }

    /// Fold the per-rank shards into one [`RunData`], in rank order.
    fn finish(self) -> RunData {
        let cfg = self.cfg;
        let _span = cfg.obs.span(obs::Layer::Simrt, "merge_shards", 0);
        if self.rankctxs.is_empty() {
            return Collector::new(
                self.cfg.collection.clone(),
                self.cfg.faults.clone(),
                self.cfg.seed,
                0,
                0,
                self.cfg.nthreads,
                self.prog.entry,
            )
            .finish(Vec::new(), Vec::new());
        }
        let mut shards = Vec::with_capacity(self.rankctxs.len());
        let mut elapsed = Vec::with_capacity(self.rankctxs.len());
        let mut statuses = Vec::with_capacity(self.rankctxs.len());
        for m in self.rankctxs {
            let rc = m.into_inner().unwrap();
            elapsed.push(rc.state.clock);
            statuses.push(match rc.state.health {
                Health::Ok => RankStatus::Completed,
                Health::Crashed(at) => RankStatus::Crashed { at_us: at },
                Health::Hung { at, .. } => RankStatus::Hung { at_us: at },
            });
            shards.push(rc.shard);
        }
        merge_shards(
            shards,
            self.shared.msg_edges,
            self.shared.retransmits,
            elapsed,
            statuses,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use progmodel::{c, noise, nranks, rank, ProgramBuilder};

    /// Ring exchange with request slots that are retired and reused, a
    /// rendezvous-sized message and a collective per iteration.
    fn ring() -> Program {
        let mut pb = ProgramBuilder::new("ring");
        let main = pb.declare("main", "ring.c");
        pb.define(main, |f| {
            f.loop_("it", c(4.0), |b| {
                b.compute("work", c(50.0) * noise(0.3, 1) + rank());
                b.isend((rank() + 1.0).rem(nranks()), c(64.0), 1);
                b.irecv((rank() + nranks() - 1.0).rem(nranks()), c(64.0), 1);
                b.isend((rank() + 2.0).rem(nranks()), c(1e5), 2);
                b.irecv((rank() + nranks() - 2.0).rem(nranks()), c(1e5), 2);
                b.wait(3);
                b.waitall();
                b.allreduce(c(8.0));
            });
        });
        pb.build(main)
    }

    /// With `pool_pays` zero every phase after the first is shared from
    /// its fifth rank on, whatever the host clock says: the helper path,
    /// forced, computes the serial run bit for bit.
    #[test]
    fn forced_sharing_matches_serial() {
        let prog = ring();
        let digest = |workers, pool_pays| {
            let cfg = RunConfig::new(37).with_sim_workers(workers);
            let mut engine = Engine::new(&prog, &cfg, HashMap::new());
            engine.run(pool_pays).unwrap();
            engine.finish().digest()
        };
        let serial = digest(1, POOL_PAYS);
        assert_eq!(digest(3, Duration::ZERO), serial);
        assert_eq!(digest(8, Duration::ZERO), serial);
    }

    /// An eager `Isend` is retired by the sender's `Waitall` a phase
    /// before the receiver (held up by a third rank) posts; the late match
    /// must not reach into the sender's request slots, which by then hold
    /// a new request.
    #[test]
    fn late_match_of_a_retired_eager_isend_leaves_reused_slots_alone() {
        let mut pb = ProgramBuilder::new("late");
        let main = pb.declare("main", "late.c");
        pb.define(main, |f| {
            f.branch(
                "sender",
                rank().eq(0.0),
                |s| {
                    s.isend(c(1.0), c(64.0), 1);
                    s.waitall();
                    s.irecv(c(1.0), c(64.0), 2);
                    s.wait(0);
                },
                |o| {
                    o.branch(
                        "receiver",
                        rank().eq(1.0),
                        |r| {
                            r.recv(c(2.0), c(64.0), 9);
                            r.recv(c(0.0), c(64.0), 1);
                            r.compute("later", c(100.0));
                            r.send(c(0.0), c(64.0), 2);
                        },
                        |t| {
                            t.compute("late", c(100.0));
                            t.send(c(1.0), c(64.0), 9);
                        },
                    );
                },
            );
        });
        let prog = pb.build(main);
        let data = simulate(&prog, &RunConfig::new(3).serial_sim()).unwrap();
        let wait = data
            .comm_records
            .iter()
            .find(|r| r.kind == CommKindTag::Wait)
            .expect("wait record");
        // Rank 0 waits for rank 1's send, posted after ~200 µs of compute
        // — not for the stale match of its own first message.
        assert!(wait.complete > 200.0, "wait completed at {}", wait.complete);
        let edge = data
            .msg_edges
            .iter()
            .find(|e| e.kind == CommKindTag::Wait)
            .expect("dependence edge onto the wait");
        assert_eq!((edge.src_rank, edge.dst_rank), (1, 0));
    }
}
