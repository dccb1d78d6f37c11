//! Run outputs: samples, PMU estimates, communication/lock records,
//! message edges and the optional full trace.

use std::collections::HashMap;

use progmodel::{FuncId, StmtId};

use crate::cct::{Cct, CtxFrame, CtxId};

/// Communication operation categories as recorded (collapsed from
/// [`progmodel::CommOp`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommKindTag {
    /// Blocking send.
    Send,
    /// Blocking receive.
    Recv,
    /// Non-blocking send post.
    Isend,
    /// Non-blocking receive post.
    Irecv,
    /// `MPI_Wait`.
    Wait,
    /// `MPI_Waitall`.
    Waitall,
    /// Barrier.
    Barrier,
    /// Broadcast.
    Bcast,
    /// Reduce.
    Reduce,
    /// Allreduce.
    Allreduce,
    /// All-to-all.
    Alltoall,
}

impl CommKindTag {
    /// MPI-style display name.
    pub fn mpi_name(self) -> &'static str {
        match self {
            CommKindTag::Send => "MPI_Send",
            CommKindTag::Recv => "MPI_Recv",
            CommKindTag::Isend => "MPI_Isend",
            CommKindTag::Irecv => "MPI_Irecv",
            CommKindTag::Wait => "MPI_Wait",
            CommKindTag::Waitall => "MPI_Waitall",
            CommKindTag::Barrier => "MPI_Barrier",
            CommKindTag::Bcast => "MPI_Bcast",
            CommKindTag::Reduce => "MPI_Reduce",
            CommKindTag::Allreduce => "MPI_Allreduce",
            CommKindTag::Alltoall => "MPI_Alltoall",
        }
    }

    /// True for collective operations.
    pub fn is_collective(self) -> bool {
        matches!(
            self,
            CommKindTag::Barrier
                | CommKindTag::Bcast
                | CommKindTag::Reduce
                | CommKindTag::Allreduce
                | CommKindTag::Alltoall
        )
    }
}

/// Terminal state of one rank after a (possibly fault-injected) run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RankStatus {
    /// The rank ran its whole program.
    Completed,
    /// The rank crashed (injected) at the given virtual time.
    Crashed {
        /// Virtual time of death, µs.
        at_us: f64,
    },
    /// The rank stopped progressing at the given virtual time — either
    /// an injected hang or a survivor left blocked forever behind a
    /// crashed peer.
    Hung {
        /// Virtual time of the stall, µs.
        at_us: f64,
    },
}

impl RankStatus {
    /// True when the rank ran to completion.
    pub fn is_completed(&self) -> bool {
        matches!(self, RankStatus::Completed)
    }
}

impl std::fmt::Display for RankStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RankStatus::Completed => write!(f, "completed"),
            RankStatus::Crashed { at_us } => write!(f, "crashed@{at_us:.1}µs"),
            RankStatus::Hung { at_us } => write!(f, "hung@{at_us:.1}µs"),
        }
    }
}

/// One completed communication operation instance.
#[derive(Debug, Clone)]
pub struct CommRecord {
    /// Executing rank.
    pub rank: u32,
    /// Calling context of the operation.
    pub ctx: CtxId,
    /// The comm statement.
    pub stmt: StmtId,
    /// Operation category.
    pub kind: CommKindTag,
    /// Peer rank (`u32::MAX` for collectives / waits).
    pub peer: u32,
    /// Message bytes (0 for waits/barrier).
    pub bytes: u64,
    /// Virtual time the operation was posted.
    pub post: f64,
    /// Virtual time the operation completed.
    pub complete: f64,
    /// Time spent blocked inside the operation.
    pub wait: f64,
}

/// A matched message / dependence edge between two ranks — the raw
/// material for inter-process PAG edges.
#[derive(Debug, Clone)]
pub struct MsgEdge {
    /// Sending / causing rank.
    pub src_rank: u32,
    /// Statement on the source side.
    pub src_stmt: StmtId,
    /// Calling context on the source side.
    pub src_ctx: CtxId,
    /// Receiving / affected rank.
    pub dst_rank: u32,
    /// Statement on the destination side.
    pub dst_stmt: StmtId,
    /// Calling context on the destination side.
    pub dst_ctx: CtxId,
    /// Payload size.
    pub bytes: u64,
    /// Operation category on the destination side.
    pub kind: CommKindTag,
    /// Wait time this dependence induced on the destination.
    pub wait: f64,
}

/// One lock acquisition instance.
#[derive(Debug, Clone)]
pub struct LockRecord {
    /// Executing rank.
    pub rank: u32,
    /// Executing thread.
    pub thread: u32,
    /// Calling context of the lock site.
    pub ctx: CtxId,
    /// The lock statement.
    pub stmt: StmtId,
    /// Lock object id.
    pub lock: u32,
    /// Virtual time the acquisition was requested.
    pub request: f64,
    /// Virtual time the lock was granted.
    pub acquire: f64,
    /// Virtual time the lock was released.
    pub release: f64,
    /// The thread that held the lock while this one waited (if it
    /// waited): (thread, statement, context).
    pub blocked_by: Option<(u32, StmtId, CtxId)>,
}

impl LockRecord {
    /// Wait time before acquisition.
    pub fn wait(&self) -> f64 {
        self.acquire - self.request
    }
}

/// Aggregated PMU estimate of one calling context.
#[derive(Debug, Clone, Copy, Default)]
pub struct PmuAgg {
    /// Instructions retired.
    pub instructions: f64,
    /// Cycle estimate.
    pub cycles: f64,
    /// Cache misses.
    pub cache_misses: f64,
}

/// A Scalasca-style trace event (enter/exit of one statement instance).
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// Executing rank.
    pub rank: u32,
    /// The statement.
    pub stmt: StmtId,
    /// Enter time.
    pub enter: f64,
    /// Exit time.
    pub exit: f64,
}

/// Estimated on-disk size of one encoded trace event (rank + stmt + two
/// timestamps, as a tracing tool would write).
pub const TRACE_EVENT_BYTES: u64 = 24;

/// Trace storage with a cap: events beyond the cap are counted but not
/// stored, so overhead experiments can extrapolate cost without exhausting
/// memory.
#[derive(Debug, Clone, Default)]
pub struct TraceData {
    /// Stored events (up to the configured cap).
    pub events: Vec<TraceEvent>,
    /// Total events generated (stored + dropped).
    pub total_events: u64,
    /// Estimated serialized size of the full trace in bytes.
    pub est_bytes: u64,
}

impl TraceData {
    /// Record one event under the given storage cap.
    pub fn push(&mut self, ev: TraceEvent, cap: usize) {
        self.total_events += 1;
        self.est_bytes += TRACE_EVENT_BYTES;
        if self.events.len() < cap {
            self.events.push(ev);
        }
    }
}

/// Everything a simulated run produces.
#[derive(Debug)]
pub struct RunData {
    /// Number of ranks.
    pub nranks: u32,
    /// Threads per process the run was configured with.
    pub nthreads: u32,
    /// Per-rank completion time (µs).
    pub elapsed: Vec<f64>,
    /// Run makespan: `max(elapsed)`.
    pub total_time: f64,
    /// Sampling period used (µs), if sampling was on.
    pub sample_period_us: Option<f64>,
    /// Sample counts keyed by (context, rank, thread).
    pub samples: HashMap<(CtxId, u32, u32), u64>,
    /// PMU estimates per context (aggregated over ranks).
    pub pmu: HashMap<CtxId, PmuAgg>,
    /// Per-instance communication records.
    pub comm_records: Vec<CommRecord>,
    /// Matched message / dependence edges.
    pub msg_edges: Vec<MsgEdge>,
    /// Per-instance lock records.
    pub lock_records: Vec<LockRecord>,
    /// Call targets observed at indirect call sites.
    pub indirect_targets: HashMap<StmtId, Vec<FuncId>>,
    /// The calling context tree.
    pub cct: Cct,
    /// Optional full trace.
    pub trace: TraceData,
    /// Terminal per-rank status (all `Completed` for a healthy run).
    pub rank_status: Vec<RankStatus>,
    /// Samples lost to injected collection faults, keyed like `samples`.
    /// The application's virtual timing already accounts for these
    /// (the handler fired; the record was lost).
    pub dropped_samples: HashMap<(CtxId, u32, u32), u64>,
    /// PMU readings discarded as corrupted.
    pub pmu_corrupted: u64,
    /// Messages dropped and retransmitted by the injected network fault.
    pub retransmits: u64,
}

/// Aggregate statistics of one run, per operation kind.
///
/// Derives `PartialEq` so fault-injection tests can assert that repeated
/// runs under the same seed and plan are bit-identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunSummary {
    /// Makespan (µs).
    pub makespan_us: f64,
    /// Aggregate elapsed time across ranks (rank-µs).
    pub aggregate_us: f64,
    /// Aggregate time inside communication operations.
    pub comm_us: f64,
    /// Aggregate wait time inside communication operations.
    pub comm_wait_us: f64,
    /// Aggregate wait time at locks.
    pub lock_wait_us: f64,
    /// Per-kind (count, total op time µs, total wait µs), sorted by time.
    pub per_kind: Vec<(CommKindTag, u64, f64, f64)>,
    /// Parallel efficiency proxy: 1 − (comm waits + lock waits) / aggregate.
    pub efficiency: f64,
    /// Terminal per-rank status.
    pub rank_status: Vec<RankStatus>,
    /// Total samples lost to injected collection faults.
    pub dropped_samples: u64,
    /// PMU readings discarded as corrupted.
    pub pmu_corrupted: u64,
    /// Messages retransmitted due to injected drops.
    pub retransmits: u64,
}

impl RunSummary {
    /// Render a compact text summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "makespan {:.2} ms | aggregate {:.2} rank-ms | comm {:.1}% (wait {:.1}%) | lock wait {:.1}% | efficiency {:.1}%\n",
            self.makespan_us / 1e3,
            self.aggregate_us / 1e3,
            100.0 * self.comm_us / self.aggregate_us.max(1e-12),
            100.0 * self.comm_wait_us / self.aggregate_us.max(1e-12),
            100.0 * self.lock_wait_us / self.aggregate_us.max(1e-12),
            100.0 * self.efficiency,
        );
        for (kind, count, time, wait) in &self.per_kind {
            out.push_str(&format!(
                "  {:<14} ×{:<8} {:>10.2} ms (wait {:>10.2} ms)\n",
                kind.mpi_name(),
                count,
                time / 1e3,
                wait / 1e3
            ));
        }
        let degraded: Vec<String> = self
            .rank_status
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_completed())
            .map(|(r, s)| format!("rank {r} {s}"))
            .collect();
        if !degraded.is_empty() {
            out.push_str(&format!("  degraded ranks: {}\n", degraded.join(", ")));
        }
        if self.dropped_samples > 0 || self.pmu_corrupted > 0 || self.retransmits > 0 {
            out.push_str(&format!(
                "  collection faults: {} samples lost, {} pmu reads corrupted, {} retransmits\n",
                self.dropped_samples, self.pmu_corrupted, self.retransmits
            ));
        }
        out
    }
}

impl RunData {
    /// A content fingerprint of *everything* in the run: timings (bit
    /// patterns, not approximations), samples, PMU aggregates, records,
    /// edges, CCT structure, statuses and fault counters. Two runs digest
    /// equal iff their data is byte-identical, so this is what the
    /// serial-versus-parallel equivalence tests and benches assert on.
    /// Unordered maps are folded in sorted key order.
    pub fn digest(&self) -> u64 {
        // FNV-1a over a stream of u64 words.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut put = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        let ctx_frame = |f: CtxFrame| -> (u64, u64) {
            match f {
                CtxFrame::Func(id) => (0, id.0 as u64),
                CtxFrame::Stmt(id) => (1, id.0 as u64),
            }
        };
        put(self.nranks as u64);
        put(self.nthreads as u64);
        for &e in &self.elapsed {
            put(e.to_bits());
        }
        put(self.total_time.to_bits());
        put(self.sample_period_us.map_or(0, f64::to_bits));
        // CCT structure: node i's (parent, frame), in interning order.
        for i in 0..self.cct.len() as u32 {
            put(self.cct.parent(CtxId(i)).0 as u64);
            let (tag, id) = ctx_frame(self.cct.frame(CtxId(i)));
            put(tag);
            put(id);
        }
        let mut samples: Vec<_> = self.samples.iter().collect();
        samples.sort_by_key(|(k, _)| **k);
        for (&(ctx, rank, thread), &n) in samples {
            put(ctx.0 as u64);
            put(((rank as u64) << 32) | thread as u64);
            put(n);
        }
        let mut dropped: Vec<_> = self.dropped_samples.iter().collect();
        dropped.sort_by_key(|(k, _)| **k);
        for (&(ctx, rank, thread), &n) in dropped {
            put(ctx.0 as u64);
            put(((rank as u64) << 32) | thread as u64);
            put(n);
        }
        let mut pmu: Vec<_> = self.pmu.iter().collect();
        pmu.sort_by_key(|(k, _)| **k);
        for (&ctx, agg) in pmu {
            put(ctx.0 as u64);
            put(agg.instructions.to_bits());
            put(agg.cycles.to_bits());
            put(agg.cache_misses.to_bits());
        }
        for r in &self.comm_records {
            put(((r.rank as u64) << 32) | r.peer as u64);
            put(r.ctx.0 as u64);
            put(r.stmt.0 as u64);
            put(r.kind as u64);
            put(r.bytes);
            put(r.post.to_bits());
            put(r.complete.to_bits());
            put(r.wait.to_bits());
        }
        for e in &self.msg_edges {
            put(((e.src_rank as u64) << 32) | e.dst_rank as u64);
            put(e.src_stmt.0 as u64);
            put(e.src_ctx.0 as u64);
            put(e.dst_stmt.0 as u64);
            put(e.dst_ctx.0 as u64);
            put(e.bytes);
            put(e.kind as u64);
            put(e.wait.to_bits());
        }
        for l in &self.lock_records {
            put(((l.rank as u64) << 32) | l.thread as u64);
            put(l.ctx.0 as u64);
            put(l.stmt.0 as u64);
            put(l.lock as u64);
            put(l.request.to_bits());
            put(l.acquire.to_bits());
            put(l.release.to_bits());
            match l.blocked_by {
                None => put(u64::MAX),
                Some((t, s, c)) => {
                    put(t as u64);
                    put(s.0 as u64);
                    put(c.0 as u64);
                }
            }
        }
        let mut indirect: Vec<_> = self.indirect_targets.iter().collect();
        indirect.sort_by_key(|(s, _)| s.0);
        for (s, targets) in indirect {
            put(s.0 as u64);
            for t in targets {
                put(t.0 as u64);
            }
        }
        for ev in &self.trace.events {
            put(ev.rank as u64);
            put(ev.stmt.0 as u64);
            put(ev.enter.to_bits());
            put(ev.exit.to_bits());
        }
        put(self.trace.total_events);
        put(self.trace.est_bytes);
        for s in &self.rank_status {
            match *s {
                RankStatus::Completed => put(0),
                RankStatus::Crashed { at_us } => {
                    put(1);
                    put(at_us.to_bits());
                }
                RankStatus::Hung { at_us } => {
                    put(2);
                    put(at_us.to_bits());
                }
            }
        }
        put(self.pmu_corrupted);
        put(self.retransmits);
        h
    }

    /// Aggregate the run into a [`RunSummary`].
    pub fn summary(&self) -> RunSummary {
        let aggregate_us: f64 = self.elapsed.iter().sum();
        let mut per: HashMap<CommKindTag, (u64, f64, f64)> = HashMap::new();
        let mut comm_us = 0.0;
        let mut comm_wait_us = 0.0;
        for r in &self.comm_records {
            let t = r.complete - r.post;
            comm_us += t;
            comm_wait_us += r.wait;
            let e = per.entry(r.kind).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += t;
            e.2 += r.wait;
        }
        let lock_wait_us: f64 = self
            .lock_records
            .iter()
            .map(LockRecord::wait)
            .sum::<f64>()
            .max(0.0);
        let mut per_kind: Vec<(CommKindTag, u64, f64, f64)> =
            per.into_iter().map(|(k, (c, t, w))| (k, c, t, w)).collect();
        // Tie-break on the kind name: `per` is a hash map, so equal times
        // would otherwise surface its iteration order and break the
        // replay-determinism guarantee (RunSummary is PartialEq).
        per_kind.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.mpi_name().cmp(b.0.mpi_name())));
        RunSummary {
            makespan_us: self.total_time,
            aggregate_us,
            comm_us,
            comm_wait_us,
            lock_wait_us,
            per_kind,
            efficiency: 1.0 - (comm_wait_us + lock_wait_us) / aggregate_us.max(1e-12),
            rank_status: self.rank_status.clone(),
            dropped_samples: self.dropped_samples.values().sum(),
            pmu_corrupted: self.pmu_corrupted,
            retransmits: self.retransmits,
        }
    }

    /// Fraction of this rank's fired samples that were actually
    /// recorded, in `[0, 1]`. Ranks with no fired samples report 1.0.
    pub fn rank_completeness(&self, rank: u32) -> f64 {
        let kept: u64 = self
            .samples
            .iter()
            .filter(|((_, r, _), _)| *r == rank)
            .map(|(_, &n)| n)
            .sum();
        let lost: u64 = self
            .dropped_samples
            .iter()
            .filter(|((_, r, _), _)| *r == rank)
            .map(|(_, &n)| n)
            .sum();
        if kept + lost == 0 {
            1.0
        } else {
            kept as f64 / (kept + lost) as f64
        }
    }

    /// Status of one rank (`Completed` when out of range, which only
    /// happens for data predating fault support).
    pub fn status_of(&self, rank: u32) -> RankStatus {
        self.rank_status
            .get(rank as usize)
            .copied()
            .unwrap_or(RankStatus::Completed)
    }

    /// True when every rank completed and no collection faults fired.
    pub fn is_complete(&self) -> bool {
        self.rank_status.iter().all(RankStatus::is_completed)
            && self.dropped_samples.is_empty()
            && self.pmu_corrupted == 0
    }

    /// Aggregate communication time (sum of `complete - post` over all
    /// comm records).
    pub fn total_comm_time(&self) -> f64 {
        self.comm_records.iter().map(|r| r.complete - r.post).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_cap_counts_but_drops() {
        let mut t = TraceData::default();
        for i in 0..10 {
            t.push(
                TraceEvent {
                    rank: 0,
                    stmt: StmtId(i),
                    enter: 0.0,
                    exit: 1.0,
                },
                4,
            );
        }
        assert_eq!(t.events.len(), 4);
        assert_eq!(t.total_events, 10);
        assert_eq!(t.est_bytes, 10 * TRACE_EVENT_BYTES);
    }

    #[test]
    fn kind_tags() {
        assert_eq!(CommKindTag::Allreduce.mpi_name(), "MPI_Allreduce");
        assert!(CommKindTag::Barrier.is_collective());
        assert!(!CommKindTag::Isend.is_collective());
    }

    #[test]
    fn lock_wait() {
        let r = LockRecord {
            rank: 0,
            thread: 1,
            ctx: CtxId(0),
            stmt: StmtId(0),
            lock: 0,
            request: 10.0,
            acquire: 15.0,
            release: 18.0,
            blocked_by: Some((0, StmtId(0), CtxId(0))),
        };
        assert_eq!(r.wait(), 5.0);
    }
}
