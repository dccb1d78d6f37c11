//! The runtime collection module (the PMPI/PAPI/sampler stand-in).
//!
//! All instrumentation funnels through [`Collector`]: virtual-time
//! sampling (a sample fires every `period` µs of a rank's virtual clock,
//! attributed to the active calling context, exactly like a SIGPROF
//! handler walking the stack), PMU accumulation, comm/lock records and the
//! optional full trace. When collection is disabled the methods return
//! immediately — the overhead experiments (Table 1) measure precisely the
//! cost difference these paths introduce.

use progmodel::{FuncId, PmuSpec, StmtId};

use crate::cct::{Cct, CtxId};
use crate::config::CollectionConfig;
use crate::faults::{fault_roll, FaultPlan, FaultStream};
use crate::hash::IntMap;
use crate::record::{
    CommRecord, LockRecord, MsgEdge, PmuAgg, RankStatus, RunData, TraceData, TraceEvent,
};

/// Mutable collection state for one *rank's shard* of a run. The engine
/// gives every rank its own `Collector` (with its own CCT) so ranks can
/// be simulated concurrently without sharing mutable state;
/// [`merge_shards`] folds the shards back into one [`RunData`] in rank
/// order, which keeps the merged result deterministic and independent of
/// how the ranks were scheduled.
pub struct Collector {
    /// Accumulated run data (taken by [`Collector::finish`]). Its
    /// `samples`, `dropped_samples`, `pmu` and `indirect_targets` maps
    /// stay empty until then: the run counts into `tallies`.
    pub data: RunData,
    cfg: CollectionConfig,
    faults: FaultPlan,
    seed: u64,
    /// Rank owning this shard; keys the sample tallies and the
    /// PMU-corruption fault stream so shards roll independently.
    shard_rank: u32,
    /// Monotone PMU-read counter identifying corruption rolls.
    pmu_reads: u64,
    tallies: Tallies,
}

/// What one rank counts on every interpreter step, indexed by the
/// shard's own dense context ids instead of hashed.
#[derive(Default)]
struct Tallies {
    /// Kept samples, `[thread][ctx]`.
    samples: Vec<Vec<u64>>,
    /// Samples lost to the injected fault, `[thread][ctx]`.
    dropped: Vec<Vec<u64>>,
    /// PMU aggregates, `[ctx]` (`None`: never read).
    pmu: Vec<Option<PmuAgg>>,
    indirect: IntMap<StmtId, Vec<FuncId>>,
}

/// Cell `i` of a table that grows, filled with `empty`, as ids appear.
fn cell<T: Clone>(table: &mut Vec<T>, i: usize, empty: T) -> &mut T {
    if table.len() <= i {
        table.resize(i + 1, empty);
    }
    &mut table[i]
}

fn bump(table: &mut Vec<Vec<u64>>, thread: u32, ctx: CtxId, n: u64) {
    *cell(cell(table, thread as usize, Vec::new()), ctx.0 as usize, 0) += n;
}

impl Tallies {
    /// Number of `(ctx, thread)` cells holding a kept sample.
    fn sample_keys(&self) -> usize {
        self.samples.iter().flatten().filter(|&&n| n > 0).count()
    }

    /// Write `rank`'s tallies into `data`'s public maps; `remap` takes a
    /// shard context into `data.cct`. PMU aggregates add onto what
    /// earlier (lower) ranks folded, so floats accumulate in rank order.
    fn fold_into(self, rank: u32, remap: impl Fn(usize) -> CtxId, data: &mut RunData) {
        for (table, map) in [
            (self.samples, &mut data.samples),
            (self.dropped, &mut data.dropped_samples),
        ] {
            for (thread, row) in table.into_iter().enumerate() {
                for (ctx, n) in row.into_iter().enumerate().filter(|&(_, n)| n > 0) {
                    *map.entry((remap(ctx), rank, thread as u32)).or_insert(0) += n;
                }
            }
        }
        for (ctx, agg) in self.pmu.into_iter().enumerate() {
            if let Some(agg) = agg {
                let e = data.pmu.entry(remap(ctx)).or_default();
                e.instructions += agg.instructions;
                e.cycles += agg.cycles;
                e.cache_misses += agg.cache_misses;
            }
        }
        for (stmt, targets) in self.indirect {
            let merged = data.indirect_targets.entry(stmt).or_default();
            for t in targets {
                if !merged.contains(&t) {
                    merged.push(t);
                }
            }
        }
    }
}

impl Collector {
    /// New collector for rank `rank` of a run of `nranks` × `nthreads`
    /// under `faults`. `elapsed` and `rank_status` stay empty until
    /// [`Collector::finish`] / [`merge_shards`] set them: a run holds one
    /// shard per rank, so anything O(ranks) here is O(ranks²) per run.
    pub fn new(
        cfg: CollectionConfig,
        faults: FaultPlan,
        seed: u64,
        rank: u32,
        nranks: u32,
        nthreads: u32,
        entry: FuncId,
    ) -> Self {
        Collector {
            data: RunData {
                nranks,
                nthreads,
                elapsed: Vec::new(),
                total_time: 0.0,
                sample_period_us: cfg.sampling_period_us,
                samples: std::collections::HashMap::new(),
                pmu: std::collections::HashMap::new(),
                comm_records: Vec::new(),
                msg_edges: Vec::new(),
                lock_records: Vec::new(),
                indirect_targets: std::collections::HashMap::new(),
                cct: Cct::new(entry),
                trace: TraceData::default(),
                rank_status: Vec::new(),
                dropped_samples: std::collections::HashMap::new(),
                pmu_corrupted: 0,
                retransmits: 0,
            },
            cfg,
            faults,
            seed,
            shard_rank: rank,
            pmu_reads: 0,
            tallies: Tallies::default(),
        }
    }

    /// The context a sample is attributed to after the injected
    /// stack-truncation fault: the ancestor at the depth cap when the
    /// sample's context is deeper than the unwinder can resolve.
    fn attribution_ctx(&self, ctx: CtxId) -> CtxId {
        let Some(max_depth) = self.faults.stack_truncate_depth else {
            return ctx;
        };
        let mut cur = ctx;
        while self.data.cct.depth(cur) as usize > max_depth {
            cur = self.data.cct.parent(cur);
        }
        cur
    }

    /// Attribute the virtual interval `[t0, t1)` of this rank's `thread`
    /// to context `ctx`: emits `floor(t1/p) - floor(t0/p)` samples. Returns
    /// the number of samples *fired* so the caller can charge the
    /// per-sample instrumentation cost to the application's virtual
    /// clock (the observer effect Table 1 measures) — lost samples still
    /// fired their handler, so injected sample loss never perturbs the
    /// application's timing, only the recorded profile.
    pub fn account(&mut self, thread: u32, ctx: CtxId, t0: f64, t1: f64) -> u64 {
        let Some(period) = self.cfg.sampling_period_us else {
            return 0;
        };
        debug_assert!(t1 >= t0);
        let i0 = (t0 / period).floor();
        let n = ((t1 / period).floor() - i0) as u64;
        if n == 0 {
            return 0;
        }
        let ctx = self.attribution_ctx(ctx);
        let loss = self.faults.sample_loss_rate;
        if loss <= 0.0 {
            bump(&mut self.tallies.samples, thread, ctx, n);
            return n;
        }
        // Each sample's loss roll is keyed by its global index in this
        // (rank, thread)'s sample sequence, so the outcome is independent
        // of how the interval happens to be split across calls.
        let who = ((self.shard_rank as u64) << 32) | thread as u64;
        let lost = (1..=n)
            .filter(|k| {
                let idx = (i0 as u64).wrapping_add(*k);
                fault_roll(self.seed, FaultStream::SampleLoss, who, idx) < loss
            })
            .count() as u64;
        if lost < n {
            bump(&mut self.tallies.samples, thread, ctx, n - lost);
        }
        if lost > 0 {
            bump(&mut self.tallies.dropped, thread, ctx, lost);
        }
        n
    }

    /// Virtual µs charged per fired sample.
    pub fn sample_cost_us(&self) -> f64 {
        self.cfg.sample_cost_us
    }

    /// Virtual µs charged per communication call: the PMPI wrapper plus
    /// (in tracing mode) the trace-event write.
    pub fn comm_call_cost_us(&self) -> f64 {
        let mut cost = 0.0;
        if self.cfg.collect_comm {
            cost += self.cfg.comm_wrapper_cost_us;
        }
        if self.cfg.trace_events {
            cost += self.cfg.trace_event_cost_us;
        }
        cost
    }

    /// Virtual µs charged per traced compute/lock statement instance
    /// (zero unless full tracing is enabled).
    pub fn trace_probe_cost_us(&self) -> f64 {
        if self.cfg.trace_events {
            self.cfg.trace_event_cost_us
        } else {
            0.0
        }
    }

    /// Accumulate PMU estimates for `dur_us` of kernel time in `ctx`.
    /// Under injected PMU corruption, a corrupted reading is counted and
    /// discarded (as a validating consumer of real counters would).
    pub fn pmu(&mut self, ctx: CtxId, dur_us: f64, spec: &PmuSpec) {
        if !self.cfg.collect_pmu {
            return;
        }
        if self.faults.pmu_corrupt_rate > 0.0 {
            let read = self.pmu_reads;
            self.pmu_reads += 1;
            if fault_roll(
                self.seed,
                FaultStream::PmuCorrupt,
                read,
                self.shard_rank as u64,
            ) < self.faults.pmu_corrupt_rate
            {
                self.data.pmu_corrupted += 1;
                return;
            }
        }
        let instr = dur_us * spec.instr_per_us;
        let agg =
            cell(&mut self.tallies.pmu, ctx.0 as usize, None).get_or_insert_with(PmuAgg::default);
        agg.instructions += instr;
        // Cycle model: fixed 2.5 GHz virtual clock.
        agg.cycles += dur_us * 2500.0;
        agg.cache_misses += instr / 1000.0 * spec.miss_per_kinstr;
    }

    /// Record a completed communication operation.
    pub fn comm(&mut self, rec: CommRecord) {
        if self.cfg.collect_comm {
            self.data.comm_records.push(rec);
        }
    }

    /// Record a lock acquisition.
    pub fn lock(&mut self, rec: LockRecord) {
        if self.cfg.collect_locks {
            self.data.lock_records.push(rec);
        }
    }

    /// Record a trace event (full-tracing mode only).
    pub fn trace(&mut self, stmt: StmtId, enter: f64, exit: f64) {
        if self.cfg.trace_events {
            self.data.trace.push(
                TraceEvent {
                    rank: self.shard_rank,
                    stmt,
                    enter,
                    exit,
                },
                self.cfg.trace_store_cap,
            );
        }
    }

    /// Record a runtime-resolved indirect-call target.
    pub fn indirect(&mut self, stmt: StmtId, target: FuncId) {
        let targets = self.tallies.indirect.entry(stmt).or_default();
        if !targets.contains(&target) {
            targets.push(target);
        }
    }

    /// Finish a single-shard run: fold the tallies, set per-rank elapsed
    /// times, terminal rank statuses and the makespan.
    pub fn finish(self, elapsed: Vec<f64>, rank_status: Vec<RankStatus>) -> RunData {
        merge_shards(vec![self], Vec::new(), 0, elapsed, rank_status)
    }
}

/// Fold per-rank collector shards into one [`RunData`].
///
/// Shards are merged strictly in rank order: CCT nodes re-intern through
/// [`Cct::merge_from`] (parents always precede children, so one forward
/// walk per shard suffices), floating-point aggregates (PMU) accumulate
/// in rank order, and record streams concatenate per rank. The result is
/// therefore a pure function of the shard contents — identical whether
/// the ranks were simulated serially or on a worker pool.
///
/// `msg_edges` are the engine-level cross-rank dependence edges; each
/// edge's contexts are remapped through its *own* endpoint ranks' tables
/// (`src_ctx` lives in `src_rank`'s shard, `dst_ctx` in `dst_rank`'s).
pub fn merge_shards(
    shards: Vec<Collector>,
    msg_edges: Vec<MsgEdge>,
    retransmits: u64,
    elapsed: Vec<f64>,
    rank_status: Vec<RankStatus>,
) -> RunData {
    let ncomm: usize = shards.iter().map(|s| s.data.comm_records.len()).sum();
    let nlock: usize = shards.iter().map(|s| s.data.lock_records.len()).sum();
    let nsamples: usize = shards.iter().map(|s| s.tallies.sample_keys()).sum();
    let mut shards = shards.into_iter();
    let base = shards.next().expect("at least one shard");
    let cap = base.cfg.trace_store_cap;
    let mut data = base.data;
    // The merged streams are fresh exact-size allocations of the merging
    // thread, not rank 0's vectors grown in place: a vector grows inside
    // the allocator arena its first small chunk happened to come from, and
    // a run's largest buffer landing now and then in a helper thread's
    // arena made peak RSS differ by that buffer's size from run to run.
    let base_comm = std::mem::replace(&mut data.comm_records, Vec::with_capacity(ncomm));
    data.comm_records.extend(base_comm);
    let base_lock = std::mem::replace(&mut data.lock_records, Vec::with_capacity(nlock));
    data.lock_records.extend(base_lock);
    data.msg_edges.reserve_exact(msg_edges.len());
    data.samples.reserve(nsamples);
    // The first shard *is* the base, so its remap table is the identity.
    base.tallies
        .fold_into(base.shard_rank, |ctx| CtxId(ctx as u32), &mut data);
    let mut remaps: Vec<Vec<CtxId>> = Vec::with_capacity(data.nranks as usize);
    remaps.push((0..data.cct.len() as u32).map(CtxId).collect());
    for shard in shards {
        let sd = shard.data;
        let remap = data.cct.merge_from(&sd.cct);
        shard
            .tallies
            .fold_into(shard.shard_rank, |ctx| remap[ctx], &mut data);
        data.comm_records
            .extend(sd.comm_records.into_iter().map(|mut rec| {
                rec.ctx = remap[rec.ctx.0 as usize];
                rec
            }));
        data.lock_records
            .extend(sd.lock_records.into_iter().map(|mut rec| {
                rec.ctx = remap[rec.ctx.0 as usize];
                if let Some((t, s, hctx)) = rec.blocked_by {
                    rec.blocked_by = Some((t, s, remap[hctx.0 as usize]));
                }
                rec
            }));
        for ev in sd.trace.events {
            if data.trace.events.len() < cap {
                data.trace.events.push(ev);
            }
        }
        data.trace.total_events += sd.trace.total_events;
        data.trace.est_bytes += sd.trace.est_bytes;
        data.pmu_corrupted += sd.pmu_corrupted;
        remaps.push(remap);
    }
    data.msg_edges.extend(msg_edges.into_iter().map(|mut e| {
        e.src_ctx = remaps[e.src_rank as usize][e.src_ctx.0 as usize];
        e.dst_ctx = remaps[e.dst_rank as usize][e.dst_ctx.0 as usize];
        e
    }));
    data.retransmits += retransmits;
    data.total_time = elapsed.iter().copied().fold(0.0, f64::max);
    data.elapsed = elapsed;
    data.rank_status = rank_status;
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cct::CtxFrame;
    use crate::record::CommKindTag;
    use std::collections::HashMap;

    fn collector(cfg: CollectionConfig) -> Collector {
        faulty(cfg, FaultPlan::default(), 0)
    }

    fn faulty(cfg: CollectionConfig, faults: FaultPlan, seed: u64) -> Collector {
        Collector::new(cfg, faults, seed, 0, 2, 1, FuncId(0))
    }

    fn sampling(period: f64) -> CollectionConfig {
        CollectionConfig {
            sampling_period_us: Some(period),
            ..CollectionConfig::default()
        }
    }

    /// The end-of-run fold of a single shard.
    fn fold(c: Collector) -> RunData {
        c.finish(vec![0.0; 2], vec![RankStatus::Completed; 2])
    }

    #[test]
    fn sampling_counts_period_crossings() {
        let mut c = collector(sampling(10.0));
        let ctx = c.data.cct.root();
        c.account(0, ctx, 0.0, 35.0); // crossings at 10,20,30 → 3
        c.account(0, ctx, 35.0, 39.0); // none
        c.account(0, ctx, 39.0, 41.0); // crossing at 40 → 1
        assert_eq!(fold(c).samples[&(ctx, 0, 0)], 4);
    }

    #[test]
    fn sampling_off_records_nothing() {
        let mut c = collector(CollectionConfig::off());
        let ctx = c.data.cct.root();
        c.account(0, ctx, 0.0, 1e6);
        assert!(fold(c).samples.is_empty());
    }

    #[test]
    fn pmu_accumulates() {
        let mut c = collector(CollectionConfig::default());
        let ctx = c.data.cct.root();
        let spec = PmuSpec {
            instr_per_us: 1000.0,
            miss_per_kinstr: 2.0,
        };
        c.pmu(ctx, 10.0, &spec);
        c.pmu(ctx, 10.0, &spec);
        let agg = fold(c).pmu[&ctx];
        assert_eq!(agg.instructions, 20_000.0);
        assert_eq!(agg.cache_misses, 40.0);
        assert!(agg.cycles > 0.0);
    }

    #[test]
    fn comm_gated_by_config() {
        let mut on = collector(CollectionConfig::default());
        let mut off = collector(CollectionConfig::off());
        let rec = CommRecord {
            rank: 0,
            ctx: CtxId(0),
            stmt: StmtId(0),
            kind: CommKindTag::Send,
            peer: 1,
            bytes: 64,
            post: 0.0,
            complete: 1.0,
            wait: 0.0,
        };
        on.comm(rec.clone());
        off.comm(rec);
        assert_eq!(on.data.comm_records.len(), 1);
        assert!(off.data.comm_records.is_empty());
    }

    #[test]
    fn indirect_targets_dedup() {
        let mut c = collector(CollectionConfig::default());
        c.indirect(StmtId(3), FuncId(1));
        c.indirect(StmtId(3), FuncId(1));
        c.indirect(StmtId(3), FuncId(2));
        assert_eq!(fold(c).indirect_targets[&StmtId(3)].len(), 2);
    }

    #[test]
    fn finish_sets_makespan() {
        let c = collector(CollectionConfig::default());
        let data = c.finish(vec![5.0, 9.0], vec![RankStatus::Completed; 2]);
        assert_eq!(data.total_time, 9.0);
        assert_eq!(data.elapsed, vec![5.0, 9.0]);
        assert!(data.is_complete());
    }

    #[test]
    fn sample_loss_conserves_fired_count_and_is_deterministic() {
        let run = |seed| {
            let mut c = faulty(sampling(10.0), FaultPlan::new().with_sample_loss(0.5), seed);
            let ctx = c.data.cct.root();
            let fired = c.account(0, ctx, 0.0, 1000.0);
            let data = fold(c);
            let kept = data.samples.get(&(ctx, 0, 0)).copied().unwrap_or(0);
            let lost = data.dropped_samples.get(&(ctx, 0, 0)).copied().unwrap_or(0);
            (fired, kept, lost)
        };
        let (fired, kept, lost) = run(7);
        assert_eq!(fired, 100);
        assert_eq!(kept + lost, 100, "loss must conserve fired samples");
        assert!(kept > 0 && lost > 0, "kept {kept}, lost {lost}");
        assert_eq!(run(7), (fired, kept, lost), "same seed, same losses");
        assert_ne!(run(8).1, kept, "different seed, different losses");
    }

    #[test]
    fn sample_loss_independent_of_interval_splitting() {
        let plan = FaultPlan::new().with_sample_loss(0.3);
        let mut whole = faulty(sampling(10.0), plan.clone(), 3);
        let ctx = whole.data.cct.root();
        whole.account(0, ctx, 0.0, 500.0);
        let mut split = faulty(sampling(10.0), plan, 3);
        split.account(0, ctx, 0.0, 123.0);
        split.account(0, ctx, 123.0, 345.0);
        split.account(0, ctx, 345.0, 500.0);
        let (whole, split) = (fold(whole), fold(split));
        assert_eq!(whole.samples, split.samples);
        assert_eq!(whole.dropped_samples, split.dropped_samples);
    }

    #[test]
    fn stack_truncation_attributes_to_ancestor() {
        let mut c = faulty(sampling(10.0), FaultPlan::new().with_stack_truncation(1), 0);
        let root = c.data.cct.root();
        let mid = c.data.cct.child(root, CtxFrame::Stmt(StmtId(1)));
        let deep = c.data.cct.child(mid, CtxFrame::Stmt(StmtId(2)));
        c.account(0, deep, 0.0, 100.0);
        let data = fold(c);
        assert!(!data.samples.contains_key(&(deep, 0, 0)));
        assert_eq!(data.samples[&(mid, 0, 0)], 10);
    }

    #[test]
    fn pmu_corruption_counts_discarded_reads() {
        let spec = PmuSpec {
            instr_per_us: 1000.0,
            miss_per_kinstr: 2.0,
        };
        let mut c = faulty(
            CollectionConfig::default(),
            FaultPlan::new().with_pmu_corruption(1.0),
            0,
        );
        let ctx = c.data.cct.root();
        c.pmu(ctx, 10.0, &spec);
        c.pmu(ctx, 10.0, &spec);
        let data = fold(c);
        assert_eq!(data.pmu_corrupted, 2);
        assert!(data.pmu.is_empty());
    }

    /// The dense tallies followed by the fold equal, entry for entry, a
    /// model that keeps the public maps up to date on every call — kept
    /// and lost samples, PMU float bits and truncated attribution, on two
    /// shards whose CCTs intern the same contexts in different orders.
    #[test]
    fn dense_tallies_fold_to_the_map_model() {
        let plan = FaultPlan::new()
            .with_sample_loss(0.3)
            .with_stack_truncation(2);
        let spec = PmuSpec {
            instr_per_us: 1234.5,
            miss_per_kinstr: 0.7,
        };
        let seed = 11;
        let mut samples: HashMap<(Vec<CtxFrame>, u32, u32), u64> = HashMap::new();
        let mut dropped = samples.clone();
        let mut pmu: HashMap<Vec<CtxFrame>, [f64; 3]> = HashMap::new();
        let mut shards = Vec::new();
        for rank in 0..2u32 {
            let mut c = Collector::new(sampling(10.0), plan.clone(), seed, rank, 2, 3, FuncId(0));
            let mut rank_pmu: HashMap<Vec<CtxFrame>, [f64; 3]> = HashMap::new();
            let mut t = 0.0;
            for step in 0..200u32 {
                // Rank 1 meets the statements in the opposite order.
                let s = if rank == 0 { step % 5 } else { 4 - step % 5 };
                let root = c.data.cct.root();
                let a = c.data.cct.child(root, CtxFrame::Stmt(StmtId(s)));
                let b = c.data.cct.child(a, CtxFrame::Func(FuncId(1)));
                let deep = c.data.cct.child(b, CtxFrame::Stmt(StmtId(9)));
                let (ctx, thread) = if step % 3 == 0 {
                    (a, 0)
                } else {
                    (deep, step % 3)
                };
                let dt = 3.0 + (step as f64 * 0.37) % 29.0;
                let fired = c.account(thread, ctx, t, t + dt);
                c.pmu(ctx, dt / 3.0, &spec);
                // Model: the same decisions, straight into keyed maps.
                let attributed = c.data.cct.path(if ctx == deep { b } else { ctx });
                let who = ((rank as u64) << 32) | thread as u64;
                let i0 = (t / 10.0).floor() as u64;
                for k in 1..=fired {
                    let lost = fault_roll(seed, FaultStream::SampleLoss, who, i0 + k) < 0.3;
                    let map = if lost { &mut dropped } else { &mut samples };
                    *map.entry((attributed.clone(), rank, thread)).or_insert(0) += 1;
                }
                let agg = rank_pmu.entry(c.data.cct.path(ctx)).or_insert([0.0; 3]);
                agg[0] += dt / 3.0 * spec.instr_per_us;
                agg[1] += dt / 3.0 * 2500.0;
                agg[2] += dt / 3.0 * spec.instr_per_us / 1000.0 * spec.miss_per_kinstr;
                t += dt;
            }
            // Floats meet across ranks as whole per-rank aggregates.
            for (path, agg) in rank_pmu {
                let sum = pmu.entry(path).or_insert([0.0; 3]);
                (0..3).for_each(|i| sum[i] += agg[i]);
            }
            shards.push(c);
        }
        let data = merge_shards(
            shards,
            Vec::new(),
            0,
            vec![0.0; 2],
            vec![RankStatus::Completed; 2],
        );
        let by_path = |m: &HashMap<(CtxId, u32, u32), u64>| -> HashMap<_, _> {
            m.iter()
                .map(|(&(ctx, r, t), &n)| ((data.cct.path(ctx), r, t), n))
                .collect()
        };
        assert!(!dropped.is_empty() && !samples.is_empty());
        assert_eq!(by_path(&data.samples), samples);
        assert_eq!(by_path(&data.dropped_samples), dropped);
        assert_eq!(data.pmu.len(), pmu.len());
        for (ctx, agg) in &data.pmu {
            let want = pmu[&data.cct.path(*ctx)];
            let got = [agg.instructions, agg.cycles, agg.cache_misses];
            assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
        }
    }
}
