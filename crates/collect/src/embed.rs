//! Performance data embedding (§3.3).
//!
//! Each piece of runtime data carries a calling context; embedding
//! resolves the context to its skeleton path and accumulates the data on
//! the corresponding vertices: sampled time becomes per-process inclusive
//! time vectors (every vertex on the path), PMU and communication/lock
//! statistics attach to the deepest vertex.

use std::collections::HashMap;

use pag::{keys, mkeys, Pag, VertexId};
use progmodel::Program;
use simrt::{CtxId, RunData};

use crate::resolve::ContextResolver;
use crate::static_pag::StaticPag;

/// A fully profiled run: the data-carrying top-down PAG plus everything
/// the parallel-view builder and the report module need.
#[derive(Debug)]
pub struct ProfiledRun {
    /// Top-down view with embedded performance data.
    pub pag: Pag,
    /// `(parent vertex, frame)` → child vertex (extended by dynamic
    /// fill-in).
    pub child_map: HashMap<(VertexId, simrt::CtxFrame), VertexId>,
    /// Root vertex.
    pub root: VertexId,
    /// The raw run data.
    pub data: RunData,
    /// Resolved context → vertex path cache.
    pub ctx_paths: HashMap<CtxId, Vec<VertexId>>,
    /// Inclusive sampled time per (vertex, rank, thread), µs.
    pub vt_times: HashMap<(VertexId, u32, u32), f64>,
    /// Static-analysis wall time (seconds).
    pub static_seconds: f64,
}

impl ProfiledRun {
    /// The deepest vertex of a context (resolved during embedding).
    pub fn ctx_leaf(&self, ctx: CtxId) -> Option<VertexId> {
        self.ctx_paths.get(&ctx).and_then(|p| p.last().copied())
    }

    /// Serialized PAG size in bytes (Table 1's space cost).
    pub fn space_cost(&self) -> usize {
        pag::serialize::space_cost(&self.pag)
    }
}

/// Per-rank accumulator, filled from one rank's records on one worker
/// thread, then merged into the global aggregates in rank order so the
/// result is independent of the worker count.
#[derive(Default)]
struct RankAcc {
    /// Inclusive sampled time per path vertex (this rank's slot of
    /// `TIME_PER_PROC`).
    incl: HashMap<VertexId, f64>,
    /// Inclusive time per (vertex, thread).
    vt: HashMap<(VertexId, u32), f64>,
    /// Leaf self time.
    self_time: HashMap<VertexId, f64>,
    /// Kept sample counts per leaf (completeness denominator).
    kept_leaf: HashMap<VertexId, u64>,
    /// Communication statistics per leaf.
    comm: HashMap<VertexId, CommAcc>,
    /// Lock (count, wait) per leaf.
    lock: HashMap<VertexId, (i64, f64)>,
}

/// One rank's communication contribution to a vertex.
#[derive(Default)]
struct CommAcc {
    count: i64,
    bytes: u64,
    wait: f64,
    op_time: f64,
    /// This rank's per-proc slots.
    own_bytes: f64,
    own_wait: f64,
    kinds: std::collections::BTreeSet<&'static str>,
    peers: std::collections::BTreeSet<u32>,
}

/// Global (merged) communication statistics for a vertex.
struct CommAgg {
    count: i64,
    bytes: u64,
    wait: f64,
    op_time: f64,
    bytes_per_proc: Vec<f64>,
    wait_per_proc: Vec<f64>,
    kinds: std::collections::BTreeSet<&'static str>,
    peers: std::collections::BTreeSet<u32>,
}

impl CommAgg {
    fn new(nranks: usize) -> Self {
        CommAgg {
            count: 0,
            bytes: 0,
            wait: 0.0,
            op_time: 0.0,
            bytes_per_proc: vec![0.0; nranks],
            wait_per_proc: vec![0.0; nranks],
            kinds: Default::default(),
            peers: Default::default(),
        }
    }

    fn add_record(&mut self, rec: &simrt::CommRecord) {
        self.count += 1;
        self.bytes += rec.bytes;
        self.wait += rec.wait;
        self.op_time += rec.complete - rec.post;
        if let (Some(b), Some(w)) = (
            self.bytes_per_proc.get_mut(rec.rank as usize),
            self.wait_per_proc.get_mut(rec.rank as usize),
        ) {
            *b += rec.bytes as f64;
            *w += rec.wait;
        }
        self.kinds.insert(rec.kind.mpi_name());
        if rec.peer != u32::MAX {
            self.peers.insert(rec.peer);
        }
    }
}

/// Accumulate one rank's samples/comm/lock records against the frozen
/// context→path table. Pure with respect to the PAG: every context was
/// resolved (and any dynamic fill-in done) before this runs, so it can
/// execute on any thread.
fn accumulate_rank(
    ctx_paths: &HashMap<CtxId, Vec<VertexId>>,
    period: Option<f64>,
    samples: &[(CtxId, u32, u64)],
    comm: &[&simrt::CommRecord],
    locks: &[&simrt::LockRecord],
) -> RankAcc {
    let mut acc = RankAcc::default();
    if let Some(period) = period {
        for &(ctx, thread, count) in samples {
            let dt = count as f64 * period;
            let path = &ctx_paths[&ctx];
            for &v in path {
                *acc.incl.entry(v).or_insert(0.0) += dt;
                *acc.vt.entry((v, thread)).or_insert(0.0) += dt;
            }
            if let Some(&leaf) = path.last() {
                *acc.self_time.entry(leaf).or_insert(0.0) += dt;
                *acc.kept_leaf.entry(leaf).or_insert(0) += count;
            }
        }
    }
    for rec in comm {
        let leaf = *ctx_paths[&rec.ctx].last().expect("path contains root");
        let c = acc.comm.entry(leaf).or_default();
        c.count += 1;
        c.bytes += rec.bytes;
        c.wait += rec.wait;
        c.op_time += rec.complete - rec.post;
        c.own_bytes += rec.bytes as f64;
        c.own_wait += rec.wait;
        c.kinds.insert(rec.kind.mpi_name());
        if rec.peer != u32::MAX {
            c.peers.insert(rec.peer);
        }
    }
    for rec in locks {
        let leaf = *ctx_paths[&rec.ctx].last().expect("path contains root");
        let e = acc.lock.entry(leaf).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += rec.wait();
    }
    acc
}

/// Embed run data into the static skeleton ([`embed_observed`] with a
/// disabled observability handle).
pub fn embed(prog: &Program, sp: StaticPag, data: RunData) -> ProfiledRun {
    embed_observed(prog, sp, data, &obs::Obs::disabled())
}

/// Embed run data into the static skeleton.
///
/// Embedding is two-phase: a serial *resolve* phase walks every calling
/// context that appears anywhere in the run data (in sorted context
/// order, so dynamic fill-in allocates vertices deterministically), then
/// a parallel *accumulate* phase shards the per-rank records across
/// scoped worker threads against the now-frozen context→path table and
/// merges the per-rank accumulators in rank order. The embedded PAG is
/// bit-identical regardless of the worker count — and of whether `obs`
/// is enabled (spans measure host wall-clock only).
pub fn embed_observed(prog: &Program, sp: StaticPag, data: RunData, obs: &obs::Obs) -> ProfiledRun {
    embed_on(prog, sp, data, obs, crate::par::host_workers())
}

/// [`embed_observed`] with the phase-2 worker count pinned, so tests can
/// vary it.
pub(crate) fn embed_on(
    prog: &Program,
    mut sp: StaticPag,
    data: RunData,
    obs: &obs::Obs,
    workers: usize,
) -> ProfiledRun {
    use obs::Layer;
    let nranks = data.nranks as usize;

    // Phase 1 (serial): resolve every context once. This is the only part
    // that mutates the PAG (indirect-call fill-in), and sorted order makes
    // the resulting vertex ids independent of hash-map iteration order.
    let resolve_t0 = obs.now_us();
    let mut resolver = ContextResolver::new(prog);
    let mut all_ctxs: Vec<CtxId> = Vec::new();
    all_ctxs.extend(data.samples.keys().map(|&(c, _, _)| c));
    all_ctxs.extend(data.pmu.keys().copied());
    all_ctxs.extend(data.comm_records.iter().map(|r| r.ctx));
    all_ctxs.extend(data.lock_records.iter().map(|r| r.ctx));
    all_ctxs.extend(
        data.lock_records
            .iter()
            .filter_map(|r| r.blocked_by.map(|(_, _, h)| h)),
    );
    all_ctxs.extend(data.msg_edges.iter().flat_map(|e| [e.src_ctx, e.dst_ctx]));
    all_ctxs.extend(data.dropped_samples.keys().map(|&(c, _, _)| c));
    all_ctxs.sort_unstable();
    all_ctxs.dedup();
    let mut ctx_paths: HashMap<CtxId, Vec<VertexId>> = HashMap::with_capacity(all_ctxs.len());
    for ctx in all_ctxs {
        let p = resolver.resolve(&mut sp, &data.cct, ctx);
        ctx_paths.insert(ctx, p);
    }
    if obs.is_enabled() {
        obs.record_span(
            Layer::Collect,
            "embed.resolve",
            0,
            resolve_t0,
            obs.now_us(),
            &[("ctxs", ctx_paths.len() as f64)],
        );
        obs.count("collect.ctxs.resolved", ctx_paths.len() as u64);
    }

    // Partition the raw records by rank. Samples are sorted per rank so
    // the float accumulation order is canonical; comm/lock records keep
    // their (already rank-grouped) record order. Out-of-range ranks
    // (malformed data) are skipped for samples — matching the serial
    // embedding's tolerance — and handled in a serial leftover pass for
    // records.
    let mut rank_samples: Vec<Vec<(CtxId, u32, u64)>> = vec![Vec::new(); nranks];
    if data.sample_period_us.is_some() {
        for (&(ctx, rank, thread), &count) in &data.samples {
            if let Some(bucket) = rank_samples.get_mut(rank as usize) {
                bucket.push((ctx, thread, count));
            }
        }
        for bucket in &mut rank_samples {
            bucket.sort_unstable();
        }
    }
    let mut rank_comm: Vec<Vec<&simrt::CommRecord>> = vec![Vec::new(); nranks];
    let mut stray_comm: Vec<&simrt::CommRecord> = Vec::new();
    for rec in &data.comm_records {
        match rank_comm.get_mut(rec.rank as usize) {
            Some(bucket) => bucket.push(rec),
            None => stray_comm.push(rec),
        }
    }
    let mut rank_locks: Vec<Vec<&simrt::LockRecord>> = vec![Vec::new(); nranks];
    let mut stray_locks: Vec<&simrt::LockRecord> = Vec::new();
    for rec in &data.lock_records {
        match rank_locks.get_mut(rec.rank as usize) {
            Some(bucket) => bucket.push(rec),
            None => stray_locks.push(rec),
        }
    }

    // Phase 2 (parallel): one accumulator per rank, built concurrently.
    let period = data.sample_period_us;
    let rank_accs: Vec<RankAcc> = crate::par::map_shards(nranks, workers, |r| {
        let t0 = obs.now_us();
        let acc = accumulate_rank(
            &ctx_paths,
            period,
            &rank_samples[r],
            &rank_comm[r],
            &rank_locks[r],
        );
        if obs.is_enabled() {
            obs.record_span(
                Layer::Collect,
                "embed.rank",
                r as u32,
                t0,
                obs.now_us(),
                &[],
            );
        }
        acc
    });

    // Merge in rank order (deterministic float accumulation).
    let merge_t0 = obs.now_us();
    let mut per_proc: HashMap<VertexId, Vec<f64>> = HashMap::new();
    let mut self_time: HashMap<VertexId, f64> = HashMap::new();
    let mut vt_times: HashMap<(VertexId, u32, u32), f64> = HashMap::new();
    let mut kept_leaf: HashMap<VertexId, u64> = HashMap::new();
    let mut comm_aggs: HashMap<VertexId, CommAgg> = HashMap::new();
    let mut lock_aggs: HashMap<VertexId, (i64, f64)> = HashMap::new();
    for (r, acc) in rank_accs.into_iter().enumerate() {
        for (v, dt) in acc.incl {
            per_proc.entry(v).or_insert_with(|| vec![0.0; nranks])[r] += dt;
        }
        for ((v, thread), dt) in acc.vt {
            *vt_times.entry((v, r as u32, thread)).or_insert(0.0) += dt;
        }
        for (v, dt) in acc.self_time {
            *self_time.entry(v).or_insert(0.0) += dt;
        }
        for (v, n) in acc.kept_leaf {
            *kept_leaf.entry(v).or_insert(0) += n;
        }
        for (v, c) in acc.comm {
            let agg = comm_aggs.entry(v).or_insert_with(|| CommAgg::new(nranks));
            agg.count += c.count;
            agg.bytes += c.bytes;
            agg.wait += c.wait;
            agg.op_time += c.op_time;
            agg.bytes_per_proc[r] += c.own_bytes;
            agg.wait_per_proc[r] += c.own_wait;
            agg.kinds.extend(c.kinds);
            agg.peers.extend(c.peers);
        }
        for (v, (n, w)) in acc.lock {
            let e = lock_aggs.entry(v).or_insert((0, 0.0));
            e.0 += n;
            e.1 += w;
        }
    }
    for rec in stray_comm {
        let leaf = *ctx_paths[&rec.ctx].last().expect("path contains root");
        comm_aggs
            .entry(leaf)
            .or_insert_with(|| CommAgg::new(nranks))
            .add_record(rec);
    }
    for rec in stray_locks {
        let leaf = *ctx_paths[&rec.ctx].last().expect("path contains root");
        let e = lock_aggs.entry(leaf).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += rec.wait();
    }

    // 2. PMU estimates → deepest vertex (sorted ctx order: deterministic
    // float accumulation when several contexts share a leaf).
    let mut pmu: Vec<(CtxId, simrt::PmuAgg)> = data.pmu.iter().map(|(c, p)| (*c, *p)).collect();
    pmu.sort_unstable_by_key(|(c, _)| *c);
    for (ctx, agg) in pmu {
        let leaf = *ctx_paths[&ctx].last().expect("path contains root");
        sp.pag
            .add_metric(leaf, mkeys::PMU_INSTRUCTIONS, agg.instructions);
        sp.pag.add_metric(leaf, mkeys::PMU_CYCLES, agg.cycles);
        sp.pag
            .add_metric(leaf, mkeys::PMU_CACHE_MISSES, agg.cache_misses);
    }

    // 3. Communication statistics → deepest vertex.
    for (v, agg) in comm_aggs {
        let pattern = if agg.peers.is_empty() {
            "collective".to_string()
        } else if agg.peers.len() <= 2 {
            "p2p-neighbor".to_string()
        } else {
            format!("p2p-{}peers", agg.peers.len())
        };
        let info = format!(
            "{} pattern={} count={} bytes={}",
            agg.kinds.iter().copied().collect::<Vec<_>>().join("/"),
            pattern,
            agg.count,
            agg.bytes
        );
        sp.pag.set_vstr(v, keys::COMM_INFO, info);
        sp.pag.add_metric_i64(v, mkeys::COUNT, agg.count);
        sp.pag
            .add_metric_i64(v, mkeys::COMM_BYTES, agg.bytes as i64);
        sp.pag.add_metric(v, mkeys::COMM_TIME, agg.op_time);
        sp.pag.add_metric(v, mkeys::WAIT_TIME, agg.wait);
        sp.pag
            .set_metric_vec(v, mkeys::BYTES_PER_PROC, agg.bytes_per_proc);
        sp.pag
            .set_metric_vec(v, mkeys::WAIT_PER_PROC, agg.wait_per_proc);
    }

    // 4. Lock statistics → deepest vertex.
    for (v, (n, w)) in lock_aggs {
        sp.pag.add_metric_i64(v, mkeys::COUNT, n);
        sp.pag.add_metric(v, mkeys::WAIT_TIME, w);
    }

    // 5. Degraded-data metadata: per-vertex dropped-sample counts and
    // completeness, plus run-level completeness on the root. A healthy
    // run writes nothing here, so downstream consumers can treat a
    // missing COMPLETENESS as 1.0.
    let dropped: Vec<(CtxId, u64)> = {
        let mut by_ctx: HashMap<CtxId, u64> = HashMap::new();
        for (&(ctx, rank, _), &n) in &data.dropped_samples {
            if (rank as usize) < nranks {
                *by_ctx.entry(ctx).or_insert(0) += n;
            }
        }
        let mut v: Vec<_> = by_ctx.into_iter().collect();
        v.sort_unstable_by_key(|(c, _)| *c);
        v
    };
    let mut dropped_leaf: HashMap<VertexId, u64> = HashMap::new();
    for (ctx, n) in dropped {
        let leaf = *ctx_paths[&ctx].last().expect("path contains root");
        *dropped_leaf.entry(leaf).or_insert(0) += n;
    }
    for (&v, &lost) in &dropped_leaf {
        let kept = kept_leaf.get(&v).copied().unwrap_or(0);
        sp.pag
            .add_metric_i64(v, mkeys::DROPPED_SAMPLES, lost as i64);
        sp.pag
            .set_metric(v, mkeys::COMPLETENESS, kept as f64 / (kept + lost) as f64);
    }
    if !data.is_complete() {
        let per_proc_compl: Vec<f64> = (0..data.nranks)
            .map(|r| data.rank_completeness(r))
            .collect();
        let total_lost: u64 = data.dropped_samples.values().sum();
        let total_kept: u64 = data.samples.values().sum();
        let status = data
            .rank_status
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_completed())
            .map(|(r, s)| format!("rank {r} {s}"))
            .collect::<Vec<_>>()
            .join(", ");
        let root = sp.root;
        sp.pag.set_metric(
            root,
            mkeys::COMPLETENESS,
            if total_kept + total_lost == 0 {
                1.0
            } else {
                total_kept as f64 / (total_kept + total_lost) as f64
            },
        );
        sp.pag
            .set_metric_vec(root, mkeys::COMPLETENESS_PER_PROC, per_proc_compl);
        if total_lost > 0 {
            sp.pag
                .set_metric_i64(root, mkeys::DROPPED_SAMPLES, total_lost as i64);
        }
        sp.pag.set_vstr(
            root,
            keys::RANK_STATUS,
            if status.is_empty() {
                "degraded collection".to_string()
            } else {
                status
            },
        );
    }

    // 6. Write time vectors.
    for (v, vec) in per_proc {
        let total: f64 = vec.iter().sum();
        sp.pag.set_metric(v, mkeys::TIME, total);
        sp.pag.set_metric_vec(v, mkeys::TIME_PER_PROC, vec);
    }
    for (v, t) in self_time {
        sp.pag.set_metric(v, mkeys::SELF_TIME, t);
    }
    // Root gets the exact elapsed times (not subject to sampling error).
    {
        let root = sp.root;
        sp.pag
            .set_metric(root, mkeys::TIME, data.elapsed.iter().sum::<f64>());
        sp.pag
            .set_metric_vec(root, mkeys::TIME_PER_PROC, data.elapsed.clone());
    }
    sp.pag.set_num_procs(data.nranks);
    sp.pag.set_threads_per_proc(data.nthreads);

    if obs.is_enabled() {
        obs.record_span(
            Layer::Collect,
            "embed.merge",
            0,
            merge_t0,
            obs.now_us(),
            &[],
        );
    }

    // `ctx_paths` already covers every context in the run data (the
    // phase-1 resolve) — hand it to downstream consumers as-is.
    ProfiledRun {
        pag: sp.pag,
        child_map: sp.child_map,
        root: sp.root,
        data,
        ctx_paths,
        vt_times,
        static_seconds: sp.static_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile;
    use pag::VertexLabel;
    use progmodel::{c, noise, rank, ProgramBuilder};
    use simrt::RunConfig;

    fn imbalanced_prog() -> Program {
        let mut pb = ProgramBuilder::new("emb");
        let main = pb.declare("main", "e.c");
        let work = pb.declare("work", "e.c");
        pb.define(work, |f| {
            // Rank 0 does 3× the work.
            f.compute(
                "kernel",
                rank().eq(0.0).select(c(300.0), c(100.0)) * noise(0.1, 3),
            );
        });
        pb.define(main, |f| {
            f.loop_("loop_1", c(2000.0), |b| {
                b.call(work);
                b.allreduce(c(8.0));
            });
        });
        pb.build(main)
    }

    #[test]
    fn time_vectors_reflect_imbalance() {
        let p = imbalanced_prog();
        let run = profile(&p, &RunConfig::new(4)).unwrap();
        let kernel = run.pag.find_by_name("kernel")[0];
        let vec = run
            .pag
            .metric_vec(kernel, mkeys::TIME_PER_PROC)
            .expect("per-proc time")
            .to_vec();
        assert_eq!(vec.len(), 4);
        assert!(
            vec[0] > 2.0 * vec[1],
            "rank 0 should dominate kernel time: {vec:?}"
        );
        // Inclusive time propagates up to loop and main.
        let loop_v = run.pag.find_by_name("loop_1")[0];
        assert!(run.pag.vertex_time(loop_v) >= run.pag.vertex_time(kernel));
        assert!(run.pag.vertex_time(run.root) > 0.0);
    }

    #[test]
    fn allreduce_gets_wait_time_and_comm_info() {
        let p = imbalanced_prog();
        let run = profile(&p, &RunConfig::new(4)).unwrap();
        let ar = run.pag.find_by_name("MPI_Allreduce")[0];
        assert!(run.pag.metric_f64(ar, mkeys::WAIT_TIME) > 0.0);
        assert_eq!(run.pag.metric_i64(ar, mkeys::COUNT), Some(8000));
        let info = run.pag.vstr(ar, keys::COMM_INFO).unwrap();
        assert!(info.contains("MPI_Allreduce"), "{info}");
        assert!(info.contains("collective"), "{info}");
    }

    #[test]
    fn sampled_root_time_matches_elapsed() {
        let p = imbalanced_prog();
        let run = profile(&p, &RunConfig::new(4)).unwrap();
        let per_proc = run
            .pag
            .metric_vec(run.root, mkeys::TIME_PER_PROC)
            .unwrap()
            .to_vec();
        assert_eq!(per_proc, run.data.elapsed);
    }

    #[test]
    fn pmu_lands_on_compute_leaf() {
        let p = imbalanced_prog();
        let run = profile(&p, &RunConfig::new(2)).unwrap();
        let kernel = run.pag.find_by_name("kernel")[0];
        assert!(run.pag.metric_f64(kernel, mkeys::PMU_INSTRUCTIONS) > 0.0);
        // Loop vertex has no direct PMU data.
        let loop_v = run.pag.find_by_name("loop_1")[0];
        assert_eq!(run.pag.metric(loop_v, mkeys::PMU_INSTRUCTIONS), None);
    }

    #[test]
    fn space_cost_positive_and_bounded() {
        let p = imbalanced_prog();
        let run = profile(&p, &RunConfig::new(2)).unwrap();
        let cost = run.space_cost();
        assert!(cost > 100);
        assert!(cost < 1_000_000);
    }

    #[test]
    fn vt_times_cover_threads() {
        let mut pb = ProgramBuilder::new("thr");
        let main = pb.declare("main", "t.c");
        pb.define(main, |f| {
            f.thread_region(c(3.0), |b| {
                b.compute("twork", c(50_000.0) * noise(0.2, 5));
            });
        });
        let p = pb.build(main);
        let run = profile(&p, &RunConfig::new(1).with_threads(3)).unwrap();
        let tw = run.pag.find_by_name("twork")[0];
        let threads_seen: std::collections::HashSet<u32> = run
            .vt_times
            .keys()
            .filter(|&&(v, _, _)| v == tw)
            .map(|&(_, _, t)| t)
            .collect();
        assert_eq!(threads_seen.len(), 3, "{threads_seen:?}");
        // The region vertex exists with ThreadSpawn label.
        let regions = run
            .pag
            .find_by_label(VertexLabel::Call(pag::CallKind::ThreadSpawn));
        assert_eq!(regions.len(), 1);
    }
}
