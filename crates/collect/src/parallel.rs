//! Parallel view construction (§3.4).
//!
//! For every process a *flow* is generated: the pre-order vertex access
//! sequence of the top-down view, replicated with per-process performance
//! data and chained with intra-procedural edges. Thread regions contribute
//! additional per-thread flows hanging off the region vertex. Inter-process
//! edges come from the run's matched message/dependence records and
//! inter-thread edges from its lock records, aggregated per vertex pair.

use std::collections::HashMap;

use graphalgo::dfs_preorder;
use pag::{keys, mkeys, CallKind, CommKind, EdgeLabel, Pag, VertexId, VertexLabel, ViewKind};
use simrt::CommKindTag;

use crate::embed::ProfiledRun;

/// Build the parallel view of a profiled run.
pub fn build_parallel_view(run: &ProfiledRun) -> Pag {
    let td = &run.pag;
    let nranks = run.data.nranks;
    let nthreads = run.data.nthreads.max(1);

    // Pre-order traversal of the top-down tree (edge insertion order is
    // source order, so this is the paper's "vertex access sequence").
    let order = dfs_preorder(td, run.root);

    // Thread-region subtrees: region vertex → its pre-order subtree.
    let regions: Vec<(VertexId, Vec<VertexId>)> = td
        .vertex_ids()
        .filter(|&v| td.vertex(v).label == VertexLabel::Call(CallKind::ThreadSpawn))
        .map(|v| (v, dfs_preorder(td, v)))
        .collect();

    let per_flow = order.len();
    let thread_extra: usize = if nthreads > 1 {
        regions.iter().map(|(_, s)| s.len()).sum::<usize>() * (nthreads as usize - 1)
    } else {
        0
    };
    let est_v = per_flow * nranks as usize + thread_extra * nranks as usize;
    let mut pv = Pag::with_capacity(
        ViewKind::Parallel,
        format!("{}:parallel", td.name()),
        est_v,
        est_v + run.data.msg_edges.len(),
    );
    pv.set_num_procs(nranks);
    pv.set_threads_per_proc(nthreads);

    // (topdown vertex, rank, thread) → parallel vertex.
    let mut flow_vertex: HashMap<(VertexId, u32, u32), VertexId> = HashMap::new();

    for rank in 0..nranks {
        // Main flow (thread 0): the full pre-order sequence.
        let mut prev: Option<VertexId> = None;
        for &v in &order {
            let nv = add_flow_vertex(&mut pv, run, v, rank, 0);
            flow_vertex.insert((v, rank, 0), nv);
            if let Some(p) = prev {
                pv.add_edge(p, nv, EdgeLabel::IntraProc);
            } else if rank == 0 {
                pv.set_root(nv);
            }
            prev = Some(nv);
        }
        // Thread flows for each region.
        for t in 1..nthreads {
            for (region, subtree) in &regions {
                // The region's main-flow vertex was added above; a miss
                // means the region is unreachable from the root (degraded
                // or malformed data) — skip rather than panic.
                let Some(&spawn) = flow_vertex.get(&(*region, rank, 0)) else {
                    continue;
                };
                let mut prev: Option<VertexId> = None;
                for &v in subtree {
                    let nv = add_flow_vertex(&mut pv, run, v, rank, t);
                    flow_vertex.insert((v, rank, t), nv);
                    match prev {
                        Some(p) => {
                            pv.add_edge(p, nv, EdgeLabel::IntraProc);
                        }
                        None => {
                            // Spawn edge from the region vertex.
                            pv.add_edge(spawn, nv, EdgeLabel::InterThread);
                        }
                    }
                    prev = Some(nv);
                }
            }
        }
    }

    // Inter-process edges, aggregated per (src vertex, dst vertex) pair.
    struct EdgeAgg {
        wait: f64,
        bytes: u64,
        count: i64,
        label: EdgeLabel,
    }
    let mut aggs: HashMap<(VertexId, VertexId), EdgeAgg> = HashMap::new();
    for e in &run.data.msg_edges {
        let (Some(sv), Some(dv)) = (run.ctx_leaf(e.src_ctx), run.ctx_leaf(e.dst_ctx)) else {
            continue;
        };
        let (Some(&ps), Some(&pd)) = (
            flow_vertex.get(&(sv, e.src_rank, 0)),
            flow_vertex.get(&(dv, e.dst_rank, 0)),
        ) else {
            continue;
        };
        let label = EdgeLabel::InterProcess(match e.kind {
            CommKindTag::Send | CommKindTag::Recv => CommKind::P2pSync,
            CommKindTag::Isend | CommKindTag::Irecv | CommKindTag::Wait | CommKindTag::Waitall => {
                CommKind::P2pAsync
            }
            _ => CommKind::Collective,
        });
        let agg = aggs.entry((ps, pd)).or_insert(EdgeAgg {
            wait: 0.0,
            bytes: 0,
            count: 0,
            label,
        });
        agg.wait += e.wait;
        agg.bytes += e.bytes;
        agg.count += 1;
    }
    // Inter-thread lock dependence edges.
    for rec in &run.data.lock_records {
        let Some((hthread, _, hctx)) = rec.blocked_by else {
            continue;
        };
        let (Some(hv), Some(wv)) = (run.ctx_leaf(hctx), run.ctx_leaf(rec.ctx)) else {
            continue;
        };
        let (Some(&ph), Some(&pw)) = (
            flow_vertex.get(&(hv, rec.rank, hthread)),
            flow_vertex.get(&(wv, rec.rank, rec.thread)),
        ) else {
            continue;
        };
        let agg = aggs.entry((ph, pw)).or_insert(EdgeAgg {
            wait: 0.0,
            bytes: 0,
            count: 0,
            label: EdgeLabel::InterThread,
        });
        agg.wait += rec.wait();
        agg.count += 1;
    }
    let mut pairs: Vec<((VertexId, VertexId), EdgeAgg)> = aggs.into_iter().collect();
    pairs.sort_by_key(|&((a, b), _)| (a, b));
    for ((src, dst), agg) in pairs {
        let e = pv.add_edge(src, dst, agg.label);
        pv.set_emetric(e, mkeys::WAIT_TIME, agg.wait);
        pv.set_emetric_i64(e, mkeys::COUNT, agg.count);
        if agg.bytes > 0 {
            pv.set_emetric_i64(e, mkeys::COMM_BYTES, agg.bytes as i64);
        }
    }

    pv
}

fn add_flow_vertex(
    pv: &mut Pag,
    run: &ProfiledRun,
    v: VertexId,
    rank: u32,
    thread: u32,
) -> VertexId {
    let td = &run.pag;
    let data = td.vertex(v);
    let nv = pv.add_vertex(data.label, data.name.clone());
    pv.set_metric_i64(nv, mkeys::PROC, rank as i64);
    pv.set_metric_i64(nv, mkeys::THREAD, thread as i64);
    pv.set_metric_i64(nv, mkeys::TOPDOWN_VERTEX, v.0 as i64);
    // A rank that crashed or hung still gets a flow (its data up to the
    // fault is real), but every vertex of that flow is marked so analyses
    // and reports can see the flow is partial rather than "fast".
    let status = run.data.status_of(rank);
    if !status.is_completed() {
        pv.set_vstr(nv, keys::RANK_STATUS, status.to_string());
        let compl = run.data.rank_completeness(rank);
        if compl < 1.0 {
            pv.set_metric(nv, mkeys::COMPLETENESS, compl);
        }
    }
    let t = run.vt_times.get(&(v, rank, thread)).copied().unwrap_or(0.0);
    if t > 0.0 {
        pv.set_metric(nv, mkeys::TIME, t);
    }
    if let Some(d) = td.vstr(v, keys::DEBUG_INFO) {
        pv.set_vstr(nv, keys::DEBUG_INFO, d.to_string());
    }
    nv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile;
    use progmodel::{c, nranks, nthreads, rank, ProgramBuilder};
    use simrt::RunConfig;

    fn mpi_prog() -> progmodel::Program {
        let mut pb = ProgramBuilder::new("pv");
        let main = pb.declare("main", "p.c");
        pb.define(main, |f| {
            f.loop_("step", c(5.0), |b| {
                b.compute("work", (rank() + 1.0) * c(1000.0));
                b.irecv((rank() + nranks() - 1.0).rem(nranks()), c(512.0), 0);
                b.isend((rank() + 1.0).rem(nranks()), c(512.0), 0);
                b.waitall();
            });
        });
        pb.build(main)
    }

    #[test]
    fn vertex_count_is_topdown_times_ranks() {
        let p = mpi_prog();
        let run = profile(&p, &RunConfig::new(4)).unwrap();
        let pv = build_parallel_view(&run);
        assert_eq!(pv.num_vertices(), run.pag.num_vertices() * 4);
        assert_eq!(pv.view(), ViewKind::Parallel);
        assert_eq!(pv.num_procs(), 4);
    }

    #[test]
    fn flows_are_chains_plus_cross_edges() {
        let p = mpi_prog();
        let run = profile(&p, &RunConfig::new(4)).unwrap();
        let pv = build_parallel_view(&run);
        let intra = pv
            .edge_ids()
            .filter(|&e| pv.edge(e).label == EdgeLabel::IntraProc)
            .count();
        assert_eq!(intra, (run.pag.num_vertices() - 1) * 4);
        let cross = pv
            .edge_ids()
            .filter(|&e| pv.edge(e).label.is_inter_process())
            .count();
        assert!(cross > 0, "expected inter-process edges");
    }

    #[test]
    fn cross_edges_connect_waitall_to_late_sender() {
        let p = mpi_prog();
        let run = profile(&p, &RunConfig::new(4)).unwrap();
        let pv = build_parallel_view(&run);
        // Some waitall flow vertex must have an incoming inter-process
        // edge from an isend flow vertex on another rank.
        let found = pv.edge_ids().any(|e| {
            let ed = pv.edge(e);
            if !ed.label.is_inter_process() {
                return false;
            }
            let s = pv.vertex(ed.src);
            let d = pv.vertex(ed.dst);
            s.name.as_ref() == "MPI_Isend"
                && d.name.as_ref() == "MPI_Waitall"
                && pv.metric_i64(ed.src, mkeys::PROC) != pv.metric_i64(ed.dst, mkeys::PROC)
        });
        assert!(found);
    }

    #[test]
    fn per_rank_times_differ_on_imbalanced_work() {
        let p = mpi_prog();
        let run = profile(&p, &RunConfig::new(4)).unwrap();
        let pv = build_parallel_view(&run);
        // Find the two "work" flow vertices of rank 0 and rank 3.
        let mut t0 = None;
        let mut t3 = None;
        for v in pv.vertex_ids() {
            let d = pv.vertex(v);
            if d.name.as_ref() == "work" {
                match pv.metric_i64(v, mkeys::PROC) {
                    Some(0) => t0 = Some(pv.metric_f64(v, mkeys::TIME)),
                    Some(3) => t3 = Some(pv.metric_f64(v, mkeys::TIME)),
                    _ => {}
                }
            }
        }
        let (t0, t3) = (t0.unwrap(), t3.unwrap());
        assert!(t3 > 2.0 * t0, "rank3 work {t3} should dwarf rank0 {t0}");
    }

    #[test]
    fn thread_flows_replicate_region_subtree() {
        let mut pb = ProgramBuilder::new("thr");
        let main = pb.declare("main", "t.c");
        pb.define(main, |f| {
            f.compute("serial", c(10.0));
            f.thread_region(nthreads(), |b| {
                b.compute("twork", c(100.0));
                b.alloc("allocate", c(50.0));
            });
        });
        let p = pb.build(main);
        let run = profile(&p, &RunConfig::new(2).with_threads(3)).unwrap();
        let pv = build_parallel_view(&run);
        // Top-down: main, serial, region, twork, allocate = 5 vertices.
        // Parallel: 5 per main flow × 2 ranks + (region subtree = 3) × 2
        // extra threads × 2 ranks.
        assert_eq!(pv.num_vertices(), 5 * 2 + 3 * 2 * 2);
        // Spawn edges from region vertices.
        let spawn_edges = pv
            .edge_ids()
            .filter(|&e| pv.edge(e).label == EdgeLabel::InterThread)
            .count();
        // 2 spawn edges per rank (threads 1,2) + lock-dependence edges.
        assert!(spawn_edges >= 4, "spawn edges {spawn_edges}");
    }

    #[test]
    fn lock_contention_produces_interthread_edges() {
        let mut pb = ProgramBuilder::new("lk");
        let main = pb.declare("main", "l.c");
        pb.define(main, |f| {
            f.thread_region(nthreads(), |b| {
                b.compute("pre", thread() * c(1.0));
                b.alloc("allocate", c(100.0));
            });
        });
        use progmodel::thread;
        let p = pb.build(main);
        let run = profile(&p, &RunConfig::new(1).with_threads(4)).unwrap();
        let pv = build_parallel_view(&run);
        let lock_edges: Vec<_> = pv
            .edge_ids()
            .filter(|&e| {
                pv.edge(e).label == EdgeLabel::InterThread
                    && pv.emetric_f64(e, mkeys::WAIT_TIME) > 0.0
            })
            .collect();
        assert!(
            !lock_edges.is_empty(),
            "expected lock-wait inter-thread edges"
        );
        // Every lock edge connects two "allocate" vertices.
        for e in lock_edges {
            let ed = pv.edge(e);
            assert_eq!(pv.vertex(ed.src).name.as_ref(), "allocate");
            assert_eq!(pv.vertex(ed.dst).name.as_ref(), "allocate");
        }
    }
}
