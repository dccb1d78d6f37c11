//! Behavioural tests of the discrete-event engine: timing, matching,
//! collectives, wait propagation, locks, tracing, determinism and failure
//! injection.

use progmodel::{c, nranks, nthreads, rank, thread, ProgramBuilder};
use simrt::{simulate, CollectionConfig, CommKindTag, RunConfig, SimError};

/// Two ranks: rank 0 computes 100 µs then sends; rank 1 receives.
fn pingpong(bytes: f64) -> progmodel::Program {
    let mut pb = ProgramBuilder::new("pingpong");
    let main = pb.declare("main", "pp.c");
    pb.define(main, |f| {
        f.branch(
            "role",
            rank().eq(0.0),
            |s| {
                s.compute("work0", c(100.0));
                s.send(c(1.0), c(bytes), 7);
            },
            |r| {
                r.recv(c(0.0), c(bytes), 7);
            },
        );
    });
    pb.build(main)
}

#[test]
fn receiver_waits_for_late_sender() {
    let prog = pingpong(64.0); // eager
    let data = simulate(&prog, &RunConfig::new(2)).unwrap();
    // Rank 1 posted recv at ~0 and must wait ≥ 100 µs for rank 0's send.
    let recv = data
        .comm_records
        .iter()
        .find(|r| r.kind == CommKindTag::Recv)
        .expect("recv record");
    assert_eq!(recv.rank, 1);
    assert!(recv.wait >= 100.0, "recv wait = {}", recv.wait);
    assert!(data.elapsed[1] >= 100.0);
    // The dependence edge points from the send statement to the recv.
    let edge = data
        .msg_edges
        .iter()
        .find(|e| e.kind == CommKindTag::Recv)
        .expect("recv edge");
    assert_eq!(edge.src_rank, 0);
    assert_eq!(edge.dst_rank, 1);
    assert!(edge.wait >= 100.0);
}

#[test]
fn rendezvous_send_blocks_until_receiver_arrives() {
    // Large message: sender must rendezvous with the receiver, who is busy
    // for 500 µs first.
    let mut pb = ProgramBuilder::new("rdv");
    let main = pb.declare("main", "r.c");
    pb.define(main, |f| {
        f.branch(
            "role",
            rank().eq(0.0),
            |s| {
                s.send(c(1.0), c(1e6), 0); // 1 MB >> eager threshold
            },
            |r| {
                r.compute("busy", c(500.0));
                r.recv(c(0.0), c(1e6), 0);
            },
        );
    });
    let prog = pb.build(main);
    let data = simulate(&prog, &RunConfig::new(2)).unwrap();
    let send = data
        .comm_records
        .iter()
        .find(|r| r.kind == CommKindTag::Send)
        .unwrap();
    assert!(send.wait >= 500.0, "send wait = {}", send.wait);
    // Late-receiver dependence edge: receiver side → sender side.
    let edge = data
        .msg_edges
        .iter()
        .find(|e| e.kind == CommKindTag::Send)
        .expect("late-receiver edge");
    assert_eq!(edge.src_rank, 1);
    assert_eq!(edge.dst_rank, 0);
}

#[test]
fn eager_send_does_not_block() {
    let prog = pingpong(64.0);
    let data = simulate(&prog, &RunConfig::new(2)).unwrap();
    let send = data
        .comm_records
        .iter()
        .find(|r| r.kind == CommKindTag::Send)
        .unwrap();
    assert_eq!(send.wait, 0.0);
    assert!(data.elapsed[0] < 105.0, "sender should finish right away");
}

#[test]
fn allreduce_serializes_on_slowest_rank() {
    let mut pb = ProgramBuilder::new("ar");
    let main = pb.declare("main", "a.c");
    pb.define(main, |f| {
        // Rank 3 is 10× slower before the allreduce.
        f.compute("work", rank().eq(3.0).select(c(1000.0), c(100.0)));
        f.allreduce(c(8.0));
    });
    let prog = pb.build(main);
    let data = simulate(&prog, &RunConfig::new(4)).unwrap();
    for r in 0..4usize {
        assert!(data.elapsed[r] >= 1000.0, "rank {r}: {}", data.elapsed[r]);
    }
    // Fast ranks waited ~900 µs in the allreduce.
    let waits: Vec<f64> = data
        .comm_records
        .iter()
        .filter(|r| r.kind == CommKindTag::Allreduce && r.rank != 3)
        .map(|r| r.wait)
        .collect();
    assert_eq!(waits.len(), 3);
    assert!(waits.iter().all(|&w| w >= 900.0), "waits {waits:?}");
    // The rank-3 record has (almost) no wait beyond the collective cost.
    let slow = data
        .comm_records
        .iter()
        .find(|r| r.kind == CommKindTag::Allreduce && r.rank == 3)
        .unwrap();
    assert!(slow.wait < 100.0);
    // Dependence edges from the late rank's collective to the waiters.
    let late_edges: Vec<_> = data
        .msg_edges
        .iter()
        .filter(|e| e.kind == CommKindTag::Allreduce)
        .collect();
    assert_eq!(late_edges.len(), 3);
    assert!(late_edges.iter().all(|e| e.src_rank == 3));
}

#[test]
fn waitall_accumulates_nonblocking_requests() {
    // Ring: every rank irecvs from left, isends to right, waitall.
    let mut pb = ProgramBuilder::new("ring");
    let main = pb.declare("main", "ring.c");
    pb.define(main, |f| {
        f.irecv((rank() + nranks() - 1.0).rem(nranks()), c(1024.0), 0);
        f.compute("work", (rank() + 1.0) * c(100.0));
        f.isend((rank() + 1.0).rem(nranks()), c(1024.0), 0);
        f.waitall();
    });
    let prog = pb.build(main);
    let data = simulate(&prog, &RunConfig::new(4)).unwrap();
    let waits: Vec<&simrt::CommRecord> = data
        .comm_records
        .iter()
        .filter(|r| r.kind == CommKindTag::Waitall)
        .collect();
    assert_eq!(waits.len(), 4);
    // Rank 0 finishes its own work first (100 µs) but waits for rank 3's
    // send posted at ~400 µs.
    let w0 = waits.iter().find(|r| r.rank == 0).unwrap();
    assert!(w0.wait >= 250.0, "rank0 waitall wait = {}", w0.wait);
    // Rank 3 is the last poster; its requests completed long ago.
    let w3 = waits.iter().find(|r| r.rank == 3).unwrap();
    assert!(w3.wait <= 50.0, "rank3 waitall wait = {}", w3.wait);
    // Waitall edges attribute the delay to the late sender's Isend.
    assert!(data
        .msg_edges
        .iter()
        .any(|e| e.kind == CommKindTag::Waitall && e.dst_rank == 0 && e.src_rank == 3));
}

#[test]
fn wait_by_back_index() {
    let mut pb = ProgramBuilder::new("wait");
    let main = pb.declare("main", "w.c");
    pb.define(main, |f| {
        f.branch(
            "role",
            rank().eq(0.0),
            |s| {
                s.isend(c(1.0), c(64.0), 1);
                s.isend(c(1.0), c(64.0), 2);
                s.wait(1); // wait the first isend
                s.wait(0); // then the second
            },
            |r| {
                r.irecv(c(0.0), c(64.0), 1);
                r.irecv(c(0.0), c(64.0), 2);
                r.waitall();
            },
        );
    });
    let prog = pb.build(main);
    let data = simulate(&prog, &RunConfig::new(2)).unwrap();
    let wait_count = data
        .comm_records
        .iter()
        .filter(|r| r.kind == CommKindTag::Wait)
        .count();
    assert_eq!(wait_count, 2);
}

#[test]
fn bad_wait_index_is_reported() {
    let mut pb = ProgramBuilder::new("badwait");
    let main = pb.declare("main", "w.c");
    pb.define(main, |f| {
        f.wait(0); // nothing outstanding
    });
    let prog = pb.build(main);
    match simulate(&prog, &RunConfig::new(1)) {
        Err(SimError::BadWait { outstanding: 0, .. }) => {}
        other => panic!("expected BadWait, got {other:?}"),
    }
}

#[test]
fn deadlock_detected() {
    // Both ranks recv first: classic deadlock.
    let mut pb = ProgramBuilder::new("dl");
    let main = pb.declare("main", "d.c");
    pb.define(main, |f| {
        f.recv((rank() + 1.0).rem(nranks()), c(8.0), 0);
        f.send((rank() + 1.0).rem(nranks()), c(8.0), 0);
    });
    let prog = pb.build(main);
    match simulate(&prog, &RunConfig::new(2)) {
        Err(SimError::Deadlock { blocked }) => assert_eq!(blocked.len(), 2),
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn bad_peer_is_reported() {
    let mut pb = ProgramBuilder::new("peer");
    let main = pb.declare("main", "p.c");
    pb.define(main, |f| {
        f.send(nranks() + c(5.0), c(8.0), 0);
    });
    let prog = pb.build(main);
    match simulate(&prog, &RunConfig::new(2)) {
        Err(SimError::BadPeer { peer: 7, .. }) => {}
        other => panic!("expected BadPeer, got {other:?}"),
    }
}

#[test]
fn lock_contention_serializes_threads() {
    // 4 threads, each: 10 µs compute + lock hold 100 µs. With a single
    // lock the region takes ≈ 10 + 4×100 µs, not 110 µs.
    let mut pb = ProgramBuilder::new("locks");
    let main = pb.declare("main", "l.c");
    pb.define(main, |f| {
        f.thread_region(nthreads(), |b| {
            b.compute("pre", c(10.0));
            b.alloc("allocate", c(100.0));
        });
    });
    let prog = pb.build(main);
    let cfg = RunConfig::new(1).with_threads(4);
    let data = simulate(&prog, &cfg).unwrap();
    assert!(
        data.elapsed[0] >= 10.0 + 400.0 - 1e-9,
        "region too fast: {}",
        data.elapsed[0]
    );
    assert_eq!(data.lock_records.len(), 4);
    let waits: Vec<f64> = data.lock_records.iter().map(|l| l.wait()).collect();
    let blocked: Vec<bool> = data
        .lock_records
        .iter()
        .map(|l| l.blocked_by.is_some())
        .collect();
    // Exactly one thread acquires immediately; the rest wait on a holder.
    assert_eq!(blocked.iter().filter(|&&b| !b).count(), 1);
    assert!(waits.iter().cloned().fold(0.0, f64::max) >= 299.0);
}

#[test]
fn threads_without_shared_locks_run_parallel() {
    let mut pb = ProgramBuilder::new("par");
    let main = pb.declare("main", "p.c");
    pb.define(main, |f| {
        f.thread_region(c(8.0), |b| {
            b.compute("work", c(100.0));
        });
    });
    let prog = pb.build(main);
    let data = simulate(&prog, &RunConfig::new(1)).unwrap();
    assert!(
        (data.elapsed[0] - 100.0).abs() < 1e-6,
        "fork-join should cost max, got {}",
        data.elapsed[0]
    );
}

#[test]
fn comm_inside_thread_region_rejected() {
    let mut pb = ProgramBuilder::new("bad");
    let main = pb.declare("main", "b.c");
    pb.define(main, |f| {
        f.thread_region(c(2.0), |b| {
            b.barrier();
        });
    });
    let prog = pb.build(main);
    assert!(matches!(
        simulate(&prog, &RunConfig::new(1)),
        Err(SimError::CommInThreadRegion { .. })
    ));
}

#[test]
fn thread_imbalance_costs_join() {
    // Thread 0 does 10× work: region ends when it ends.
    let mut pb = ProgramBuilder::new("imb");
    let main = pb.declare("main", "i.c");
    pb.define(main, |f| {
        f.thread_region(c(4.0), |b| {
            b.compute("work", thread().eq(0.0).select(c(1000.0), c(100.0)));
        });
    });
    let prog = pb.build(main);
    let data = simulate(&prog, &RunConfig::new(1)).unwrap();
    assert!((data.elapsed[0] - 1000.0).abs() < 1e-6);
}

#[test]
fn sampling_approximates_time_distribution() {
    // One rank, two kernels 3:1; sample counts should be ≈ 3:1.
    let mut pb = ProgramBuilder::new("sampling");
    let main = pb.declare("main", "s.c");
    pb.define(main, |f| {
        f.loop_("outer", c(1000.0), |b| {
            // Noise decorrelates kernel durations from the sampling period
            // (otherwise deterministic aliasing skews the counts).
            b.compute("hot", c(300.0) * progmodel::noise(0.3, 1));
            b.compute("cold", c(100.0) * progmodel::noise(0.3, 2));
        });
    });
    let prog = pb.build(main);
    let cfg = RunConfig::new(1);
    let data = simulate(&prog, &cfg).unwrap();
    // The two sampled contexts are the two kernels; their counts should be
    // in roughly 3:1 proportion.
    let mut counts: Vec<u64> = data.samples.values().copied().collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    assert!(
        counts.len() >= 2,
        "expected two sampled contexts: {counts:?}"
    );
    let (hot, cold) = (counts[0], counts[1]);
    assert!(hot > 0 && cold > 0);
    let ratio = hot as f64 / cold as f64;
    assert!((2.5..3.5).contains(&ratio), "ratio {ratio} ({counts:?})");
    // Total sampled time approximates total run time.
    let sampled_us: f64 = counts.iter().sum::<u64>() as f64 * 5000.0;
    assert!((sampled_us - data.total_time).abs() / data.total_time < 0.05);
}

#[test]
fn pmu_estimates_follow_cost_model() {
    let mut pb = ProgramBuilder::new("pmu");
    let main = pb.declare("main", "p.c");
    pb.define(main, |f| {
        f.compute("k", c(1000.0));
    });
    let prog = pb.build(main);
    let data = simulate(&prog, &RunConfig::new(2)).unwrap();
    let total_instr: f64 = data.pmu.values().map(|p| p.instructions).sum();
    // Two ranks × 1000 µs × 2000 instr/µs.
    assert!((total_instr - 4_000_000.0).abs() < 1.0);
}

#[test]
fn tracing_records_events_and_estimates_bytes() {
    let mut pb = ProgramBuilder::new("trace");
    let main = pb.declare("main", "t.c");
    pb.define(main, |f| {
        f.loop_("l", c(50.0), |b| {
            b.compute("k", c(1.0));
        });
        f.barrier();
    });
    let prog = pb.build(main);
    let cfg = RunConfig::new(2).with_collection(CollectionConfig::tracing());
    let data = simulate(&prog, &cfg).unwrap();
    // 2 ranks × (50 computes + 1 barrier) = 102 events.
    assert_eq!(data.trace.total_events, 102);
    assert_eq!(data.trace.est_bytes, 102 * 24);
    let off = simulate(&prog, &RunConfig::new(2)).unwrap();
    assert_eq!(off.trace.total_events, 0);
}

#[test]
fn indirect_calls_resolved_at_runtime() {
    let mut pb = ProgramBuilder::new("ind");
    let main = pb.declare("main", "i.c");
    let fa = pb.declare("fa", "i.c");
    let fb = pb.declare("fb", "i.c");
    pb.define(fa, |f| f.compute("ka", c(1.0)));
    pb.define(fb, |f| f.compute("kb", c(2.0)));
    pb.define(main, |f| {
        f.call_indirect(vec![fa, fb], rank().rem(2.0));
    });
    let prog = pb.build(main);
    let data = simulate(&prog, &RunConfig::new(4)).unwrap();
    let targets = data.indirect_targets.values().next().unwrap();
    assert_eq!(targets.len(), 2, "both candidates observed");
}

#[test]
fn simulation_is_deterministic() {
    let prog = {
        let mut pb = ProgramBuilder::new("det");
        let main = pb.declare("main", "d.c");
        pb.define(main, |f| {
            f.loop_("l", c(20.0), |b| {
                b.compute("k", c(100.0) * progmodel::noise(0.2, 1));
                b.allreduce(c(64.0));
            });
        });
        pb.build(main)
    };
    let cfg = RunConfig::new(8).with_seed(99);
    let a = simulate(&prog, &cfg).unwrap();
    let b = simulate(&prog, &cfg).unwrap();
    assert_eq!(a.total_time, b.total_time);
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.comm_records.len(), b.comm_records.len());
    // Different seed → different timings (noise has effect).
    let c2 = simulate(&prog, &RunConfig::new(8).with_seed(100)).unwrap();
    assert_ne!(a.total_time, c2.total_time);
}

#[test]
fn nested_loops_iterate_fully() {
    let mut pb = ProgramBuilder::new("nest");
    let main = pb.declare("main", "n.c");
    pb.define(main, |f| {
        f.loop_("outer", c(3.0), |o| {
            o.loop_("inner", c(4.0), |i| {
                i.compute("k", c(1.0));
            });
        });
    });
    let prog = pb.build(main);
    let data = simulate(&prog, &RunConfig::new(1)).unwrap();
    assert!((data.elapsed[0] - 12.0).abs() < 1e-9);
}

#[test]
fn recursion_guard_trips() {
    let mut pb = ProgramBuilder::new("rec");
    let main = pb.declare("main", "r.c");
    pb.define(main, |f| f.call(main));
    let prog = pb.build(main);
    assert!(matches!(
        simulate(&prog, &RunConfig::new(1)),
        Err(SimError::StackOverflow { .. })
    ));
}

/// A branch body ending inside a recursive function does not unwind the
/// call depth: recursion through a branch still trips the guard.
#[test]
fn recursion_guard_counts_calls_not_branches() {
    let mut pb = ProgramBuilder::new("rec");
    let main = pb.declare("main", "r.c");
    pb.define(main, |f| {
        f.branch("base", c(1.0), |b| b.compute("k", c(1.0)), |_| {});
        f.call(main);
    });
    let prog = pb.build(main);
    assert!(matches!(
        simulate(&prog, &RunConfig::new(1)),
        Err(SimError::StackOverflow { .. })
    ));
}

/// The thread-region counterpart of `recursion_guard_trips`.
#[test]
fn recursion_in_thread_region_overflows() {
    let mut pb = ProgramBuilder::new("rec");
    let main = pb.declare("main", "r.c");
    let f = pb.declare("f", "r.c");
    pb.define(f, |b| b.call(f));
    pb.define(main, |m| m.thread_region(c(2.0), |b| b.call(f)));
    let prog = pb.build(main);
    assert!(matches!(
        simulate(&prog, &RunConfig::new(1)),
        Err(SimError::StackOverflow { .. })
    ));
}

#[test]
fn nested_thread_region_rejected() {
    let mut pb = ProgramBuilder::new("nest");
    let main = pb.declare("main", "n.c");
    pb.define(main, |f| {
        f.thread_region(c(2.0), |b| {
            b.thread_region(c(2.0), |i| i.compute("k", c(1.0)));
        });
    });
    let prog = pb.build(main);
    assert!(matches!(
        simulate(&prog, &RunConfig::new(1)),
        Err(SimError::NestedThreadRegion { .. })
    ));
}

/// Thread regions walk the program like ranks do, so an indirect call
/// inside one is tallied as observed, once per distinct target.
#[test]
fn indirect_calls_in_thread_regions_are_observed() {
    let mut pb = ProgramBuilder::new("ind");
    let main = pb.declare("main", "i.c");
    let fa = pb.declare("fa", "i.c");
    let fb = pb.declare("fb", "i.c");
    pb.define(fa, |f| f.compute("ka", c(1.0)));
    pb.define(fb, |f| f.compute("kb", c(2.0)));
    pb.define(main, |f| {
        f.thread_region(c(4.0), |b| b.call_indirect(vec![fa, fb], thread()));
    });
    let prog = pb.build(main);
    let data = simulate(&prog, &RunConfig::new(1)).unwrap();
    let targets: Vec<_> = data.indirect_targets.values().collect();
    assert_eq!(targets, [&vec![fa, fb]], "both candidates observed");
}

#[test]
fn barrier_synchronizes_clocks() {
    let mut pb = ProgramBuilder::new("bar");
    let main = pb.declare("main", "b.c");
    pb.define(main, |f| {
        f.compute("work", (rank() + 1.0) * c(100.0));
        f.barrier();
        f.compute("after", c(10.0));
    });
    let prog = pb.build(main);
    let data = simulate(&prog, &RunConfig::new(4)).unwrap();
    // All ranks finish together up to per-rank instrumentation costs.
    let min = data.elapsed.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = data.elapsed.iter().cloned().fold(0.0, f64::max);
    assert!(max - min < 20.0, "clocks diverged: {:?}", data.elapsed);
    assert!(min >= 410.0);
}

#[test]
fn injected_slow_rank_becomes_the_straggler() {
    let mut pb = ProgramBuilder::new("inject");
    let main = pb.declare("main", "i.c");
    pb.define(main, |f| {
        f.loop_("it", c(50.0), |b| {
            b.compute("work", c(200.0));
            b.allreduce(c(8.0));
        });
    });
    let prog = pb.build(main);
    let healthy = simulate(&prog, &RunConfig::new(4)).unwrap();
    let degraded = simulate(&prog, &RunConfig::new(4).with_slow_rank(2, 3.0)).unwrap();
    // The degraded node slows the whole collective-synchronized run ~3×.
    assert!(degraded.total_time > 2.5 * healthy.total_time);
    // Everyone else accumulates allreduce waits; rank 2 does not.
    let wait_of = |data: &simrt::RunData, rank: u32| {
        data.comm_records
            .iter()
            .filter(|r| r.kind == CommKindTag::Allreduce && r.rank == rank)
            .map(|r| r.wait)
            .sum::<f64>()
    };
    assert!(wait_of(&degraded, 0) > 10.0 * wait_of(&degraded, 2).max(1.0));
}

#[test]
fn slow_rank_affects_thread_regions_too() {
    let mut pb = ProgramBuilder::new("inject-thr");
    let main = pb.declare("main", "i.c");
    pb.define(main, |f| {
        f.thread_region(c(4.0), |b| {
            b.compute("twork", c(100.0));
        });
    });
    let prog = pb.build(main);
    let data = simulate(&prog, &RunConfig::new(2).with_slow_rank(1, 2.0)).unwrap();
    assert!((data.elapsed[0] - 100.0).abs() < 5.0);
    assert!((data.elapsed[1] - 200.0).abs() < 5.0);
}

#[test]
fn sendrecv_exchanges_without_deadlock() {
    // Every rank sendrecvs with both neighbours using large (rendezvous)
    // messages — the idiom that deadlocks with naive Send/Recv ordering.
    let mut pb = ProgramBuilder::new("sr");
    let main = pb.declare("main", "sr.c");
    pb.define(main, |f| {
        f.loop_("it", c(20.0), |b| {
            b.sendrecv(
                (rank() + 1.0).rem(nranks()),
                (rank() + nranks() - 1.0).rem(nranks()),
                c(100_000.0),
                9,
            );
        });
    });
    let prog = pb.build(main);
    let data = simulate(&prog, &RunConfig::new(4)).unwrap();
    assert!(data.total_time > 0.0);
    // 20 iters × 4 ranks of each op kind.
    let count = |k: CommKindTag| data.comm_records.iter().filter(|r| r.kind == k).count();
    assert_eq!(count(CommKindTag::Irecv), 80);
    assert_eq!(count(CommKindTag::Send), 80);
    assert_eq!(count(CommKindTag::Wait), 80);
}

#[test]
fn network_presets_differ() {
    let mut pb = ProgramBuilder::new("np");
    let main = pb.declare("main", "n.c");
    pb.define(main, |f| {
        f.loop_("it", c(200.0), |b| {
            b.sendrecv(
                (rank() + 1.0).rem(nranks()),
                (rank() + nranks() - 1.0).rem(nranks()),
                c(64_000.0),
                3,
            );
        });
    });
    let prog = pb.build(main);
    let mut gorgon = RunConfig::new(4);
    gorgon.network = simrt::NetworkModel::gorgon();
    let mut tianhe = RunConfig::new(4);
    tianhe.network = simrt::NetworkModel::tianhe2a();
    let tg = simulate(&prog, &gorgon).unwrap().total_time;
    let tt = simulate(&prog, &tianhe).unwrap().total_time;
    assert_ne!(tg, tt);
    assert!(tt < tg, "Tianhe-2A model is faster: {tt} vs {tg}");
}

#[test]
fn run_summary_aggregates_consistently() {
    let mut pb = ProgramBuilder::new("sum");
    let main = pb.declare("main", "s.c");
    pb.define(main, |f| {
        f.loop_("it", c(60.0), |b| {
            b.compute("work", (rank() + 1.0) * c(150.0));
            b.allreduce(c(16.0));
        });
    });
    let prog = pb.build(main);
    let data = simulate(&prog, &RunConfig::new(4)).unwrap();
    let s = data.summary();
    assert_eq!(s.makespan_us, data.total_time);
    assert!((s.aggregate_us - data.elapsed.iter().sum::<f64>()).abs() < 1e-9);
    assert!(s.comm_us >= s.comm_wait_us);
    assert!(s.comm_wait_us > 0.0, "imbalance must produce waits");
    assert!(s.efficiency > 0.0 && s.efficiency < 1.0);
    // One kind present: the allreduce.
    assert_eq!(s.per_kind.len(), 1);
    assert_eq!(s.per_kind[0].0, CommKindTag::Allreduce);
    assert_eq!(s.per_kind[0].1, 240); // 60 iters × 4 ranks
    assert!(s.render().contains("MPI_Allreduce"));
}

/// A zeusmp-style mixed workload: noisy compute, a nonblocking halo ring,
/// a rendezvous exchange and collectives — enough machinery to exercise
/// every matcher path.
fn mixed_workload() -> progmodel::Program {
    let mut pb = ProgramBuilder::new("mixed");
    let main = pb.declare("main", "m.c");
    pb.define(main, |f| {
        f.loop_("step", c(12.0), |b| {
            b.compute("stencil", c(400.0) * progmodel::noise(0.3, 1));
            b.irecv((rank() + nranks() - 1.0).rem(nranks()), c(2048.0), 0);
            b.isend((rank() + 1.0).rem(nranks()), c(2048.0), 0);
            b.waitall();
            b.branch(
                "exchange",
                rank().rem(2.0).eq(0.0),
                |s| {
                    s.send((rank() + 1.0).rem(nranks()), c(65536.0), 1);
                },
                |r| {
                    r.recv((rank() + nranks() - 1.0).rem(nranks()), c(65536.0), 1);
                },
            );
            b.allreduce(c(64.0));
        });
    });
    pb.build(main)
}

#[test]
fn parallel_simulation_is_bit_identical_to_serial() {
    let prog = mixed_workload();
    let base = RunConfig::new(8).with_seed(42).with_slow_rank(3, 1.7);
    let serial = simulate(&prog, &base.clone().with_sim_workers(1)).unwrap();
    for workers in [2, 4, 8] {
        let par = simulate(&prog, &base.clone().with_sim_workers(workers)).unwrap();
        assert_eq!(
            serial.digest(),
            par.digest(),
            "serial vs {workers}-worker RunData diverged"
        );
        assert_eq!(serial.elapsed, par.elapsed);
        assert_eq!(serial.total_time, par.total_time);
        assert_eq!(serial.comm_records.len(), par.comm_records.len());
        assert_eq!(serial.msg_edges.len(), par.msg_edges.len());
        assert_eq!(serial.samples, par.samples);
    }
}

#[test]
fn parallel_bit_identity_survives_fault_injection() {
    // Crash + message drops + sample loss + PMU corruption all at once:
    // every fault stream must replay identically on the worker pool.
    let prog = mixed_workload();
    let base = RunConfig::new(8).with_seed(7).with_faults(
        simrt::FaultPlan::new()
            .crash_rank(5, 2000.0)
            .with_message_drop(0.1, 500.0)
            .with_sample_loss(0.2)
            .with_pmu_corruption(0.1),
    );
    let serial = simulate(&prog, &base.clone().with_sim_workers(1)).unwrap();
    let par = simulate(&prog, &base.clone().with_sim_workers(4)).unwrap();
    assert_eq!(serial.digest(), par.digest(), "faulted run diverged");
    assert_eq!(serial.rank_status, par.rank_status);
    assert_eq!(serial.retransmits, par.retransmits);
    assert_eq!(serial.dropped_samples, par.dropped_samples);
    assert_eq!(serial.pmu_corrupted, par.pmu_corrupted);
    assert!(serial.retransmits > 0, "drop rate must actually fire");
    assert!(
        matches!(serial.rank_status[5], simrt::RankStatus::Crashed { .. }),
        "rank 5 must be recorded as crashed"
    );
}

#[test]
fn digest_distinguishes_different_runs() {
    let prog = mixed_workload();
    let a = simulate(&prog, &RunConfig::new(4).with_seed(1)).unwrap();
    let b = simulate(&prog, &RunConfig::new(4).with_seed(2)).unwrap();
    assert_ne!(a.digest(), b.digest(), "different seeds, same digest");
    let again = simulate(&prog, &RunConfig::new(4).with_seed(1)).unwrap();
    assert_eq!(a.digest(), again.digest(), "same run must re-digest equal");
}

/// `nthreads()` is the run's thread count outside a region and the
/// region's own inside one, so lowering the program against the run must
/// leave it alone.
#[test]
fn region_thread_count_overrides_the_configured_one() {
    let mut pb = ProgramBuilder::new("nthreads");
    let main = pb.declare("main", "nt.c");
    pb.define(main, |f| {
        f.compute("outer", c(10.0) * nthreads());
        f.thread_region(c(2.0), |r| r.compute("two", c(100.0) * nthreads()));
        f.thread_region(nthreads(), |r| r.compute("all", c(100.0) * nthreads()));
    });
    let prog = pb.build(main);
    let cfg = RunConfig::new(1)
        .with_threads(8)
        .with_collection(CollectionConfig::off());
    let data = simulate(&prog, &cfg).unwrap();
    assert_eq!(data.elapsed[0], 10.0 * 8.0 + 100.0 * 2.0 + 100.0 * 8.0);
}
