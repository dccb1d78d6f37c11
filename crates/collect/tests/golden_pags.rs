//! PAG encodings pinned across commits. `outputs_are_bit_identical_at_any_worker_count`
//! compares worker counts *within one build*; these digests fix the bytes
//! themselves, so a change to vertex allocation order, `child_map`
//! contents, embedded metrics or the parallel view's flow order fails
//! here even when every worker count agrees with every other.

use collect::static_pag::{expand_dynamic_call, StaticPag};
use collect::{build_parallel_view, profile, static_analysis};
use obs::Fnv;
use pag::{CallKind, VertexLabel};
use progmodel::{c, rank, Expr, Program, ProgramBuilder};
use simrt::{CtxFrame, FaultPlan, RunConfig};

/// Digest of the skeleton's encoding plus its `child_map`, folded in
/// sorted key order with each frame as `(tag, id)`.
fn skeleton_digest(sp: &StaticPag) -> u64 {
    let mut h = Fnv::new();
    h.write(&pag::serialize::encode(&sp.pag));
    let mut entries: Vec<_> = sp
        .child_map
        .iter()
        .map(|(&(parent, frame), &child)| {
            let (tag, id) = match frame {
                CtxFrame::Func(f) => (0u64, f.0),
                CtxFrame::Stmt(s) => (1u64, s.0),
            };
            (parent.0, tag, id, child.0)
        })
        .collect();
    entries.sort_unstable();
    for (parent, tag, id, child) in entries {
        h.u64(parent as u64);
        h.u64(tag);
        h.u64(id as u64);
        h.u64(child as u64);
    }
    h.finish()
}

fn bytes_digest(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.finish()
}

/// `(top-down, parallel view)` encoding digests of a profiled run.
fn run_digests(prog: &Program, cfg: &RunConfig) -> (u64, u64) {
    let run = profile(prog, cfg).unwrap();
    (
        bytes_digest(&pag::serialize::encode(&run.pag)),
        bytes_digest(&pag::serialize::encode(&build_parallel_view(&run))),
    )
}

/// An indirect call with two candidates (picked by rank parity), one of
/// which reaches a function that recurses once at runtime past the
/// static cut, under a branch.
fn dynamic_fixture() -> Program {
    let mut pb = ProgramBuilder::new("dynfix");
    let main = pb.declare("main", "d.c");
    let fa = pb.declare("fa", "d.c");
    let fb = pb.declare("fb", "d.c");
    let rec = pb.declare("rec", "d.c");
    pb.define(rec, |f| {
        f.loop_("depth", c(1.0), |b| {
            b.branch(
                "more",
                Expr::IterUp(1).eq(1.0),
                |t| t.call(rec),
                |e| e.compute("rec_leaf", c(40_000.0)),
            );
        });
    });
    pb.define(fa, |f| f.compute("ka", c(30_000.0)));
    pb.define(fb, |f| {
        f.compute("kb", c(20_000.0));
        f.call(rec);
    });
    pb.define(main, |f| {
        f.loop_("outer", c(2.0), |b| {
            b.call_indirect(vec![fa, fb], rank().rem(c(2.0)));
            b.branch(
                "tail",
                rank().lt(1.0),
                |t| t.call(rec),
                |e| e.compute("tail_k", c(10_000.0)),
            );
            b.allreduce(c(8.0));
        });
    });
    pb.build(main)
}

fn check(name: &str, got: u64, want: u64) -> bool {
    if got != want {
        eprintln!("{name}: got 0x{got:016x}, pinned 0x{want:016x}");
    }
    got == want
}

#[test]
fn static_skeletons_are_pinned() {
    let mut progs = workloads::all_programs();
    progs.extend([
        workloads::zeusmp_fixed(),
        workloads::lammps_balanced(),
        workloads::vite_optimized(),
        dynamic_fixture(),
    ]);
    let want = [
        0xc07d80c40eec6464,
        0x5fcdebc7597a3a64,
        0x6b11d64951d7fe2a,
        0xf1b4c423d6f3ff94,
        0xe5111fa44a8516e8,
        0xc544c7ad61dc9601,
        0x06a06cfa8573d7de,
        0xbdc81c4c2b7c76c8,
        0x36ed7159ce18e4ba,
        0x19a9fccafaf90e8c,
        0xf5df5cd4d8e352a3,
        0x1d9be90956d54121,
        0x003743297b8d83ea,
        0x0b11ac9917b478a8,
        0x8fb35db73381d2df,
    ];
    assert_eq!(progs.len(), want.len());
    let mut ok = true;
    for (prog, &pinned) in progs.iter().zip(&want) {
        ok &= check(&prog.name, skeleton_digest(&static_analysis(prog)), pinned);
    }
    assert!(ok, "skeleton digests moved (see stderr)");
}

#[test]
fn dynamic_fill_in_is_pinned() {
    let prog = dynamic_fixture();
    let mut sp = static_analysis(&prog);
    let call = sp.pag.find_by_label(VertexLabel::Call(CallKind::Indirect))[0];
    for name in ["fb", "fa"] {
        let fid = prog.functions.iter().position(|f| f.name.as_ref() == name);
        expand_dynamic_call(&mut sp, &prog, call, progmodel::FuncId(fid.unwrap() as u32));
    }
    assert!(check("expanded", skeleton_digest(&sp), 0x2c8774365c73a601));
}

#[test]
fn profiled_views_are_pinned() {
    let zeusmp_faults = FaultPlan::new()
        .crash_rank(5, 10_000.0)
        .with_sample_loss(0.1);
    let cases = [
        (
            "cg@16",
            workloads::cg(),
            RunConfig::new(16),
            (0xb7a2734cb995301c, 0xd8c1ace61eae4d93),
        ),
        (
            "lammps@8",
            workloads::lammps(),
            RunConfig::new(8),
            (0xa0487a600b50792a, 0x54871aba561972f5),
        ),
        (
            "vite@4x4",
            workloads::vite(),
            RunConfig::new(4).with_threads(4),
            (0x799709703e0653c3, 0xd36a5a75ee2a8377),
        ),
        (
            "zeusmp@16+faults",
            workloads::zeusmp(),
            RunConfig::new(16).with_faults(zeusmp_faults),
            (0x8731037e8340ba74, 0xbcd30927cba41995),
        ),
        (
            "dynfix@4",
            dynamic_fixture(),
            RunConfig::new(4),
            (0x2249675eb065a45e, 0xe2b09d2f5e505336),
        ),
    ];
    let mut ok = true;
    for (name, prog, cfg, (td, pv)) in &cases {
        let (got_td, got_pv) = run_digests(prog, cfg);
        ok &= check(&format!("{name} top-down"), got_td, *td);
        ok &= check(&format!("{name} parallel"), got_pv, *pv);
    }
    assert!(ok, "profiled PAG digests moved (see stderr)");
}

#[test]
fn dynamic_fixture_exercises_fill_in_and_runtime_recursion() {
    let prog = dynamic_fixture();
    let run = profile(&prog, &RunConfig::new(4)).unwrap();
    // Both candidates were observed and expanded under the indirect call.
    let call = run.pag.find_by_label(VertexLabel::Call(CallKind::Indirect))[0];
    assert_eq!(run.pag.out_degree(call), 2);
    assert_eq!(run.pag.find_by_name("ka").len(), 1);
    // The runtime recursion clamps onto a recursive call vertex that
    // carries sampled time.
    let rec_time: f64 = run
        .pag
        .find_by_label(VertexLabel::Call(CallKind::Recursive))
        .into_iter()
        .map(|v| run.pag.vertex_time(v))
        .sum();
    assert!(rec_time > 0.0, "no time under a recursive call vertex");
}
