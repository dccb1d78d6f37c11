//! # Program-model IR
//!
//! PerFlow's hybrid static-dynamic module consumes *executable binaries*
//! (via Dyninst) and runs them under MPI. This reproduction cannot
//! instrument real binaries, so the program model is the substitute
//! substrate (see DESIGN.md §2): a structured IR describing a parallel
//! program — functions, loops, branches, calls, compute kernels, MPI-like
//! communication, OpenMP-like thread regions, locks and allocator calls —
//! rich enough that
//!
//! * *static analysis* can extract exactly what Dyninst provides (control
//!   flow, call relations, loop nests, debug info, unresolved indirect
//!   calls), and
//! * the *simulator* (`simrt`) can execute it with per-rank virtual
//!   clocks, producing samples, PMU estimates and communication events.
//!
//! Costs and shapes are [`expr::Expr`] expressions over rank, thread,
//! iteration, scale parameters and deterministic noise, so one model
//! describes a whole family of runs (any process count, any input class).

pub mod analysis;
pub mod builder;
pub mod expr;
pub mod program;

pub use analysis::{call_graph, dead_functions};
pub use builder::{FuncBuilder, ProgramBuilder};
pub use expr::{c, iter, noise, nranks, nthreads, param, rank, thread, EvalCtx, Expr};
pub use program::{
    CallTarget, CommOp, FuncId, Function, LockId, PmuSpec, Program, Stmt, StmtId, StmtKind,
};
