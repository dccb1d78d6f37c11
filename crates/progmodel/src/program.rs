//! The program IR: functions, statements and communication operations.

use std::collections::HashMap;
use std::sync::Arc;

use crate::expr::Expr;

/// Identifier of a function within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// Program-wide unique identifier of a statement (stable across runs; the
/// "address" the sampler reports and static analysis keys on).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StmtId(pub u32);

/// Identifier of a lock object shared across threads of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LockId(pub u32);

/// PMU behaviour of a compute kernel: the synthetic stand-in for PAPI
/// counters (DESIGN.md §2).
#[derive(Debug, Clone, Copy)]
pub struct PmuSpec {
    /// Instructions retired per simulated microsecond of kernel time.
    pub instr_per_us: f64,
    /// Cache misses per thousand instructions.
    pub miss_per_kinstr: f64,
}

impl Default for PmuSpec {
    fn default() -> Self {
        // ~2 GHz with IPC 1 → 2000 instructions/µs; moderate locality.
        PmuSpec {
            instr_per_us: 2000.0,
            miss_per_kinstr: 1.5,
        }
    }
}

/// Call target: static (resolved at "link time") or indirect (resolved
/// only when executed — the cases static analysis must mark for runtime
/// fill-in, §3.2).
#[derive(Debug, Clone)]
pub enum CallTarget {
    /// Direct call to a program function.
    Static(FuncId),
    /// Indirect call; `selector` evaluates to an index into `candidates`.
    Indirect {
        /// Possible targets.
        candidates: Vec<FuncId>,
        /// Expression choosing the target at runtime.
        selector: Expr,
    },
}

/// An MPI-like communication operation.
#[derive(Debug, Clone)]
pub enum CommOp {
    /// Blocking send (rendezvous above the eager threshold).
    Send {
        /// Destination rank.
        peer: Expr,
        /// Message size in bytes.
        bytes: Expr,
        /// Message tag.
        tag: u32,
    },
    /// Blocking receive.
    Recv {
        /// Source rank.
        peer: Expr,
        /// Message size in bytes.
        bytes: Expr,
        /// Message tag.
        tag: u32,
    },
    /// Non-blocking send; completion is observed by `Wait`/`Waitall`.
    Isend {
        /// Destination rank.
        peer: Expr,
        /// Message size in bytes.
        bytes: Expr,
        /// Message tag.
        tag: u32,
    },
    /// Non-blocking receive; completion is observed by `Wait`/`Waitall`.
    Irecv {
        /// Source rank.
        peer: Expr,
        /// Message size in bytes.
        bytes: Expr,
        /// Message tag.
        tag: u32,
    },
    /// Wait for the `n`-th most recent outstanding request (0 = most
    /// recent).
    Wait {
        /// Index into the outstanding-request stack.
        back: u32,
    },
    /// Wait for all outstanding requests of this rank.
    Waitall,
    /// Barrier across all ranks.
    Barrier,
    /// Broadcast from `root`.
    Bcast {
        /// Root rank.
        root: Expr,
        /// Payload bytes.
        bytes: Expr,
    },
    /// Reduce to `root`.
    Reduce {
        /// Root rank.
        root: Expr,
        /// Payload bytes.
        bytes: Expr,
    },
    /// Allreduce across all ranks.
    Allreduce {
        /// Payload bytes.
        bytes: Expr,
    },
    /// All-to-all personalized exchange.
    Alltoall {
        /// Per-peer payload bytes.
        bytes: Expr,
    },
}

impl CommOp {
    /// The MPI-style function name reported for this operation.
    pub fn mpi_name(&self) -> &'static str {
        match self {
            CommOp::Send { .. } => "MPI_Send",
            CommOp::Recv { .. } => "MPI_Recv",
            CommOp::Isend { .. } => "MPI_Isend",
            CommOp::Irecv { .. } => "MPI_Irecv",
            CommOp::Wait { .. } => "MPI_Wait",
            CommOp::Waitall => "MPI_Waitall",
            CommOp::Barrier => "MPI_Barrier",
            CommOp::Bcast { .. } => "MPI_Bcast",
            CommOp::Reduce { .. } => "MPI_Reduce",
            CommOp::Allreduce { .. } => "MPI_Allreduce",
            CommOp::Alltoall { .. } => "MPI_Alltoall",
        }
    }

    /// True for collective operations.
    pub fn is_collective(&self) -> bool {
        matches!(
            self,
            CommOp::Barrier
                | CommOp::Bcast { .. }
                | CommOp::Reduce { .. }
                | CommOp::Allreduce { .. }
                | CommOp::Alltoall { .. }
        )
    }
}

/// One statement in a function body.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// Program-wide unique id.
    pub id: StmtId,
    /// Source line within the containing function's file.
    pub line: u32,
    /// Statement payload.
    pub kind: StmtKind,
}

/// The statement payload.
#[derive(Debug, Clone)]
pub enum StmtKind {
    /// Straight-line compute kernel costing `cost_us` simulated µs.
    Compute {
        /// Kernel name (appears as a PAG vertex).
        name: Arc<str>,
        /// Cost in simulated microseconds.
        cost_us: Expr,
        /// PMU behaviour.
        pmu: PmuSpec,
    },
    /// Counted loop.
    Loop {
        /// Loop name (`loop_1`, `loop_10.1`, …).
        name: Arc<str>,
        /// Trip count.
        trips: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// Two-armed branch.
    Branch {
        /// Branch name.
        name: Arc<str>,
        /// Condition; non-zero takes `then_body`.
        cond: Expr,
        /// Taken arm.
        then_body: Vec<Stmt>,
        /// Fallthrough arm.
        else_body: Vec<Stmt>,
    },
    /// Function call.
    Call {
        /// Callee.
        target: CallTarget,
    },
    /// Communication operation.
    Comm(CommOp),
    /// OpenMP-like fork-join region with `threads` threads executing the
    /// body (thread index available as `thread()` in expressions).
    ThreadRegion {
        /// Thread count.
        threads: Expr,
        /// Per-thread body.
        body: Vec<Stmt>,
    },
    /// Acquire `lock`, hold it for `hold_us`, release. Models critical
    /// sections and (with [`Program::alloc_lock`]) allocator serialization.
    Lock {
        /// Display name (`allocate`, `critical`, …).
        name: Arc<str>,
        /// The contended lock object.
        lock: LockId,
        /// Hold time in simulated µs.
        hold_us: Expr,
    },
}

/// A function definition.
#[derive(Debug, Clone)]
pub struct Function {
    /// Function id (index into [`Program::functions`]).
    pub id: FuncId,
    /// Function name.
    pub name: Arc<str>,
    /// Source file (debug info).
    pub file: Arc<str>,
    /// First source line.
    pub line: u32,
    /// Statement body.
    pub body: Vec<Stmt>,
}

/// A complete program model — the substitute for an executable binary.
#[derive(Debug, Clone)]
pub struct Program {
    /// Program name.
    pub name: String,
    /// All functions; `FuncId` indexes this vector.
    pub functions: Vec<Function>,
    /// Entry function.
    pub entry: FuncId,
    /// Source size in thousands of lines (metadata reported in Table 2).
    pub kloc: f64,
    /// Simulated binary size in bytes (metadata reported in Table 2).
    pub binary_bytes: u64,
    /// Default scale parameters (overridable per run).
    pub default_params: HashMap<String, f64>,
    /// Number of statements (cached; `StmtId` space is `0..stmt_count`).
    pub stmt_count: u32,
}

impl Program {
    /// Look up a function.
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.0 as usize]
    }

    /// Find a function by name.
    pub fn find_function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name.as_ref() == name)
    }

    /// The designated allocator lock: thread-unsafe memory allocation is
    /// modeled as a critical section on this lock (Vite case study, §5.5).
    pub fn alloc_lock() -> LockId {
        LockId(u32::MAX)
    }

    /// Visit every statement (depth-first, in source order) with its
    /// containing function.
    pub fn visit_stmts<'a>(&'a self, mut f: impl FnMut(&'a Function, &'a Stmt)) {
        fn walk<'a>(
            func: &'a Function,
            stmts: &'a [Stmt],
            f: &mut impl FnMut(&'a Function, &'a Stmt),
        ) {
            for s in stmts {
                f(func, s);
                match &s.kind {
                    StmtKind::Loop { body, .. } | StmtKind::ThreadRegion { body, .. } => {
                        walk(func, body, f)
                    }
                    StmtKind::Branch {
                        then_body,
                        else_body,
                        ..
                    } => {
                        walk(func, then_body, f);
                        walk(func, else_body, f);
                    }
                    _ => {}
                }
            }
        }
        for func in &self.functions {
            walk(func, &func.body, &mut f);
        }
    }

    /// The program lowered against one run: every expression replaced by
    /// its [`Expr::bind`]. Statement ids, order and names are unchanged,
    /// so executing the bound program is indistinguishable from executing
    /// `self` under `params` on `nranks` ranks.
    pub fn bind(&self, params: &HashMap<String, f64>, nranks: u32) -> Program {
        fn walk(stmts: &mut [Stmt], f: &impl Fn(&mut Expr)) {
            for s in stmts {
                match &mut s.kind {
                    StmtKind::Compute { cost_us: e, .. } | StmtKind::Lock { hold_us: e, .. } => {
                        f(e)
                    }
                    StmtKind::Loop { trips: e, body, .. }
                    | StmtKind::ThreadRegion { threads: e, body } => {
                        f(e);
                        walk(body, f);
                    }
                    StmtKind::Branch {
                        cond,
                        then_body,
                        else_body,
                        ..
                    } => {
                        f(cond);
                        walk(then_body, f);
                        walk(else_body, f);
                    }
                    StmtKind::Call { target } => {
                        if let CallTarget::Indirect { selector, .. } = target {
                            f(selector);
                        }
                    }
                    StmtKind::Comm(op) => match op {
                        CommOp::Send { peer: a, bytes, .. }
                        | CommOp::Recv { peer: a, bytes, .. }
                        | CommOp::Isend { peer: a, bytes, .. }
                        | CommOp::Irecv { peer: a, bytes, .. }
                        | CommOp::Bcast { root: a, bytes }
                        | CommOp::Reduce { root: a, bytes } => {
                            f(a);
                            f(bytes);
                        }
                        CommOp::Allreduce { bytes } | CommOp::Alltoall { bytes } => f(bytes),
                        CommOp::Wait { .. } | CommOp::Waitall | CommOp::Barrier => {}
                    },
                }
            }
        }
        let mut bound = self.clone();
        for func in &mut bound.functions {
            walk(&mut func.body, &|e| *e = e.bind(params, nranks));
        }
        bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::expr::c;

    #[test]
    fn comm_names() {
        assert_eq!(CommOp::Waitall.mpi_name(), "MPI_Waitall");
        assert_eq!(
            CommOp::Allreduce { bytes: c(8.0) }.mpi_name(),
            "MPI_Allreduce"
        );
        assert!(CommOp::Barrier.is_collective());
        assert!(!CommOp::Wait { back: 0 }.is_collective());
    }

    #[test]
    fn visit_walks_nested_structures() {
        let mut pb = ProgramBuilder::new("t");
        let main = pb.declare("main", "t.c");
        pb.define(main, |f| {
            f.compute("a", c(1.0));
            f.loop_("l", c(3.0), |b| {
                b.compute("inner", c(1.0));
                b.branch(
                    "br",
                    c(1.0),
                    |t| t.compute("then", c(1.0)),
                    |e| {
                        e.compute("else", c(1.0));
                    },
                );
            });
        });
        let p = pb.build(main);
        let mut names = Vec::new();
        p.visit_stmts(|_, s| {
            if let StmtKind::Compute { name, .. } = &s.kind {
                names.push(name.to_string());
            }
        });
        assert_eq!(names, vec!["a", "inner", "then", "else"]);
    }
}
