//! # PerFlow — a dataflow framework for automatic performance analysis
//!
//! Rust reproduction of *PerFlow: A Domain Specific Framework for
//! Automatic Performance Analysis of Parallel Applications* (PPoPP'22).
//!
//! PerFlow abstracts the step-by-step process of performance analysis as
//! a **dataflow graph** (*PerFlowGraph*): vertices are analysis sub-tasks
//! (**passes**), edges carry **sets** of Program-Abstraction-Graph
//! vertices/edges between them. A built-in pass library (hotspot
//! detection, differential analysis, imbalance analysis, breakdown
//! analysis, causal analysis, contention detection, critical path,
//! backtracking) and pre-assembled **paradigms** (MPI profiler, critical
//! path, scalability analysis) cover common tasks; low-level graph /
//! set / algorithm APIs support user-defined passes.
//!
//! ## Two ways to use it
//!
//! **Direct (Listing 1 style)** — call passes as methods:
//!
//! ```
//! use perflow::graphref::RunHandleExt;
//! use perflow::PerFlow;
//! use progmodel::{c, rank, ProgramBuilder};
//! use simrt::RunConfig;
//!
//! let mut pb = ProgramBuilder::new("demo");
//! let main = pb.declare("main", "demo.c");
//! pb.define(main, |f| {
//!     f.compute("kernel", (rank() + 1.0) * c(2000.0));
//!     f.allreduce(c(64.0));
//! });
//! let prog = pb.build(main);
//!
//! let pflow = PerFlow::new();
//! let run = pflow.run(&prog, &RunConfig::new(4)).unwrap();
//! let v_comm = pflow.filter(&run.vertices(), "MPI_*");
//! let v_hot = pflow.hotspot_detection(&v_comm, 10);
//! let report = pflow.report(&[&v_hot], &["name", "comm-info", "debug-info", "time"]);
//! assert!(report.render().contains("MPI_Allreduce"));
//! ```
//!
//! **Dataflow (PerFlowGraph)** — assemble passes into an executable graph
//! with [`dataflow::PerFlowGraph`]; its passes run one at a time on the
//! calling thread, in topological order.

pub mod api;
pub mod builder;
pub mod cache;
pub mod dataflow;
pub mod error;
pub mod exec;
pub mod graphref;
pub mod interactive;
pub mod metrics;
pub mod paradigms;
pub mod pass;
pub mod passes;
pub mod query_exec;
pub mod report;
pub mod set;
pub mod value;

pub use api::PerFlow;
pub use builder::{GraphBuilder, NodeHandle, OutPort};
pub use cache::{CacheStats, PassCache};
pub use dataflow::{NodeId, PerFlowGraph};
pub use error::PerFlowError;
pub use exec::{ExecOptions, ExecPolicy, PassFailure};
pub use graphref::{GraphRef, RunBundle, RunHandle, RunHandleExt};
pub use interactive::{InteractiveSession, Suggestion};
pub use metrics::{PassMetric, RunMetrics};
pub use obs::{Layer, Obs};
pub use pag::{keys, mkeys, KeyId};
pub use paradigms::self_analysis::{self_analysis, SelfAnalysisResult};
pub use pass::{Pass, PassCx};
pub use query;
pub use query_exec::{execute_query, QueryOutput};
pub use report::Report;
pub use set::{EdgeSet, VertexSet};
pub use value::Value;
pub use verify;
pub use verify::{Anchor, Diagnostic, Diagnostics, Severity};
