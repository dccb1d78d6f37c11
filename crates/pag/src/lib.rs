//! # Program Abstraction Graph (PAG)
//!
//! A PAG is a weighted directed property graph representing the performance
//! of one execution of a parallel program (PerFlow, PPoPP'22, §3).
//!
//! * **Vertices** represent code snippets or control structures — functions,
//!   calls, loops, branches, compute regions — and carry *labels* (their
//!   kind) and *properties* (performance data: execution time, PMU counters,
//!   communication info, debug info, per-process time vectors, …).
//! * **Edges** represent relationships between snippets and carry labels:
//!   *intra-procedural* (control flow), *inter-procedural* (call
//!   relationships), *inter-thread* (lock/data dependence across threads)
//!   and *inter-process* (communication between ranks).
//!
//! Two views are supported (§3.4):
//!
//! * the **top-down view** contains only intra- and inter-procedural edges
//!   and aggregates performance data over all processes;
//! * the **parallel view** replicates the executed structure as one *flow*
//!   per process/thread and adds inter-process and inter-thread edges.
//!
//! The crate is self-contained: storage is adjacency lists over dense
//! vectors, numeric properties are columns keyed by interned ids, string
//! properties are small sorted per-vertex lists, and a compact hand-rolled
//! binary serialization measures the storage footprint of a PAG (the paper's
//! "space cost", Table 1).

pub mod dot;
pub mod graph;
pub mod ids;
pub mod label;
pub mod metric;
pub mod ord;
pub mod props;
pub mod serialize;
pub mod stats;

pub use dot::escape_dot;
pub use graph::{EdgeData, Pag, VertexData};
pub use ids::{EdgeId, ProcId, ThreadId, VertexId};
pub use label::{CallKind, CommKind, EdgeLabel, VertexLabel};
pub use metric::{ColumnFault, KeyId, KeyTable, MetricColumns, MetricKind, GLOBAL_KEYS};
pub use ord::{desc_nan_last, nan_smallest};
pub use props::{keys, PropValue};
pub use stats::VertexStats;

/// Typed ids for the well-known metric keys (columnar hot path); the
/// matching wire names live in [`props::keys`].
pub use metric::keys as mkeys;

/// Which view of the program a PAG instance represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViewKind {
    /// Structure-only view: intra-/inter-procedural edges, aggregated data.
    TopDown,
    /// Per-process/thread flows with inter-process and inter-thread edges.
    Parallel,
}

impl std::fmt::Display for ViewKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViewKind::TopDown => write!(f, "top-down"),
            ViewKind::Parallel => write!(f, "parallel"),
        }
    }
}
