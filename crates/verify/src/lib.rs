//! # `verify` — static analysis for PerFlow programs and PAGs
//!
//! Analysis tasks in PerFlow are *programs*: PerFlowGraphs of passes
//! operating over Program Abstraction Graphs. Programs deserve static
//! analysis, and this crate provides it — correctness tooling in the
//! spirit of ScalAna's graph-contract checking — behind one deterministic
//! diagnostics framework ([`Diagnostics`]):
//!
//! * **PerFlowGraph lint** ([`lint_graph`]) analyzes the *structure* of a
//!   dataflow graph without executing it: cycle localization that names
//!   the offending node ring, input-arity and port-contiguity checks,
//!   unreachable-pass / unused-output / missing-entry detection,
//!   duplicate node names, and cache-effectiveness advice for passes
//!   lacking a content fingerprint. The engine runs it as a pre-flight
//!   gate before every execution.
//! * **PAG invariant checker** ([`check_pag`]) verifies a constructed
//!   Program Abstraction Graph: the top-down view's tree invariant
//!   (`|E| = |V| - 1`, designated root, root-reachability — the Table 2
//!   property), endpoint sanity, edge-label legality per view, a
//!   non-negative/NaN metric audit, and completeness-metadata
//!   consistency from the fault-injection path.
//! * **Program-model lint** ([`lint_program`]) warns about dead
//!   (entry-unreachable) functions in a [`progmodel::Program`].
//! * **Query semantic analysis** ([`lint_query`]) type-checks a parsed
//!   [`query::Query`] against a [`query::Schema`] before anything
//!   executes: unknown metric/field names with nearest-key suggestions,
//!   scalar/vector/string type mismatches, predicates over columns
//!   provably absent in the target view, NaN-unsafe orderings,
//!   and contradictory (provably-empty) filter chains (the PF03xx
//!   family).
//!
//! Every diagnostic carries a stable code (`PF0001`, …), a severity, and
//! a source anchor (graph node, PAG vertex/edge, or function); emission
//! order is fully deterministic (sorted by code, anchor, message) and
//! renders both as human-readable text and machine-readable JSON.
//!
//! The crate deliberately depends only on `pag`, `query`, `progmodel`,
//! `graphalgo` (for its SCC search) and the zero-dependency `obs` (for
//! the JSON document type):
//! the dataflow engine hands it a plain structural snapshot
//! ([`GraphShape`]), so `core` can depend on `verify` without a cycle.

pub mod diag;
pub mod graph;
pub mod pag_check;
pub mod program_lint;
pub mod query_lint;

pub use diag::{Anchor, Diagnostic, Diagnostics, Severity};
pub use graph::{lint_graph, GraphShape, NodeShape, WireShape};
pub use pag_check::check_pag;
pub use program_lint::lint_program;
pub use query_lint::{lint_query, lint_query_text};

/// Stable diagnostic codes emitted by the analyzers in this crate.
///
/// `PF00xx` — PerFlowGraph lint; `PF01xx` — PAG invariant checker;
/// `PF02xx` — program-model lint. Codes are part of the public contract:
/// tools may match on them, so they are never renumbered.
pub mod codes {
    /// Data-flow cycle through the named node ring (error).
    pub const CYCLE: &str = "PF0001";
    /// An input port required by a pass's arity has no producer (error).
    pub const MISSING_INPUT: &str = "PF0002";
    /// Input ports are not contiguous from 0 (error).
    pub const PORT_GAP: &str = "PF0003";
    /// Two wires feed the same input port (error).
    pub const DUPLICATE_INPUT: &str = "PF0004";
    /// A wire references a node id outside the graph (error).
    pub const BAD_NODE_REF: &str = "PF0005";
    /// Non-empty graph with no entry node at all (error).
    pub const NO_ENTRY: &str = "PF0006";
    /// Pass unreachable from every entry node (warning).
    pub const UNREACHABLE: &str = "PF0007";
    /// Two non-source nodes share a display name (warning).
    pub const DUPLICATE_NAME: &str = "PF0008";
    /// A non-report node's outputs are never consumed (info).
    pub const UNUSED_OUTPUT: &str = "PF0009";
    /// Pass lacks a content fingerprint, so its results are never
    /// cached or checkpointed (warning). `PF0011` is retired (it repeated
    /// this finding for checkpointed runs); the number is not reused.
    pub const NO_FINGERPRINT: &str = "PF0010";

    /// Edge endpoint out of the vertex range (error).
    pub const DANGLING_EDGE: &str = "PF0101";
    /// Non-empty top-down PAG without a designated root (error).
    pub const NO_ROOT: &str = "PF0102";
    /// Top-down tree invariant `|E| = |V| - 1` violated (error).
    pub const TREE_VIOLATION: &str = "PF0103";
    /// Vertices unreachable from the designated root (error).
    pub const UNROOTED_VERTEX: &str = "PF0104";
    /// Inter-process/inter-thread edge in the top-down view (error).
    pub const ILLEGAL_EDGE_LABEL: &str = "PF0105";
    /// Negative, NaN, or infinite value in an audited metric (warning).
    pub const BAD_METRIC: &str = "PF0106";
    /// Completeness value outside `[0, 1]` or not finite (warning).
    pub const BAD_COMPLETENESS: &str = "PF0107";
    /// Per-process completeness vector length ≠ `num_procs` (warning).
    pub const COMPLETENESS_SHAPE: &str = "PF0108";
    /// Observation was truncated: the span cap was hit and spans were
    /// dropped, so the PAG is knowingly incomplete (info).
    pub const TRUNCATED_OBSERVATION: &str = "PF0110";
    /// Columnar store: a scalar column's presence bitmap disagrees with
    /// its value count (error).
    pub const PRESENCE_SHAPE: &str = "PF0111";
    /// Columnar store: a column exists for a `KeyId` the key table never
    /// interned (error).
    pub const UNKNOWN_COLUMN_KEY: &str = "PF0112";

    /// Function unreachable from the program entry (warning).
    pub const DEAD_FUNCTION: &str = "PF0201";

    /// Query does not parse (error).
    pub const QUERY_SYNTAX: &str = "PF0300";
    /// Query references a metric/field no view defines (error).
    pub const QUERY_UNKNOWN_FIELD: &str = "PF0301";
    /// Query applies an operation to a value of the wrong type (error).
    pub const QUERY_TYPE_MISMATCH: &str = "PF0302";
    /// Query reads a column provably absent in its target view (error).
    pub const QUERY_ABSENT_COLUMN: &str = "PF0303";
    /// Sort over a NaN-capable metric without an explicit `nan_last` /
    /// `nan_first` policy (warning; execution defaults to
    /// `pag::ord::desc_nan_last` semantics).
    pub const QUERY_NAN_ORDER: &str = "PF0304";
    /// Filter chain is provably empty — contradictory predicates or
    /// `top 0` (error).
    pub const QUERY_EMPTY_RESULT: &str = "PF0305";

    // PF04xx — bench-diff regression watchdog (`driver::bench_diff`).

    /// A pass present in both snapshots slowed down past the threshold
    /// (error; drives the CLI's non-zero exit).
    pub const BENCH_REGRESSED: &str = "PF0401";
    /// A pass in the baseline is missing from the current snapshot
    /// (warning — a silently dropped measurement hides regressions).
    pub const BENCH_MISSING_PASS: &str = "PF0402";
    /// A pass sped up past the threshold (info).
    pub const BENCH_IMPROVED: &str = "PF0403";
    /// A pass appears only in the current snapshot (info).
    pub const BENCH_NEW_PASS: &str = "PF0404";
    /// A baseline measurement is unusable — NaN, negative, or zero with
    /// a nonzero current value — so no ratio can be formed (warning).
    pub const BENCH_BAD_BASELINE: &str = "PF0405";
}
