//! # Comparator tools (§5.3's comparison targets)
//!
//! Reimplementations of the four state-of-the-art tools PerFlow is
//! compared against, all running on the shared simulator substrate so the
//! comparison axes of the paper — what each tool reports, and what it
//! costs — are reproducible:
//!
//! * [`mpip`] — a lightweight PMPI-wrapper statistical profiler: per
//!   call-site communication statistics, no analysis.
//! * [`hpctoolkit`] — a sampling profiler with calling-context
//!   attribution: a two-run scaling-loss ranking (its `hpcprof`
//!   differential mode).
//! * [`scalasca`] — a tracing tool: full event traces, automatic
//!   wait-state classification (Late Sender, Wait at Collective), and the
//!   measured overhead/storage that tracing costs.
//! * [`scalana`] — a monolithic scaling-loss detector (differential +
//!   imbalance + backtracking hard-wired together). Functionally
//!   equivalent to PerFlow's scalability paradigm but written as one
//!   special-purpose analyzer — the LoC comparison of §5.3 measures
//!   exactly this contrast.

pub mod hpctoolkit;
pub mod mpip;
pub mod scalana;
pub mod scalasca;

pub use hpctoolkit::{hpctoolkit_scaling, HpcToolkitReport};
pub use mpip::{mpip_profile, MpipReport};
pub use scalana::{scalana_analyze, ScalAnaReport};
pub use scalasca::{scalasca_trace, ScalascaReport, WaitState};
