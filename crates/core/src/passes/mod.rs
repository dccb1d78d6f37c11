//! The built-in performance-analysis pass library (§4.3).
//!
//! Each sub-module provides the analysis as a plain function (for the
//! direct API and for composition inside paradigms) plus a [`crate::Pass`]
//! wrapper for use inside PerFlowGraphs.

pub mod backtracking;
pub mod breakdown;
pub mod causal;
pub mod contention;
pub mod critical_path;
pub mod differential;
pub mod filter;
pub mod hotspot;
pub mod imbalance;
pub mod report_pass;
pub mod setops;
pub mod wait_state;

pub use backtracking::{backtracking, BacktrackingPass};
pub use breakdown::{breakdown, BreakdownPass};
pub use causal::{causal, CausalConfig, CausalPass};
pub use contention::{contention, default_contention_pattern, ContentionPass};
pub use critical_path::{critical_path_analysis, CriticalPathPass};
pub use differential::{differential, DifferentialPass};
pub use filter::FilterPass;
pub use hotspot::{hotspot, HotspotPass};
pub use imbalance::{imbalance, ImbalancePass};
pub use report_pass::{report_sets, ReportPass};
pub(crate) use setops::TopPass;
pub use setops::UnionPass;
pub use wait_state::{wait_states, WaitClass, WaitStatePass};
