//! # Graph algorithms over Program Abstraction Graphs
//!
//! PerFlow builds its performance-analysis passes out of "graph algorithms,
//! such as breadth-first search, subgraph matching, etc., on the PAGs"
//! (§2.1) plus "lowest common ancestor" for causal analysis (§4.3.2-C).
//! This crate provides those algorithms — plus critical-path extraction,
//! Tarjan strongly connected components and the graph difference used by
//! differential analysis — as standalone functions over [`pag::Pag`] so
//! both the built-in pass library and user-defined passes can reuse them.

pub mod components;
pub mod diff;
pub mod lca;
pub mod longest_path;
pub mod subgraph;
pub mod traverse;

pub use components::tarjan_sccs;
pub use diff::graph_difference_scaled;
pub use lca::{lca_bfs, LcaIndex};
pub use longest_path::{critical_path, CriticalPath};
pub use subgraph::{match_subgraph, Embedding, Pattern, PatternEdge, PatternVertex};
pub use traverse::{bfs_order, dfs_preorder, CycleError};
