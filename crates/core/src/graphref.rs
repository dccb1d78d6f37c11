//! Shared handles to analyzed runs and their PAG views.
//!
//! A PAG is "an environment of all passes in a PerFlowGraph" (§2.1): many
//! sets reference the same graph concurrently. [`RunBundle`] owns one
//! profiled run and lazily materializes its parallel view; [`GraphRef`]
//! is the cheap shared reference sets carry.

use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

use collect::{build_parallel_view, ProfiledRun};
use pag::{mkeys, Pag, VertexId};
use simrt::RunData;

use crate::set::VertexSet;

/// One profiled program run: the top-down PAG plus the lazily-built
/// parallel view.
#[derive(Debug)]
pub struct RunBundle {
    run: ProfiledRun,
    parallel: OnceLock<Pag>,
    content_digest: OnceLock<u64>,
}

/// Shared handle to a [`RunBundle`].
pub type RunHandle = Arc<RunBundle>;

impl RunBundle {
    /// Wrap a profiled run.
    pub fn new(run: ProfiledRun) -> RunHandle {
        Arc::new(RunBundle {
            run,
            parallel: OnceLock::new(),
            content_digest: OnceLock::new(),
        })
    }

    /// Content digest of the underlying run data
    /// ([`simrt::RunData::digest`], cached). Stable across processes for
    /// deterministic simulations — the identity checkpoint snapshots use
    /// to re-associate serialized sets with a resumed run.
    pub fn content_digest(&self) -> u64 {
        *self.content_digest.get_or_init(|| self.run.data.digest())
    }

    /// The profiled run (top-down PAG, raw run data, context maps).
    pub fn profiled(&self) -> &ProfiledRun {
        &self.run
    }

    /// The top-down view.
    pub fn topdown(&self) -> &Pag {
        &self.run.pag
    }

    /// The parallel view (built on first use).
    pub fn parallel(&self) -> &Pag {
        self.parallel.get_or_init(|| build_parallel_view(&self.run))
    }

    /// Raw run data.
    pub fn data(&self) -> &RunData {
        &self.run.data
    }

    /// Root vertex of the top-down view.
    pub fn root(&self) -> VertexId {
        self.run.root
    }
}

/// A reference to the graph a set lives on.
#[derive(Debug, Clone)]
pub enum GraphRef {
    /// The top-down view of a run.
    TopDown(RunHandle),
    /// The parallel view of a run.
    Parallel(RunHandle),
    /// A standalone graph (e.g. a difference graph).
    Detached(Arc<Pag>),
}

impl GraphRef {
    /// Access the underlying PAG.
    pub fn pag(&self) -> &Pag {
        match self {
            GraphRef::TopDown(b) => b.topdown(),
            GraphRef::Parallel(b) => b.parallel(),
            GraphRef::Detached(p) => p,
        }
    }

    /// A (view-tag, handle-address) pair identifying this graph instance
    /// — the identity `same_graph` compares, in hashable form. Used by
    /// value fingerprints: sets on the same handle get the same token.
    pub fn identity(&self) -> (u8, usize) {
        match self {
            GraphRef::TopDown(b) => (1, Arc::as_ptr(b) as *const () as usize),
            GraphRef::Parallel(b) => (2, Arc::as_ptr(b) as *const () as usize),
            GraphRef::Detached(p) => (3, Arc::as_ptr(p) as *const () as usize),
        }
    }

    /// A process-independent `(view-tag, content-digest)` identity for
    /// graphs that belong to a run bundle — the token checkpoint keys
    /// use instead of [`GraphRef::identity`]'s handle address. `None`
    /// for detached graphs (difference graphs and other derived PAGs
    /// have no stable content token, so values on them cannot be
    /// checkpointed).
    pub fn content_identity(&self) -> Option<(u8, u64)> {
        match self {
            GraphRef::TopDown(b) => Some((1, b.content_digest())),
            GraphRef::Parallel(b) => Some((2, b.content_digest())),
            GraphRef::Detached(_) => None,
        }
    }

    /// Two refs denote the same graph instance.
    pub fn same_graph(&self, other: &GraphRef) -> bool {
        match (self, other) {
            (GraphRef::TopDown(a), GraphRef::TopDown(b)) => Arc::ptr_eq(a, b),
            (GraphRef::Parallel(a), GraphRef::Parallel(b)) => Arc::ptr_eq(a, b),
            (GraphRef::Detached(a), GraphRef::Detached(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// A set of all vertices of this graph.
    pub fn all_vertices(&self) -> VertexSet {
        let ids = self.pag().vertex_ids().collect();
        VertexSet::new(self.clone(), ids)
    }

    /// Project `set` — a set on the top-down view of this graph's run or
    /// on a difference graph of its skeleton — onto this graph: onto a
    /// parallel view, every flow replica (across processes and threads)
    /// of a member; onto any other view, the members themselves with
    /// their scores, as the views share the skeleton's vertex ids.
    pub(crate) fn project(&self, set: &VertexSet) -> VertexSet {
        let pag = self.pag();
        let mut out = if pag.view() == pag::ViewKind::Parallel {
            let ids: HashSet<i64> = set.ids.iter().map(|v| v.0 as i64).collect();
            self.all_vertices().retain(|v| {
                pag.metric_i64(v, mkeys::TOPDOWN_VERTEX)
                    .is_some_and(|td| ids.contains(&td))
            })
        } else {
            set.retain(|v| v.index() < pag.num_vertices())
        };
        out.graph = self.clone();
        out
    }
}

/// Extension methods on run handles for ergonomic set creation.
pub trait RunHandleExt {
    /// All vertices of the top-down view.
    fn vertices(&self) -> VertexSet;
    /// All vertices of the parallel view.
    fn parallel_vertices(&self) -> VertexSet;
}

impl RunHandleExt for RunHandle {
    fn vertices(&self) -> VertexSet {
        GraphRef::TopDown(Arc::clone(self)).all_vertices()
    }
    fn parallel_vertices(&self) -> VertexSet {
        GraphRef::Parallel(Arc::clone(self)).all_vertices()
    }
}
