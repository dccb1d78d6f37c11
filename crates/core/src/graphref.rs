//! Shared handles to analyzed runs and their PAG views.
//!
//! A PAG is "an environment of all passes in a PerFlowGraph" (§2.1): many
//! sets reference the same graph concurrently. [`RunBundle`] owns one
//! profiled run and lazily materializes its parallel view; [`GraphRef`]
//! is the cheap shared reference sets carry.

use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

use collect::{build_parallel_view, ProfiledRun};
use obs::Fnv;
use pag::{keys, mkeys, Pag, VertexId};
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

    /// Content digest of the run (cached): the run data's
    /// [`simrt::RunData::digest`] folded with the top-down view's
    /// structure and strings — vertex labels, names and debug info, and
    /// the edges — because the run data holds ids, not the names reports
    /// print. Metrics are left out: they derive from the run data.
    /// Stable across processes for deterministic simulations: it names
    /// a run's sets in pass-cache keys, and report fingerprints fold it.
    pub fn content_digest(&self) -> u64 {
        *self.content_digest.get_or_init(|| {
            let pag = self.topdown();
            let mut h = Fnv::new();
            h.u64(self.run.data.digest());
            h.u64(pag.num_vertices() as u64);
            for v in pag.vertex_ids() {
                let vd = pag.vertex(v);
                h.str(vd.label.name());
                h.str(&vd.name);
                h.str(pag.vstr(v, keys::DEBUG_INFO).unwrap_or(""));
            }
            h.u64(pag.num_edges() as u64);
            for e in pag.edge_ids() {
                let ed = pag.edge(e);
                h.u64(ed.src.0 as u64);
                h.u64(ed.dst.0 as u64);
                h.str(ed.label.name());
            }
            h.finish()
        })
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

    /// A process-independent `(view-tag, content-digest)` identity for
    /// graphs that belong to a run bundle — the token value fingerprints
    /// name a set's graph by. `None` for detached graphs (difference
    /// graphs and other derived PAGs have no content token, so values on
    /// them are never cached).
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
