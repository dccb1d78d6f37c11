//! Sets — the data flowing along PerFlowGraph edges (§4.2).
//!
//! "The sets can be sets of PAG vertices V or sets of PAG edges E. […]
//! The contents of sets are updated as they flow through vertices of
//! PerFlowGraphs." A [`VertexSet`] additionally carries per-vertex
//! *scores*: numeric annotations a pass attaches (imbalance factors,
//! scaling losses) that downstream passes and the report module read —
//! the Rust equivalent of the paper's passes mutating vertex attributes.

use std::collections::{BTreeMap, HashSet};

use pag::{EdgeId, KeyId, VertexId, VertexLabel};

use crate::error::PerFlowError;
use crate::graphref::GraphRef;

/// A set of PAG vertices with optional per-vertex scores.
#[derive(Debug, Clone)]
pub struct VertexSet {
    /// The graph the ids refer to.
    pub graph: GraphRef,
    /// Member vertex ids (order is meaningful after `sort_by`/`top`).
    pub ids: Vec<VertexId>,
    /// Per-vertex numeric annotations attached by passes.
    pub scores: BTreeMap<VertexId, f64>,
}

impl VertexSet {
    /// New set without scores.
    pub fn new(graph: GraphRef, ids: Vec<VertexId>) -> Self {
        VertexSet {
            graph,
            ids,
            scores: BTreeMap::new(),
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, v: VertexId) -> bool {
        self.ids.contains(&v)
    }

    /// The score of a member (0.0 when unscored).
    pub fn score(&self, v: VertexId) -> f64 {
        self.scores.get(&v).copied().unwrap_or(0.0)
    }

    /// Read a metric for a member: `"score"` reads the set's score
    /// annotation, anything else reads the vertex metric column.
    pub fn metric(&self, v: VertexId, metric: &str) -> f64 {
        if metric == "score" {
            self.score(v)
        } else {
            let pag = self.graph.pag();
            pag.key_id(metric).map_or(0.0, |k| pag.metric_f64(v, k))
        }
    }

    /// Sort members descending by a metric (ties by id, deterministic).
    /// NaN metrics — possible on degraded runs with corrupted or missing
    /// performance data — sort last instead of panicking. The metric name
    /// is resolved to a column id once, so the comparator never touches
    /// string keys.
    pub fn sort_by(&self, metric: &str) -> VertexSet {
        if metric == "score" {
            let mut out = self.clone();
            out.ids
                .sort_by(|&a, &b| pag::desc_nan_last(self.score(a), self.score(b)).then(a.cmp(&b)));
            return out;
        }
        let pag = self.graph.pag();
        match pag.key_id(metric) {
            Some(k) => self.sort_by_key(k),
            None => {
                // Unknown metric: every value reads 0.0 → id order.
                let mut out = self.clone();
                out.ids.sort();
                out
            }
        }
    }

    /// Sort members descending by a resolved metric column (ties by id).
    pub fn sort_by_key(&self, key: KeyId) -> VertexSet {
        let pag = self.graph.pag();
        let mut out = self.clone();
        out.ids.sort_by(|&a, &b| {
            pag::desc_nan_last(pag.metric_f64(a, key), pag.metric_f64(b, key)).then(a.cmp(&b))
        });
        out
    }

    /// Keep the first `n` members (after a sort: the top n).
    pub fn top(&self, n: usize) -> VertexSet {
        let mut out = self.clone();
        out.ids.truncate(n);
        let kept: HashSet<VertexId> = out.ids.iter().copied().collect();
        out.scores.retain(|k, _| kept.contains(k));
        out
    }

    /// Members whose name matches a glob pattern.
    pub fn filter_name(&self, pattern: &str) -> VertexSet {
        self.retain(|v| pag::graph::glob_match(pattern, self.graph.pag().vertex_name(v)))
    }

    /// Members with a given label.
    pub fn filter_label(&self, label: VertexLabel) -> VertexSet {
        self.retain(|v| self.graph.pag().vertex(v).label == label)
    }

    /// Members whose metric is at least `min`. The name is resolved to a
    /// column id once, outside the per-member loop.
    pub fn filter_metric(&self, metric: &str, min: f64) -> VertexSet {
        if metric == "score" {
            return self.retain(|v| self.score(v) >= min);
        }
        let pag = self.graph.pag();
        match pag.key_id(metric) {
            Some(k) => self.retain(|v| pag.metric_f64(v, k) >= min),
            None => self.retain(|_| 0.0 >= min),
        }
    }

    /// Generic retain.
    pub fn retain(&self, pred: impl Fn(VertexId) -> bool) -> VertexSet {
        let ids: Vec<VertexId> = self.ids.iter().copied().filter(|&v| pred(v)).collect();
        let kept: HashSet<VertexId> = ids.iter().copied().collect();
        let scores = self
            .scores
            .iter()
            .filter(|(k, _)| kept.contains(k))
            .map(|(k, v)| (*k, *v))
            .collect();
        VertexSet {
            graph: self.graph.clone(),
            ids,
            scores,
        }
    }

    /// Set union (stable: self's order first). Errors when the sets live
    /// on different graphs.
    pub fn union(&self, other: &VertexSet) -> Result<VertexSet, PerFlowError> {
        if !self.graph.same_graph(&other.graph) {
            return Err(PerFlowError::GraphMismatch);
        }
        let mut out = self.clone();
        let mut seen: HashSet<VertexId> = self.ids.iter().copied().collect();
        out.ids
            .extend(other.ids.iter().copied().filter(|&v| seen.insert(v)));
        for (&v, &s) in &other.scores {
            out.scores.entry(v).or_insert(s);
        }
        Ok(out)
    }

    /// Set intersection.
    pub fn intersect(&self, other: &VertexSet) -> Result<VertexSet, PerFlowError> {
        if !self.graph.same_graph(&other.graph) {
            return Err(PerFlowError::GraphMismatch);
        }
        let probe: HashSet<VertexId> = other.ids.iter().copied().collect();
        Ok(self.retain(|v| probe.contains(&v)))
    }

    /// Set difference (members of self not in other).
    pub fn difference(&self, other: &VertexSet) -> Result<VertexSet, PerFlowError> {
        if !self.graph.same_graph(&other.graph) {
            return Err(PerFlowError::GraphMismatch);
        }
        let probe: HashSet<VertexId> = other.ids.iter().copied().collect();
        Ok(self.retain(|v| !probe.contains(&v)))
    }

    /// Attach a score to a member.
    pub fn with_score(mut self, v: VertexId, score: f64) -> Self {
        self.scores.insert(v, score);
        self
    }
}

/// A set of PAG edges.
#[derive(Debug, Clone)]
pub struct EdgeSet {
    /// The graph the ids refer to.
    pub graph: GraphRef,
    /// Member edge ids.
    pub ids: Vec<EdgeId>,
}

impl EdgeSet {
    /// New edge set.
    pub fn new(graph: GraphRef, ids: Vec<EdgeId>) -> Self {
        EdgeSet { graph, ids }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Union with another edge set on the same graph.
    pub fn union(&self, other: &EdgeSet) -> Result<EdgeSet, PerFlowError> {
        if !self.graph.same_graph(&other.graph) {
            return Err(PerFlowError::GraphMismatch);
        }
        let mut out = self.clone();
        let mut seen: HashSet<EdgeId> = self.ids.iter().copied().collect();
        out.ids
            .extend(other.ids.iter().copied().filter(|&e| seen.insert(e)));
        Ok(out)
    }

    /// The endpoint vertices of all member edges.
    pub fn endpoints(&self) -> VertexSet {
        let pag = self.graph.pag();
        let mut seen = HashSet::new();
        let ids = self
            .ids
            .iter()
            .map(|&e| pag.edge(e))
            .flat_map(|ed| [ed.src, ed.dst])
            .filter(|&v| seen.insert(v))
            .collect();
        VertexSet::new(self.graph.clone(), ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pag::{keys, mkeys, EdgeLabel, Pag, ViewKind};
    use proptest::prelude::*;
    use std::sync::Arc;

    fn detached() -> GraphRef {
        let mut g = Pag::new(ViewKind::TopDown, "t");
        for (i, (name, t)) in [
            ("main", 10.0),
            ("MPI_Send", 5.0),
            ("kernel", 8.0),
            ("MPI_Recv", 2.0),
        ]
        .iter()
        .enumerate()
        {
            let v = g.add_vertex(
                if name.starts_with("MPI") {
                    VertexLabel::Call(pag::CallKind::Comm)
                } else {
                    VertexLabel::Compute
                },
                *name,
            );
            assert_eq!(v.0 as usize, i);
            g.set_metric(v, mkeys::TIME, *t);
        }
        g.add_edge(VertexId(0), VertexId(1), EdgeLabel::IntraProc);
        g.add_edge(VertexId(1), VertexId(2), EdgeLabel::IntraProc);
        GraphRef::Detached(Arc::new(g))
    }

    #[test]
    fn sort_and_top() {
        let g = detached();
        let all = g.all_vertices();
        let sorted = all.sort_by(keys::TIME);
        let names: Vec<&str> = sorted.ids.iter().map(|&v| g.pag().vertex_name(v)).collect();
        assert_eq!(names, vec!["main", "kernel", "MPI_Send", "MPI_Recv"]);
        assert_eq!(sorted.top(2).len(), 2);
    }

    #[test]
    fn sort_by_survives_nan_metrics() {
        let g = detached();
        // Scores: one NaN, one +inf, one -inf, one ordinary.
        let set = g
            .all_vertices()
            .with_score(VertexId(0), f64::NAN)
            .with_score(VertexId(1), f64::INFINITY)
            .with_score(VertexId(2), 3.0)
            .with_score(VertexId(3), f64::NEG_INFINITY);
        let sorted = set.sort_by("score");
        assert_eq!(
            sorted.ids,
            vec![VertexId(1), VertexId(2), VertexId(3), VertexId(0)],
            "descending with NaN last"
        );
        // Deterministic: sorting again yields the same order.
        assert_eq!(sorted.sort_by("score").ids, sorted.ids);
        // top() after a NaN-bearing sort keeps the non-NaN head.
        assert_eq!(sorted.top(2).ids, vec![VertexId(1), VertexId(2)]);
    }

    #[test]
    fn all_nan_sort_ties_break_by_id() {
        let g = detached();
        let mut set = g.all_vertices();
        for v in set.ids.clone() {
            set = set.with_score(v, f64::NAN);
        }
        let sorted = set.sort_by("score");
        let mut want = sorted.ids.clone();
        want.sort();
        assert_eq!(sorted.ids, want);
    }

    #[test]
    fn top_keeps_scores_of_kept_ids_only() {
        let g = detached();
        let set = g
            .all_vertices()
            .with_score(VertexId(0), 1.0)
            .with_score(VertexId(3), 9.0);
        let top = set.top(2); // ids 0,1 kept (insertion order, unsorted)
        assert_eq!(top.ids, vec![VertexId(0), VertexId(1)]);
        assert_eq!(top.scores.len(), 1);
        assert_eq!(top.score(VertexId(0)), 1.0);
    }

    #[test]
    fn name_and_label_filters() {
        let g = detached();
        let all = g.all_vertices();
        assert_eq!(all.filter_name("MPI_*").len(), 2);
        assert_eq!(all.filter_label(VertexLabel::Compute).len(), 2);
        assert_eq!(all.filter_metric(keys::TIME, 6.0).len(), 2);
    }

    #[test]
    fn union_intersect_difference() {
        let g = detached();
        let all = g.all_vertices();
        let mpi = all.filter_name("MPI_*");
        let hot = all.filter_metric(keys::TIME, 5.0); // main, MPI_Send, kernel
        let u = mpi.union(&hot).unwrap();
        assert_eq!(u.len(), 4);
        let i = mpi.intersect(&hot).unwrap();
        assert_eq!(i.len(), 1);
        assert_eq!(g.pag().vertex_name(i.ids[0]), "MPI_Send");
        let d = hot.difference(&mpi).unwrap();
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn cross_graph_ops_rejected() {
        let a = detached().all_vertices();
        let b = detached().all_vertices(); // different Arc
        assert!(matches!(a.union(&b), Err(PerFlowError::GraphMismatch)));
        assert!(matches!(a.intersect(&b), Err(PerFlowError::GraphMismatch)));
        assert!(matches!(a.difference(&b), Err(PerFlowError::GraphMismatch)));
    }

    #[test]
    fn scores_flow_through_ops() {
        let g = detached();
        let set = g
            .all_vertices()
            .with_score(VertexId(1), 0.9)
            .with_score(VertexId(2), 0.5);
        assert_eq!(set.score(VertexId(1)), 0.9);
        assert_eq!(set.score(VertexId(0)), 0.0);
        let sorted = set.sort_by("score");
        assert_eq!(sorted.ids[0], VertexId(1));
        let top = sorted.top(1);
        assert_eq!(top.scores.len(), 1);
        let filtered = set.filter_metric("score", 0.6);
        assert_eq!(filtered.len(), 1);
    }

    #[test]
    fn edge_set_endpoints() {
        let g = detached();
        let es = EdgeSet::new(g.clone(), vec![EdgeId(0), EdgeId(1)]);
        let eps = es.endpoints();
        assert_eq!(eps.len(), 3);
    }

    /// The `Vec::contains` set algebra this module used before its
    /// operations became linear-time — the reference model.
    mod oracle {
        use super::*;

        pub fn union(a: &VertexSet, b: &VertexSet) -> VertexSet {
            let mut out = a.clone();
            for &v in &b.ids {
                if !out.ids.contains(&v) {
                    out.ids.push(v);
                }
            }
            for (&v, &s) in &b.scores {
                out.scores.entry(v).or_insert(s);
            }
            out
        }

        pub fn intersect(a: &VertexSet, b: &VertexSet) -> VertexSet {
            a.retain(|v| b.ids.contains(&v))
        }

        pub fn difference(a: &VertexSet, b: &VertexSet) -> VertexSet {
            a.retain(|v| !b.ids.contains(&v))
        }

        pub fn edge_union(a: &EdgeSet, b: &EdgeSet) -> Vec<EdgeId> {
            let mut ids = a.ids.clone();
            for &e in &b.ids {
                if !ids.contains(&e) {
                    ids.push(e);
                }
            }
            ids
        }

        pub fn endpoints(es: &EdgeSet) -> Vec<VertexId> {
            let mut ids = Vec::new();
            for &e in &es.ids {
                let ed = es.graph.pag().edge(e);
                for v in [ed.src, ed.dst] {
                    if !ids.contains(&v) {
                        ids.push(v);
                    }
                }
            }
            ids
        }
    }

    const RING: u32 = 12;

    /// `RING` vertices, edges `i → i+1` and `i → i+3` (mod `RING`).
    fn ring() -> GraphRef {
        let mut g = Pag::new(ViewKind::TopDown, "ring");
        for i in 0..RING {
            g.add_vertex(VertexLabel::Compute, format!("v{i}").as_str());
        }
        for i in 0..RING {
            for step in [1, 3] {
                g.add_edge(
                    VertexId(i),
                    VertexId((i + step) % RING),
                    EdgeLabel::IntraProc,
                );
            }
        }
        GraphRef::Detached(Arc::new(g))
    }

    /// Random member ids (duplicates likely) plus random scores, some on
    /// non-members.
    fn members() -> impl Strategy<Value = (Vec<u32>, Vec<(u32, u8)>)> {
        (
            prop::collection::vec(0..RING, 0..24),
            prop::collection::vec((0..RING, any::<u8>()), 0..8),
        )
    }

    fn vertex_set(g: &GraphRef, (ids, scores): &(Vec<u32>, Vec<(u32, u8)>)) -> VertexSet {
        let ids = ids.iter().map(|&i| VertexId(i)).collect();
        scores
            .iter()
            .fold(VertexSet::new(g.clone(), ids), |set, &(v, s)| {
                set.with_score(VertexId(v), s as f64)
            })
    }

    proptest! {
        #[test]
        fn vertex_algebra_matches_vec_contains_oracle(a in members(), b in members()) {
            let g = ring();
            let (a, b) = (vertex_set(&g, &a), vertex_set(&g, &b));
            type Op = fn(&VertexSet, &VertexSet) -> Result<VertexSet, PerFlowError>;
            type Oracle = fn(&VertexSet, &VertexSet) -> VertexSet;
            let ops: [(Op, Oracle); 3] = [
                (VertexSet::union, oracle::union),
                (VertexSet::intersect, oracle::intersect),
                (VertexSet::difference, oracle::difference),
            ];
            let foreign = vertex_set(&ring(), &(vec![0], vec![]));
            for (op, oracle) in ops {
                let (got, want) = (op(&a, &b).unwrap(), oracle(&a, &b));
                prop_assert_eq!(got.ids, want.ids);
                prop_assert_eq!(got.scores, want.scores);
                prop_assert!(matches!(op(&a, &foreign), Err(PerFlowError::GraphMismatch)));
            }
        }

        #[test]
        fn edge_algebra_matches_vec_contains_oracle(
            a in prop::collection::vec(0..2 * RING, 0..32),
            b in prop::collection::vec(0..2 * RING, 0..32),
        ) {
            let g = ring();
            let edge_set =
                |ids: &[u32]| EdgeSet::new(g.clone(), ids.iter().map(|&e| EdgeId(e)).collect());
            let (a, b) = (edge_set(&a), edge_set(&b));
            prop_assert_eq!(a.union(&b).unwrap().ids, oracle::edge_union(&a, &b));
            prop_assert_eq!(a.endpoints().ids, oracle::endpoints(&a));
            let foreign = EdgeSet::new(ring(), vec![EdgeId(0)]);
            prop_assert!(matches!(a.union(&foreign), Err(PerFlowError::GraphMismatch)));
        }
    }

    #[test]
    fn same_graph_identity() {
        let g = detached();
        let a = g.all_vertices();
        let b = g.all_vertices();
        assert!(a.graph.same_graph(&b.graph));
        assert!(a.union(&b).is_ok());
    }
}
