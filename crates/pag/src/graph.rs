//! The Program Abstraction Graph data structure.

use std::sync::Arc;

use crate::ids::{EdgeId, VertexId};
use crate::label::{EdgeLabel, VertexLabel};
use crate::metric::{self, KeyId, KeyTable, MetricColumns, MetricKind, GLOBAL_KEYS};
use crate::props::PropValue;
use crate::ViewKind;

/// Data stored on one PAG vertex. Numeric metrics live in the owning
/// [`Pag`]'s columnar storage — see [`Pag::metric`] — so this struct only
/// carries the label, the name, and string-valued properties.
#[derive(Debug, Clone)]
pub struct VertexData {
    /// The kind of code snippet this vertex stands for.
    pub label: VertexLabel,
    /// Snippet name (function name, `loop_1.1`, `MPI_Send`, …). Shared so
    /// that parallel-view replicas do not duplicate the string.
    pub name: Arc<str>,
    /// String-valued properties (debug info, comm info, rank status).
    pub(crate) sprops: StrProps,
}

/// Data stored on one PAG edge. Numeric metrics live in the owning
/// [`Pag`]'s columnar storage — see [`Pag::emetric_f64`].
#[derive(Debug, Clone)]
pub struct EdgeData {
    /// Source vertex.
    pub src: VertexId,
    /// Destination vertex.
    pub dst: VertexId,
    /// The relationship this edge encodes.
    pub label: EdgeLabel,
    /// String-valued properties.
    pub(crate) sprops: StrProps,
}

/// String properties of one vertex or edge: `(key, value)` pairs sorted by
/// key. Vertices carry a handful at most, so a sorted list beats a hash map
/// in both space and time.
pub(crate) type StrProps = Vec<(Arc<str>, Arc<str>)>;

fn str_slot(props: &StrProps, key: &str) -> Result<usize, usize> {
    props.binary_search_by(|(k, _)| k.as_ref().cmp(key))
}

fn str_get<'a>(props: &'a StrProps, key: &str) -> Option<&'a Arc<str>> {
    str_slot(props, key).ok().map(|i| &props[i].1)
}

/// Insert or replace in place, keeping key order.
pub(crate) fn str_set(props: &mut StrProps, key: &str, value: Arc<str>) {
    match str_slot(props, key) {
        Ok(i) => props[i].1 = value,
        Err(i) => props.insert(i, (Arc::from(key), value)),
    }
}

/// A Program Abstraction Graph: a directed property graph describing one
/// program execution (§3.1).
///
/// Numeric vertex/edge metrics are stored column-wise ([`MetricColumns`])
/// keyed by interned [`KeyId`]s and addressed through the typed accessors
/// ([`Pag::metric`], [`Pag::set_metric`], [`Pag::metric_vec`], edge
/// variants); a name that arrives at run time is resolved once with
/// [`Pag::key_id`] / [`Pag::intern_key`]. String properties are addressed
/// by wire name through [`Pag::vstr`] / [`Pag::set_vstr`].
#[derive(Debug, Clone)]
pub struct Pag {
    view: ViewKind,
    name: String,
    num_procs: u32,
    threads_per_proc: u32,
    root: Option<VertexId>,
    vertices: Vec<VertexData>,
    edges: Vec<EdgeData>,
    out_adj: Vec<Vec<EdgeId>>,
    in_adj: Vec<Vec<EdgeId>>,
    keytab: KeyTable,
    vmetrics: MetricColumns,
    emetrics: MetricColumns,
}

impl Pag {
    /// Create an empty PAG of the given view kind.
    pub fn new(view: ViewKind, name: impl Into<String>) -> Self {
        Pag {
            view,
            name: name.into(),
            num_procs: 1,
            threads_per_proc: 1,
            root: None,
            vertices: Vec::new(),
            edges: Vec::new(),
            out_adj: Vec::new(),
            in_adj: Vec::new(),
            keytab: KeyTable::new(),
            vmetrics: MetricColumns::new(),
            emetrics: MetricColumns::new(),
        }
    }

    /// Pre-allocate space for `v` vertices and `e` edges.
    pub fn with_capacity(view: ViewKind, name: impl Into<String>, v: usize, e: usize) -> Self {
        let mut g = Pag::new(view, name);
        g.vertices.reserve(v);
        g.out_adj.reserve(v);
        g.in_adj.reserve(v);
        g.edges.reserve(e);
        g
    }

    /// Which view this PAG represents.
    pub fn view(&self) -> ViewKind {
        self.view
    }

    /// Program / run identifier the PAG was built from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of processes (ranks) in the run this PAG describes.
    pub fn num_procs(&self) -> u32 {
        self.num_procs
    }

    /// Set the number of processes of the described run.
    pub fn set_num_procs(&mut self, n: u32) {
        self.num_procs = n;
    }

    /// Threads per process in the run this PAG describes.
    pub fn threads_per_proc(&self) -> u32 {
        self.threads_per_proc
    }

    /// Set the number of threads per process of the described run.
    pub fn set_threads_per_proc(&mut self, n: u32) {
        self.threads_per_proc = n;
    }

    /// The designated root vertex (program entry), if set.
    pub fn root(&self) -> Option<VertexId> {
        self.root
    }

    /// Designate `v` as the root vertex.
    pub fn set_root(&mut self, v: VertexId) {
        debug_assert!(v.index() < self.vertices.len());
        self.root = Some(v);
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Add a vertex; returns its id.
    pub fn add_vertex(&mut self, label: VertexLabel, name: impl Into<Arc<str>>) -> VertexId {
        let id = VertexId(self.vertices.len() as u32);
        self.vertices.push(VertexData {
            label,
            name: name.into(),
            sprops: StrProps::new(),
        });
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        self.vmetrics.push_row();
        id
    }

    /// Add an edge; returns its id.
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId, label: EdgeLabel) -> EdgeId {
        debug_assert!(src.index() < self.vertices.len());
        debug_assert!(dst.index() < self.vertices.len());
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(EdgeData {
            src,
            dst,
            label,
            sprops: StrProps::new(),
        });
        self.out_adj[src.index()].push(id);
        self.in_adj[dst.index()].push(id);
        self.emetrics.push_row();
        id
    }

    /// Immutable access to a vertex.
    #[inline]
    pub fn vertex(&self, v: VertexId) -> &VertexData {
        &self.vertices[v.index()]
    }

    /// Mutable access to a vertex.
    #[inline]
    pub fn vertex_mut(&mut self, v: VertexId) -> &mut VertexData {
        &mut self.vertices[v.index()]
    }

    /// Immutable access to an edge.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &EdgeData {
        &self.edges[e.index()]
    }

    /// Mutable access to an edge.
    #[inline]
    pub fn edge_mut(&mut self, e: EdgeId) -> &mut EdgeData {
        &mut self.edges[e.index()]
    }

    /// Iterate over all vertex ids.
    pub fn vertex_ids(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.vertices.len() as u32).map(VertexId)
    }

    /// Iterate over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Outgoing edges of `v`.
    #[inline]
    pub fn out_edges(&self, v: VertexId) -> &[EdgeId] {
        &self.out_adj[v.index()]
    }

    /// Incoming edges of `v`.
    #[inline]
    pub fn in_edges(&self, v: VertexId) -> &[EdgeId] {
        &self.in_adj[v.index()]
    }

    /// Successor vertices of `v` (one entry per out-edge).
    pub fn out_neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.out_adj[v.index()]
            .iter()
            .map(move |&e| self.edges[e.index()].dst)
    }

    /// Predecessor vertices of `v` (one entry per in-edge).
    pub fn in_neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.in_adj[v.index()]
            .iter()
            .map(move |&e| self.edges[e.index()].src)
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out_adj[v.index()].len()
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.in_adj[v.index()].len()
    }

    /// Convenience: the `name` property if set, otherwise the vertex name.
    pub fn vertex_name(&self, v: VertexId) -> &str {
        &self.vertex(v).name
    }

    /// Convenience: inclusive time of a vertex (0.0 if not recorded).
    #[inline]
    pub fn vertex_time(&self, v: VertexId) -> f64 {
        self.metric_f64(v, metric::keys::TIME)
    }

    /// All vertices whose name matches a glob pattern (`*` wildcard),
    /// e.g. `MPI_*` selects communication calls.
    pub fn find_by_name(&self, pattern: &str) -> Vec<VertexId> {
        self.vertex_ids()
            .filter(|&v| glob_match(pattern, &self.vertex(v).name))
            .collect()
    }

    /// All vertices with a given label.
    pub fn find_by_label(&self, label: VertexLabel) -> Vec<VertexId> {
        self.vertex_ids()
            .filter(|&v| self.vertex(v).label == label)
            .collect()
    }

    /// Total program time: the root vertex's inclusive time.
    pub fn total_time(&self) -> f64 {
        self.root.map(|r| self.vertex_time(r)).unwrap_or(0.0)
    }

    // ----- typed metric accessors (columnar hot path) -----

    /// The key interner of this PAG (global keys + per-PAG user keys).
    pub fn key_table(&self) -> &KeyTable {
        &self.keytab
    }

    /// Resolve a wire name to a `KeyId` without interning. Resolve once
    /// outside a loop, then use the typed accessors inside it.
    #[inline]
    pub fn key_id(&self, name: &str) -> Option<KeyId> {
        self.keytab.resolve(name)
    }

    /// Resolve a wire name, interning it as a user key if unknown.
    pub fn intern_key(&mut self, name: &str) -> KeyId {
        self.keytab.intern(name)
    }

    /// Wire name of an interned key.
    pub fn key_name(&self, k: KeyId) -> &str {
        self.keytab.name(k)
    }

    /// Columnar vertex metrics (for whole-column scans).
    pub fn vmetric_columns(&self) -> &MetricColumns {
        &self.vmetrics
    }

    /// Columnar edge metrics.
    pub fn emetric_columns(&self) -> &MetricColumns {
        &self.emetrics
    }

    /// Metric columns and string properties of one vertex row (or edge row
    /// when `edges`), for the decoder.
    pub(crate) fn stores_mut(
        &mut self,
        edges: bool,
        row: usize,
    ) -> (&mut MetricColumns, &mut StrProps) {
        if edges {
            (&mut self.emetrics, &mut self.edges[row].sprops)
        } else {
            (&mut self.vmetrics, &mut self.vertices[row].sprops)
        }
    }

    /// Test-only escape hatch for corrupting the vertex metric store so
    /// verifier invariant checks (PF0111) have a firing fixture.
    #[doc(hidden)]
    pub fn vmetric_columns_for_test(&mut self) -> &mut MetricColumns {
        &mut self.vmetrics
    }

    #[inline]
    pub(crate) fn int_kinded(k: KeyId, write_int: bool) -> bool {
        if k.is_global() {
            matches!(GLOBAL_KEYS[k.index()].1, MetricKind::I64)
        } else {
            write_int
        }
    }

    /// Scalar vertex metric; `None` if never set.
    #[inline]
    pub fn metric(&self, v: VertexId, k: KeyId) -> Option<f64> {
        self.vmetrics.get(k, v.index())
    }

    /// Scalar vertex metric, `0.0` if absent.
    #[inline]
    pub fn metric_f64(&self, v: VertexId, k: KeyId) -> f64 {
        self.vmetrics.get(k, v.index()).unwrap_or(0.0)
    }

    /// Integer vertex metric; `None` if absent or float-kinded.
    #[inline]
    pub fn metric_i64(&self, v: VertexId, k: KeyId) -> Option<i64> {
        let x = self.vmetrics.get(k, v.index())?;
        self.vmetrics
            .scalar_col(k)
            .is_some_and(|c| c.is_int)
            .then_some(x as i64)
    }

    /// Set a scalar (float) vertex metric.
    #[inline]
    pub fn set_metric(&mut self, v: VertexId, k: KeyId, value: f64) {
        self.vmetrics
            .set(k, v.index(), value, Self::int_kinded(k, false));
    }

    /// Set an integer vertex metric.
    #[inline]
    pub fn set_metric_i64(&mut self, v: VertexId, k: KeyId, value: i64) {
        self.vmetrics
            .set(k, v.index(), value as f64, Self::int_kinded(k, true));
    }

    /// Add `delta` to a scalar vertex metric (absent counts as zero).
    #[inline]
    pub fn add_metric(&mut self, v: VertexId, k: KeyId, delta: f64) {
        self.vmetrics
            .add(k, v.index(), delta, Self::int_kinded(k, false));
    }

    /// Add `delta` to an integer vertex metric (absent counts as zero).
    #[inline]
    pub fn add_metric_i64(&mut self, v: VertexId, k: KeyId, delta: i64) {
        self.vmetrics
            .add(k, v.index(), delta as f64, Self::int_kinded(k, true));
    }

    /// Vector vertex metric (per-process values).
    #[inline]
    pub fn metric_vec(&self, v: VertexId, k: KeyId) -> Option<&[f64]> {
        self.vmetrics.get_vec(k, v.index()).map(|a| a.as_ref())
    }

    /// Set a vector vertex metric.
    #[inline]
    pub fn set_metric_vec(&mut self, v: VertexId, k: KeyId, value: impl Into<Arc<[f64]>>) {
        self.vmetrics.set_vec(k, v.index(), value.into());
    }

    /// Scalar edge metric, `0.0` if absent.
    #[inline]
    pub fn emetric_f64(&self, e: EdgeId, k: KeyId) -> f64 {
        self.emetrics.get(k, e.index()).unwrap_or(0.0)
    }

    /// Integer edge metric; `None` if absent or float-kinded.
    #[inline]
    pub fn emetric_i64(&self, e: EdgeId, k: KeyId) -> Option<i64> {
        let x = self.emetrics.get(k, e.index())?;
        self.emetrics
            .scalar_col(k)
            .is_some_and(|c| c.is_int)
            .then_some(x as i64)
    }

    /// Set a scalar (float) edge metric.
    #[inline]
    pub fn set_emetric(&mut self, e: EdgeId, k: KeyId, value: f64) {
        self.emetrics
            .set(k, e.index(), value, Self::int_kinded(k, false));
    }

    /// Set an integer edge metric.
    #[inline]
    pub fn set_emetric_i64(&mut self, e: EdgeId, k: KeyId, value: i64) {
        self.emetrics
            .set(k, e.index(), value as f64, Self::int_kinded(k, true));
    }

    // ----- string properties -----

    /// String property of a vertex (debug info, comm info, …).
    pub fn vstr(&self, v: VertexId, key: &str) -> Option<&str> {
        str_get(&self.vertex(v).sprops, key).map(|s| s.as_ref())
    }

    /// Set a string property on a vertex.
    pub fn set_vstr(&mut self, v: VertexId, key: &str, value: impl Into<Arc<str>>) {
        str_set(&mut self.vertex_mut(v).sprops, key, value.into());
    }

    /// String property of an edge.
    pub fn estr(&self, e: EdgeId, key: &str) -> Option<&str> {
        str_get(&self.edge(e).sprops, key).map(|s| s.as_ref())
    }

    /// Set a string property on an edge.
    pub fn set_estr(&mut self, e: EdgeId, key: &str, value: impl Into<Arc<str>>) {
        str_set(&mut self.edge_mut(e).sprops, key, value.into());
    }

    // ----- merged view for rendering -----

    fn column_value(cols: &MetricColumns, k: KeyId, row: usize) -> Option<PropValue> {
        if let Some(x) = cols.get(k, row) {
            let is_int = cols.scalar_col(k).is_some_and(|c| c.is_int);
            return Some(if is_int {
                PropValue::Int(x as i64)
            } else {
                PropValue::Float(x)
            });
        }
        cols.get_vec(k, row).map(|xs| PropValue::VecF64(xs.clone()))
    }

    fn merged_entries(
        &self,
        sprops: &StrProps,
        cols: &MetricColumns,
        row: usize,
    ) -> Vec<(Arc<str>, PropValue)> {
        let mut out: Vec<(Arc<str>, PropValue)> = sprops
            .iter()
            .map(|(k, s)| (k.clone(), PropValue::Str(s.clone())))
            .collect();
        for ki in 0..self.keytab.len() {
            let k = KeyId(ki as u32);
            if let Some(value) = Self::column_value(cols, k, row) {
                out.push((Arc::from(self.keytab.name(k)), value));
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// One vertex property by wire name — the metric columns first, then the
    /// string properties — as an owned value. Read-only, for the places where
    /// the name comes from the user (a report column, a query field); code
    /// that knows its key uses the typed accessors.
    pub fn prop_by_name(&self, v: VertexId, name: &str) -> Option<PropValue> {
        self.key_id(name)
            .and_then(|k| Self::column_value(&self.vmetrics, k, v.index()))
            .or_else(|| str_get(&self.vertex(v).sprops, name).map(|s| PropValue::Str(s.clone())))
    }

    /// All properties of a vertex — string properties and metrics merged —
    /// as `(wire name, value)` pairs in key order. For rendering (DOT,
    /// reports), not for hot loops.
    pub fn prop_entries(&self, v: VertexId) -> Vec<(Arc<str>, PropValue)> {
        self.merged_entries(&self.vertex(v).sprops, &self.vmetrics, v.index())
    }

    /// Check internal consistency: every edge endpoint in range, the
    /// adjacency lists mirroring the edge table exactly, and the root (if
    /// set) in range. Returns a list of human-readable problems (empty =
    /// valid). Used after deserialization and in tests.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let nv = self.vertices.len();
        for e in self.edge_ids() {
            let ed = self.edge(e);
            if ed.src.index() >= nv || ed.dst.index() >= nv {
                problems.push(format!("edge {e} endpoint out of range"));
                continue;
            }
            if !self.out_adj[ed.src.index()].contains(&e) {
                problems.push(format!("edge {e} missing from out-adjacency of {}", ed.src));
            }
            if !self.in_adj[ed.dst.index()].contains(&e) {
                problems.push(format!("edge {e} missing from in-adjacency of {}", ed.dst));
            }
        }
        let adj_total: usize = self.out_adj.iter().map(Vec::len).sum();
        if adj_total != self.edges.len() {
            problems.push(format!(
                "out-adjacency holds {adj_total} entries for {} edges",
                self.edges.len()
            ));
        }
        let in_total: usize = self.in_adj.iter().map(Vec::len).sum();
        if in_total != self.edges.len() {
            problems.push(format!(
                "in-adjacency holds {in_total} entries for {} edges",
                self.edges.len()
            ));
        }
        if let Some(r) = self.root {
            if r.index() >= nv {
                problems.push(format!("root {r} out of range"));
            }
        }
        if self.vmetrics.rows() != nv {
            problems.push(format!(
                "vertex metric columns hold {} rows for {nv} vertices",
                self.vmetrics.rows()
            ));
        }
        if self.emetrics.rows() != self.edges.len() {
            problems.push(format!(
                "edge metric columns hold {} rows for {} edges",
                self.emetrics.rows(),
                self.edges.len()
            ));
        }
        problems
    }

    /// Approximate in-memory footprint in bytes (used for space-cost
    /// reporting alongside the serialized size).
    pub fn mem_footprint(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = size_of::<Self>();
        bytes += self.vertices.capacity() * size_of::<VertexData>();
        bytes += self.edges.capacity() * size_of::<EdgeData>();
        for adj in [&self.out_adj, &self.in_adj] {
            bytes += adj.capacity() * size_of::<Vec<EdgeId>>();
            bytes += adj
                .iter()
                .map(|v| v.capacity() * size_of::<EdgeId>())
                .sum::<usize>();
        }
        bytes += self.vmetrics.mem_footprint();
        bytes += self.emetrics.mem_footprint();
        bytes
    }
}

/// Simple glob matcher supporting `*` (any substring) used by name filters.
pub fn glob_match(pattern: &str, text: &str) -> bool {
    // Dynamic-programming match over pattern segments split on '*'.
    if !pattern.contains('*') {
        return pattern == text;
    }
    let segments: Vec<&str> = pattern.split('*').collect();
    let mut pos = 0usize;
    for (i, seg) in segments.iter().enumerate() {
        if seg.is_empty() {
            continue;
        }
        if i == 0 {
            if !text.starts_with(seg) {
                return false;
            }
            pos = seg.len();
        } else if i == segments.len() - 1 {
            let tail = &text[pos.min(text.len())..];
            if !tail.ends_with(seg) {
                return false;
            }
            // Ensure the final segment does not overlap an earlier match.
            if text.len() < pos + seg.len() {
                return false;
            }
            pos = text.len();
        } else {
            match text[pos.min(text.len())..].find(seg) {
                Some(off) => pos = pos + off + seg.len(),
                None => return false,
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::{CallKind, CommKind};

    fn tiny() -> Pag {
        let mut g = Pag::new(ViewKind::TopDown, "tiny");
        let main = g.add_vertex(VertexLabel::Function, "main");
        let l = g.add_vertex(VertexLabel::Loop, "loop_1");
        let c = g.add_vertex(VertexLabel::Call(CallKind::Comm), "MPI_Send");
        g.add_edge(main, l, EdgeLabel::IntraProc);
        g.add_edge(l, c, EdgeLabel::IntraProc);
        g.set_root(main);
        g
    }

    #[test]
    fn build_and_navigate() {
        let g = tiny();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        let main = VertexId(0);
        assert_eq!(g.out_degree(main), 1);
        assert_eq!(g.in_degree(main), 0);
        let succ: Vec<_> = g.out_neighbors(main).collect();
        assert_eq!(succ, vec![VertexId(1)]);
        let pred: Vec<_> = g.in_neighbors(VertexId(2)).collect();
        assert_eq!(pred, vec![VertexId(1)]);
        assert_eq!(g.vertex_name(VertexId(2)), "MPI_Send");
    }

    #[test]
    fn props_roundtrip_through_graph() {
        let mut g = tiny();
        g.set_metric(VertexId(0), metric::keys::TIME, 12.5);
        assert_eq!(g.vertex_time(VertexId(0)), 12.5);
        assert_eq!(g.total_time(), 12.5);
        assert!(g.metric(VertexId(1), metric::keys::TIME).is_none());
    }

    #[test]
    fn find_by_name_globs() {
        let g = tiny();
        assert_eq!(g.find_by_name("MPI_*"), vec![VertexId(2)]);
        assert_eq!(g.find_by_name("main"), vec![VertexId(0)]);
        assert_eq!(g.find_by_name("loop*"), vec![VertexId(1)]);
        assert!(g.find_by_name("nothing*").is_empty());
    }

    #[test]
    fn find_by_label_works() {
        let g = tiny();
        assert_eq!(g.find_by_label(VertexLabel::Loop), vec![VertexId(1)]);
        assert_eq!(
            g.find_by_label(VertexLabel::Call(CallKind::Comm)),
            vec![VertexId(2)]
        );
    }

    #[test]
    fn glob_edge_cases() {
        assert!(glob_match("*", "anything"));
        assert!(glob_match("*", ""));
        assert!(glob_match("MPI_*", "MPI_"));
        assert!(!glob_match("MPI_*", "MP"));
        assert!(glob_match("*_insert", "_M_realloc_insert"));
        assert!(glob_match("a*b*c", "aXXbYYc"));
        assert!(!glob_match("a*b*c", "aXXcYYb"));
        assert!(!glob_match("abc*abc", "abc")); // overlap must not match
        assert!(glob_match("exact", "exact"));
        assert!(!glob_match("exact", "exactly"));
    }

    #[test]
    fn edge_labels_recorded() {
        let mut g = tiny();
        let e = g.add_edge(
            VertexId(2),
            VertexId(2),
            EdgeLabel::InterProcess(CommKind::P2pAsync),
        );
        assert_eq!(g.edge(e).label, EdgeLabel::InterProcess(CommKind::P2pAsync));
        g.set_emetric_i64(e, metric::keys::COMM_BYTES, 1024);
        assert_eq!(g.emetric_i64(e, metric::keys::COMM_BYTES), Some(1024));
    }

    #[test]
    fn validate_accepts_well_formed_graphs() {
        assert!(tiny().validate().is_empty());
        assert!(Pag::new(ViewKind::TopDown, "empty").validate().is_empty());
    }

    #[test]
    fn mem_footprint_grows() {
        let g0 = Pag::new(ViewKind::TopDown, "empty");
        let g1 = tiny();
        assert!(g1.mem_footprint() > g0.mem_footprint());
    }
}
