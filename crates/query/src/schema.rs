//! The query symbol table: every name a query may reference, its type,
//! and which PAG views actually carry it.
//!
//! [`Schema::for_view`] builds the static schema from the interned
//! global key table ([`pag::GLOBAL_KEYS`]) plus the string attributes
//! and the `score` pseudo-metric — enough to lint a query before any
//! simulation runs (the CLI `--check-query` path and the server's
//! pre-enqueue gate).

use std::collections::BTreeMap;

use pag::{MetricKind, GLOBAL_KEYS};

use crate::ast::View;

/// The query layer's three value types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    /// Scalar numeric metric (`metric_f64` / `metric_i64` columns).
    Num,
    /// Per-process vector metric (`metric_vec` columns).
    Vec,
    /// String attribute (`name`, `label`, `vstr` props).
    Str,
}

impl Ty {
    /// Human-readable type name for diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Ty::Num => "scalar metric",
            Ty::Vec => "vector metric",
            Ty::Str => "string attribute",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct FieldInfo {
    ty: Ty,
    in_topdown: bool,
    in_parallel: bool,
}

/// Names a field carries in every view.
const EVERYWHERE: (bool, bool) = (true, true);
/// Metrics only the embedding writes onto the top-down view.
const TOPDOWN_ONLY: &[&str] = &[
    "time-per-proc",
    "bytes-per-proc",
    "wait-per-proc",
    "completeness-per-proc",
];
/// Metrics only the parallel-view builder writes.
const PARALLEL_ONLY: &[&str] = &["proc", "thread", "topdown-vertex"];

/// String attributes readable through `select`/`filter`.
const STRING_ATTRS: &[&str] = &["name", "label", "debug-info", "comm-info", "rank-status"];

/// A typed symbol table for linting queries against one view.
#[derive(Debug, Clone)]
pub struct Schema {
    view: View,
    fields: BTreeMap<String, FieldInfo>,
}

impl Schema {
    /// The static schema: global metric keys, string attributes, `score`.
    pub fn for_view(view: View) -> Schema {
        let mut fields = BTreeMap::new();
        for &(name, kind) in GLOBAL_KEYS {
            let ty = match kind {
                MetricKind::F64 | MetricKind::I64 => Ty::Num,
                MetricKind::VecF64 => Ty::Vec,
            };
            let (mut td, mut par) = EVERYWHERE;
            if TOPDOWN_ONLY.contains(&name) {
                par = false;
            }
            if PARALLEL_ONLY.contains(&name) {
                td = false;
            }
            fields.insert(
                name.to_string(),
                FieldInfo {
                    ty,
                    in_topdown: td,
                    in_parallel: par,
                },
            );
        }
        for &name in STRING_ATTRS {
            fields.insert(
                name.to_string(),
                FieldInfo {
                    ty: Ty::Str,
                    in_topdown: true,
                    in_parallel: true,
                },
            );
        }
        fields.insert(
            "score".to_string(),
            FieldInfo {
                ty: Ty::Num,
                in_topdown: true,
                in_parallel: true,
            },
        );
        Schema { view, fields }
    }

    /// The view this schema describes.
    pub fn view(&self) -> View {
        self.view
    }

    /// The type of `name`, if it is known in *any* view.
    pub fn lookup(&self, name: &str) -> Option<Ty> {
        self.fields.get(name).map(|f| f.ty)
    }

    /// True when `name` is known and materialized in `view` (a query's
    /// own `from` clause may differ from the schema's default view).
    pub fn present_in(&self, name: &str, view: View) -> bool {
        self.fields.get(name).is_some_and(|f| match view {
            View::Vertices => f.in_topdown,
            View::Parallel => f.in_parallel,
        })
    }

    /// All known field names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.fields.keys().map(String::as_str)
    }

    /// The nearest known name within edit distance 2, for "did you
    /// mean" suggestions (ties break lexicographically).
    pub fn suggest(&self, name: &str) -> Option<&str> {
        let mut best: Option<(usize, &str)> = None;
        for cand in self.names() {
            let d = edit_distance(name, cand);
            if d <= 2 && best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, cand));
            }
        }
        best.map(|(_, n)| n)
    }
}

/// Plain Levenshtein distance, O(len(a) * len(b)).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_keys_are_typed() {
        let s = Schema::for_view(View::Vertices);
        assert_eq!(s.lookup("time"), Some(Ty::Num));
        assert_eq!(s.lookup("count"), Some(Ty::Num));
        assert_eq!(s.lookup("time-per-proc"), Some(Ty::Vec));
        assert_eq!(s.lookup("name"), Some(Ty::Str));
        assert_eq!(s.lookup("score"), Some(Ty::Num));
        assert_eq!(s.lookup("no-such-metric"), None);
    }

    #[test]
    fn view_presence_splits_per_view_columns() {
        let td = Schema::for_view(View::Vertices);
        let par = Schema::for_view(View::Parallel);
        // Rank ids only exist on the parallel view...
        assert!(!td.present_in("proc", View::Vertices));
        assert!(par.present_in("proc", View::Parallel));
        // ...and per-proc vectors only on the top-down view.
        assert!(td.present_in("time-per-proc", View::Vertices));
        assert!(!par.present_in("time-per-proc", View::Parallel));
        // Unknown names are absent everywhere.
        assert!(!td.present_in("no-such-metric", View::Vertices));
        // Shared metrics are present in both.
        assert!(td.present_in("time", View::Vertices) && par.present_in("time", View::Parallel));
    }

    #[test]
    fn suggestions_find_near_misses() {
        let s = Schema::for_view(View::Vertices);
        assert_eq!(s.suggest("tme"), Some("time"));
        assert_eq!(s.suggest("wait_time"), Some("wait-time"));
        assert_eq!(s.suggest("scor"), Some("score"));
        assert_eq!(s.suggest("zzzzzzzz"), None);
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("time", "time"), 0);
    }
}
