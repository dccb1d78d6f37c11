//! Query evaluator: runs a parsed [`query::Query`] against a run's
//! vertex sets.
//!
//! Every stage maps onto the existing low-level set operations, so a
//! query never has semantics of its own: `filter` is
//! [`VertexSet::retain`], `score` is the hotspot paradigm's
//! completeness-weighted metric, `sort score desc nan_last` is
//! byte-for-byte [`VertexSet::sort_by`]`("score")`, `top` is
//! [`VertexSet::top`], `join` is union/intersect/difference, and
//! `select` is the report pass. That identity is load-bearing: the
//! query-built hotspot report digests identically to the hand-written
//! paradigm (see the `tests` crate).
//!
//! Callers are expected to lint first (`verify::lint_query`); the
//! evaluator still behaves totally on unlinted input — unknown metrics
//! read 0.0 (matching [`VertexSet::metric`]) and type-confused
//! comparisons fail with [`PerFlowError::Analysis`] rather than panic.

use query::{CmpOp, Field, JoinKind, NanPolicy, Order, Query, Stage, Value, View};

use crate::error::PerFlowError;
use crate::graphref::{RunHandle, RunHandleExt};
use crate::passes::hotspot::completeness;
use crate::passes::report_pass::report_sets;
use crate::report::Report;
use crate::set::VertexSet;

/// What a query evaluates to: a vertex set (no terminal stage) or a
/// rendered-ready report (`select` / `sum` / `group`).
pub enum QueryOutput {
    /// The pipeline's final vertex set.
    Set(VertexSet),
    /// The report a terminal stage built.
    Report(Report),
}

impl QueryOutput {
    /// Convert to a report. Terminal stages already built one; a bare
    /// vertex set renders with the default attribute columns.
    pub fn into_report(self) -> Report {
        match self {
            QueryOutput::Report(r) => r,
            QueryOutput::Set(s) => {
                report_sets("perflow report", &[&s], &["name", "label", "time", "score"])
            }
        }
    }
}

/// Evaluate `q` against `run`: resolve the `from` view, fold every
/// stage over the vertex set, and build the terminal report if any.
pub fn execute_query(q: &Query, run: &RunHandle) -> Result<QueryOutput, PerFlowError> {
    let mut set = view_set(run, q.view());
    for stage in &q.stages {
        match stage {
            Stage::From(_) => {}
            Stage::Filter { field, op, value } => {
                set = apply_filter(&set, field, *op, value)?;
            }
            Stage::Score(field) => {
                // The hotspot paradigm's weighting: metric × completeness,
                // so low-confidence vertices cannot displace well-measured
                // ones.
                let mut scored = set.clone();
                for &v in &set.ids {
                    scored
                        .scores
                        .insert(v, set.metric(v, &field.name) * completeness(&set, v));
                }
                set = scored;
            }
            Stage::Sort { field, order, nan } => {
                set = apply_sort(&set, field, *order, *nan);
            }
            Stage::Top(n) => {
                set = set.top(*n);
            }
            Stage::Join { kind, query } => {
                let rhs = match execute_query(query, run)? {
                    QueryOutput::Set(s) => s,
                    // The parser rejects terminal subqueries; keep the
                    // evaluator total anyway.
                    QueryOutput::Report(_) => {
                        return Err(PerFlowError::Analysis(
                            "join subquery must produce a vertex set".into(),
                        ))
                    }
                };
                set = match kind {
                    JoinKind::Union => set.union(&rhs)?,
                    JoinKind::Intersect => set.intersect(&rhs)?,
                    JoinKind::Minus => set.difference(&rhs)?,
                };
            }
            Stage::Select(fields) => {
                let attrs: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                return Ok(QueryOutput::Report(report_sets(
                    "perflow report",
                    &[&set],
                    &attrs,
                )));
            }
            Stage::Sum(field) => {
                let total: f64 = set.ids.iter().map(|&v| set.metric(v, &field.name)).sum();
                let mut r = Report::new("perflow report").with_columns(&["metric", "sum"]);
                r.push_row(vec![field.name.clone(), format!("{total}")]);
                return Ok(QueryOutput::Report(r));
            }
            Stage::Group { by, sum } => {
                return Ok(QueryOutput::Report(group_report(&set, by, sum)));
            }
        }
    }
    Ok(QueryOutput::Set(set))
}

/// The vertex set a `from` clause names.
fn view_set(run: &RunHandle, view: View) -> VertexSet {
    match view {
        View::Vertices => run.vertices(),
        View::Parallel => run.parallel_vertices(),
    }
}

/// `group <by> sum <metric>`: per-group sums, rows in group-key order.
fn group_report(set: &VertexSet, by: &Field, sum: &Field) -> Report {
    let mut groups: std::collections::BTreeMap<String, (f64, usize)> =
        std::collections::BTreeMap::new();
    for &v in &set.ids {
        let key = string_of(set, v, by).unwrap_or_default();
        let entry = groups.entry(key).or_insert((0.0, 0));
        entry.0 += set.metric(v, &sum.name);
        entry.1 += 1;
    }
    let sum_col = format!("sum({})", sum.name);
    let mut r = Report::new("perflow report").with_columns(&[&by.name, &sum_col, "members"]);
    for (key, (total, members)) in groups {
        r.push_row(vec![key, format!("{total}"), members.to_string()]);
    }
    r
}

/// `filter <field> <op> <value>` via [`VertexSet::retain`]. The
/// comparison mode follows the literal: numbers compare IEEE-style on
/// the metric column, strings compare on the attribute's text.
fn apply_filter(
    set: &VertexSet,
    field: &Field,
    op: CmpOp,
    value: &Value,
) -> Result<VertexSet, PerFlowError> {
    match value {
        Value::Num(rhs) => {
            if op == CmpOp::Glob {
                return Err(PerFlowError::Analysis(format!(
                    "filter `{}`: glob match (`~`) needs a string literal",
                    field.name
                )));
            }
            let rhs = *rhs;
            Ok(set.retain(|v| {
                let lhs = set.metric(v, &field.name);
                match op {
                    CmpOp::Eq => lhs == rhs,
                    CmpOp::Ne => lhs != rhs,
                    CmpOp::Lt => lhs < rhs,
                    CmpOp::Le => lhs <= rhs,
                    CmpOp::Gt => lhs > rhs,
                    CmpOp::Ge => lhs >= rhs,
                    CmpOp::Glob => unreachable!("rejected above"),
                }
            }))
        }
        Value::Str(rhs) => {
            if op.is_range() {
                return Err(PerFlowError::Analysis(format!(
                    "filter `{}`: range comparison against a string literal",
                    field.name
                )));
            }
            Ok(set.retain(|v| {
                let lhs = string_of(set, v, field);
                match op {
                    CmpOp::Eq => lhs.as_deref() == Some(rhs.as_str()),
                    CmpOp::Ne => lhs.as_deref() != Some(rhs.as_str()),
                    CmpOp::Glob => lhs
                        .as_deref()
                        .is_some_and(|s| pag::graph::glob_match(rhs, s)),
                    _ => unreachable!("rejected above"),
                }
            }))
        }
    }
}

/// The string value of a field at a vertex: `name`/`label` read the
/// vertex itself, everything else is looked up by name and rendered.
fn string_of(set: &VertexSet, v: pag::VertexId, field: &Field) -> Option<String> {
    let pag = set.graph.pag();
    match field.name.as_str() {
        "name" => Some(pag.vertex_name(v).to_string()),
        "label" => Some(pag.vertex(v).label.name().to_string()),
        name => pag.prop_by_name(v, name).map(|p| p.to_string()),
    }
}

/// `sort <field> asc|desc [nan_last|nan_first]`, ties broken by vertex
/// id. `desc` + `nan_last` (or no policy) is exactly
/// [`VertexSet::sort_by`]'s comparator.
fn apply_sort(set: &VertexSet, field: &Field, order: Order, nan: NanPolicy) -> VertexSet {
    use std::cmp::Ordering;
    let nan_first = nan == NanPolicy::NanFirst;
    let mut out = set.clone();
    out.ids.sort_by(|&a, &b| {
        let (ka, kb) = (set.metric(a, &field.name), set.metric(b, &field.name));
        let ord = match (ka.is_nan(), kb.is_nan()) {
            (true, true) => Ordering::Equal,
            (true, false) => {
                if nan_first {
                    Ordering::Less
                } else {
                    Ordering::Greater
                }
            }
            (false, true) => {
                if nan_first {
                    Ordering::Greater
                } else {
                    Ordering::Less
                }
            }
            (false, false) => match order {
                Order::Asc => ka.total_cmp(&kb),
                Order::Desc => kb.total_cmp(&ka),
            },
        };
        ord.then(a.cmp(&b))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::PerFlow;
    use crate::graphref::GraphRef;
    use pag::{keys, mkeys, Pag, VertexId, VertexLabel, ViewKind};
    use simrt::RunConfig;
    use std::sync::Arc;

    fn detached() -> GraphRef {
        let mut g = Pag::new(ViewKind::TopDown, "q");
        for (name, t) in [
            ("main", 10.0),
            ("MPI_Send", 5.0),
            ("kernel", 8.0),
            ("MPI_Recv", 2.0),
        ] {
            let v = g.add_vertex(
                if name.starts_with("MPI") {
                    VertexLabel::Call(pag::CallKind::Comm)
                } else {
                    VertexLabel::Compute
                },
                name,
            );
            g.set_metric(v, mkeys::TIME, t);
        }
        GraphRef::Detached(Arc::new(g))
    }

    fn eval_set(src: &str, g: &GraphRef) -> VertexSet {
        let q = Query::parse(src).unwrap();
        let set = g.all_vertices();
        // Drive the stage fold directly on a detached set (no run).
        let mut cur = set;
        for stage in &q.stages {
            match stage {
                Stage::From(_) => {}
                Stage::Filter { field, op, value } => {
                    cur = apply_filter(&cur, field, *op, value).unwrap();
                }
                Stage::Sort { field, order, nan } => {
                    cur = apply_sort(&cur, field, *order, *nan);
                }
                Stage::Top(n) => cur = cur.top(*n),
                other => panic!("unsupported in eval_set: {}", other.op_name()),
            }
        }
        cur
    }

    fn names(set: &VertexSet) -> Vec<String> {
        set.ids
            .iter()
            .map(|&v| set.graph.pag().vertex_name(v).to_string())
            .collect()
    }

    #[test]
    fn numeric_filters_match_ieee_semantics() {
        let g = detached();
        let hot = eval_set("from vertices | filter time >= 5", &g);
        assert_eq!(names(&hot), vec!["main", "MPI_Send", "kernel"]);
        let ne = eval_set("from vertices | filter time != 5", &g);
        assert_eq!(ne.len(), 3);
        // Unknown metric reads 0.0 — matching VertexSet::metric.
        let none = eval_set("from vertices | filter time < 0", &g);
        assert!(none.is_empty());
    }

    #[test]
    fn string_filters_and_globs() {
        let g = detached();
        let mpi = eval_set("from vertices | filter name ~ \"MPI_*\"", &g);
        assert_eq!(names(&mpi), vec!["MPI_Send", "MPI_Recv"]);
        let comm = eval_set("from vertices | filter label == \"comm-call\"", &g);
        assert_eq!(comm.len(), 2);
        let not_main = eval_set("from vertices | filter name != \"main\"", &g);
        assert_eq!(not_main.len(), 3);
    }

    #[test]
    fn type_confused_filters_error_instead_of_panicking() {
        let g = detached();
        let set = g.all_vertices();
        let q = Query::parse("from vertices | filter name < \"m\"").unwrap();
        let Stage::Filter { field, op, value } = &q.stages[1] else {
            unreachable!()
        };
        assert!(apply_filter(&set, field, *op, value).is_err());
        let q = Query::parse("from vertices | filter time ~ 3").unwrap();
        let Stage::Filter { field, op, value } = &q.stages[1] else {
            unreachable!()
        };
        assert!(apply_filter(&set, field, *op, value).is_err());
    }

    #[test]
    fn sort_directions_and_nan_policies() {
        let g = detached();
        let desc = eval_set("from vertices | sort time desc nan_last", &g);
        assert_eq!(names(&desc), vec!["main", "kernel", "MPI_Send", "MPI_Recv"]);
        let asc = eval_set("from vertices | sort time asc nan_last", &g);
        assert_eq!(names(&asc), vec!["MPI_Recv", "MPI_Send", "kernel", "main"]);
        // desc nan_last must equal VertexSet::sort_by exactly.
        let via_set = g.all_vertices().sort_by(keys::TIME);
        assert_eq!(desc.ids, via_set.ids);
    }

    #[test]
    fn nan_first_policy_hoists_nan_vertices() {
        let mut g = Pag::new(ViewKind::TopDown, "n");
        for (name, t) in [("a", 1.0), ("b", f64::NAN), ("c", 3.0)] {
            let v = g.add_vertex(VertexLabel::Compute, name);
            g.set_metric(v, mkeys::TIME, t);
        }
        let g = GraphRef::Detached(Arc::new(g));
        let first = eval_set("from vertices | sort time desc nan_first", &g);
        assert_eq!(names(&first), vec!["b", "c", "a"]);
        let last = eval_set("from vertices | sort time asc nan_last", &g);
        assert_eq!(names(&last), vec!["a", "c", "b"]);
    }

    #[test]
    fn all_nan_ties_break_by_id() {
        let mut g = Pag::new(ViewKind::TopDown, "n");
        for name in ["a", "b", "c"] {
            let v = g.add_vertex(VertexLabel::Compute, name);
            g.set_metric(v, mkeys::TIME, f64::NAN);
        }
        let g = GraphRef::Detached(Arc::new(g));
        for src in [
            "from vertices | sort time desc nan_last",
            "from vertices | sort time asc nan_first",
        ] {
            assert_eq!(
                eval_set(src, &g).ids,
                vec![VertexId(0), VertexId(1), VertexId(2)],
                "{src}"
            );
        }
    }

    fn cg_prog() -> progmodel::Program {
        let mut pb = progmodel::ProgramBuilder::new("qexec");
        let main = pb.declare("main", "qexec.c");
        pb.define(main, |f| {
            f.compute("kernel", (progmodel::rank() + 1.0) * progmodel::c(2000.0));
            f.allreduce(progmodel::c(64.0));
        });
        pb.build(main)
    }

    fn cg_run() -> (PerFlow, crate::graphref::RunHandle) {
        let pflow = PerFlow::new();
        let run = pflow.run(&cg_prog(), &RunConfig::new(4)).unwrap();
        (pflow, run)
    }

    #[test]
    fn string_filters_and_selects_look_attributes_up_by_name() {
        // A string property (`debug-info`) and a key interned at run time
        // are both reached through `Pag::prop_by_name`.
        let mut profiled = collect::profile(&cg_prog(), &RunConfig::new(4)).unwrap();
        let kernel = profiled.pag.find_by_name("kernel")[0];
        let flops = profiled.pag.intern_key("flops");
        profiled.pag.set_metric_i64(kernel, flops, 42);
        let run = crate::graphref::RunBundle::new(profiled);
        let q = Query::parse(
            "from vertices | filter debug-info ~ \"*.c:*\" | filter flops == \"42\" \
             | select name, flops, debug-info",
        )
        .unwrap();
        let r = execute_query(&q, &run).unwrap().into_report();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][..2], ["kernel", "42"]);
        assert!(r.rows[0][2].starts_with("qexec.c:"), "{:?}", r.rows[0]);
    }

    #[test]
    fn query_hotspot_matches_paradigm_exactly() {
        let (pflow, run) = cg_run();
        let q = Query::parse(
            "from vertices | score time | sort score desc nan_last | top 15 \
             | select name, label, debug-info, time",
        )
        .unwrap();
        let via_query = execute_query(&q, &run).unwrap().into_report().render();
        let hot = pflow.hotspot_detection(&run.vertices(), 15);
        let via_paradigm = pflow
            .report(&[&hot], &["name", "label", "debug-info", "time"])
            .render();
        assert_eq!(via_query, via_paradigm);
    }

    #[test]
    fn joins_compose_sets() {
        let (_pflow, run) = cg_run();
        let q = Query::parse(
            "from vertices | filter name ~ \"MPI_*\" \
             | join union (from vertices | filter name == \"kernel\")",
        )
        .unwrap();
        let Ok(QueryOutput::Set(set)) = execute_query(&q, &run) else {
            panic!("a query without a terminal stage yields a set");
        };
        assert!(set.len() >= 2, "union should hold MPI calls plus kernel");
        let q = Query::parse("from vertices | join minus (from vertices) | select name").unwrap();
        let out = execute_query(&q, &run).unwrap().into_report();
        assert_eq!(out.rows.len(), 0, "minus itself is empty");
    }

    #[test]
    fn sum_and_group_build_reports() {
        let (_pflow, run) = cg_run();
        let q = Query::parse("from vertices | sum time").unwrap();
        let r = execute_query(&q, &run).unwrap().into_report();
        assert_eq!(r.columns, vec!["metric", "sum"]);
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], "time");
        assert!(r.rows[0][1].parse::<f64>().unwrap() > 0.0);

        let q = Query::parse("from vertices | group label sum time").unwrap();
        let r = execute_query(&q, &run).unwrap().into_report();
        assert_eq!(r.columns, vec!["label", "sum(time)", "members"]);
        assert!(!r.rows.is_empty());
        // Rows arrive in BTreeMap (sorted-key) order.
        let keys: Vec<&String> = r.rows.iter().map(|row| &row[0]).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn parallel_view_queries_read_rank_columns() {
        let (_pflow, run) = cg_run();
        let q = Query::parse("from parallel | filter proc == 2 | select name, proc").unwrap();
        let r = execute_query(&q, &run).unwrap().into_report();
        assert!(!r.rows.is_empty(), "rank 2 has vertices");
        let q = Query::parse("from parallel | filter proc >= 100").unwrap();
        let Ok(QueryOutput::Set(set)) = execute_query(&q, &run) else {
            panic!("a query without a terminal stage yields a set");
        };
        assert!(set.is_empty());
    }
}
