//! The PF03xx static semantic analyzer for PAG queries.
//!
//! [`lint_query`] type-checks a parsed [`query::Query`] against a
//! [`query::Schema`] without executing anything. Checks, by code:
//!
//! | code   | severity | finding |
//! |--------|----------|---------|
//! | PF0300 | error    | query does not parse |
//! | PF0301 | error    | unknown metric/field (with nearest-key suggestion) |
//! | PF0302 | error    | type mismatch (scalar vs vector vs string) |
//! | PF0303 | error    | column provably absent in the target view |
//! | PF0304 | warning  | sort without an explicit NaN policy |
//! | PF0305 | error    | provably-empty result (contradictory filters, `top 0`) |
//!
//! Diagnostics anchor to the offending pipeline stage
//! ([`Anchor::Stage`]) and, like every analyzer in this crate, emit in a
//! deterministic `(code, anchor, message)` order regardless of the walk
//! order — the CLI gate (`--check-query`) and the server's pre-enqueue
//! gate reject iff any error-severity finding exists.

use std::collections::BTreeMap;

use query::{CmpOp, Field, NanPolicy, Query, Schema, Stage, Ty, Value, View};

use crate::codes;
use crate::diag::{Anchor, Diagnostics, Severity};

/// Parse and lint query text against the static schema of the query's
/// own `from` view. Returns the AST when it parses (even if the lint
/// found errors) so callers can render the canonical form.
pub fn lint_query_text(text: &str) -> (Option<Query>, Diagnostics) {
    match Query::parse(text) {
        Err(e) => {
            let mut d = Diagnostics::new();
            d.push(
                codes::QUERY_SYNTAX,
                Severity::Error,
                Anchor::Graph,
                format!("query syntax error: {e}"),
            );
            (None, d.finish())
        }
        Ok(q) => {
            let schema = Schema::for_view(q.view());
            let diags = lint_query(&q, &schema);
            (Some(q), diags)
        }
    }
}

/// Lint a parsed query against a schema (static or PAG-derived).
pub fn lint_query(q: &Query, schema: &Schema) -> Diagnostics {
    let mut d = Diagnostics::new();
    lint_into(q, schema, &mut d);
    d.finish()
}

/// Interval constraints accumulated over a conjunctive filter chain,
/// used to prove a chain empty (PF0305). `join` resets the state (a
/// union can re-admit rows), and `score` resets the `score` pseudo-field.
#[derive(Default)]
struct Constraints {
    num: BTreeMap<String, NumRange>,
    str_eq: BTreeMap<String, String>,
}

#[derive(Clone, Copy)]
struct NumRange {
    lo: f64,
    lo_strict: bool,
    hi: f64,
    hi_strict: bool,
}

impl Default for NumRange {
    fn default() -> Self {
        NumRange {
            lo: f64::NEG_INFINITY,
            lo_strict: false,
            hi: f64::INFINITY,
            hi_strict: false,
        }
    }
}

impl NumRange {
    fn apply(&mut self, op: CmpOp, val: f64) {
        match op {
            CmpOp::Lt => {
                if val < self.hi || (val == self.hi && !self.hi_strict) {
                    self.hi = val;
                    self.hi_strict = true;
                }
            }
            CmpOp::Le => {
                if val < self.hi {
                    self.hi = val;
                    self.hi_strict = false;
                }
            }
            CmpOp::Gt => {
                if val > self.lo || (val == self.lo && !self.lo_strict) {
                    self.lo = val;
                    self.lo_strict = true;
                }
            }
            CmpOp::Ge => {
                if val > self.lo {
                    self.lo = val;
                    self.lo_strict = false;
                }
            }
            CmpOp::Eq => {
                self.apply(CmpOp::Ge, val);
                self.apply(CmpOp::Le, val);
            }
            CmpOp::Ne | CmpOp::Glob => {}
        }
    }

    fn satisfiable(&self) -> bool {
        self.lo < self.hi || (self.lo == self.hi && !self.lo_strict && !self.hi_strict)
    }
}

fn lint_into(q: &Query, schema: &Schema, d: &mut Diagnostics) {
    let view = q.view();
    let mut cons = Constraints::default();
    for (index, stage) in q.stages.iter().enumerate() {
        let anchor = Anchor::Stage {
            index,
            op: stage.op_name(),
        };
        match stage {
            Stage::From(_) => {}
            Stage::Filter { field, op, value } => {
                let ty = check_field(field, view, schema, d, &anchor);
                if let Some(ty) = ty {
                    check_filter_types(field, *op, value, ty, d, &anchor);
                }
                check_filter_emptiness(field, *op, value, ty, &mut cons, d, &anchor);
            }
            Stage::Score(field) => {
                let ty = check_field(field, view, schema, d, &anchor);
                if let Some(ty) = ty {
                    if ty != Ty::Num {
                        d.push(
                            codes::QUERY_TYPE_MISMATCH,
                            Severity::Error,
                            anchor.clone(),
                            format!(
                                "`score` needs a scalar metric, but `{}` is a {}",
                                field.name,
                                ty.name()
                            ),
                        );
                    }
                }
                // Scores change, so earlier `score` constraints no longer
                // describe the new values.
                cons.num.remove("score");
            }
            Stage::Sort { field, nan, .. } => {
                let ty = check_field(field, view, schema, d, &anchor);
                if let Some(ty) = ty {
                    if ty != Ty::Num {
                        d.push(
                            codes::QUERY_TYPE_MISMATCH,
                            Severity::Error,
                            anchor.clone(),
                            format!(
                                "sort key must be a scalar metric, but `{}` is a {}",
                                field.name,
                                ty.name()
                            ),
                        );
                    }
                }
                if *nan == NanPolicy::Unspecified {
                    d.push(
                        codes::QUERY_NAN_ORDER,
                        Severity::Warn,
                        anchor.clone(),
                        format!(
                            "sort over `{}` picks no NaN policy; degraded runs may carry NaN \
                             metrics, and execution falls back to `pag::ord::desc_nan_last` \
                             semantics — write `nan_last` or `nan_first` explicitly",
                            field.name
                        ),
                    );
                }
            }
            Stage::Top(n) => {
                if *n == 0 {
                    d.push(
                        codes::QUERY_EMPTY_RESULT,
                        Severity::Error,
                        anchor.clone(),
                        "`top 0` always yields an empty set",
                    );
                }
            }
            Stage::Join { query: sub, .. } => {
                if sub.view() != view {
                    d.push(
                        codes::QUERY_TYPE_MISMATCH,
                        Severity::Error,
                        anchor.clone(),
                        format!(
                            "join operands read different views: outer query reads `{}`, \
                             subquery reads `{}` (set operations need one graph)",
                            view.name(),
                            sub.view().name()
                        ),
                    );
                } else {
                    lint_into(sub, schema, d);
                }
                // A union may re-admit rows earlier filters excluded.
                cons = Constraints::default();
            }
            Stage::Select(fields) => {
                for field in fields {
                    check_field(field, view, schema, d, &anchor);
                }
            }
            Stage::Sum(field) => {
                let ty = check_field(field, view, schema, d, &anchor);
                if let Some(ty) = ty {
                    if ty != Ty::Num {
                        d.push(
                            codes::QUERY_TYPE_MISMATCH,
                            Severity::Error,
                            anchor.clone(),
                            format!(
                                "`sum` needs a scalar metric, but `{}` is a {}",
                                field.name,
                                ty.name()
                            ),
                        );
                    }
                }
            }
            Stage::Group { by, sum } => {
                let by_ty = check_field(by, view, schema, d, &anchor);
                if by_ty == Some(Ty::Vec) {
                    d.push(
                        codes::QUERY_TYPE_MISMATCH,
                        Severity::Error,
                        anchor.clone(),
                        format!(
                            "cannot group by vector metric `{}`; group keys must be scalar \
                             metrics or string attributes",
                            by.name
                        ),
                    );
                }
                let sum_ty = check_field(sum, view, schema, d, &anchor);
                if let Some(ty) = sum_ty {
                    if ty != Ty::Num {
                        d.push(
                            codes::QUERY_TYPE_MISMATCH,
                            Severity::Error,
                            anchor.clone(),
                            format!(
                                "`group ... sum` needs a scalar metric, but `{}` is a {}",
                                sum.name,
                                ty.name()
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// Resolve a field's type, reporting PF0301 (unknown name) and PF0303
/// (absent in the target view) as applicable.
/// Returns `None` when no type is known (lint continues best-effort).
fn check_field(
    field: &Field,
    view: View,
    schema: &Schema,
    d: &mut Diagnostics,
    anchor: &Anchor,
) -> Option<Ty> {
    match schema.lookup(&field.name) {
        None => {
            let suggestion = schema
                .suggest(&field.name)
                .map(|s| format!("; did you mean `{s}`?"))
                .unwrap_or_default();
            d.push(
                codes::QUERY_UNKNOWN_FIELD,
                Severity::Error,
                anchor.clone(),
                format!("unknown metric or field `{}`{suggestion}", field.name),
            );
            None
        }
        Some(ty) => {
            if !schema.present_in(&field.name, view) {
                let other = match view {
                    View::Vertices => View::Parallel,
                    View::Parallel => View::Vertices,
                };
                let hint = if schema.present_in(&field.name, other) {
                    format!(
                        "; it is only materialized in the {} view (`from {}`)",
                        match other {
                            View::Vertices => "top-down",
                            View::Parallel => "parallel",
                        },
                        other.name()
                    )
                } else {
                    String::new()
                };
                d.push(
                    codes::QUERY_ABSENT_COLUMN,
                    Severity::Error,
                    anchor.clone(),
                    format!(
                        "column `{}` is never materialized in the {} view{hint}",
                        field.name,
                        match view {
                            View::Vertices => "top-down",
                            View::Parallel => "parallel",
                        }
                    ),
                );
            }
            Some(ty)
        }
    }
}

/// PF0302: operator/operand type agreement for one filter.
fn check_filter_types(
    field: &Field,
    op: CmpOp,
    value: &Value,
    ty: Ty,
    d: &mut Diagnostics,
    anchor: &Anchor,
) {
    let mut mismatch = |msg: String| {
        d.push(
            codes::QUERY_TYPE_MISMATCH,
            Severity::Error,
            anchor.clone(),
            msg,
        );
    };
    if ty == Ty::Vec {
        mismatch(format!(
            "cannot filter on vector metric `{}`; reduce it to a scalar first",
            field.name
        ));
        return;
    }
    match op {
        CmpOp::Glob => {
            if ty != Ty::Str {
                mismatch(format!(
                    "glob match `~` only applies to string attributes, but `{}` is a {}",
                    field.name,
                    ty.name()
                ));
            } else if !matches!(value, Value::Str(_)) {
                mismatch(format!(
                    "glob match `~` needs a string pattern on the right of `{}`",
                    field.name
                ));
            }
        }
        op if op.is_range() => match (ty, value) {
            (Ty::Num, Value::Num(_)) => {}
            (Ty::Str, _) => mismatch(format!(
                "range comparison `{}` does not apply to string attribute `{}`",
                op.symbol(),
                field.name
            )),
            (Ty::Num, Value::Str(s)) => mismatch(format!(
                "scalar metric `{}` compared against string \"{s}\"",
                field.name
            )),
            _ => unreachable!("vector handled above"),
        },
        CmpOp::Eq | CmpOp::Ne => match (ty, value) {
            (Ty::Num, Value::Num(_)) | (Ty::Str, Value::Str(_)) => {}
            (Ty::Num, Value::Str(s)) => mismatch(format!(
                "scalar metric `{}` compared against string \"{s}\"",
                field.name
            )),
            (Ty::Str, Value::Num(n)) => mismatch(format!(
                "string attribute `{}` compared against number {n}",
                field.name
            )),
            _ => unreachable!("vector handled above"),
        },
        _ => unreachable!("all operators covered"),
    }
}

/// PF0305: always-false predicates and contradictory chains.
fn check_filter_emptiness(
    field: &Field,
    op: CmpOp,
    value: &Value,
    ty: Option<Ty>,
    cons: &mut Constraints,
    d: &mut Diagnostics,
    anchor: &Anchor,
) {
    let mut empty = |msg: String| {
        d.push(
            codes::QUERY_EMPTY_RESULT,
            Severity::Error,
            anchor.clone(),
            msg,
        );
    };
    match value {
        // `!= nan` is vacuously true for every non-NaN row; nothing to flag,
        // and the NaN literal must not feed the numeric range constraints.
        Value::Num(n) if n.is_nan() && op == CmpOp::Ne => {}
        Value::Num(n) if n.is_nan() => {
            // IEEE comparisons with NaN are false for every other operator.
            empty(format!(
                "`{} {} nan` is always false (IEEE NaN compares false); \
                 this filter empties the set",
                field.name,
                op.symbol()
            ));
        }
        Value::Num(n) if ty == Some(Ty::Num) => {
            let range = cons.num.entry(field.name.clone()).or_default();
            let was_satisfiable = range.satisfiable();
            range.apply(op, *n);
            if was_satisfiable && !range.satisfiable() {
                empty(format!(
                    "`{} {} {n}` contradicts earlier filters on `{}`; no row can satisfy \
                     the chain",
                    field.name,
                    op.symbol(),
                    field.name
                ));
            }
        }
        Value::Str(s) if op == CmpOp::Eq => {
            if let Some(prev) = cons.str_eq.get(&field.name) {
                if prev != s {
                    empty(format!(
                        "`{} == \"{s}\"` contradicts the earlier `{} == \"{prev}\"`",
                        field.name, field.name
                    ));
                }
            } else {
                cons.str_eq.insert(field.name.clone(), s.clone());
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes_of(d: &Diagnostics) -> Vec<&'static str> {
        d.items().iter().map(|i| i.code).collect()
    }

    fn lint(src: &str) -> Diagnostics {
        lint_query_text(src).1
    }

    #[test]
    fn clean_hotspot_query_has_no_findings() {
        let d = lint(
            "from vertices | score time | sort score desc nan_last | top 15 \
             | select name, label, debug-info, time",
        );
        assert!(d.is_empty(), "{}", d.render_text());
    }

    #[test]
    fn pf0300_fires_on_syntax_errors() {
        let d = lint("from vertices | top banana");
        assert_eq!(codes_of(&d), vec![codes::QUERY_SYNTAX]);
        assert!(d.has_errors());
        assert!(d.items()[0].message.contains("syntax error"));
        let (q, _) = lint_query_text("from vertices | top banana");
        assert!(q.is_none(), "unparseable query yields no AST");
    }

    #[test]
    fn pf0301_fires_on_unknown_fields_with_suggestion() {
        let d = lint("from vertices | filter tme > 1");
        assert_eq!(codes_of(&d), vec![codes::QUERY_UNKNOWN_FIELD]);
        let msg = &d.items()[0].message;
        assert!(msg.contains("did you mean `time`?"), "{msg}");
        assert!(
            matches!(
                d.items()[0].anchor,
                Anchor::Stage {
                    index: 1,
                    op: "filter"
                }
            ),
            "{:?}",
            d.items()[0].anchor
        );
        // Far-off names get no suggestion but still fire.
        let d = lint("from vertices | sum zzzzzzzzz");
        assert_eq!(codes_of(&d), vec![codes::QUERY_UNKNOWN_FIELD]);
        assert!(!d.items()[0].message.contains("did you mean"));
    }

    #[test]
    fn pf0302_fires_on_type_mismatches() {
        // Range comparison over a string attribute.
        let d = lint("from vertices | filter name > 3");
        assert_eq!(codes_of(&d), vec![codes::QUERY_TYPE_MISMATCH]);
        // Filtering a vector metric at all.
        let d = lint("from vertices | filter time-per-proc > 1");
        assert_eq!(codes_of(&d), vec![codes::QUERY_TYPE_MISMATCH]);
        // Glob over a scalar metric.
        let d = lint("from vertices | filter time ~ \"x*\"");
        assert_eq!(codes_of(&d), vec![codes::QUERY_TYPE_MISMATCH]);
        // Scalar metric vs string literal.
        let d = lint("from vertices | filter time == \"fast\"");
        assert_eq!(codes_of(&d), vec![codes::QUERY_TYPE_MISMATCH]);
        // Sorting / summing non-scalars.
        let d = lint("from vertices | sort name asc nan_last");
        assert_eq!(codes_of(&d), vec![codes::QUERY_TYPE_MISMATCH]);
        let d = lint("from vertices | sum name");
        assert_eq!(codes_of(&d), vec![codes::QUERY_TYPE_MISMATCH]);
        // Join across views.
        let d = lint("from vertices | join union (from parallel)");
        assert_eq!(codes_of(&d), vec![codes::QUERY_TYPE_MISMATCH]);
        assert!(d.items()[0].message.contains("different views"));
    }

    #[test]
    fn pf0303_fires_on_view_absent_columns() {
        let d = lint("from vertices | filter proc == 0");
        assert_eq!(codes_of(&d), vec![codes::QUERY_ABSENT_COLUMN]);
        assert!(
            d.items()[0].message.contains("`from parallel`"),
            "{}",
            d.items()[0].message
        );
        let d = lint("from parallel | select name, time-per-proc");
        assert_eq!(codes_of(&d), vec![codes::QUERY_ABSENT_COLUMN]);
    }

    #[test]
    fn pf0304_warns_on_nan_unsafe_sort() {
        let d = lint("from vertices | sort time");
        assert_eq!(codes_of(&d), vec![codes::QUERY_NAN_ORDER]);
        assert_eq!(d.items()[0].severity, Severity::Warn);
        assert!(!d.has_errors(), "PF0304 alone must not gate execution");
        // An explicit policy silences it.
        assert!(lint("from vertices | sort time desc nan_last").is_empty());
        assert!(lint("from vertices | sort time asc nan_first").is_empty());
    }

    #[test]
    fn pf0305_fires_on_provably_empty_chains() {
        // Contradictory range predicates.
        let d = lint("from vertices | filter time > 5 | filter time < 3");
        assert_eq!(codes_of(&d), vec![codes::QUERY_EMPTY_RESULT]);
        // Equality to two different constants.
        let d = lint("from vertices | filter count == 1 | filter count == 2");
        assert_eq!(codes_of(&d), vec![codes::QUERY_EMPTY_RESULT]);
        // Two different string equalities.
        let d = lint("from vertices | filter name == \"a\" | filter name == \"b\"");
        assert_eq!(codes_of(&d), vec![codes::QUERY_EMPTY_RESULT]);
        // NaN comparisons are always false.
        let d = lint("from vertices | filter time == nan");
        assert_eq!(codes_of(&d), vec![codes::QUERY_EMPTY_RESULT]);
        // `top 0`.
        let d = lint("from vertices | top 0");
        assert_eq!(codes_of(&d), vec![codes::QUERY_EMPTY_RESULT]);
        // Boundary arithmetic: `>= 5` then `<= 5` is satisfiable...
        assert!(lint("from vertices | filter time >= 5 | filter time <= 5").is_empty());
        // ...but `> 5` then `<= 5` is not.
        let d = lint("from vertices | filter time > 5 | filter time <= 5");
        assert_eq!(codes_of(&d), vec![codes::QUERY_EMPTY_RESULT]);
        // `!= nan` is always true, not always false.
        assert!(lint("from vertices | filter time != nan").is_empty());
        // A join resets the chain: the union may re-admit rows.
        assert!(lint(
            "from vertices | filter time > 5 \
             | join union (from vertices | filter time < 3) | filter time < 3"
        )
        .is_empty());
    }

    #[test]
    fn subquery_findings_are_reported() {
        let d = lint("from vertices | join minus (from vertices | filter tme > 1)");
        assert_eq!(codes_of(&d), vec![codes::QUERY_UNKNOWN_FIELD]);
    }

    #[test]
    fn diagnostics_are_sorted_and_order_invariant() {
        // One query tripping several families at once; emission must come
        // out in (code, anchor, message) order however the walk found them.
        let src = "from vertices | sort proc | filter tme > 1 | filter time == nan \
                   | select time-per-proc";
        let d = lint(src);
        let codes = codes_of(&d);
        let mut sorted = codes.clone();
        sorted.sort();
        assert_eq!(codes, sorted, "emission must be code-sorted");
        assert!(codes.contains(&codes::QUERY_UNKNOWN_FIELD));
        assert!(codes.contains(&codes::QUERY_ABSENT_COLUMN));
        assert!(codes.contains(&codes::QUERY_NAN_ORDER));
        assert!(codes.contains(&codes::QUERY_EMPTY_RESULT));
        // Linting twice renders identically.
        assert_eq!(d.render_text(), lint(src).render_text());
        assert_eq!(d.to_json().render(), lint(src).to_json().render());
    }
}
