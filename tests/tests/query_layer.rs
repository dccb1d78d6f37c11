//! Property tests for the perflow-query layer: the canonical-text
//! round trip over hostile field names, determinism of the PF03xx
//! lint, and the workspace-wide single-JSON-escaper invariant that
//! keeps obs, verify and serve byte-identical on hostile strings.

use proptest::prelude::*;
use query::{CmpOp, Field, JoinKind, NanPolicy, Order, Query, Stage, Value, View};
use verify::{codes, lint_query_text, Anchor, Diagnostics, Severity};

// ---------------------------------------------------------------------------
// AST strategies
// ---------------------------------------------------------------------------

/// Arbitrary unicode strings (including control characters) built from
/// the lite runner's `char` primitive.
fn wild_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<char>(), 0..12).prop_map(|v| v.into_iter().collect())
}

/// Field names from friendly to hostile: bare identifiers, names that
/// must be quoted (spaces, quotes, backslashes, control characters,
/// unicode), and the `nan`/`inf` keywords that lex as float literals.
fn hostile_name() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z_][a-z0-9_.-]{0,10}",
        wild_string(),
        Just("nan".to_string()),
        Just("inf".to_string()),
        Just("a b\"c\\d\ne\tf".to_string()),
        Just("\u{1}\u{7f}\u{3b1} quoted name".to_string()),
        Just("time".to_string()),
    ]
}

fn field() -> impl Strategy<Value = Field> {
    hostile_name().prop_map(Field::named)
}

fn cmp_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
        Just(CmpOp::Glob),
    ]
}

/// Literals. NaN is canonicalised to `f64::NAN` because the surface
/// syntax only has one `nan` token — payload bits cannot round-trip.
fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<f64>().prop_map(|n| Value::Num(if n.is_nan() { f64::NAN } else { n })),
        Just(Value::Num(f64::NAN)),
        Just(Value::Num(f64::INFINITY)),
        Just(Value::Num(f64::NEG_INFINITY)),
        hostile_name().prop_map(Value::Str),
    ]
}

fn mid_stage() -> impl Strategy<Value = Stage> {
    prop_oneof![
        (field(), cmp_op(), value()).prop_map(|(field, op, value)| Stage::Filter {
            field,
            op,
            value
        }),
        field().prop_map(Stage::Score),
        (
            field(),
            prop_oneof![Just(Order::Asc), Just(Order::Desc)],
            prop_oneof![
                Just(NanPolicy::Unspecified),
                Just(NanPolicy::NanLast),
                Just(NanPolicy::NanFirst)
            ],
        )
            .prop_map(|(field, order, nan)| Stage::Sort { field, order, nan }),
        (0usize..1_000_000).prop_map(Stage::Top),
    ]
}

fn terminal() -> impl Strategy<Value = Stage> {
    prop_oneof![
        proptest::collection::vec(field(), 1..4).prop_map(Stage::Select),
        field().prop_map(Stage::Sum),
        (field(), field()).prop_map(|(by, sum)| Stage::Group { by, sum }),
    ]
}

fn view() -> impl Strategy<Value = View> {
    prop_oneof![Just(View::Vertices), Just(View::Parallel)]
}

/// A join-free pipeline; `with_terminal` controls whether it may end in
/// a terminal stage (join subqueries must not).
fn flat_query(with_terminal: bool) -> impl Strategy<Value = Query> {
    (
        view(),
        proptest::collection::vec(mid_stage(), 0..4),
        proptest::option::of(terminal()),
    )
        .prop_map(move |(v, mids, term)| {
            let mut stages = vec![Stage::From(v)];
            stages.extend(mids);
            if with_terminal {
                if let Some(t) = term {
                    stages.push(t);
                }
            }
            Query { stages }
        })
}

/// A pipeline that may contain one `join` stage (one level of nesting,
/// matching what the grammar and linter exercise most).
fn any_query() -> impl Strategy<Value = Query> {
    (
        view(),
        proptest::collection::vec(mid_stage(), 0..3),
        proptest::option::of((
            prop_oneof![
                Just(JoinKind::Union),
                Just(JoinKind::Intersect),
                Just(JoinKind::Minus)
            ],
            flat_query(false),
        )),
        proptest::option::of(terminal()),
    )
        .prop_map(|(v, mids, join, term)| {
            let mut stages = vec![Stage::From(v)];
            stages.extend(mids);
            if let Some((kind, sub)) = join {
                stages.push(Stage::Join {
                    kind,
                    query: Box::new(sub),
                });
            }
            if let Some(t) = term {
                stages.push(t);
            }
            Query { stages }
        })
}

proptest! {
    /// `Query::parse(q.render()) == q` for every constructible query,
    /// including field names full of quotes, backslashes, newlines and
    /// arbitrary unicode: quoting/escaping must be lossless.
    #[test]
    fn parse_render_parse_round_trips(q in any_query()) {
        let text = q.render();
        let back = Query::parse(&text)
            .unwrap_or_else(|e| panic!("canonical text failed to parse: {e:?}\n{text}"));
        prop_assert_eq!(&back, &q, "round trip changed the query\ntext: {}", text);
        // The canonical form is a fixed point.
        prop_assert_eq!(back.render(), text);
    }

    /// The static analyzer is a pure function of the query text: two
    /// lints of the same text render identically, byte for byte.
    #[test]
    fn lint_is_deterministic(q in any_query()) {
        let text = q.render();
        let (_, a) = lint_query_text(&text);
        let (_, b) = lint_query_text(&text);
        prop_assert_eq!(a.render_text(), b.render_text());
        prop_assert_eq!(a.to_json().render(), b.to_json().render());
    }

    /// The one JSON writer's string literals parse back, through the one
    /// JSON parser (`obs::json`, which the daemon uses for its request
    /// bodies), to the string that was written.
    #[test]
    fn json_escaping_is_unified_and_parseable(s in hostile_name()) {
        let literal = obs::json::Json::Str(s.clone()).render();
        let parsed = obs::json::Json::parse(&literal)
            .unwrap_or_else(|e| panic!("escaped literal failed to parse: {e}\n{literal}"));
        prop_assert_eq!(parsed, obs::json::Json::Str(s));
    }
}

/// Diagnostics render in canonical `(code, anchor, message)` order no
/// matter what order the analyzer discovered them in.
#[test]
fn diagnostics_are_insertion_order_invariant() {
    let findings = [
        (
            codes::QUERY_TYPE_MISMATCH,
            Severity::Error,
            Anchor::Stage {
                index: 2,
                op: "filter",
            },
            "type mismatch".to_string(),
        ),
        (
            codes::QUERY_UNKNOWN_FIELD,
            Severity::Error,
            Anchor::Stage {
                index: 1,
                op: "filter",
            },
            "unknown metric or field `tme`".to_string(),
        ),
        (
            codes::QUERY_NAN_ORDER,
            Severity::Warn,
            Anchor::Stage {
                index: 3,
                op: "sort",
            },
            "no NaN policy".to_string(),
        ),
        (
            codes::QUERY_UNKNOWN_FIELD,
            Severity::Error,
            Anchor::Stage {
                index: 1,
                op: "filter",
            },
            "unknown metric or field `lable`".to_string(),
        ),
    ];
    let mut forward = Diagnostics::new();
    for (code, sev, anchor, msg) in findings.iter().cloned() {
        forward.push(code, sev, anchor, msg);
    }
    let mut backward = Diagnostics::new();
    for (code, sev, anchor, msg) in findings.iter().rev().cloned() {
        backward.push(code, sev, anchor, msg);
    }
    let forward = forward.finish();
    let backward = backward.finish();
    assert_eq!(forward.render_text(), backward.render_text());
    assert_eq!(forward.to_json().render(), backward.to_json().render());
    let codes_in_order: Vec<&str> = forward.items().iter().map(|d| d.code).collect();
    assert_eq!(
        codes_in_order,
        vec![
            codes::QUERY_UNKNOWN_FIELD,
            codes::QUERY_UNKNOWN_FIELD,
            codes::QUERY_TYPE_MISMATCH,
            codes::QUERY_NAN_ORDER,
        ]
    );
}

/// The real-world lint path is order-invariant too: a query whose text
/// produces several findings always reports them in code order.
#[test]
fn lint_orders_mixed_findings_canonically() {
    let (_, d) = lint_query_text("from vertices | sort tme desc | filter label == 3 | select name");
    assert!(d.has_errors());
    let codes_seen: Vec<&str> = d.items().iter().map(|x| x.code).collect();
    let mut sorted = codes_seen.clone();
    sorted.sort();
    assert_eq!(
        codes_seen, sorted,
        "diagnostics not in canonical order: {codes_seen:?}"
    );
}

/// The retired `shim:` field prefix is an ordinary syntax error: one
/// PF0300 and no AST.
#[test]
fn retired_shim_prefix_is_a_syntax_error() {
    let (q, d) = lint_query_text("from vertices | filter shim:region == \"main\"");
    assert!(q.is_none());
    let codes_seen: Vec<&str> = d.items().iter().map(|x| x.code).collect();
    assert_eq!(codes_seen, [codes::QUERY_SYNTAX]);
}
