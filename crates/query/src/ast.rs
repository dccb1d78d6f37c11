//! The typed query AST and its canonical text rendering.
//!
//! `Query::render()` emits the canonical form of a query: stages joined
//! with ` | `, fields bare when they are plain identifiers and quoted
//! (with escapes) otherwise. The renderer and parser are exact inverses:
//! `parse(render(q)) == q` for every well-formed AST, which the proptest
//! suite exercises over hostile metric names.

use std::fmt::Write as _;

/// Which PAG view a query reads (`from vertices` / `from parallel`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum View {
    /// The top-down (program-structure) view.
    Vertices,
    /// The parallel (per-rank/thread) view.
    Parallel,
}

impl View {
    /// The keyword naming this view in query text.
    pub fn name(self) -> &'static str {
        match self {
            View::Vertices => "vertices",
            View::Parallel => "parallel",
        }
    }
}

/// A metric/attribute reference.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Field {
    /// Key name (metric column, `score`, or a string attribute).
    pub name: String,
}

impl Field {
    /// The field called `name`.
    pub fn named(name: impl Into<String>) -> Field {
        Field { name: name.into() }
    }

    fn render(&self, out: &mut String) {
        if is_bare_ident(&self.name) {
            out.push_str(&self.name);
        } else {
            render_quoted(&self.name, out);
        }
    }
}

/// Comparison operators usable in `filter`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `~` (glob match, strings only)
    Glob,
}

impl CmpOp {
    /// The operator's surface syntax.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Glob => "~",
        }
    }

    /// True for the range operators `<`, `<=`, `>`, `>=`.
    pub fn is_range(self) -> bool {
        matches!(self, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge)
    }
}

/// A literal on the right-hand side of a `filter`.
#[derive(Debug, Clone)]
pub enum Value {
    /// A number (including `nan`, `inf`, `-inf`).
    Num(f64),
    /// A quoted string.
    Str(String),
}

// Bit-level equality so NaN literals compare equal and the
// parse→render→parse round trip is a plain `==`.
impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Num(a), Value::Num(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }
}

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// Ascending.
    Asc,
    /// Descending (the default, matching `VertexSet::sort_by`).
    Desc,
}

/// Where NaN metric values sort. `Unspecified` falls back to
/// `pag::ord::desc_nan_last` semantics and lints as PF0304.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NanPolicy {
    /// No explicit policy in the query text.
    Unspecified,
    /// NaNs sort after every real value.
    NanLast,
    /// NaNs sort before every real value.
    NanFirst,
}

/// Set operation joining a subquery's result (`join union (...)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Set union.
    Union,
    /// Set intersection.
    Intersect,
    /// Set difference.
    Minus,
}

impl JoinKind {
    /// The keyword naming this join kind.
    pub fn name(self) -> &'static str {
        match self {
            JoinKind::Union => "union",
            JoinKind::Intersect => "intersect",
            JoinKind::Minus => "minus",
        }
    }
}

/// One pipeline stage.
#[derive(Debug, Clone, PartialEq)]
pub enum Stage {
    /// `from vertices` / `from parallel` — always the first stage.
    From(View),
    /// `filter <field> <op> <value>` — keep members satisfying the predicate.
    Filter {
        /// Left-hand side.
        field: Field,
        /// Comparison operator.
        op: CmpOp,
        /// Right-hand side literal.
        value: Value,
    },
    /// `score <field>` — set each member's score to the metric weighted by
    /// data completeness (the hotspot paradigm's weighting).
    Score(Field),
    /// `sort <field> asc|desc [nan_last|nan_first]`.
    Sort {
        /// Sort key.
        field: Field,
        /// Direction.
        order: Order,
        /// NaN placement.
        nan: NanPolicy,
    },
    /// `top <n>` — truncate to the first `n` members.
    Top(usize),
    /// `join union|intersect|minus ( <subquery> )`.
    Join {
        /// Which set operation.
        kind: JoinKind,
        /// The right-hand operand.
        query: Box<Query>,
    },
    /// `select <field>, ...` — terminal: emit a report table.
    Select(Vec<Field>),
    /// `sum <field>` — terminal: emit the column sum.
    Sum(Field),
    /// `group <field> sum <field>` — terminal: per-group sums.
    Group {
        /// Grouping key.
        by: Field,
        /// Summed metric.
        sum: Field,
    },
}

impl Stage {
    /// The keyword introducing this stage (used in diagnostics anchors).
    pub fn op_name(&self) -> &'static str {
        match self {
            Stage::From(_) => "from",
            Stage::Filter { .. } => "filter",
            Stage::Score(_) => "score",
            Stage::Sort { .. } => "sort",
            Stage::Top(_) => "top",
            Stage::Join { .. } => "join",
            Stage::Select(_) => "select",
            Stage::Sum(_) => "sum",
            Stage::Group { .. } => "group",
        }
    }

    /// True for stages that must terminate the pipeline.
    pub fn is_terminal(&self) -> bool {
        matches!(self, Stage::Select(_) | Stage::Sum(_) | Stage::Group { .. })
    }

    fn render(&self, out: &mut String) {
        match self {
            Stage::From(view) => {
                out.push_str("from ");
                out.push_str(view.name());
            }
            Stage::Filter { field, op, value } => {
                out.push_str("filter ");
                field.render(out);
                out.push(' ');
                out.push_str(op.symbol());
                out.push(' ');
                render_value(value, out);
            }
            Stage::Score(field) => {
                out.push_str("score ");
                field.render(out);
            }
            Stage::Sort { field, order, nan } => {
                out.push_str("sort ");
                field.render(out);
                out.push_str(match order {
                    Order::Asc => " asc",
                    Order::Desc => " desc",
                });
                match nan {
                    NanPolicy::Unspecified => {}
                    NanPolicy::NanLast => out.push_str(" nan_last"),
                    NanPolicy::NanFirst => out.push_str(" nan_first"),
                }
            }
            Stage::Top(n) => {
                let _ = write!(out, "top {n}");
            }
            Stage::Join { kind, query } => {
                out.push_str("join ");
                out.push_str(kind.name());
                out.push_str(" (");
                out.push_str(&query.render());
                out.push(')');
            }
            Stage::Select(fields) => {
                out.push_str("select ");
                for (i, f) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    f.render(out);
                }
            }
            Stage::Sum(field) => {
                out.push_str("sum ");
                field.render(out);
            }
            Stage::Group { by, sum } => {
                out.push_str("group ");
                by.render(out);
                out.push_str(" sum ");
                sum.render(out);
            }
        }
    }
}

/// A parsed query: a `from` stage followed by a pipeline of stages.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The stages, in pipeline order. The first is always `Stage::From`.
    pub stages: Vec<Stage>,
}

impl Query {
    /// Parse query text (see [`crate::parser`] for the grammar).
    pub fn parse(src: &str) -> Result<Query, crate::ParseError> {
        crate::parser::parse(src)
    }

    /// The view this query reads.
    pub fn view(&self) -> View {
        match self.stages.first() {
            Some(Stage::From(v)) => *v,
            _ => View::Vertices,
        }
    }

    /// Canonical text form; `Query::parse(q.render()) == q`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, stage) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push_str(" | ");
            }
            stage.render(&mut out);
        }
        out
    }
}

/// True when `name` can be rendered without quotes: an identifier of the
/// form `[A-Za-z_][A-Za-z0-9_.-]*` that is not a float literal keyword
/// (`nan` / `inf` lex as numbers, so those names must be quoted).
pub fn is_bare_ident(name: &str) -> bool {
    if name == "nan" || name == "inf" {
        return false;
    }
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn render_quoted(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{{{:x}}}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn render_value(v: &Value, out: &mut String) {
    match v {
        Value::Num(n) => {
            if n.is_nan() {
                out.push_str("nan");
            } else if *n == f64::INFINITY {
                out.push_str("inf");
            } else if *n == f64::NEG_INFINITY {
                out.push_str("-inf");
            } else {
                // Rust's float Display is shortest-round-trip, so the
                // rendered literal parses back to the identical bits.
                let _ = write!(out, "{n}");
            }
        }
        Value::Str(s) => render_quoted(s, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_ident_classification() {
        assert!(is_bare_ident("time"));
        assert!(is_bare_ident("debug-info"));
        assert!(is_bare_ident("_x.y-z2"));
        assert!(!is_bare_ident(""));
        assert!(!is_bare_ident("2fast"));
        assert!(!is_bare_ident("has space"));
        assert!(!is_bare_ident("quo\"te"));
        assert!(!is_bare_ident("-leading"));
        assert!(!is_bare_ident("nan"), "would lex as a float literal");
        assert!(!is_bare_ident("inf"), "would lex as a float literal");
    }

    #[test]
    fn hostile_names_render_quoted() {
        let f = Field::named("we\"ird\\name\n");
        let mut out = String::new();
        f.render(&mut out);
        assert_eq!(out, "\"we\\\"ird\\\\name\\n\"");
    }

    #[test]
    fn value_equality_is_bitwise() {
        assert_eq!(Value::Num(f64::NAN), Value::Num(f64::NAN));
        assert_ne!(Value::Num(0.0), Value::Num(-0.0));
        assert_eq!(Value::Str("a".into()), Value::Str("a".into()));
        assert_ne!(Value::Num(1.0), Value::Str("1".into()));
    }
}
