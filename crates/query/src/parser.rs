//! Recursive-descent parser for the query pipeline grammar.
//!
//! ```text
//! query  := from ( '|' stage )*
//! from   := 'from' ( 'vertices' | 'parallel' )
//! stage  := 'filter' field op value
//!         | 'score'  field
//!         | 'sort'   field [ 'asc' | 'desc' ] [ 'nan_last' | 'nan_first' ]
//!         | 'top'    INT
//!         | 'join'   ( 'union' | 'intersect' | 'minus' ) '(' query ')'
//!         | 'select' field ( ',' field )*          -- terminal
//!         | 'sum'    field                          -- terminal
//!         | 'group'  field 'sum' field              -- terminal
//! field  := IDENT | STRING
//! op     := '==' | '!=' | '<' | '<=' | '>' | '>=' | '~'
//! value  := NUMBER | 'nan' | 'inf' | '-inf' | STRING
//! ```
//!
//! Terminal stages must end the pipeline; a missing sort direction
//! normalizes to `desc` (the `VertexSet::sort_by` default), so rendering
//! a parsed query and re-parsing it yields the identical AST.

use crate::ast::{Field, JoinKind, NanPolicy, Order, Query, Stage, Value, View};
use crate::lexer::{lex, Spanned, Tok};
use crate::ParseError;

/// Nested `join (...)` depth cap, to bound recursion on hostile input.
const MAX_JOIN_DEPTH: usize = 16;

/// Parse query text into an AST.
pub fn parse(src: &str) -> Result<Query, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks: &toks,
        at: 0,
        end: src.len(),
    };
    let q = p.query(0)?;
    match p.peek() {
        None => Ok(q),
        Some(s) => Err(ParseError {
            at: s.at,
            message: format!("trailing {} after query", s.tok.describe()),
        }),
    }
}

struct Parser<'a> {
    toks: &'a [Spanned],
    at: usize,
    end: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<&Spanned> {
        self.toks.get(self.at)
    }

    fn pos(&self) -> usize {
        self.peek().map_or(self.end, |s| s.at)
    }

    fn next(&mut self, expected: &str) -> Result<&Spanned, ParseError> {
        let s = self.toks.get(self.at).ok_or(ParseError {
            at: self.end,
            message: format!("expected {expected}, found end of query"),
        })?;
        self.at += 1;
        Ok(s)
    }

    fn keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        let at = self.pos();
        match self.next(&format!("`{kw}`"))? {
            Spanned {
                tok: Tok::Ident(w), ..
            } if w == kw => Ok(()),
            s => Err(ParseError {
                at,
                message: format!("expected `{kw}`, found {}", s.tok.describe()),
            }),
        }
    }

    fn query(&mut self, depth: usize) -> Result<Query, ParseError> {
        if depth > MAX_JOIN_DEPTH {
            return Err(ParseError {
                at: self.pos(),
                message: "join nesting too deep".into(),
            });
        }
        let mut stages = vec![self.parse_from_stage()?];
        while let Some(s) = self.peek() {
            if s.tok != Tok::Pipe {
                break;
            }
            let pipe_at = s.at;
            if stages.last().is_some_and(Stage::is_terminal) {
                return Err(ParseError {
                    at: pipe_at,
                    message: format!(
                        "`{}` must be the last stage of a pipeline",
                        stages.last().unwrap().op_name()
                    ),
                });
            }
            self.at += 1; // consume `|`
            stages.push(self.stage(depth)?);
        }
        Ok(Query { stages })
    }

    fn parse_from_stage(&mut self) -> Result<Stage, ParseError> {
        self.keyword("from")?;
        let at = self.pos();
        match self.next("`vertices` or `parallel`")? {
            Spanned {
                tok: Tok::Ident(w), ..
            } if w == "vertices" => Ok(Stage::From(View::Vertices)),
            Spanned {
                tok: Tok::Ident(w), ..
            } if w == "parallel" => Ok(Stage::From(View::Parallel)),
            s => Err(ParseError {
                at,
                message: format!(
                    "expected `vertices` or `parallel`, found {}",
                    s.tok.describe()
                ),
            }),
        }
    }

    fn stage(&mut self, depth: usize) -> Result<Stage, ParseError> {
        let at = self.pos();
        let word = match self.next("a stage keyword")? {
            Spanned {
                tok: Tok::Ident(w), ..
            } => w.clone(),
            s => {
                return Err(ParseError {
                    at,
                    message: format!("expected a stage keyword, found {}", s.tok.describe()),
                })
            }
        };
        match word.as_str() {
            "filter" => {
                let field = self.field()?;
                let op_at = self.pos();
                let op = match self.next("a comparison operator")? {
                    Spanned {
                        tok: Tok::Op(op), ..
                    } => *op,
                    s => {
                        return Err(ParseError {
                            at: op_at,
                            message: format!(
                                "expected a comparison operator, found {}",
                                s.tok.describe()
                            ),
                        })
                    }
                };
                let value = self.value()?;
                Ok(Stage::Filter { field, op, value })
            }
            "score" => Ok(Stage::Score(self.field()?)),
            "sort" => {
                let field = self.field()?;
                let mut order = Order::Desc;
                if let Some(Spanned {
                    tok: Tok::Ident(w), ..
                }) = self.peek()
                {
                    match w.as_str() {
                        "asc" => {
                            order = Order::Asc;
                            self.at += 1;
                        }
                        "desc" => {
                            order = Order::Desc;
                            self.at += 1;
                        }
                        _ => {}
                    }
                }
                let mut nan = NanPolicy::Unspecified;
                if let Some(Spanned {
                    tok: Tok::Ident(w), ..
                }) = self.peek()
                {
                    match w.as_str() {
                        "nan_last" => {
                            nan = NanPolicy::NanLast;
                            self.at += 1;
                        }
                        "nan_first" => {
                            nan = NanPolicy::NanFirst;
                            self.at += 1;
                        }
                        _ => {}
                    }
                }
                Ok(Stage::Sort { field, order, nan })
            }
            "top" => {
                let at = self.pos();
                match self.next("a count")? {
                    Spanned {
                        tok: Tok::Num(n), ..
                    } if n.fract() == 0.0 && (0.0..=u32::MAX as f64).contains(n) => {
                        Ok(Stage::Top(*n as usize))
                    }
                    s => Err(ParseError {
                        at,
                        message: format!(
                            "expected a non-negative integer count, found {}",
                            s.tok.describe()
                        ),
                    }),
                }
            }
            "join" => {
                let at = self.pos();
                let kind = match self.next("`union`, `intersect` or `minus`")? {
                    Spanned {
                        tok: Tok::Ident(w), ..
                    } => match w.as_str() {
                        "union" => JoinKind::Union,
                        "intersect" => JoinKind::Intersect,
                        "minus" => JoinKind::Minus,
                        other => {
                            return Err(ParseError {
                                at,
                                message: format!(
                                    "expected `union`, `intersect` or `minus`, found `{other}`"
                                ),
                            })
                        }
                    },
                    s => {
                        return Err(ParseError {
                            at,
                            message: format!(
                                "expected `union`, `intersect` or `minus`, found {}",
                                s.tok.describe()
                            ),
                        })
                    }
                };
                self.punct(Tok::LParen, "`(`")?;
                let sub = self.query(depth + 1)?;
                if sub.stages.last().is_some_and(Stage::is_terminal) {
                    return Err(ParseError {
                        at: self.pos(),
                        message: format!(
                            "a join subquery must produce a vertex set, not end with `{}`",
                            sub.stages.last().unwrap().op_name()
                        ),
                    });
                }
                self.punct(Tok::RParen, "`)`")?;
                Ok(Stage::Join {
                    kind,
                    query: Box::new(sub),
                })
            }
            "select" => {
                let mut fields = vec![self.field()?];
                while self.peek().is_some_and(|s| s.tok == Tok::Comma) {
                    self.at += 1;
                    fields.push(self.field()?);
                }
                Ok(Stage::Select(fields))
            }
            "sum" => Ok(Stage::Sum(self.field()?)),
            "group" => {
                let by = self.field()?;
                self.keyword("sum")?;
                let sum = self.field()?;
                Ok(Stage::Group { by, sum })
            }
            "from" => Err(ParseError {
                at,
                message: "`from` is only valid as the first stage".into(),
            }),
            other => Err(ParseError {
                at,
                message: format!("unknown stage `{other}`"),
            }),
        }
    }

    fn punct(&mut self, want: Tok, desc: &str) -> Result<(), ParseError> {
        let at = self.pos();
        let s = self.next(desc)?;
        if s.tok == want {
            Ok(())
        } else {
            Err(ParseError {
                at,
                message: format!("expected {desc}, found {}", s.tok.describe()),
            })
        }
    }

    fn field(&mut self) -> Result<Field, ParseError> {
        let at = self.pos();
        match self.next("a field name")?.tok.clone() {
            Tok::Ident(name) | Tok::Str(name) => Ok(Field { name }),
            tok => Err(ParseError {
                at,
                message: format!("expected a field name, found {}", tok.describe()),
            }),
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        let at = self.pos();
        match self.next("a literal value")? {
            Spanned {
                tok: Tok::Num(n), ..
            } => Ok(Value::Num(*n)),
            Spanned {
                tok: Tok::Str(s), ..
            } => Ok(Value::Str(s.clone())),
            s => Err(ParseError {
                at,
                message: format!("expected a number or string, found {}", s.tok.describe()),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(src: &str) -> Query {
        let q = parse(src).unwrap();
        let rendered = q.render();
        let q2 = parse(&rendered).unwrap_or_else(|e| panic!("re-parse of `{rendered}`: {e}"));
        assert_eq!(q, q2, "render round-trip for `{src}`");
        q
    }

    #[test]
    fn parses_the_hotspot_query() {
        let q = roundtrip(
            "from vertices | score time | sort score desc nan_last | top 15 \
             | select name, label, debug-info, time",
        );
        assert_eq!(q.stages.len(), 5);
        assert_eq!(q.view(), View::Vertices);
        assert!(matches!(q.stages[4], Stage::Select(ref f) if f.len() == 4));
    }

    #[test]
    fn parses_filters_joins_and_aggregates() {
        let q = roundtrip(
            "from parallel | filter imbalance > 2 | filter name ~ \"mpi_*\" \
             | join union (from parallel | filter wait-time >= 1e3) | group proc sum time",
        );
        assert_eq!(q.view(), View::Parallel);
        assert!(matches!(
            q.stages[3],
            Stage::Join {
                kind: JoinKind::Union,
                ..
            }
        ));
        roundtrip("from vertices | sum time");
        roundtrip("from vertices | filter time != nan");
        roundtrip("from vertices | filter \"we ird\" == -inf | top 0");
        roundtrip("from vertices | sort \"shim\" asc");
        roundtrip("from vertices | filter shim == 1 | select shim");
        // The retired `shim:` field prefix is an ordinary syntax error.
        assert!(parse("from vertices | filter shim:region == \"main\"").is_err());
    }

    #[test]
    fn sort_direction_normalizes_to_desc() {
        let q = parse("from vertices | sort time").unwrap();
        assert!(matches!(
            q.stages[1],
            Stage::Sort {
                order: Order::Desc,
                nan: NanPolicy::Unspecified,
                ..
            }
        ));
        // ...so the canonical render always carries a direction.
        assert_eq!(q.render(), "from vertices | sort time desc");
    }

    #[test]
    fn rejects_structural_errors() {
        for (src, want) in [
            ("", "expected `from`"),
            ("from nowhere", "expected `vertices` or `parallel`"),
            ("filter time > 1", "expected `from`"),
            (
                "from vertices | select name | top 3",
                "must be the last stage",
            ),
            ("from vertices | from parallel", "only valid as the first"),
            ("from vertices | top 1.5", "non-negative integer"),
            ("from vertices | top -2", "non-negative integer"),
            ("from vertices | frobnicate x", "unknown stage"),
            (
                "from vertices | join union (from vertices | sum time)",
                "must produce a vertex set",
            ),
            ("from vertices | sum time | ", "must be the last stage"),
            ("from vertices extra", "trailing"),
            ("from vertices | filter time >", "found end of query"),
        ] {
            let err = parse(src).unwrap_err();
            assert!(
                err.message.contains(want),
                "`{src}` => `{}` (wanted `{want}`)",
                err.message
            );
        }
    }

    #[test]
    fn join_depth_is_bounded() {
        let mut src = String::from("from vertices");
        for _ in 0..40 {
            src.push_str(" | join union (from vertices");
        }
        src.push_str(&")".repeat(40));
        let err = parse(&src).unwrap_err();
        assert!(err.message.contains("nesting too deep"), "{}", err.message);
    }

    #[test]
    fn hostile_field_names_round_trip() {
        let hostile = [
            "with space",
            "quo\"te",
            "back\\slash",
            "uni∑code",
            "new\nline",
            "nan",
            "inf",
            "sort",
            "3starts-with-digit",
            "",
        ];
        for name in hostile {
            let q = Query {
                stages: vec![
                    Stage::From(View::Vertices),
                    Stage::Sort {
                        field: Field::named(name),
                        order: Order::Asc,
                        nan: NanPolicy::NanFirst,
                    },
                ],
            };
            let rendered = q.render();
            let q2 = parse(&rendered).unwrap_or_else(|e| panic!("`{rendered}`: {e}"));
            assert_eq!(q, q2, "round-trip for field name {name:?}");
        }
    }
}
