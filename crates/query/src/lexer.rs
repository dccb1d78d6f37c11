//! Tokenizer for the query language.
//!
//! Identifiers are `[A-Za-z_][A-Za-z0-9_.-]*` (so metric names like
//! `debug-info` and `pmu-cache-misses` lex as single tokens); arbitrary
//! names go in double quotes with `\" \\ \n \t \r \u{hex}` escapes.
//! Numbers are JSON-style with optional sign, plus the literals `nan`,
//! `inf` and `-inf`.

use crate::ast::CmpOp;
use crate::ParseError;

/// One lexed token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Bare identifier / keyword.
    Ident(String),
    /// Quoted string (unescaped).
    Str(String),
    /// Numeric literal.
    Num(f64),
    /// `|`
    Pipe,
    /// `,`
    Comma,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// A comparison operator.
    Op(CmpOp),
}

impl Tok {
    /// Human-readable description for error messages.
    pub fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("`{s}`"),
            Tok::Str(_) => "string".into(),
            Tok::Num(n) => format!("`{n}`"),
            Tok::Pipe => "`|`".into(),
            Tok::Comma => "`,`".into(),
            Tok::LParen => "`(`".into(),
            Tok::RParen => "`)`".into(),
            Tok::Op(op) => format!("`{}`", op.symbol()),
        }
    }
}

/// A token plus its byte offset in the source.
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    /// The token.
    pub tok: Tok,
    /// Byte offset of the token's first character.
    pub at: usize,
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')
}

/// Tokenize `src`, reporting the byte offset of any lexical error.
pub fn lex(src: &str) -> Result<Vec<Spanned>, ParseError> {
    let mut toks = Vec::new();
    let b: Vec<char> = src.chars().collect();
    // Byte offset of each char index, so errors point into the source.
    let mut at = 0usize;
    let mut offs = Vec::with_capacity(b.len() + 1);
    for c in &b {
        offs.push(at);
        at += c.len_utf8();
    }
    offs.push(at);

    let mut i = 0usize;
    while i < b.len() {
        let c = b[i];
        let start = offs[i];
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '|' => {
                toks.push(Spanned {
                    tok: Tok::Pipe,
                    at: start,
                });
                i += 1;
            }
            ',' => {
                toks.push(Spanned {
                    tok: Tok::Comma,
                    at: start,
                });
                i += 1;
            }
            '(' => {
                toks.push(Spanned {
                    tok: Tok::LParen,
                    at: start,
                });
                i += 1;
            }
            ')' => {
                toks.push(Spanned {
                    tok: Tok::RParen,
                    at: start,
                });
                i += 1;
            }
            '~' => {
                toks.push(Spanned {
                    tok: Tok::Op(CmpOp::Glob),
                    at: start,
                });
                i += 1;
            }
            '=' | '!' | '<' | '>' => {
                let two_eq = b.get(i + 1) == Some(&'=');
                let op = match (c, two_eq) {
                    ('=', true) => CmpOp::Eq,
                    ('!', true) => CmpOp::Ne,
                    ('<', true) => CmpOp::Le,
                    ('>', true) => CmpOp::Ge,
                    ('<', false) => CmpOp::Lt,
                    ('>', false) => CmpOp::Gt,
                    _ => {
                        return Err(ParseError {
                            at: start,
                            message: format!("unexpected `{c}` (did you mean `{c}=`?)"),
                        })
                    }
                };
                toks.push(Spanned {
                    tok: Tok::Op(op),
                    at: start,
                });
                i += if two_eq { 2 } else { 1 };
            }
            '"' => {
                let (s, next) = lex_string(&b, &offs, i)?;
                toks.push(Spanned {
                    tok: Tok::Str(s),
                    at: start,
                });
                i = next;
            }
            '-' => {
                // `-` only introduces negative numeric literals
                // (idents may *contain* `-` but never start with it).
                if b.get(i + 1..i + 4) == Some(&['i', 'n', 'f']) {
                    toks.push(Spanned {
                        tok: Tok::Num(f64::NEG_INFINITY),
                        at: start,
                    });
                    i += 4;
                } else if b
                    .get(i + 1)
                    .is_some_and(|c| c.is_ascii_digit() || *c == '.')
                {
                    let (n, next) = lex_number(&b, &offs, i)?;
                    toks.push(Spanned {
                        tok: Tok::Num(n),
                        at: start,
                    });
                    i = next;
                } else {
                    return Err(ParseError {
                        at: start,
                        message: "unexpected `-`".into(),
                    });
                }
            }
            c if c.is_ascii_digit() => {
                let (n, next) = lex_number(&b, &offs, i)?;
                toks.push(Spanned {
                    tok: Tok::Num(n),
                    at: start,
                });
                i = next;
            }
            c if is_ident_start(c) => {
                let mut j = i + 1;
                while j < b.len() && is_ident_continue(b[j]) {
                    j += 1;
                }
                let word: String = b[i..j].iter().collect();
                let tok = match word.as_str() {
                    "nan" => Tok::Num(f64::NAN),
                    "inf" => Tok::Num(f64::INFINITY),
                    _ => Tok::Ident(word),
                };
                toks.push(Spanned { tok, at: start });
                i = j;
            }
            c => {
                return Err(ParseError {
                    at: start,
                    message: format!("unexpected character `{c}`"),
                })
            }
        }
    }
    Ok(toks)
}

fn lex_number(b: &[char], offs: &[usize], mut i: usize) -> Result<(f64, usize), ParseError> {
    let start = i;
    if b[i] == '-' {
        i += 1;
    }
    while i < b.len() && b[i].is_ascii_digit() {
        i += 1;
    }
    if i < b.len() && b[i] == '.' {
        i += 1;
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
    }
    if i < b.len() && matches!(b[i], 'e' | 'E') {
        i += 1;
        if i < b.len() && matches!(b[i], '+' | '-') {
            i += 1;
        }
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
    }
    let text: String = b[start..i].iter().collect();
    text.parse::<f64>().map(|n| (n, i)).map_err(|_| ParseError {
        at: offs[start],
        message: format!("bad number `{text}`"),
    })
}

fn lex_string(b: &[char], offs: &[usize], mut i: usize) -> Result<(String, usize), ParseError> {
    let open = offs[i];
    i += 1; // opening quote
    let mut out = String::new();
    while i < b.len() {
        match b[i] {
            '"' => return Ok((out, i + 1)),
            '\\' => {
                let esc_at = offs[i];
                i += 1;
                match b.get(i) {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('r') => out.push('\r'),
                    Some('u') => {
                        // \u{hex}
                        if b.get(i + 1) != Some(&'{') {
                            return Err(ParseError {
                                at: esc_at,
                                message: "bad \\u escape (expected `\\u{hex}`)".into(),
                            });
                        }
                        let mut j = i + 2;
                        let mut hex = String::new();
                        while j < b.len() && b[j] != '}' {
                            hex.push(b[j]);
                            j += 1;
                        }
                        let scalar = u32::from_str_radix(&hex, 16)
                            .ok()
                            .and_then(char::from_u32)
                            .ok_or(ParseError {
                                at: esc_at,
                                message: format!("bad \\u escape `{hex}`"),
                            })?;
                        if j >= b.len() {
                            return Err(ParseError {
                                at: esc_at,
                                message: "unterminated \\u escape".into(),
                            });
                        }
                        out.push(scalar);
                        i = j;
                    }
                    _ => {
                        return Err(ParseError {
                            at: esc_at,
                            message: "bad escape in string".into(),
                        })
                    }
                }
                i += 1;
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    Err(ParseError {
        at: open,
        message: "unterminated string".into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn lexes_stages_and_operators() {
        assert_eq!(
            toks("filter time >= 1.5e3"),
            vec![
                Tok::Ident("filter".into()),
                Tok::Ident("time".into()),
                Tok::Op(CmpOp::Ge),
                Tok::Num(1500.0),
            ]
        );
        assert_eq!(
            toks("a==b|c!=d"),
            vec![
                Tok::Ident("a".into()),
                Tok::Op(CmpOp::Eq),
                Tok::Ident("b".into()),
                Tok::Pipe,
                Tok::Ident("c".into()),
                Tok::Op(CmpOp::Ne),
                Tok::Ident("d".into()),
            ]
        );
    }

    #[test]
    fn dashed_idents_vs_negative_numbers() {
        assert_eq!(toks("debug-info"), vec![Tok::Ident("debug-info".into())]);
        assert_eq!(toks("-3.5"), vec![Tok::Num(-3.5)]);
        assert_eq!(toks("-inf"), vec![Tok::Num(f64::NEG_INFINITY)]);
        assert!(lex("- x").is_err());
    }

    #[test]
    fn special_float_literals() {
        match toks("nan")[0] {
            Tok::Num(n) => assert!(n.is_nan()),
            ref t => panic!("bad token {t:?}"),
        }
        assert_eq!(toks("inf"), vec![Tok::Num(f64::INFINITY)]);
    }

    #[test]
    fn string_escapes_round_trip() {
        assert_eq!(
            toks("\"a\\\"b\\\\c\\n\\u{3b1}\""),
            vec![Tok::Str("a\"b\\c\nα".into())]
        );
        assert!(lex("\"open").is_err());
        assert!(lex("\"bad\\q\"").is_err());
        assert!(lex("\"bad\\u{ffffffff}\"").is_err());
    }

    #[test]
    fn errors_carry_positions() {
        let e = lex("time @ 3").unwrap_err();
        assert_eq!(e.at, 5);
        assert!(e.message.contains('@'));
    }
}
