//! Hand-written lexer for MiniF.

use crate::token::{Keyword, Punct, Token, TokenKind};
use std::fmt;

/// A lexical error with source line.
#[derive(Debug, Clone)]
pub struct LexError {
    /// Description.
    pub message: String,
    /// 1-based source line.
    pub line: u32,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

/// Tokenize MiniF source.  `//` starts a line comment.
pub fn lex(src: &str) -> Result<Vec<Token<'_>>, LexError> {
    lex_from(src, 1)
}

/// Tokenize a run of whole source lines whose first line is `first_line`.
/// No token spans a line break, so lexing a program's lines in pieces gives
/// the tokens of lexing it whole (each piece ends in its own `Eof`).
pub fn lex_from(src: &str, first_line: u32) -> Result<Vec<Token<'_>>, LexError> {
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(src.len() / 4);
    let mut i = 0usize;
    let mut line = first_line;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            ' ' | '\t' | '\r' => i += 1,
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => push(&mut out, Punct::LParen, line, &mut i),
            ')' => push(&mut out, Punct::RParen, line, &mut i),
            '{' => push(&mut out, Punct::LBrace, line, &mut i),
            '}' => push(&mut out, Punct::RBrace, line, &mut i),
            '[' => push(&mut out, Punct::LBracket, line, &mut i),
            ']' => push(&mut out, Punct::RBracket, line, &mut i),
            ',' => push(&mut out, Punct::Comma, line, &mut i),
            '+' => push(&mut out, Punct::Plus, line, &mut i),
            '-' => push(&mut out, Punct::Minus, line, &mut i),
            '*' => push(&mut out, Punct::Star, line, &mut i),
            '/' => push(&mut out, Punct::Slash, line, &mut i),
            '%' => push(&mut out, Punct::Percent, line, &mut i),
            '<' => push2(&mut out, bytes, Punct::Lt, Punct::Le, b'=', line, &mut i),
            '>' => push2(&mut out, bytes, Punct::Gt, Punct::Ge, b'=', line, &mut i),
            '=' => push2(
                &mut out,
                bytes,
                Punct::Assign,
                Punct::EqEq,
                b'=',
                line,
                &mut i,
            ),
            '!' => push2(&mut out, bytes, Punct::Not, Punct::Ne, b'=', line, &mut i),
            '&' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'&' {
                    out.push(Token {
                        kind: TokenKind::Punct(Punct::AndAnd),
                        line,
                    });
                    i += 2;
                } else {
                    return Err(LexError {
                        message: "expected `&&`".into(),
                        line,
                    });
                }
            }
            '|' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'|' {
                    out.push(Token {
                        kind: TokenKind::Punct(Punct::OrOr),
                        line,
                    });
                    i += 2;
                } else {
                    return Err(LexError {
                        message: "expected `||`".into(),
                        line,
                    });
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let mut is_real = false;
                if i < bytes.len()
                    && bytes[i] == b'.'
                    && i + 1 < bytes.len()
                    && (bytes[i + 1] as char).is_ascii_digit()
                {
                    is_real = true;
                    i += 1;
                    while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                        i += 1;
                    }
                }
                if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                    let mut j = i + 1;
                    if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
                        j += 1;
                    }
                    if j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                        is_real = true;
                        i = j;
                        while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                let text = &src[start..i];
                let kind = if is_real {
                    TokenKind::Real(text.parse().map_err(|_| LexError {
                        message: format!("bad real literal `{text}`"),
                        line,
                    })?)
                } else {
                    TokenKind::Int(text.parse().map_err(|_| LexError {
                        message: format!("bad integer literal `{text}`"),
                        line,
                    })?)
                };
                out.push(Token { kind, line });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let text = &src[start..i];
                let kind = match Keyword::from_ident(text) {
                    Some(kw) => TokenKind::Kw(kw),
                    None => TokenKind::Ident(text),
                };
                out.push(Token { kind, line });
            }
            other => {
                return Err(LexError {
                    message: format!("unexpected character `{other}`"),
                    line,
                })
            }
        }
    }
    out.push(Token {
        kind: TokenKind::Eof,
        line,
    });
    Ok(out)
}

fn push(out: &mut Vec<Token<'_>>, p: Punct, line: u32, i: &mut usize) {
    out.push(Token {
        kind: TokenKind::Punct(p),
        line,
    });
    *i += 1;
}

fn push2(
    out: &mut Vec<Token<'_>>,
    bytes: &[u8],
    single: Punct,
    double: Punct,
    second: u8,
    line: u32,
    i: &mut usize,
) {
    if *i + 1 < bytes.len() && bytes[*i + 1] == second {
        out.push(Token {
            kind: TokenKind::Punct(double),
            line,
        });
        *i += 2;
    } else {
        out.push(Token {
            kind: TokenKind::Punct(single),
            line,
        });
        *i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_basic_program() {
        let toks = lex("proc f() { a = 1.5e2 // comment\n b = a <= 2 }").unwrap();
        let kinds: Vec<&TokenKind> = toks.iter().map(|t| &t.kind).collect();
        assert!(matches!(kinds[0], TokenKind::Kw(Keyword::Proc)));
        assert!(kinds
            .iter()
            .any(|k| matches!(k, TokenKind::Real(v) if (*v - 150.0).abs() < 1e-9)));
        assert!(kinds
            .iter()
            .any(|k| matches!(k, TokenKind::Punct(Punct::Le))));
        assert!(matches!(kinds.last().unwrap(), TokenKind::Eof));
    }

    #[test]
    fn tracks_lines() {
        let toks = lex("a\nb\nc").unwrap();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 3);
    }

    #[test]
    fn comments_do_not_hide_newlines() {
        let toks = lex("a // x\nb").unwrap();
        assert_eq!(toks[1].line, 2);
    }

    #[test]
    fn rejects_stray_ampersand() {
        assert!(lex("a & b").is_err());
    }

    #[test]
    fn distinguishes_int_and_real() {
        let toks = lex("1 2.5 3e4 5").unwrap();
        assert!(matches!(toks[0].kind, TokenKind::Int(1)));
        assert!(matches!(toks[1].kind, TokenKind::Real(_)));
        assert!(matches!(toks[2].kind, TokenKind::Real(_)));
        assert!(matches!(toks[3].kind, TokenKind::Int(5)));
    }
}
