//! Token definitions for the MiniF lexer.

use std::fmt;

/// A lexical token with its source line.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Token<'a> {
    /// The token kind/payload.
    pub kind: TokenKind<'a>,
    /// 1-based source line the token starts on.
    pub line: u32,
}

/// Token kinds.  An identifier borrows its text from the source, so a
/// token is plain data and the parser copies it rather than cloning.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum TokenKind<'a> {
    /// Identifier: a word that is not a [`Keyword`].
    Ident(&'a str),
    /// Keyword.
    Kw(Keyword),
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Real(f64),
    /// Punctuation / operator.
    Punct(Punct),
    /// End of input.
    Eof,
}

/// Reserved words.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Keyword {
    /// `program`
    Program,
    /// `proc`
    Proc,
    /// `common`
    Common,
    /// `real`
    Real,
    /// `int`
    Int,
    /// `do`
    Do,
    /// `if`
    If,
    /// `else`
    Else,
    /// `call`
    Call,
    /// `print`
    Print,
    /// `read`
    Read,
    /// `const`
    Const,
}

impl Keyword {
    /// Classify an identifier as a keyword.
    pub fn from_ident(s: &str) -> Option<Keyword> {
        Some(match s {
            "program" => Keyword::Program,
            "proc" => Keyword::Proc,
            "common" => Keyword::Common,
            "real" => Keyword::Real,
            "int" => Keyword::Int,
            "do" => Keyword::Do,
            "if" => Keyword::If,
            "else" => Keyword::Else,
            "call" => Keyword::Call,
            "print" => Keyword::Print,
            "read" => Keyword::Read,
            "const" => Keyword::Const,
            _ => return None,
        })
    }
}

/// Punctuation and operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Punct {
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `=`
    Assign,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    EqEq,
    /// `!=`
    Ne,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Not,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Kw(k) => write!(f, "keyword `{k:?}`"),
            TokenKind::Int(v) => write!(f, "integer `{v}`"),
            TokenKind::Real(v) => write!(f, "real `{v}`"),
            TokenKind::Punct(p) => write!(f, "`{p:?}`"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}
