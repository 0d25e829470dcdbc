//! The front end on reload: parse only the procedures whose text changed.
//!
//! An interactive session re-reads a program the user has just edited, and
//! the edit is usually one procedure.  [`reparse`] takes the program the
//! session already holds as its memo: it splits the new text at top-level
//! `proc` lines, and a procedure whose text is byte-identical to the one of
//! its name in the previous program is not lexed, parsed or resolved again.
//! Its resolved [`Procedure`](crate::Procedure) and variables are copied and
//! rebased onto the new program's numbering; every other procedure is
//! parsed and resolved as [`parse_program`] would.  The whole-program checks (modified
//! parameters, common-block layout, recursion, `main`) always run.
//!
//! The split is *clean* when every line of the text is either
//!
//! * a header line (before the first procedure, holding no brace): the
//!   `program` line and the `const`s,
//! * a line of one procedure: the first starts with `proc`, the last holds
//!   the brace that closes it and nothing after it but a comment,
//! * or, between procedures, blank or a comment.
//!
//! No token spans a line break, so the tokens of a clean text are the
//! header's, then each procedure's in turn, and the parser reads each
//! procedure from its `proc` to its closing brace and no further: parsing
//! the pieces is parsing the whole.  A procedure is copied only when its
//! text is the previous one's, and when everything its resolution reads
//! outside itself is unchanged: the consts (so a changed `const` parses
//! everything), and for each procedure it calls, one of that name with the
//! same formals.  Procedure, variable, statement and common-block ids and
//! line numbers may all move; the copy is rebased.
//!
//! Anything else — a text that does not split cleanly, or any error while
//! parsing the pieces — goes to [`parse_program`] whole, so a rejected text
//! reports the same first error a cold parse reports.

use crate::lexer;
use crate::parser::{self, MAX_PROCS};
use crate::program::{ProcId, Program};
use crate::sema::{self, Interface, Previous, Resolver};
use crate::{parse_program, CompileError};
use std::collections::HashMap;

/// A program and what its front end parsed.
#[derive(Debug)]
pub struct Parsed {
    /// The resolved program.
    pub program: Program,
    /// How many of its procedures were lexed, parsed and resolved from
    /// text, rather than copied from the previous program.
    pub parsed: usize,
}

/// Parse `src`, reusing every procedure of `prev` that it repeats.  The
/// result is the program [`parse_program`] returns for `src`, or its error.
pub fn reparse(src: &str, prev: &Program) -> Result<Parsed, CompileError> {
    if let Some(parsed) = reuse(src, prev) {
        return Ok(parsed);
    }
    let program = parse_program(src)?;
    Ok(Parsed {
        parsed: program.procedures.len(),
        program,
    })
}

/// The lines of one procedure.
struct Chunk<'a> {
    /// The word after `proc` on its first line (empty when there is none).
    name: &'a str,
    /// Its lines, without the last line break.
    text: &'a str,
    /// Its first line.
    line: u32,
}

/// A clean split of a program's text.
struct Split<'a> {
    /// Everything before the first procedure.
    header: &'a str,
    chunks: Vec<Chunk<'a>>,
}

fn is_word(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r')
}

/// The bytes [`split`] stops at inside a line.
const STOPS: [bool; 256] = {
    let mut stops = [false; 256];
    stops[b'\n' as usize] = true;
    stops[b'/' as usize] = true;
    stops[b'{' as usize] = true;
    stops[b'}' as usize] = true;
    stops
};

/// Split `src` at its procedures, or `None` when it does not split cleanly.
/// One pass over the bytes: only line breaks, `//` and braces stop it.
fn split(src: &str) -> Option<Split<'_>> {
    let b = src.as_bytes();
    let n = b.len();
    let comment = |i: usize| b[i] == b'/' && b.get(i + 1) == Some(&b'/');
    let line_end = |i: usize| b[i..].iter().position(|&c| c == b'\n').map_or(n, |k| i + k);
    let mut chunks = Vec::new();
    let mut header = None;
    // The open procedure: its first byte, first line and name.
    let mut open: Option<(usize, u32, &str)> = None;
    let (mut depth, mut line, mut i) = (0u32, 1u32, 0usize);
    loop {
        // The first word of a line outside a procedure.
        let start = i;
        while i < n && is_space(b[i]) {
            i += 1;
        }
        if open.is_none() && i < n && b[i] != b'\n' && !comment(i) {
            if b[i..].starts_with(b"proc") && !b.get(i + 4).is_some_and(|&c| is_word(c)) {
                header.get_or_insert(start);
                let mut j = i + 4;
                while j < n && is_space(b[j]) {
                    j += 1;
                }
                i = j + b[j..].iter().take_while(|&&c| is_word(c)).count();
                open = Some((start, line, &src[j..i]));
            } else if header.is_some() {
                return None; // tokens between procedures
            }
        }
        // The rest of the line.
        while i < n {
            i += b[i..]
                .iter()
                .position(|&c| STOPS[c as usize])
                .unwrap_or(n - i);
            if i == n {
                break;
            }
            match b[i] {
                b'\n' => break,
                b'/' if comment(i) => i = line_end(i),
                b'{' if open.is_some() => {
                    depth += 1;
                    i += 1;
                }
                b'}' if open.is_some() && depth > 0 => {
                    depth -= 1;
                    i += 1;
                    if depth == 0 {
                        while i < n && is_space(b[i]) {
                            i += 1;
                        }
                        if i < n && b[i] != b'\n' && !comment(i) {
                            return None; // more after the closing brace
                        }
                        i = line_end(i);
                        let (first, line, name) = open.take().expect("open");
                        let text = &src[first..i];
                        chunks.push(Chunk { name, text, line });
                    }
                }
                b'{' | b'}' => return None, // in the header, or unbalanced
                _ => i += 1,                // a lone `/`
            }
        }
        if i == n {
            break;
        }
        i += 1;
        line += 1;
    }
    if open.is_some() {
        return None;
    }
    Some(Split {
        header: &src[..header.unwrap_or(n)],
        chunks,
    })
}

/// Lex and parse one procedure's lines.
fn parse_chunk<'a>(c: &Chunk<'a>) -> Option<crate::ast::AstProc<'a>> {
    let tokens = lexer::lex_from(c.text, c.line).ok()?;
    parser::parse_proc(&tokens).ok()
}

/// Where a procedure of the new program comes from.
enum Source<'a> {
    /// The previous program's procedure of this id, copied.
    Previous(ProcId),
    /// Its own text, parsed.
    Parsed(crate::ast::AstProc<'a>),
}

/// The incremental path; `None` sends `src` to a whole parse.
fn reuse(src: &str, prev: &Program) -> Option<Parsed> {
    let new = split(src)?;
    let old = split(&prev.source)?;
    if new.chunks.len() > MAX_PROCS || old.chunks.len() != prev.procedures.len() {
        return None;
    }
    let tokens = lexer::lex(new.header).ok()?;
    let (name, consts) = parser::parse_header(&tokens).ok()?;
    let same_consts = consts.len() == prev.consts.len()
        && consts
            .iter()
            .all(|c| prev.consts.get(c.name) == Some(&c.value));
    if !same_consts {
        return None;
    }

    let by_name: HashMap<&str, usize> = prev
        .procedures
        .iter()
        .enumerate()
        .map(|(k, p)| (p.name.as_str(), k))
        .collect();
    let mut parsed = 0;
    let mut sources = Vec::with_capacity(new.chunks.len());
    for c in &new.chunks {
        let same = by_name
            .get(c.name)
            .filter(|&&k| old.chunks[k].name == c.name && old.chunks[k].text == c.text);
        sources.push(match same {
            Some(&k) => Source::Previous(ProcId(k as u32)),
            None => {
                parsed += 1;
                Source::Parsed(parse_chunk(c)?)
            }
        });
    }

    let headers = sources.iter().zip(&new.chunks).map(|(s, c)| match s {
        Source::Previous(k) => {
            let p = prev.proc(*k);
            let formals = p.params.iter().map(|&v| {
                let v = prev.var(v);
                (v.ty, v.is_array())
            });
            (c.name, c.line, formals.collect())
        }
        Source::Parsed(p) => (p.name, p.line, sema::formals(p)),
    });
    let iface = Interface::new(&consts, headers).ok()?;
    let previous = Previous::new(prev, &iface);
    let mut rs = Resolver::new(&iface);
    let mut procedures = Vec::with_capacity(sources.len());
    for (k, (s, c)) in sources.iter().zip(&new.chunks).enumerate() {
        let id = ProcId(k as u32);
        let proc = match s {
            Source::Previous(old) => match rs.adopt(id, c.line, &previous, *old) {
                Some(p) => p,
                None => {
                    parsed += 1;
                    rs.resolve_proc(id, &parse_chunk(c)?).ok()?
                }
            },
            Source::Parsed(p) => rs.resolve_proc(id, p).ok()?,
        };
        procedures.push(proc);
    }
    let program = rs.finish(name, src, procedures).ok()?;
    Some(Parsed { program, parsed })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_at_procedure_lines() {
        let src = "program t\nconst n = 2 // two\n\nproc main() {\n call f()\n}\n// gap\nproc f() { }  // one line\n";
        let s = split(src).unwrap();
        assert_eq!(s.header, "program t\nconst n = 2 // two\n\n");
        let chunks: Vec<_> = s.chunks.iter().map(|c| (c.name, c.text, c.line)).collect();
        assert_eq!(
            chunks,
            [
                ("main", "proc main() {\n call f()\n}", 4),
                ("f", "proc f() { }  // one line", 8),
            ]
        );
    }

    #[test]
    fn refuses_what_does_not_split_cleanly() {
        for src in [
            "program t\nproc main() { } proc f() { }\n", // two on a line
            "program t\nproc main() {\n}\nconst n = 1\n", // a const between
            "program t { }\nproc main() { }\n",          // a brace in the header
            "program t\nproc main() {\n",                // never closed
            "program t\nproc main() }\n",                // closed before opened
            "program t\nx proc main() { }\n",            // `proc` not first
        ] {
            assert!(split(src).is_none(), "{src:?}");
        }
        // A comment hides its braces and its `proc`.
        let s = split("program t // {\nproc main() { // }\n}\n// proc f() {\n").unwrap();
        assert_eq!(s.chunks.len(), 1);
        // `process` is a word, not `proc`: a header line.
        let s = split("program t\nprocess\nproc main() { }\n").unwrap();
        assert_eq!(s.header, "program t\nprocess\n");
    }
}
