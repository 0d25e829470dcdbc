//! Oracle for the front end on reload (`suif_ir::reparse`): parsing a text
//! with the previous program as a memo gives exactly what a fresh
//! `parse_program` of the same text gives — the whole `Program`, compared
//! through `{:?}`, or for a rejected text the same error message and line.
//!
//! Inputs: the first 200 accepted mutants of `source_mutants` made from the
//! 13 applications (and the generated-program mutants met on the way), in
//! both directions; an edit of every procedure of every application at
//! `Scale::Test`; and one program edited in each class of change the
//! front end treats differently, with the number of procedures it parsed.

mod source_mutants;

use source_mutants::{applications, Mutants, SEED};
use suif_benchmarks::Scale;
use suif_ir::{parse_program, reparse, Program};

/// Accepted application mutants the stream is walked to.
const ACCEPTED: usize = 200;

/// Reparse `text` over `prev` and hold it to a fresh parse; returns how
/// many procedures it parsed (`None` when the text is rejected).
fn check(prev: &Program, text: &str, what: &str) -> Option<usize> {
    let fresh = parse_program(text);
    match (reparse(text, prev), fresh) {
        (Ok(got), Ok(want)) => {
            assert_eq!(
                format!("{:?}", got.program),
                format!("{want:?}"),
                "{what}: the reparsed program differs from a fresh parse"
            );
            assert!(got.parsed <= want.procedures.len(), "{what}");
            Some(got.parsed)
        }
        (Err(got), Err(want)) => {
            assert_eq!(got.to_string(), want.to_string(), "{what}: errors differ");
            None
        }
        (got, want) => panic!(
            "{what}: reparse says {:?}, a fresh parse {:?}",
            got.map(|p| p.parsed),
            want.map(|p| p.procedures.len())
        ),
    }
}

#[test]
fn mutants_reparse_like_fresh_parses_in_both_directions() {
    let (mut accepted, mut rejected, mut generated) = (0, 0, 0);
    let (mut several, mut reused) = (0, 0);
    for m in Mutants::new(SEED) {
        let base = parse_program(&m.base).unwrap();
        let Some(parsed) = check(&base, &m.text, &format!("{} (base -> mutant)", m.label)) else {
            rejected += 1;
            continue;
        };
        let mutant = parse_program(&m.text).unwrap();
        check(&mutant, &m.base, &format!("{} (mutant -> base)", m.label));
        if mutant.procedures.len() > 1 {
            several += 1;
            reused += (parsed < mutant.procedures.len()) as usize;
        }
        if !m.from_app {
            generated += 1;
            continue;
        }
        accepted += 1;
        if accepted == ACCEPTED {
            break;
        }
    }
    assert!(rejected > 0 && generated > 0, "{rejected} {generated}");
    // One to four byte edits leave most programs of several procedures
    // with a procedure whose text is unchanged.
    assert!(
        10 * reused >= 9 * several,
        "{reused} of {several} reused a procedure"
    );
}

/// Line index (0-based) of procedure `k`'s `proc` line and closing line.
fn lines_of(p: &Program, k: usize) -> (usize, usize) {
    let proc = &p.procedures[k];
    (proc.line as usize - 1, proc.end_line as usize - 1)
}

fn with_line(src: &str, at: usize, line: &str) -> String {
    let mut lines: Vec<&str> = src.lines().collect();
    lines.insert(at, line);
    lines.join("\n")
}

#[test]
fn every_procedure_of_every_application_edits_alone() {
    for (name, src) in applications(Scale::Test) {
        let prev = parse_program(&src).unwrap();
        let n = prev.procedures.len();
        for k in 0..n {
            let (first, last) = lines_of(&prev, k);
            let what = |edit: &str| format!("{name}: {edit} in procedure {k} of {n}");
            let comment = with_line(&src, first + 1, "  // a remark");
            assert_eq!(check(&prev, &comment, &what("a comment line")), Some(1));
            let blank = with_line(&src, first, "");
            assert_eq!(check(&prev, &blank, &what("a blank line before")), Some(0));
            let scalar = prev.procedures[k]
                .all_vars()
                .find(|&v| !prev.var(v).is_array());
            if let Some(v) = scalar {
                let v = &prev.var(v).name;
                let stmt = with_line(&src, last, &format!("  {v} = {v}"));
                assert_eq!(check(&prev, &stmt, &what("a statement")), Some(1));
            }
        }
    }
}

/// Five procedures: calls, two common blocks, consts in bounds.
const PROGRAM: &str = "program edits
const n = 8
const m = 4
proc leaf(real a[*], int len) {
 int i
 do 1 i = 1, len {
  a[i] = a[i] * 0.5
 }
}
proc mid(real b[*]) {
 common /shared/ real s[8]
 int j
 call leaf(b, n)
 do 2 j = 1, n {
  s[j] = b[j] + 1
 }
}
proc other() {
 common /late/ real t[4]
 int k
 do 3 k = 1, m {
  t[k] = k
 }
}
proc unused() {
 int u
 u = 1
}
proc main() {
 real x[8]
 common /shared/ real s2[8]
 int i
 do 4 i = 1, n {
  x[i] = i
 }
 call mid(x)
 call other()
 print x[1], s2[2]
}
";

#[test]
fn each_class_of_edit_parses_what_it_must() {
    let prev = parse_program(PROGRAM).unwrap();
    let edit = |from: &str, to: &str| {
        assert!(PROGRAM.contains(from), "{from}");
        PROGRAM.replacen(from, to, 1)
    };
    let cases = [
        ("a literal", edit("* 0.5", "* 0.25"), Some(1)),
        (
            "an inserted statement",
            edit(
                "  a[i] = a[i] * 0.5\n }\n",
                "  a[i] = a[i] * 0.5\n }\n a[1] = 0\n",
            ),
            Some(1),
        ),
        (
            "an inserted comment line",
            edit(" int i\n do 1", " int i\n // scale\n do 1"),
            Some(1),
        ),
        (
            "a blank line between procedures",
            edit("}\nproc mid", "}\n\nproc mid"),
            Some(0),
        ),
        (
            "a comment line in the header",
            edit("const m", "// the other bound\nconst m"),
            Some(0),
        ),
        (
            "a deleted procedure",
            edit("proc unused() {\n int u\n u = 1\n}\n", ""),
            Some(0),
        ),
        (
            "a renamed procedure",
            edit("proc other()", "proc another()").replacen("call other()", "call another()", 1),
            Some(2),
        ),
        (
            "a callee whose formals change",
            edit("int len)", "real len)"),
            Some(2),
        ),
        (
            "a common block named first by another procedure",
            edit(" int i\n do 1", " common /late/ real t0[4]\n int i\n do 1"),
            Some(1),
        ),
        (
            "a changed const",
            edit("const m = 4", "const m = 5"),
            Some(5),
        ),
        (
            "a new procedure",
            edit("proc unused()", "proc fresh() {\n}\nproc unused()"),
            Some(1),
        ),
        (
            "an array formal made scalar",
            edit("real a[*], int len)", "real a, int len)"),
            None,
        ),
        (
            "a callee deleted",
            edit("proc other()", "proc gone()"),
            None,
        ),
        (
            "a duplicate procedure",
            edit("proc unused()", "proc mid()"),
            None,
        ),
        ("a procedure left open", edit(" u = 1\n}", " u = 1\n"), None),
    ];
    for (what, text, parsed) in cases {
        assert_ne!(text, PROGRAM, "{what}");
        assert_eq!(check(&prev, &text, what), parsed, "{what}");
        // And back again.
        if let Ok(edited) = parse_program(&text) {
            check(&edited, PROGRAM, &format!("{what}, undone"));
        }
    }
}
