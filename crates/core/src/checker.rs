//! The assertion checker (§2.8): uses the available static and dynamic
//! information to try to *disprove* a programmer's assertion before the
//! compiler trusts it.

use crate::explorer::Explorer;
use suif_analysis::Assertion;
use suif_dynamic::DepKind;

/// Outcome of checking one assertion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckResult {
    /// Nothing contradicts the assertion.
    Consistent,
    /// The assertion contradicts observed/derived facts — rejected.
    Contradicted(String),
    /// Accepted with a warning (e.g. the variable aliases storage used in
    /// other procedures, which are privatized together automatically,
    /// §2.8's cross-procedure privatization note).
    Warning(String),
}

/// Check an assertion against the session's static and dynamic facts.
pub fn check_assertion(ex: &Explorer<'_>, a: &Assertion) -> CheckResult {
    let (loop_name, var_name, is_privatize) = match a {
        Assertion::Privatizable { loop_name, var } => (loop_name, var, true),
        Assertion::Independent { loop_name, var } => (loop_name, var, false),
    };
    let Some(li) = ex
        .analysis
        .ctx
        .tree
        .loops
        .iter()
        .find(|l| &l.name == loop_name)
    else {
        return CheckResult::Contradicted(format!("no loop named `{loop_name}`"));
    };
    let proc_name = &ex.program.proc(li.proc).name;
    let Some(var) = ex.program.var_by_name(proc_name, var_name) else {
        return CheckResult::Contradicted(format!("no variable `{var_name}` in `{proc_name}`"));
    };

    // Dynamic check: the Dynamic Dependence Analyzer models privatization
    // (same-iteration write-then-read carries nothing), so any observed
    // loop-carried flow dependence on the variable disproves both
    // "privatizable" and "independent" for the user-supplied input set.
    // An anti or output dependence disproves "independent" only: private
    // storage is copied in, so privatization removes both kinds (every
    // private temporary written in each iteration carries them).
    let object = ex.analysis.ctx.array_of(var);
    let kinds: &[DepKind] = if is_privatize {
        &[DepKind::Flow]
    } else {
        &[DepKind::Flow, DepKind::Anti, DepKind::Output]
    };
    for &kind in kinds {
        if ex
            .dyndep
            .vars(li.stmt, kind)
            .any(|v| ex.analysis.ctx.array_of(v) == object)
        {
            return CheckResult::Contradicted(format!(
                "a loop-carried {} dependence on `{var_name}` was observed \
                 dynamically in {loop_name} for the user-supplied input set",
                kind.name()
            ));
        }
    }

    // Static sanity: the variable should be accessed in the loop at all.
    let accessed = ex
        .analysis
        .df()
        .loop_iter
        .get(&li.stmt)
        .and_then(|it| it.sum.acc.get(object))
        .map(|s| !s.read.is_empty() || !s.write.is_empty())
        .unwrap_or(false);
    if !accessed {
        return CheckResult::Warning(format!(
            "`{var_name}` does not appear to be accessed in {loop_name}; \
             the assertion has no effect"
        ));
    }

    // Cross-procedure aliasing (§2.8): privatizing a common-block variable
    // privatizes the storage for every procedure that accesses it; warn so
    // the user knows the assertion's true scope.
    if is_privatize {
        let aliases = ex.program.aliases_of(var);
        if !aliases.is_empty() {
            let procs: Vec<String> = aliases
                .iter()
                .map(|&v| {
                    format!(
                        "{}/{}",
                        ex.program.proc(ex.program.var(v).proc).name,
                        ex.program.var(v).name
                    )
                })
                .collect();
            return CheckResult::Warning(format!(
                "`{var_name}` shares storage with {}; the whole block is \
                 privatized for all of them automatically",
                procs.join(", ")
            ));
        }
    }
    CheckResult::Consistent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::Explorer;
    use suif_ir::parse_program;

    #[test]
    fn checker_rejects_false_privatization() {
        // The Fig. 3-1 lesson: XPS is NOT privatizable because the write is
        // conditional — the dynamic analyzer observes the carried flow.
        let src = r#"program t
proc main() {
  real xps[8], y[9], xp[64]
  int s, h, jj
  do 0 h = 1, 9 {
    y[h] = h
  }
  xps[1] = 0
  xps[2] = 0
  do 2365 s = 1, 8 {
    if s != 1 && s != 5 {
      do 2350 h = 1, 8 {
        xps[h] = y[h + 1]
      }
    }
    do 2360 jj = 1, 8 {
      xp[s + (jj - 1) * 8] = xps[jj]
    }
  }
  print xp[1]
}
"#;
        let p = parse_program(src).unwrap();
        let mut ex = Explorer::new(&p, vec![]).unwrap();
        let res = ex.assert_and_reanalyze(suif_analysis::Assertion::Privatizable {
            loop_name: "main/2365".into(),
            var: "xps".into(),
        });
        assert!(
            matches!(res, CheckResult::Contradicted(_)),
            "the costly §3.1 mistake must be caught: {res:?}"
        );
        // And the loop stays sequential.
        let l = ex
            .analysis
            .ctx
            .tree
            .loops
            .iter()
            .find(|l| l.name == "main/2365")
            .unwrap()
            .stmt;
        assert!(!ex.analysis.verdicts[&l].is_parallel());
    }

    #[test]
    fn checker_accepts_true_privatization() {
        let src = r#"program t
proc main() {
  real tmp[4], out[32]
  int i, j, n
  int sz[32]
  do 0 i = 1, 32 {
    sz[i] = mod(i, 4) + 1
  }
  do 1 i = 1, 32 {
    n = sz[i]
    do 2 j = 1, n {
      tmp[j] = i + j
    }
    do 3 j = 1, n {
      out[i] = out[i] + tmp[j]
    }
  }
  print out[5]
}
"#;
        let p = parse_program(src).unwrap();
        let ex = Explorer::new(&p, vec![]).unwrap();
        let res = check_assertion(
            &ex,
            &suif_analysis::Assertion::Privatizable {
                loop_name: "main/1".into(),
                var: "tmp".into(),
            },
        );
        assert_eq!(res, CheckResult::Consistent);
    }

    #[test]
    fn checker_warns_on_unused_variable() {
        let src = "program t\nproc main() {\n real a[4], b[4]\n int i\n do 1 i = 1, 4 {\n a[i] = i\n }\n print b[1]\n}";
        let p = parse_program(src).unwrap();
        let ex = Explorer::new(&p, vec![]).unwrap();
        let res = check_assertion(
            &ex,
            &suif_analysis::Assertion::Privatizable {
                loop_name: "main/1".into(),
                var: "b".into(),
            },
        );
        assert!(matches!(res, CheckResult::Warning(_)));
    }

    #[test]
    fn checker_warns_on_common_aliases() {
        let src = r#"program t
proc sub() {
  common /c/ real z[8]
  int i
  do 1 i = 1, 8 {
    z[i] = i
    z[i] = z[i] * 2
  }
}
proc main() {
  common /c/ real w[8]
  int i
  do 2 i = 1, 3 {
    call sub()
  }
  print w[1]
}
"#;
        let p = parse_program(src).unwrap();
        let ex = Explorer::new(&p, vec![]).unwrap();
        let res = check_assertion(
            &ex,
            &suif_analysis::Assertion::Privatizable {
                loop_name: "main/2".into(),
                var: "w".into(),
            },
        );
        assert!(matches!(res, CheckResult::Warning(_)), "{res:?}");
    }
    #[test]
    fn checker_rejects_unknown_loop_and_variable() {
        let src = "program t\nproc main() {\n real a[4]\n int i\n do 1 i = 1, 4 {\n a[i] = i\n }\n print a[1]\n}";
        let p = parse_program(src).unwrap();
        let ex = Explorer::new(&p, vec![]).unwrap();
        let res = check_assertion(
            &ex,
            &suif_analysis::Assertion::Independent {
                loop_name: "main/999".into(),
                var: "a".into(),
            },
        );
        assert!(matches!(res, CheckResult::Contradicted(_)), "{res:?}");
        let res = check_assertion(
            &ex,
            &suif_analysis::Assertion::Independent {
                loop_name: "main/1".into(),
                var: "nosuch".into(),
            },
        );
        assert!(matches!(res, CheckResult::Contradicted(_)), "{res:?}");
    }

    #[test]
    fn independence_is_refuted_by_an_anti_dependence_and_privatization_is_not() {
        // a[i] = a[i + 1] * 2 reads what the next iteration overwrites.
        let src = "program t\nproc main() {\n real a[9]\n int i\n do 0 i = 1, 9 {\n a[i] = i\n }\n do 1 i = 1, 8 {\n a[i] = a[i + 1] * 2\n }\n print a[4]\n}";
        let p = parse_program(src).unwrap();
        let ex = Explorer::new(&p, vec![]).unwrap();
        let (loop_name, var) = ("main/1".to_string(), "a".to_string());
        let res = check_assertion(
            &ex,
            &suif_analysis::Assertion::Independent {
                loop_name: loop_name.clone(),
                var: var.clone(),
            },
        );
        let CheckResult::Contradicted(why) = res else {
            panic!("an anti dependence must contradict independence: {res:?}");
        };
        assert!(why.contains("loop-carried anti dependence on `a`"), "{why}");
        let res = check_assertion(
            &ex,
            &suif_analysis::Assertion::Privatizable { loop_name, var },
        );
        assert!(!matches!(res, CheckResult::Contradicted(_)), "{res:?}");
    }

    #[test]
    fn checker_rejects_false_independence_dynamically() {
        // A genuine loop-carried flow: a[i] depends on a[i-1].
        let src = "program t\nproc main() {\n real a[16]\n int i\n a[1] = 1\n do 1 i = 2, 16 {\n a[i] = a[i - 1] + 1\n }\n print a[16]\n}";
        let p = parse_program(src).unwrap();
        let ex = Explorer::new(&p, vec![]).unwrap();
        let res = check_assertion(
            &ex,
            &suif_analysis::Assertion::Independent {
                loop_name: "main/1".into(),
                var: "a".into(),
            },
        );
        assert!(
            matches!(res, CheckResult::Contradicted(_)),
            "recurrence must contradict independence: {res:?}"
        );
    }
}
