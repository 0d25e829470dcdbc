//! End-to-end tests of the `suif-explorer` command-line driver.

use std::io::Write;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_suif-explorer");

fn write_temp(name: &str, src: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("suif_cli_{name}_{}.mf", std::process::id()));
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(src.as_bytes()).unwrap();
    path
}

const SEQ_SRC: &str = r#"program t
proc main() {
  real a[32]
  real acc
  int i
  a[1] = 1
  do 1 i = 2, 32 {
    a[i] = a[i - 1] * 1.01
  }
  acc = 0
  do 2 i = 1, 32 {
    acc = acc + a[i]
  }
  print acc
}
"#;

#[test]
fn analyze_reports_verdicts_and_targets() {
    let f = write_temp("analyze", SEQ_SRC);
    let out = Command::new(BIN).arg("analyze").arg(&f).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("main/1") && text.contains("sequential"),
        "{text}"
    );
    assert!(
        text.contains("main/2") && text.contains("PARALLEL"),
        "{text}"
    );
    std::fs::remove_file(f).ok();
}

/// `i64::MIN / -1` once panicked the interpreter and, in a subscript, the
/// static analysis' constant folding, and `analyze` aborted.
#[test]
fn analyze_survives_integer_division_overflow() {
    let src = "program t\nproc main() {\n int a, b\n a = 4611686018427387904 * 2\n b = 0 - 1\n print a / b\n}\n";
    let f = write_temp("overflow", src);
    let out = Command::new(BIN).arg("analyze").arg(&f).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(f).ok();

    let src = "program t\nproc main() {\n real a[8]\n int i\n do 1 i = 1, 4 {\n  a[i + (0 - 4611686018427387904 - 4611686018427387904) / (0 - 1)] = 1.0\n }\n}\n";
    let f = write_temp("overflow_subscript", src);
    let out = Command::new(BIN).arg("analyze").arg(&f).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("is -9223372036854775807 (< 1)"), "{stderr}");
    std::fs::remove_file(f).ok();
}

#[test]
fn slice_positional_loop_name_is_accepted() {
    let f = write_temp("slice", SEQ_SRC);
    let out = Command::new(BIN)
        .args(["slice".as_ref(), f.as_os_str(), "main/1".as_ref()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // The recurrence on `a` must be surfaced with slice lines.
    assert!(text.contains("a") && !text.trim().is_empty(), "{text}");
    std::fs::remove_file(f).ok();
}

#[test]
fn run_compares_sequential_and_parallel() {
    let f = write_temp("run", SEQ_SRC);
    let out = Command::new(BIN)
        .args([
            "run".as_ref(),
            f.as_os_str(),
            "--threads".as_ref(),
            "2".as_ref(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Program output goes to stdout; the timing summary goes to stderr.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stdout.trim().is_empty(), "program output missing");
    assert!(
        stderr.contains("sequential") && stderr.contains("parallel"),
        "{stderr}"
    );
    std::fs::remove_file(f).ok();
}

/// A wrong assertion — `main/1` carries an anti-dependence on `a`, and the
/// user asserts it away — makes the parallel output differ.  The note says
/// so and blames no reassociation: no plan of this program reduces.
#[test]
fn run_does_not_blame_reassociation_without_a_reduction() {
    let f = write_temp(
        "run_anti",
        "program t\nproc main() {\n real a[4001]\n int i\n do 0 i = 1, 4001 {\n  a[i] = i\n }\n \
         do 1 i = 1, 4000 {\n  a[i] = a[i + 1] * 2\n }\n print a[1000]\n}\n",
    );
    let out = Command::new(BIN)
        .args([
            "run".as_ref(),
            f.as_os_str(),
            "--threads".as_ref(),
            "4".as_ref(),
        ])
        .args(["--assert", "main/1:a"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("note: outputs differ"), "{stderr}");
    assert!(!stderr.contains("reassociation"), "{stderr}");
    std::fs::remove_file(f).ok();
}

#[test]
fn codeview_renders_markers() {
    let f = write_temp("codeview", SEQ_SRC);
    let out = Command::new(BIN).arg("codeview").arg(&f).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("codeview"), "{text}");
    std::fs::remove_file(f).ok();
}

#[test]
fn explore_with_assertion_is_checked() {
    // Asserting the recurrence array privatizable must be REJECTED by the
    // dynamic check (§2.8) and the loop stays sequential.
    let f = write_temp("explore", SEQ_SRC);
    let out = Command::new(BIN)
        .args([
            "explore".as_ref(),
            f.as_os_str(),
            "--assert".as_ref(),
            "main/1:a".as_ref(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("REJECTED"), "{text}");
    std::fs::remove_file(f).ok();
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = Command::new(BIN).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage"), "{err}");
    // Unknown option.
    let f = write_temp("badopt", SEQ_SRC);
    let out = Command::new(BIN)
        .args(["analyze".as_ref(), f.as_os_str(), "--bogus".as_ref()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    std::fs::remove_file(f).ok();
    // `serve` has one pool and one knob for it: the analysis-thread and
    // speculation flags are gone, not ignored.
    for removed in [["--speculate", "4"], ["--threads", "2"]] {
        let out = Command::new(BIN)
            .arg("serve")
            .args(removed)
            .stdin(std::process::Stdio::null())
            .output()
            .unwrap();
        assert!(!out.status.success(), "serve {removed:?} was accepted");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("unknown option") && err.contains("usage"),
            "{err}"
        );
    }
}
