//! Source text cannot overflow a worker's stack.  The parser refuses a
//! program whose statement nesting passes `MAX_STMT_DEPTH` or whose
//! expression depth passes `MAX_EXPR_DEPTH`, naming the line; a program at
//! both limits is served end to end.  It also refuses a program with more
//! than `MAX_PROCS` procedures, which the analysis has no fresh-symbol
//! blocks for, so a call chain is at most `MAX_PROCS` deep; a chain that
//! deep is served end to end too.  Every check runs on a thread with a
//! 2 MiB stack, the default for a spawned thread and so for each worker of
//! the daemon's command pool.  In a debug build (as `cargo test` runs it)
//! frames are at their largest, so this is the tight case.

use suif_ir::parser::{MAX_EXPR_DEPTH, MAX_PROCS, MAX_STMT_DEPTH};
use suif_server::json::Json;
use suif_server::Daemon;

const WORKER_STACK: usize = 2 << 20;

fn on_worker_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(WORKER_STACK)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no stack overflow, no panic");
}

fn request(cmd: &str, fields: &[(&'static str, Json)]) -> String {
    let mut all = vec![("cmd", Json::str(cmd))];
    all.extend(fields.iter().cloned());
    Json::obj(all).to_string()
}

fn load(text: &str) -> String {
    request("load", &[("text", Json::str(text))])
}

fn is_ok(reply: &Json) -> bool {
    reply.get("ok").and_then(Json::as_bool) == Some(true)
}

fn wrap(text: &str) -> String {
    format!("program p\nproc main() {{\n real x\n int k\n{text}\n}}\n")
}

/// `n` procedures: `n - 1` empty ones, one per line from line 2, then
/// `main`, which calls them all.
fn with_procs(n: usize) -> String {
    let calls: String = (1..n).map(|k| format!(" call p{k}()\n")).collect();
    let procs: String = (1..n).map(|k| format!("proc p{k}() {{ }}\n")).collect();
    format!("program p\n{procs}proc main() {{\n{calls}}}\n")
}

/// A call chain `MAX_PROCS` procedures deep: `main` passes an array to
/// `p1`, each `pk` passes it on to `p(k+1)`, and the last one writes it in
/// a loop, so every analysis walks the whole chain.  Procedures come
/// callee first.
fn call_chain() -> String {
    let last = MAX_PROCS - 1;
    let mut src = format!(
        "program chain\nproc p{last}(real b[*]) {{\n int i\n do 1 i = 2, 8 {{\n  b[i] = b[i - 1] + 1\n }}\n}}\n"
    );
    for k in (1..last).rev() {
        src.push_str(&format!(
            "proc p{k}(real b[*]) {{\n call p{}(b)\n}}\n",
            k + 1
        ));
    }
    src.push_str("proc main() {\n real a[8]\n a[1] = 0\n call p1(a)\n print a[8]\n}\n");
    src
}

/// The three shapes that aborted a 2-worker release daemon before the
/// parser counted nesting (`(`-nesting, `if`-nesting, and a left-deep
/// operator chain with no parentheses at all), and a tree about 4 000
/// levels high from a short line: 63 parentheses, each around a 64-term
/// chain.  Counting only the levels that enclose a token misses the height
/// a left operand brings to the operators after it.
fn over_limit() -> Vec<(&'static str, String)> {
    let nested_chains = (0..63).fold("1".to_string(), |inner, _| {
        format!("({inner}{})", "+1".repeat(63))
    });
    vec![
        (
            "2 000 nested parentheses",
            wrap(&format!(" x = {}1{}", "(".repeat(2000), ")".repeat(2000))),
        ),
        (
            "1 000 nested ifs",
            wrap(&format!(
                "{} k = 1\n{}",
                " if k == 0 {\n".repeat(1000),
                " }\n".repeat(1000)
            )),
        ),
        (
            "a 20 000-term chain",
            wrap(&format!(" x = 1{}", "+1".repeat(19_999))),
        ),
        (
            "63 parentheses around 64-term chains",
            wrap(&format!(" x = {nested_chains}{}", "+1".repeat(63))),
        ),
    ]
}

/// `n` levels of `open … close` around `core`.
fn nest(open: &str, core: &str, close: &str, n: u32) -> String {
    let n = n as usize;
    format!("{}{core}{}", open.repeat(n), close.repeat(n))
}

/// One program at both limits: `MAX_STMT_DEPTH` nested `do` loops (every
/// analysis recurses through the loop tree), and in the innermost loop one
/// statement per expression shape at `MAX_EXPR_DEPTH`.  The outer loops run
/// once each; the innermost carries a dependence through `a` that only a
/// slice can explain.
fn at_limits() -> String {
    let (s, e) = (MAX_STMT_DEPTH, MAX_EXPR_DEPTH);
    let outer = s - 1;
    let vars: Vec<String> = (1..=outer).map(|d| format!("i{d}")).collect();
    let mut src = format!(
        "program limits\nproc main() {{\n real a[8], s\n int p[8], k, {}\n",
        vars.join(", ")
    );
    src.push_str(" do 100 k = 1, 8 {\n  p[k] = k\n  a[k] = k\n }\n s = 0.5\n");
    for (d, v) in vars.iter().enumerate() {
        src.push_str(&format!(" do {} {v} = 1, 1 {{\n", d + 1));
    }
    src.push_str(&format!(" do {s} k = 2, 8 {{\n"));
    // The right-hand side is level 1; each shape adds `e - 1` levels.
    src.push_str(&format!("  s = s{}\n", " + 1".repeat(e as usize - 1)));
    src.push_str(&format!("  s = {}\n", nest("(", "s", ")", e - 1)));
    src.push_str(&format!("  s = {}\n", nest("- ", "s", "", e - 1)));
    src.push_str(&format!("  s = {}\n", nest("abs(", "s", ")", e - 1)));
    // `a[`, the `- 1` of `k - 1` and the `+ s` take three of the levels.
    src.push_str(&format!(
        "  a[k] = a[{}] + s\n",
        nest("p[", "k - 1", "]", e - 4)
    ));
    src.push_str(" }\n");
    src.push_str(&" }\n".repeat(outer as usize));
    src.push_str(" print s, a[8]\n}\n");
    src
}

#[test]
fn over_limit_loads_are_refused_and_the_daemon_keeps_serving() {
    on_worker_stack(|| {
        let mut d = Daemon::new(1);
        let mut refused = over_limit()
            .into_iter()
            .map(|(shape, text)| (shape, text, "nested deeper than".to_string()))
            .collect::<Vec<_>>();
        refused.push((
            "one procedure too many",
            with_procs(MAX_PROCS + 1),
            format!("line {}: more than {MAX_PROCS} procedures", MAX_PROCS + 2),
        ));
        for (shape, text, why) in refused {
            let (reply, close) = d.handle_line(&load(&text));
            assert!(!close, "{shape}");
            assert!(!is_ok(&reply), "{shape}: {reply}");
            let err = reply.get("error").and_then(Json::as_str).unwrap_or("");
            assert!(err.contains(&why), "{shape}: {err}");
            assert!(
                err.contains("line "),
                "{shape}: the error names the line: {err}"
            );
        }
        let (reply, _) = d.handle_line(&load(include_str!("../docs/samples/demo.mf")));
        assert!(is_ok(&reply), "{reply}");
        let (reply, _) = d.handle_line(&request("guru", &[]));
        assert!(is_ok(&reply), "{reply}");
    });
}

#[test]
fn a_program_with_max_procs_procedures_loads() {
    on_worker_stack(|| {
        let mut d = Daemon::new(1);
        let (reply, _) = d.handle_line(&load(&with_procs(MAX_PROCS)));
        assert!(is_ok(&reply), "{reply}");
    });
}

#[test]
fn the_at_limit_program_loads_and_answers_guru_slice_and_certify() {
    on_worker_stack(|| {
        let mut d = Daemon::new(1);
        let (reply, _) = d.handle_line(&load(&at_limits()));
        assert!(is_ok(&reply), "{reply}");
        let (reply, _) = d.handle_line(&request("guru", &[]));
        assert!(is_ok(&reply), "{reply}");
        let inner = format!("main/{MAX_STMT_DEPTH}");
        let (reply, _) = d.handle_line(&request("slice", &[("loop", Json::str(&inner))]));
        assert!(is_ok(&reply), "{reply}");
        let (reply, _) = d.handle_line(&request(
            "certify",
            &[("loop", Json::str(&inner)), ("schedules", Json::int(1))],
        ));
        assert!(is_ok(&reply), "{reply}");
    });
}

#[test]
fn a_call_chain_max_procs_deep_answers_guru_slice_and_certify() {
    on_worker_stack(|| {
        let mut d = Daemon::new(1);
        let (reply, _) = d.handle_line(&load(&call_chain()));
        assert!(is_ok(&reply), "{reply}");
        let (reply, _) = d.handle_line(&request("guru", &[]));
        assert!(is_ok(&reply), "{reply}");
        let bottom = format!("p{}/1", MAX_PROCS - 1);
        let (reply, _) = d.handle_line(&request("slice", &[("loop", Json::str(&bottom))]));
        assert!(is_ok(&reply), "{reply}");
        let (reply, _) = d.handle_line(&request(
            "certify",
            &[("loop", Json::str(&bottom)), ("schedules", Json::int(1))],
        ));
        assert!(is_ok(&reply), "{reply}");
    });
}
