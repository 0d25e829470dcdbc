//! Program call graph with topological ordering (the bottom-up / top-down
//! traversal orders of the region-based interprocedural analyses, §5.2).

use crate::program::{ProcId, Program, Stmt, StmtId};
use std::collections::{HashMap, HashSet};

/// One call site.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CallSite {
    /// Calling procedure.
    pub caller: ProcId,
    /// The `call` statement.
    pub stmt: StmtId,
    /// Callee.
    pub callee: ProcId,
}

/// The call graph (a DAG; recursion is rejected by sema).
#[derive(Clone, Debug)]
pub struct CallGraph {
    /// All call sites in program order.
    pub sites: Vec<CallSite>,
    callees: HashMap<ProcId, Vec<ProcId>>,
    callers: HashMap<ProcId, Vec<CallSite>>,
    bottom_up: Vec<ProcId>,
}

impl CallGraph {
    /// Build the call graph of a program.
    pub fn build(program: &Program) -> CallGraph {
        let mut sites = Vec::new();
        let mut callees: HashMap<ProcId, Vec<ProcId>> = HashMap::new();
        let mut callers: HashMap<ProcId, Vec<CallSite>> = HashMap::new();
        for proc in &program.procedures {
            callees.entry(proc.id).or_default();
            program.walk_stmts(proc.id, &mut |s, _| {
                if let Stmt::Call { id, callee, .. } = s {
                    let site = CallSite {
                        caller: proc.id,
                        stmt: *id,
                        callee: *callee,
                    };
                    sites.push(site);
                    callees.entry(proc.id).or_default().push(*callee);
                    callers.entry(*callee).or_default().push(site);
                }
            });
        }
        // Topological sort, leaves first (bottom-up order).
        let mut order = Vec::new();
        let mut visited = vec![false; program.procedures.len()];
        fn dfs(
            p: ProcId,
            callees: &HashMap<ProcId, Vec<ProcId>>,
            visited: &mut [bool],
            order: &mut Vec<ProcId>,
        ) {
            if visited[p.0 as usize] {
                return;
            }
            visited[p.0 as usize] = true;
            if let Some(cs) = callees.get(&p) {
                for &c in cs {
                    dfs(c, callees, visited, order);
                }
            }
            order.push(p);
        }
        for proc in &program.procedures {
            dfs(proc.id, &callees, &mut visited, &mut order);
        }
        CallGraph {
            sites,
            callees,
            callers,
            bottom_up: order,
        }
    }

    /// Procedures leaves-first (callees before callers).
    pub fn bottom_up(&self) -> &[ProcId] {
        &self.bottom_up
    }

    /// Procedures callers-first (main before callees).
    pub fn top_down(&self) -> Vec<ProcId> {
        let mut v = self.bottom_up.clone();
        v.reverse();
        v
    }

    /// Direct callees of a procedure (with multiplicity).
    pub fn callees_of(&self, p: ProcId) -> &[ProcId] {
        self.callees.get(&p).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// All call sites targeting a procedure.
    pub fn callers_of(&self, p: ProcId) -> &[CallSite] {
        self.callers.get(&p).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Render as an indented call tree rooted at `main` (the textual
    /// substitute for the hyperbolic call-graph viewer of §2.7).
    pub fn render_tree(&self, program: &Program) -> String {
        let mut out = String::new();
        fn go(cg: &CallGraph, program: &Program, p: ProcId, depth: usize, out: &mut String) {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&program.proc(p).name);
            out.push('\n');
            let mut seen = Vec::new();
            for &c in cg.callees_of(p) {
                if !seen.contains(&c) {
                    seen.push(c);
                    go(cg, program, c, depth + 1, out);
                }
            }
        }
        go(self, program, program.main, 0, &mut out);
        out
    }
}

/// Procedures transitively callable from a loop body, in id order.
pub fn callees_of_loop(program: &Program, loop_stmt: StmtId) -> Vec<ProcId> {
    fn direct(body: &[Stmt], out: &mut Vec<ProcId>) {
        for s in body {
            match s {
                Stmt::Call { callee, .. } => out.push(*callee),
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    direct(then_body, out);
                    direct(else_body, out);
                }
                Stmt::Do { body, .. } => direct(body, out),
                _ => {}
            }
        }
    }
    let mut work: Vec<ProcId> = Vec::new();
    if let Some((Stmt::Do { body, .. }, _)) = program.find_stmt(loop_stmt) {
        direct(body, &mut work);
    }
    let mut out: HashSet<ProcId> = HashSet::new();
    while let Some(p) = work.pop() {
        if out.insert(p) {
            direct(&program.proc(p).body, &mut work);
        }
    }
    let mut v: Vec<ProcId> = out.into_iter().collect();
    v.sort();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    #[test]
    fn orders_bottom_up() {
        let p = parse_program(
            "program t\nproc a() { }\nproc b() { call a() }\nproc main() { call b() call a() }",
        )
        .unwrap();
        let cg = CallGraph::build(&p);
        let pos = |name: &str| {
            let id = p.proc_by_name(name).unwrap().id;
            cg.bottom_up().iter().position(|&x| x == id).unwrap()
        };
        assert!(pos("a") < pos("b"));
        assert!(pos("b") < pos("main"));
        assert_eq!(cg.sites.len(), 3);
    }

    #[test]
    fn callers_are_recorded() {
        let p =
            parse_program("program t\nproc a() { }\nproc main() { call a() call a() }").unwrap();
        let cg = CallGraph::build(&p);
        let a = p.proc_by_name("a").unwrap().id;
        assert_eq!(cg.callers_of(a).len(), 2);
        assert!(cg.callers_of(p.main).is_empty());
    }

    #[test]
    fn renders_tree() {
        let p = parse_program(
            "program t\nproc leaf() { }\nproc mid() { call leaf() }\nproc main() { call mid() }",
        )
        .unwrap();
        let cg = CallGraph::build(&p);
        let t = cg.render_tree(&p);
        assert_eq!(t, "main\n  mid\n    leaf\n");
    }
}
