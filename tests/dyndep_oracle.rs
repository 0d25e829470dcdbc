//! Differential test of the Dynamic Dependence Analyzer against its
//! predecessor.
//!
//! `suif_dynamic::DynDepAnalyzer` keeps one logical-clock value per address.
//! The implementation it replaced kept, per written address, a boxed
//! iteration vector — `(loop, invocation, iteration)` for every active
//! monitored loop — and compared vectors on every load.  That code lives on
//! here, unchanged apart from its name, as the reference: both analyzers
//! observe the same run of every program (composed as `(old, new)` hooks)
//! and must report the same loops with the same variable sets, under every
//! configuration knob the analyzer has.

use std::collections::{HashMap, HashSet};
use suif_analysis::{ParallelizeConfig, Parallelizer};
use suif_benchmarks::{apps, ch4_apps, ch6_apps, Scale};
use suif_dynamic::machine::Machine;
use suif_dynamic::{DynDepAnalyzer, DynDepConfig, DynDepReport, Hooks};
use suif_ir::{Program, RegionTree, StmtId, VarId};

// ----- the reference: the stamp-based analyzer ---------------------------

/// A stamp identifying a point in the dynamic loop-iteration space:
/// `(loop, invocation, iteration)` for every active monitored loop,
/// outermost first.
type IterVec = Box<[(StmtId, u64, i64)]>;

/// The stamp-based analyzer, as it stood in `suif_dynamic::dyndep`.
struct StampAnalyzer {
    config: DynDepConfig,
    /// Active monitored loops, outermost first.
    active: Vec<ActiveLoop>,
    /// Most recent write stamp per address.
    last_write: HashMap<usize, IterVec>,
    /// Observed loop-carried flow dependences: loop → variables.
    deps: HashMap<StmtId, HashSet<VarId>>,
    /// Per-loop invocation counters.
    invocations: HashMap<StmtId, u64>,
    /// Nesting depth at which tracking was suspended by sampling (if any).
    suspended_at: Option<usize>,
}

struct ActiveLoop {
    stmt: StmtId,
    invocation: u64,
    iter: i64,
    iters_seen: u64,
}

impl StampAnalyzer {
    /// Fresh analyzer.
    fn new(config: DynDepConfig) -> StampAnalyzer {
        StampAnalyzer {
            config,
            active: Vec::new(),
            last_write: HashMap::new(),
            deps: HashMap::new(),
            invocations: HashMap::new(),
            suspended_at: None,
        }
    }

    fn monitored(&self, stmt: StmtId) -> bool {
        match &self.config.monitor {
            Some(set) => set.contains(&stmt),
            None => true,
        }
    }

    fn tracking(&self) -> bool {
        self.suspended_at.is_none()
    }

    fn stamp(&self) -> IterVec {
        self.active
            .iter()
            .map(|a| (a.stmt, a.invocation, a.iter))
            .collect()
    }

    /// Finish and extract the report.
    fn report(self) -> DynDepReport {
        DynDepReport { deps: self.deps }
    }
}

impl Hooks for StampAnalyzer {
    fn loop_enter(&mut self, stmt: StmtId, _ops: u64) {
        if !self.monitored(stmt) {
            return;
        }
        let inv = self.invocations.entry(stmt).or_insert(0);
        *inv += 1;
        self.active.push(ActiveLoop {
            stmt,
            invocation: *inv,
            iter: 0,
            iters_seen: 0,
        });
    }

    fn loop_iter(&mut self, stmt: StmtId, iter: i64) {
        if !self.monitored(stmt) {
            return;
        }
        let depth = self.active.len().saturating_sub(1);
        if let Some(top) = self.active.last_mut() {
            if top.stmt == stmt {
                top.iter = iter;
                top.iters_seen += 1;
                if let Some(cap) = self.config.max_iterations_per_invocation {
                    if top.iters_seen > cap && self.suspended_at.is_none() {
                        self.suspended_at = Some(depth);
                    }
                }
            }
        }
    }

    fn loop_exit(&mut self, stmt: StmtId, _ops: u64) {
        if !self.monitored(stmt) {
            return;
        }
        if let Some(top) = self.active.last() {
            if top.stmt == stmt {
                let depth = self.active.len() - 1;
                if self.suspended_at == Some(depth) {
                    self.suspended_at = None;
                }
                self.active.pop();
            }
        }
    }

    fn load(&mut self, var: VarId, addr: usize) {
        if !self.tracking() || self.config.ignore_vars.contains(&var) || self.active.is_empty() {
            return;
        }
        let Some(w) = self.last_write.get(&addr) else {
            return;
        };
        // Scan the common prefix of the write stamp and the current stack,
        // outermost first.
        for (k, a) in self.active.iter().enumerate() {
            let Some(&(ws, winv, witer)) = w.get(k) else {
                // Write happened outside this loop (before it started):
                // upwards-exposed read from pre-loop data, no carried dep.
                break;
            };
            if ws != a.stmt || winv != a.invocation {
                // Different loop structure or an earlier invocation at this
                // level — the write precedes this loop instance entirely.
                break;
            }
            if witer != a.iter {
                // Same loop instance, different iteration: loop-carried
                // flow dependence at this loop.
                if !self.config.ignore_loop_vars.contains(&(a.stmt, var)) {
                    self.deps.entry(a.stmt).or_default().insert(var);
                }
                break;
            }
        }
    }

    fn store(&mut self, var: VarId, addr: usize) {
        if !self.tracking() || self.config.ignore_vars.contains(&var) {
            return;
        }
        self.last_write.insert(addr, self.stamp());
    }
}

// ----- the differential ----------------------------------------------------

/// The loops with a non-empty variable set, and the sets.
fn observed(rep: &DynDepReport) -> HashMap<StmtId, &HashSet<VarId>> {
    rep.deps
        .iter()
        .filter(|(_, vars)| !vars.is_empty())
        .map(|(&l, vars)| (l, vars))
        .collect()
}

/// The six configurations every program is checked under.
fn configs(program: &Program) -> Vec<(&'static str, DynDepConfig)> {
    let loops: Vec<StmtId> = RegionTree::build(program)
        .loops
        .iter()
        .map(|l| l.stmt)
        .collect();
    let analysis = Parallelizer::analyze(program, ParallelizeConfig::default());
    let monitoring = |set: HashSet<StmtId>| DynDepConfig {
        monitor: Some(set),
        ..DynDepConfig::default()
    };
    let capped = |cap| DynDepConfig {
        max_iterations_per_invocation: Some(cap),
        ..DynDepConfig::default()
    };
    vec![
        ("default", DynDepConfig::default()),
        (
            "explorer",
            suif_explorer::explorer::dyndep_config(program, &analysis),
        ),
        (
            "monitor every other loop",
            monitoring(loops.iter().copied().step_by(2).collect()),
        ),
        (
            "monitor all but the first loop",
            monitoring(loops.iter().copied().skip(1).collect()),
        ),
        ("cap 3", capped(3)),
        ("cap 1", capped(1)),
    ]
}

/// Run `program` once per configuration under both analyzers; returns how
/// many of the reports were non-empty.
fn check(name: &str, program: &Program, input: &[f64]) -> usize {
    let mut non_empty = 0;
    for (label, config) in configs(program) {
        let mut both = (
            StampAnalyzer::new(config.clone()),
            DynDepAnalyzer::new(config),
        );
        {
            let mut m = Machine::new(program, &mut both).expect("layout");
            m.set_input(input.to_vec());
            m.run()
                .unwrap_or_else(|e| panic!("{name} [{label}] failed to run: {e}"));
        }
        let (old, new) = (both.0.report(), both.1.report());
        assert_eq!(
            observed(&old),
            observed(&new),
            "{name} [{label}]: the analyzers disagree"
        );
        non_empty += usize::from(!observed(&new).is_empty());
    }
    non_empty
}

#[test]
fn clock_shadow_agrees_with_stamps_on_the_applications() {
    let scale = Scale::Test;
    let mut suite = ch4_apps(scale);
    suite.push(apps::flo88(scale, true));
    suite.push(apps::wave5(scale));
    suite.push(apps::hydro2d(scale));
    suite.extend(ch6_apps(scale));
    assert_eq!(suite.len(), 13);
    let mut non_empty = 0;
    for bench in &suite {
        non_empty += check(bench.name, &bench.parse(), &bench.input);
    }
    assert!(non_empty > 13, "only {non_empty} non-empty reports");
}

#[test]
fn clock_shadow_agrees_with_stamps_on_generated_programs() {
    const PROGRAMS: u64 = 300;
    let mut non_empty = 0;
    for seed in 0..PROGRAMS {
        let source = minif_gen::source_for_seed(seed);
        let program = suif_ir::parse_program(&source)
            .unwrap_or_else(|e| panic!("seed {seed} failed to parse: {e}"));
        non_empty += check(&minif_gen::name_for_seed(seed), &program, &[]);
    }
    assert!(
        non_empty > 100,
        "only {non_empty} non-empty reports: the comparison is close to vacuous"
    );
}
