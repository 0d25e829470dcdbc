//! Differential test of the dependence recorder's profiling run against a
//! reference that keeps everything.
//!
//! `suif_dynamic::DynDepAnalyzer` keeps, per address, one stamp for the last
//! write and two for reads since it.  The reference here keeps, per written
//! address, the last write's iteration vector — `(loop, invocation,
//! iteration)` for every active loop — and *every* read since it, and
//! compares vectors on every access, so it records each carried flow, anti
//! and output dependence exactly.  Both observe the same run of every
//! program (composed as `(reference, recorder)` hooks) under every
//! configuration the recorder has:
//! * flow and output dependences must be equal — both come from the one
//!   last write;
//! * anti dependences must be a subset: two read slots can miss an inner
//!   loop's anti dependence where an outer one is kept.  Each suite prints
//!   how many `(loop, variable)` anti pairs the slots miss.

use std::collections::{HashMap, HashSet};
use suif_analysis::{ParallelizeConfig, Parallelizer};
use suif_benchmarks::{apps, ch4_apps, ch6_apps, Scale};
use suif_dynamic::machine::Machine;
use suif_dynamic::{DepKind, DynDepAnalyzer, DynDepConfig, DynDepReport, Hooks};
use suif_ir::{Program, StmtId, VarId};

// ----- the reference: iteration vectors ----------------------------------

/// A point in the dynamic loop-iteration space: `(loop, invocation,
/// iteration)` for every active loop, outermost first.
type IterVec = Box<[(StmtId, u64, i64)]>;

/// The vector-based recorder.  Vectors are interned: a read or write keeps
/// the index of the vector of the iteration it happened in.
struct Reference {
    config: DynDepConfig,
    /// Active loops, outermost first.
    active: Vec<ActiveLoop>,
    /// Every vector an access was made in.
    vectors: Vec<IterVec>,
    /// The index of the current vector, once an access interned it.
    current: Option<u32>,
    /// Per address, the last write's vector and every read since it
    /// (consecutive repeats once).
    cells: HashMap<usize, (Option<u32>, Vec<u32>)>,
    deps: HashMap<StmtId, HashMap<VarId, u8>>,
    /// Per-loop invocation counters.
    invocations: HashMap<StmtId, u64>,
    /// Nesting depth at which recording was suspended by sampling (if any).
    suspended_at: Option<usize>,
}

struct ActiveLoop {
    stmt: StmtId,
    invocation: u64,
    iter: i64,
    iters_seen: u64,
}

impl Reference {
    fn new(config: DynDepConfig) -> Reference {
        Reference {
            config,
            active: Vec::new(),
            vectors: Vec::new(),
            current: None,
            cells: HashMap::new(),
            deps: HashMap::new(),
            invocations: HashMap::new(),
            suspended_at: None,
        }
    }

    fn vector(&mut self) -> u32 {
        if self.current.is_none() {
            let v = self.active.iter();
            self.vectors
                .push(v.map(|a| (a.stmt, a.invocation, a.iter)).collect());
            self.current = Some(self.vectors.len() as u32 - 1);
        }
        self.current.unwrap()
    }

    /// The loop an earlier access in vector `w` is carried at against the
    /// current one: the first level where both are in one invocation of a
    /// loop, in different iterations.
    fn level(&self, w: u32) -> Option<StmtId> {
        let w = &self.vectors[w as usize];
        for (k, a) in self.active.iter().enumerate() {
            let &(ws, winv, witer) = w.get(k)?;
            if ws != a.stmt || winv != a.invocation {
                // An earlier invocation at this level: before this loop
                // instance entirely.
                return None;
            }
            if witer != a.iter {
                return Some(a.stmt);
            }
        }
        None
    }

    fn add(&mut self, at: Option<StmtId>, var: VarId, kind: DepKind) {
        if let Some(stmt) = at {
            *self.deps.entry(stmt).or_default().entry(var).or_default() |= kind.bit();
        }
    }

    fn recording(&self, var: VarId) -> bool {
        self.suspended_at.is_none() && !self.config.ignore_vars.contains(&var)
    }

    fn report(self) -> DynDepReport {
        DynDepReport { deps: self.deps }
    }
}

impl Hooks for Reference {
    fn loop_enter(&mut self, stmt: StmtId, _ops: u64) {
        let inv = self.invocations.entry(stmt).or_insert(0);
        *inv += 1;
        self.active.push(ActiveLoop {
            stmt,
            invocation: *inv,
            iter: 0,
            iters_seen: 0,
        });
        self.current = None;
    }

    fn loop_iter(&mut self, _stmt: StmtId, iter: i64) {
        let depth = self.active.len() - 1;
        let top = &mut self.active[depth];
        top.iter = iter;
        top.iters_seen += 1;
        if let Some(cap) = self.config.max_iterations_per_invocation {
            if top.iters_seen > cap && self.suspended_at.is_none() {
                self.suspended_at = Some(depth);
            }
        }
        self.current = None;
    }

    fn loop_exit(&mut self, _stmt: StmtId, _ops: u64) {
        self.active.pop();
        if self.suspended_at == Some(self.active.len()) {
            self.suspended_at = None;
        }
        self.current = None;
    }

    fn load(&mut self, var: VarId, addr: usize) {
        if !self.recording(var) {
            return;
        }
        let now = self.vector();
        let (write, _) = self.cells.get(&addr).cloned().unwrap_or_default();
        let at = write.and_then(|w| self.level(w));
        self.add(at, var, DepKind::Flow);
        let reads = &mut self.cells.entry(addr).or_default().1;
        if reads.last() != Some(&now) {
            reads.push(now);
        }
    }

    fn store(&mut self, var: VarId, addr: usize) {
        if !self.recording(var) {
            return;
        }
        let now = self.vector();
        let (write, reads) = self
            .cells
            .insert(addr, (Some(now), Vec::new()))
            .unwrap_or_default();
        let at = write.and_then(|w| self.level(w));
        self.add(at, var, DepKind::Output);
        for r in reads {
            let at = self.level(r);
            self.add(at, var, DepKind::Anti);
        }
    }
}

// ----- the differential ----------------------------------------------------

/// The `(loop, variable)` pairs seen carrying `kind`.
fn pairs(rep: &DynDepReport, kind: DepKind) -> HashSet<(StmtId, VarId)> {
    let loops = rep.deps.keys();
    loops
        .flat_map(|&l| rep.vars(l, kind).map(move |v| (l, v)))
        .collect()
}

/// The four configurations every program is checked under.
fn configs(program: &Program) -> Vec<(&'static str, DynDepConfig)> {
    let analysis = Parallelizer::analyze(program, ParallelizeConfig::default());
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
        ("cap 3", capped(3)),
        ("cap 1", capped(1)),
    ]
}

/// What a suite's runs found, summed over programs and configurations.
#[derive(Default)]
struct Tally {
    /// Runs whose recorder reported some flow dependence.
    flow_reports: usize,
    /// Anti `(loop, variable)` pairs in the reference, and those of them
    /// the recorder missed.
    anti: usize,
    anti_missed: usize,
    /// Output pairs.
    output: usize,
}

/// Run `program` once per configuration under both recorders.
fn check(name: &str, program: &Program, input: &[f64], tally: &mut Tally) {
    for (label, config) in configs(program) {
        let mut both = (Reference::new(config.clone()), DynDepAnalyzer::new(config));
        {
            let mut m = Machine::new(program, &mut both).expect("layout");
            m.set_input(input.to_vec());
            m.run()
                .unwrap_or_else(|e| panic!("{name} [{label}] failed to run: {e}"));
        }
        let (exact, kept) = (both.0.report(), both.1.report());
        for kind in [DepKind::Flow, DepKind::Output] {
            assert_eq!(
                pairs(&exact, kind),
                pairs(&kept, kind),
                "{name} [{label}]: {kind:?} dependences differ"
            );
        }
        let (exact_anti, kept_anti) = (pairs(&exact, DepKind::Anti), pairs(&kept, DepKind::Anti));
        assert!(
            kept_anti.is_subset(&exact_anti),
            "{name} [{label}]: anti dependences the reference never saw: {:?}",
            kept_anti.difference(&exact_anti).collect::<Vec<_>>()
        );
        tally.flow_reports += usize::from(!pairs(&kept, DepKind::Flow).is_empty());
        tally.anti += exact_anti.len();
        tally.anti_missed += exact_anti.len() - kept_anti.len();
        tally.output += pairs(&exact, DepKind::Output).len();
    }
}

fn report(suite: &str, tally: &Tally) {
    println!(
        "{suite}: the two read slots miss {} of {} anti (loop, variable) pairs; \
         {} output pairs; {} runs with a flow dependence",
        tally.anti_missed, tally.anti, tally.output, tally.flow_reports
    );
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
    let mut tally = Tally::default();
    for bench in &suite {
        check(bench.name, &bench.parse(), &bench.input, &mut tally);
    }
    report("applications", &tally);
    assert!(
        tally.flow_reports > 13,
        "only {} non-empty reports",
        tally.flow_reports
    );
    assert!(tally.anti > 0 && tally.output > 0);
}

#[test]
fn clock_shadow_agrees_with_stamps_on_generated_programs() {
    const PROGRAMS: u64 = 300;
    let mut tally = Tally::default();
    for seed in 0..PROGRAMS {
        let source = minif_gen::source_for_seed(seed);
        let program = suif_ir::parse_program(&source)
            .unwrap_or_else(|e| panic!("seed {seed} failed to parse: {e}"));
        check(&minif_gen::name_for_seed(seed), &program, &[], &mut tally);
    }
    report("generated programs", &tally);
    assert!(
        tally.flow_reports > 100,
        "only {} non-empty reports: the comparison is close to vacuous",
        tally.flow_reports
    );
    assert!(tally.anti > 0 && tally.output > 0);
}
