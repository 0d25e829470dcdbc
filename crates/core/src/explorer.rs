//! The Explorer pipeline (§2.3.1): compile → auto-parallelize → one
//! instrumented run feeding both Execution Analyzers (loop profile and
//! dynamic dependence) → guru interaction.
//!
//! The run is a fact like every static result: [`Explorer::with_store`]
//! demands it through the session's [`FactStore`], so a store, tier or
//! snapshot that already holds the run of this program on this input
//! answers without interpreting anything.  The run is keyed by what it
//! observes ([`suif_analysis::execution::execute_hash_of`]): an edit that changes only literals no
//! branch, bound, subscript or divisor reads is served the same way.

use crate::guru::{self, GuruReport};
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;
use suif_analysis::execution::{execute_hash_of, EXECUTE_KEY};
use suif_analysis::{
    contract::ContractionCandidate, decomp::DecompFact, deps::CarriedDeps, split::BlockSplit,
    AnalyzeStats, Assertion, ExecutionFact, FactKey, FactStore, LoopExecution, LoopVerdict,
    ParallelizeConfig, Parallelizer, Pass, PassId, ProgramAnalysis, ScheduleOptions, Scope,
    SummaryCache, VarClass,
};
use suif_dynamic::machine::Machine;
use suif_dynamic::{
    DynDepAnalyzer, DynDepConfig, DynDepReport, LoopProfile, LoopProfiler, ProfileReport,
    MAX_EXECUTE_OPS,
};
use suif_ir::{Program, StmtId, VarId};
use suif_slicing::{Slice, SliceKind, SliceOptions, Slicer};

/// Per access site of a dependence: the site's source line with its
/// program slice and its control slice.
pub type SiteSlices = Vec<(u32, Slice, Slice)>;

/// Explorer failure.
#[derive(Debug)]
pub struct ExplorerError(pub String);

impl std::fmt::Display for ExplorerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "explorer error: {}", self.0)
    }
}

impl std::error::Error for ExplorerError {}

/// What the instrumented run behind an open cost — the run that *produced*
/// the fact, which need not be this open's.
#[derive(Clone, Copy, Debug)]
pub struct ExecutionStats {
    /// Virtual operations the machine executed.
    pub ops: u64,
    /// Wall-clock seconds, both analyzers' bookkeeping included.
    pub secs: f64,
    /// This open interpreted nothing: the run's fact came from the store,
    /// the shared tier or the snapshot.
    pub reused: bool,
}

/// One interactive Explorer session over a program.
pub struct Explorer<'p> {
    /// The program.
    pub program: &'p Program,
    /// Static analysis results (re-computed when assertions are applied).
    pub analysis: ProgramAnalysis<'p>,
    /// Sequential-run loop profile.
    pub profile: ProfileReport,
    /// Dynamic dependence observations (§2.5.2), aware of the compiler's
    /// induction variables and reductions.
    pub dyndep: DynDepReport,
    /// Cost of the one instrumented run both reports above came from.
    pub execution: ExecutionStats,
    /// Program input used for the instrumented run.
    pub input: Vec<f64>,
    slicer: Option<Slicer<'p>>,
    /// Assertions applied so far.
    pub assertions: Vec<Assertion>,
    /// The fact store every static pass runs through; assertion replay
    /// recomputes only the invalidated cone of facts.
    store: Arc<FactStore>,
}

impl<'p> Explorer<'p> {
    /// Start a session: auto-parallelize and run both execution analyzers.
    pub fn new(program: &'p Program, input: Vec<f64>) -> Result<Explorer<'p>, ExplorerError> {
        Self::with_config(program, ParallelizeConfig::default(), input)
    }

    /// Start with an explicit analysis configuration.
    pub fn with_config(
        program: &'p Program,
        config: ParallelizeConfig,
        input: Vec<f64>,
    ) -> Result<Explorer<'p>, ExplorerError> {
        Self::with_store(
            program,
            config,
            input,
            &ScheduleOptions::default(),
            None,
            Arc::new(FactStore::new()),
        )
        .map(|(ex, _)| ex)
    }

    /// Start against a shared [`FactStore`] (the daemon's resident path):
    /// every static pass and the instrumented run are demanded through
    /// `store`, so facts surviving a reload, an assertion replay or a
    /// restart are reused instead of recomputed.  Also returns the open's
    /// timing/reuse statistics, the run's pass included.
    ///
    /// `opts` and `_cache` are ignored; kept while `perfbench/` is frozen;
    /// ROADMAP direction 0 deletes both parameters.
    pub fn with_store(
        program: &'p Program,
        config: ParallelizeConfig,
        input: Vec<f64>,
        opts: &ScheduleOptions,
        _cache: Option<&SummaryCache>,
        store: Arc<FactStore>,
    ) -> Result<(Explorer<'p>, AnalyzeStats), ExplorerError> {
        let assertions = config.assertions.clone();
        let (analysis, mut stats) = Parallelizer::analyze_in(program, config, opts, None, &store);

        let before = store.metrics_for(PassId::Execute);
        let run = store.try_demand(&ExecutePass {
            program,
            skeleton: analysis.keys.skeleton,
            input: &input,
        })?;
        let after = store.metrics_for(PassId::Execute);
        stats.record_pass(PassId::Execute, before, after);
        let execution = ExecutionStats {
            ops: run.ops,
            secs: run.nanos as f64 * 1e-9,
            reused: after.invocations == before.invocations,
        };
        let (profile, dyndep) = reports_of(&run, &analysis);

        Ok((
            Explorer {
                program,
                analysis,
                profile,
                dyndep,
                execution,
                input,
                slicer: None,
                assertions,
                store,
            },
            stats,
        ))
    }

    /// The set of loops the compiler parallelized.
    pub fn parallel_loops(&self) -> HashSet<StmtId> {
        self.analysis.parallel_loops()
    }

    /// The Parallelization Guru's report (§2.6).
    pub fn guru(&self) -> GuruReport {
        guru::report(self)
    }

    /// Lazy slicer access.
    pub fn slicer(&mut self) -> &mut Slicer<'p> {
        if self.slicer.is_none() {
            self.slicer = Some(Slicer::new(self.program));
        }
        self.slicer.as_mut().unwrap()
    }

    /// The slices the Guru presents for one static dependence (§2.6): for
    /// every access site of the dependent object in the loop, the program
    /// and control slices of the *subscript-defining* variables, with the
    /// code-region and array restrictions of §3.6 applied.
    pub fn slices_for_dep(&mut self, loop_stmt: StmtId, dep_index: usize) -> SiteSlices {
        let sites: Vec<(StmtId, VarId)> = {
            let Some(LoopVerdict::Sequential { deps, .. }) = self.analysis.verdict(loop_stmt)
            else {
                return Vec::new();
            };
            let Some(dep) = deps.get(dep_index) else {
                return Vec::new();
            };
            // Slice the scalar variables appearing in the subscripts at the
            // access sites (the "references to K" of Fig. 4-3).
            let mut sites = Vec::new();
            for &(stmt, _, _, _) in &dep.sites {
                if let Some((s, _)) = self.program.find_stmt(stmt) {
                    let mut scalars: Vec<VarId> = Vec::new();
                    collect_subscript_scalars(s, dep.object, &self.analysis, &mut scalars);
                    for v in scalars {
                        sites.push((stmt, v));
                    }
                }
            }
            sites
        };
        let opts = SliceOptions {
            array_restricted: true,
            region: Some(loop_stmt),
            context: None,
        };
        let mut out = Vec::new();
        let program = self.program;
        let slicer = self.slicer();
        for (stmt, v) in sites {
            let line = program.find_stmt(stmt).map(|(s, _)| s.line()).unwrap_or(0);
            let prog = slicer
                .slice_use(stmt, v, SliceKind::Program, &opts)
                .unwrap_or_else(|| slicer.control_slice(stmt, &opts));
            let ctrl = slicer.control_slice(stmt, &opts);
            out.push((line, prog, ctrl));
        }
        out
    }

    /// What the viewer shows for a loop's first unresolved dependence
    /// (Fig. 4-3): the union of its program/control slice lines, the source
    /// lines of the pruned terminals, and the slices themselves (empty when
    /// the loop has no unresolved dependence).
    pub fn slice_view(&mut self, loop_stmt: StmtId) -> (BTreeSet<u32>, BTreeSet<u32>, SiteSlices) {
        let slices = self.slices_for_dep(loop_stmt, 0);
        let (mut lines, mut terminals) = (BTreeSet::new(), BTreeSet::new());
        for (_, p, c) in &slices {
            lines.extend(p.lines.iter().copied());
            lines.extend(c.lines.iter().copied());
            for s in p.terminals.iter().chain(c.terminals.iter()) {
                if let Some((stmt, _)) = self.program.find_stmt(*s) {
                    terminals.insert(stmt.line());
                }
            }
        }
        (lines, terminals, slices)
    }

    /// Re-run the static analysis with a new assertion set, replaying only
    /// the invalidated facts through the session's store, on the program's
    /// content keys the current analysis already holds.  The profile and
    /// dynamic-dependence reports are **kept** — the program and input did
    /// not change, so the instrumented run would be identical.
    pub fn apply_assertions(&mut self, assertions: Vec<Assertion>) -> AnalyzeStats {
        self.assertions = assertions.clone();
        let config = ParallelizeConfig {
            assertions,
            ..self.analysis.config.clone()
        };
        let (analysis, stats) = self.analysis.reanalyze(config, &self.store);
        self.analysis = analysis;
        stats
    }

    /// Apply an assertion (after checking it, §2.8) and re-parallelize.
    pub fn assert_and_reanalyze(&mut self, a: Assertion) -> crate::checker::CheckResult {
        self.assert_and_reanalyze_with_stats(a).0
    }

    /// [`Explorer::assert_and_reanalyze`], also returning the replay's
    /// statistics (`None` when the assertion was contradicted and nothing
    /// re-ran).  The assertion is an *invalidation event*: the asserted
    /// loop's classification fact and its dependents are marked dirty, and
    /// the replay recomputes exactly that cone.
    pub fn assert_and_reanalyze_with_stats(
        &mut self,
        a: Assertion,
    ) -> (crate::checker::CheckResult, Option<AnalyzeStats>) {
        let res = crate::checker::check_assertion(self, &a);
        if matches!(res, crate::checker::CheckResult::Contradicted(_)) {
            return (res, None);
        }
        let loop_name = match &a {
            Assertion::Privatizable { loop_name, .. } => loop_name,
            Assertion::Independent { loop_name, .. } => loop_name,
        };
        if let Some(li) = self
            .analysis
            .ctx
            .tree
            .loops
            .iter()
            .find(|l| &l.name == loop_name)
        {
            self.store
                .invalidate(FactKey::new(PassId::Classify, Scope::Loop(li.stmt)));
        }
        let mut assertions = self.assertions.clone();
        assertions.push(a);
        let stats = self.apply_assertions(assertions);
        (res, Some(stats))
    }

    /// Warnings from the current analysis (assertions naming missing loops
    /// or variables).
    pub fn warnings(&self) -> &[String] {
        &self.analysis.warnings
    }

    /// The shared fact store (per-pass metrics, invalidation).
    pub fn store(&self) -> &Arc<FactStore> {
        &self.store
    }

    /// Demand-driven array-contraction candidates (§5.6); computed on first
    /// query, reused afterwards.
    pub fn contractions(&self) -> Arc<Vec<ContractionCandidate>> {
        suif_analysis::contract::find_candidates_cached(&self.analysis, &self.store)
    }

    /// Demand-driven data-decomposition advisory (§4.2.4).
    pub fn decomp_advisory(&self) -> Arc<DecompFact> {
        suif_analysis::decomp::advisory_cached(&self.analysis, &self.store)
    }

    /// Demand-driven common-block live-range splits (§5.5).
    pub fn block_splits(&self) -> Arc<Vec<BlockSplit>> {
        suif_analysis::split::find_splits_cached(&self.analysis, &self.store)
    }

    /// Carried-dependence table of one loop (classification demanded it,
    /// so this reads the store).
    pub fn carried_deps(&self, loop_stmt: StmtId) -> Arc<CarriedDeps> {
        suif_analysis::deps::carried_deps_cached(&self.analysis, &self.store, loop_stmt)
    }
}

/// The one instrumented run for both Execution Analyzers: the loop profile
/// (§2.5.1) and the dynamic dependences (§2.5.2), the latter ignoring the
/// loops' induction variables.  Which updates are reductions is a verdict,
/// so the run records those dependences too and [`reports_of`] drops them.
///
/// Keyed by [`suif_analysis::execution::execute_hash_of`]: the program's control/address skeleton and
/// the input, which is all the run reads — the induction variables are
/// part of the skeleton.  No dependency edges.  A run that ends in an
/// error — [`MAX_EXECUTE_OPS`] spent is one — is the demander's error and
/// leaves no fact ([`FactStore::try_demand`]).
struct ExecutePass<'a> {
    program: &'a Program,
    /// The program's skeleton hash, which its analysis already holds.
    skeleton: u128,
    input: &'a [f64],
}

impl Pass for ExecutePass<'_> {
    type Output = Result<ExecutionFact, ExplorerError>;
    fn key(&self) -> FactKey {
        EXECUTE_KEY
    }
    fn input_hash(&self) -> u128 {
        execute_hash_of(self.skeleton, self.input)
    }
    fn run(&self) -> Result<ExecutionFact, ExplorerError> {
        execute(self.program, self.input)
    }
}

/// The instrumented run itself, as `ExecutePass` computes it: `program`
/// interpreted once on `input` under both analyzers, within
/// [`MAX_EXECUTE_OPS`].
pub fn execute(program: &Program, input: &[f64]) -> Result<ExecutionFact, ExplorerError> {
    let mut analyzers = (
        LoopProfiler::new(),
        DynDepAnalyzer::new(run_config(program)),
    );
    let ops = {
        let mut m =
            Machine::new(program, &mut analyzers).map_err(|e| ExplorerError(e.to_string()))?;
        m.set_input(input.to_vec());
        m.set_max_ops(MAX_EXECUTE_OPS);
        m.run().map_err(|e| ExplorerError(e.to_string()))?;
        m.ops()
    };
    let (profiler, dd) = analyzers;
    let profile = profiler.report();
    let loop_execution = |p: LoopProfile| LoopExecution {
        invocations: p.invocations,
        iterations: p.iterations,
        total_ops: p.total_ops,
        total_nanos: p.total_nanos,
        dynamic_ancestors: p.dynamic_ancestors.into_iter().collect(),
    };
    Ok(ExecutionFact {
        ops,
        profiled_ops: profile.total_ops,
        nanos: profile.total_nanos,
        loops: profile
            .profiles
            .into_iter()
            .map(|(stmt, p)| (stmt, loop_execution(p)))
            .collect(),
        carried: dd
            .report()
            .deps
            .into_iter()
            .map(|(stmt, vars)| (stmt, vars.into_iter().collect()))
            .collect(),
    })
}

/// The two analyzers' reports, as the Guru and the checker read them,
/// rebuilt from the run's fact, the dependences on the reductions the
/// analysis found dropped.
fn reports_of(
    run: &ExecutionFact,
    analysis: &ProgramAnalysis<'_>,
) -> (ProfileReport, DynDepReport) {
    let loop_profile = |l: &LoopExecution| LoopProfile {
        invocations: l.invocations,
        iterations: l.iterations,
        total_ops: l.total_ops,
        total_nanos: l.total_nanos,
        dynamic_ancestors: l.dynamic_ancestors.iter().copied().collect(),
    };
    let profile = ProfileReport {
        profiles: run
            .loops
            .iter()
            .map(|(&stmt, l)| (stmt, loop_profile(l)))
            .collect(),
        total_nanos: run.nanos,
        total_ops: run.profiled_ops,
    };
    let dyndep = DynDepReport {
        deps: run
            .carried
            .iter()
            .map(|(&stmt, vars)| (stmt, vars.iter().map(|(&v, &k)| (v, k)).collect()))
            .collect(),
    };
    (profile, dyndep.ignoring(&reduction_ignores(analysis)))
}

/// The configuration the instrumented run takes: every `do` loop's
/// induction variable ignored — a function of the program's shape alone.
/// The reduction updates the analysis found are dropped from the report
/// after the run ([`DynDepReport::ignoring`]), so `_analysis` adds nothing.
pub fn dyndep_config(program: &Program, _analysis: &ProgramAnalysis<'_>) -> DynDepConfig {
    run_config(program)
}

/// [`dyndep_config`], which needs no analysis.
fn run_config(program: &Program) -> DynDepConfig {
    let mut cfg = DynDepConfig::default();
    for p in &program.procedures {
        program.walk_stmts(p.id, &mut |s, _| {
            if let suif_ir::Stmt::Do { var, .. } = s {
                cfg.ignore_vars.insert(*var);
            }
        });
    }
    cfg
}

/// The `(loop, variable)` pairs the verdicts found to be reduction updates
/// (§2.5.2: the analyzer "is aware of the induction variables and
/// reduction operations found by the compiler"), which the Explorer drops
/// from the run's report ([`DynDepReport::ignoring`]).
pub fn reduction_ignores(analysis: &ProgramAnalysis<'_>) -> HashSet<(StmtId, VarId)> {
    let program = analysis.ctx.program;
    let mut ignore = HashSet::new();
    for (&stmt, v) in &analysis.verdicts {
        let mut any_reduction = false;
        for (&obj, class) in v.classes() {
            if matches!(class, VarClass::Reduction(_)) {
                any_reduction = true;
                for vid in 0..program.vars.len() as u32 {
                    let vid = VarId(vid);
                    if analysis.ctx.array_of(vid) == obj {
                        ignore.insert((stmt, vid));
                    }
                }
            }
        }
        // Reduction updates may happen through callee formals (the
        // interprocedural reductions of §6.2.2.4): the runtime accesses are
        // reported under the formal's identity, so ignore array formals of
        // procedures reachable from a loop that has reductions.
        if any_reduction {
            for p in suif_ir::callees_of_loop(program, stmt) {
                for &f in &program.proc(p).params {
                    if program.var(f).is_array() {
                        ignore.insert((stmt, f));
                    }
                }
            }
        }
    }
    ignore
}

fn collect_subscript_scalars(
    stmt: &suif_ir::Stmt,
    object: suif_poly::ArrayId,
    analysis: &ProgramAnalysis<'_>,
    out: &mut Vec<VarId>,
) {
    use suif_ir::{Expr, Ref, Stmt};
    let from_subs = |subs: &[Expr], out: &mut Vec<VarId>| {
        for e in subs {
            e.visit_scalar_reads(&mut |v| {
                if !out.contains(&v) {
                    out.push(v);
                }
            });
        }
    };
    match stmt {
        Stmt::Assign { lhs, rhs, .. } => {
            if let Ref::Element(v, subs) = lhs {
                if analysis.ctx.array_of(*v) == object {
                    from_subs(subs, out);
                }
            }
            rhs.visit_element_reads(&mut |v, subs| {
                if analysis.ctx.array_of(v) == object {
                    from_subs(subs, out);
                }
            });
        }
        Stmt::If { cond, .. } => {
            cond.visit_element_reads(&mut |v, subs| {
                if analysis.ctx.array_of(v) == object {
                    from_subs(subs, out);
                }
            });
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suif_ir::parse_program;

    const MDG_LIKE: &str = r#"program mdgkern
const nmol = 40
proc main() {
  real rs[9], rl[14], a[nmol]
  real cut2, acc
  int i, k, kc
  cut2 = 30.0
  acc = 0
  do 5 i = 1, nmol {
    a[i] = i * 0.7
  }
  do 1000 i = 1, nmol {
    kc = 0
    do 1110 k = 1, 9 {
      rs[k] = a[i] + k
      if rs[k] > cut2 { kc = kc + 1 }
    }
    do 1130 k = 2, 5 {
      if rs[k + 4] <= cut2 { rl[k + 4] = rs[k + 4] }
    }
    if kc == 0 {
      do 1140 k = 11, 14 {
        acc = acc + rl[k - 5]
      }
    }
  }
  print acc
}
"#;

    #[test]
    fn explorer_session_mdg_pattern() {
        let p = parse_program(MDG_LIKE).unwrap();
        let mut ex = Explorer::new(&p, vec![]).unwrap();
        // Auto: loop 1000 sequential (rl dep); loop 5 parallel.
        let l1000 = ex
            .analysis
            .ctx
            .tree
            .loops
            .iter()
            .find(|l| l.name == "main/1000")
            .unwrap()
            .stmt;
        assert!(!ex.analysis.verdicts[&l1000].is_parallel());
        // The guru targets loop 1000 first (it dominates execution).
        let guru = ex.guru();
        assert!(!guru.targets.is_empty());
        assert_eq!(guru.targets[0].name, "main/1000");
        assert!(guru.targets[0].static_deps > 0);
        // No dynamic dependence observed on it (rl never actually read here
        // under this input — kc == 0 never holds).
        assert!(!guru.targets[0].dynamic_dep);
        // Slices presented to the user are small.
        let slices = ex.slices_for_dep(l1000, 0);
        assert!(!slices.is_empty());
        for (_, prog, ctrl) in &slices {
            assert!(prog.num_lines() <= 14, "{:?}", prog.lines);
            let _ = ctrl;
        }
        // The user asserts rl privatizable; the checker accepts; the loop
        // becomes parallel (the §4.1.4 flow).
        let res = ex.assert_and_reanalyze(Assertion::Privatizable {
            loop_name: "main/1000".into(),
            var: "rl".into(),
        });
        assert!(!matches!(res, crate::checker::CheckResult::Contradicted(_)));
        assert!(ex.analysis.verdicts[&l1000].is_parallel());
        // Coverage improves.
        let guru2 = ex.guru();
        assert!(guru2.coverage > guru.coverage);
    }
}
