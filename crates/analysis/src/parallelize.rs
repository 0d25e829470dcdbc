//! The parallelization driver: combines dependence, privatization,
//! reduction, and liveness analysis into a per-loop verdict (§2.4), with the
//! configuration toggles the evaluation ablates and support for checked
//! user assertions (§2.8).

use crate::cache::{Fnv128, ProgramKeys, SummaryCache};
use crate::context::{AnalysisCtx, ArrayKey};
use crate::deps::{deps_hash, CarriedDeps, DepTest, DepsPass};
use crate::execution::{execute_hash_of, EXECUTE_KEY};
use crate::liveness::{self, LivenessMode, LivenessResult};
use crate::pipeline::{FactKey, FactStore, Pass, PassId, PassMetrics, RecordedValues, Scope};
use crate::reduction::RedOp;
use crate::snapshot::FactCell;
use crate::summarize::{summarize_proc, ArrayDataFlow, ProcFlow};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use suif_ir::{LoopInfo, ProcId, Program, Ref, Stmt, StmtId, VarId};
use suif_poly::ArrayId;

/// Classification of one storage object within one loop (the Fig. 4-9
/// accounting categories).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum VarClass {
    /// Accesses carry no loop-carried dependence.
    Parallel,
    /// Privatizable; `needs_finalization` says whether the last iteration's
    /// values must be written back (live at exit).
    Privatizable {
        /// Whether finalization is required.
        needs_finalization: bool,
    },
    /// A valid parallel reduction.
    Reduction(RedOp),
    /// An unresolved loop-carried dependence.
    Dep,
}

/// One unresolved static dependence the user is asked about (§2.6).
#[derive(Clone, Debug)]
pub struct StaticDep {
    /// The storage object.
    pub object: ArrayId,
    /// Display name.
    pub name: String,
    /// Variables (in the loop's procedure) denoting this object.
    pub vars: Vec<VarId>,
    /// Access sites inside the loop: `(stmt, line, is_write, via_call)`.
    pub sites: Vec<(StmtId, u32, bool, bool)>,
}

/// Execution plan data for a parallel loop (consumed by `suif-parallel`).
#[derive(Clone, Debug, Default)]
pub struct LoopPlan {
    /// Storage objects to privatize per thread (no finalization needed).
    pub private: Vec<ArrayKey>,
    /// Privatized objects whose last iteration must be written back.
    pub finalize_last: Vec<ArrayKey>,
    /// Parallel reductions: object, operator.
    pub reductions: Vec<(ArrayKey, RedOp)>,
}

/// Analysis verdict for one loop.
#[derive(Clone, Debug)]
pub enum LoopVerdict {
    /// The loop can run in parallel with the given plan.
    Parallel {
        /// Transformation plan.
        plan: LoopPlan,
        /// Per-object classification (for the Fig. 4-9 accounting).
        classes: BTreeMap<ArrayId, VarClass>,
    },
    /// The loop stays sequential.
    Sequential {
        /// Unresolved dependences requiring user examination.
        deps: Vec<StaticDep>,
        /// The loop performs I/O (never parallelized, §2.6).
        has_io: bool,
        /// Per-object classification of what *was* resolved.
        classes: BTreeMap<ArrayId, VarClass>,
    },
}

impl LoopVerdict {
    /// Is this a parallel verdict?
    pub fn is_parallel(&self) -> bool {
        matches!(self, LoopVerdict::Parallel { .. })
    }

    /// The classification table.
    pub fn classes(&self) -> &BTreeMap<ArrayId, VarClass> {
        match self {
            LoopVerdict::Parallel { classes, .. } => classes,
            LoopVerdict::Sequential { classes, .. } => classes,
        }
    }
}

/// A user assertion (validated by the Explorer's assertion checker, §2.8).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Assertion {
    /// "Variable `var` is privatizable in loop `loop_name`" (no
    /// finalization needed).
    Privatizable {
        /// Loop name (`proc/label`).
        loop_name: String,
        /// Variable name in the loop's procedure.
        var: String,
    },
    /// "References to `var` in `loop_name` are independent" — dependences on
    /// it are ignored.
    Independent {
        /// Loop name.
        loop_name: String,
        /// Variable name.
        var: String,
    },
}

/// Analysis configuration (the evaluation's ablation axes).
#[derive(Clone, Debug)]
pub struct ParallelizeConfig {
    /// Recognize and parallelize reductions (off for the Fig. 6-4 baseline).
    pub enable_reduction: bool,
    /// Liveness algorithm for finalization elimination (`None` = the old
    /// SUIF rule only, the Fig. 5-8 baseline).
    pub liveness: Option<LivenessMode>,
    /// User assertions to apply.
    pub assertions: Vec<Assertion>,
}

impl Default for ParallelizeConfig {
    fn default() -> Self {
        ParallelizeConfig {
            enable_reduction: true,
            liveness: Some(LivenessMode::Full),
            assertions: Vec::new(),
        }
    }
}

/// The complete analysis of one program.
pub struct ProgramAnalysis<'p> {
    /// Shared context (region tree, call graph, array interner).
    pub ctx: AnalysisCtx<'p>,
    /// The `Summarize` and `Liveness` facts, as handles: what
    /// [`ProgramAnalysis::df`] and [`ProgramAnalysis::liveness`] build from.
    pub(crate) flows: FlowHandles,
    /// Per-loop verdicts.
    pub verdicts: HashMap<StmtId, LoopVerdict>,
    /// The configuration used.
    pub config: ParallelizeConfig,
    /// Assertions that named a loop or variable that does not exist (they
    /// are ignored by the analysis, but never silently).
    pub warnings: Vec<String>,
    /// Content hash of (program, config, resolved assertions) — the input
    /// hash of every demand-driven advisory fact over this analysis.
    pub epoch_hash: u128,
    /// The program's content keys, derived once per program text and
    /// handed on by [`ProgramAnalysis::reanalyze`].
    pub keys: Arc<ProgramKeys>,
    /// The value hash of every procedure's `Summarize` fact: what the
    /// input hash of each fact reading a summary folds (a loop's `Deps`
    /// table among them, [`crate::deps::carried_deps_cached`]).
    pub summaries: HashMap<ProcId, u128>,
}

impl<'p> ProgramAnalysis<'p> {
    /// The bottom-up data flow: every procedure's summary merged, built on
    /// first use (a warm analysis whose verdicts were all current never
    /// reads a summary's value).
    pub fn df(&self) -> &ArrayDataFlow {
        self.flows.df(&self.ctx)
    }

    /// The liveness result (`None` with liveness off), read on first use.
    pub fn liveness(&self) -> Option<&LivenessResult> {
        self.flows.liveness(&self.ctx)
    }

    /// Analyze the same program again under `config` through `store` (an
    /// assertion replay, a warm `analyze`), reusing this analysis's content
    /// keys: only the assertion marks and the epoch hash are re-derived.
    /// The new analysis shares this one's data flow and liveness, built or
    /// not, when it reads the same summaries and liveness fact.
    pub fn reanalyze(
        &self,
        config: ParallelizeConfig,
        store: &FactStore,
    ) -> (ProgramAnalysis<'p>, AnalyzeStats) {
        let prior = Some((self.keys.clone(), &self.flows));
        Parallelizer::drive(self.ctx.program, config, store, prior)
    }

    /// Statement ids of all loops judged parallel.
    pub fn parallel_loops(&self) -> HashSet<StmtId> {
        self.verdicts
            .iter()
            .filter(|(_, v)| v.is_parallel())
            .map(|(&s, _)| s)
            .collect()
    }

    /// The verdict for a loop.
    pub fn verdict(&self, l: StmtId) -> Option<&LoopVerdict> {
        self.verdicts.get(&l)
    }

    /// Per-loop certification inputs: one summary row per analyzed loop, in
    /// region-tree order, in the form the dynamic certification harness
    /// consumes (see `docs/dynamic.md`).
    pub fn certify_inputs(&self) -> Vec<LoopCertInfo> {
        self.ctx
            .tree
            .loops
            .iter()
            .filter_map(|li| {
                let v = self.verdicts.get(&li.stmt)?;
                let classes = v.classes();
                let transformed = classes
                    .values()
                    .any(|c| matches!(c, VarClass::Privatizable { .. } | VarClass::Reduction(_)));
                let (dep_vars, has_io) = match v {
                    LoopVerdict::Parallel { .. } => (Vec::new(), false),
                    LoopVerdict::Sequential { deps, has_io, .. } => {
                        (deps.iter().map(|d| d.name.clone()).collect(), *has_io)
                    }
                };
                Some(LoopCertInfo {
                    stmt: li.stmt,
                    name: li.name.clone(),
                    line: li.line,
                    parallel: v.is_parallel(),
                    plain_doall: v.is_parallel() && !transformed,
                    transformed,
                    has_io,
                    has_calls: li.has_calls,
                    dep_vars,
                })
            })
            .collect()
    }
}

/// One loop's static verdict, summarized for the race-certification
/// harness: whether the loop is claimed parallel, whether that claim rests
/// on transforms (privatization / reduction), and — for sequential loops —
/// which storage objects carry the unresolved dependences.
#[derive(Clone, Debug)]
pub struct LoopCertInfo {
    /// The loop statement.
    pub stmt: StmtId,
    /// Human-readable name (`proc/label`).
    pub name: String,
    /// `do` source line.
    pub line: u32,
    /// Claimed parallel by the static analysis.
    pub parallel: bool,
    /// Parallel with **no** transforms: every object classified
    /// [`VarClass::Parallel`].  Such loops must also be bitwise
    /// memory-deterministic under certification.
    pub plain_doall: bool,
    /// Privatization or reduction transforms are part of the claim.
    pub transformed: bool,
    /// The loop performs I/O (sequential verdicts only).
    pub has_io: bool,
    /// The loop body calls procedures.
    pub has_calls: bool,
    /// Names of objects with unresolved carried dependences (sequential
    /// verdicts only).
    pub dep_vars: Vec<String>,
}

/// One pass's share of an analysis run, from the [`FactStore`] counters.
#[derive(Clone, Copy, Debug)]
pub struct PassStat {
    /// Which pass.
    pub pass: PassId,
    /// Seconds spent running it this analysis.
    pub secs: f64,
    /// Facts computed (pass invocations) this analysis.
    pub invocations: u64,
    /// Demands served from the store this analysis.
    pub reused: u64,
    /// Demands served from the process-wide shared tier this analysis
    /// (another session computed the fact under the same content hash).
    pub shared: u64,
}

/// Accounting of one analysis run (the daemon's `stats` data), measured by
/// the fact store's per-pass counters rather than hand-rolled timers.
#[derive(Clone, Debug, Default)]
pub struct AnalyzeStats {
    /// Procedures in the call graph: one `Summarize` demand each per run.
    pub procs: usize,
    /// Per-pass deltas for this run, in [`PassId`] order.
    pub passes: Vec<PassStat>,
    /// Facts computed across all passes this run.
    pub facts_computed: u64,
    /// Facts served from the store this run.
    pub facts_reused: u64,
    /// Facts served from the process-wide shared tier this run
    /// ([`PassMetrics::shared`] deltas).
    pub facts_shared: u64,
    /// Whole-analysis seconds (context build included).
    pub total_secs: f64,
    /// Polyhedral-kernel counter deltas for this run: how the emptiness
    /// ladder resolved queries (GCD / interval / quick-sat / full FM),
    /// subscript-level dependence rejects, and budget approximations.
    pub poly: suif_poly::PolyStats,
}

impl AnalyzeStats {
    /// The stat row of one pass, if it saw any traffic this run.
    pub fn pass(&self, id: PassId) -> Option<&PassStat> {
        self.passes.iter().find(|p| p.pass == id)
    }

    /// Seconds one pass ran this analysis (0 when idle or fully reused).
    pub fn pass_secs(&self, id: PassId) -> f64 {
        self.pass(id).map(|p| p.secs).unwrap_or(0.0)
    }

    /// Procedures summarized this run (`Summarize` invocations).
    pub fn summarized(&self) -> u64 {
        self.pass(PassId::Summarize).map_or(0, |p| p.invocations)
    }

    /// `Summarize` demands served without running this run, by the store
    /// or the shared tier.
    pub fn summary_hits(&self) -> u64 {
        self.pass(PassId::Summarize)
            .map_or(0, |p| p.reused + p.shared)
    }

    /// Liveness seconds (compatibility accessor).
    pub fn liveness_secs(&self) -> f64 {
        self.pass_secs(PassId::Liveness)
    }

    /// Classification seconds (compatibility accessor).
    pub fn classify_secs(&self) -> f64 {
        self.pass_secs(PassId::Classify)
    }

    /// Fold in the traffic one pass saw between two readings of its store
    /// counters ([`FactStore::metrics_for`]); no traffic adds no row.  The
    /// analysis driver calls this for every pass of a run; a caller that
    /// demands one more fact afterwards (the Explorer's instrumented run)
    /// calls it for that pass.
    pub fn record_pass(&mut self, pass: PassId, before: PassMetrics, after: PassMetrics) {
        let (invocations, reused) = (
            after.invocations - before.invocations,
            after.reused - before.reused,
        );
        let shared = after.shared - before.shared;
        if invocations == 0 && reused == 0 && shared == 0 {
            return;
        }
        self.facts_computed += invocations;
        self.facts_reused += reused;
        self.facts_shared += shared;
        self.passes.push(PassStat {
            pass,
            secs: after.secs - before.secs,
            invocations,
            reused,
            shared,
        });
    }

    /// Fraction of demanded facts served from the store, in `[0, 1]`.
    pub fn reuse_ratio(&self) -> f64 {
        let total = self.facts_computed + self.facts_reused;
        if total == 0 {
            0.0
        } else {
            self.facts_reused as f64 / total as f64
        }
    }
}

/// Ignored; kept while `perfbench/` is frozen; ROADMAP direction 0 deletes it together with the `cache` parameter.
#[derive(Clone, Debug, Default)]
pub struct ScheduleOptions {
    /// Ignored; kept while `perfbench/` is frozen; ROADMAP direction 0 deletes it together with the `cache` parameter.
    pub threads: usize,
}

impl ScheduleOptions {
    /// Ignored; kept while `perfbench/` is frozen; ROADMAP direction 0 deletes it together with the `cache` parameter.
    pub fn sequential() -> ScheduleOptions {
        ScheduleOptions { threads: 1 }
    }
}

/// The driver.
pub struct Parallelizer;

impl Parallelizer {
    /// Analyze a program under a configuration (uncached), through a
    /// private, single-use [`FactStore`].
    pub fn analyze(program: &Program, config: ParallelizeConfig) -> ProgramAnalysis<'_> {
        let store = FactStore::new();
        Parallelizer::analyze_in(program, config, &ScheduleOptions::default(), None, &store).0
    }

    /// Analyze through a shared [`FactStore`]: every pass becomes a fact
    /// demand, so a re-analysis after a config or assertion change replays
    /// only the facts whose input hashes moved.  The store may live across
    /// runs (and across `reload`s of edited programs — stale facts miss on
    /// their content hash).
    ///
    /// `_opts` and `_cache` are ignored; kept while `perfbench/` is frozen;
    /// ROADMAP direction 0 deletes both parameters.
    pub fn analyze_in<'p>(
        program: &'p Program,
        config: ParallelizeConfig,
        _opts: &ScheduleOptions,
        _cache: Option<&SummaryCache>,
        store: &FactStore,
    ) -> (ProgramAnalysis<'p>, AnalyzeStats) {
        Parallelizer::drive(program, config, store, None)
    }

    /// The one driver body: [`Parallelizer::analyze_in`] derives the
    /// program's content keys, [`ProgramAnalysis::reanalyze`] passes the
    /// ones it already holds, and its fact handles.
    fn drive<'p>(
        program: &'p Program,
        config: ParallelizeConfig,
        store: &FactStore,
        prior: Option<(Arc<ProgramKeys>, &FlowHandles)>,
    ) -> (ProgramAnalysis<'p>, AnalyzeStats) {
        let t0 = Instant::now();
        let metrics_before = store.metrics();
        // Process-wide kernel counters; the delta is attributed to this run
        // (concurrent analyses on other threads bleed in — acceptable for
        // stats reporting, never used for decisions).
        let poly_before = suif_poly::poly_stats();
        let (keys, prior) = prior.unzip();
        let inputs = FactInputs::new(program, &config, keys);
        store.set_id_bounds(inputs.ctx.id_bounds());

        // Bottom-up summaries (§5.2), one procedure-scope fact each: the
        // store is the scheduler, and a summary that comes out equal stops
        // a `reload` at its callers (early cutoff).  Above the leaves the
        // driver needs a current summary's value hash, not its value, so a
        // persisted one stays bytes until a run (or a reader of `df`)
        // needs it.
        let mut flows = FlowHandles::new(store.clone());
        let mut sums = Summaries::default();
        for &pid in inputs.ctx.cg.bottom_up() {
            let hash = inputs
                .summarize_hash(pid, &sums.values)
                .expect("callees come first");
            let (cell, value) = store.demand_cell(&SummarizePass {
                ctx: &inputs.ctx,
                pid,
                hash,
                flows: &flows,
            });
            sums.record(pid, hash, value);
            flows.summaries.insert(pid, (hash, cell));
        }

        // Liveness (§5.2) as a program-scope fact over the summaries.
        let liveness_value = config.liveness.map(|mode| {
            let hash = (inputs.liveness_hash(mode, &sums.values)).expect("every summary is known");
            let (cell, value) = store.demand_cell(&LivenessPass {
                ctx: &inputs.ctx,
                flows: &flows,
                hash,
                mode,
            });
            flows.liveness = Some((mode, hash, cell));
            value
        });
        if let Some(prior) = prior {
            flows.adopt(prior);
        }

        // Per-loop classification: one loop-scope fact each, keyed by the
        // region's content, the values of the facts it reads, and exactly
        // the assertions that resolved onto it — asserting one loop
        // re-classifies only that loop.  A classification that runs
        // demands its loop's carried-dependence table, which no assertion
        // and no edit elsewhere moves.
        let mut verdicts = HashMap::new();
        for li in &inputs.ctx.tree.loops {
            let verdict = store.demand(&ClassifyPass {
                inputs: &inputs,
                flows: &flows,
                config: &config,
                li,
                hash: inputs.classify_hash(&config, li, &sums, liveness_value),
                summary: sums.values[&li.proc],
                store,
            });
            verdicts.insert(li.stmt, (*verdict).clone());
        }

        let mut stats = run_stats(store, &metrics_before, t0.elapsed().as_secs_f64());
        stats.procs = inputs.ctx.cg.bottom_up().len();
        stats.poly = suif_poly::poly_stats().since(&poly_before);
        let summaries = sums.values;
        (
            inputs.into_analysis(flows, verdicts, config, summaries),
            stats,
        )
    }

    /// The input hash every fact key *would* carry if analyzed, and run on
    /// `input`, right now, given the value hashes `recorded` beside a
    /// persisted image — without running any pass.  This is the warm-start
    /// validator, and it walks bottom-up ("verifying traces"): a key is in
    /// the map only when every fact it reads validated, so a persisted fact
    /// whose stored hash matches the expected one is provably current, and
    /// anything else is stale and must be evicted rather than imported.
    pub fn expected_fact_hashes(
        program: &Program,
        config: &ParallelizeConfig,
        input: &[f64],
        recorded: &RecordedValues,
    ) -> HashMap<FactKey, u128> {
        let inputs = FactInputs::new(program, config, None);
        let mut out = HashMap::new();
        // Expect `key` under `hash`; its recorded value, if the fact is there.
        let mut expect = |key: FactKey, hash: u128| {
            out.insert(key, hash);
            recorded.get(&(key, hash)).copied()
        };
        let mut sums = Summaries::default();
        for &pid in inputs.ctx.cg.bottom_up() {
            if let Some(hash) = inputs.summarize_hash(pid, &sums.values) {
                if let Some(value) = expect(summary_key(pid), hash) {
                    sums.record(pid, hash, value);
                }
            }
        }
        let program_scope = |pass| FactKey::new(pass, Scope::Program);
        // `None` while the liveness fact is not validated; `Some(None)`
        // with liveness off.
        let liveness = match config.liveness {
            None => Some(None),
            Some(mode) => inputs
                .liveness_hash(mode, &sums.values)
                .and_then(|hash| expect(program_scope(PassId::Liveness), hash))
                .map(Some),
        };
        for li in &inputs.ctx.tree.loops {
            let Some(&summary) = sums.values.get(&li.proc) else {
                continue;
            };
            let loop_scope = |pass| FactKey::new(pass, Scope::Loop(li.stmt));
            expect(
                loop_scope(PassId::Deps),
                deps_hash(li, &inputs.keys, summary),
            );
            if let Some(liveness) = liveness {
                let hash = inputs.classify_hash(config, li, &sums, liveness);
                expect(loop_scope(PassId::Classify), hash);
            }
        }
        for pass in [PassId::Contract, PassId::Decomp, PassId::Split] {
            expect(program_scope(pass), inputs.epoch_hash);
        }
        expect(EXECUTE_KEY, execute_hash_of(inputs.keys.skeleton, input));
        out
    }
}

/// The `Summarize` facts of one analysis as the facts above them read
/// them: per procedure, the fact's input hash and its value hash.
#[derive(Default)]
struct Summaries {
    hashes: HashMap<ProcId, u128>,
    values: HashMap<ProcId, u128>,
}

impl Summaries {
    fn record(&mut self, pid: ProcId, hash: u128, value: u128) {
        self.hashes.insert(pid, hash);
        self.values.insert(pid, value);
    }
}

/// Everything the input hashes of one analysis derive from, built once:
/// the context, the content keys, the resolved assertions and the epoch
/// hash.  The passes the drivers demand take their `input_hash` from the
/// same methods the warm-start validator maps over, so the two cannot
/// drift apart — a disagreement would silently evict (or, worse, import)
/// the wrong facts.  Above the per-procedure content, each method folds
/// the value hashes of the facts its pass reads (early cutoff).
struct FactInputs<'p> {
    ctx: AnalysisCtx<'p>,
    /// The per-procedure content and interface keys, the skeleton, and
    /// the whole-program key the epoch folds.
    keys: Arc<ProgramKeys>,
    assert_private: HashSet<(StmtId, ArrayId)>,
    assert_independent: HashSet<(StmtId, ArrayId)>,
    warnings: Vec<String>,
    epoch_hash: u128,
}

impl<'p> FactInputs<'p> {
    /// `keys`, when given, must be `program`'s own (a re-analysis hands on
    /// its analysis's keys); otherwise they are derived here.
    fn new(
        program: &'p Program,
        config: &ParallelizeConfig,
        keys: Option<Arc<ProgramKeys>>,
    ) -> FactInputs<'p> {
        let ctx = AnalysisCtx::new(program);
        let keys = keys.unwrap_or_else(|| Arc::new(ProgramKeys::of(&ctx)));
        // Resolve assertions to (loop, object) pairs, collecting a warning
        // for every assertion that names a missing loop or variable.
        let (assert_private, assert_independent, warnings) = resolve_assertions(&ctx, config);
        let mut h = Fnv128::new();
        h.write_u128(keys.program);
        write_config(&mut h, config);
        write_assertion_marks(&mut h, None, &assert_private, &assert_independent);
        FactInputs {
            ctx,
            keys,
            assert_private,
            assert_independent,
            warnings,
            epoch_hash: h.0,
        }
    }

    /// Input hash of one procedure's summary: its content key, and per
    /// call site the callee's interface key and the value hash of its
    /// summary (`values`; `None` while one of them is unknown).  The walk
    /// reads nothing else of a callee ([`crate::summarize`]'s `walk_call`).
    fn summarize_hash(&self, pid: ProcId, values: &HashMap<ProcId, u128>) -> Option<u128> {
        let mut h = Fnv128::new();
        h.write_u128(self.keys.procs[&pid]);
        for &callee in self.ctx.cg.callees_of(pid) {
            h.write_u32(callee.0);
            h.write_u128(self.keys.interfaces[&callee]);
            h.write_u128(*values.get(&callee)?);
        }
        Some(h.0)
    }

    /// Input hash of the liveness fact: the mode, the program's skeleton
    /// (liveness reads statements, call arguments, declarations and
    /// commons directly, but never a value the skeleton masks), and the
    /// value hash of every summary (`None` while one is unknown).
    fn liveness_hash(&self, mode: LivenessMode, values: &HashMap<ProcId, u128>) -> Option<u128> {
        let mut h = Fnv128::new();
        h.write(format!("{mode:?}").as_bytes());
        h.write_u128(self.keys.skeleton);
        for pid in self.ctx.cg.bottom_up() {
            h.write_u32(pid.0);
            h.write_u128(*values.get(pid)?);
        }
        Some(h.0)
    }

    /// Input hash of one loop's classification fact: the loop's region
    /// key; its procedure's summary input hash (which folds the callees'
    /// interfaces and summary values: the access sites of a call read the
    /// callee's summary) and summary value; the liveness value (`None` with
    /// liveness off); the loop's I/O and call flags, which the region tree
    /// derives through callees; the configuration; and exactly the
    /// assertions that resolved onto the loop.
    fn classify_hash(
        &self,
        config: &ParallelizeConfig,
        li: &LoopInfo,
        sums: &Summaries,
        liveness: Option<u128>,
    ) -> u128 {
        let mut h = Fnv128::new();
        h.write_u128(self.keys.loop_key(li));
        h.write_u128(sums.hashes[&li.proc]);
        h.write_u128(sums.values[&li.proc]);
        h.write_u128(liveness.unwrap_or(0));
        h.write(&[li.has_io as u8, li.has_calls as u8]);
        write_config(&mut h, config);
        write_assertion_marks(
            &mut h,
            Some(li.stmt),
            &self.assert_private,
            &self.assert_independent,
        );
        h.0
    }

    /// Close the derivation into the analysis view; the demand-only
    /// advisories hash from its `epoch_hash`, the carried-dependence tables
    /// from its `keys` and `summaries` ([`deps_hash`]).
    fn into_analysis(
        self,
        flows: FlowHandles,
        verdicts: HashMap<StmtId, LoopVerdict>,
        config: ParallelizeConfig,
        summaries: HashMap<ProcId, u128>,
    ) -> ProgramAnalysis<'p> {
        ProgramAnalysis {
            ctx: self.ctx,
            flows,
            verdicts,
            config,
            warnings: self.warnings,
            epoch_hash: self.epoch_hash,
            keys: self.keys,
            summaries,
        }
    }
}

/// The configuration toggles every assertion-sensitive hash folds.
fn write_config(h: &mut Fnv128, config: &ParallelizeConfig) {
    h.write(format!("{:?}", config.liveness).as_bytes());
    h.write(&[config.enable_reduction as u8]);
}

/// Resolved assertion marks `(stmt, object)`, one set per assertion kind,
/// plus the warnings for assertions that resolved to nothing.
type ResolvedAssertions = (
    HashSet<(StmtId, ArrayId)>,
    HashSet<(StmtId, ArrayId)>,
    Vec<String>,
);

/// Resolve the configured assertions against the region tree; unresolved
/// ones produce warnings instead of being silently dropped.
///
/// Warnings are sorted by source position (the named loop's `do` line, with
/// loop-less warnings last) and then text, so the order is deterministic
/// regardless of assertion order or demand schedule.
fn resolve_assertions(ctx: &AnalysisCtx<'_>, config: &ParallelizeConfig) -> ResolvedAssertions {
    let program = ctx.program;
    let mut assert_private: HashSet<(StmtId, ArrayId)> = HashSet::new();
    let mut assert_independent: HashSet<(StmtId, ArrayId)> = HashSet::new();
    let mut warnings: Vec<(u32, String)> = Vec::new();
    for a in &config.assertions {
        let (kind, loop_name, var, set) = match a {
            Assertion::Privatizable { loop_name, var } => {
                ("privatizable", loop_name, var, &mut assert_private)
            }
            Assertion::Independent { loop_name, var } => {
                ("independent", loop_name, var, &mut assert_independent)
            }
        };
        let Some(li) = ctx.tree.loops.iter().find(|l| &l.name == loop_name) else {
            warnings.push((
                u32::MAX,
                format!("unresolved assertion: no loop `{loop_name}` (asserted {kind} `{var}`)"),
            ));
            continue;
        };
        let proc_name = &program.proc(li.proc).name;
        match program.var_by_name(proc_name, var) {
            Some(v) => {
                set.insert((li.stmt, ctx.array_of(v)));
            }
            None => {
                warnings.push((
                    li.line,
                    format!(
                        "unresolved assertion: no variable `{var}` in `{proc_name}` (asserted {kind} on `{loop_name}`)"
                    ),
                ));
            }
        }
    }
    warnings.sort();
    warnings.dedup();
    let warnings = warnings.into_iter().map(|(_, w)| w).collect();
    (assert_private, assert_independent, warnings)
}

/// Fingerprint of the resolved assertions restricted to one loop (or to all
/// loops, for [`epoch_hash`]): sorted, so set iteration order is immaterial.
fn write_assertion_marks(
    h: &mut Fnv128,
    only_loop: Option<StmtId>,
    assert_private: &HashSet<(StmtId, ArrayId)>,
    assert_independent: &HashSet<(StmtId, ArrayId)>,
) {
    let mut marks: Vec<(u32, u32, u8)> = Vec::new();
    for &(s, id) in assert_private {
        if only_loop.map(|l| l == s).unwrap_or(true) {
            marks.push((s.0, id.0, 1));
        }
    }
    for &(s, id) in assert_independent {
        if only_loop.map(|l| l == s).unwrap_or(true) {
            marks.push((s.0, id.0, 2));
        }
    }
    marks.sort_unstable();
    for (s, id, kind) in marks {
        h.write_u32(s);
        h.write_u32(id);
        h.write(&[kind]);
    }
}

/// Build the run's [`AnalyzeStats`] from the store-counter delta.
fn run_stats(
    store: &FactStore,
    before: &BTreeMap<PassId, PassMetrics>,
    total_secs: f64,
) -> AnalyzeStats {
    let mut stats = AnalyzeStats {
        total_secs,
        ..AnalyzeStats::default()
    };
    for (pass, m) in &store.metrics() {
        stats.record_pass(*pass, before.get(pass).copied().unwrap_or_default(), *m);
    }
    stats
}

/// Key of one procedure's summary fact.
pub(crate) fn summary_key(pid: ProcId) -> FactKey {
    FactKey::new(PassId::Summarize, Scope::Proc(pid))
}

/// Keys of every procedure's summary fact: the dependency edges of a pass
/// that reads the merged data flow.
pub(crate) fn summary_keys(ctx: &AnalysisCtx<'_>) -> Vec<FactKey> {
    ctx.cg
        .bottom_up()
        .iter()
        .copied()
        .map(summary_key)
        .collect()
}

/// The `Summarize` and `Liveness` facts of one analysis, as handles.  The
/// merged data flow and the liveness result are built from them on first
/// use, through the store: a handle still in bytes decodes there, and one
/// whose bytes do not decode is recomputed there like any miss, so a late
/// build equals the one an eager walk would have made.
pub(crate) struct FlowHandles {
    store: FactStore,
    /// Per procedure, its summary fact's input hash and value.
    summaries: HashMap<ProcId, (u128, FactCell)>,
    /// The liveness fact's mode, input hash and value (`None` with
    /// liveness off).
    liveness: Option<(LivenessMode, u128, FactCell)>,
    /// The data flow and the liveness result once built; shared with a
    /// re-analysis that reads the same facts.
    built_df: Arc<OnceLock<ArrayDataFlow>>,
    built_liveness: Arc<OnceLock<Option<Arc<LivenessResult>>>>,
}

impl FlowHandles {
    fn new(store: FactStore) -> FlowHandles {
        FlowHandles {
            store,
            summaries: HashMap::new(),
            liveness: None,
            built_df: Arc::default(),
            built_liveness: Arc::default(),
        }
    }

    /// Share `prior`'s data flow (and liveness), built or not, if these
    /// handles name the same facts: equal input hashes, equal values.
    fn adopt(&mut self, prior: &FlowHandles) {
        let hashes = |f: &FlowHandles| -> HashMap<ProcId, u128> {
            f.summaries.iter().map(|(&p, (h, _))| (p, *h)).collect()
        };
        if hashes(self) != hashes(prior) {
            return;
        }
        self.built_df = prior.built_df.clone();
        let liveness = |f: &FlowHandles| f.liveness.as_ref().map(|(m, h, _)| (*m, *h));
        if liveness(self) == liveness(prior) {
            self.built_liveness = prior.built_liveness.clone();
        }
    }

    /// One procedure's flow (its callees' handles are in place already).
    fn flow(&self, ctx: &AnalysisCtx<'_>, pid: ProcId) -> Arc<ProcFlow> {
        let (hash, cell) = &self.summaries[&pid];
        (self.store.read(cell)).unwrap_or_else(|| {
            self.store.demand(&SummarizePass {
                ctx,
                pid,
                hash: *hash,
                flows: self,
            })
        })
    }

    /// Every procedure's flow, merged leaves-first.
    pub(crate) fn df(&self, ctx: &AnalysisCtx<'_>) -> &ArrayDataFlow {
        (self.built_df).get_or_init(|| ArrayDataFlow::bottom_up(ctx, |pid, _| self.flow(ctx, pid)))
    }

    fn liveness(&self, ctx: &AnalysisCtx<'_>) -> Option<&LivenessResult> {
        let live = self.built_liveness.get_or_init(|| {
            let (mode, hash, cell) = self.liveness.as_ref()?;
            Some((self.store.read(cell)).unwrap_or_else(|| {
                self.store.demand(&LivenessPass {
                    ctx,
                    flows: self,
                    hash: *hash,
                    mode: *mode,
                })
            }))
        });
        live.as_deref()
    }
}

struct SummarizePass<'a, 'p> {
    ctx: &'a AnalysisCtx<'p>,
    pid: ProcId,
    /// [`FactInputs::summarize_hash`].
    hash: u128,
    /// Where the callees' flows are read.
    flows: &'a FlowHandles,
}

impl Pass for SummarizePass<'_, '_> {
    type Output = ProcFlow;
    fn key(&self) -> FactKey {
        summary_key(self.pid)
    }
    fn input_hash(&self) -> u128 {
        self.hash
    }
    fn deps(&self) -> Vec<FactKey> {
        // `callees_of` lists one entry per call site.
        let callees = self.ctx.cg.callees_of(self.pid);
        let mut d: Vec<FactKey> = callees.iter().copied().map(summary_key).collect();
        d.sort_unstable();
        d.dedup();
        d
    }
    fn run(&self) -> ProcFlow {
        let callees: HashMap<ProcId, Arc<ProcFlow>> = (self.ctx.cg.callees_of(self.pid).iter())
            .map(|&callee| (callee, self.flows.flow(self.ctx, callee)))
            .collect();
        summarize_proc(self.ctx, self.pid, &callees)
    }
}

struct LivenessPass<'a, 'p> {
    ctx: &'a AnalysisCtx<'p>,
    flows: &'a FlowHandles,
    /// [`FactInputs::liveness_hash`].
    hash: u128,
    mode: LivenessMode,
}

impl Pass for LivenessPass<'_, '_> {
    type Output = LivenessResult;
    fn key(&self) -> FactKey {
        FactKey::new(PassId::Liveness, Scope::Program)
    }
    fn input_hash(&self) -> u128 {
        self.hash
    }
    fn deps(&self) -> Vec<FactKey> {
        summary_keys(self.ctx)
    }
    fn run(&self) -> LivenessResult {
        liveness::run(self.ctx, self.flows.df(self.ctx), self.mode)
    }
}

struct ClassifyPass<'a, 'p> {
    inputs: &'a FactInputs<'p>,
    /// Where the data flow and liveness are read, if the verdict runs.
    flows: &'a FlowHandles,
    config: &'a ParallelizeConfig,
    li: &'a LoopInfo,
    /// [`FactInputs::classify_hash`].
    hash: u128,
    /// The value hash of the loop's procedure's summary.
    summary: u128,
    /// Where the loop's carried-dependence table is demanded.
    store: &'a FactStore,
}

impl Pass for ClassifyPass<'_, '_> {
    type Output = LoopVerdict;
    fn key(&self) -> FactKey {
        FactKey::new(PassId::Classify, Scope::Loop(self.li.stmt))
    }
    fn input_hash(&self) -> u128 {
        self.hash
    }
    fn deps(&self) -> Vec<FactKey> {
        let mut d = vec![
            summary_key(self.li.proc),
            FactKey::new(PassId::Deps, Scope::Loop(self.li.stmt)),
        ];
        if self.flows.liveness.is_some() {
            d.push(FactKey::new(PassId::Liveness, Scope::Program));
        }
        d
    }
    fn run(&self) -> LoopVerdict {
        let ctx = &self.inputs.ctx;
        let df = self.flows.df(ctx);
        let carried = self.store.demand(&DepsPass {
            ctx,
            flows: self.flows,
            keys: &self.inputs.keys,
            li: self.li,
            summary: self.summary,
        });
        let dt = DepTest { ctx, df };
        classify_loop(
            ctx,
            df,
            &dt,
            &carried,
            &|| self.flows.liveness(ctx),
            self.config,
            self.li.stmt,
            self.li.has_io,
            &self.inputs.assert_private,
            &self.inputs.assert_independent,
        )
    }
}

/// `liveness` is read only to decide whether a privatizable object needs
/// finalization, so most verdicts never read it.
#[allow(clippy::too_many_arguments)]
fn classify_loop<'l>(
    ctx: &AnalysisCtx<'_>,
    df: &ArrayDataFlow,
    dt: &DepTest<'_, '_>,
    carried: &CarriedDeps,
    liveness: &dyn Fn() -> Option<&'l LivenessResult>,
    config: &ParallelizeConfig,
    loop_stmt: StmtId,
    has_io: bool,
    assert_private: &HashSet<(StmtId, ArrayId)>,
    assert_independent: &HashSet<(StmtId, ArrayId)>,
) -> LoopVerdict {
    let mut classes: BTreeMap<ArrayId, VarClass> = BTreeMap::new();
    let mut plan = LoopPlan::default();
    let mut deps: Vec<StaticDep> = Vec::new();

    let Some(iter) = df.loop_iter.get(&loop_stmt) else {
        return LoopVerdict::Sequential {
            deps,
            has_io,
            classes,
        };
    };
    let li = ctx.tree.loop_of(loop_stmt).expect("loop");
    let index_object = ctx.array_of(li.var);

    let objects: BTreeSet<ArrayId> = iter.sum.acc.arrays().collect();
    for id in objects {
        if id == index_object {
            continue; // the induction variable is handled by the runtime
        }
        if assert_independent.contains(&(loop_stmt, id)) {
            classes.insert(id, VarClass::Parallel);
            continue;
        }
        if assert_private.contains(&(loop_stmt, id)) {
            classes.insert(
                id,
                VarClass::Privatizable {
                    needs_finalization: false,
                },
            );
            plan.private.push(ctx.key_of_id(id));
            continue;
        }
        if carried.get(&id).copied().flatten().is_none() {
            classes.insert(id, VarClass::Parallel);
            continue;
        }
        if config.enable_reduction {
            if let Some(op) = dt.reduction_of(loop_stmt, id) {
                classes.insert(id, VarClass::Reduction(op));
                plan.reductions.push((ctx.key_of_id(id), op));
                continue;
            }
        }
        if dt.is_privatizable(loop_stmt, id) {
            let dead_after = liveness()
                .map(|lv| lv.is_dead_after(loop_stmt, id))
                .unwrap_or(false);
            if dead_after {
                classes.insert(
                    id,
                    VarClass::Privatizable {
                        needs_finalization: false,
                    },
                );
                plan.private.push(ctx.key_of_id(id));
                continue;
            }
            if dt.writes_iteration_invariant(loop_stmt, id) {
                classes.insert(
                    id,
                    VarClass::Privatizable {
                        needs_finalization: true,
                    },
                );
                plan.finalize_last.push(ctx.key_of_id(id));
                continue;
            }
        }
        // Unresolved.
        classes.insert(id, VarClass::Dep);
        deps.push(static_dep_info(ctx, df, loop_stmt, id));
    }

    if has_io || !deps.is_empty() {
        LoopVerdict::Sequential {
            deps,
            has_io,
            classes,
        }
    } else {
        LoopVerdict::Parallel { plan, classes }
    }
}

/// Collect the access sites of one object inside a loop, for display and for
/// seeding the slicing queries.
fn static_dep_info(
    ctx: &AnalysisCtx<'_>,
    df: &ArrayDataFlow,
    loop_stmt: StmtId,
    id: ArrayId,
) -> StaticDep {
    let program = ctx.program;
    let li = ctx.tree.loop_of(loop_stmt).expect("loop");
    let mut vars: Vec<VarId> = Vec::new();
    for v in program.proc(li.proc).all_vars() {
        if ctx.array_of(v) == id {
            vars.push(v);
        }
    }
    let mut sites = Vec::new();
    let Some((Stmt::Do { body, .. }, _)) = program.find_stmt(loop_stmt) else {
        return StaticDep {
            object: id,
            name: ctx.array_name(id),
            vars,
            sites,
        };
    };
    collect_sites(ctx, df, body, id, &mut sites);
    StaticDep {
        object: id,
        name: ctx.array_name(id),
        vars,
        sites,
    }
}

fn collect_sites(
    ctx: &AnalysisCtx<'_>,
    df: &ArrayDataFlow,
    body: &[Stmt],
    id: ArrayId,
    out: &mut Vec<(StmtId, u32, bool, bool)>,
) {
    for s in body {
        match s {
            Stmt::Assign { lhs, rhs, line, .. } => {
                if ctx.array_of(lhs.var()) == id {
                    out.push((s.id(), *line, true, false));
                }
                let mut found = false;
                rhs.visit_scalar_reads(&mut |v| {
                    if ctx.array_of(v) == id {
                        found = true;
                    }
                });
                rhs.visit_element_reads(&mut |v, _| {
                    if ctx.array_of(v) == id {
                        found = true;
                    }
                });
                if let Ref::Element(_, subs) = lhs {
                    for e in subs {
                        e.visit_element_reads(&mut |v, _| {
                            if ctx.array_of(v) == id {
                                found = true;
                            }
                        });
                    }
                }
                if found {
                    out.push((s.id(), *line, false, false));
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                line,
                ..
            } => {
                let mut found = false;
                cond.visit_scalar_reads(&mut |v| {
                    if ctx.array_of(v) == id {
                        found = true;
                    }
                });
                cond.visit_element_reads(&mut |v, _| {
                    if ctx.array_of(v) == id {
                        found = true;
                    }
                });
                if found {
                    out.push((s.id(), *line, false, false));
                }
                collect_sites(ctx, df, then_body, id, out);
                collect_sites(ctx, df, else_body, id, out);
            }
            Stmt::Do { body, .. } => collect_sites(ctx, df, body, id, out),
            Stmt::Call { callee, line, .. } => {
                if let Some(cs) = df.proc_summary.get(callee) {
                    if let Some(acc) = cs.acc.get(id) {
                        let w = !acc.write.is_empty();
                        let r = !acc.read.is_empty();
                        if w || r {
                            out.push((s.id(), *line, w, true));
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suif_ir::parse_program;

    fn analyze(src: &str) -> (suif_ir::Program, Vec<(String, bool)>) {
        let p = parse_program(src).unwrap();
        let names = {
            let pa = Parallelizer::analyze(&p, ParallelizeConfig::default());
            let mut names: Vec<(String, bool)> = pa
                .ctx
                .tree
                .loops
                .iter()
                .map(|l| (l.name.clone(), pa.verdicts[&l.stmt].is_parallel()))
                .collect();
            names.sort();
            names
        };
        (p, names)
    }

    #[test]
    fn simple_parallel_loop() {
        let (_, v) = analyze(
            "program t\nproc main() {\n real a[10]\n int i\n do 1 i = 1, 10 {\n a[i] = i\n }\n}",
        );
        assert_eq!(v, vec![("main/1".to_string(), true)]);
    }

    #[test]
    fn recurrence_stays_sequential() {
        let (_, v) = analyze(
            "program t\nproc main() {\n real a[11]\n int i\n do 1 i = 2, 10 {\n a[i] = a[i - 1]\n }\n}",
        );
        assert_eq!(v, vec![("main/1".to_string(), false)]);
    }

    #[test]
    fn io_loop_stays_sequential() {
        let (_, v) =
            analyze("program t\nproc main() {\n int i\n do 1 i = 1, 10 {\n print i\n }\n}");
        assert_eq!(v, vec![("main/1".to_string(), false)]);
    }

    #[test]
    fn reduction_parallelizes_and_ablation_disables() {
        let src =
            "program t\nproc main() {\n real s, a[10]\n int i\n do 1 i = 1, 10 {\n s = s + a[i]\n }\n print s\n}";
        let p = parse_program(src).unwrap();
        let pa = Parallelizer::analyze(&p, ParallelizeConfig::default());
        let l = pa.ctx.tree.loops[0].stmt;
        assert!(pa.verdicts[&l].is_parallel());
        match &pa.verdicts[&l] {
            LoopVerdict::Parallel { plan, .. } => {
                assert_eq!(plan.reductions.len(), 1);
            }
            _ => panic!(),
        }
        // Ablation: reduction recognition off → sequential (Fig. 6-4).
        let pa2 = Parallelizer::analyze(
            &p,
            ParallelizeConfig {
                enable_reduction: false,
                ..Default::default()
            },
        );
        assert!(!pa2.verdicts[&l].is_parallel());
    }

    #[test]
    fn liveness_enables_privatization_without_finalization() {
        // Each iteration writes tmp[1 : n(i)] with per-iteration n, then
        // reads exactly that range back — privatizable, but the old SUIF
        // finalization rule (identical write regions every iteration) fails;
        // liveness proves tmp dead at exit, enabling the privatization.
        let src = r#"program t
proc main() {
  real tmp[10], out[20]
  int sz[20]
  int i, j, n
  do 0 i = 1, 20 {
    sz[i] = mod(i, 5) + 1
  }
  do 1 i = 1, 20 {
    n = sz[i]
    do 2 j = 1, n {
      tmp[j] = i + j
    }
    do 3 j = 1, n {
      out[i] = out[i] + tmp[j]
    }
  }
  print out[3]
}
"#;
        let p = parse_program(src).unwrap();
        let pa = Parallelizer::analyze(&p, ParallelizeConfig::default());
        let l1 = pa
            .ctx
            .tree
            .loops
            .iter()
            .find(|l| l.name == "main/1")
            .unwrap()
            .stmt;
        assert!(
            pa.verdicts[&l1].is_parallel(),
            "liveness should privatize tmp: {:?}",
            pa.verdicts[&l1]
        );
        // Without liveness the loop stays sequential (Fig. 5-8 baseline).
        let pa2 = Parallelizer::analyze(
            &p,
            ParallelizeConfig {
                liveness: None,
                ..Default::default()
            },
        );
        assert!(!pa2.verdicts[&l1].is_parallel());
    }

    #[test]
    fn user_assertion_unlocks_loop() {
        // The mdg pattern: conditional write/read of rl that the compiler
        // cannot resolve; the user asserts privatizability.
        let src = r#"program t
proc main() {
  real rs[9], rl[14], a[100]
  real cut2, acc
  int i, k, kc
  cut2 = 12.0
  acc = 0
  do 1000 i = 1, 100 {
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
        let p = parse_program(src).unwrap();
        let pa = Parallelizer::analyze(&p, ParallelizeConfig::default());
        let l1000 = pa
            .ctx
            .tree
            .loops
            .iter()
            .find(|l| l.name == "main/1000")
            .unwrap()
            .stmt;
        // Without help: sequential, with rl among the dependences.
        match &pa.verdicts[&l1000] {
            LoopVerdict::Sequential { deps, .. } => {
                assert!(
                    deps.iter().any(|d| d.name == "rl"),
                    "rl should be the blocking dep: {:?}",
                    deps.iter().map(|d| &d.name).collect::<Vec<_>>()
                );
            }
            _ => panic!("expected sequential"),
        }
        // With the user assertion: parallel.
        let pa2 = Parallelizer::analyze(
            &p,
            ParallelizeConfig {
                assertions: vec![Assertion::Privatizable {
                    loop_name: "main/1000".into(),
                    var: "rl".into(),
                }],
                ..Default::default()
            },
        );
        assert!(
            pa2.verdicts[&l1000].is_parallel(),
            "{:?}",
            pa2.verdicts[&l1000]
        );
    }

    #[test]
    fn classification_accounting() {
        let src = r#"program t
proc main() {
  real a[10], tmp[4], s
  int i, j
  do 1 i = 1, 10 {
    do 2 j = 1, 4 {
      tmp[j] = i * j
    }
    a[i] = tmp[1] + tmp[2]
    s = s + tmp[3]
  }
  print s
}
"#;
        let p = parse_program(src).unwrap();
        let pa = Parallelizer::analyze(&p, ParallelizeConfig::default());
        let l1 = pa
            .ctx
            .tree
            .loops
            .iter()
            .find(|l| l.name == "main/1")
            .unwrap()
            .stmt;
        let v = &pa.verdicts[&l1];
        assert!(v.is_parallel(), "{v:?}");
        let by_name: HashMap<String, VarClass> = v
            .classes()
            .iter()
            .map(|(&id, c)| (pa.ctx.array_name(id), c.clone()))
            .collect();
        assert_eq!(by_name["a"], VarClass::Parallel);
        assert!(matches!(by_name["tmp"], VarClass::Privatizable { .. }));
        assert_eq!(by_name["s"], VarClass::Reduction(RedOp::Add));
    }
}
