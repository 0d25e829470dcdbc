//! A resident Explorer session: owns the parsed program, the analysis, and
//! the cross-reload summary cache.
//!
//! The Explorer borrows the [`Program`] it analyzes; a daemon must own both.
//! [`Session`] puts the program behind an `Arc` (a stable heap address) and
//! extends the borrow to `'static` internally.  Safety rests on two
//! invariants: the `explorer` field is declared before `program` so it drops
//! first, and the extended reference never escapes the session (every public
//! return is owned JSON or plain data).  The `Arc` additionally keeps an old
//! program alive for any background speculation thread that still holds a
//! clone across a `reload`.
//!
//! # Speculative pre-classification
//!
//! With a non-zero speculation budget, every `guru` response spawns a
//! background thread that demands the classify and carried-dependence facts
//! of the top-ranked loops through the shared fact store, so the user's next
//! query on a ranked loop answers from the store.  Invalidation events
//! (`assert`, `reload`) bump an epoch counter the thread polls between
//! facts, cancelling the rest; a fact mid-`Running` when the event lands is
//! stored dirty by the store itself, so a stale answer is never served.
//! `stats` reports how many facts were speculated, how many were later
//! claimed by a query (hits), and how many an invalidation wasted.

use crate::json::Json;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use suif_analysis::persist::{Checkpointed, Warmed};
use suif_analysis::{
    AnalyzeStats, Assertion, FactKey, FactStore, LoopVerdict, ParallelizeConfig, Parallelizer,
    PassId, PersistDir, ScheduleOptions, Scope, SharedFactTier, SummaryCache,
};
use suif_explorer::Explorer;
use suif_ir::{Program, StmtId};

/// What happened to the persisted fact snapshot when this session opened,
/// plus running checkpoint-cost counters, reported under `snapshot` in
/// `stats`.
#[derive(Clone, Debug, Default)]
pub struct SnapshotReport {
    /// What the persist directory gave this session at open: the load
    /// `status`, `warm_hits`, `evicted_stale`, and any load `warning`.
    pub warmed: Warmed,
    /// Facts the opening analysis still had to compute (everything not
    /// covered by an imported fact).
    pub cold_misses: u64,
    /// Wall-clock seconds spent reading, replaying, and importing the
    /// base+log image at open.
    pub load_secs: f64,
    /// Accumulated wall-clock seconds of every persistence write (appends,
    /// base writes, compactions) this session performed.
    pub save_secs: f64,
    /// Total bytes appended to the log by delta checkpoints (excludes base
    /// rewrites — the measure of O(delta) checkpoint cost).
    pub appended_bytes: u64,
    /// Size-triggered folds of the log into a fresh base that this
    /// session's checkpoints set off.
    pub compactions: u64,
}

/// Speculation bookkeeping shared with the background prefetch thread.
#[derive(Default)]
struct SpecState {
    /// Facts demanded speculatively (across all guru requests).
    spawned: u64,
    /// Speculated facts later claimed by an interactive query.
    hits: u64,
    /// Speculated facts discarded by an invalidation event.
    wasted: u64,
    /// Speculated facts not yet claimed or wasted.
    pending: HashSet<FactKey>,
}

/// One loaded program plus its resident analysis state.
pub struct Session {
    /// Borrows `program`; declared first so it drops first.
    explorer: Explorer<'static>,
    /// The owned program; `Arc` so its address survives moves of `Session`
    /// and the speculation thread can hold it across a `reload`.
    #[allow(dead_code)]
    program: Arc<Program>,
    cache: Arc<SummaryCache>,
    /// Fact store shared across analyses and reloads of this session;
    /// stale facts miss on their content hash, surviving ones are reused.
    /// In a multi-tenant daemon this is a thin overlay over the
    /// process-wide content-addressed tier.
    store: Arc<FactStore>,
    opts: ScheduleOptions,
    /// Max ranked loops to pre-classify after each `guru` (0 = off).
    spec_budget: usize,
    /// Bumped on every invalidation event; the speculation thread stops
    /// when the epoch it started under is gone.
    spec_epoch: Arc<AtomicU64>,
    spec_state: Arc<Mutex<SpecState>>,
    spec_handle: Option<std::thread::JoinHandle<()>>,
    /// Stats of the most recent analysis run.
    pub last_stats: AnalyzeStats,
    /// `(hits, misses)` of the summary cache during the most recent run.
    pub last_cache_delta: (u64, u64),
    /// Completed `load`/`reload` requests.
    pub generation: u64,
    /// The persist directory's owner, when persistence is on (shared with
    /// every other session of the process over the same directory).
    persist: Option<Arc<PersistDir>>,
    /// How the snapshot load went at `open` time (see [`SnapshotReport`]).
    pub snapshot: SnapshotReport,
    /// Accumulated race-certification counters, reported under
    /// `certification` in `stats`.
    cert: CertCounters,
}

/// Running totals across every `certify` request of this session.
#[derive(Default)]
struct CertCounters {
    /// Loops certified (each loop × request counts once).
    loops: u64,
    /// Adversarial schedules executed.
    schedules: u64,
    /// Races reported across all schedules.
    races: u64,
}

/// Everything that shapes how a [`Session`] opens; the multi-tenant daemon
/// fills in `tier` and `budget`.
#[derive(Clone, Default)]
pub struct SessionConfig {
    /// Worker-thread configuration for the analysis executors.
    pub opts: ScheduleOptions,
    /// Max ranked loops to pre-classify after each `guru` (0 = off).
    pub spec_budget: usize,
    /// The durable fact snapshot's directory, when persistence is on: the
    /// daemon's one handle, or `PersistDir::new(dir)` for a session alone.
    pub persist: Option<Arc<PersistDir>>,
    /// Process-wide content-addressed fact tier to read through and publish
    /// into; `None` gives the classic single-tenant store.
    pub tier: Option<Arc<SharedFactTier>>,
    /// Per-session byte budget for resident facts (`None` = unbounded).
    pub budget: Option<usize>,
    /// Daemon-assigned session id; tags tier publishes for per-session
    /// accounting and eviction fairness (`0` = anonymous/single-tenant).
    pub session_id: u64,
}

fn build_explorer(
    program: &'static Program,
    opts: &ScheduleOptions,
    cache: &SummaryCache,
    store: Arc<FactStore>,
) -> Result<(Explorer<'static>, AnalyzeStats, (u64, u64)), String> {
    let before = cache.counters();
    let (explorer, stats) = Explorer::with_store(
        program,
        Default::default(),
        Vec::new(),
        opts,
        Some(cache),
        store,
    )
    .map_err(|e| e.to_string())?;
    let after = cache.counters();
    Ok((explorer, stats, (after.0 - before.0, after.1 - before.1)))
}

impl Session {
    /// Parse and analyze `source`, seeding (and drawing from) `cache`.
    ///
    /// With `cfg.spec_budget > 0`, after each `guru` the classify and
    /// carried-dependence facts of up to that many top-ranked loops are
    /// demanded on a background thread.  With `cfg.persist` set, the store
    /// is warmed from that directory before the opening analysis
    /// ([`PersistDir::warm_store`]); the open, every `assert`, an explicit
    /// `checkpoint`, and drop then checkpoint into it — O(delta) appends,
    /// folded into a fresh base when the directory's owner decides so.
    /// `cfg.tier` shares facts through a process-wide tier and `cfg.budget`
    /// bounds this session's resident facts.
    pub fn open_cfg(
        source: &str,
        cache: Arc<SummaryCache>,
        cfg: SessionConfig,
    ) -> Result<Session, String> {
        let program = Arc::new(suif_ir::parse_program(source).map_err(|e| e.to_string())?);
        // SAFETY: the program is heap-allocated behind an `Arc` held by this
        // session until after `explorer` (field order) is dropped; the
        // reference never leaves the session.
        let pref: &'static Program = unsafe { &*(&*program as *const Program) };
        let store = Arc::new(match cfg.tier {
            Some(t) => FactStore::with_shared(t),
            None => FactStore::new(),
        });
        store.set_budget(cfg.budget);
        store.set_owner(cfg.session_id);
        let mut report = SnapshotReport::default();
        if let Some(p) = &cfg.persist {
            // The explorer always analyzes under the default configuration
            // and runs on no input (see `build_explorer`), so the expected
            // hashes are computed for that; a snapshot persisted under any
            // other configuration or input simply misses and is evicted as
            // stale.
            let t0 = Instant::now();
            let expected =
                Parallelizer::expected_fact_hashes(&program, &ParallelizeConfig::default(), &[]);
            report.warmed = p.warm_store(&store, &expected);
            report.load_secs = t0.elapsed().as_secs_f64();
        }
        let (explorer, stats, delta) = build_explorer(pref, &cfg.opts, &cache, store.clone())?;
        report.cold_misses = stats.facts_computed;
        let mut session = Session {
            explorer,
            program,
            cache,
            store,
            opts: cfg.opts,
            spec_budget: cfg.spec_budget,
            spec_epoch: Arc::new(AtomicU64::new(0)),
            spec_state: Arc::new(Mutex::new(SpecState::default())),
            spec_handle: None,
            last_stats: stats,
            last_cache_delta: delta,
            generation: 1,
            persist: cfg.persist,
            snapshot: report,
            cert: CertCounters::default(),
        };
        // Persist the freshly opened state so even a kill -9 before the
        // first invalidation event restarts warm: a fresh dir gets its
        // base image, a warm start appends whatever the open computed.
        session.persist_now(false);
        Ok(session)
    }

    /// Everything durable right now.  Only `Ready`+valid slots are
    /// exported, so a checkpoint taken mid-speculation never persists
    /// `Running` or invalidated results.  With a shared tier, the tier is
    /// exported instead of the per-session overlay — one snapshot covers
    /// every tenant's clean facts, and assertion-tainted overlay entries
    /// (never published to the tier) stay out of the durable state.
    fn export_all(&self) -> Vec<suif_analysis::ExportedFact> {
        match self.store.shared_tier() {
            Some(t) => t.export(),
            None => self.store.export(),
        }
    }

    /// Checkpoint `export_all` into `dir` and feed this session's counters
    /// from what the call reports.
    fn checkpoint(&mut self, dir: &PersistDir, fold: bool) -> Result<Checkpointed, String> {
        let t0 = Instant::now();
        let written = dir.checkpoint(|| self.export_all(), fold);
        self.snapshot.save_secs += t0.elapsed().as_secs_f64();
        let w = written
            .map_err(|e| format!("snapshot {}: write failed: {e}", dir.base_path().display()))?;
        if w.appended {
            self.snapshot.appended_bytes += w.bytes as u64;
        }
        self.snapshot.compactions += w.compacted as u64;
        Ok(w)
    }

    /// The auto-save path (open, `assert`, `reload`, drop): a no-op without
    /// persistence; IO failures warn on stderr but never fail the
    /// triggering request.
    fn persist_now(&mut self, fold: bool) {
        let Some(dir) = self.persist.clone() else {
            return;
        };
        if let Err(e) = self.checkpoint(&dir, fold) {
            eprintln!("warning: {e}; continuing without persistence");
        }
    }

    /// Explicit `checkpoint` request: append the delta (compacting when
    /// due) and report what was persisted.  Errors (no persist dir, IO
    /// failure) surface to the client instead of being downgraded to
    /// warnings.
    pub fn checkpoint_json(&mut self) -> Result<Json, String> {
        let off = "persistence is off (start with --persist-dir)";
        let dir = self.persist.clone().ok_or(off)?;
        let w = self.checkpoint(&dir, false)?;
        Ok(Json::obj([
            ("path", Json::str(dir.base_path().display().to_string())),
            ("facts", Json::int(w.facts as i64)),
            ("delta_facts", Json::int(w.delta_facts as i64)),
            ("bytes", Json::int(w.bytes as i64)),
            ("log_bytes", Json::int(w.log_bytes as i64)),
            ("compactions", Json::int(self.snapshot.compactions as i64)),
        ]))
    }

    /// Replace the program with edited source.  The summary cache and fact
    /// store carry over, so only the dirty cone (edited procedures,
    /// id-shifted ones, and their transitive callers) is re-summarized and
    /// only hash-mismatched facts are recomputed.  In-flight speculation is
    /// cancelled and everything it pre-computed is written off as wasted.
    pub fn reload(&mut self, source: &str) -> Result<(), String> {
        self.cancel_speculation();
        self.spec_waste_all();
        let program = Arc::new(suif_ir::parse_program(source).map_err(|e| e.to_string())?);
        // SAFETY: as in `open_cfg`.
        let pref: &'static Program = unsafe { &*(&*program as *const Program) };
        // A reload rebuilds under the default (assertion-free) config, so
        // what the build computes is assertion-independent and must reach
        // the shared tier: the taint goes before the build.  A failed build
        // leaves the old explorer, and its assertions, in place.
        let tainted = !self.explorer.analysis.config.assertions.is_empty();
        self.store.set_assert_local(false);
        let built = build_explorer(pref, &self.opts, &self.cache, self.store.clone());
        let (explorer, stats, delta) = built.inspect_err(|_| {
            self.store.set_assert_local(tainted);
        })?;
        // Install the new pair; the old explorer (borrowing the old program)
        // is dropped here, before the old program.  A speculation thread
        // still holding the old `Arc` keeps the old program alive until it
        // notices the epoch moved.
        self.explorer = explorer;
        self.program = program;
        self.last_stats = stats;
        self.last_cache_delta = delta;
        self.generation += 1;
        // A reload churns many keys at once and orphans facts for deleted
        // scopes; fold everything into a fresh base instead of appending a
        // near-full-image delta to the log.
        self.persist_now(true);
        Ok(())
    }

    /// Bump the invalidation epoch and wait out any in-flight speculation
    /// (it polls the epoch between facts, so the join is bounded by one
    /// pass).
    fn cancel_speculation(&mut self) {
        self.spec_epoch.fetch_add(1, Ordering::SeqCst);
        if let Some(h) = self.spec_handle.take() {
            let _ = h.join();
        }
    }

    /// Test/bench hook: block until background speculation finishes.
    pub fn wait_speculation(&mut self) {
        if let Some(h) = self.spec_handle.take() {
            let _ = h.join();
        }
    }

    /// Write off every pending speculated fact (a whole-program event).
    fn spec_waste_all(&self) {
        let mut st = self.spec_state.lock().unwrap();
        st.wasted += st.pending.len() as u64;
        st.pending.clear();
    }

    /// Write off the speculated facts an assertion on `stmt` invalidates:
    /// the loop's own classification, and every carried-dependence fact
    /// (their input hash folds the assertion epoch, so all of them are
    /// stale).
    fn spec_waste_assert(&self, stmt: StmtId) {
        let mut st = self.spec_state.lock().unwrap();
        let doomed: Vec<FactKey> = st
            .pending
            .iter()
            .filter(|k| k.pass == PassId::Deps || k.scope == Scope::Loop(stmt))
            .copied()
            .collect();
        for k in doomed {
            st.pending.remove(&k);
            st.wasted += 1;
        }
    }

    /// Claim speculated facts an interactive query just consumed.
    fn spec_claim(&self, keys: &[FactKey]) {
        let mut st = self.spec_state.lock().unwrap();
        for k in keys {
            if st.pending.remove(k) {
                st.hits += 1;
            }
        }
    }

    /// Spawn the background prefetch of the top-ranked loops' facts.
    pub(crate) fn spawn_speculation(&mut self, ranked: Vec<String>) {
        if self.spec_budget == 0 || ranked.is_empty() {
            return;
        }
        // One speculation at a time: retire (and cancel) the previous run.
        self.cancel_speculation();
        let names: Vec<String> = ranked.into_iter().take(self.spec_budget).collect();
        let program = self.program.clone();
        let store = self.store.clone();
        let cache = self.cache.clone();
        let config = self.explorer.analysis.config.clone();
        let opts = self.opts.clone();
        let epoch = self.spec_epoch.clone();
        let my_epoch = epoch.load(Ordering::SeqCst);
        let state = self.spec_state.clone();
        self.spec_handle = Some(std::thread::spawn(move || {
            let cancel = move || epoch.load(Ordering::SeqCst) != my_epoch;
            let out = Parallelizer::prefetch_loops(
                &program,
                config,
                &opts,
                Some(&cache),
                &store,
                &names,
                &cancel,
            );
            let mut st = state.lock().unwrap();
            st.spawned += out.keys.len() as u64;
            st.pending.extend(out.keys);
        }));
    }

    /// Re-run the static analysis through the fact store (a warm
    /// re-analysis of an unchanged program reuses every fact and runs no
    /// pass) and report per-loop verdicts.
    pub fn analyze(&mut self) -> Json {
        // Let in-flight speculation land first so the run's counter deltas
        // are not interleaved with background demands.
        self.wait_speculation();
        let before = self.cache.counters();
        let config = self.explorer.analysis.config.clone();
        let (analysis, stats) = suif_analysis::Parallelizer::analyze_in(
            self.explorer.program,
            config,
            &self.opts,
            Some(&self.cache),
            &self.store,
        );
        let after = self.cache.counters();
        self.explorer.analysis = analysis;
        self.last_stats = stats;
        self.last_cache_delta = (after.0 - before.0, after.1 - before.1);
        let loops = self
            .verdicts_json()
            .get("loops")
            .cloned()
            .unwrap_or(Json::Arr(vec![]));
        Json::obj([
            ("loops", loops),
            ("warnings", warnings_json(&self.explorer)),
        ])
    }

    /// Check and apply one user assertion (§2.8): an invalidation event
    /// that replays only the asserted loop's classification and its
    /// dependent facts.  Returns the checker verdict, the refreshed loop
    /// verdicts, and any unresolved-assertion warnings.
    pub fn assert_json(&mut self, loop_name: &str, var: &str, independent: bool) -> Json {
        let a = if independent {
            Assertion::Independent {
                loop_name: loop_name.into(),
                var: var.into(),
            }
        } else {
            Assertion::Privatizable {
                loop_name: loop_name.into(),
                var: var.into(),
            }
        };
        // An assertion is an invalidation event: stop speculation and write
        // off the speculated facts whose input hashes it moves.
        self.cancel_speculation();
        if let Some(stmt) = self
            .explorer
            .analysis
            .ctx
            .tree
            .loops
            .iter()
            .find(|l| l.name == loop_name)
            .map(|l| l.stmt)
        {
            self.spec_waste_assert(stmt);
        }
        // Facts computed under user assertions are this tenant's opinion,
        // not ground truth: keep them in the private overlay (summaries and
        // liveness are assertion-independent and still share).  The taint
        // goes up before the reanalysis, so the first assertion's facts stay
        // private too, and settles on what the config then holds: a refused
        // assertion leaves an assertion-free session untainted.
        self.store.set_assert_local(true);
        let (res, stats) = self.explorer.assert_and_reanalyze_with_stats(a);
        self.store
            .set_assert_local(!self.explorer.analysis.config.assertions.is_empty());
        if let Some(stats) = stats {
            self.last_stats = stats;
        }
        let (verdict, detail) = match &res {
            suif_explorer::CheckResult::Consistent => ("consistent", String::new()),
            suif_explorer::CheckResult::Warning(w) => ("warning", w.clone()),
            suif_explorer::CheckResult::Contradicted(w) => ("contradicted", w.clone()),
        };
        let mut fields = vec![
            ("assertion", Json::str(verdict)),
            (
                "loops",
                self.verdicts_json()
                    .get("loops")
                    .cloned()
                    .unwrap_or(Json::Arr(vec![])),
            ),
            ("warnings", warnings_json(&self.explorer)),
        ];
        if !detail.is_empty() {
            fields.insert(1, ("detail", Json::str(&detail)));
        }
        self.persist_now(false);
        Json::obj(fields)
    }

    /// The demand-driven advisories (contraction §5.6, decomposition
    /// §4.2.4, block splitting §5.5) — computed on first request, served
    /// from the fact store afterwards.
    pub fn advisory_json(&self) -> Json {
        // Demand all three program-scope advisory facts concurrently; on a
        // warm store each is a reuse hit.
        let (contractions_fact, advisory, splits_fact) = self.explorer.all_advisories();
        let contractions: Vec<Json> = contractions_fact
            .iter()
            .map(|c| {
                Json::obj([
                    ("var", Json::str(&self.explorer.program.var(c.var).name)),
                    ("dim", Json::int(c.dim as i64)),
                ])
            })
            .collect();
        let conflicts: Vec<Json> = advisory
            .conflicts
            .iter()
            .map(|c| {
                Json::obj([
                    ("object", Json::str(&c.object_name)),
                    ("a", Json::str(&c.a.0)),
                    ("b", Json::str(&c.b.0)),
                ])
            })
            .collect();
        let splits: Vec<Json> = splits_fact
            .iter()
            .map(|s| {
                Json::obj([
                    ("block", Json::str(&s.name)),
                    ("groups", Json::int(s.groups.len() as i64)),
                ])
            })
            .collect();
        Json::obj([
            ("contractions", Json::Arr(contractions)),
            ("decomp_conflicts", Json::Arr(conflicts)),
            ("splits", Json::Arr(splits)),
        ])
    }

    /// Per-loop verdicts of the current analysis, in source order.
    pub fn verdicts_json(&self) -> Json {
        let loops: Vec<Json> = self
            .explorer
            .analysis
            .ctx
            .tree
            .loops
            .iter()
            .map(|li| {
                let v = &self.explorer.analysis.verdicts[&li.stmt];
                let mut fields = vec![
                    ("loop", Json::str(&li.name)),
                    ("line", Json::int(li.line as i64)),
                    ("parallel", Json::Bool(v.is_parallel())),
                ];
                if let LoopVerdict::Sequential { deps, has_io, .. } = v {
                    fields.push((
                        "deps",
                        Json::Arr(deps.iter().map(|d| Json::str(&d.name)).collect()),
                    ));
                    fields.push(("io", Json::Bool(*has_io)));
                }
                Json::obj(fields)
            })
            .collect();
        Json::obj([("loops", Json::Arr(loops))])
    }

    /// The Guru's ranked targets (§2.6).  With a speculation budget, the
    /// top-ranked loops' classify and carried-dependence facts are demanded
    /// on a background thread before the user asks.
    pub fn guru_json(&mut self) -> Json {
        let report = self.explorer.guru();
        let targets: Vec<Json> = report
            .targets
            .iter()
            .map(|t| {
                Json::obj([
                    ("loop", Json::str(&t.name)),
                    ("coverage", Json::Num(t.coverage)),
                    ("granularity", Json::Num(t.granularity)),
                    ("static_deps", Json::int(t.static_deps as i64)),
                    ("dynamic_dep", Json::Bool(t.dynamic_dep)),
                    ("important", Json::Bool(t.important)),
                ])
            })
            .collect();
        let payload = Json::obj([
            ("coverage", Json::Num(report.coverage)),
            ("granularity", Json::Num(report.granularity)),
            ("targets", Json::Arr(targets)),
            ("rendered", Json::str(report.render())),
            ("warnings", warnings_json(&self.explorer)),
        ]);
        self.spawn_speculation(speculation_order(&report.targets));
        payload
    }

    /// Program/control slices for the first unresolved dependence of a loop
    /// (§2.6, Fig. 4-3).
    pub fn slice_json(&mut self, loop_name: &str) -> Result<Json, String> {
        let li = self
            .explorer
            .analysis
            .ctx
            .tree
            .loops
            .iter()
            .find(|l| l.name == loop_name)
            .ok_or_else(|| format!("no loop `{loop_name}`"))?
            .clone();
        // The slice answers from the loop's classification and carried-deps
        // facts — exactly what speculation pre-computes for ranked loops.
        self.spec_claim(&[
            FactKey::new(PassId::Classify, Scope::Loop(li.stmt)),
            FactKey::new(PassId::Deps, Scope::Loop(li.stmt)),
        ]);
        let carried = self.explorer.carried_deps(li.stmt);
        let carried_json: Vec<Json> = carried
            .iter()
            .map(|(obj, kind)| {
                Json::obj([
                    (
                        "object",
                        Json::str(self.explorer.analysis.ctx.array_name(*obj)),
                    ),
                    (
                        "kind",
                        Json::str(kind.map(|k| format!("{k:?}")).unwrap_or_default()),
                    ),
                ])
            })
            .collect();
        let (lines, terminals, slices) = self.explorer.slice_view(li.stmt);
        let view = if slices.is_empty() {
            String::new()
        } else {
            suif_explorer::source_view(&self.explorer, li.line, li.end_line, &lines, &terminals)
        };
        Ok(Json::obj([
            ("loop", Json::str(loop_name)),
            ("carried_deps", Json::Arr(carried_json)),
            ("slices", Json::int(slices.len() as i64)),
            (
                "lines",
                Json::Arr(lines.iter().map(|&l| Json::int(l as i64)).collect()),
            ),
            (
                "terminals",
                Json::Arr(terminals.iter().map(|&l| Json::int(l as i64)).collect()),
            ),
            ("view", Json::str(&view)),
        ]))
    }

    /// Race-certify loops under adversarial schedules: parallel loops run
    /// under their production privatization plan (expected race-free with
    /// sequential-identical output), serial loops under the minimal
    /// always-legal plan (so statically reported carried dependences
    /// manifest as detected races).  `loop_name = None` certifies every
    /// loop; a named loop additionally mirrors its report at the top level
    /// as `{loop, schedules_run, race_count, races}`.  `races` lists the
    /// first `suif_parallel::certify::MAX_REPORTED_RACES` of each schedule;
    /// `race_count` counts them all.
    pub fn certify_json(
        &mut self,
        loop_name: Option<&str>,
        schedules: u32,
        seed: u64,
    ) -> Result<Json, String> {
        let program: &Program = self.explorer.program;
        let analysis = &self.explorer.analysis;
        let plans = suif_parallel::ParallelPlans::from_analysis(analysis);
        let mut inputs = analysis.certify_inputs();
        if let Some(name) = loop_name {
            inputs.retain(|i| i.name == name);
            if inputs.is_empty() {
                return Err(format!("no loop `{name}`"));
            }
        }
        let mut loops = Vec::new();
        let mut single = None;
        for info in &inputs {
            let Some(plan) = plans.plan_for(program, info) else {
                loops.push(Json::obj([
                    ("loop", Json::str(&info.name)),
                    ("line", Json::int(info.line as i64)),
                    ("parallel", Json::Bool(info.parallel)),
                    ("plannable", Json::Bool(false)),
                ]));
                continue;
            };
            let cert = suif_parallel::certify_loop(
                program,
                info.stmt,
                &plan,
                &suif_parallel::CertifyOptions {
                    schedules,
                    seed,
                    ..Default::default()
                },
            );
            self.cert.loops += 1;
            self.cert.schedules += cert.schedules_run() as u64;
            self.cert.races += cert.race_count() as u64;
            let races: Vec<Json> = cert
                .schedules
                .iter()
                .flat_map(|s| s.outcome.races.iter().map(move |r| (s.seed, r)))
                .map(|(sched_seed, r)| {
                    Json::obj([
                        ("kind", Json::str(r.kind())),
                        ("addr", Json::int(r.addr as i64)),
                        ("schedule_seed", Json::int(sched_seed as i64)),
                        ("first_var", Json::str(&program.var(r.first.var).name)),
                        ("first_line", Json::int(r.first.line as i64)),
                        ("first_iter", Json::int(r.first.thread as i64)),
                        ("second_var", Json::str(&program.var(r.second.var).name)),
                        ("second_line", Json::int(r.second.line as i64)),
                        ("second_iter", Json::int(r.second.thread as i64)),
                    ])
                })
                .collect();
            let elapsed: f64 = cert.schedules.iter().map(|s| s.elapsed.as_secs_f64()).sum();
            let agg = |f: fn(&suif_parallel::CertOutcome) -> u64| {
                Json::int(cert.schedules.iter().map(|s| f(&s.outcome)).sum::<u64>() as i64)
            };
            let entry = Json::obj([
                ("loop", Json::str(&info.name)),
                ("line", Json::int(info.line as i64)),
                ("parallel", Json::Bool(info.parallel)),
                ("plannable", Json::Bool(true)),
                ("plain_doall", Json::Bool(info.plain_doall)),
                ("schedules_run", Json::int(cert.schedules_run() as i64)),
                ("race_free", Json::Bool(cert.race_free())),
                ("race_count", Json::int(cert.race_count() as i64)),
                ("races", Json::Arr(races)),
                ("iterations", agg(|o| o.iterations)),
                ("shared_accesses", agg(|o| o.shared_accesses)),
                ("schedule_decisions", agg(|o| o.schedule_decisions)),
                ("schedule_switches", agg(|o| o.schedule_switches)),
                ("unplannable_invocations", agg(|o| o.unplannable)),
                ("secs", Json::Num(elapsed)),
            ]);
            if loop_name.is_some() {
                single = Some((
                    info.name.clone(),
                    cert.schedules_run(),
                    cert.race_count(),
                    entry.get("races").cloned().unwrap_or(Json::Arr(vec![])),
                ));
            }
            loops.push(entry);
        }
        let mut fields = vec![
            ("seed", Json::int(seed as i64)),
            ("loops", Json::Arr(loops)),
            ("poly", self.poly_json()),
        ];
        if let Some((name, run, race_count, races)) = single {
            fields.push(("loop", Json::str(name)));
            fields.push(("schedules_run", Json::int(run as i64)));
            fields.push(("race_count", Json::int(race_count as i64)));
            fields.push(("races", races));
        }
        Ok(Json::obj(fields))
    }

    /// The annotated code view (§2.7).
    pub fn codeview_json(&self) -> Json {
        let guru = self.explorer.guru();
        Json::obj([(
            "view",
            Json::str(suif_explorer::codeview(&self.explorer, &guru)),
        )])
    }

    /// Daemon statistics: per-pass timings and invocation/reuse counters
    /// from the fact store, the instrumented run behind the last
    /// `load`/`reload` (and whether that open reused its fact),
    /// summary-cache traffic, and worker utilization.
    pub fn stats_json(&self) -> Json {
        let s = &self.last_stats;
        let mut passes: Vec<(&'static str, Json)> = s
            .passes
            .iter()
            .map(|p| {
                (
                    p.pass.name(),
                    Json::obj([
                        ("secs", Json::Num(p.secs)),
                        ("invocations", Json::int(p.invocations as i64)),
                        ("reused", Json::int(p.reused as i64)),
                        ("shared", Json::int(p.shared as i64)),
                    ]),
                )
            })
            .collect();
        passes.push(("total", Json::Num(s.total_secs)));
        let worker_secs = |v: &[f64]| Json::Arr(v.iter().map(|&b| Json::Num(b)).collect());
        let spec = self.spec_state.lock().unwrap();
        let mut fields = vec![
            ("generation", Json::int(self.generation as i64)),
            ("procs", Json::int(s.schedule.procs as i64)),
            ("levels", Json::int(s.schedule.levels as i64)),
            ("threads", Json::int(s.schedule.threads as i64)),
            ("summarized", Json::int(s.schedule.summarized as i64)),
            ("cache_hits", Json::int(s.schedule.cache_hits as i64)),
            ("cache_entries", Json::int(self.cache.len() as i64)),
            ("utilization", Json::Num(s.schedule.utilization())),
            (
                "workers",
                Json::obj([
                    (
                        "schedule_busy_secs",
                        worker_secs(&s.schedule.worker_busy_secs),
                    ),
                    (
                        "demand_busy_secs",
                        worker_secs(&s.demand_exec.worker_busy_secs),
                    ),
                    ("demand_wall_secs", Json::Num(s.demand_exec.wall_secs)),
                ]),
            ),
            ("passes", Json::obj(passes)),
            (
                "execution",
                Json::obj([
                    ("ops", Json::int(self.explorer.execution.ops as i64)),
                    ("secs", Json::Num(self.explorer.execution.secs)),
                    ("reused", Json::Bool(self.explorer.execution.reused)),
                ]),
            ),
            ("facts", self.facts_json()),
            (
                "speculation",
                Json::obj([
                    ("budget", Json::int(self.spec_budget as i64)),
                    ("spawned", Json::int(spec.spawned as i64)),
                    ("hits", Json::int(spec.hits as i64)),
                    ("wasted", Json::int(spec.wasted as i64)),
                    ("pending", Json::int(spec.pending.len() as i64)),
                ]),
            ),
            (
                "certification",
                Json::obj([
                    ("loops_certified", Json::int(self.cert.loops as i64)),
                    ("schedules_run", Json::int(self.cert.schedules as i64)),
                    ("races_found", Json::int(self.cert.races as i64)),
                ]),
            ),
            ("poly", self.poly_json()),
            ("snapshot", self.snapshot_json()),
        ];
        if let Some(t) = self.store.shared_tier() {
            fields.push(("tier", tier_json(t)));
        }
        Json::obj(fields)
    }

    /// The `facts` object of `stats`: computation/reuse counters plus the
    /// resident-byte accounting of this session's store.
    fn facts_json(&self) -> Json {
        let s = &self.last_stats;
        let bs = self.store.byte_stats();
        let mut fields = vec![
            ("computed", Json::int(s.facts_computed as i64)),
            ("reused", Json::int(s.facts_reused as i64)),
            ("deduped", Json::int(s.facts_deduped as i64)),
            ("shared", Json::int(s.facts_shared as i64)),
            ("ratio", Json::Num(s.reuse_ratio())),
            ("entries", Json::int(self.store.len() as i64)),
            ("resident_bytes", Json::int(bs.resident_bytes as i64)),
            ("evicted", Json::int(bs.evicted as i64)),
            ("evicted_bytes", Json::int(bs.evicted_bytes as i64)),
        ];
        if let Some(b) = bs.budget {
            fields.push(("budget", Json::int(b as i64)));
        }
        Json::obj(fields)
    }

    /// The polyhedral-kernel staged-test counters (`PolyStats`) of the most
    /// recent analysis: per-stage rejects/sats, full Fourier–Motzkin runs,
    /// and approximation (constraint-drop) events.  Shared by `stats` and
    /// `certify` responses.
    fn poly_json(&self) -> Json {
        let p = &self.last_stats.poly;
        Json::obj([
            ("gcd_rejects", Json::int(p.gcd_rejects as i64)),
            ("interval_rejects", Json::int(p.interval_rejects as i64)),
            ("quick_sats", Json::int(p.quick_sats as i64)),
            ("fm_runs", Json::int(p.fm_runs as i64)),
            ("subscript_rejects", Json::int(p.subscript_rejects as i64)),
            ("approximations", Json::int(p.approximations as i64)),
        ])
    }

    /// The `snapshot` object of `stats`: load outcome and warm/cold counters.
    fn snapshot_json(&self) -> Json {
        let mut fields = vec![
            ("status", Json::str(self.snapshot.warmed.status)),
            ("persisted", Json::Bool(self.persist.is_some())),
            (
                "warm_hits",
                Json::int(self.snapshot.warmed.warm_hits as i64),
            ),
            ("cold_misses", Json::int(self.snapshot.cold_misses as i64)),
            (
                "evicted_stale",
                Json::int(self.snapshot.warmed.evicted_stale as i64),
            ),
            ("load_secs", Json::Num(self.snapshot.load_secs)),
            ("save_secs", Json::Num(self.snapshot.save_secs)),
            (
                "appended_bytes",
                Json::int(self.snapshot.appended_bytes as i64),
            ),
            ("compactions", Json::int(self.snapshot.compactions as i64)),
        ];
        if let Some(w) = &self.snapshot.warmed.warning {
            fields.push(("warning", Json::str(w.clone())));
        }
        Json::obj(fields)
    }
}

/// Order guru targets for the speculation budget by expected payoff rather
/// than flat guru rank: a `--speculate N` budget should go to the loops
/// whose answers the user is most likely to need next.  The weight is
/// `(important ? 1.0 : 0.5) × coverage × ln(1 + granularity)` — coverage
/// dominates (it is the guru's importance axis), granularity contributes
/// logarithmically (a 10× bigger loop body is somewhat more interesting,
/// not 10× more), and targets below the importance cutoffs are halved
/// rather than dropped.  Ties keep guru order.
pub fn speculation_order(targets: &[suif_explorer::TargetLoop]) -> Vec<String> {
    let weight = |t: &suif_explorer::TargetLoop| -> f64 {
        let importance = if t.important { 1.0 } else { 0.5 };
        importance * t.coverage * (1.0 + t.granularity.max(0.0)).ln()
    };
    let mut ranked: Vec<(usize, f64, &str)> = targets
        .iter()
        .enumerate()
        .map(|(i, t)| (i, weight(t), t.name.as_str()))
        .collect();
    ranked.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    ranked.into_iter().map(|(_, _, n)| n.to_string()).collect()
}

impl Drop for Session {
    fn drop(&mut self) {
        // Stop background speculation before the session's state unwinds
        // (the thread owns `Arc`s, so this is tidiness, not soundness).
        self.cancel_speculation();
        // Final checkpoint on clean shutdown (`quit`, daemon exit).
        self.persist_now(false);
    }
}

/// The `tier` object of `stats`: process-wide shared-tier counters, plus
/// per-session resident bytes (`sessions`, keyed by session id — `"0"` is
/// warm-start imports) for eviction-fairness visibility.
pub(crate) fn tier_json(t: &SharedFactTier) -> Json {
    let ts = t.stats();
    let mut fields = vec![
        ("hits", Json::int(ts.hits as i64)),
        ("misses", Json::int(ts.misses as i64)),
        ("inserts", Json::int(ts.inserts as i64)),
        ("evicted", Json::int(ts.evicted as i64)),
        ("evicted_bytes", Json::int(ts.evicted_bytes as i64)),
        ("resident_bytes", Json::int(ts.resident_bytes as i64)),
        ("resident_entries", Json::int(ts.resident_entries as i64)),
        (
            "peak_resident_bytes",
            Json::int(ts.peak_resident_bytes as i64),
        ),
        ("fairness_spared", Json::int(ts.fairness_spared as i64)),
    ];
    if let Some(b) = ts.budget {
        fields.push(("budget", Json::int(b as i64)));
    }
    let sessions: std::collections::BTreeMap<String, Json> = t
        .session_bytes()
        .into_iter()
        .map(|(owner, bytes)| (owner.to_string(), Json::int(bytes as i64)))
        .collect();
    fields.push(("sessions", Json::Obj(sessions)));
    Json::obj(fields)
}

/// Unresolved-assertion warnings of the current analysis, as a JSON array.
fn warnings_json(ex: &Explorer<'_>) -> Json {
    Json::Arr(ex.warnings().iter().map(|w| Json::str(w.clone())).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "program t
proc inc(real q[*], int n) {
 int i
 do 1 i = 1, n {
  q[i] = q[i] + 1
 }
}
proc main() {
 real b[8]
 int i
 do 2 i = 1, 8 {
  b[i] = i
 }
 call inc(b, 8)
 print b[3]
}";

    fn open_sequential(cache: Arc<SummaryCache>) -> Session {
        let cfg = SessionConfig {
            opts: ScheduleOptions::sequential(),
            ..Default::default()
        };
        Session::open_cfg(SRC, cache, cfg).unwrap()
    }

    #[test]
    fn session_loads_and_answers() {
        let cache = Arc::new(SummaryCache::new());
        let mut s = open_sequential(cache);
        let v = s.verdicts_json();
        let loops = v.get("loops").and_then(Json::as_arr).unwrap();
        assert_eq!(loops.len(), 2);
        assert!(loops
            .iter()
            .all(|l| l.get("parallel").and_then(Json::as_bool) == Some(true)));
        assert_eq!(s.last_stats.schedule.summarized, 2);

        // Warm re-analysis of the unchanged program reuses every fact: no
        // procedure is re-summarized and the scheduler never runs.
        s.analyze();
        assert_eq!(s.last_stats.schedule.summarized, 0);
        assert_eq!(s.last_stats.schedule.cache_hits, 0);
        assert_eq!(s.last_stats.facts_computed, 0, "all facts from the store");
        assert!(
            s.last_stats.facts_reused >= 4,
            "summaries + liveness + loops"
        );

        // Reload with an edit to main only: the leaf `inc` stays cached.
        let edited = SRC.replace("print b[3]", "print b[4]");
        s.reload(&edited).unwrap();
        assert_eq!(s.generation, 2);
        assert_eq!(s.last_stats.schedule.cache_hits, 1, "inc must hit");
        assert_eq!(s.last_stats.schedule.summarized, 1, "only main dirty");
    }

    #[test]
    fn session_assertions_replay_incrementally() {
        let cache = Arc::new(SummaryCache::new());
        let mut s = open_sequential(cache);
        let classify_before = s
            .store
            .metrics_for(suif_analysis::PassId::Classify)
            .invocations;

        // Asserting on one loop replays only that loop's classification.
        let r = s.assert_json("main/2", "b", true);
        assert_eq!(
            r.get("assertion").and_then(Json::as_str),
            Some("consistent")
        );
        let classify_after = s
            .store
            .metrics_for(suif_analysis::PassId::Classify)
            .invocations;
        assert_eq!(classify_after - classify_before, 1, "one loop reclassified");
        assert_eq!(
            s.store
                .metrics_for(suif_analysis::PassId::Summarize)
                .invocations,
            1,
            "summaries never re-ran"
        );

        // An assertion the checker can disprove is rejected with a detail.
        let r = s.assert_json("nosuch/9", "b", false);
        assert_eq!(
            r.get("assertion").and_then(Json::as_str),
            Some("contradicted")
        );
        assert!(r
            .get("detail")
            .and_then(Json::as_str)
            .unwrap()
            .contains("no loop"));

        // Every analyze payload carries the warnings channel.
        let a = s.analyze();
        assert!(a.get("warnings").and_then(Json::as_arr).is_some());
    }

    #[test]
    fn session_advisory_and_stats_payload() {
        let cache = Arc::new(SummaryCache::new());
        let mut s = open_sequential(cache);
        let adv = s.advisory_json();
        assert!(adv.get("contractions").and_then(Json::as_arr).is_some());
        assert!(adv.get("splits").and_then(Json::as_arr).is_some());

        s.analyze();
        let st = s.stats_json();
        let passes = st.get("passes").unwrap();
        assert!(passes.get("total").and_then(Json::as_f64).is_some());
        let classify = passes.get("classify").unwrap();
        assert_eq!(
            classify.get("invocations").and_then(Json::as_f64),
            Some(0.0),
            "warm analyze recomputes nothing"
        );
        assert_eq!(classify.get("reused").and_then(Json::as_f64), Some(2.0));
        let facts = st.get("facts").unwrap();
        assert_eq!(facts.get("computed").and_then(Json::as_f64), Some(0.0));
        assert!(facts.get("ratio").and_then(Json::as_f64).unwrap() > 0.99);
        // The load's one instrumented run, still reported after `analyze`.
        let execution = st.get("execution").unwrap();
        assert!(execution.get("ops").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(execution.get("secs").and_then(Json::as_f64).is_some());
    }

    #[test]
    fn session_guru_and_codeview() {
        let cache = Arc::new(SummaryCache::new());
        let mut s = open_sequential(cache);
        let g = s.guru_json();
        assert!(g.get("coverage").and_then(Json::as_f64).is_some());
        let cv = s.codeview_json();
        assert!(cv
            .get("view")
            .and_then(Json::as_str)
            .unwrap()
            .contains("do"));
        assert!(s.slice_json("nosuch/1").is_err());
        let sl = s.slice_json("main/2").unwrap();
        assert_eq!(sl.get("loop").and_then(Json::as_str), Some("main/2"));
    }

    #[test]
    fn speculation_order_weights_coverage_and_granularity() {
        let target = |name: &str, coverage: f64, granularity: f64, important: bool| {
            suif_explorer::TargetLoop {
                stmt: suif_ir::StmtId(0),
                name: name.to_string(),
                coverage,
                granularity,
                static_deps: 0,
                dynamic_dep: false,
                important,
                has_calls: false,
                size_lines: 1,
            }
        };
        // Guru order: `first` leads on raw rank, but `third` has far better
        // coverage × granularity and `second` loses half its weight to the
        // importance cutoff — the weighted budget must reorder, not take the
        // flat prefix.
        let targets = vec![
            target("first", 0.10, 50.0, true),
            target("second", 0.40, 400.0, false),
            target("third", 0.35, 900.0, true),
        ];
        let flat: Vec<String> = targets.iter().map(|t| t.name.clone()).collect();
        let weighted = speculation_order(&targets);
        assert_eq!(weighted, vec!["third", "second", "first"]);
        assert_ne!(weighted, flat, "weighting must beat flat guru order");
        // Ties (identical targets) keep guru order: a stable ranking.
        let tied = vec![target("a", 0.2, 10.0, true), target("b", 0.2, 10.0, true)];
        assert_eq!(speculation_order(&tied), vec!["a", "b"]);
    }
}
