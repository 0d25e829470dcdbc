//! A resident Explorer session: owns the parsed program, the analysis, and
//! the fact store that carries summaries and verdicts across reloads.
//!
//! The Explorer borrows the [`Program`] it analyzes; a daemon must own both.
//! [`Session`] puts the program behind an `Arc` (a stable heap address) and
//! extends the borrow to `'static` internally.  Safety rests on two
//! invariants: the `explorer` field is declared before `program` so it drops
//! first, and the extended reference never escapes the session (every public
//! return is owned JSON or plain data).
//!
//! A session spawns nothing: every request runs start to finish on the
//! thread that called it (one of the daemon's command-pool workers), and a
//! fact is computed by the first request that asks for it.

use crate::json::Json;
use std::sync::Arc;
use std::time::Instant;
use suif_analysis::persist::{Checkpointed, Warmed};
use suif_analysis::{
    AnalyzeStats, Assertion, FactStore, LoopVerdict, ParallelizeConfig, Parallelizer, PersistDir,
    ScheduleOptions, SharedFactTier, SummaryCache,
};
use suif_explorer::Explorer;
use suif_ir::Program;

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

/// One loaded program plus its resident analysis state.
pub struct Session {
    /// Borrows `program`; declared first so it drops first.
    explorer: Explorer<'static>,
    /// The owned program; `Arc` so its address survives moves of `Session`.
    /// A `reload` parses against it, reusing its unchanged procedures.
    program: Arc<Program>,
    /// Fact store shared across analyses and reloads of this session;
    /// stale facts miss on their content hash, surviving ones are reused.
    /// In a multi-tenant daemon this is a thin overlay over the
    /// process-wide content-addressed tier.
    store: Arc<FactStore>,
    /// Stats of the most recent analysis run.
    pub last_stats: AnalyzeStats,
    /// Completed `load`/`reload` requests.
    pub generation: u64,
    /// Procedures the front end parsed for the last `load`/`reload` (the
    /// rest a `reload` copied from the previous program).
    pub parsed: usize,
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
    /// Certified invocations, across all schedules.
    invocations: u64,
    /// Certified invocations after which a schedule's thread equalled the
    /// scout's, so that it rode the scout on.
    joined: u64,
    /// Those of the `joined` invocations after which some cell of the
    /// schedule's memory differed: it rode on with an overlay.
    overlaid: u64,
    /// Schedules that left the scout to run alone to the end: at most one
    /// per schedule.
    diverged: u64,
    /// Those of the `joined` invocations a schedule took from another
    /// schedule's race-free run instead of running its own.
    shared: u64,
}

/// Everything that shapes how a [`Session`] opens; the multi-tenant daemon
/// fills in `tier` and `budget`.
#[derive(Clone, Default)]
pub struct SessionConfig {
    /// Ignored; kept while `perfbench/` is frozen; ROADMAP direction 0 deletes it together with the `cache` parameter.
    pub opts: ScheduleOptions,
    /// Ignored; kept while `perfbench/` is frozen; ROADMAP direction 0 deletes it together with the `cache` parameter.
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
    store: Arc<FactStore>,
) -> Result<(Explorer<'static>, AnalyzeStats), String> {
    Explorer::with_store(
        program,
        Default::default(),
        Vec::new(),
        &ScheduleOptions::default(),
        None,
        store,
    )
    .map_err(|e| e.to_string())
}

impl Session {
    /// Parse and analyze `source`.  `_cache` is ignored; kept while
    /// `perfbench/` is frozen; ROADMAP direction 0 deletes the parameter.
    ///
    /// With `cfg.persist` set, the store
    /// is warmed from that directory before the opening analysis
    /// ([`PersistDir::warm_store`]); the open, every `assert`, an explicit
    /// `checkpoint`, and drop then checkpoint into it — O(delta) appends,
    /// folded into a fresh base when the directory's owner decides so.
    /// `cfg.tier` shares facts through a process-wide tier and `cfg.budget`
    /// bounds this session's resident facts.
    pub fn open_cfg(
        source: &str,
        _cache: Arc<SummaryCache>,
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
            // hashes are computed for that, bottom-up over the image's
            // recorded value hashes; a snapshot persisted under any other
            // configuration or input simply misses and is evicted as stale.
            let t0 = Instant::now();
            report.warmed = p.warm_store(&store, |recorded| {
                let config = ParallelizeConfig::default();
                Parallelizer::expected_fact_hashes(&program, &config, &[], recorded)
            });
            report.load_secs = t0.elapsed().as_secs_f64();
        }
        let (explorer, stats) = build_explorer(pref, store.clone())?;
        report.cold_misses = stats.facts_computed;
        let mut session = Session {
            explorer,
            parsed: program.procedures.len(),
            program,
            store,
            last_stats: stats,
            generation: 1,
            persist: cfg.persist,
            snapshot: report,
            cert: CertCounters::default(),
        };
        // Persist the freshly opened state so even a kill -9 before the
        // first invalidation event restarts warm: a fresh dir gets its
        // base image, a warm start appends whatever the open computed.
        session.persist_now();
        Ok(session)
    }

    /// Everything durable right now.  Only valid facts are exported, so a
    /// checkpoint never persists an invalidated result.  With a shared
    /// tier, the tier is exported instead of this session's store — one
    /// snapshot covers every tenant's clean facts, and assertion-tainted
    /// store entries (never published to the tier) stay out of the durable
    /// state.
    fn export_all(&self) -> Vec<suif_analysis::ExportedFact> {
        match self.store.shared_tier() {
            Some(t) => t.export(),
            None => self.store.export(),
        }
    }

    /// Checkpoint `export_all` into `dir` — an append of what is new,
    /// folded when the directory's own rule says so — and feed this
    /// session's counters from what the call reports.
    fn checkpoint(&mut self, dir: &PersistDir) -> Result<Checkpointed, String> {
        let t0 = Instant::now();
        let written = dir.checkpoint(|| self.export_all(), false);
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
    fn persist_now(&mut self) {
        let Some(dir) = self.persist.clone() else {
            return;
        };
        if let Err(e) = self.checkpoint(&dir) {
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
        let w = self.checkpoint(&dir)?;
        Ok(Json::obj([
            ("path", Json::str(dir.base_path().display().to_string())),
            ("facts", Json::int(w.facts as i64)),
            ("delta_facts", Json::int(w.delta_facts as i64)),
            ("bytes", Json::int(w.bytes as i64)),
            ("log_bytes", Json::int(w.log_bytes as i64)),
            ("compactions", Json::int(self.snapshot.compactions as i64)),
        ]))
    }

    /// Replace the program with edited source.  The front end parses only
    /// the procedures whose text changed, copying the rest from the current
    /// program ([`suif_ir::reparse()`]).  The fact store carries over, so only
    /// the dirty cone (edited procedures, id-shifted ones, and callers of a
    /// procedure whose summary changed value) is re-summarized and only
    /// hash-mismatched facts are recomputed.
    pub fn reload(&mut self, source: &str) -> Result<(), String> {
        let front = suif_ir::reparse(source, &self.program).map_err(|e| e.to_string())?;
        let program = Arc::new(front.program);
        // SAFETY: as in `open_cfg`.
        let pref: &'static Program = unsafe { &*(&*program as *const Program) };
        // A reload rebuilds under the default (assertion-free) config, so
        // what the build computes is assertion-independent and must reach
        // the shared tier: the taint goes before the build.  A failed build
        // leaves the old explorer, and its assertions, in place.
        let tainted = !self.explorer.analysis.config.assertions.is_empty();
        self.store.set_assert_local(false);
        let built = build_explorer(pref, self.store.clone());
        let (explorer, stats) = built.inspect_err(|_| {
            self.store.set_assert_local(tainted);
        })?;
        // Install the new pair; the old explorer (borrowing the old program)
        // is dropped here, before the old program.
        self.explorer = explorer;
        self.program = program;
        self.last_stats = stats;
        self.generation += 1;
        self.parsed = front.parsed;
        // A reload recomputes only its dirty cone, so its delta is small:
        // append it like any other checkpoint.
        self.persist_now();
        Ok(())
    }

    /// Ignored; kept while `perfbench/` is frozen; ROADMAP direction 0 deletes it together with the `cache` parameter.
    pub fn wait_speculation(&mut self) {}

    /// Re-run the static analysis through the fact store (a warm
    /// re-analysis of an unchanged program reuses every fact and its
    /// content keys, and runs no pass) and report per-loop verdicts.
    pub fn analyze(&mut self) -> Json {
        let config = self.explorer.analysis.config.clone();
        let (analysis, stats) = self.explorer.analysis.reanalyze(config, &self.store);
        self.explorer.analysis = analysis;
        self.last_stats = stats;
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
        self.persist_now();
        Json::obj(fields)
    }

    /// The demand-driven advisories (contraction §5.6, decomposition
    /// §4.2.4, block splitting §5.5) — computed on first request, served
    /// from the fact store afterwards.
    pub fn advisory_json(&self) -> Json {
        let contractions_fact = self.explorer.contractions();
        let advisory = self.explorer.decomp_advisory();
        let splits_fact = self.explorer.block_splits();
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

    /// The Guru's ranked targets (§2.6).
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
        Json::obj([
            ("coverage", Json::Num(report.coverage)),
            ("granularity", Json::Num(report.granularity)),
            ("targets", Json::Arr(targets)),
            ("rendered", Json::str(report.render())),
            ("warnings", warnings_json(&self.explorer)),
        ])
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
    /// `race_count` counts them all.  One `certify_loops` call serves the
    /// request: its scout runs the program once and carries every schedule
    /// whose state agrees with its own, so a loop's `secs` covers only its
    /// schedules' own work — their invocations of the loop and the stretches
    /// they ran alone (zero for a loop never reached).
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
        let planned: Vec<Option<suif_parallel::PlanEntry>> = inputs
            .iter()
            .map(|info| plans.plan_for(program, info))
            .collect();
        let targets: Vec<_> = inputs
            .iter()
            .zip(&planned)
            .filter_map(|(info, plan)| Some((info.stmt, plan.as_ref()?)))
            .collect();
        let mut certs = suif_parallel::certify_loops(
            program,
            &targets,
            &suif_parallel::CertifyOptions {
                schedules,
                seed,
                ..Default::default()
            },
        )
        .into_iter();
        let mut loops = Vec::new();
        let mut single = None;
        for (info, plan) in inputs.iter().zip(&planned) {
            if plan.is_none() {
                loops.push(Json::obj([
                    ("loop", Json::str(&info.name)),
                    ("line", Json::int(info.line as i64)),
                    ("parallel", Json::Bool(info.parallel)),
                    ("plannable", Json::Bool(false)),
                ]));
                continue;
            }
            let cert = certs.next().expect("one certification per planned loop");
            self.cert.loops += 1;
            self.cert.schedules += cert.schedules_run() as u64;
            self.cert.races += cert.race_count() as u64;
            for s in &cert.schedules {
                self.cert.invocations += s.outcome.loops_run;
                self.cert.joined += s.joined;
                self.cert.overlaid += s.overlaid;
                self.cert.diverged += s.diverged;
                self.cert.shared += s.shared;
            }
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
            let alone: f64 = cert.schedules.iter().map(|s| s.alone.as_secs_f64()).sum();
            let agg = |f: fn(&suif_parallel::CertOutcome) -> u64| {
                Json::int(cert.schedules.iter().map(|s| f(&s.outcome)).sum::<u64>() as i64)
            };
            let ride = |f: fn(&suif_parallel::ScheduleReport) -> u64| {
                Json::int(cert.schedules.iter().map(f).sum::<u64>() as i64)
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
                ("joined", ride(|s| s.joined)),
                ("overlaid", ride(|s| s.overlaid)),
                ("diverged", ride(|s| s.diverged)),
                ("shared", ride(|s| s.shared)),
                ("alone_secs", Json::Num(alone)),
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
    /// `load`/`reload` (and whether that open reused its fact), and how
    /// many procedures the last run summarized against how many it was
    /// served.
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
        let mut fields = vec![
            ("generation", Json::int(self.generation as i64)),
            ("procs", Json::int(s.procs as i64)),
            ("parsed", Json::int(self.parsed as i64)),
            ("summarized", Json::int(s.summarized() as i64)),
            ("cache_hits", Json::int(s.summary_hits() as i64)),
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
                "certification",
                Json::obj([
                    ("loops_certified", Json::int(self.cert.loops as i64)),
                    ("schedules_run", Json::int(self.cert.schedules as i64)),
                    ("races_found", Json::int(self.cert.races as i64)),
                    ("invocations", Json::int(self.cert.invocations as i64)),
                    ("joined", Json::int(self.cert.joined as i64)),
                    ("overlaid", Json::int(self.cert.overlaid as i64)),
                    ("diverged", Json::int(self.cert.diverged as i64)),
                    ("shared", Json::int(self.cert.shared as i64)),
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
    /// and the approximation events (constraint drops, disjunct widenings,
    /// subtraction give-ups).  Shared by `stats` and `certify` responses.
    fn poly_json(&self) -> Json {
        let p = &self.last_stats.poly;
        Json::obj([
            ("gcd_rejects", Json::int(p.gcd_rejects as i64)),
            ("interval_rejects", Json::int(p.interval_rejects as i64)),
            ("quick_sats", Json::int(p.quick_sats as i64)),
            ("witness_sats", Json::int(p.witness_sats as i64)),
            ("fm_runs", Json::int(p.fm_runs as i64)),
            ("subscript_rejects", Json::int(p.subscript_rejects as i64)),
            ("approximations", Json::int(p.approximations as i64)),
            ("disjunct_widenings", Json::int(p.disjunct_widenings as i64)),
            ("subtract_giveups", Json::int(p.subtract_giveups as i64)),
        ])
    }

    /// The `snapshot` object of `stats`: load outcome and warm/cold
    /// counters.  A persisted value decodes at its first read, so what the
    /// session's reads decoded (and dropped as undecodable) so far is the
    /// store's count.
    fn snapshot_json(&self) -> Json {
        let decoded = self.store.decode_stats();
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
                Json::int((self.snapshot.warmed.evicted_stale + decoded.undecodable) as i64),
            ),
            ("load_secs", Json::Num(self.snapshot.load_secs)),
            ("values_decoded", Json::int(decoded.values_decoded as i64)),
            ("decode_secs", Json::Num(decoded.decode_secs)),
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

impl Drop for Session {
    fn drop(&mut self) {
        // Final checkpoint on clean shutdown (`quit`, daemon exit).
        self.persist_now();
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

/// The `process` object: what the process actually holds — `VmRSS` and
/// `VmHWM` of `/proc/self/status`, in bytes — for comparison with the tier's
/// `resident_bytes` ledger.  `None` where that file does not exist.
pub(crate) fn process_json() -> Option<Json> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let bytes = |field: &str| -> Option<Json> {
        let value = status.lines().find_map(|l| l.strip_prefix(field))?;
        let kb: i64 = value.trim().strip_suffix("kB")?.trim().parse().ok()?;
        Some(Json::int(kb * 1024))
    };
    Some(Json::obj([
        ("rss_bytes", bytes("VmRSS:")?),
        ("peak_rss_bytes", bytes("VmHWM:")?),
    ]))
}

/// Unresolved-assertion warnings of the current analysis, as a JSON array.
fn warnings_json(ex: &Explorer<'_>) -> Json {
    Json::Arr(ex.warnings().iter().map(|w| Json::str(w.clone())).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use suif_analysis::PassId;

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

    fn open() -> Session {
        Session::open_cfg(SRC, Default::default(), SessionConfig::default()).unwrap()
    }

    #[test]
    fn session_loads_and_answers() {
        let mut s = open();
        let v = s.verdicts_json();
        let loops = v.get("loops").and_then(Json::as_arr).unwrap();
        assert_eq!(loops.len(), 2);
        assert!(loops
            .iter()
            .all(|l| l.get("parallel").and_then(Json::as_bool) == Some(true)));
        assert_eq!(s.last_stats.summarized(), 2);

        // Warm re-analysis of the unchanged program reuses every fact: no
        // procedure is re-summarized, both are served by the store.
        s.analyze();
        assert_eq!(s.last_stats.summarized(), 0);
        assert_eq!(s.last_stats.summary_hits(), 2);
        assert_eq!(s.last_stats.facts_computed, 0, "all facts from the store");
        assert!(
            s.last_stats.facts_reused >= 4,
            "summaries + liveness + loops"
        );

        // Reload with an edit to main only: the leaf `inc` stays cached.
        let edited = SRC.replace("print b[3]", "print b[4]");
        s.reload(&edited).unwrap();
        assert_eq!(s.generation, 2);
        assert_eq!(s.last_stats.summary_hits(), 1, "inc must hit");
        assert_eq!(s.last_stats.summarized(), 1, "only main dirty");
    }

    #[test]
    fn session_assertions_replay_incrementally() {
        let mut s = open();
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
            2,
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
        let mut s = open();
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
        let mut s = open();
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

    /// The MDG kernel shape: `main/1000` is sequential (and so a Guru
    /// target) until the user asserts `rl` privatizable.  A leaf procedure
    /// with a loop of its own precedes `main`, so an edit to `main` moves
    /// `main`'s key alone.
    const MDG_LIKE: &str = "program mdgkern
const nmol = 40
proc scale(real q[*], int n) {
  int j
  do 7 j = 1, n {
    q[j] = q[j] * 2
  }
}
proc main() {
  real rs[9], rl[14], a[nmol], w[8]
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
  call scale(w, 8)
  print acc, w[2]
}
";

    /// The carried-dependence table is computed once per loop region: the
    /// open's classifications compute one per loop; `guru`, `slice` and
    /// `assert` only read them — the asserted loop's replay too, since no
    /// assertion moves a table's key — so a `slice` after the assertion
    /// computes nothing; and a one-procedure `reload` recomputes exactly
    /// the tables of the loops whose procedure's content key or summary
    /// value moved.
    #[test]
    fn deps_tables_are_computed_once_per_region() {
        let mut s =
            Session::open_cfg(MDG_LIKE, Default::default(), SessionConfig::default()).unwrap();
        let runs = |s: &Session, pass| s.store.metrics_for(pass).invocations;
        let all_runs = |s: &Session| -> u64 {
            let metrics = s.store.metrics();
            metrics.values().map(|m| m.invocations).sum()
        };
        let loops = s.explorer.analysis.ctx.tree.loops.len() as u64;
        assert_eq!(runs(&s, PassId::Classify), loops);
        assert_eq!(
            runs(&s, PassId::Deps),
            loops,
            "the open: one table per loop"
        );

        let g = s.guru_json();
        let targets = g.get("targets").and_then(Json::as_arr).unwrap();
        let ranked = |t: &Json| t.get("loop").and_then(Json::as_str) == Some("main/1000");
        assert!(targets.iter().any(ranked), "{g}");
        let first = s.slice_json("main/1000").unwrap();
        let again = s.slice_json("main/1000").unwrap();
        assert_eq!(first.to_string(), again.to_string());
        assert_eq!(
            runs(&s, PassId::Deps),
            loops,
            "guru and slice read the tables"
        );
        assert_eq!(runs(&s, PassId::Classify), loops);

        let read_before = s.store.metrics_for(PassId::Deps).reused;
        let r = s.assert_json("main/1000", "rl", false);
        assert_eq!(
            r.get("assertion").and_then(Json::as_str),
            Some("consistent")
        );
        assert_eq!(runs(&s, PassId::Classify), loops + 1, "one loop replayed");
        assert_eq!(runs(&s, PassId::Deps), loops, "assert computes no table");
        assert_eq!(
            s.store.metrics_for(PassId::Deps).reused - read_before,
            1,
            "the replay read its loop's unchanged table"
        );

        let computed = all_runs(&s);
        let after = s.slice_json("main/1000").unwrap();
        assert_eq!(
            all_runs(&s),
            computed,
            "a slice after the assertion computes nothing"
        );
        assert_eq!(after.get("carried_deps"), first.get("carried_deps"));

        let old_keys = s.explorer.analysis.keys.clone();
        let deps_before = runs(&s, PassId::Deps);
        s.reload(&MDG_LIKE.replace("cut2 = 30.0", "cut2 = 31.0"))
            .unwrap();
        let analysis = &s.explorer.analysis;
        let moved = analysis
            .ctx
            .tree
            .loops
            .iter()
            .filter(|li| old_keys.procs.get(&li.proc) != analysis.keys.procs.get(&li.proc))
            .count() as u64;
        assert_eq!(moved, loops - 1, "every loop of main, not scale's");
        assert_eq!(
            runs(&s, PassId::Deps) - deps_before,
            moved,
            "the reload recomputed the moved loops' tables only"
        );
    }
}
