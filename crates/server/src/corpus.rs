//! Corpus mode: fan whole-program analyses across a worker pool with
//! per-program fault isolation.
//!
//! The interactive daemon analyzes one program per session; production
//! traffic arrives as "analyze these 10k files."  [`run_corpus`] is that
//! fleet driver: every corpus entry is analyzed as its own job on a
//! dedicated [`ExecutorService`], reading through (and publishing into) a
//! shared content-addressed fact tier, with a per-program [`FactStore`]
//! overlay so tier sharing and budgets apply exactly as they do to daemon
//! sessions.
//!
//! # Isolation guarantees
//!
//! A program that fails to parse, panics mid-analysis, or exceeds the size
//! cap produces an **error record** — never a crashed run, never a crashed
//! sibling:
//!
//! * the whole per-program pipeline (parse + analysis) runs under
//!   [`std::panic::catch_unwind`], so an analysis panic is caught at the
//!   job boundary and becomes that program's error record (the worker loop
//!   catches too, but only to keep its thread — it reports nothing);
//! * the fact store and tier use `parking_lot` mutexes, which do not
//!   poison, and the tier holds only *finished* facts (a job that dies
//!   mid-run leaves nothing half-published for a sibling to read);
//! * the size cap (`max_program_bytes`) rejects pathological inputs
//!   *before* parse, bounding the worst-case cost any one entry can
//!   impose — Fourier–Motzkin blowups inside the analysis itself degrade
//!   to approximations by construction and are never fatal.
//!
//! # Determinism
//!
//! [`ProgramReport::deterministic_json`] is the report's schedule- and
//! sharing-independent core: name, status, and per-loop verdicts.  Facts
//! are pure functions of their content hash, so analyzing a program over a
//! tier warmed by 999 siblings must produce the bit-identical deterministic
//! core as analyzing it alone in a fresh store — the differential test pins
//! exactly this against [`analyze_single`].  Timings and reuse counters
//! live only in the full [`ProgramReport::to_json`] record.

use crate::json::Json;
use crate::session::{process_json, tier_json};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;
use suif_analysis::{
    AnalyzeStats, ExecutorService, FactStore, LoopVerdict, ParallelizeConfig, Parallelizer,
    ScheduleOptions, SharedFactTier,
};

/// Default per-program source-size cap (bytes).  Generous for any program
/// the analyzer meaningfully handles; small enough that one hostile entry
/// cannot monopolize a worker.
pub const DEFAULT_MAX_PROGRAM_BYTES: usize = 1 << 20;

/// One program of a corpus: a report name (file stem or manifest label) and
/// its MiniF source.
#[derive(Clone, Debug)]
pub struct CorpusEntry {
    pub name: String,
    pub source: String,
}

/// Everything that shapes a corpus run.
#[derive(Clone, Debug)]
pub struct CorpusOptions {
    /// Analysis workers for the run's dedicated pool (`0` = one per core,
    /// floor 2).  The pool is private to the
    /// run — a daemon `corpus` command executing *on* the shared command
    /// pool must not fan out into that same pool (two concurrent corpus
    /// commands could otherwise deadlock waiting for each other's workers).
    pub workers: usize,
    /// Per-program byte budget for the private fact overlay (`None` =
    /// unbounded).
    pub session_budget: Option<usize>,
    /// Reject programs whose source exceeds this many bytes with an
    /// `oversize` error record, before parsing (`0` = use
    /// [`DEFAULT_MAX_PROGRAM_BYTES`]).
    pub max_program_bytes: usize,
    /// Chaos hook for the fault-isolation tests: the named program panics
    /// inside the isolation boundary instead of analyzing.  The run must
    /// absorb it as one `panic` error record.
    pub inject_panic: Option<String>,
}

impl Default for CorpusOptions {
    fn default() -> CorpusOptions {
        CorpusOptions {
            workers: 0,
            session_budget: None,
            max_program_bytes: DEFAULT_MAX_PROGRAM_BYTES,
            inject_panic: None,
        }
    }
}

/// One loop's verdict inside a [`ProgramReport`] — the same shape the
/// daemon's `analyze` response uses.
#[derive(Clone, Debug, PartialEq)]
pub struct VerdictRecord {
    pub name: String,
    pub line: u32,
    pub parallel: bool,
    /// Blocking dependence objects (sequential loops only).
    pub deps: Vec<String>,
    /// Whether I/O serializes the loop (sequential loops only).
    pub io: bool,
}

impl VerdictRecord {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("loop", Json::str(&self.name)),
            ("line", Json::int(self.line as i64)),
            ("parallel", Json::Bool(self.parallel)),
        ];
        if !self.parallel {
            fields.push(("deps", Json::Arr(self.deps.iter().map(Json::str).collect())));
            fields.push(("io", Json::Bool(self.io)));
        }
        Json::obj(fields)
    }
}

/// The per-program record of a corpus run.
#[derive(Clone, Debug)]
pub struct ProgramReport {
    /// Submission index (reports stream in completion order; collection
    /// restores index order).
    pub index: usize,
    pub name: String,
    /// `"ok"`, or the error kind: `"parse"`, `"panic"`, `"oversize"`.
    pub status: &'static str,
    /// The error message, for non-`ok` records.
    pub error: Option<String>,
    /// Per-loop verdicts, in source order (`ok` records only).
    pub verdicts: Vec<VerdictRecord>,
    /// Wall-clock seconds of this program's parse + analysis.
    pub secs: f64,
    /// Per-pass `(name, secs, invocations, reused, shared)` deltas.
    pub passes: Vec<(&'static str, f64, u64, u64, u64)>,
    /// Fact-store counters of this program's analysis.
    pub facts_computed: u64,
    pub facts_reused: u64,
    pub facts_shared: u64,
}

impl ProgramReport {
    fn error(index: usize, name: &str, status: &'static str, msg: String) -> ProgramReport {
        ProgramReport {
            index,
            name: name.to_string(),
            status,
            error: Some(msg),
            verdicts: Vec::new(),
            secs: 0.0,
            passes: Vec::new(),
            facts_computed: 0,
            facts_reused: 0,
            facts_shared: 0,
        }
    }

    pub fn is_ok(&self) -> bool {
        self.status == "ok"
    }

    pub fn parallel_loops(&self) -> usize {
        self.verdicts.iter().filter(|v| v.parallel).count()
    }

    /// The schedule- and sharing-independent core of the report: name,
    /// status, and verdicts.  Two runs of the same program — alone or over
    /// any warm tier — must serialize this bit-identically.
    pub fn deterministic_json(&self) -> Json {
        let mut fields = vec![
            ("program", Json::str(&self.name)),
            ("status", Json::str(self.status)),
        ];
        if let Some(e) = &self.error {
            fields.push(("error", Json::str(e)));
        }
        fields.push((
            "loops",
            Json::Arr(self.verdicts.iter().map(VerdictRecord::to_json).collect()),
        ));
        fields.push(("parallel", Json::int(self.parallel_loops() as i64)));
        fields.push((
            "sequential",
            Json::int((self.verdicts.len() - self.parallel_loops()) as i64),
        ));
        Json::obj(fields)
    }

    /// The full JSONL record: the deterministic core plus timings and
    /// tier reuse counters.
    pub fn to_json(&self) -> Json {
        let Json::Obj(mut m) = self.deterministic_json() else {
            unreachable!("deterministic_json builds an object");
        };
        m.insert("secs".into(), Json::Num(self.secs));
        let passes: Vec<(&'static str, Json)> = self
            .passes
            .iter()
            .map(|(name, secs, inv, reused, shared)| {
                (
                    *name,
                    Json::obj([
                        ("secs", Json::Num(*secs)),
                        ("invocations", Json::int(*inv as i64)),
                        ("reused", Json::int(*reused as i64)),
                        ("shared", Json::int(*shared as i64)),
                    ]),
                )
            })
            .collect();
        m.insert("passes".into(), Json::obj(passes));
        m.insert(
            "facts".into(),
            Json::obj([
                ("computed", Json::int(self.facts_computed as i64)),
                ("reused", Json::int(self.facts_reused as i64)),
                ("shared", Json::int(self.facts_shared as i64)),
            ]),
        );
        Json::Obj(m)
    }
}

/// Aggregate counters of a completed corpus run.
#[derive(Clone, Debug, Default)]
pub struct CorpusSummary {
    pub programs: usize,
    pub ok: usize,
    pub errors: usize,
    pub parse_errors: usize,
    pub panics: usize,
    pub oversize: usize,
    pub loops: usize,
    pub parallel_loops: usize,
    pub wall_secs: f64,
    pub workers: usize,
}

impl CorpusSummary {
    pub fn programs_per_sec(&self) -> f64 {
        self.programs as f64 / self.wall_secs.max(1e-9)
    }

    /// The summary JSONL line (tier counters attached by the caller who
    /// owns the tier; the process's memory where `/proc` reports it).
    pub fn to_json(&self, tier: &SharedFactTier) -> Json {
        let mut fields = vec![
            ("summary", Json::Bool(true)),
            ("programs", Json::int(self.programs as i64)),
            ("ok", Json::int(self.ok as i64)),
            ("errors", Json::int(self.errors as i64)),
            ("parse_errors", Json::int(self.parse_errors as i64)),
            ("panics", Json::int(self.panics as i64)),
            ("oversize", Json::int(self.oversize as i64)),
            ("loops", Json::int(self.loops as i64)),
            ("parallel_loops", Json::int(self.parallel_loops as i64)),
            ("wall_secs", Json::Num(self.wall_secs)),
            ("programs_per_sec", Json::Num(self.programs_per_sec())),
            ("workers", Json::int(self.workers as i64)),
            ("tier", tier_json(tier)),
        ];
        fields.extend(process_json().map(|p| ("process", p)));
        Json::obj(fields)
    }
}

/// A completed corpus run: every report in submission-index order, plus
/// the aggregate summary.
pub struct CorpusRun {
    pub reports: Vec<ProgramReport>,
    pub summary: CorpusSummary,
}

/// Analyze one program inside the isolation boundary, against an
/// already-built fact store (a tier overlay for corpus jobs, a fresh
/// single-tenant store for [`analyze_single`]).
fn analyze_guarded(
    index: usize,
    name: &str,
    source: &str,
    store: &FactStore,
    max_program_bytes: usize,
    inject_panic: bool,
) -> ProgramReport {
    let cap = if max_program_bytes == 0 {
        DEFAULT_MAX_PROGRAM_BYTES
    } else {
        max_program_bytes
    };
    if source.len() > cap {
        return ProgramReport::error(
            index,
            name,
            "oversize",
            format!("source is {} bytes (cap {cap})", source.len()),
        );
    }
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| -> Result<_, String> {
        if inject_panic {
            panic!("injected corpus fault (--inject-panic)");
        }
        let program = suif_ir::parse_program(source).map_err(|e| e.to_string())?;
        let (analysis, stats) = Parallelizer::analyze_in(
            &program,
            ParallelizeConfig::default(),
            &ScheduleOptions::default(),
            None,
            store,
        );
        let verdicts = analysis
            .ctx
            .tree
            .loops
            .iter()
            .map(|li| {
                let v = &analysis.verdicts[&li.stmt];
                let (deps, io) = match v {
                    LoopVerdict::Sequential { deps, has_io, .. } => {
                        (deps.iter().map(|d| d.name.clone()).collect(), *has_io)
                    }
                    LoopVerdict::Parallel { .. } => (Vec::new(), false),
                };
                VerdictRecord {
                    name: li.name.clone(),
                    line: li.line,
                    parallel: v.is_parallel(),
                    deps,
                    io,
                }
            })
            .collect::<Vec<_>>();
        Ok((verdicts, stats))
    }));
    let secs = t0.elapsed().as_secs_f64();
    match result {
        Ok(Ok((verdicts, stats))) => ProgramReport {
            index,
            name: name.to_string(),
            status: "ok",
            error: None,
            verdicts,
            secs,
            passes: pass_deltas(&stats),
            facts_computed: stats.facts_computed,
            facts_reused: stats.facts_reused,
            facts_shared: stats.facts_shared,
        },
        Ok(Err(msg)) => ProgramReport::error(index, name, "parse", msg),
        Err(payload) => ProgramReport::error(index, name, "panic", panic_message(&*payload)),
    }
}

/// The message a caught panic carried (`panic!` with a literal or a
/// formatted string), for the error record that replaces it.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "analysis panicked".to_string())
}

fn pass_deltas(stats: &AnalyzeStats) -> Vec<(&'static str, f64, u64, u64, u64)> {
    stats
        .passes
        .iter()
        .map(|p| (p.pass.name(), p.secs, p.invocations, p.reused, p.shared))
        .collect()
}

/// Analyze one program alone, in a fresh single-tenant store with no tier
/// — the differential-test oracle for
/// [`ProgramReport::deterministic_json`].
pub fn analyze_single(name: &str, source: &str, max_program_bytes: usize) -> ProgramReport {
    let store = FactStore::new();
    analyze_guarded(0, name, source, &store, max_program_bytes, false)
}

/// Run a corpus: fan every entry across a dedicated worker pool, each with
/// a private overlay over `tier`, streaming reports to `on_report` in
/// completion order.  The returned [`CorpusRun`] holds the same reports in
/// submission-index order.
///
/// Per-program failures never fail the run: they stream (and collect) as
/// error records and count in `summary.errors`.
pub fn run_corpus(
    entries: Vec<CorpusEntry>,
    opts: &CorpusOptions,
    tier: &Arc<SharedFactTier>,
    mut on_report: impl FnMut(&ProgramReport),
) -> CorpusRun {
    let t0 = Instant::now();
    let pool = ExecutorService::new(opts.workers);
    let workers = pool.workers();
    let total = entries.len();
    let (tx, rx) = mpsc::channel::<ProgramReport>();
    for (index, entry) in entries.into_iter().enumerate() {
        let tx = tx.clone();
        let tier = tier.clone();
        let session_budget = opts.session_budget;
        let max_program_bytes = opts.max_program_bytes;
        let inject = opts.inject_panic.as_deref() == Some(entry.name.as_str());
        pool.submit(move || {
            let store = FactStore::with_shared(tier);
            store.set_budget(session_budget);
            // Owner ids are 1-based: 0 is the warm-start/anonymous owner.
            store.set_owner(index as u64 + 1);
            let report = analyze_guarded(
                index,
                &entry.name,
                &entry.source,
                &store,
                max_program_bytes,
                inject,
            );
            // The run outlives every job; a send failure means the receiver
            // panicked, which the collection loop below would surface.
            let _ = tx.send(report);
        });
    }
    drop(tx);

    let mut slots: Vec<Option<ProgramReport>> = (0..total).map(|_| None).collect();
    for report in rx {
        on_report(&report);
        let slot = report.index;
        slots[slot] = Some(report);
    }
    let reports: Vec<ProgramReport> = slots
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|| panic!("corpus job {i} vanished without a report")))
        .collect();

    let mut summary = CorpusSummary {
        programs: total,
        workers,
        wall_secs: t0.elapsed().as_secs_f64(),
        ..CorpusSummary::default()
    };
    for r in &reports {
        match r.status {
            "ok" => summary.ok += 1,
            "parse" => summary.parse_errors += 1,
            "panic" => summary.panics += 1,
            "oversize" => summary.oversize += 1,
            _ => {}
        }
        if !r.is_ok() {
            summary.errors += 1;
        }
        summary.loops += r.verdicts.len();
        summary.parallel_loops += r.parallel_loops();
    }
    CorpusRun { reports, summary }
}

/// Materialize `count` generated corpus entries from `seed_base` — the
/// in-process equivalent of `scripts/gen_corpus` for the daemon's `corpus`
/// command and the benchmarks.
pub fn generated_entries(count: usize, seed_base: u64) -> Vec<CorpusEntry> {
    (0..count as u64)
        .map(|i| {
            let seed = seed_base + i;
            CorpusEntry {
                name: minif_gen::name_for_seed(seed),
                source: minif_gen::source_for_seed(seed),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_run_reports_in_index_order_and_counts() {
        let entries = generated_entries(12, 0);
        let tier = Arc::new(SharedFactTier::new());
        let mut streamed = 0usize;
        let run = run_corpus(entries, &CorpusOptions::default(), &tier, |_| streamed += 1);
        assert_eq!(streamed, 12, "every report streams exactly once");
        assert_eq!(run.reports.len(), 12);
        for (i, r) in run.reports.iter().enumerate() {
            assert_eq!(r.index, i, "collected reports restore index order");
            assert_eq!(r.status, "ok", "{}: {:?}", r.name, r.error);
            assert!(!r.verdicts.is_empty(), "{} found loops", r.name);
        }
        assert_eq!(run.summary.programs, 12);
        assert_eq!(run.summary.ok, 12);
        assert_eq!(run.summary.errors, 0);
        assert!(run.summary.loops >= 12);
        assert!(run.summary.programs_per_sec() > 0.0);
        let s = tier.stats();
        assert!(s.inserts > 0, "corpus publishes into the tier");
    }

    #[test]
    fn faults_become_error_records_not_crashes() {
        let mut entries = generated_entries(6, 100);
        entries.push(CorpusEntry {
            name: "bad-parse".into(),
            source: "program p\nthis is not minif".into(),
        });
        entries.push(CorpusEntry {
            name: "too-big".into(),
            source: "x".repeat(32 * 1024),
        });
        let tier = Arc::new(SharedFactTier::new());
        let opts = CorpusOptions {
            inject_panic: Some(minif_gen::name_for_seed(102)),
            // Above every generated program, below the hostile entry.
            max_program_bytes: 16 * 1024,
            ..CorpusOptions::default()
        };
        let run = run_corpus(entries, &opts, &tier, |_| {});
        assert_eq!(run.summary.programs, 8);
        assert_eq!(run.summary.ok, 5, "siblings all complete");
        assert_eq!(run.summary.errors, 3);
        assert_eq!(run.summary.parse_errors, 1);
        assert_eq!(run.summary.panics, 1);
        assert_eq!(run.summary.oversize, 1);
        let panic_rec = run
            .reports
            .iter()
            .find(|r| r.status == "panic")
            .expect("panic record present");
        assert!(panic_rec.error.as_deref().unwrap().contains("injected"));
    }

    #[test]
    fn tier_snapshot_round_trip_warms_a_second_run() {
        let entries = generated_entries(4, 40);
        let tier = Arc::new(SharedFactTier::new());
        let cold = run_corpus(entries.clone(), &CorpusOptions::default(), &tier, |_| {});
        let dir = std::env::temp_dir().join(format!("suif_corpus_persist_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let saved = suif_analysis::PersistDir::new(&dir)
            .checkpoint(|| tier.export(), true)
            .unwrap();
        assert!(
            saved.delta_facts > 0 && saved.bytes > 0,
            "cold run persisted facts"
        );

        // A second process's handle over the same directory.
        let tier2 = Arc::new(SharedFactTier::new());
        let warmed = suif_analysis::PersistDir::new(&dir).warm_tier(&tier2);
        assert_eq!(
            warmed.warm_hits, saved.delta_facts as u64,
            "every persisted fact imports"
        );
        let warm = run_corpus(entries, &CorpusOptions::default(), &tier2, |_| {});
        for (c, w) in cold.reports.iter().zip(&warm.reports) {
            assert_eq!(
                c.deterministic_json().to_string(),
                w.deterministic_json().to_string(),
                "warm tier must not change {}",
                c.name
            );
        }
        let shared: u64 = warm.reports.iter().map(|r| r.facts_shared).sum();
        assert!(shared > 0, "warm run reads persisted facts from the tier");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deterministic_core_matches_isolated_analysis() {
        let entries = generated_entries(8, 7);
        let singles: Vec<Json> = entries
            .iter()
            .map(|e| analyze_single(&e.name, &e.source, 0).deterministic_json())
            .collect();
        let tier = Arc::new(SharedFactTier::new());
        let run = run_corpus(entries, &CorpusOptions::default(), &tier, |_| {});
        for (r, single) in run.reports.iter().zip(&singles) {
            assert_eq!(
                r.deterministic_json().to_string(),
                single.to_string(),
                "tier sharing must not change {}",
                r.name
            );
        }
    }
}
