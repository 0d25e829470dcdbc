//! The traced run: where a workload's time goes, layer by layer.
//!
//! The layers are the crates.  This program links them and records a span
//! around each call it makes into a layer's public functions, over the
//! programs the workload sends (`--workload` picks the input set; the
//! certification numbers use the same programs at `Scale::Test`, where one
//! schedule of one loop is a whole-program run that ends).  Nothing inside
//! the crates is instrumented.
//!
//! One pass has three parts:
//!
//! 1. the **layer walk**, in process: per program, lex+parse, sema, a cold
//!    `analyze_in`, a plain / profiled / dependence-analyzed interpreter run
//!    (what `Explorer::with_store` does inside, but apart), then
//!    `Explorer::with_store` whole, the Guru, slices, assertion replay,
//!    plans and certification, and `Session::open_cfg`;
//! 2. three **probes over TCP** to child daemons: the persistence probe, a
//!    `ch4_open` episode per program (the open the walk's spans are compared
//!    with, what the snapshot costs to write and to read back), and the
//!    command probe, a `ch4_interactive` episode (each command of the
//!    user's sequence timed, plus refused commands for the transport's
//!    floor); and the transport probe, the twins opened over TCP to set
//!    against the same opens in process;
//! 3. the **fleet probe**: six `corpus` batches of 100 generated programs,
//!    cold then warm, for the batch slowdown and the tier's hit ratio.
//!
//! The emptiness memo is process-wide, so it is cleared before every cold
//! analysis: counts then repeat exactly from run to run.

use crate::daemon::{Client, DaemonProc, DaemonSpec, Tally, TempDir};
use crate::inputs::{self, ADVISORY, ANALYZE, CODEVIEW, GURU, QUIT};
use crate::json::Json;
use crate::reference;
use crate::stats::{median, quantile};
use crate::trace::Trace;
use crate::workloads::{fleet_request, Ctx, Row};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use suif_analysis::{
    Assertion, FactStore, ParallelizeConfig, Parallelizer, PassId, ScheduleOptions, SharedFactTier,
    SummaryCache,
};
use suif_benchmarks::{Scale, UserAssertion};
use suif_dynamic::{DynDepAnalyzer, LoopProfiler, Machine, NoHooks};
use suif_explorer::Explorer;
use suif_parallel::{certify_loop, CertifyOptions, ParallelPlans};
use suif_server::{Daemon, Frame, Session, SessionConfig};

/// (name, unit, better) of every per-layer metric, as `BENCHMARK.json`
/// lists them.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("ir.parse_s", "s", "lower"),
    ("ir.sema_s", "s", "lower"),
    ("ir.lines", "count", "lower"),
    ("ir.lines_per_s", "1/s", "higher"),
    ("ir.stmts", "count", "lower"),
    ("ir.loops", "count", "lower"),
    ("poly.fm_runs", "count", "lower"),
    ("poly.quick_rejects", "count", "higher"),
    ("poly.quick_sats", "count", "higher"),
    ("poly.approximations", "count", "lower"),
    ("poly.no_fm_ratio", "ratio", "higher"),
    ("analysis.analyze_s", "s", "lower"),
    ("analysis.summarize_s", "s", "lower"),
    ("analysis.liveness_s", "s", "lower"),
    ("analysis.classify_s", "s", "lower"),
    ("analysis.facts_computed", "count", "lower"),
    ("analysis.facts_reused", "count", "higher"),
    ("analysis.reanalyze_s", "s", "lower"),
    ("analysis.assert_replay_s", "s", "lower"),
    ("analysis.assert_replay_facts", "count", "lower"),
    ("analysis.tier_hit_ratio", "ratio", "higher"),
    ("analysis.tier_resident_mb", "MB", "lower"),
    ("dynamic.plain_run_s", "s", "lower"),
    ("dynamic.profile_run_s", "s", "lower"),
    ("dynamic.dyndep_run_s", "s", "lower"),
    ("dynamic.ops", "count", "lower"),
    ("dynamic.mops_per_s", "Mops/s", "higher"),
    ("dynamic.hook_overhead_x", "x", "lower"),
    ("dynamic.certify_schedule_s", "s", "lower"),
    ("dynamic.certify_overhead_x", "x", "lower"),
    ("core.explorer_open_s", "s", "lower"),
    ("core.open_self_s", "s", "lower"),
    ("core.dynamic_share", "ratio", "lower"),
    ("core.guru_s", "s", "lower"),
    ("slicing.first_slice_s", "s", "lower"),
    ("slicing.slice_s", "s", "lower"),
    ("slicing.slice_lines", "count", "lower"),
    ("parallel.plan_build_s", "s", "lower"),
    ("parallel.certified_loops", "count", "higher"),
    ("parallel.refuted_loops", "count", "higher"),
    ("server.cmd_ms.reload.p50", "ms", "lower"),
    ("server.cmd_ms.reload.p90", "ms", "lower"),
    ("server.cmd_ms.guru.p50", "ms", "lower"),
    ("server.cmd_ms.guru.p90", "ms", "lower"),
    ("server.cmd_ms.slice.p50", "ms", "lower"),
    ("server.cmd_ms.slice.p90", "ms", "lower"),
    ("server.cmd_ms.assert.p50", "ms", "lower"),
    ("server.cmd_ms.assert.p90", "ms", "lower"),
    ("server.cmd_ms.analyze.p50", "ms", "lower"),
    ("server.cmd_ms.analyze.p90", "ms", "lower"),
    ("server.cmd_ms.advisory.p50", "ms", "lower"),
    ("server.cmd_ms.advisory.p90", "ms", "lower"),
    ("server.cmd_ms.codeview.p50", "ms", "lower"),
    ("server.cmd_ms.codeview.p90", "ms", "lower"),
    ("server.session_open_s", "s", "lower"),
    ("server.open_transport_ms", "ms", "lower"),
    ("server.dispatch_us", "us", "lower"),
    ("server.rtt_floor_us", "us", "lower"),
    ("server.reply_bytes_per_cmd", "B", "lower"),
    ("server.snapshot_load_s", "s", "lower"),
    ("server.snapshot_save_s", "s", "lower"),
    ("server.snapshot_bytes", "B", "lower"),
    ("server.log_append_bytes", "B", "lower"),
    ("server.wakeups_per_cmd", "ratio", "lower"),
    ("server.jobs_per_cmd", "ratio", "lower"),
    ("server.fleet_batch_first_s", "s", "lower"),
    ("server.fleet_batch_last_s", "s", "lower"),
    ("server.fleet_slowdown_x", "x", "lower"),
    ("trace_coverage", "ratio", "higher"),
];

/// The [`PER_LAYER`] entry called `name`, as the map key it is stored under.
fn listed(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(listed, ..)| *listed == name)
        .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"))
        .0
}

/// Commands whose round trips the command probe reports.
const COMMANDS: [&str; 7] = [
    "reload", "guru", "slice", "assert", "analyze", "advisory", "codeview",
];

/// What one traced run measured.
pub struct Outcome {
    pub tally: Tally,
    /// name → value, one per [`PER_LAYER`] entry.
    pub metrics: BTreeMap<&'static str, f64>,
    pub rows: Vec<Row>,
}

/// One program of the workload's input set.
struct Input {
    name: String,
    source: String,
    /// The same program at `Scale::Test`, for certification.
    twin: String,
    assertions: Vec<UserAssertion>,
    /// A one-procedure edit of `source`, where the workload has one.
    edited: Option<String>,
}

/// Programs of the generated fleet that the traced run walks.
const FLEET_SAMPLE: u64 = 100;
/// Loops certified per program, in source order.
const CERTIFY_LOOPS: usize = 6;
const CERTIFY_SCHEDULES: u32 = 2;
/// Guru targets sliced per program, as in the interactive script.
const SLICE_TARGETS: usize = 4;
/// Repeats of sub-millisecond in-process calls; the median is kept.
const MICRO_REPEATS: usize = 20;

fn inputs_for(workload: &str, seed: u64) -> Result<Vec<Input>, String> {
    let apps = |scale: Scale, all: bool| -> Result<Vec<Input>, String> {
        let programs = if all {
            inputs::suite(scale)
        } else {
            inputs::ch4(scale)
        };
        let twins = if all {
            inputs::suite(Scale::Test)
        } else {
            inputs::ch4(Scale::Test)
        };
        programs
            .into_iter()
            .zip(twins)
            .map(|(bench, twin)| {
                Ok(Input {
                    name: bench.name.to_string(),
                    edited: if all {
                        None
                    } else {
                        Some(inputs::edited(&bench, seed, 1)?)
                    },
                    source: bench.source,
                    twin: twin.source,
                    assertions: bench.assertions,
                })
            })
            .collect()
    };
    match workload {
        "ch4_open" | "ch4_interactive" => apps(Scale::Bench, false),
        "ch4_certify" => apps(Scale::Test, false),
        "suite_static" => apps(Scale::Test, true),
        "gen_fleet" => Ok((0..FLEET_SAMPLE)
            .map(|i| {
                let source = minif_gen::source_for_seed(seed + i);
                Input {
                    name: minif_gen::name_for_seed(seed + i),
                    twin: source.clone(),
                    source,
                    assertions: Vec::new(),
                    edited: None,
                }
            })
            .collect()),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Sums over the input set of one pass of the layer walk.
#[derive(Default)]
struct Walk {
    parse_s: f64,
    sema_s: f64,
    lines: u64,
    stmts: u64,
    loops: u64,
    analyze_s: f64,
    summarize_s: f64,
    liveness_s: f64,
    classify_s: f64,
    facts_computed: u64,
    reanalyze_s: f64,
    facts_reused: u64,
    poly: suif_poly::PolyStats,
    plain_s: f64,
    profile_s: f64,
    dyndep_s: f64,
    ops: u64,
    explorer_open_s: f64,
    guru_s: f64,
    first_slice_s: f64,
    slice_s: Vec<f64>,
    slice_lines: u64,
    assert_replay_s: f64,
    assert_replay_facts: u64,
    plan_build_s: f64,
    certify_s: f64,
    certify_schedules: u64,
    certified: u64,
    refuted: u64,
    twin_plain_s: f64,
    session_open_s: f64,
    dispatch_us: Vec<f64>,
    /// Per program: seconds of the spans that make up an open.
    open_layers_s: Vec<f64>,
    /// In-process session open + guru of every `Scale::Test` twin, seconds.
    twin_open_s: f64,
}

fn to_assertion(a: &UserAssertion) -> Assertion {
    if a.privatize {
        Assertion::Privatizable {
            loop_name: a.loop_name.clone(),
            var: a.var.clone(),
        }
    } else {
        Assertion::Independent {
            loop_name: a.loop_name.clone(),
            var: a.var.clone(),
        }
    }
}

fn run_machine(
    program: &suif_ir::Program,
    hooks: &mut dyn suif_dynamic::Hooks,
) -> Result<u64, String> {
    let mut m = Machine::new(program, hooks).map_err(|e| e.to_string())?;
    m.set_input(Vec::new());
    m.run().map_err(|e| e.to_string())?;
    Ok(m.ops())
}

/// The layer walk over one program.
fn walk_one(input: &Input, seed: u64, trace: &mut Trace, w: &mut Walk) -> Result<(), String> {
    trace.set_request(input.name.as_str());
    let sequential = ScheduleOptions::sequential();
    let config = ParallelizeConfig::default;

    // ---- ir ----
    let (ast, parse_s) = trace.span("ir.parse", |_| {
        let tokens = suif_ir::lexer::lex(&input.source).map_err(|e| e.to_string())?;
        suif_ir::parser::parse(&tokens).map_err(|e| e.to_string())
    });
    let ast = ast?;
    let (program, sema_s) = trace.span("ir.sema", |_| {
        suif_ir::sema::resolve(&ast, &input.source).map_err(|e| e.to_string())
    });
    let program = program?;
    w.parse_s += parse_s;
    w.sema_s += sema_s;
    w.lines += u64::from(program.num_lines());
    for p in &program.procedures {
        program.walk_stmts(p.id, &mut |_, _| w.stmts += 1);
    }

    // ---- analysis + poly: a cold analysis, then the same again ----
    suif_poly::clear_prove_empty_cache();
    let store = FactStore::new();
    let ((analysis, stats), analyze_s) = trace.span("analysis.analyze", |_| {
        Parallelizer::analyze_in(&program, config(), &sequential, None, &store)
    });
    w.loops += analysis.ctx.tree.loops.len() as u64;
    w.analyze_s += analyze_s;
    w.summarize_s += stats.pass_secs(PassId::Summarize);
    w.liveness_s += stats.liveness_secs();
    w.classify_s += stats.classify_secs();
    w.facts_computed += stats.facts_computed;
    w.poly.gcd_rejects += stats.poly.gcd_rejects;
    w.poly.interval_rejects += stats.poly.interval_rejects;
    w.poly.subscript_rejects += stats.poly.subscript_rejects;
    w.poly.quick_sats += stats.poly.quick_sats;
    w.poly.fm_runs += stats.poly.fm_runs;
    w.poly.approximations += stats.poly.approximations;
    let ((_, again), reanalyze_s) = trace.span("analysis.reanalyze", |_| {
        Parallelizer::analyze_in(&program, config(), &sequential, None, &store)
    });
    w.reanalyze_s += reanalyze_s;
    w.facts_reused += again.facts_reused;

    // ---- dynamic: the runs an open makes, and the same run bare ----
    let (ops, plain_s) = trace.span("dynamic.plain_run", |_| run_machine(&program, &mut NoHooks));
    w.ops += ops?;
    w.plain_s += plain_s;
    let mut profiler = LoopProfiler::new();
    let (ran, profile_s) = trace.span("dynamic.profile_run", |_| {
        run_machine(&program, &mut profiler)
    });
    ran?;
    w.profile_s += profile_s;
    let mut dyndep =
        DynDepAnalyzer::new(suif_explorer::explorer::dyndep_config(&program, &analysis));
    let (ran, dyndep_s) = trace.span("dynamic.dyndep_run", |_| run_machine(&program, &mut dyndep));
    ran?;
    w.dyndep_s += dyndep_s;
    drop(analysis);

    // ---- core: the open as the product does it, and the Guru ----
    suif_poly::clear_prove_empty_cache();
    let (opened, open_s) = trace.span("core.explorer_open", |_| {
        Explorer::with_store(
            &program,
            config(),
            Vec::new(),
            &sequential,
            None,
            Arc::new(FactStore::new()),
        )
        .map_err(|e| e.to_string())
    });
    let (mut explorer, _) = opened?;
    w.explorer_open_s += open_s;
    let (guru, guru_s) = trace.span("core.guru", |_| explorer.guru());
    w.guru_s += guru_s;
    w.open_layers_s
        .push(parse_s + sema_s + analyze_s + profile_s + dyndep_s + guru_s);

    // ---- slicing: the first slice builds the SSA form, later ones reuse it ----
    let targets: Vec<_> = guru
        .targets
        .iter()
        .take(SLICE_TARGETS)
        .map(|t| t.stmt)
        .collect();
    for (i, &target) in targets.iter().enumerate() {
        let name = if i == 0 {
            "slicing.first_slice"
        } else {
            "slicing.slice"
        };
        let (slices, secs) = trace.span(name, |_| explorer.slices_for_dep(target, 0));
        if i == 0 {
            w.first_slice_s += secs;
        } else {
            w.slice_s.push(secs);
        }
        w.slice_lines += slices
            .iter()
            .map(|(_, p, c)| (p.lines.len() + c.lines.len()) as u64)
            .sum::<u64>();
    }

    // ---- parallel: plans from the analysis ----
    let (_, plan_s) = trace.span("parallel.plan_build", |_| {
        ParallelPlans::from_analysis(&explorer.analysis)
    });
    w.plan_build_s += plan_s;

    // ---- analysis: assertion replay (the case study's, else one made
    // from the first unresolved dependence of the first Guru target) ----
    let mut assertions: Vec<Assertion> = input.assertions.iter().map(to_assertion).collect();
    if assertions.is_empty() {
        let derived = explorer
            .analysis
            .certify_inputs()
            .into_iter()
            .find_map(|l| {
                let var = l.dep_vars.first()?.clone();
                Some(Assertion::Privatizable {
                    loop_name: l.name,
                    var,
                })
            });
        assertions.extend(derived);
    }
    for a in assertions {
        let ((_, replay), secs) = trace.span("analysis.assert_replay", |_| {
            explorer.assert_and_reanalyze_with_stats(a)
        });
        w.assert_replay_s += secs;
        w.assert_replay_facts += replay.map_or(0, |s| s.facts_computed);
    }
    drop(explorer);

    // ---- dynamic + parallel: certification, on the Scale::Test twin ----
    let twin = suif_ir::parse_program(&input.twin).map_err(|e| e.to_string())?;
    let twin_analysis = Parallelizer::analyze(&twin, config());
    let plans = ParallelPlans::from_analysis(&twin_analysis);
    let (ran, twin_plain_s) = trace.span("dynamic.twin_plain_run", |_| {
        run_machine(&twin, &mut NoHooks)
    });
    ran?;
    w.twin_plain_s += twin_plain_s;
    for info in twin_analysis
        .certify_inputs()
        .into_iter()
        .take(CERTIFY_LOOPS)
    {
        let plan = if info.parallel {
            plans.loops.get(&info.stmt).cloned()
        } else {
            suif_parallel::minimal_plan(&twin, info.stmt)
        };
        let Some(plan) = plan else { continue };
        let (cert, secs) = trace.span("dynamic.certify", |_| {
            certify_loop(
                &twin,
                info.stmt,
                &plan,
                &CertifyOptions {
                    schedules: CERTIFY_SCHEDULES,
                    seed,
                    ..CertifyOptions::default()
                },
            )
        });
        w.certify_s += secs;
        w.certify_schedules += u64::from(cert.schedules_run());
        match (info.parallel, cert.race_free()) {
            (true, true) => w.certified += 1,
            (false, false) => w.refuted += 1,
            _ => {}
        }
    }

    // ---- server, in process: the session the daemon would open ----
    let session_config = || SessionConfig {
        opts: ScheduleOptions { threads: 0 },
        spec_budget: 4,
        tier: Some(Arc::new(SharedFactTier::with_budget(None))),
        session_id: 1,
        ..SessionConfig::default()
    };
    suif_poly::clear_prove_empty_cache();
    let (session, session_s) = trace.span("server.session_open", |_| {
        Session::open_cfg(
            &input.source,
            Arc::new(SummaryCache::new()),
            session_config(),
        )
    });
    let mut session = session?;
    w.session_open_s += session_s;
    trace.span("server.session_guru", |_| session.guru_json());
    session.wait_speculation();
    drop(session);

    // Dispatch cost: the same `codeview` through `Daemon::run_frames`
    // (decode, dispatch, encode to bytes) and straight from the session.
    // Both on the twin, whose text differs from the source in constants
    // only.
    suif_poly::clear_prove_empty_cache();
    let (twin_session, twin_open_s) = trace.span("server.twin_session_open", |_| {
        let mut session =
            Session::open_cfg(&input.twin, Arc::new(SummaryCache::new()), session_config())?;
        session.guru_json();
        Ok::<_, String>(session)
    });
    let mut twin_session = twin_session?;
    twin_session.wait_speculation();
    w.twin_open_s += twin_open_s;
    let mut daemon = Daemon::new(0);
    let (loaded, _) = daemon.handle_line(&inputs::text_request("load", &input.twin));
    if loaded.get("ok").and_then(suif_server::json::Json::as_bool) != Some(true) {
        return Err(format!("{}: in-process load failed: {loaded}", input.name));
    }
    let codeview = [Frame::Line(r#"{"cmd":"codeview"}"#.into())];
    let mut direct = Vec::new();
    let mut through = Vec::new();
    for _ in 0..MICRO_REPEATS {
        let t = Instant::now();
        std::hint::black_box(twin_session.codeview_json());
        direct.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::hint::black_box(daemon.run_frames(&codeview));
        through.push(t.elapsed().as_secs_f64());
    }
    w.dispatch_us
        .push((median(&through) - median(&direct)) * 1e6);
    Ok(())
}

/// Round-trip samples per command, and what the probe read from replies.
#[derive(Default)]
struct Probe {
    cmd_ms: BTreeMap<&'static str, Vec<f64>>,
    /// Per program: TCP `load` + `guru` on a daemon that persists, ms.
    tcp_open_ms: Vec<f64>,
    /// `load` + `guru` of every `Scale::Test` twin, ms.
    tcp_twin_open_ms: f64,
    rtt_floor_us: Vec<f64>,
    requests: u64,
    reply_bytes: u64,
    /// Reactor wake-ups and worker jobs over `counted_cmds` commands.
    wakeups: i64,
    jobs: i64,
    counted_cmds: u64,
    snapshot_save_s: f64,
    log_append_bytes: f64,
    snapshot_bytes: f64,
    snapshot_load_s: f64,
}

/// What the probes share.
struct Probing<'a> {
    ctx: &'a Ctx<'a>,
    tally: &'a mut Tally,
    trace: &'a mut Trace,
    probe: Probe,
}

impl Probing<'_> {
    /// A fresh daemon with the shipped defaults, persisting to `dir` if
    /// there is one.
    fn daemon(&mut self, persist_dir: Option<&Path>) -> Result<DaemonProc, String> {
        self.tally.attempted += 1;
        DaemonProc::spawn(&DaemonSpec {
            bin: self.ctx.daemon_bin,
            persist_dir,
            certify_seed: None,
            one_cpu: false,
        })
    }

    fn connect(&mut self, daemon: &DaemonProc) -> Result<Client, String> {
        Client::connect(daemon.addr, self.tally).ok_or_else(|| "connect failed".into())
    }

    /// Keep `client` as the connection the daemon will be shut down
    /// through; the one kept before it, if any, says `quit`.
    fn keep(&mut self, last: &mut Option<Client>, client: Client) {
        if let Some(mut previous) = last.replace(client) {
            previous.request(QUIT, self.tally);
        }
    }

    /// One request inside a span called `span`; its round trip is a sample
    /// of `cmd`.  Returns the reply and the round trip in ms.
    fn timed(
        &mut self,
        client: &mut Client,
        span: &'static str,
        cmd: &'static str,
        line: &str,
    ) -> (Option<Json>, f64) {
        let tally = &mut *self.tally;
        let (reply, _) = self.trace.span(span, |_| client.request(line, tally));
        let ms = client.last_rtt.as_secs_f64() * 1e3;
        self.probe.cmd_ms.entry(cmd).or_default().push(ms);
        self.probe.requests += 1;
        (reply, ms)
    }

    /// `stats.service.reactor.{wakeups, offloaded}` right now.
    fn reactor_counters(&mut self, client: &mut Client) -> Option<(i64, i64)> {
        self.probe.requests += 1;
        let stats = client.request(r#"{"cmd":"stats"}"#, self.tally)?;
        let reactor = stats.at(&["service", "reactor"])?;
        Some((
            reactor.get("wakeups")?.as_i64()?,
            reactor.get("offloaded")?.as_i64()?,
        ))
    }
}

/// The assertion the probes make about a program: the case study's first,
/// or, where there is none, one about the first Guru target and a variable
/// it may not have — the checker and the replay run either way.
fn probe_assertions(input: &Input, targets: &[String]) -> Vec<String> {
    let mut pairs: Vec<(String, String)> = input
        .assertions
        .iter()
        .map(|a| (a.loop_name.clone(), a.var.clone()))
        .collect();
    if pairs.is_empty() {
        let target = targets.first().cloned().unwrap_or_else(|| "main/1".into());
        pairs.push((target, "i".into()));
    }
    pairs
        .into_iter()
        .map(|(loop_name, var)| inputs::assert_request(&loop_name, &var, true))
        .collect()
}

/// The persistence probe, shaped like a `ch4_open` episode: per program a
/// fresh daemon over an empty persist directory answers `load` and `guru`
/// (the open the layer walk's spans are compared with), one assertion
/// appends to the log, and `shutdown` writes the image.  The first
/// program's daemon is then restarted to read its snapshot back.
fn persistence_probe(inputs: &[Input], p: &mut Probing<'_>) -> Result<(), String> {
    for (i, input) in inputs.iter().enumerate() {
        p.trace.set_request(input.name.as_str());
        let dir = TempDir::create(p.ctx.work, "trace-persist")?;
        let daemon = p.daemon(Some(dir.path()))?;
        let mut client = p.connect(&daemon)?;
        let load = inputs::text_request("load", &input.source);
        let (_, load_ms) = p.timed(&mut client, "tcp.load", "persist.load", &load);
        let (guru, guru_ms) = p.timed(&mut client, "tcp.guru", "persist.guru", GURU);
        p.probe.tcp_open_ms.push(load_ms + guru_ms);
        let targets = guru.as_ref().map(reference::guru_order).unwrap_or_default();
        if let Some(line) = probe_assertions(input, &targets).first() {
            p.timed(&mut client, "tcp.assert", "persist.assert", line);
        }
        if let Some(stats) = client.request(r#"{"cmd":"stats"}"#, p.tally) {
            let field = |k| {
                stats
                    .at(&["snapshot", k])
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            };
            p.probe.snapshot_save_s += field("save_secs");
            p.probe.log_append_bytes += field("appended_bytes");
        }
        if let Some(reply) = client.request(r#"{"cmd":"shutdown"}"#, p.tally) {
            p.probe.snapshot_bytes += reply
                .at(&["checkpoint", "bytes"])
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
        }
        p.probe.requests += 2;
        p.probe.reply_bytes += client.reply_bytes;
        drop(client);
        drop(daemon);
        if i > 0 {
            continue;
        }
        let daemon = p.daemon(Some(dir.path()))?;
        let mut client = p.connect(&daemon)?;
        if let (Some(stats), _) = p.timed(&mut client, "tcp.warm_load", "persist.warm_load", &load)
        {
            let status = stats.at(&["snapshot", "status"]).and_then(Json::as_str);
            p.tally.check(status == Some("loaded"), || {
                format!("restart did not load the snapshot ({status:?})")
            });
            p.probe.snapshot_load_s = stats
                .at(&["snapshot", "load_secs"])
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
        }
        daemon.shutdown(client, p.tally);
    }
    Ok(())
}

/// The command probe, shaped like a `ch4_interactive` episode: one daemon
/// without persistence, one session per program, and per session the
/// user's command sequence, each command timed.
fn command_probe(inputs: &[Input], p: &mut Probing<'_>) -> Result<(), String> {
    let daemon = p.daemon(None)?;
    let mut last: Option<Client> = None;
    for input in inputs {
        p.trace.set_request(input.name.as_str());
        let mut client = p.connect(&daemon)?;
        let load = inputs::text_request("load", &input.source);
        p.timed(&mut client, "tcp.load", "load", &load);
        let (guru, _) = p.timed(&mut client, "tcp.guru", "guru", GURU);

        let before = p.reactor_counters(&mut client);
        let first_counted = p.probe.requests;
        // A reload of the edited text where the workload has an edit; of
        // the same text otherwise, which re-runs the interpreter and finds
        // every fact in place.
        let text = input.edited.as_deref().unwrap_or(&input.source);
        let reload = inputs::text_request("reload", text);
        p.timed(&mut client, "tcp.reload", "reload", &reload);
        let targets = guru.as_ref().map(reference::guru_order).unwrap_or_default();
        for target in targets.iter().take(SLICE_TARGETS) {
            let line = inputs::slice_request(target);
            p.timed(&mut client, "tcp.slice", "slice", &line);
        }
        for line in probe_assertions(input, &targets) {
            p.timed(&mut client, "tcp.assert", "assert", &line);
        }
        for _ in 0..2 {
            p.timed(&mut client, "tcp.analyze", "analyze", ANALYZE);
            p.timed(&mut client, "tcp.guru", "guru", GURU);
            p.timed(&mut client, "tcp.advisory", "advisory", ADVISORY);
            p.timed(&mut client, "tcp.codeview", "codeview", CODEVIEW);
        }
        if let (Some(before), Some(after)) = (before, p.reactor_counters(&mut client)) {
            // The closing `stats` is itself one of the commands counted.
            p.probe.counted_cmds += p.probe.requests - first_counted;
            p.probe.wakeups += after.0 - before.0;
            p.probe.jobs += after.1 - before.1;
        }
        // The floor of a round trip: a command the daemon refuses at once,
        // through the reactor, the queue and a worker.
        for _ in 0..MICRO_REPEATS {
            let refused = client.exchange(r#"{"cmd":"no-such-command"}"#, p.tally);
            let ok = refused.and_then(|r| r.get("ok").and_then(Json::as_bool));
            p.tally.check(ok == Some(false), || {
                "an unknown command was not refused".into()
            });
            p.probe
                .rtt_floor_us
                .push(client.last_rtt.as_secs_f64() * 1e6);
            p.probe.requests += 1;
        }
        p.probe.reply_bytes += client.reply_bytes;
        p.keep(&mut last, client);
    }
    let client = last.ok_or("the workload has no input")?;
    daemon.shutdown(client, p.tally);
    Ok(())
}

/// What the socket, the reactor and the JSON add to an open: every
/// program's `Scale::Test` twin opened over TCP on a daemon that has seen
/// nothing, to set against the same opens in process.  At that scale the
/// interpreter's share is small enough for the difference to show.
fn transport_probe(inputs: &[Input], p: &mut Probing<'_>) -> Result<(), String> {
    let daemon = p.daemon(None)?;
    let mut last: Option<Client> = None;
    for input in inputs {
        p.trace.set_request(input.name.as_str());
        let mut client = p.connect(&daemon)?;
        let load = inputs::text_request("load", &input.twin);
        let (_, load_ms) = p.timed(&mut client, "tcp.twin_load", "twin_load", &load);
        let (_, guru_ms) = p.timed(&mut client, "tcp.guru", "twin_guru", GURU);
        p.probe.tcp_twin_open_ms += load_ms + guru_ms;
        p.keep(&mut last, client);
    }
    let client = last.ok_or("the workload has no input")?;
    daemon.shutdown(client, p.tally);
    Ok(())
}

/// Batches of the fleet probe, and programs per batch.
const PROBE_BATCHES: u64 = 6;
const PROBE_BATCH_PROGRAMS: u64 = 100;

/// What the fleet probe read.
#[derive(Default)]
struct FleetProbe {
    first_s: f64,
    last_s: f64,
    tier_hit_ratio: f64,
    tier_resident_mb: f64,
}

/// Six `corpus` batches cold, then the same six warm, on a fresh daemon.
fn fleet_probe(p: &mut Probing<'_>) -> Result<FleetProbe, String> {
    p.trace.set_request("fleet-probe");
    let daemon = p.daemon(None)?;
    let mut client = p.connect(&daemon)?;
    let mut out = FleetProbe::default();
    let tier = |reply: &Json, k: &str| {
        reply
            .at(&["summary", "tier", k])
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let mut after_cold = (0.0, 0.0);
    for pass in 0..2 {
        for b in 0..PROBE_BATCHES {
            let line = fleet_request(p.ctx.seed, b, PROBE_BATCH_PROGRAMS);
            let span = if pass == 0 {
                "tcp.corpus_cold"
            } else {
                "tcp.corpus_warm"
            };
            let (reply, ms) = p.timed(&mut client, span, "corpus", &line);
            let Some(reply) = reply else { continue };
            if pass == 0 && b == 0 {
                out.first_s = ms / 1e3;
            }
            if b + 1 == PROBE_BATCHES {
                let (hits, misses) = (tier(&reply, "hits"), tier(&reply, "misses"));
                if pass == 0 {
                    out.last_s = ms / 1e3;
                    after_cold = (hits, misses);
                } else {
                    let (h, m) = (hits - after_cold.0, misses - after_cold.1);
                    out.tier_hit_ratio = h / (h + m);
                    out.tier_resident_mb = tier(&reply, "resident_bytes") / (1u64 << 20) as f64;
                }
            }
        }
    }
    daemon.shutdown(client, p.tally);
    Ok(out)
}

/// Run one workload's traced pass(es) and fold them into the per-layer
/// metrics.  The span file is written to `trace_file`.
pub fn run(workload: &str, ctx: &Ctx<'_>, trace_file: &Path) -> Result<Outcome, String> {
    let inputs = inputs_for(workload, ctx.seed)?;
    let mut tally = Tally::default();
    let mut trace = Trace::new();
    let started = Instant::now();

    // The walk repeats while there is time, for the workloads whose
    // programs are small; every metric is the median over passes (exact
    // counts are the same in every pass).
    let mut walks: Vec<Walk> = Vec::new();
    while walks.is_empty() || started.elapsed().as_secs_f64() < ctx.seconds / 2.0 {
        let mut walk = Walk::default();
        for input in &inputs {
            tally.attempted += 1;
            if let Err(e) = walk_one(input, ctx.seed, &mut trace, &mut walk) {
                tally.fail(format!("{}: layer walk: {e}", input.name));
            }
        }
        walks.push(walk);
    }
    let mut probing = Probing {
        ctx,
        tally: &mut tally,
        trace: &mut trace,
        probe: Probe::default(),
    };
    if let Err(e) = persistence_probe(&inputs, &mut probing) {
        probing
            .tally
            .check(false, || format!("persistence probe: {e}"));
    }
    if let Err(e) = command_probe(&inputs, &mut probing) {
        probing.tally.check(false, || format!("command probe: {e}"));
    }
    if let Err(e) = transport_probe(&inputs, &mut probing) {
        probing
            .tally
            .check(false, || format!("transport probe: {e}"));
    }
    let fleet = fleet_probe(&mut probing).unwrap_or_else(|e| {
        probing.tally.check(false, || format!("fleet probe: {e}"));
        FleetProbe::default()
    });
    let probe = probing.probe;
    trace
        .write(trace_file)
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;

    let over = |f: &dyn Fn(&Walk) -> f64| median(&walks.iter().map(f).collect::<Vec<_>>());
    let exact = |f: &dyn Fn(&Walk) -> u64, what: &str, tally: &mut Tally| {
        let first = f(&walks[0]);
        tally.check(walks.iter().all(|w| f(w) == first), || {
            format!("{what} differs between passes of the same run")
        });
        first as f64
    };
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("ir.parse_s", over(&|w| w.parse_s));
    m.insert("ir.sema_s", over(&|w| w.sema_s));
    m.insert("ir.lines", exact(&|w| w.lines, "ir.lines", &mut tally));
    m.insert(
        "ir.lines_per_s",
        over(&|w| w.lines as f64 / (w.parse_s + w.sema_s)),
    );
    m.insert("ir.stmts", exact(&|w| w.stmts, "ir.stmts", &mut tally));
    m.insert("ir.loops", exact(&|w| w.loops, "ir.loops", &mut tally));
    let quick_rejects =
        |w: &Walk| w.poly.gcd_rejects + w.poly.interval_rejects + w.poly.subscript_rejects;
    m.insert(
        "poly.fm_runs",
        exact(&|w| w.poly.fm_runs, "poly.fm_runs", &mut tally),
    );
    m.insert(
        "poly.quick_rejects",
        exact(&quick_rejects, "poly.quick_rejects", &mut tally),
    );
    m.insert(
        "poly.quick_sats",
        exact(&|w| w.poly.quick_sats, "poly.quick_sats", &mut tally),
    );
    m.insert(
        "poly.approximations",
        exact(
            &|w| w.poly.approximations,
            "poly.approximations",
            &mut tally,
        ),
    );
    let settled = (quick_rejects(&walks[0]) + walks[0].poly.quick_sats) as f64;
    m.insert(
        "poly.no_fm_ratio",
        settled / (settled + walks[0].poly.fm_runs as f64),
    );
    m.insert("analysis.analyze_s", over(&|w| w.analyze_s));
    m.insert("analysis.summarize_s", over(&|w| w.summarize_s));
    m.insert("analysis.liveness_s", over(&|w| w.liveness_s));
    m.insert("analysis.classify_s", over(&|w| w.classify_s));
    m.insert(
        "analysis.facts_computed",
        exact(&|w| w.facts_computed, "analysis.facts_computed", &mut tally),
    );
    m.insert(
        "analysis.facts_reused",
        exact(&|w| w.facts_reused, "analysis.facts_reused", &mut tally),
    );
    m.insert("analysis.reanalyze_s", over(&|w| w.reanalyze_s));
    m.insert("analysis.assert_replay_s", over(&|w| w.assert_replay_s));
    m.insert(
        "analysis.assert_replay_facts",
        exact(
            &|w| w.assert_replay_facts,
            "analysis.assert_replay_facts",
            &mut tally,
        ),
    );
    m.insert("analysis.tier_hit_ratio", fleet.tier_hit_ratio);
    m.insert("analysis.tier_resident_mb", fleet.tier_resident_mb);
    m.insert("dynamic.plain_run_s", over(&|w| w.plain_s));
    m.insert("dynamic.profile_run_s", over(&|w| w.profile_s));
    m.insert("dynamic.dyndep_run_s", over(&|w| w.dyndep_s));
    m.insert("dynamic.ops", exact(&|w| w.ops, "dynamic.ops", &mut tally));
    m.insert(
        "dynamic.mops_per_s",
        over(&|w| w.ops as f64 / w.plain_s / 1e6),
    );
    m.insert(
        "dynamic.hook_overhead_x",
        over(&|w| (w.profile_s + w.dyndep_s) / (2.0 * w.plain_s)),
    );
    let per_schedule = |w: &Walk| w.certify_s / w.certify_schedules as f64;
    m.insert("dynamic.certify_schedule_s", over(&per_schedule));
    // One schedule re-runs the whole program: compare it with the plain
    // run of the same programs, averaged over them.
    m.insert(
        "dynamic.certify_overhead_x",
        over(&|w| per_schedule(w) / (w.twin_plain_s / inputs.len() as f64)),
    );
    m.insert("core.explorer_open_s", over(&|w| w.explorer_open_s));
    m.insert(
        "core.open_self_s",
        over(&|w| w.explorer_open_s - (w.analyze_s + w.profile_s + w.dyndep_s)),
    );
    m.insert(
        "core.dynamic_share",
        over(&|w| (w.profile_s + w.dyndep_s) / w.explorer_open_s),
    );
    m.insert("core.guru_s", over(&|w| w.guru_s));
    m.insert("slicing.first_slice_s", over(&|w| w.first_slice_s));
    m.insert("slicing.slice_s", over(&|w| median(&w.slice_s)));
    m.insert(
        "slicing.slice_lines",
        exact(&|w| w.slice_lines, "slicing.slice_lines", &mut tally),
    );
    m.insert("parallel.plan_build_s", over(&|w| w.plan_build_s));
    m.insert(
        "parallel.certified_loops",
        exact(&|w| w.certified, "parallel.certified_loops", &mut tally),
    );
    m.insert(
        "parallel.refuted_loops",
        exact(&|w| w.refuted, "parallel.refuted_loops", &mut tally),
    );
    for cmd in COMMANDS {
        let samples = probe.cmd_ms.get(cmd).map(Vec::as_slice).unwrap_or(&[]);
        m.insert(listed(&format!("server.cmd_ms.{cmd}.p50")), median(samples));
        m.insert(
            listed(&format!("server.cmd_ms.{cmd}.p90")),
            quantile(samples, 0.9),
        );
    }
    m.insert("server.session_open_s", over(&|w| w.session_open_s));
    m.insert(
        "server.open_transport_ms",
        probe.tcp_twin_open_ms - over(&|w| w.twin_open_s) * 1e3,
    );
    m.insert("server.dispatch_us", over(&|w| median(&w.dispatch_us)));
    m.insert("server.rtt_floor_us", median(&probe.rtt_floor_us));
    m.insert(
        "server.reply_bytes_per_cmd",
        probe.reply_bytes as f64 / probe.requests.max(1) as f64,
    );
    m.insert("server.snapshot_load_s", probe.snapshot_load_s);
    m.insert("server.snapshot_save_s", probe.snapshot_save_s);
    m.insert("server.snapshot_bytes", probe.snapshot_bytes);
    m.insert("server.log_append_bytes", probe.log_append_bytes);
    m.insert(
        "server.wakeups_per_cmd",
        probe.wakeups as f64 / probe.counted_cmds.max(1) as f64,
    );
    m.insert(
        "server.jobs_per_cmd",
        probe.jobs as f64 / probe.counted_cmds.max(1) as f64,
    );
    m.insert("server.fleet_batch_first_s", fleet.first_s);
    m.insert("server.fleet_batch_last_s", fleet.last_s);
    m.insert("server.fleet_slowdown_x", fleet.last_s / fleet.first_s);
    // Do the layers account for the client's wait?  Per program, the spans
    // that make up an open over the TCP `load` + `guru` of the same run;
    // the metric is the least covered program.
    let coverage: Vec<f64> = walks[walks.len() - 1]
        .open_layers_s
        .iter()
        .zip(&probe.tcp_open_ms)
        .map(|(layers, tcp)| layers * 1e3 / tcp)
        .collect();
    m.insert(
        "trace_coverage",
        coverage.iter().copied().fold(f64::INFINITY, f64::min),
    );

    let mut rows = Vec::new();
    let mut row = |name: String, value: f64, unit: &'static str, samples: usize| {
        rows.push(Row {
            name,
            value,
            unit,
            samples,
        })
    };
    if inputs.len() <= 16 {
        for ((input, c), tcp) in inputs.iter().zip(&coverage).zip(&probe.tcp_open_ms) {
            row(format!("trace_coverage.{}", input.name), *c, "ratio", 1);
            row(format!("tcp_open_ms.{}", input.name), *tcp, "ms", 1);
        }
    }
    for (name, count, total, own) in trace.by_name() {
        row(format!("span.{name}.total_s"), total, "s", count);
        row(format!("span.{name}.self_s"), own, "s", count);
    }
    // Every metric with the number of samples behind it: round trips for a
    // command's percentiles, one reading for what a probe read off a
    // reply, passes of the walk for the rest.
    for (name, unit, _) in PER_LAYER {
        let samples = match name.strip_prefix("server.cmd_ms.") {
            Some(rest) => {
                let cmd = rest.split('.').next().unwrap_or_default();
                probe.cmd_ms.get(cmd).map_or(0, Vec::len)
            }
            None if *name == "server.rtt_floor_us" => probe.rtt_floor_us.len(),
            None if name.starts_with("server.snapshot_")
                || name.starts_with("server.fleet_")
                || name.starts_with("analysis.tier_")
                || name.ends_with("_per_cmd")
                || matches!(*name, "server.log_append_bytes" | "trace_coverage") =>
            {
                1
            }
            None => walks.len(),
        };
        row(name.to_string(), m[name], unit, samples);
    }
    Ok(Outcome {
        tally,
        metrics: m,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let spec = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let listed: Vec<(String, String, String)> = spec
            .get("per_layer")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(listed, ours);
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workloads::WORKLOADS
            .iter()
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(workloads, ours);
    }
}
