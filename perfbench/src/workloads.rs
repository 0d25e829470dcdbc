//! The five workloads, each a closed loop from this thread over one TCP
//! connection at a time to a child daemon.
//!
//! Every workload is a sequence of *episodes*.  An episode sets up from
//! nothing — inputs generated from the seed, a fresh daemon, sessions
//! opened where the workload needs them — and each such set-up is one
//! `setup_s` sample; then it runs the workload's timed requests.  Episodes
//! repeat until the timed round trips add up to `--seconds`.  Timed values
//! are sums of request round trips, so the client's own checking of a
//! reply is never in them, and every one is scaled by the host's speed at
//! that moment (see [`crate::yardstick`]).
//!
//! Each workload reports two timings.  `cold_ms` is the request that has
//! to do the work: the first open, the reload of an edited program, the
//! first analysis of a suite or fleet, the certification of every loop.
//! `warm_ms` is the request that should find the work done: the open after
//! a restart, the query script on resident state, the same suite or fleet
//! again, the certification of one named loop.

use crate::daemon::{Client, DaemonProc, DaemonSpec, Exit, Tally, TempDir};
use crate::inputs::{self, ADVISORY, ANALYZE, CODEVIEW, GURU, QUIT};
use crate::json::Json;
use crate::reference::{self, Reference, ReportsDigest};
use crate::stats::{geomean, median, quantile};
use crate::yardstick;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use suif_benchmarks::{BenchProgram, Scale};

/// (name, why) of every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "ch4_open",
        "the user's first wait: load to ranked Guru list on a fresh daemon, then on a restarted one over its snapshot; two interpreter runs dominate, persistence is read beside written",
    ),
    (
        "ch4_interactive",
        "the paper's guru/slice/assert loop: reload of a one-procedure edit, then the query script on resident state; incremental replay, slicing and transport do the work, the interpreter only in reload",
    ),
    (
        "suite_static",
        "13 multi-procedure applications through one corpus command, twice: interprocedural summarize/liveness/classify and the polyhedral kernel do the work, the interpreter none",
    ),
    (
        "gen_fleet",
        "3000 tiny generated programs cold then warm: parsing, fact-store and tier bookkeeping and reply serialization on top instead of the analyses; where tier growth and memory show",
    ),
    (
        "ch4_certify",
        "race certification under adversarial schedules: the interpreter's token-gated logical threads do all the work and the static layers should not move it",
    ),
];

/// What a run is given.
pub struct Ctx<'a> {
    pub daemon_bin: &'a Path,
    pub work: &'a Path,
    pub seed: u64,
    pub seconds: f64,
    pub reference: &'a Reference,
}

/// One printed line of the report: a named value with its unit and the
/// number of samples behind it.
pub struct Row {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// What one untraced run measured.
pub struct Outcome {
    pub tally: Tally,
    pub setup_s: f64,
    /// `cold_ms` and `warm_ms`, each with the name of the row it is: what
    /// the timing is called in this workload.
    pub cold: Timing,
    pub warm: Timing,
    pub peak_rss_mb: f64,
    /// Every value with its sample count: the timings under the workload's
    /// names, the per-application rows behind them, and supporting rows.
    pub rows: Vec<Row>,
}

/// (the workload's name for the timing, milliseconds)
pub type Timing = (&'static str, f64);

/// Samples of one timing, one list per application.
type PerApp = Vec<(&'static str, Vec<f64>)>;

fn per_app(apps: &[BenchProgram]) -> PerApp {
    apps.iter().map(|b| (b.name, Vec::new())).collect()
}

/// State every workload threads through its episodes.
struct Run<'a> {
    ctx: &'a Ctx<'a>,
    tally: Tally,
    started: Instant,
    setup_s: Vec<f64>,
    /// Sum of every timed round trip so far, as the clock read it: what
    /// `--seconds` bounds.
    measured_ms: f64,
    /// Every yardstick run so far, ms.
    yardstick_ms: Vec<f64>,
    /// `REFERENCE_MS` over the yardstick's median at the last calibration:
    /// what a timing taken now is multiplied by.
    scale: f64,
    peak_rss_mb: f64,
    /// Daemons that had answered `shutdown` but were still running after
    /// [`EXIT_GRACE`] and were killed.
    lingered: usize,
    daemons: usize,
    rows: Vec<Row>,
}

impl<'a> Run<'a> {
    fn measured_secs(&self) -> f64 {
        self.measured_ms / 1e3
    }

    fn time_left(&self) -> bool {
        self.measured_secs() < self.ctx.seconds
    }

    /// Time the yardstick; timings taken from now on are scaled by what
    /// it says about the host's speed.
    fn calibrate(&mut self) {
        let runs: Vec<f64> = (0..yardstick::RUNS).map(|_| yardstick::run_ms()).collect();
        self.scale = yardstick::REFERENCE_MS / median(&runs);
        self.yardstick_ms.extend(runs);
    }

    /// Run one episode's set-up, calibrate for the measurements that
    /// follow, and record how long both took: the calibration is what the
    /// episode does last before it measures.
    fn setup<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T, String>) -> Result<T, String> {
        let t0 = Instant::now();
        let out = f(self);
        self.calibrate();
        self.setup_s.push(t0.elapsed().as_secs_f64() * self.scale);
        out
    }

    fn spawn(
        &mut self,
        persist_dir: Option<&Path>,
        certify_seed: Option<u64>,
    ) -> Result<DaemonProc, String> {
        self.tally.attempted += 1;
        self.daemons += 1;
        DaemonProc::spawn(&DaemonSpec {
            bin: self.ctx.daemon_bin,
            persist_dir,
            certify_seed,
            // Only the certifying daemon: see `ch4_certify`.
            one_cpu: certify_seed.is_some(),
        })
    }

    fn connect(&mut self, daemon: &DaemonProc) -> Result<Client, String> {
        Client::connect(daemon.addr, &mut self.tally).ok_or_else(|| "connect failed".into())
    }

    /// A timed request: its round trip, scaled, is added to `ms`; unscaled,
    /// to the run's measured time.
    fn timed(&mut self, client: &mut Client, line: &str, ms: &mut f64) -> Option<Json> {
        let reply = client.request(line, &mut self.tally);
        let rtt = client.last_rtt.as_secs_f64() * 1e3;
        *ms += rtt * self.scale;
        self.measured_ms += rtt;
        reply
    }

    /// Record the daemon's peak memory, then stop it through `client`.
    fn stop(&mut self, daemon: DaemonProc, client: Client) {
        match daemon.peak_rss_mb() {
            Some(mb) => self.peak_rss_mb = self.peak_rss_mb.max(mb),
            None => self.tally.check(false, || "no VmHWM for the daemon".into()),
        }
        if daemon.shutdown(client, &mut self.tally) == Exit::Killed {
            self.lingered += 1;
        }
    }

    fn row(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.rows.push(Row {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// The median of `samples` as a timing called `name`, printed.
    fn median_of(&mut self, name: &'static str, samples: &[f64]) -> Timing {
        let value = median(samples);
        self.row(name, value, "ms", samples.len());
        (name, value)
    }

    /// Fold per-application samples into the headline — the geometric mean
    /// over applications of each one's median — and print both.
    fn fold(&mut self, name: &'static str, samples: &PerApp) -> Timing {
        let medians: Vec<f64> = samples.iter().map(|(_, v)| median(v)).collect();
        let total = samples.iter().map(|(_, v)| v.len()).sum();
        let headline = geomean(&medians);
        self.row(name, headline, "ms", total);
        for ((app, v), m) in samples.iter().zip(&medians) {
            self.row(format!("{name}.{app}"), *m, "ms", v.len());
        }
        (name, headline)
    }
}

/// Run one workload with tracing off.
pub fn run(name: &str, ctx: &Ctx<'_>) -> Result<Outcome, String> {
    let mut run = Run {
        ctx,
        tally: Tally::default(),
        started: Instant::now(),
        setup_s: Vec::new(),
        measured_ms: 0.0,
        yardstick_ms: Vec::new(),
        scale: 1.0,
        peak_rss_mb: 0.0,
        lingered: 0,
        daemons: 0,
        rows: Vec::new(),
    };
    let timings = match name {
        "ch4_open" => ch4_open(&mut run),
        "ch4_interactive" => ch4_interactive(&mut run),
        "suite_static" => suite_static(&mut run),
        "gen_fleet" => gen_fleet(&mut run),
        "ch4_certify" => ch4_certify(&mut run),
        other => return Err(format!("unknown workload `{other}`")),
    };
    let [cold, warm] = timings.unwrap_or_else(|fatal| {
        run.tally.check(false, || fatal);
        [("unmeasured", f64::NAN); 2]
    });
    let setup_s = median(&run.setup_s);
    let episodes = run.setup_s.len();
    run.row("setup_s", setup_s, "s", episodes);
    let (peak, daemons) = (run.peak_rss_mb, run.daemons);
    run.row("peak_rss_mb", peak, "MB", daemons);
    run.row(
        "daemons_killed_after_shutdown",
        run.lingered as f64,
        "count",
        daemons,
    );
    let yard = median(&run.yardstick_ms);
    run.row("yardstick_ms", yard, "ms", run.yardstick_ms.len());
    run.row("timings_scaled_by", yardstick::REFERENCE_MS / yard, "x", 1);
    run.row("measured_s", run.measured_secs(), "s", 1);
    run.row("wall_s", run.started.elapsed().as_secs_f64(), "s", 1);
    Ok(Outcome {
        tally: run.tally,
        setup_s,
        cold,
        warm,
        peak_rss_mb: peak,
        rows: run.rows,
    })
}

/// Check a reply's parallel-loop set against the reference.
fn check_parallel(
    tally: &mut Tally,
    app: &str,
    when: &str,
    reply: &Json,
    want: &std::collections::BTreeSet<String>,
) {
    let got = reference::parallel_set(reply);
    tally.check(&got == want, || {
        format!("{app}: parallel loops {when}: got {got:?}, reference {want:?}")
    });
}

fn check_guru(tally: &mut Tally, app: &str, reply: &Json, want: &[String]) {
    let got = reference::guru_order(reply);
    tally.check(got == want, || {
        format!("{app}: guru order: got {got:?}, reference {want:?}")
    });
}

// ---- ch4_open -------------------------------------------------------------

/// Per episode, one application: a fresh daemon over an empty persist
/// directory answers `load` then `guru` (cold); it is shut down, a second
/// daemon starts over the same directory and answers the same two (warm).
/// A fresh process per sample, because the emptiness memo is process-wide.
fn ch4_open(run: &mut Run<'_>) -> Result<[Timing; 2], String> {
    let names = inputs::ch4(Scale::Bench);
    let (mut cold, mut warm) = (per_app(&names), per_app(&names));
    // The seed picks the application that goes first.  Every application is
    // opened at least twice, so each median has a repeat behind it even if
    // `--seconds` is short.
    let first = (run.ctx.seed % names.len() as u64) as usize;
    let mut episode = first;
    while run.time_left() || episode < first + 2 * names.len() {
        let which = episode % names.len();
        episode += 1;
        let (dir, bench, load, daemon, mut client) = run.setup(|run| {
            let bench = inputs::ch4(Scale::Bench).swap_remove(which);
            let load = inputs::text_request("load", &bench.source);
            let dir = TempDir::create(run.ctx.work, &format!("open-{}", bench.name))?;
            let daemon = run.spawn(Some(dir.path()), None)?;
            let client = run.connect(&daemon)?;
            Ok((dir, bench, load, daemon, client))
        })?;
        let expect = run.ctx.reference.app(bench.name);

        let mut ms = 0.0;
        let opened = run.timed(&mut client, &load, &mut ms);
        let cold_guru = run.timed(&mut client, GURU, &mut ms);
        cold[which].1.push(ms);
        if let Some(reply) = &opened {
            let status = snapshot_status(reply);
            run.tally.check(status == "none", || {
                format!("{}: cold open found a snapshot ({status})", bench.name)
            });
        }
        if let Some(guru) = &cold_guru {
            check_guru(&mut run.tally, bench.name, guru, &expect.guru);
        }
        if let Some(verdicts) = client.request(ANALYZE, &mut run.tally) {
            let want = &expect.parallel_before;
            check_parallel(&mut run.tally, bench.name, "on open", &verdicts, want);
        }
        run.stop(daemon, client);

        let (daemon, mut client) = run.setup(|run| {
            let daemon = run.spawn(Some(dir.path()), None)?;
            let client = run.connect(&daemon)?;
            Ok((daemon, client))
        })?;
        let mut ms = 0.0;
        let opened = run.timed(&mut client, &load, &mut ms);
        let warm_guru = run.timed(&mut client, GURU, &mut ms);
        warm[which].1.push(ms);
        if let Some(reply) = &opened {
            let status = snapshot_status(reply);
            run.tally.check(status == "loaded", || {
                format!(
                    "{}: warm open did not load the snapshot ({status})",
                    bench.name
                )
            });
        }
        if let (Some(c), Some(w)) = (&cold_guru, &warm_guru) {
            let same = reference::guru_core(c) == reference::guru_core(w);
            run.tally.check(same, || {
                format!("{}: warm guru differs from cold guru", bench.name)
            });
        }
        run.stop(daemon, client);
    }
    Ok([
        run.fold("open_cold_ms", &cold),
        run.fold("open_warm_ms", &warm),
    ])
}

fn snapshot_status(load_reply: &Json) -> &str {
    load_reply
        .get("snapshot")
        .and_then(|s| s.get("status"))
        .and_then(Json::as_str)
        .unwrap_or("missing")
}

// ---- ch4_interactive ------------------------------------------------------

/// How many times the script repeats its block of read-only queries.
const QUERY_REPEATS: usize = 8;
/// Guru targets sliced per round.
const SLICE_TARGETS: usize = 4;
/// Rounds per episode.  Fixed, so that what a daemon has been through when
/// its peak memory is read does not depend on how fast the machine is:
/// every edit leaves its facts in the daemon's caches.
const ROUNDS_PER_EPISODE: usize = 2;

/// Round-trip samples per command, for the `cmd_ms.*` rows.
#[derive(Default)]
struct CmdSamples(BTreeMap<&'static str, Vec<f64>>);

impl CmdSamples {
    fn request(
        &mut self,
        cmd: &'static str,
        run: &mut Run<'_>,
        client: &mut Client,
        line: &str,
        script_ms: &mut f64,
    ) -> Option<Json> {
        let mut ms = 0.0;
        let reply = run.timed(client, line, &mut ms);
        self.0.entry(cmd).or_default().push(ms);
        *script_ms += ms;
        reply
    }
}

/// Per episode: one daemon, one session per application opened untimed.
/// Then rounds over the applications; a round reloads the session with a
/// one-procedure edit and replays the user's script — `guru`, `slice` on
/// the top targets, every assertion of the case study, and the read-only
/// queries.  `reload` resets assertions, so every round does the same work.
/// Every round's edit is a literal no earlier round carried: going back to
/// a text the daemon has seen is answered from its caches and summarizes
/// nothing, which is not what a user's edit does.
fn ch4_interactive(run: &mut Run<'_>) -> Result<[Timing; 2], String> {
    let names = inputs::ch4(Scale::Bench);
    let (mut reload_ms, mut script_ms) = (per_app(&names), per_app(&names));
    let mut cmds = CmdSamples::default();
    // What each (application, loop) sliced to the first time; later rounds
    // must get the same lines, whichever literal the edit carries.
    let mut first_slice: BTreeMap<(usize, String), Json> = BTreeMap::new();
    let mut round = 0u64;
    while run.time_left() || round < 2 * ROUNDS_PER_EPISODE as u64 {
        let (apps, daemon, mut sessions) = run.setup(|run| {
            let apps = inputs::ch4(Scale::Bench);
            let daemon = run.spawn(None, None)?;
            let mut sessions = Vec::new();
            for bench in &apps {
                let mut client = run.connect(&daemon)?;
                client.request(&inputs::text_request("load", &bench.source), &mut run.tally);
                client.request(GURU, &mut run.tally);
                sessions.push(client);
            }
            Ok((apps, daemon, sessions))
        })?;
        for _ in 0..ROUNDS_PER_EPISODE {
            round += 1;
            for (which, bench) in apps.iter().enumerate() {
                let client = &mut sessions[which];
                let expect = run.ctx.reference.app(bench.name);
                let text = inputs::edited(bench, run.ctx.seed, round)?;
                run.calibrate();
                let mut ms = 0.0;
                let reply = cmds.request(
                    "reload",
                    run,
                    client,
                    &inputs::text_request("reload", &text),
                    &mut ms,
                );
                reload_ms[which].1.push(ms);
                if let Some(stats) = &reply {
                    let count = |k| stats.get(k).and_then(Json::as_i64).unwrap_or(-1);
                    let (summarized, procs) = (count("summarized"), count("procs"));
                    run.tally.check(0 < summarized && summarized < procs, || {
                        format!(
                            "{}: reload summarized {summarized} of {procs} procedures",
                            bench.name
                        )
                    });
                }

                let mut ms = 0.0;
                let guru = cmds.request("guru", run, client, GURU, &mut ms);
                let targets = guru.as_ref().map(reference::guru_order).unwrap_or_default();
                if let Some(guru) = &guru {
                    check_guru(&mut run.tally, bench.name, guru, &expect.guru);
                }
                for target in targets.iter().take(SLICE_TARGETS) {
                    let line = inputs::slice_request(target);
                    let reply = cmds.request("slice", run, client, &line, &mut ms);
                    if let Some(reply) = reply {
                        let lines = reply.get("lines").cloned().unwrap_or(Json::Null);
                        let first = first_slice
                            .entry((which, target.clone()))
                            .or_insert_with(|| lines.clone());
                        run.tally.check(*first == lines, || {
                            format!("{}: slice of {target} changed between rounds", bench.name)
                        });
                    }
                }
                let mut asserted = None;
                for a in &bench.assertions {
                    let line = inputs::assert_request(&a.loop_name, &a.var, a.privatize);
                    asserted = cmds.request("assert", run, client, &line, &mut ms);
                    if let Some(reply) = &asserted {
                        let verdict = reply.get("assertion").and_then(Json::as_str);
                        run.tally.check(verdict == Some("consistent"), || {
                            format!(
                                "{}: assert {}:{} answered {verdict:?}",
                                bench.name, a.loop_name, a.var
                            )
                        });
                    }
                }
                if let Some(reply) = &asserted {
                    let want = &expect.parallel_after;
                    check_parallel(&mut run.tally, bench.name, "after assertions", reply, want);
                }
                for _ in 0..QUERY_REPEATS {
                    let verdicts = cmds.request("analyze", run, client, ANALYZE, &mut ms);
                    if let Some(reply) = &verdicts {
                        let want = &expect.parallel_after;
                        check_parallel(&mut run.tally, bench.name, "on analyze", reply, want);
                    }
                    cmds.request("guru", run, client, GURU, &mut ms);
                    cmds.request("advisory", run, client, ADVISORY, &mut ms);
                    cmds.request("codeview", run, client, CODEVIEW, &mut ms);
                }
                script_ms[which].1.push(ms);
            }
        }
        let last = sessions.pop().expect("one session per application");
        for mut client in sessions {
            client.request(QUIT, &mut run.tally);
        }
        run.stop(daemon, last);
    }
    let headline = [
        run.fold("reload_ms", &reload_ms),
        run.fold("script_ms", &script_ms),
    ];
    for (cmd, samples) in &cmds.0 {
        if matches!(*cmd, "assert" | "slice") {
            run.row(
                format!("{cmd}_p50_ms"),
                median(samples),
                "ms",
                samples.len(),
            );
        }
        run.row(
            format!("cmd_ms.{cmd}.p50"),
            median(samples),
            "ms",
            samples.len(),
        );
        run.row(
            format!("cmd_ms.{cmd}.p90"),
            quantile(samples, 0.9),
            "ms",
            samples.len(),
        );
    }
    Ok(headline)
}

// ---- suite_static ---------------------------------------------------------

/// Per episode: a fresh daemon answers one `corpus` command carrying all
/// 13 applications (cold: every fact computed and published to the tier),
/// then the same command again (warm: every fact read back from it).
fn suite_static(run: &mut Run<'_>) -> Result<[Timing; 2], String> {
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    while run.time_left() || cold.len() < 2 {
        let (request, daemon, mut client) = run.setup(|run| {
            let mut programs = inputs::suite(Scale::Test);
            let n = programs.len();
            programs.rotate_left(run.ctx.seed as usize % n);
            let request = inputs::corpus_request(&programs);
            let daemon = run.spawn(None, None)?;
            let client = run.connect(&daemon)?;
            Ok((request, daemon, client))
        })?;
        let mut digests = Vec::new();
        for samples in [&mut cold, &mut warm] {
            let mut ms = 0.0;
            if let Some(reply) = run.timed(&mut client, &request, &mut ms) {
                samples.push(ms);
                digests.push(corpus_digest(&mut run.tally, &reply, 13));
            }
        }
        if let [first, second] = &digests[..] {
            let want = &run.ctx.reference.suite_digest;
            run.tally.check(first == want, || {
                format!("suite reports digest {first}, reference {want}")
            });
            run.tally.check(first == second, || {
                "warm suite reports differ from cold".into()
            });
        }
        run.stop(daemon, client);
    }
    Ok([
        run.median_of("static_cold_ms", &cold),
        run.median_of("static_warm_ms", &warm),
    ])
}

/// Digest of one `corpus` reply's reports, checking that it holds
/// `programs` reports and that its summary counts no error.
fn corpus_digest(tally: &mut Tally, reply: &Json, programs: usize) -> String {
    let mut digest = ReportsDigest::default();
    digest.add(reply);
    let summary = |k| {
        reply
            .get("summary")
            .and_then(|s| s.get(k))
            .and_then(Json::as_i64)
    };
    let (ok, errors) = (summary("ok"), summary("errors"));
    let clean = digest.programs() == programs && ok == Some(programs as i64) && errors == Some(0);
    tally.check(clean, || {
        format!(
            "corpus: {} reports, ok {ok:?}, errors {errors:?}, wanted {programs} clean",
            digest.programs()
        )
    });
    digest.hex()
}

// ---- gen_fleet ------------------------------------------------------------

/// Commands per pass, programs per command, warm passes per episode.
const FLEET_BATCHES: u64 = 6;
const FLEET_BATCH_PROGRAMS: u64 = 500;
const FLEET_WARM_PASSES: usize = 3;

/// The `corpus` command for batch `b` of the fleet at `seed`: the daemon
/// generates the programs itself from the disjoint seed range.
pub fn fleet_request(seed: u64, batch: u64, programs: u64) -> String {
    Json::obj([
        ("cmd", Json::str("corpus")),
        ("gen", Json::int(programs as i64)),
        ("seed_base", Json::int((seed + programs * batch) as i64)),
    ])
    .to_string()
}

/// Per episode: a fresh daemon answers six `corpus` commands over disjoint
/// seed ranges (the cold pass), then the same six again, three times over
/// (the warm passes).
fn gen_fleet(run: &mut Run<'_>) -> Result<[Timing; 2], String> {
    let fleet = (FLEET_BATCHES * FLEET_BATCH_PROGRAMS) as f64;
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    let (mut first_batch, mut last_batch) = (Vec::new(), Vec::new());
    let want = run.ctx.reference.fleet_digest(run.ctx.seed);
    while run.time_left() || cold.len() < 2 {
        let (requests, daemon, mut client) = run.setup(|run| {
            let requests: Vec<String> = (0..FLEET_BATCHES)
                .map(|b| fleet_request(run.ctx.seed, b, FLEET_BATCH_PROGRAMS))
                .collect();
            let daemon = run.spawn(None, None)?;
            let client = run.connect(&daemon)?;
            Ok((requests, daemon, client))
        })?;
        let mut cold_digest = None;
        for pass in 0..=FLEET_WARM_PASSES {
            run.calibrate();
            let mut pass_ms = 0.0;
            let mut digest = ReportsDigest::default();
            for (b, request) in requests.iter().enumerate() {
                let mut ms = 0.0;
                if let Some(reply) = run.timed(&mut client, request, &mut ms) {
                    digest.add(&reply);
                }
                if pass == 0 && b == 0 {
                    first_batch.push(ms);
                } else if pass == 0 && b + 1 == requests.len() {
                    last_batch.push(ms);
                }
                pass_ms += ms;
            }
            let complete = digest.programs() == fleet as usize;
            run.tally.check(complete, || {
                format!(
                    "fleet pass returned {} of {fleet} reports",
                    digest.programs()
                )
            });
            let digest = digest.hex();
            if pass == 0 {
                cold.push(pass_ms);
                match want {
                    Some(want) => run.tally.check(digest == want, || {
                        format!("fleet reports digest {digest}, reference {want}")
                    }),
                    None if cold.len() == 1 => println!(
                        "note: no reference digest for seed {}: digest {digest} is only \
                         checked warm against cold",
                        run.ctx.seed
                    ),
                    None => {}
                }
                cold_digest = Some(digest);
            } else {
                warm.push(pass_ms);
                run.tally.check(cold_digest.as_ref() == Some(&digest), || {
                    "warm fleet reports differ from cold".into()
                });
            }
        }
        run.stop(daemon, client);
    }
    let headline = [
        run.median_of("fleet_cold_ms", &cold),
        run.median_of("fleet_warm_ms", &warm),
    ];
    run.row(
        "fleet_cold_pps",
        fleet * 1e3 / headline[0].1,
        "1/s",
        cold.len(),
    );
    run.row(
        "fleet_warm_pps",
        fleet * 1e3 / headline[1].1,
        "1/s",
        warm.len(),
    );
    let (first, last) = (median(&first_batch), median(&last_batch));
    run.row("fleet_batch_first_ms", first, "ms", first_batch.len());
    run.row("fleet_batch_last_ms", last, "ms", last_batch.len());
    run.row("fleet_slowdown_x", last / first, "x", last_batch.len());
    Ok(headline)
}

// ---- ch4_certify ----------------------------------------------------------

/// Adversarial schedules per loop.  Schedule `s` runs under seed + s and
/// the seed's low bit picks the scheduler (priority-based or random walk),
/// so an even count runs both kinds whatever `--seed` is.  Two and not
/// four: four halve the repeats a run has time for and, tried, did not
/// make ten seeds agree any better (15 % against 14 %).
const SCHEDULES: i64 = 2;

/// Per episode, one application at `Scale::Test`: a fresh daemon started
/// with `--certify-seed <seed>` and a fresh session answer `certify` of
/// every loop (cold), then `certify` of the one loop the case study's
/// first assertion is about (warm).
///
/// This daemon runs confined to one CPU.  Certification serializes its
/// logical threads behind a token, so it loses nothing; with two CPUs the
/// same request takes 0.5 s or 1.6 s depending on where the kernel wakes
/// each next token holder, a choice that sticks for many requests, and a
/// timing with two modes a factor of three apart measures nothing.
fn ch4_certify(run: &mut Run<'_>) -> Result<[Timing; 2], String> {
    let names = inputs::ch4(Scale::Test);
    let (mut all_ms, mut one_ms) = (per_app(&names), per_app(&names));
    let (mut schedules, mut secs) = (0i64, 0.0);
    let first = (run.ctx.seed % names.len() as u64) as usize;
    let mut episode = first;
    while run.time_left() || episode < first + 2 * names.len() {
        let which = episode % names.len();
        episode += 1;
        let (bench, daemon, mut client) = run.setup(|run| {
            let bench = inputs::ch4(Scale::Test).swap_remove(which);
            let daemon = run.spawn(None, Some(run.ctx.seed))?;
            let mut client = run.connect(&daemon)?;
            client.request(&inputs::text_request("load", &bench.source), &mut run.tally);
            Ok((bench, daemon, client))
        })?;
        let expect = run.ctx.reference.app(bench.name);
        let every = Json::obj([
            ("cmd", Json::str("certify")),
            ("schedules", Json::int(SCHEDULES)),
        ])
        .to_string();
        let mut ms = 0.0;
        if let Some(reply) = run.timed(&mut client, &every, &mut ms) {
            all_ms[which].1.push(ms);
            secs += ms / 1e3;
            let got = certify_verdicts(&reply);
            run.tally.check(got == expect.certify, || {
                format!(
                    "{}: certify verdicts: got {got:?}, reference {:?}",
                    bench.name, expect.certify
                )
            });
            let echoed = reply.get("seed").and_then(Json::as_i64);
            run.tally.check(echoed == Some(run.ctx.seed as i64), || {
                format!("{}: certify ran under seed {echoed:?}", bench.name)
            });
            schedules += reference::loops_of(&reply)
                .iter()
                .filter_map(|l| l.get("schedules_run").and_then(Json::as_i64))
                .sum::<i64>();
        }
        let target = &bench.assertions[0].loop_name;
        let one = Json::obj([
            ("cmd", Json::str("certify")),
            ("loop", Json::str(target.as_str())),
            ("schedules", Json::int(SCHEDULES)),
        ])
        .to_string();
        let mut ms = 0.0;
        if let Some(reply) = run.timed(&mut client, &one, &mut ms) {
            one_ms[which].1.push(ms);
            let got = certify_verdicts(&reply);
            let want = expect.certify.get(target);
            run.tally
                .check(got.get(target) == want && got.len() == 1, || {
                    format!(
                        "{}: certify of {target}: got {got:?}, reference {want:?}",
                        bench.name
                    )
                });
        }
        run.stop(daemon, client);
    }
    let headline = [
        run.fold("certify_all_ms", &all_ms),
        run.fold("certify_loop_ms", &one_ms),
    ];
    let count = all_ms.iter().map(|(_, v)| v.len()).sum();
    run.row("certify_sps", schedules as f64 / secs, "1/s", count);
    Ok(headline)
}

/// loop → (`parallel` | `serial`, `race_free` | `racy` | `unplannable`) of
/// a `certify` reply, in the reference's words.
fn certify_verdicts(reply: &Json) -> BTreeMap<String, (String, String)> {
    reference::loops_of(reply)
        .iter()
        .filter_map(|l| {
            let flag = |k| l.get(k).and_then(Json::as_bool);
            let name = l.get("loop").and_then(Json::as_str)?;
            let class = if flag("parallel")? {
                "parallel"
            } else {
                "serial"
            };
            let outcome = match (flag("plannable")?, flag("race_free")) {
                (false, _) => "unplannable",
                (true, Some(true)) => "race_free",
                (true, _) => "racy",
            };
            Some((name.to_string(), (class.to_string(), outcome.to_string())))
        })
        .collect()
}
