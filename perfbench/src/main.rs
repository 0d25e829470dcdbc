//! The Explorer's one benchmark.  `run.sh` builds the daemon and this
//! program, then runs
//!
//! ```text
//! perfbench --daemon <suif-explorer> --work <dir> [--commit <id>] \
//!           --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! which prints a report of every metric by name, with unit and sample
//! count, and as the last line of standard output one JSON object
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.  With `--trace 0`
//! the metrics are the end-to-end ones of `BENCHMARK.json`, measured over
//! TCP against the child daemon; with `--trace 1` they are the per-layer
//! ones, measured from this program's own spans around calls into each
//! crate.  `--selfcheck` in place of `--workload … --trace …` runs every
//! workload twice with tracing off and compares the two sets against the
//! bounds of `BENCHMARK.json`.  See `README.md` beside this package.

mod daemon;
mod inputs;
mod json;
mod layers;
mod reference;
mod stats;
mod trace;
mod workloads;
mod yardstick;

use crate::json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The seed a run uses when it is given none; `expected/digests.txt` has a
/// fleet digest for it.
const DEFAULT_SEED: u64 = 1;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 12.0;

enum Mode {
    Workload { name: String, trace: bool },
    Selfcheck,
}

struct Args {
    daemon: PathBuf,
    work: PathBuf,
    commit: String,
    seed: u64,
    seconds: f64,
    mode: Mode,
}

fn parse_args() -> Result<Args, String> {
    let mut daemon = None;
    let mut work = None;
    let mut commit = String::from("unknown");
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut selfcheck = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--daemon" => daemon = Some(PathBuf::from(value()?)),
            "--work" => work = Some(PathBuf::from(value()?)),
            "--commit" => commit = value()?,
            "--workload" => workload = Some(value()?),
            "--seed" => {
                // Seeds are added to (the fleet's seed ranges) and sent as
                // JSON numbers; 2^48 leaves room for both.
                seed = value()?
                    .parse()
                    .ok()
                    .filter(|s| *s < 1 << 48)
                    .ok_or("--seed needs a whole number below 2^48")?
            }
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--selfcheck" => selfcheck = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let mode = match (selfcheck, workload) {
        (true, None) => Mode::Selfcheck,
        (false, Some(name)) => Mode::Workload { name, trace },
        _ => return Err("give either --workload <name> or --selfcheck".into()),
    };
    Ok(Args {
        daemon: daemon.ok_or("--daemon <path to suif-explorer> is required")?,
        work: work.ok_or("--work <scratch directory> is required")?,
        commit,
        seed,
        seconds,
        mode,
    })
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::from(2)
        }
    }
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    let reference = reference::Reference::load()?;
    std::fs::create_dir_all(&args.work).map_err(|e| format!("{}: {e}", args.work.display()))?;
    // Episodes of concurrent runs must not share persist directories.
    let work = daemon::TempDir::create(&args.work, &format!("run-{}", std::process::id()))?;
    let ctx = workloads::Ctx {
        daemon_bin: &args.daemon,
        work: work.path(),
        seed: args.seed,
        seconds: args.seconds,
        reference: &reference,
    };
    println!(
        "# perfbench commit={} cpus={} seed={} seconds={}",
        args.commit,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        args.seed,
        args.seconds,
    );
    match &args.mode {
        Mode::Selfcheck => selfcheck(&ctx),
        Mode::Workload { name, trace } => {
            let trace_file = args.work.join(format!("trace-{name}.json"));
            one_run(name, *trace, &ctx, &trace_file)
        }
    }
}

/// The end-to-end metrics of one untraced run, in `BENCHMARK.json` order.
fn end_to_end(out: &workloads::Outcome) -> [(&'static str, f64, &'static str); 4] {
    [
        ("setup_s", out.setup_s, "s"),
        ("cold_ms", out.cold.1, "ms"),
        ("warm_ms", out.warm.1, "ms"),
        ("peak_rss_mb", out.peak_rss_mb, "MB"),
    ]
}

fn one_run(
    workload: &str,
    trace: bool,
    ctx: &workloads::Ctx<'_>,
    trace_file: &Path,
) -> Result<bool, String> {
    let why = workloads::WORKLOADS
        .iter()
        .find(|(name, _)| *name == workload)
        .map(|(_, why)| *why)
        .ok_or_else(|| format!("unknown workload `{workload}`"))?;
    println!("# workload={workload} trace={}\n# {why}", u8::from(trace));
    let (tally, rows, metrics) = if trace {
        let out = layers::run(workload, ctx, trace_file)?;
        println!("# spans written to {}", trace_file.display());
        let metrics: Vec<(&str, f64, &str)> = layers::PER_LAYER
            .iter()
            .map(|(name, unit, _)| {
                let value = out.metrics.get(name).copied().unwrap_or(f64::NAN);
                (*name, value, *unit)
            })
            .collect();
        (out.tally, out.rows, metrics)
    } else {
        let out = workloads::run(workload, ctx)?;
        println!("# cold_ms is {}, warm_ms is {}", out.cold.0, out.warm.0);
        let metrics = end_to_end(&out).to_vec();
        (out.tally, out.rows, metrics)
    };
    for row in &rows {
        println!(
            "{:<44} {:>16.6} {:<6} n={}",
            row.name, row.value, row.unit, row.samples
        );
    }
    // An end-to-end metric that reads zero was not measured; a layer count
    // may well be zero.
    let measured = metrics
        .iter()
        .all(|(_, v, _)| v.is_finite() && (trace || *v > 0.0));
    let correct = tally.failed == 0 && measured;
    println!(
        "failed_share {} / {} operations",
        tally.failed, tally.attempted
    );
    let metrics = Json::Obj(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                (
                    name.to_string(),
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(*unit))]),
                )
            })
            .collect(),
    );
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::int(tally.attempted as i64)),
            ("failed", Json::int(tally.failed as i64)),
            ("metrics", metrics),
        ])
    );
    Ok(correct)
}

/// Run every workload twice with tracing off on this build and compare the
/// two sets, metric by metric, with the bound `BENCHMARK.json` gives it.
fn selfcheck(ctx: &workloads::Ctx<'_>) -> Result<bool, String> {
    let spec = Json::parse(include_str!("../../BENCHMARK.json"))?;
    let bounds: Vec<(String, f64)> = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();
    let mut all_within = true;
    println!(
        "{:<16} {:<12} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "differ", "bound"
    );
    for (workload, _) in workloads::WORKLOADS {
        let first = workloads::run(workload, ctx)?;
        let second = workloads::run(workload, ctx)?;
        for ((name, a, unit), (_, b, _)) in end_to_end(&first).into_iter().zip(end_to_end(&second))
        {
            let bound = bounds
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, b)| *b)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for `{name}`"))?;
            let differ = (b - a).abs() / a;
            // `differ <= bound` is false for a NaN, as it should be.
            let within = differ <= bound;
            all_within &= within;
            println!(
                "{workload:<16} {name:<12} {a:>14.4} {b:>14.4} {:>8.1}% {:>6.0}% {unit} {}",
                differ * 1e2,
                bound * 1e2,
                if within { "" } else { "OUTSIDE" }
            );
        }
        for (which, out) in [("first", &first), ("second", &second)] {
            if out.tally.failed > 0 {
                all_within = false;
                println!(
                    "{workload}: {which} run failed {} of {} operations",
                    out.tally.failed, out.tally.attempted
                );
            }
        }
    }
    println!(
        "selfcheck: {}",
        if all_within {
            "every metric within its bound"
        } else {
            "FAILED"
        }
    );
    Ok(all_within)
}
