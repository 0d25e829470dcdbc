//! The SUIF Explorer command-line driver.
//!
//! ```text
//! suif-explorer analyze <file.mf>                 # verdicts + guru targets
//! suif-explorer explore <file.mf> [--assert L:V]… # interactive pipeline with assertions
//! suif-explorer slice   <file.mf> <loop>          # slices for a loop's first dependence
//! suif-explorer run     <file.mf> [--threads N] [--input v,…]
//! suif-explorer codeview <file.mf>
//! suif-explorer serve   [--workers N] [--tcp ADDR] [--persist-dir DIR]
//! ```
//!
//! `--assert interf/1000:rl` privatizes `rl` in `interf/1000` after the
//! assertion checker validates it against the dynamic run (§2.8).

use std::io::Write as _;
use std::process::ExitCode;
use suif_analysis::Assertion;
use suif_explorer::{CheckResult, Explorer};
use suif_parallel::{measure_parallel, measure_sequential, ParallelPlans, RuntimeConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> String {
    "usage: suif-explorer <analyze|explore|slice|run|certify|codeview> <file.mf> [options]\n\
     \x20      suif-explorer serve [--workers N] [--tcp ADDR] [--persist-dir DIR]\n\
     \x20                          [--max-sessions N]\n\
     \x20                          [--shared-budget BYTES] [--session-budget BYTES]\n\
     \x20      suif-explorer corpus <dir|manifest> [--gen N] [--seed-base S] [--workers N]\n\
     \x20                          [--shared-budget BYTES] [--session-budget BYTES]\n\
     \x20                          [--max-program-bytes B] [--report FILE] [--inject-panic NAME]\n\
     \x20                          [--persist-dir DIR]\n\
     options:\n\
       --assert LOOP:VAR    privatization assertion (repeatable)\n\
       --threads N          worker threads for `run`\n\
       --input v1,v2,…      `read` input values\n\
       --schedules N        adversarial schedules per loop for `certify`\n\
                            (default 4, at most 64)\n\
       --certify-seed N     base seed for the adversarial scheduler: schedule\n\
                            s of a loop replays deterministically under\n\
                            seed N+s (`certify` and `serve`; default 0)\n\
       --tcp ADDR           serve over TCP instead of stdio (e.g. 127.0.0.1:0);\n\
                            a single reactor thread multiplexes every\n\
                            connection (epoll/poll, no thread per client);\n\
                            each connection gets its own session over the\n\
                            shared fact tier and may pipeline requests or\n\
                            send a `batch` command for in-order replies\n\
       --persist-dir DIR    durable fact snapshots in DIR/facts.snap plus an\n\
                            append-log DIR/facts.snap.log: `serve` sessions\n\
                            warm-start from the last checkpoint after a daemon\n\
                            restart; `corpus` imports the shared tier before\n\
                            the run and exports it after\n\
       --max-sessions N     reject `load`s past N concurrently loaded sessions\n\
                            (serve only; default 0 = unlimited)\n\
       --shared-budget B    byte budget for the process-wide shared fact tier\n\
                            (serve only; default unbounded)\n\
       --session-budget B   byte budget per session's (or corpus program's)\n\
                            private fact overlay (default unbounded)\n\
       --workers N          command-pool workers for `serve` (its only threads\n\
                            besides the reactor), or pool workers for `corpus`\n\
                            (default 0 = one per core, floor 2)\n\
       --gen N              corpus: generate N seeded MiniF programs instead\n\
                            of (or in addition to) reading <dir|manifest>\n\
       --seed-base S        corpus: first seed of the generated range\n\
                            (default 0)\n\
       --max-program-bytes B corpus: reject larger sources with an `oversize`\n\
                            error record before parsing (default 1 MiB)\n\
       --report FILE        corpus: write the JSONL report stream to FILE\n\
                            instead of stdout (summary line last)\n\
       --inject-panic NAME  corpus: fault-injection hook — the named program\n\
                            panics inside the isolation boundary; the run\n\
                            must absorb it as one `panic` error record"
        .to_string()
}

/// `suif-explorer corpus <dir|manifest> [options]`: fleet-analyze a corpus
/// with per-program isolation, streaming JSONL reports (summary last).
/// Per-program failures are error records, not process failures: the exit
/// code is 0 whenever the run itself completes.
fn corpus(args: &[String]) -> Result<(), String> {
    let mut input: Option<String> = None;
    let mut gen = 0usize;
    let mut seed_base = 0u64;
    let mut workers = 0usize;
    let mut shared_budget: Option<usize> = None;
    let mut session_budget: Option<usize> = None;
    let mut max_program_bytes = 0usize;
    let mut report_path: Option<String> = None;
    let mut inject_panic: Option<String> = None;
    let mut persist_dir: Option<std::path::PathBuf> = None;
    let mut i = 1;
    while i < args.len() {
        let num = |flag: &str| -> Result<usize, String> {
            args.get(i + 1)
                .and_then(|s| s.parse().ok())
                .ok_or(format!("{flag} needs a number"))
        };
        match args[i].as_str() {
            "--gen" => {
                gen = num("--gen")?;
                i += 2;
            }
            "--seed-base" => {
                seed_base = num("--seed-base")? as u64;
                i += 2;
            }
            "--workers" => {
                workers = num("--workers")?;
                i += 2;
            }
            "--shared-budget" => {
                shared_budget = Some(num("--shared-budget")?);
                i += 2;
            }
            "--session-budget" => {
                session_budget = Some(num("--session-budget")?);
                i += 2;
            }
            "--max-program-bytes" => {
                max_program_bytes = num("--max-program-bytes")?;
                i += 2;
            }
            "--report" => {
                report_path = Some(args.get(i + 1).ok_or("--report needs a file")?.clone());
                i += 2;
            }
            "--inject-panic" => {
                inject_panic = Some(
                    args.get(i + 1)
                        .ok_or("--inject-panic needs a name")?
                        .clone(),
                );
                i += 2;
            }
            "--persist-dir" => {
                let dir = args.get(i + 1).ok_or("--persist-dir needs a directory")?;
                std::fs::create_dir_all(dir).map_err(|e| format!("--persist-dir {dir}: {e}"))?;
                persist_dir = Some(dir.into());
                i += 2;
            }
            other if !other.starts_with("--") && input.is_none() => {
                input = Some(other.to_string());
                i += 1;
            }
            other => return Err(format!("unknown option `{other}`\n{}", usage())),
        }
    }
    let mut entries = match &input {
        Some(path) => corpus_entries_from_path(std::path::Path::new(path))?,
        None => Vec::new(),
    };
    entries.extend(suif_server::generated_entries(gen, seed_base));
    if entries.is_empty() {
        return Err("corpus needs a <dir|manifest> or --gen N".to_string());
    }

    let tier = std::sync::Arc::new(suif_analysis::SharedFactTier::with_budget(shared_budget));
    // A corrupt image warns (from the directory's owner) and cold-starts.
    let persist = persist_dir.map(suif_analysis::PersistDir::new);
    if let Some(dir) = &persist {
        let n = dir.warm_tier(&tier).warm_hits;
        if n > 0 {
            let path = dir.base_path().display();
            eprintln!("corpus: warm tier — {n} facts from {path}");
        }
    }
    let opts = suif_server::CorpusOptions {
        workers,
        session_budget,
        max_program_bytes,
        inject_panic,
    };
    let mut out: Box<dyn std::io::Write> = match &report_path {
        Some(p) => Box::new(std::io::BufWriter::new(
            std::fs::File::create(p).map_err(|e| format!("--report {p}: {e}"))?,
        )),
        None => Box::new(std::io::stdout().lock()),
    };
    let mut write_err: Option<String> = None;
    let run = suif_server::run_corpus(entries, &opts, &tier, |r| {
        if write_err.is_none() {
            if let Err(e) = writeln!(out, "{}", r.to_json()) {
                write_err = Some(e.to_string());
            }
        }
    });
    if let Some(e) = write_err {
        return Err(format!("report stream: {e}"));
    }
    writeln!(out, "{}", run.summary.to_json(&tier)).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    if let Some(dir) = &persist {
        let path = dir.base_path().display();
        let w = dir
            .checkpoint(|| tier.export(), true)
            .map_err(|e| format!("snapshot {path}: write failed: {e}"))?;
        eprintln!(
            "corpus: persisted {} facts ({} bytes) to {path}",
            w.delta_facts, w.bytes
        );
    }
    eprintln!(
        "corpus: {} programs, {} ok, {} errors, {:.1} programs/sec over {} workers",
        run.summary.programs,
        run.summary.ok,
        run.summary.errors,
        run.summary.programs_per_sec(),
        run.summary.workers,
    );
    Ok(())
}

/// Load corpus entries from a directory of `*.mf` files (sorted by file
/// name) or a plain-text manifest (one path per line, `#` comments;
/// relative paths resolve against the manifest's directory).
fn corpus_entries_from_path(
    path: &std::path::Path,
) -> Result<Vec<suif_server::CorpusEntry>, String> {
    let read_entry = |p: &std::path::Path| -> Result<suif_server::CorpusEntry, String> {
        let name = p
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| p.display().to_string());
        let source = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Ok(suif_server::CorpusEntry { name, source })
    };
    if path.is_dir() {
        let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|d| d.ok().map(|d| d.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "mf"))
            .collect();
        files.sort();
        files.iter().map(|p| read_entry(p)).collect()
    } else {
        let base = path.parent().unwrap_or(std::path::Path::new("."));
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        text.lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| {
                let p = std::path::Path::new(l);
                if p.is_absolute() {
                    read_entry(p)
                } else {
                    read_entry(&base.join(p))
                }
            })
            .collect()
    }
}

fn serve(args: &[String]) -> Result<(), String> {
    let mut tcp: Option<String> = None;
    let mut persist_dir: Option<std::path::PathBuf> = None;
    let mut certify_seed = 0u64;
    let mut max_sessions = 0usize;
    let mut shared_budget: Option<usize> = None;
    let mut session_budget: Option<usize> = None;
    let mut workers = 0usize;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--tcp" => {
                tcp = Some(args.get(i + 1).ok_or("--tcp needs an address")?.clone());
                i += 2;
            }
            "--persist-dir" => {
                let dir = args.get(i + 1).ok_or("--persist-dir needs a directory")?;
                std::fs::create_dir_all(dir).map_err(|e| format!("--persist-dir {dir}: {e}"))?;
                persist_dir = Some(dir.into());
                i += 2;
            }
            "--certify-seed" => {
                certify_seed = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--certify-seed needs a number")?;
                i += 2;
            }
            "--max-sessions" => {
                max_sessions = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--max-sessions needs a number (0 = unlimited)")?;
                i += 2;
            }
            "--shared-budget" => {
                shared_budget = Some(
                    args.get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .ok_or("--shared-budget needs a byte count")?,
                );
                i += 2;
            }
            "--session-budget" => {
                session_budget = Some(
                    args.get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .ok_or("--session-budget needs a byte count")?,
                );
                i += 2;
            }
            "--workers" => {
                workers = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--workers needs a number (0 = one per core)")?;
                i += 2;
            }
            other => return Err(format!("unknown option `{other}`\n{}", usage())),
        }
    }
    let options = suif_server::ServiceOptions {
        persist_dir,
        certify_seed,
        max_sessions,
        shared_budget,
        session_budget,
        workers,
    };
    let res = match tcp {
        Some(addr) => suif_server::serve_tcp_with(&addr, options),
        None => suif_server::serve_stdio_with(options),
    };
    res.map_err(|e| e.to_string())
}

fn run(args: &[String]) -> Result<(), String> {
    if args.first().map(String::as_str) == Some("serve") {
        return serve(args);
    }
    if args.first().map(String::as_str) == Some("corpus") {
        return corpus(args);
    }
    let (cmd, file) = match (args.first(), args.get(1)) {
        (Some(c), Some(f)) => (c.as_str(), f.as_str()),
        _ => return Err(usage()),
    };
    let source = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let program = suif_ir::parse_program(&source).map_err(|e| e.to_string())?;

    let mut assertions = Vec::new();
    let mut threads = 2usize;
    let mut input: Vec<f64> = Vec::new();
    let mut schedules = 4u32;
    let mut certify_seed = 0u64;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--assert" => {
                let spec = args.get(i + 1).ok_or("--assert needs LOOP:VAR")?;
                let (l, v) = spec
                    .split_once(':')
                    .ok_or_else(|| format!("bad assertion `{spec}` (want LOOP:VAR)"))?;
                assertions.push(Assertion::Privatizable {
                    loop_name: l.to_string(),
                    var: v.to_string(),
                });
                i += 2;
            }
            "--threads" => {
                threads = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--threads needs a number")?;
                i += 2;
            }
            "--input" => {
                input = args
                    .get(i + 1)
                    .ok_or("--input needs values")?
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|_| format!("bad input `{s}`")))
                    .collect::<Result<_, _>>()?;
                i += 2;
            }
            "--schedules" => {
                schedules = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .filter(|s| (1..=suif_parallel::MAX_CERTIFY_SCHEDULES).contains(s))
                    .ok_or_else(|| {
                        format!(
                            "--schedules needs a number from 1 to {}",
                            suif_parallel::MAX_CERTIFY_SCHEDULES
                        )
                    })?;
                i += 2;
            }
            "--certify-seed" => {
                certify_seed = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--certify-seed needs a number")?;
                i += 2;
            }
            other if !other.starts_with("--") => {
                // Positional argument (e.g. the loop name of `slice`);
                // consumed by the command branch below.
                i += 1;
            }
            other => return Err(format!("unknown option `{other}`\n{}", usage())),
        }
    }

    match cmd {
        "analyze" | "explore" => {
            let mut ex = Explorer::new(&program, input.clone()).map_err(|e| e.to_string())?;
            for a in assertions {
                let name = match &a {
                    Assertion::Privatizable { loop_name, var }
                    | Assertion::Independent { loop_name, var } => {
                        format!("{loop_name}:{var}")
                    }
                };
                match ex.assert_and_reanalyze(a) {
                    CheckResult::Consistent => println!("assertion {name}: accepted"),
                    CheckResult::Warning(w) => println!("assertion {name}: accepted — {w}"),
                    CheckResult::Contradicted(w) => {
                        println!("assertion {name}: REJECTED — {w}")
                    }
                }
            }
            let guru = ex.guru();
            println!("{}", guru.render());
            println!("loop verdicts:");
            for li in &ex.analysis.ctx.tree.loops {
                let v = &ex.analysis.verdicts[&li.stmt];
                print!(
                    "  {:<20} {}",
                    li.name,
                    if v.is_parallel() {
                        "PARALLEL"
                    } else {
                        "sequential"
                    }
                );
                if let suif_analysis::LoopVerdict::Sequential { deps, .. } = v {
                    let names: Vec<&str> = deps.iter().map(|d| d.name.as_str()).collect();
                    if !names.is_empty() {
                        print!("  deps: {}", names.join(", "));
                    }
                }
                println!();
            }
            println!(
                "\ndecomposition advisory:\n{}",
                suif_analysis::decomp::render_advisory(&ex.analysis)
            );
            Ok(())
        }
        "slice" => {
            let loop_name = args.get(2).ok_or("slice needs a loop name")?;
            let mut ex = Explorer::new(&program, input).map_err(|e| e.to_string())?;
            let li = ex
                .analysis
                .ctx
                .tree
                .loops
                .iter()
                .find(|l| &l.name == loop_name)
                .ok_or_else(|| format!("no loop `{loop_name}`"))?
                .clone();
            let (lines, terms, slices) = ex.slice_view(li.stmt);
            if slices.is_empty() {
                println!("no unresolved dependences in {loop_name}");
                return Ok(());
            }
            println!(
                "{}",
                suif_explorer::source_view(&ex, li.line, li.end_line, &lines, &terms)
            );
            Ok(())
        }
        "run" => {
            let config = suif_analysis::ParallelizeConfig {
                assertions,
                ..Default::default()
            };
            let pa = suif_analysis::Parallelizer::analyze(&program, config);
            let plans = ParallelPlans::from_analysis(&pa);
            let seq = measure_sequential(&program, input.clone()).map_err(|e| e.to_string())?;
            let (par, stats) = measure_parallel(
                &program,
                &plans,
                RuntimeConfig {
                    threads,
                    ..Default::default()
                },
                input,
            )
            .map_err(|e| e.to_string())?;
            for line in &par.output {
                println!("{line}");
            }
            eprintln!(
                "sequential {:?} ({} ops); parallel({threads}) {:?} (simulated {} ops, speedup {:.2}); \
                 {} parallel invocations, {} serial fallbacks",
                seq.elapsed,
                seq.ops,
                par.elapsed,
                par.ops,
                seq.ops as f64 / par.ops.max(1) as f64,
                stats.parallel_invocations.values().sum::<u64>(),
                stats.serial_fallbacks.values().sum::<u64>(),
            );
            if seq.output != par.output {
                // Reassociation explains a difference only where a parallel
                // plan reduces; anywhere else it is a wrong plan, or an
                // assertion that does not hold.
                let reduces = plans.loops.values().any(|p| !p.reductions.is_empty());
                let why = if reduces {
                    " (floating-point reduction reassociation)"
                } else {
                    ""
                };
                eprintln!("note: outputs differ{why}");
            }
            Ok(())
        }
        "certify" => {
            let config = suif_analysis::ParallelizeConfig {
                assertions,
                ..Default::default()
            };
            let pa = suif_analysis::Parallelizer::analyze(&program, config);
            let plans = ParallelPlans::from_analysis(&pa);
            let seq = suif_parallel::capture_sequential(&program, &input);
            if let Some(e) = &seq.error {
                return Err(format!("sequential run failed: {}", e.message));
            }
            let inputs = pa.certify_inputs();
            let planned: Vec<_> = inputs
                .iter()
                .map(|info| plans.plan_for(&program, info))
                .collect();
            let targets: Vec<_> = inputs
                .iter()
                .zip(&planned)
                .filter_map(|(info, plan)| Some((info.stmt, plan.as_ref()?)))
                .collect();
            let mut certs = suif_parallel::certify_loops(
                &program,
                &targets,
                &suif_parallel::CertifyOptions {
                    threads,
                    schedules,
                    seed: certify_seed,
                    input,
                    ..Default::default()
                },
            )
            .into_iter();
            for (info, plan) in inputs.iter().zip(&planned) {
                if plan.is_none() {
                    println!("{:<20} unplannable", info.name);
                    continue;
                }
                let cert = certs.next().expect("one certification per planned loop");
                let verdict = if info.parallel {
                    "PARALLEL"
                } else {
                    "sequential"
                };
                if cert.race_free() {
                    println!(
                        "{:<20} {verdict:<10} race-free under {} schedules",
                        info.name,
                        cert.schedules_run()
                    );
                } else {
                    println!(
                        "{:<20} {verdict:<10} {} race(s); first:",
                        info.name,
                        cert.race_count()
                    );
                    for s in &cert.schedules {
                        if let Some(r) = s.outcome.races.first() {
                            println!("    seed {}: {r}", s.seed);
                            break;
                        }
                    }
                }
                let diverging = cert.schedules.iter();
                if let Some((seed, d)) = diverging
                    .filter_map(|s| Some((s.seed, s.first_diverging_line.as_ref()?)))
                    .next()
                {
                    let text = |t: &Option<String>| t.clone().unwrap_or_else(|| "(none)".into());
                    println!(
                        "    seed {seed}: output line {} is {} (sequential: {})",
                        d.index + 1,
                        text(&d.schedule),
                        text(&d.sequential)
                    );
                }
            }
            Ok(())
        }
        "codeview" => {
            let ex = Explorer::new(&program, input).map_err(|e| e.to_string())?;
            let guru = ex.guru();
            println!("{}", suif_explorer::codeview(&ex, &guru));
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}
