//! Replay oracle for the certifier at application scale: certifying every
//! plannable loop of the four Ch. 4 applications (`Scale::Test`, 2 schedules
//! from seed 1) must take exactly the scheduling decisions, examine exactly
//! the accesses and leave exactly the outputs, memory images, errors and
//! race pairs pinned below — certified loop by loop with `certify_loop`,
//! and again all at once with one `certify_loops` call, whose scout runs
//! the sequential stretches once for every schedule that agrees with it.
//! The constants were generated on the commit whose certifier still handed
//! a token between OS threads; a certifier that decides at a different
//! point — before an access instead of after it, not at an iteration start,
//! not after a private-tail access — draws a different schedule from the
//! same seed and fails here.  At 8 schedules, where schedules of both
//! policies wait at an exit in one state and share one race-free run of it,
//! one `certify_loops` call must reproduce what the certifier drew before
//! schedules shared runs, decision for decision.

use suif_analysis::{ParallelizeConfig, Parallelizer};
use suif_benchmarks::{ch4_apps, Scale};
use suif_dynamic::Value;
use suif_parallel::{
    certify_loop, certify_loops, CertifyOptions, LoopCertification, ParallelPlans,
};

/// How many races per schedule the digest folds: the bound on
/// `CertOutcome::races`.
const RACES_FOLDED: usize = 64;

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }
}

/// Sums over every schedule of every certified loop of one application.
#[derive(Debug, Default, PartialEq, Eq)]
struct Replay {
    decisions: u64,
    switches: u64,
    shared_accesses: u64,
    iterations: u64,
    loops_run: u64,
    races: u64,
    digest: u64,
}

/// How the loops of one application are certified.
#[derive(Clone, Copy, Debug)]
enum Entry {
    /// One `certify_loop` call per loop.
    LoopByLoop,
    /// One `certify_loops` call over every loop.
    AllAtOnce,
}

fn replay(source: &str, entry: Entry, schedules: u32) -> Replay {
    let program = suif_ir::parse_program(source).unwrap();
    let analysis = Parallelizer::analyze(&program, ParallelizeConfig::default());
    let plans = ParallelPlans::from_analysis(&analysis);
    let opts = CertifyOptions {
        schedules,
        seed: 1,
        ..Default::default()
    };
    let planned: Vec<_> = analysis
        .certify_inputs()
        .iter()
        .filter_map(|info| Some((info.stmt, plans.plan_for(&program, info)?)))
        .collect();
    let certs: Vec<LoopCertification> = match entry {
        Entry::LoopByLoop => planned
            .iter()
            .map(|(stmt, plan)| certify_loop(&program, *stmt, plan, &opts))
            .collect(),
        Entry::AllAtOnce => {
            let targets: Vec<_> = planned.iter().map(|(stmt, plan)| (*stmt, plan)).collect();
            certify_loops(&program, &targets, &opts)
        }
    };
    let mut sum = Replay::default();
    let mut digest = Digest::new();
    for cert in &certs {
        sum.races += cert.race_count() as u64;
        for s in &cert.schedules {
            let o = &s.outcome;
            sum.decisions += o.schedule_decisions;
            sum.switches += o.schedule_switches;
            sum.shared_accesses += o.shared_accesses;
            sum.iterations += o.iterations;
            sum.loops_run += o.loops_run;
            digest.word(s.capture.output.len() as u64);
            for line in &s.capture.output {
                digest.text(line);
            }
            digest.word(s.capture.memory.len() as u64);
            for cell in &s.capture.memory {
                match *cell {
                    Value::Int(v) => {
                        digest.word(0);
                        digest.word(v as u64);
                    }
                    Value::Real(v) => {
                        digest.word(1);
                        digest.word(v.to_bits());
                    }
                }
            }
            match &s.capture.error {
                None => digest.word(0),
                Some(e) => {
                    digest.word(1 + u64::from(e.line));
                    digest.text(&e.message);
                }
            }
            for r in o.races.iter().take(RACES_FOLDED) {
                digest.word(r.addr as u64);
                digest.word(r.first.thread as u64);
                digest.word(u64::from(r.first.line));
                digest.word(r.second.thread as u64);
                digest.word(u64::from(r.second.line));
            }
        }
    }
    sum.digest = digest.0;
    sum
}

#[test]
fn ch4_applications_replay_decision_for_decision() {
    let expected = [
        (
            "mdg",
            Replay {
                decisions: 642_698,
                switches: 55_452,
                shared_accesses: 120_849,
                iterations: 16_624,
                loops_run: 2_370,
                races: 5_622,
                digest: 0x59a91cfee0188896,
            },
        ),
        (
            "arc3d",
            Replay {
                decisions: 760_024,
                switches: 59_738,
                shared_accesses: 270_511,
                iterations: 23_976,
                loops_run: 1_210,
                races: 9_654,
                digest: 0xfb2e212884093385,
            },
        ),
        (
            "hydro",
            Replay {
                decisions: 401_600,
                switches: 35_365,
                shared_accesses: 97_967,
                iterations: 20_840,
                loops_run: 1_446,
                races: 2_960,
                digest: 0x2582d95376084028,
            },
        ),
        (
            "flo88",
            Replay {
                decisions: 1_496_100,
                switches: 118_584,
                shared_accesses: 453_358,
                iterations: 30_828,
                loops_run: 2_798,
                races: 15_712,
                digest: 0x635faffb1e25bfc8,
            },
        ),
    ];
    let apps = ch4_apps(Scale::Test);
    assert_eq!(apps.len(), expected.len());
    for (app, (name, want)) in apps.iter().zip(expected) {
        assert_eq!(app.name, name);
        for entry in [Entry::LoopByLoop, Entry::AllAtOnce] {
            assert_eq!(replay(&app.source, entry, 2), want, "{name}, {entry:?}");
        }
    }
}

/// Eight schedules from seed 1, all at once: the sums and digest the
/// certifier drew when every schedule ran each invocation itself.
#[test]
fn ch4_applications_replay_at_eight_schedules() {
    let expected = [
        (
            "mdg",
            Replay {
                decisions: 2_572_362,
                switches: 213_562,
                shared_accesses: 496_101,
                iterations: 66_496,
                loops_run: 9_480,
                races: 22_464,
                digest: 0x94fce346da3edaf9,
            },
        ),
        (
            "arc3d",
            Replay {
                decisions: 3_040_096,
                switches: 244_274,
                shared_accesses: 1_077_669,
                iterations: 95_904,
                loops_run: 4_840,
                races: 40_848,
                digest: 0xe82cc2b61f27247b,
            },
        ),
        (
            "hydro",
            Replay {
                decisions: 1_607_708,
                switches: 136_389,
                shared_accesses: 391_492,
                iterations: 83_360,
                loops_run: 5_784,
                races: 11_832,
                digest: 0xfe21210e33f4a3b7,
            },
        ),
        (
            "flo88",
            Replay {
                decisions: 5_984_400,
                switches: 470_663,
                shared_accesses: 1_813_080,
                iterations: 123_312,
                loops_run: 11_192,
                races: 62_898,
                digest: 0xeefb2d9eaedf6782,
            },
        ),
    ];
    let apps = ch4_apps(Scale::Test);
    assert_eq!(apps.len(), expected.len());
    for (app, (name, want)) in apps.iter().zip(expected) {
        assert_eq!(app.name, name);
        assert_eq!(replay(&app.source, Entry::AllAtOnce, 8), want, "{name}");
    }
}
