//! A fixed piece of work, timed next to every measurement, that tells how
//! fast the host is at that moment.
//!
//! The host this benchmark was defined on is a 2-vCPU microVM whose speed
//! drifts by 10–40 % for tens of seconds to minutes at a time: a fixed
//! CPU-bound command, run back to back, had 10-sample medians between 350
//! and 520 ms; user+system time moved with wall-clock and steal stayed near
//! zero, so the slow phases are slower execution, which neither a minimum
//! nor CPU time removes.  Raw wall-clock medians of ten runs then spread by
//! 10–25 % and one run cannot tell a 10 % regression from the weather.
//!
//! What does remove it is dividing by the time of a yardstick run in the
//! same seconds.  In a four-minute trial that alternated this yardstick
//! with a `corpus` request to a fresh daemon, the 12-second medians of the
//! request's time had a coefficient of variation of 6.5 % (range 21 %);
//! the same medians of request time over yardstick time, 1.8 % (range 7 %).
//! The yardstick is this package's own code — hash maps, B-trees, small
//! allocations and recursion over a boxed tree, the mix the interpreter and
//! the analyses are made of — and shares nothing with the product, so a
//! change that makes the product faster does not make the yardstick faster.
//!
//! Every timing of the untraced run is therefore reported as
//! `measured × REFERENCE_MS / yardstick_ms`, with the yardstick timed just
//! before the measurement: milliseconds on a host where the yardstick takes
//! [`REFERENCE_MS`].  The report prints the yardstick's median and the
//! factor it amounts to; dividing a timing by the factor gives what the
//! clock read.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// What the yardstick takes on the host this benchmark was defined on, in
/// its median phase.  Scaled timings read as milliseconds on that host.
pub const REFERENCE_MS: f64 = 5.0;

/// Yardstick runs per calibration; their median is the host's speed there.
pub const RUNS: usize = 4;

enum Expr {
    Num(f64),
    Var(u32),
    Add(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
}

fn eval(e: &Expr, env: &HashMap<u32, f64>) -> f64 {
    match e {
        Expr::Num(n) => *n,
        Expr::Var(v) => env[v],
        Expr::Add(a, b) => eval(a, env) + eval(b, env),
        Expr::Mul(a, b) => eval(a, env) * eval(b, env),
    }
}

/// The fixed work: the same operations in the same order on every call.
fn work() -> f64 {
    let mut env = HashMap::new();
    for i in 0..64u32 {
        env.insert(i, f64::from(i) * 0.5);
    }
    let mut tree = Expr::Num(1.0);
    for i in 0..40u32 {
        let term = Expr::Mul(Box::new(Expr::Var(i % 64)), Box::new(Expr::Num(1.0001)));
        tree = Expr::Add(Box::new(term), Box::new(tree));
    }
    let mut acc = 0.0;
    for i in 0..3000u32 {
        env.insert(i % 64, acc * 1e-9 + f64::from(i));
        acc += eval(&tree, &env);
    }
    let mut buckets: BTreeMap<u64, Vec<i64>> = BTreeMap::new();
    let mut x = 12345u64;
    for i in 0..30_000i64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        buckets.entry(x % 5000).or_default().push(i);
    }
    acc + buckets
        .values()
        .map(|v| v.iter().sum::<i64>() as f64)
        .sum::<f64>()
}

/// Milliseconds one run of the yardstick takes right now.
pub fn run_ms() -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(work());
    t0.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_work_is_the_same_every_time() {
        assert_eq!(work().to_bits(), work().to_bits());
        assert!(run_ms() > 0.0);
    }
}
