//! Seeded adversarial scheduling of certified parallel loops.
//!
//! The certifying executor (`suif_parallel::certify`) advances its workers
//! — logical threads, all on one OS thread — one machine step at a time,
//! with a preemption point after every step that accessed memory and at
//! every iteration start.  This module decides *which* worker runs next at
//! each preemption point.  Decisions are a pure function of the `u64` seed
//! and the sequence of `pick` calls, so any interleaving is deterministic
//! and replayable by re-running with the same seed.
//!
//! Two policies are provided, chosen from the seed's low bit so a schedule
//! sweep alternates between them:
//!
//! * **PCT-style priorities** ([`SchedPolicy::Pct`]): each worker draws a
//!   random priority up front; the highest-priority runnable worker always
//!   runs, and at each preemption point a small random fraction of decisions
//!   demotes the running worker below everyone else (a "change point").
//!   This concentrates the schedule on few, deep preemptions.
//! * **Random walk** ([`SchedPolicy::RandomWalk`]): continue the current
//!   worker with probability 3/4, otherwise switch to a uniformly random
//!   runnable worker.  This spreads many shallow preemptions around.

/// SplitMix64 — a tiny, high-quality deterministic PRNG (public-domain
/// algorithm by Sebastiano Vigna).  Identical seeds yield identical streams
/// on every platform, which is what makes schedules replayable.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Start a stream from a seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Scheduling policy of an [`AdversarialScheduler`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedPolicy {
    /// PCT-style random priorities with occasional change points.
    Pct,
    /// Randomized round-robin: mostly continue, sometimes switch.
    RandomWalk,
}

/// Deterministic adversarial scheduler over a fixed set of workers.
pub struct AdversarialScheduler {
    rng: SplitMix64,
    policy: SchedPolicy,
    priorities: Vec<u64>,
    /// Number of scheduling decisions taken.
    pub decisions: u64,
    /// Number of decisions that preempted the running worker.
    pub switches: u64,
}

impl AdversarialScheduler {
    /// A scheduler for `workers` workers; the policy is taken from the
    /// seed's low bit (even → [`SchedPolicy::Pct`], odd →
    /// [`SchedPolicy::RandomWalk`]).
    pub fn new(seed: u64, workers: usize) -> AdversarialScheduler {
        let policy = if seed & 1 == 0 {
            SchedPolicy::Pct
        } else {
            SchedPolicy::RandomWalk
        };
        AdversarialScheduler::with_policy(seed, workers, policy)
    }

    /// A scheduler with an explicit policy.
    pub fn with_policy(seed: u64, workers: usize, policy: SchedPolicy) -> AdversarialScheduler {
        let mut rng = SplitMix64::new(seed);
        let priorities = (0..workers).map(|_| rng.next_u64() | 1).collect();
        AdversarialScheduler {
            rng,
            policy,
            priorities,
            decisions: 0,
            switches: 0,
        }
    }

    /// The active policy.
    pub fn policy(&self) -> SchedPolicy {
        self.policy
    }

    /// Choose the next worker to run.  `current` is the worker at the
    /// preemption point (if still runnable it appears in `runnable`);
    /// `runnable` is the non-empty set of workers able to run.
    pub fn pick(&mut self, current: Option<usize>, runnable: &[usize]) -> usize {
        debug_assert!(!runnable.is_empty());
        self.decisions += 1;
        let chosen = match self.policy {
            SchedPolicy::Pct => {
                // A change point with probability 1/8: demote the running
                // worker below every other priority.
                if let Some(c) = current {
                    if self.rng.below(8) == 0 {
                        self.priorities[c] = 0;
                    }
                }
                *runnable
                    .iter()
                    .max_by_key(|&&w| self.priorities[w])
                    .expect("runnable is non-empty")
            }
            SchedPolicy::RandomWalk => match current {
                Some(c) if runnable.contains(&c) && self.rng.below(4) != 0 => c,
                _ => runnable[self.rng.below(runnable.len())],
            },
        };
        if current != Some(chosen) {
            self.switches += 1;
        }
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_trace(seed: u64) -> Vec<usize> {
        let mut s = AdversarialScheduler::new(seed, 4);
        let mut trace = Vec::new();
        let mut cur = None;
        for _ in 0..64 {
            let w = s.pick(cur, &[0, 1, 2, 3]);
            trace.push(w);
            cur = Some(w);
        }
        trace
    }

    #[test]
    fn same_seed_same_schedule() {
        assert_eq!(run_trace(42), run_trace(42));
        assert_eq!(run_trace(43), run_trace(43));
    }

    #[test]
    fn different_seeds_diverge() {
        // Not guaranteed in principle, but these seeds do diverge and the
        // assertion pins the property for the seeds the harness uses.
        assert_ne!(run_trace(2), run_trace(4));
        assert_ne!(run_trace(1), run_trace(3));
    }

    #[test]
    fn policy_from_seed_low_bit() {
        assert_eq!(AdversarialScheduler::new(2, 2).policy(), SchedPolicy::Pct);
        assert_eq!(
            AdversarialScheduler::new(3, 2).policy(),
            SchedPolicy::RandomWalk
        );
    }

    #[test]
    fn pct_eventually_preempts() {
        let mut s = AdversarialScheduler::with_policy(7, 3, SchedPolicy::Pct);
        let mut cur = None;
        for _ in 0..200 {
            cur = Some(s.pick(cur, &[0, 1, 2]));
        }
        assert!(s.switches > 1, "change points must fire over 200 decisions");
    }

    #[test]
    fn pick_respects_runnable_set() {
        let mut s = AdversarialScheduler::new(9, 4);
        for _ in 0..50 {
            let w = s.pick(Some(0), &[1, 3]);
            assert!(w == 1 || w == 3);
        }
    }
}
