//! Timing harness: sequential vs parallel execution of a program.

use crate::executor::{ParallelExecutor, RunStats, RuntimeConfig};
use crate::plan::ParallelPlans;
use std::time::{Duration, Instant};
use suif_dynamic::machine::{Machine, NoHooks, RuntimeError};
use suif_dynamic::MAX_EXECUTE_OPS;
use suif_ir::Program;

/// One measured run.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Wall time.
    pub elapsed: Duration,
    /// Captured `print` output.
    pub output: Vec<String>,
    /// Deterministic virtual-op "time": for sequential runs, the machine's
    /// op counter; for parallel runs, the main machine's ops plus the
    /// simulated parallel-region critical path (max worker ops + the
    /// spawn/finalization overhead model).  Speedup figures use this — the
    /// host cannot be assumed to have real parallel capacity.
    pub ops: u64,
}

/// Run the program sequentially, within [`MAX_EXECUTE_OPS`].
pub fn measure_sequential(program: &Program, input: Vec<f64>) -> Result<Measurement, RuntimeError> {
    let mut hooks = NoHooks;
    let mut m = Machine::new(program, &mut hooks).map_err(|e| RuntimeError {
        message: e.to_string(),
        line: 0,
    })?;
    m.set_max_ops(MAX_EXECUTE_OPS);
    m.set_input(input);
    let start = Instant::now();
    m.run()?;
    Ok(Measurement {
        elapsed: start.elapsed(),
        output: m.output.clone(),
        ops: m.ops(),
    })
}

/// Run the program with the parallel runtime, within [`MAX_EXECUTE_OPS`]
/// (each worker within what its loop's start left of it).
pub fn measure_parallel(
    program: &Program,
    plans: &ParallelPlans,
    config: RuntimeConfig,
    input: Vec<f64>,
) -> Result<(Measurement, RunStats), RuntimeError> {
    let mut hooks = NoHooks;
    let mut executor = ParallelExecutor::new(plans.clone(), config);
    let mut m = Machine::new(program, &mut hooks).map_err(|e| RuntimeError {
        message: e.to_string(),
        line: 0,
    })?;
    m.set_max_ops(MAX_EXECUTE_OPS);
    m.set_input(input);
    m.set_handler(&mut executor);
    let start = Instant::now();
    m.run()?;
    let measurement = Measurement {
        elapsed: start.elapsed(),
        output: std::mem::take(&mut m.output),
        ops: m.ops() + executor.stats.sim_parallel_ops,
    };
    Ok((measurement, executor.stats))
}

/// Deterministic sequential cost in virtual ops.
pub fn sequential_ops(program: &Program, input: &[f64]) -> Result<u64, RuntimeError> {
    Ok(measure_sequential(program, input.to_vec())?.ops)
}

/// Deterministic simulated parallel cost in virtual ops.
pub fn parallel_ops(
    program: &Program,
    plans: &ParallelPlans,
    config: &RuntimeConfig,
    input: &[f64],
) -> Result<u64, RuntimeError> {
    let (m, _) = measure_parallel(program, plans, config.clone(), input.to_vec())?;
    Ok(m.ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{Finalization, Schedule};
    use suif_analysis::{ParallelizeConfig, Parallelizer};
    use suif_ir::parse_program;

    const SRC: &str = r#"program t
proc main() {
  real a[4096]
  real s
  int i
  do 1 i = 1, 4096 {
    a[i] = float(i) * 0.5
  }
  s = 0
  do 2 i = 1, 4096 {
    s = s + a[i]
  }
  print s
}
"#;

    fn plans_of(p: &suif_ir::Program) -> ParallelPlans {
        let pa = Parallelizer::analyze(p, ParallelizeConfig::default());
        ParallelPlans::from_analysis(&pa)
    }

    fn config(threads: usize) -> RuntimeConfig {
        RuntimeConfig {
            threads,
            min_parallel_iters: 2,
            min_parallel_cost: 0,
            finalization: Finalization::Serialized,
            schedule: Schedule::Block,
        }
    }

    #[test]
    fn virtual_ops_are_deterministic_across_runs() {
        let p = parse_program(SRC).unwrap();
        let plans = plans_of(&p);
        let seq1 = sequential_ops(&p, &[]).unwrap();
        let seq2 = sequential_ops(&p, &[]).unwrap();
        assert_eq!(seq1, seq2);
        let par1 = parallel_ops(&p, &plans, &config(4), &[]).unwrap();
        let par2 = parallel_ops(&p, &plans, &config(4), &[]).unwrap();
        assert_eq!(par1, par2);
    }

    #[test]
    fn simulated_speedup_improves_with_threads_on_large_loops() {
        let p = parse_program(SRC).unwrap();
        let plans = plans_of(&p);
        let seq = sequential_ops(&p, &[]).unwrap();
        let par2 = parallel_ops(&p, &plans, &config(2), &[]).unwrap();
        let par4 = parallel_ops(&p, &plans, &config(4), &[]).unwrap();
        // The simulated critical path must shrink with more workers on a
        // 4096-iteration loop (the spawn overhead is amortized).
        assert!(
            par2 < seq,
            "2-thread sim ops {par2} not below sequential {seq}"
        );
        assert!(
            par4 < par2,
            "4-thread sim ops {par4} not below 2-thread {par2}"
        );
    }

    #[test]
    fn measurement_output_matches_between_modes() {
        let p = parse_program(SRC).unwrap();
        let plans = plans_of(&p);
        let seq = measure_sequential(&p, vec![]).unwrap();
        let (par, stats) = measure_parallel(&p, &plans, config(2), vec![]).unwrap();
        assert_eq!(seq.output, par.output);
        assert!(stats.parallel_invocations.values().sum::<u64>() >= 1);
    }
}
