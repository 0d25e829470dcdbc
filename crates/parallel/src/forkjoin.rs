//! The one fork/join loop runtime (§4.5, §6.3.4) under both the fast
//! executor and the certifier: a loop invocation ([`LoopRun`]) and its
//! privatization ([`LoopLayout`]) are handed to workers — views of the
//! machine's memory, each with a private tail and a [`Schedule`]d share of
//! the iterations — and the joined per-worker results ([`WorkerResult`]) go
//! into [`finalize`], which applies the post-loop effects.  What differs
//! between the two runtimes is who advances the workers: [`fork_join`] gives
//! each an OS thread and lets it run, the certifier
//! ([`crate::certify`]) steps them in turn on its own thread.
//!
//! Ownership: the *handler* decides whether a loop runs in parallel, builds
//! the layout and does its own accounting; `fork_join` owns the worker
//! threads (the crate's only spawn site); `finalize` owns every write the
//! loop leaves in shared memory after the join.  The aliasing of worker
//! views is the `View` contract documented on `suif_dynamic::MemStore`;
//! `fork_join` upholds its side by joining every worker before it returns.

use crate::executor::{Finalization, Schedule};
use crate::plan::PlanEntry;
use std::collections::HashMap;
use std::iter::StepBy;
use std::ops::Range;
use suif_analysis::RedOp;
use suif_dynamic::machine::{Machine, NoHooks, RuntimeError};
use suif_dynamic::{DoLoop, Value};
use suif_ir::{VarId, VarKind};

/// One invocation of a `do` loop with its bounds evaluated.
pub(crate) struct LoopRun {
    /// The loop in the machine's lowered code: workers run its body range.
    pub(crate) lp: DoLoop,
    pub(crate) lo: i64,
    pub(crate) step: i64,
    /// Trip count.
    pub(crate) n: i64,
}

impl LoopRun {
    /// Evaluate the loop's bounds once, in the machine's current frame.
    pub(crate) fn evaluate(m: &mut Machine<'_>, lp: DoLoop) -> Result<LoopRun, RuntimeError> {
        let (lo, hi, step) = m.eval_do_bounds(&lp)?;
        Ok(LoopRun {
            lp,
            lo,
            step,
            n: Machine::trip_count(lo, hi, step),
        })
    }
}

/// One privatized storage group in the per-worker tail.
pub(crate) struct Segment {
    /// Offset in the private tail.
    pub(crate) tail_base: usize,
    /// Length in cells.
    pub(crate) len: usize,
    /// Shared base it mirrors.
    pub(crate) shared_base: usize,
    /// How the segment is merged back at the join.
    pub(crate) role: SegRole,
}

pub(crate) enum SegRole {
    /// Pure scratch: discarded at the join.
    Private,
    /// Live-out privatized storage: the last iteration's copy wins.
    FinalizeLast,
    /// Reduction storage: per-worker copies are combined with `op` over the
    /// 0-based inclusive region `[lo, hi]` of the segment.
    Reduction { op: RedOp, lo: usize, hi: usize },
}

/// The privatization of one loop invocation: which storage groups each
/// worker gets a private copy of, where the plan's variables land in that
/// private tail, and what the tail holds when the worker starts.
pub(crate) struct LoopLayout {
    pub(crate) segments: Vec<Segment>,
    /// Variable → offset in the private tail.
    pub(crate) overrides: HashMap<VarId, usize>,
    /// Initial contents of each worker's tail.
    pub(crate) template: Vec<Value>,
}

impl LoopLayout {
    /// Lay out `plan` in the machine's current frame.  Fails when a private
    /// copy cannot be sized (the handler then leaves the loop sequential).
    pub(crate) fn build(
        m: &Machine<'_>,
        plan: &PlanEntry,
        line: u32,
    ) -> Result<LoopLayout, RuntimeError> {
        let mut b = LayoutBuilder {
            m,
            line,
            segments: Vec::new(),
            overrides: HashMap::new(),
            tail_len: 0,
            group_of: HashMap::new(),
        };
        for &v in &plan.private_vars {
            b.add(v, SegRole::Private)?;
        }
        for &v in &plan.finalize_last {
            b.add(v, SegRole::FinalizeLast)?;
        }
        for red in &plan.reductions {
            for &v in &red.vars {
                // Determine the 0-based region inside the segment.
                let info = m.program.var(v);
                let member_off = match info.kind {
                    VarKind::Common { offset, .. } => offset as usize,
                    _ => 0,
                };
                let total = if info.is_array() {
                    m.array_elem_count(v, line)?.unwrap_or(1).max(1) as usize
                } else {
                    1
                };
                let (lo, hi) = match red.range {
                    // range is 1-based within the storage *object*.
                    Some((l, h)) => ((l.max(1) - 1) as usize, (h.max(1) - 1) as usize),
                    None => (member_off, member_off + total - 1),
                };
                b.add(v, SegRole::Reduction { op: red.op, lo, hi })?;
            }
        }
        let template = b.template();
        Ok(LoopLayout {
            segments: b.segments,
            overrides: b.overrides,
            template,
        })
    }
}

struct LayoutBuilder<'m, 'p> {
    m: &'m Machine<'p>,
    line: u32,
    segments: Vec<Segment>,
    overrides: HashMap<VarId, usize>,
    tail_len: usize,
    /// Storage groups already privatized: shared base → segment index.
    group_of: HashMap<usize, usize>,
}

impl LayoutBuilder<'_, '_> {
    /// Redirect `v` into the tail, privatizing its storage group with `role`
    /// unless an earlier variable of the same group already did.
    fn add(&mut self, v: VarId, role: SegRole) -> Result<(), RuntimeError> {
        let (m, line) = (self.m, self.line);
        let info = m.program.var(v);
        // Group commons by block: privatize the whole block once.
        let (shared_base, len, member_off) = match info.kind {
            VarKind::Common { block, offset } => {
                let blk_size = m.program.commons[block.0 as usize].size.max(1) as usize;
                let member_base = if info.is_array() {
                    m.array_base(v, line)?
                } else {
                    m.array_base(v, line).unwrap_or(0)
                };
                (member_base - offset as usize, blk_size, offset as usize)
            }
            _ if info.is_array() => {
                let n = m.array_elem_count(v, line)?.ok_or_else(|| RuntimeError {
                    message: format!("cannot size private copy of `{}`", info.name),
                    line,
                })?;
                (m.array_base(v, line)?, n.max(0) as usize, 0)
            }
            // Scalars are never bound, so their storage is static.
            _ => match m.layout().base_of(v) {
                Some(base) => (base, 1, 0),
                None => {
                    return Err(RuntimeError {
                        message: format!("scalar `{}` has no storage", info.name),
                        line,
                    })
                }
            },
        };
        let seg = *self.group_of.entry(shared_base).or_insert_with(|| {
            self.segments.push(Segment {
                tail_base: self.tail_len,
                len,
                shared_base,
                role,
            });
            self.tail_len += len;
            self.segments.len() - 1
        });
        self.overrides
            .insert(v, self.segments[seg].tail_base + member_off);
        Ok(())
    }

    /// Initial tail contents: every group copies in the current shared
    /// values, except that a reduction region starts at the operator
    /// identity.  The copy-in matters even for pure scratch: privatization
    /// guarantees no *cross-iteration* value flow, but cells the loop never
    /// writes (e.g. the upwards-exposed `dkrc(1)` of §4.2.3) keep their
    /// pre-loop values and must be visible in the copy.
    fn template(&self) -> Vec<Value> {
        let mut template = vec![Value::Real(0.0); self.tail_len];
        for seg in &self.segments {
            for k in 0..seg.len {
                template[seg.tail_base + k] = match &seg.role {
                    SegRole::Reduction { op, lo, hi } if (*lo..=*hi).contains(&k) => {
                        Value::Real(op.identity())
                    }
                    _ => self.m.peek(seg.shared_base + k).unwrap_or(Value::Real(0.0)),
                };
            }
        }
        template
    }
}

/// One worker's share of a loop's 0-based iterations, in the order it runs
/// them.
pub(crate) type Iterations = StepBy<Range<i64>>;

impl Schedule {
    /// The iterations worker `t` of `workers` runs out of `n`.
    pub(crate) fn iterations(self, t: usize, workers: usize, n: i64) -> Iterations {
        let (t, w) = (t as i64, workers as i64);
        let (first, end, stride) = match self {
            Schedule::Block => (n * t / w, n * (t + 1) / w, 1),
            Schedule::Cyclic => (t, n, workers),
        };
        (first..end).step_by(stride)
    }

    /// The worker that runs the final iteration `n - 1`.
    fn last_owner(self, workers: usize, n: i64) -> usize {
        match self {
            // The final chunk belongs to the last worker.
            Schedule::Block => workers - 1,
            Schedule::Cyclic => (n - 1) as usize % workers,
        }
    }
}

/// What one worker hands back at the join.
pub(crate) struct WorkerResult {
    /// The private tail after the worker's last iteration.
    pub(crate) tail: Vec<Value>,
    /// Virtual ops the worker executed.
    pub(crate) ops: u64,
    /// `print` lines the worker captured.
    pub(crate) output: Vec<String>,
}

impl WorkerResult {
    /// What the worker behind `view` hands back after its last iteration.
    pub(crate) fn of(mut view: Machine<'_>) -> WorkerResult {
        WorkerResult {
            ops: view.ops(),
            output: std::mem::take(&mut view.output),
            tail: view.into_private(),
        }
    }
}

/// Run the iterations of `run` on `workers` OS threads, each over a view of
/// `m`'s memory with a private tail laid out by `layout`, and join them all.
/// A worker that ran all its iterations calls `merge(t, view)` on its own
/// thread, while the others may still be running.  Returns the results in
/// worker order, or the first failed worker's error; a panicking worker
/// becomes a [`RuntimeError`] here.
pub(crate) fn fork_join(
    m: &mut Machine<'_>,
    run: &LoopRun,
    layout: &LoopLayout,
    workers: usize,
    schedule: Schedule,
    merge: &(impl Fn(usize, &mut Machine<'_>) + Sync),
) -> Result<Vec<WorkerResult>, RuntimeError> {
    let mut hooks: Vec<NoHooks> = (0..workers).map(|_| NoHooks).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = hooks
            .iter_mut()
            .enumerate()
            .map(|(t, hooks)| {
                let mut view = m.fork_view(&layout.overrides, layout.template.clone(), hooks);
                scope.spawn(move || {
                    for k in schedule.iterations(t, workers, run.n) {
                        view.run_iteration(&run.lp, run.lo + k * run.step)?;
                    }
                    merge(t, &mut view);
                    Ok(WorkerResult::of(view))
                })
            })
            .collect();
        // Join every handle before reporting the first failure: the scope
        // would re-raise the panic of a worker nobody joined.
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        joined
            .into_iter()
            .map(|r| {
                r.unwrap_or_else(|_| {
                    Err(RuntimeError {
                        message: "worker thread panicked".into(),
                        line: run.lp.line,
                    })
                })
            })
            .collect()
    })
}

/// Fold a worker's partial result `mine` into shared cell `addr` (§6.3.4).
pub(crate) fn merge_cell(m: &mut Machine<'_>, op: RedOp, addr: usize, mine: Value) {
    let cur = m.peek(addr).unwrap_or(Value::Real(0.0)).as_real();
    m.poke(addr, Value::Real(op.apply(cur, mine.as_real())));
}

/// Apply the loop's post-join effects to `m`, deterministically in worker
/// order: captured output, the last iteration's copy of every
/// finalize-last group, the serialized reduction merge (under
/// [`Finalization::StaggeredLocks`] the workers have merged already), and
/// the Fortran post-loop induction value.
pub(crate) fn finalize(
    m: &mut Machine<'_>,
    run: &LoopRun,
    layout: &LoopLayout,
    schedule: Schedule,
    finalization: Finalization,
    results: Vec<WorkerResult>,
) -> Result<(), RuntimeError> {
    for seg in &layout.segments {
        match &seg.role {
            SegRole::Private => {}
            SegRole::FinalizeLast => {
                let last = &results[schedule.last_owner(results.len(), run.n)].tail;
                for k in 0..seg.len {
                    m.poke(seg.shared_base + k, last[seg.tail_base + k]);
                }
            }
            SegRole::Reduction { op, lo, hi } => {
                if finalization == Finalization::Serialized {
                    for r in &results {
                        for k in *lo..=*hi {
                            merge_cell(m, *op, seg.shared_base + k, r.tail[seg.tail_base + k]);
                        }
                    }
                }
            }
        }
    }
    for r in results {
        m.output.extend(r.output);
    }
    let after = Value::Int(run.lo + run.n * run.step);
    m.set_scalar_raw(run.lp.var, after, run.lp.line)
}
