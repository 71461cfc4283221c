//! Cell-parallel experiment scheduler with fault isolation.
//!
//! A table runner's unit of work is a *cell*: one independent
//! (teacher→student pair × preset × method) distillation run. Cells share
//! no mutable state — each owns its models, optimizers and RNG, and the
//! pretrained-teacher cache hands out private copies — so a runner can fan
//! its cells out over the persistent [`cae_tensor::pool`] worker threads.
//!
//! Composition with kernel-level parallelism is cooperative: cells are
//! submitted with [`cae_tensor::pool::JobOpts::cell`] and a per-cell
//! **thread budget** of `ceil(pool_threads / cells)`, so when cells
//! outnumber threads every core runs a distinct cell with its kernels
//! inline, and when threads outnumber cells the surplus workers fan out
//! *inside* the cells' kernels instead of idling. A serial run (one cell,
//! `CAE_CELL_PARALLEL=0`, or a single-core host) spends every thread
//! inside each cell's kernels.
//!
//! # Determinism
//!
//! Results are byte-identical regardless of execution order or thread
//! count: every cell derives its RNG streams from
//! [`cell_seed`]`(budget.seed, cell_index)` and writes only to its own
//! result slot, and runners assemble rows from the returned vector in
//! cell-index order.
//!
//! # Fault isolation
//!
//! Long many-cell runs should degrade gracefully, not abort: generator
//! DFKD training is unstable early on, so partial failure is routine.
//! [`run_indexed_isolated`] wraps every cell in `catch_unwind` and returns
//! `Result<T, CellError>` per cell — a panicking cell costs exactly its
//! own slot, never its siblings' completed work. Failed cells may be
//! retried (`CAE_CELL_RETRIES`, default 0); a retry re-runs the cell with
//! the *identical* derived seed, so a run whose retries all succeed is
//! byte-identical to a fault-free run. `CAE_FAULT_INJECT=<prob>:<seed>`
//! deterministically injects panics at cell-attempt entry (consulted via a
//! per-(cell, attempt) seeded RNG before the cell does any work) to make
//! the whole recovery path testable end to end.

use cae_tensor::pool;
use cae_tensor::rng::TensorRng;
use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

/// A boxed retryable cell for runners whose cells differ in shape: a cell
/// may be invoked again after a panic, so it must be `Fn` (and `Sync`,
/// because cells and their retries run on pool worker threads).
pub type Cell<'a, T> = Box<dyn Fn() -> T + Send + Sync + 'a>;

/// Derives a per-cell RNG seed from the experiment seed and the cell's
/// index within its runner (splitmix64-style finalizer, so neighbouring
/// indices produce uncorrelated streams and cell 0 differs from the base
/// seed itself).
pub fn cell_seed(base: u64, cell_index: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(cell_index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// In-process override of the `CAE_CELL_PARALLEL` snapshot: `0` = follow
/// the config, `1` = forced serial, `2` = forced parallel.
static FORCED_CELL_PARALLEL: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(0);

/// Forces cell parallelism on or off for this process, overriding the
/// `CAE_CELL_PARALLEL` snapshot in [`crate::config::Config`]; `None`
/// restores the config value. This is the supported way for one process to
/// compare serial and parallel scheduling (the serial-vs-parallel
/// byte-identity test) — the environment is
/// parsed once per process and mutating it after startup has no effect.
pub fn force_cell_parallelism(value: Option<bool>) {
    let encoded = match value {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    };
    FORCED_CELL_PARALLEL.store(encoded, std::sync::atomic::Ordering::Relaxed);
}

/// Whether cell-level parallelism is enabled: an in-process
/// [`force_cell_parallelism`] override if one is set, otherwise the
/// `CAE_CELL_PARALLEL` snapshot (disabled by `0`, `off`, `false` or `no`,
/// case-insensitive; any other value or unset leaves it enabled, and
/// kernels then parallelize inside each cell instead).
pub fn cell_parallelism_enabled() -> bool {
    match FORCED_CELL_PARALLEL.load(std::sync::atomic::Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => crate::config::Config::get().cell_parallel,
    }
}

/// One cell's failure: which cell, the exact seed it ran under (so the
/// failure is reproducible in isolation), the original panic message, and —
/// when tracing was enabled — a training-health verdict over the series the
/// failing attempt recorded before it died.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellError {
    /// Index of the failed cell within its runner.
    pub cell: usize,
    /// The derived RNG seed the cell ran (and was retried) under.
    pub seed: u64,
    /// The original panic message (not a generic re-panic).
    pub message: String,
    /// [`cae_trace::health::HealthReport::summary`] over the failing
    /// attempt's series, present only when tracing was enabled (so
    /// untraced reports stay byte-identical).
    pub health: Option<String>,
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cell {} seed {:#x}: {}", self.cell, self.seed, self.message)?;
        if let Some(health) = &self.health {
            write!(f, " [health: {health}]")?;
        }
        Ok(())
    }
}

impl std::error::Error for CellError {}

/// Renders a panic payload's message: `&str` and `String` payloads pass
/// through verbatim, anything else degrades to a placeholder.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Retry/fault-injection policy, resolved **once per scheduler call on the
/// calling thread** (pool workers never consult it), so one run sees one
/// coherent policy. The default comes from the `CAE_CELL_RETRIES` /
/// `CAE_FAULT_INJECT` snapshot in [`crate::config::Config`]; harnesses
/// comparing policies within one process install explicit ones via
/// [`force_fault_policy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPolicy {
    /// How many times a failed cell is re-run (`CAE_CELL_RETRIES`).
    pub retries: usize,
    /// Deterministic fault injection as `(probability, seed)`
    /// (`CAE_FAULT_INJECT=<prob>:<seed>`), or `None`.
    pub inject: Option<(f32, u64)>,
}

/// In-process override installed by [`force_fault_policy`].
static FORCED_FAULT_POLICY: Mutex<Option<FaultPolicy>> = Mutex::new(None);

/// Forces the retry/fault-injection policy for subsequent scheduler calls
/// in this process, overriding the environment snapshot; `None` restores
/// it. Replaces the old pattern of mutating `CAE_FAULT_INJECT` /
/// `CAE_CELL_RETRIES` between runs, which stopped working once the
/// environment became a parse-once snapshot.
pub fn force_fault_policy(policy: Option<FaultPolicy>) {
    *FORCED_FAULT_POLICY.lock().unwrap_or_else(PoisonError::into_inner) = policy;
}

impl FaultPolicy {
    /// No retries, no injection.
    pub const NONE: FaultPolicy = FaultPolicy { retries: 0, inject: None };

    /// The policy for the next scheduler call: the
    /// [`force_fault_policy`] override if installed, else the config
    /// snapshot.
    fn resolve() -> Self {
        if let Some(forced) = *FORCED_FAULT_POLICY.lock().unwrap_or_else(PoisonError::into_inner) {
            return forced;
        }
        let config = crate::config::Config::get();
        FaultPolicy {
            retries: config.cell_retries,
            inject: config.fault_inject,
        }
    }

    /// Whether attempt `attempt` of the cell seeded `seed` should fail.
    /// Consulted via a fresh RNG derived from the cell's own seed (plus the
    /// injection seed and attempt number), so the verdict is a pure
    /// function of `(inject, seed, attempt)` — independent of scheduling —
    /// and the cell's working RNG stream is never perturbed.
    fn injects_fault(&self, seed: u64, attempt: usize) -> bool {
        let Some((prob, fault_seed)) = self.inject else {
            return false;
        };
        let mut rng = TensorRng::seed_from(cell_seed(seed ^ fault_seed, attempt as u64));
        rng.uniform() < prob
    }
}

/// Parses a `CAE_FAULT_INJECT` value of the form `<prob>:<seed>` (e.g.
/// `0.2:7`). Probabilities are clamped to `[0, 1]`; non-positive
/// probabilities and malformed values disable injection.
pub(crate) fn parse_fault_inject(value: &str) -> Option<(f32, u64)> {
    let (prob, seed) = value.split_once(':')?;
    let prob = prob.trim().parse::<f32>().ok()?;
    let seed = seed.trim().parse::<u64>().ok()?;
    (prob > 0.0).then_some((prob.min(1.0), seed))
}

/// Runs one cell attempt-by-attempt under `policy`: injected faults and
/// real panics are caught, counted (`cell.failed`, and `cell.retried` per
/// re-run), and retried up to `policy.retries` times with the identical
/// seed. Returns the first success, or a [`CellError`] carrying the *last*
/// attempt's original panic message once retries are exhausted.
fn run_isolated<T>(policy: &FaultPolicy, cell: usize, seed: u64, body: &dyn Fn() -> T) -> Result<T, CellError> {
    let mut attempt = 0;
    loop {
        // Marks this thread's series buffer so a failed attempt's partial
        // training curves can be (a) removed — retries must not pollute the
        // drained trace with duplicate steps — and (b) analyzed for a
        // health verdict explaining the failure.
        let series_mark = cae_trace::thread_series_mark();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if policy.injects_fault(seed, attempt) {
                panic!("injected fault (cell {cell}, seed {seed:#x}, attempt {attempt})");
            }
            body()
        }));
        match outcome {
            Ok(value) => return Ok(value),
            Err(payload) => {
                cae_trace::counter("cell.failed", 1);
                let attempt_series = cae_trace::take_thread_series_since(series_mark);
                if attempt < policy.retries {
                    attempt += 1;
                    cae_trace::counter("cell.retried", 1);
                    continue;
                }
                let health = cae_trace::enabled().then(|| {
                    cae_trace::health::HealthMonitor::default()
                        .check_events(&attempt_series)
                        .summary()
                });
                return Err(CellError {
                    cell,
                    seed,
                    message: panic_message(payload.as_ref()),
                    health,
                });
            }
        }
    }
}

/// Runs `f(0..n)` as fault-isolated cells and returns one `Result` per
/// cell, in cell order — the scheduler's one entry point.
///
/// Cell `i` executes inside a `scheduler.cell` span tagged with its index
/// and the RNG seed [`cell_seed`]`(base_seed, i)` the runner derives for
/// it, so a drained trace attributes every interval to a concrete (cell,
/// seed) pair even when cells interleave across pool workers. Every cell
/// runs inside `catch_unwind` under the retry/fault-injection policy
/// ([`FaultPolicy`], resolved once here on the calling thread), so a
/// panicking cell never aborts its siblings and completed work is always
/// returned. Cells run concurrently on the tensor pool when it has more
/// than one thread and [`cell_parallelism_enabled`] holds; otherwise they
/// run serially on the calling thread (in index order, with kernel-level
/// parallelism intact). Runners holding a `Vec<`[`Cell`]`>` pass
/// `|i| cells[i]()`.
pub fn run_indexed_isolated<T, F>(base_seed: u64, n: usize, f: F) -> Vec<Result<T, CellError>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let policy = FaultPolicy::resolve();
    let cell = |i: usize| {
        let _sp = cell_span(base_seed, i);
        run_isolated(&policy, i, cell_seed(base_seed, i as u64), &|| f(i))
    };
    if n <= 1 || pool::max_parallelism() == 1 || !cell_parallelism_enabled() {
        return (0..n).map(cell).collect();
    }
    let results: Vec<Mutex<Option<Result<T, CellError>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let budget = cell_thread_budget(pool::max_parallelism(), n);
    pool::parallel_for_with(pool::JobOpts::cell(budget), n, |i| {
        let out = cell(i);
        *results[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
    });
    // Poisoned slot locks are recovered: the value, not the lock, is the
    // source of truth. A missing value names the cell.
    results
        .into_iter()
        .enumerate()
        .map(|(i, m)| {
            m.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .unwrap_or_else(|| panic!("cell {i} produced no result"))
        })
        .collect()
}

/// The thread budget each parallel cell's kernels may use in a pool of
/// `threads` running `n_cells`: `ceil(threads / cells)` — 1 when cells
/// saturate the pool (kernels degrade inline), more when cells are scarcer
/// than threads so surplus workers help inside the cells instead of idling.
fn cell_thread_budget(threads: usize, n_cells: usize) -> usize {
    threads.div_ceil(n_cells.max(1)).max(1)
}

/// Splits isolated cell outcomes into per-cell optional values (`None` for
/// failed cells, in cell order) plus the collected failures, so runners
/// can render partial tables and report what broke.
pub fn split_failures<T>(results: Vec<Result<T, CellError>>) -> (Vec<Option<T>>, Vec<CellError>) {
    let mut failures = Vec::new();
    let values = results
        .into_iter()
        .map(|r| match r {
            Ok(v) => Some(v),
            Err(e) => {
                failures.push(e);
                None
            }
        })
        .collect();
    (values, failures)
}

fn cell_span(base_seed: u64, i: usize) -> cae_trace::SpanGuard {
    cae_trace::span_with(
        "scheduler.cell",
        &[
            ("cell", (i as u64).into()),
            ("cell_seed", cell_seed(base_seed, i as u64).into()),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cae_tensor::rng::TensorRng;

    #[test]
    fn cell_thread_budget_splits_the_pool_ceil_wise() {
        // Cells saturate the pool: kernels inline (budget 1).
        assert_eq!(cell_thread_budget(4, 4), 1);
        assert_eq!(cell_thread_budget(4, 70), 1);
        // Threads outnumber cells: surplus workers help inside cells.
        assert_eq!(cell_thread_budget(4, 2), 2);
        assert_eq!(cell_thread_budget(4, 3), 2);
        assert_eq!(cell_thread_budget(8, 3), 3);
        // Degenerate inputs clamp sanely.
        assert_eq!(cell_thread_budget(1, 5), 1);
        assert_eq!(cell_thread_budget(4, 0), 4);
    }

    #[test]
    fn cell_seeds_are_distinct_and_stable() {
        let seeds: Vec<u64> = (0..64).map(|i| cell_seed(42, i)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "cell seeds must not collide");
        assert_eq!(cell_seed(42, 7), cell_seed(42, 7), "seeds are pure");
        assert_ne!(cell_seed(42, 0), 42, "cell 0 must not reuse the base seed");
    }

    /// Unwraps every cell of a run expected to be fault-free.
    fn all_ok<T>(results: Vec<Result<T, CellError>>) -> Vec<T> {
        results.into_iter().map(|r| r.expect("cell must succeed")).collect()
    }

    #[test]
    fn cells_preserve_order_and_results() {
        let out = all_ok(run_indexed_isolated(0, 23, |i| (i * i) as u64));
        assert_eq!(out, (0..23u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn cells_match_serial_execution_with_rng_work() {
        // Each cell draws from its own seeded RNG; parallel and serial
        // execution must agree bit-for-bit.
        let work = |i: usize| {
            let mut rng = TensorRng::seed_from(cell_seed(7, i as u64));
            let t = rng.normal_tensor(&[17], 0.0, 1.0);
            t.data().iter().map(|v| v.to_bits() as u64).sum::<u64>()
        };
        let parallel = all_ok(run_indexed_isolated(7, 33, work));
        let serial: Vec<u64> = (0..33).map(work).collect();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn seeded_cells_trace_the_seed_they_actually_use() {
        // Each cell reports the seed it derives for itself (exactly what
        // `distill` does); the scheduler's span tag must agree.
        let base = 0xBADC_0FFE_E0DD_F00D_u64;
        let _guard = crate::trace_test_lock();
        cae_trace::force_enabled(true);
        let used = all_ok(run_indexed_isolated(base, 6, |i| cell_seed(base, i as u64)));
        let trace = cae_trace::drain();
        cae_trace::reset_to_env();
        for (i, &used_seed) in used.iter().enumerate() {
            let tagged = trace.spans_named("scheduler.cell").any(|s| {
                s.tags.contains(&("cell", cae_trace::TagValue::U64(i as u64)))
                    && s.tags.contains(&("cell_seed", cae_trace::TagValue::U64(used_seed)))
            });
            assert!(
                tagged,
                "cell {i} has no scheduler.cell span tagged with its seed {used_seed:#x}"
            );
        }
    }

    #[test]
    fn failed_cell_carries_a_health_verdict_and_removes_its_series() {
        let _guard = crate::trace_test_lock();
        cae_trace::force_enabled(true);
        let mark_before = cae_trace::thread_series_mark();
        let err = run_isolated::<()>(&FaultPolicy::NONE, 3, 0x77, &|| {
            cae_trace::series("student.loss", 0, 1.0);
            cae_trace::series("student.loss", 1, f64::NAN);
            panic!("loss went non-finite");
        })
        .expect_err("cell must fail");
        let mark_after = cae_trace::thread_series_mark();
        cae_trace::reset_to_env();
        assert_eq!(
            err.health.as_deref(),
            Some("student.loss: non-finite at step 1"),
            "the verdict must name the pathology"
        );
        assert!(
            err.to_string().ends_with("[health: student.loss: non-finite at step 1]"),
            "Display renders the verdict: {err}"
        );
        assert_eq!(
            mark_after, mark_before,
            "the failed attempt's partial series must leave the thread buffer"
        );
    }

    #[test]
    fn retry_discards_only_the_failed_attempts_series() {
        let _guard = crate::trace_test_lock();
        cae_trace::force_enabled(true);
        let mark_before = cae_trace::thread_series_mark();
        let policy = FaultPolicy { retries: 1, inject: None };
        let attempts = std::cell::Cell::new(0u32);
        let out = run_isolated(&policy, 0, 0x9, &|| {
            let attempt = attempts.get();
            attempts.set(attempt + 1);
            cae_trace::series("student.loss", 0, 2.0 + f64::from(attempt));
            assert!(attempt > 0, "first attempt dies after recording a point");
            attempt
        })
        .expect("retry succeeds");
        let kept = cae_trace::take_thread_series_since(mark_before);
        cae_trace::reset_to_env();
        assert_eq!(out, 1);
        // Only the successful attempt's point survives — retries must not
        // pollute the drained trace with duplicate steps.
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].step, 0);
        assert_eq!(kept[0].value, 3.0);
    }

    #[test]
    fn nested_kernel_parallelism_degrades_inline() {
        // Cells may call parallel_for internally; this must not deadlock.
        let out = all_ok(run_indexed_isolated(0, 8, |i| {
            let acc = std::sync::atomic::AtomicUsize::new(0);
            cae_tensor::pool::parallel_for(4, |j| {
                acc.fetch_add(i + j, std::sync::atomic::Ordering::Relaxed);
            });
            acc.into_inner()
        }));
        let expect: Vec<usize> = (0..8).map(|i| 4 * i + 6).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn fault_inject_parsing() {
        assert_eq!(parse_fault_inject("0.2:7"), Some((0.2, 7)));
        assert_eq!(parse_fault_inject(" 1.5 : 42 "), Some((1.0, 42)), "prob clamps to 1");
        assert_eq!(parse_fault_inject("0:7"), None, "zero probability disables");
        assert_eq!(parse_fault_inject("-0.5:7"), None);
        assert_eq!(parse_fault_inject("0.5"), None, "missing seed");
        assert_eq!(parse_fault_inject("x:7"), None);
        assert_eq!(parse_fault_inject("0.5:x"), None);
    }

    #[test]
    fn isolated_cells_capture_panics_and_siblings_complete() {
        let out = run_indexed_isolated(9, 8, |i| {
            if i == 3 {
                panic!("cell three exploded");
            }
            i * 10
        });
        assert_eq!(out.len(), 8);
        for (i, r) in out.iter().enumerate() {
            if i == 3 {
                let e = r.as_ref().expect_err("cell 3 must fail");
                assert_eq!(e.cell, 3);
                assert_eq!(e.seed, cell_seed(9, 3));
                assert_eq!(e.message, "cell three exploded", "original message must survive");
            } else {
                assert_eq!(*r.as_ref().expect("sibling cells must complete"), i * 10);
            }
        }
    }

    #[test]
    fn isolated_boxed_cells_preserve_order_and_errors() {
        let cells: Vec<Cell<u64>> = (0..12u64)
            .map(|i| {
                Box::new(move || {
                    if i % 5 == 4 {
                        panic!("boxed cell {i} failed");
                    }
                    i * i
                }) as Cell<u64>
            })
            .collect();
        let out = run_indexed_isolated(3, cells.len(), |i| cells[i]());
        for (i, r) in out.iter().enumerate() {
            if i % 5 == 4 {
                let e = r.as_ref().expect_err("must fail");
                assert_eq!(e.message, format!("boxed cell {i} failed"));
            } else {
                assert_eq!(*r.as_ref().expect("must pass"), (i * i) as u64);
            }
        }
    }

    #[test]
    fn injected_faults_fail_without_retries_and_are_absorbed_by_them() {
        // Certain injection with no retries: every cell fails with the
        // injection message.
        let certain = FaultPolicy { retries: 0, inject: Some((1.0, 7)) };
        for i in 0..4 {
            let e = run_isolated(&certain, i, cell_seed(5, i as u64), &|| i)
                .expect_err("certain injection must fail");
            assert!(e.message.starts_with("injected fault"), "{}", e.message);
        }
        // Probabilistic injection with ample retries: results must equal a
        // fault-free run exactly (retries re-run the identical seed).
        let flaky = FaultPolicy { retries: 30, inject: Some((0.7, 99)) };
        let run = |policy: &FaultPolicy| -> Vec<u64> {
            (0..6)
                .map(|i| run_isolated(policy, i, cell_seed(5, i as u64), &|| i as u64 + 1))
                .map(|r| r.expect("retries absorb faults"))
                .collect()
        };
        assert_eq!(run(&flaky), run(&FaultPolicy::NONE));
    }

    #[test]
    fn retries_reuse_the_identical_cell_seed() {
        // A cell that fails once on its own must see the same derived seed
        // on the retry — determinism is preserved across recovery.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let attempts = AtomicUsize::new(0);
        let policy = FaultPolicy { retries: 2, inject: None };
        let out = run_isolated(&policy, 0, cell_seed(11, 0), &|| {
            if attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("transient failure");
            }
            let mut rng = TensorRng::seed_from(cell_seed(11, 0));
            rng.uniform().to_bits()
        });
        let mut rng = TensorRng::seed_from(cell_seed(11, 0));
        assert_eq!(out, Ok(rng.uniform().to_bits()));
        assert_eq!(attempts.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn split_failures_partitions_in_order() {
        let results: Vec<Result<u32, CellError>> = vec![
            Ok(1),
            Err(CellError { cell: 1, seed: 0xabc, message: "x".into(), health: None }),
            Ok(3),
        ];
        let (values, failures) = split_failures(results);
        assert_eq!(values, vec![Some(1), None, Some(3)]);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].cell, 1);
        assert_eq!(failures[0].to_string(), "cell 1 seed 0xabc: x");
    }

    #[test]
    fn fault_injection_is_deterministic_per_attempt() {
        let policy = FaultPolicy { retries: 0, inject: Some((0.5, 1234)) };
        let verdicts: Vec<bool> = (0..32).map(|a| policy.injects_fault(77, a)).collect();
        let again: Vec<bool> = (0..32).map(|a| policy.injects_fault(77, a)).collect();
        assert_eq!(verdicts, again, "injection verdicts must be pure");
        assert!(verdicts.iter().any(|&v| v), "p=0.5 over 32 attempts must inject at least once");
        assert!(!verdicts.iter().all(|&v| v), "p=0.5 over 32 attempts must also pass sometimes");
    }
}
