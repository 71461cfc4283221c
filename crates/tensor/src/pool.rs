//! Persistent worker pool with cooperative two-level scheduling.
//!
//! The seed implementation spawned fresh `crossbeam::scope` threads inside
//! every large matmul — pure overhead on a single-core host and a fixed
//! 2-way split on a many-core one. This module replaces that with one
//! process-wide pool:
//!
//! * sized once from [`std::thread::available_parallelism`] (overridable via
//!   the `CAE_NUM_THREADS` env var, `CAE_NUM_THREADS=1` forcing fully
//!   inline execution, or in-process via [`force_pool_size`]);
//! * workers park on a condvar between jobs, so an idle pool costs nothing;
//! * jobs carry a [`Priority`] and a **task budget**: the number of pool
//!   threads a nested [`parallel_for`] inside one of the job's tasks may
//!   recruit. Coarse experiment cells submit with [`JobOpts::cell`] and a
//!   budget derived from host parallelism, so the kernels inside a cell can
//!   still fan out when cells are scarcer than cores. Leaf kernels submit
//!   with budget 1, which degrades *their* nested calls inline — replacing
//!   the old all-or-nothing "nested `parallel_for` runs inline" rule that
//!   left workers idle whenever cell-level parallelism was active;
//! * several jobs may be in flight at once (one per submitting thread);
//!   idle workers pick the highest-priority job with unclaimed tasks, so
//!   small high-priority kernel jobs are not stuck behind long cells;
//! * the calling thread participates in the work instead of blocking, so a
//!   pool of `N` threads applies `N` cores, not `N - 1`.
//!
//! Tasks are claimed from a shared atomic counter, giving dynamic load
//! balancing across unevenly sized tasks (e.g. edge blocks of a GEMM).
//!
//! Deadlock freedom: a submitter only ever blocks on **its own** job, after
//! helping drain it, and every claimed task runs to completion without
//! waiting on another job's completion (nested submissions drain-then-wait
//! the same way, and the nesting depth is bounded because kernel jobs hand
//! their tasks budget 1).

use std::any::Any;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Recovers from lock poisoning. Every pool lock guards state that stays
/// consistent across a task-panic unwind (panic payloads are moved behind
/// an `Option`, the queue only holds `Arc`s, `done` is a plain flag), so a
/// worker panicking at the wrong instant must degrade to a reported cell
/// failure — never escalate into a process abort on a later `.lock()`.
fn lock_recover<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Scheduling class of a published job. Workers prefer higher priorities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Coarse experiment cells: long-running tasks that own their latency.
    Cell = 0,
    /// Fine-grained kernel fan-outs (GEMM row blocks, conv chunks): the
    /// submitter is blocked on the result, so these jump the queue.
    Kernel = 1,
}

/// Submission options for [`parallel_for_with`].
#[derive(Debug, Clone, Copy)]
pub struct JobOpts {
    pub priority: Priority,
    /// Thread budget installed while each task body runs: how many pool
    /// threads a nested `parallel_for` inside the task may use (clamped to
    /// at least 1). Budget 1 degrades nested calls inline — the right
    /// default for leaf kernels.
    pub task_budget: usize,
}

impl JobOpts {
    /// A leaf kernel job: high priority, nested calls degrade inline.
    pub fn kernel() -> JobOpts {
        JobOpts { priority: Priority::Kernel, task_budget: 1 }
    }

    /// A coarse cell job whose tasks may each recruit `task_budget` threads
    /// for their own nested kernels.
    pub fn cell(task_budget: usize) -> JobOpts {
        JobOpts { priority: Priority::Cell, task_budget: task_budget.max(1) }
    }
}

/// A published job: an erased borrowed closure plus claim/completion state.
///
/// The raw pointer borrows the closure on the submitting thread's stack;
/// [`parallel_for`] does not return until every task has finished, which
/// bounds every dereference to the borrow's lifetime.
struct Job {
    body: *const (dyn Fn(usize) + Sync),
    n_tasks: usize,
    priority: Priority,
    task_budget: usize,
    next: AtomicUsize,
    completed: AtomicUsize,
    /// First panic observed across the job's tasks: the panicking task's
    /// index plus its original payload, so the submitting thread can
    /// re-raise the real failure instead of a fresh anonymous panic.
    panic: Mutex<Option<(usize, Box<dyn Any + Send>)>>,
    done: Mutex<bool>,
    done_cv: Condvar,
}

// SAFETY: `body` points at a `Sync` closure and is only dereferenced while
// the submitting thread is blocked inside `parallel_for`.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claims and runs tasks until the counter is exhausted. Returns the
    /// number of tasks this thread executed. Task bodies run under the
    /// job's thread budget (restored on exit, including unwind).
    fn drain(&self) -> usize {
        let _budget = BudgetGuard::set(self.task_budget);
        let mut ran = 0;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n_tasks {
                return ran;
            }
            // SAFETY: see the struct-level invariant.
            let body = unsafe { &*self.body };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(i)));
            if let Err(payload) = outcome {
                let mut first = lock_recover(&self.panic);
                if first.is_none() {
                    *first = Some((i, payload));
                }
            }
            ran += 1;
            if self.completed.fetch_add(1, Ordering::AcqRel) + 1 == self.n_tasks {
                *lock_recover(&self.done) = true;
                self.done_cv.notify_all();
            }
        }
    }

    fn wait_done(&self) {
        let mut done = lock_recover(&self.done);
        while !*done {
            done = self
                .done_cv
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Takes the first captured panic, if any task panicked.
    fn take_panic(&self) -> Option<(usize, Box<dyn Any + Send>)> {
        lock_recover(&self.panic).take()
    }
}

/// Job queue shared between submitters and workers. Holds every in-flight
/// job; each submitter removes its own entry once the job completes.
struct Shared {
    queue: Mutex<Vec<Arc<Job>>>,
    work_cv: Condvar,
}

struct Pool {
    shared: Arc<Shared>,
    workers: usize,
}

thread_local! {
    /// Thread budget installed while a pool task body runs: how many pool
    /// threads a `parallel_for` issued from this thread may use. `0` means
    /// "not inside a pool task" and resolves to [`max_parallelism`].
    static BUDGET: Cell<usize> = const { Cell::new(0) };

    /// Index of the task whose panic [`parallel_for`] most recently
    /// re-raised on this thread (see [`last_panic_task`]).
    static LAST_PANIC_TASK: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Restores the thread budget to its previous value on drop, so the budget
/// survives an unwinding task body (a leaked budget would mis-size every
/// later `parallel_for` on this thread).
struct BudgetGuard(usize);

impl BudgetGuard {
    fn set(budget: usize) -> Self {
        BudgetGuard(BUDGET.with(|c| c.replace(budget.max(1))))
    }
}

impl Drop for BudgetGuard {
    fn drop(&mut self) {
        let was = self.0;
        BUDGET.with(|c| c.set(was));
    }
}

/// The task index of the panic most recently re-raised by [`parallel_for`]
/// on the calling thread, or `None` if no task panic has been re-raised
/// here. The payload itself is propagated verbatim via
/// [`std::panic::resume_unwind`]; this side channel preserves *where* it
/// happened.
pub fn last_panic_task() -> Option<usize> {
    LAST_PANIC_TASK.with(|c| c.get())
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let job = {
            let mut q = lock_recover(&shared.queue);
            loop {
                let claimable = q
                    .iter()
                    .filter(|j| j.next.load(Ordering::Relaxed) < j.n_tasks)
                    .max_by_key(|j| j.priority)
                    .cloned();
                match claimable {
                    Some(job) => break job,
                    None => {
                        q = shared
                            .work_cv
                            .wait(q)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
        };
        job.drain();
    }
}

/// In-process override of the pool size, consulted before `CAE_NUM_THREADS`
/// when the pool is first created.
static FORCED_POOL_SIZE: AtomicUsize = AtomicUsize::new(0);

/// Test hook: requests a pool of `threads` threads and forces the pool into
/// existence, returning the effective [`max_parallelism`]. Only the first
/// pool initialization in the process can honor the request (the pool is
/// created once), so call this before anything touches the pool; the
/// returned size tells the caller what it actually got. This replaces
/// mutating `CAE_NUM_THREADS` via `std::env::set_var` at test time, which
/// is racy under the parallel test harness.
pub fn force_pool_size(threads: usize) -> usize {
    FORCED_POOL_SIZE.store(threads.max(1), Ordering::Relaxed);
    max_parallelism()
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = match FORCED_POOL_SIZE.load(Ordering::Relaxed) {
            0 => cae_trace::knob::positive("CAE_NUM_THREADS").unwrap_or(hw),
            forced => forced,
        };
        let shared = Arc::new(Shared {
            queue: Mutex::new(Vec::new()),
            work_cv: Condvar::new(),
        });
        // The submitting thread participates, so spawn one fewer worker
        // than the target parallelism. On a single-core host this spawns
        // nothing and every kernel runs inline.
        let workers = threads.saturating_sub(1);
        for i in 0..workers {
            let sh = shared.clone();
            std::thread::Builder::new()
                .name(format!("cae-pool-{i}"))
                .spawn(move || worker_loop(sh))
                .expect("failed to spawn pool worker");
        }
        Pool { shared, workers }
    })
}

/// The number of threads the pool can apply in total (workers + the
/// calling thread).
pub fn max_parallelism() -> usize {
    pool().workers + 1
}

/// The thread budget available to a `parallel_for` issued from the calling
/// thread: the enclosing pool task's budget, or [`max_parallelism`] when
/// the caller is not a pool task. Kernels should size their parallel/serial
/// decisions from this, not from `max_parallelism`, so they stay honest
/// inside budgeted cells.
pub fn current_parallelism() -> usize {
    match BUDGET.with(|c| c.get()) {
        0 => max_parallelism(),
        budget => budget,
    }
}

fn run_task_inline<F: Fn(usize) + Sync>(body: &F, i: usize) {
    if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(i))) {
        cae_trace::counter("pool.task_panics", 1);
        LAST_PANIC_TASK.with(|c| c.set(Some(i)));
        std::panic::resume_unwind(payload);
    }
}

/// Runs `body(0..n_tasks)` across the pool as a kernel job (priority
/// [`Priority::Kernel`], nested calls degrade inline). See
/// [`parallel_for_with`].
pub fn parallel_for<F: Fn(usize) + Sync>(n_tasks: usize, body: F) {
    parallel_for_with(JobOpts::kernel(), n_tasks, body)
}

/// Runs `body(0..n_tasks)` across the pool, returning when every task has
/// finished. Executes inline when the pool is empty, `n_tasks <= 1`, or the
/// caller's thread budget is exhausted (a budget-1 pool task).
///
/// # Panics
/// If any task body panicked, the **first** panic's original payload is
/// re-raised on the calling thread via [`std::panic::resume_unwind`] after
/// every remaining task has finished, so the real failure message survives
/// intact; [`last_panic_task`] then reports the panicking task's index.
pub fn parallel_for_with<F: Fn(usize) + Sync>(opts: JobOpts, n_tasks: usize, body: F) {
    if n_tasks == 0 {
        return;
    }
    let pool = pool();
    if n_tasks == 1 {
        // A single task keeps the caller's budget: its nested kernels may
        // still fan out.
        cae_trace::counter("pool.inline_jobs", 1);
        run_task_inline(&body, 0);
        return;
    }
    if pool.workers == 0 || current_parallelism() <= 1 {
        cae_trace::counter("pool.inline_jobs", 1);
        let _budget = BudgetGuard::set(1);
        for i in 0..n_tasks {
            run_task_inline(&body, i);
        }
        return;
    }

    if cae_trace::enabled() {
        cae_trace::counters(&[("pool.jobs", 1), ("pool.tasks", n_tasks as u64)]);
        if BUDGET.with(|c| c.get()) != 0 {
            cae_trace::counter("pool.nested_jobs", 1);
        }
    }
    // SAFETY: erases the borrow's lifetime; `parallel_for_with` does not
    // return until no task can dereference `body` again (see `Job`).
    let body_erased: *const (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(&body)
    };
    let job = Arc::new(Job {
        body: body_erased,
        n_tasks,
        priority: opts.priority,
        task_budget: opts.task_budget.max(1),
        next: AtomicUsize::new(0),
        completed: AtomicUsize::new(0),
        panic: Mutex::new(None),
        done: Mutex::new(false),
        done_cv: Condvar::new(),
    });
    {
        let mut q = lock_recover(&pool.shared.queue);
        q.push(job.clone());
        if cae_trace::enabled() {
            cae_trace::gauge("pool.queue_depth", q.len() as f64);
        }
        pool.shared.work_cv.notify_all();
    }
    // Participate instead of blocking (`drain` never unwinds — panics are
    // captured per task — so the queue entry below is always removed).
    job.drain();
    job.wait_done();
    {
        let mut q = lock_recover(&pool.shared.queue);
        if let Some(pos) = q.iter().position(|j| Arc::ptr_eq(j, &job)) {
            q.swap_remove(pos);
        }
    }
    if let Some((task, payload)) = job.take_panic() {
        cae_trace::counter("pool.task_panics", 1);
        LAST_PANIC_TASK.with(|c| c.set(Some(task)));
        std::panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn executes_every_task_exactly_once() {
        let hits: Vec<AtomicU64> = (0..97).map(|_| AtomicU64::new(0)).collect();
        parallel_for(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn nested_calls_under_kernel_jobs_run_inline() {
        // Kernel tasks get budget 1, so their nested fan-outs degrade
        // inline regardless of pool size — the old behavior, preserved.
        let count = AtomicU64::new(0);
        parallel_for(4, |_| {
            assert_eq!(current_parallelism(), 1);
            parallel_for(4, |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn cell_jobs_grant_their_tasks_a_budget() {
        // Budget semantics need a real worker; the CAE_NUM_THREADS=4 CI
        // pass exercises this, a workerless pool self-skips.
        if max_parallelism() == 1 {
            return;
        }
        let budget_seen: Vec<AtomicU64> = (0..3).map(|_| AtomicU64::new(0)).collect();
        let count = AtomicU64::new(0);
        parallel_for_with(JobOpts::cell(2), 3, |i| {
            budget_seen[i].store(current_parallelism() as u64, Ordering::Relaxed);
            // With a budget > 1 this submits a real nested job instead of
            // degrading inline.
            parallel_for(5, |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 15);
        for b in &budget_seen {
            assert_eq!(b.load(Ordering::Relaxed), 2);
        }
    }

    #[test]
    fn budget_restored_after_jobs() {
        let outside = current_parallelism();
        assert_eq!(outside, max_parallelism());
        parallel_for_with(JobOpts::cell(3), 2, |_| {});
        assert_eq!(current_parallelism(), outside);
        parallel_for(4, |_| {});
        assert_eq!(current_parallelism(), outside);
    }

    #[test]
    fn single_task_keeps_the_callers_budget() {
        if max_parallelism() == 1 {
            return;
        }
        parallel_for_with(JobOpts::cell(7), 2, |_| {
            let before = current_parallelism();
            assert_eq!(before, 7);
            parallel_for(1, |_| {
                assert_eq!(current_parallelism(), before);
            });
        });
    }

    #[test]
    fn kernel_priority_orders_above_cell() {
        assert!(Priority::Kernel > Priority::Cell);
        assert_eq!(JobOpts::kernel().task_budget, 1);
        assert_eq!(JobOpts::cell(0).task_budget, 1, "budget clamps to >= 1");
    }

    #[test]
    fn zero_and_single_task() {
        parallel_for(0, |_| panic!("must not run"));
        let count = AtomicU64::new(0);
        parallel_for(1, |i| {
            assert_eq!(i, 0);
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn panic_payload_and_task_index_survive() {
        // The original panic payload — not a fresh anonymous panic — must
        // reach the submitting thread, along with which task raised it.
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_for(8, |i| {
                if i == 5 {
                    panic!("task five exploded: {}", 2 * 21);
                }
            });
        }))
        .expect_err("the task panic must propagate");
        assert_eq!(
            err.downcast_ref::<String>().map(String::as_str),
            Some("task five exploded: 42"),
            "original panic message must survive re-raising"
        );
        assert_eq!(last_panic_task(), Some(5));
    }

    #[test]
    fn pool_survives_a_panicked_job() {
        // A panicked job must not wedge the queue, leak a thread budget,
        // or poison later jobs on the same thread.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_for(4, |_| panic!("boom"));
        }));
        assert!(caught.is_err());
        assert_eq!(current_parallelism(), max_parallelism());
        for _ in 0..4 {
            let sum = AtomicU64::new(0);
            parallel_for(16, |i| {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 120);
        }
    }

    #[test]
    fn panic_inside_a_budgeted_cell_still_reports() {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_for_with(JobOpts::cell(2), 3, |i| {
                parallel_for(4, |j| {
                    if i == 1 && j == 2 {
                        panic!("nested boom");
                    }
                });
            });
        }));
        assert!(caught.is_err());
        assert_eq!(current_parallelism(), max_parallelism());
        let sum = AtomicU64::new(0);
        parallel_for(16, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 120);
    }

    #[test]
    fn back_to_back_jobs() {
        for round in 0..32u64 {
            let sum = AtomicU64::new(0);
            parallel_for(16, |i| {
                sum.fetch_add(i as u64 + round, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 120 + 16 * round);
        }
    }

    #[test]
    fn concurrent_submitters_from_plain_threads() {
        // Multiple top-level threads may now have jobs in flight at once
        // (the old single-slot mailbox serialized them).
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    for round in 0..16u64 {
                        let sum = AtomicU64::new(0);
                        parallel_for(8, |i| {
                            sum.fetch_add(i as u64 + t + round, Ordering::Relaxed);
                        });
                        assert_eq!(sum.load(Ordering::Relaxed), 28 + 8 * (t + round));
                    }
                });
            }
        });
    }
}
