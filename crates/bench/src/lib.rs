//! # cae-bench
//!
//! Contract benchmarks and diagnostics for the CAE-DFKD reproduction. Paper
//! tables and figures are regenerated by `cae-dfkd table <id>|all`, not here.
//!
//! * The `bench_*` bins each measure one contract and check it where they
//!   measure it, exiting non-zero when it breaks: `bench_kernels` (blocked
//!   vs naive kernel speedups, gated against the committed
//!   `BENCH_kernels.json` before it is overwritten), `bench_trace`
//!   (tracing overhead and report identity), `bench_faults` (fault
//!   isolation and exact recovery), `bench_experiments` (the cell-parallel
//!   scaling curve) and `bench_serve` (dynamic-batching throughput, p99,
//!   int8 accuracy and batch-invariant predictions). `BENCH_kernels.json`
//!   is the only record they write; end-to-end numbers come from
//!   `perfbench/`.
//! * `debug_dfkd` prints an epoch-by-epoch DFKD loss/accuracy trace, and
//!   `render_synthetics` writes generator samples as images.

use cae_core::config::{Config, ExperimentBudget};
use cae_core::report::Report;
use std::path::PathBuf;

/// The budget preset name a bin runs at: `CAE_BUDGET` if set, else
/// `default_name`. Bins print this name next to their measurements.
pub fn budget_name(default_name: &str) -> &str {
    Config::get().budget.as_deref().unwrap_or(default_name)
}

/// The experiment budget named by [`budget_name`] (`smoke` / `fast` /
/// `full`).
///
/// # Panics
/// Panics if `CAE_BUDGET` holds an unknown name.
pub fn budget_from_env(default_name: &str) -> ExperimentBudget {
    let name = budget_name(default_name);
    ExperimentBudget::from_name(name)
        .unwrap_or_else(|| panic!("unknown CAE_BUDGET '{name}' (expected smoke|fast|full)"))
}

/// Directory where JSON report artifacts are written (`CAE_RESULTS_DIR`,
/// default `results/`).
pub fn results_dir() -> PathBuf {
    PathBuf::from(Config::get().results_dir.as_deref().unwrap_or("results"))
}

/// `struct timeval` as laid out on 64-bit Linux.
#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as laid out on 64-bit Linux: the two CPU times, then 14
/// counters this crate does not read.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User plus system CPU time of the whole process so far (every thread,
/// the tensor pool's workers included), in seconds.
///
/// # Panics
/// Panics if `getrusage` fails.
pub fn cpu_seconds() -> f64 {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage`; 0 is RUSAGE_SELF.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&usage.utime) + secs(&usage.stime)
}

/// Runs one experiment by registry id, traced (shared by the bins).
///
/// # Panics
/// Panics with the known ids for unknown names, and with the runner's
/// original panic message if the experiment itself failed (a bench bin
/// wants loud failure; [`run_by_id`](cae_core::experiments::run_by_id)
/// returns the typed error for callers that continue).
pub fn run_one(name: &str, budget: &ExperimentBudget) -> Report {
    use cae_core::experiments as ex;
    match ex::run_by_id(name, budget) {
        Some(Ok(report)) => report,
        Some(Err(e)) => panic!("{e}"),
        None => {
            let known: Vec<&str> = ex::registry().iter().map(|e| e.id).collect();
            panic!("unknown experiment '{name}' (known: {})", known.join("|"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_seconds_advance_with_work() {
        let before = cpu_seconds();
        let started = std::time::Instant::now();
        let mut x = 1u64;
        while started.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let spent = cpu_seconds() - before;
        assert!(spent > 0.01 && spent < 10.0, "50 ms of spinning took {spent} s of CPU");
    }

    #[test]
    fn run_one_rejects_unknown_ids_with_the_known_list() {
        let err = std::panic::catch_unwind(|| {
            run_one("tableXX", &ExperimentBudget::smoke());
        })
        .expect_err("unknown id must panic");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("table02") && msg.contains("ablations"), "{msg}");
    }
}
