//! Tracing-overhead benchmark: times a `table02` run with tracing disabled
//! and enabled, and checks the tracing contract where it measures it:
//!
//! * the two reports are byte-identical — tracing is observational and must
//!   not perturb a single result;
//! * the enabled run costs at most [`OVERHEAD_CAP_PCT`] more wall-clock than
//!   the disabled one.
//!
//! A broken contract panics, so the bin exits non-zero. Both configurations
//! run in this process, switched with `cae_trace::force_enabled` as
//! `cae-dfkd profile` does; an untimed warm-up run first populates the
//! process-global teacher cache so the timed runs are comparable. The
//! disabled run exercises the fully instrumented build with every recording
//! call short-circuiting on one relaxed atomic load.
//!
//! Budget defaults to `smoke`; override with `CAE_BUDGET=smoke|fast|full`.
//! Run with `cargo run --release -p cae-bench --bin bench_trace`.

use cae_bench::{budget_from_env, budget_name, run_one};
use cae_core::config::ExperimentBudget;
use std::time::Instant;

/// Budget preset when `CAE_BUDGET` is unset.
const DEFAULT_BUDGET: &str = "smoke";

/// Cap on the enabled-vs-disabled wall-clock overhead, in percent.
const OVERHEAD_CAP_PCT: f64 = 3.0;

/// Runs table02 with tracing forced to `traced`; returns its wall-clock
/// seconds and report JSON.
fn timed_run(traced: bool, budget: &ExperimentBudget) -> (f64, String) {
    cae_trace::force_enabled(traced);
    let started = Instant::now();
    let report = run_one("table02", budget);
    (started.elapsed().as_secs_f64(), report.to_json())
}

fn main() {
    let budget = budget_from_env(DEFAULT_BUDGET);
    println!("warming the teacher cache (untimed, untraced run) ...");
    timed_run(false, &budget);

    println!(
        "timing table02 ({} budget) with tracing disabled vs enabled ...",
        budget_name(DEFAULT_BUDGET)
    );
    let (off_seconds, off_report) = timed_run(false, &budget);
    println!("  disabled: {off_seconds:.1}s");
    let (on_seconds, on_report) = timed_run(true, &budget);
    let trace = cae_trace::drain();
    cae_trace::reset_to_env();
    println!("  enabled:  {on_seconds:.1}s");

    assert!(!trace.is_empty(), "traced run recorded nothing");
    assert!(
        off_report == on_report,
        "tracing changed the table02 report — it must be observational only"
    );
    let overhead_pct = (on_seconds - off_seconds) / off_seconds.max(1e-9) * 100.0;
    println!("  overhead: {overhead_pct:+.2}% (cap {OVERHEAD_CAP_PCT}%), reports identical");
    assert!(
        overhead_pct <= OVERHEAD_CAP_PCT,
        "tracing overhead {overhead_pct:.2}% exceeds the {OVERHEAD_CAP_PCT}% cap"
    );
}
