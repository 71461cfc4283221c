//! Tracing-overhead benchmark: times `table02` runs with tracing disabled
//! and enabled, and checks the tracing contract where it measures it:
//!
//! * every traced report is byte-identical to its untraced partner —
//!   tracing is observational and must not perturb a single result;
//! * the median per-pair overhead of the enabled run over the disabled one
//!   is at most [`OVERHEAD_CAP_PCT`] of wall-clock.
//!
//! A broken contract panics, so the bin exits non-zero. Both configurations
//! run in this process, switched with `cae_trace::force_enabled` as
//! `cae-dfkd profile` does; an untimed warm-up run first populates the
//! process-global teacher cache so the timed runs are comparable. The
//! disabled run exercises the fully instrumented build with every recording
//! call short-circuiting on one relaxed atomic load.
//!
//! One table02 run varies by 10% or more between identical runs on a
//! loaded host, so a single pair cannot resolve a 3% bound: the bin times
//! [`PAIRS`] pairs, alternating which side runs first so drift in host
//! speed falls on both sides, and gates the median of the per-pair
//! overheads.
//!
//! Budget defaults to `smoke`; override with `CAE_BUDGET=smoke|fast|full`.
//! Run with `cargo run --release -p cae-bench --bin bench_trace`.

use cae_bench::{budget_from_env, budget_name, run_one};
use cae_core::config::ExperimentBudget;
use std::time::Instant;

/// Budget preset when `CAE_BUDGET` is unset.
const DEFAULT_BUDGET: &str = "smoke";

/// Cap on the median enabled-vs-disabled wall-clock overhead, in percent.
const OVERHEAD_CAP_PCT: f64 = 3.0;

/// Untraced/traced pairs timed; odd so the median is one measured pair.
const PAIRS: usize = 5;

/// Runs table02 with tracing forced to `traced`; returns its wall-clock
/// seconds and report JSON. A traced run's trace is drained (outside the
/// timed region) and must not be empty.
fn timed_run(traced: bool, budget: &ExperimentBudget) -> (f64, String) {
    cae_trace::force_enabled(traced);
    let started = Instant::now();
    let report = run_one("table02", budget);
    let seconds = started.elapsed().as_secs_f64();
    if traced {
        assert!(
            !cae_trace::drain().is_empty(),
            "traced run recorded nothing"
        );
    }
    (seconds, report.to_json())
}

fn main() {
    let budget = budget_from_env(DEFAULT_BUDGET);
    println!("warming the teacher cache (untimed, untraced run) ...");
    timed_run(false, &budget);

    println!(
        "timing {PAIRS} pairs of table02 ({} budget) with tracing disabled vs enabled ...",
        budget_name(DEFAULT_BUDGET)
    );
    let mut overheads = Vec::with_capacity(PAIRS);
    for pair in 0..PAIRS {
        let traced_first = pair % 2 == 1;
        let first = timed_run(traced_first, &budget);
        let second = timed_run(!traced_first, &budget);
        let ((off_seconds, off_report), (on_seconds, on_report)) = if traced_first {
            (second, first)
        } else {
            (first, second)
        };
        assert!(
            off_report == on_report,
            "tracing changed the table02 report in pair {pair} — it must be observational only"
        );
        let overhead_pct = (on_seconds - off_seconds) / off_seconds.max(1e-9) * 100.0;
        println!(
            "  pair {pair} ({} first): disabled {off_seconds:.2}s, enabled {on_seconds:.2}s, \
             overhead {overhead_pct:+.2}%",
            if traced_first { "enabled" } else { "disabled" }
        );
        overheads.push(overhead_pct);
    }
    cae_trace::reset_to_env();

    overheads.sort_by(f64::total_cmp);
    let median_pct = overheads[PAIRS / 2];
    println!("  median overhead: {median_pct:+.2}% (cap {OVERHEAD_CAP_PCT}%), reports identical");
    assert!(
        median_pct <= OVERHEAD_CAP_PCT,
        "median tracing overhead {median_pct:.2}% exceeds the {OVERHEAD_CAP_PCT}% cap"
    );
}
