//! Tracing-overhead benchmark: times `table02` runs with tracing disabled
//! and enabled, and checks the tracing contract where it measures it:
//!
//! * every traced report is byte-identical to its untraced partner —
//!   tracing is observational and must not perturb a single result;
//! * the median per-pair overhead of the enabled run over the disabled one
//!   is at most [`OVERHEAD_CAP_PCT`] of process CPU time.
//!
//! A broken contract panics, so the bin exits non-zero. Both configurations
//! run in this process, switched with `cae_trace::force_enabled` as
//! `cae-dfkd profile` does; an untimed warm-up run first populates the
//! process-global teacher cache so the timed runs are comparable. The
//! disabled run exercises the fully instrumented build with every recording
//! call short-circuiting on one relaxed atomic load.
//!
//! One table02 run's wall clock varies by 10% or more between identical
//! runs on a loaded host — time the process waits for a core counts, and
//! tracing costs CPU, not waiting — so the gate reads the process's CPU
//! time (`getrusage`, every thread) and prints the wall clock beside it.
//! A single pair still cannot resolve a 3% bound: the bin times [`PAIRS`]
//! pairs, alternating which side runs first so drift in host speed falls
//! on both sides, and gates the median of the per-pair CPU overheads.
//!
//! Budget defaults to `smoke`; override with `CAE_BUDGET=smoke|fast|full`.
//! Run with `cargo run --release -p cae-bench --bin bench_trace`.

use cae_bench::{budget_from_env, budget_name, cpu_seconds, run_one};
use cae_core::config::ExperimentBudget;
use std::time::Instant;

/// Budget preset when `CAE_BUDGET` is unset.
const DEFAULT_BUDGET: &str = "smoke";

/// Cap on the median enabled-vs-disabled CPU-time overhead, in percent.
const OVERHEAD_CAP_PCT: f64 = 3.0;

/// Untraced/traced pairs timed; odd so the median is one measured pair.
const PAIRS: usize = 5;

/// One timed table02 run.
struct Run {
    wall_s: f64,
    cpu_s: f64,
    report: String,
}

/// Runs table02 with tracing forced to `traced`. A traced run's trace is
/// drained (outside the timed region) and must not be empty.
fn timed_run(traced: bool, budget: &ExperimentBudget) -> Run {
    cae_trace::force_enabled(traced);
    let (started, cpu_before) = (Instant::now(), cpu_seconds());
    let report = run_one("table02", budget);
    let (wall_s, cpu_s) = (started.elapsed().as_secs_f64(), cpu_seconds() - cpu_before);
    if traced {
        assert!(
            !cae_trace::drain().is_empty(),
            "traced run recorded nothing"
        );
    }
    Run { wall_s, cpu_s, report: report.to_json() }
}

/// `on` over `off` in percent.
fn overhead_pct(on: f64, off: f64) -> f64 {
    (on - off) / off.max(1e-9) * 100.0
}

fn main() {
    let budget = budget_from_env(DEFAULT_BUDGET);
    println!("warming the teacher cache (untimed, untraced run) ...");
    timed_run(false, &budget);

    println!(
        "timing {PAIRS} pairs of table02 ({} budget) with tracing disabled vs enabled ...",
        budget_name(DEFAULT_BUDGET)
    );
    let (mut cpu_overheads, mut wall_overheads) = (Vec::new(), Vec::new());
    for pair in 0..PAIRS {
        let traced_first = pair % 2 == 1;
        let first = timed_run(traced_first, &budget);
        let second = timed_run(!traced_first, &budget);
        let (off, on) = if traced_first { (second, first) } else { (first, second) };
        assert!(
            off.report == on.report,
            "tracing changed the table02 report in pair {pair} — it must be observational only"
        );
        let (cpu_pct, wall_pct) =
            (overhead_pct(on.cpu_s, off.cpu_s), overhead_pct(on.wall_s, off.wall_s));
        println!(
            "  pair {pair} ({} first): cpu disabled {:.2}s, enabled {:.2}s, overhead {cpu_pct:+.2}% \
             | wall disabled {:.2}s, enabled {:.2}s, overhead {wall_pct:+.2}%",
            if traced_first { "enabled" } else { "disabled" },
            off.cpu_s,
            on.cpu_s,
            off.wall_s,
            on.wall_s,
        );
        cpu_overheads.push(cpu_pct);
        wall_overheads.push(wall_pct);
    }
    cae_trace::reset_to_env();

    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[PAIRS / 2]
    };
    let (cpu_pct, wall_pct) = (median(cpu_overheads), median(wall_overheads));
    println!(
        "  median overhead: cpu {cpu_pct:+.2}% (cap {OVERHEAD_CAP_PCT}%), wall {wall_pct:+.2}% \
         (not gated), reports identical"
    );
    assert!(
        cpu_pct <= OVERHEAD_CAP_PCT,
        "median tracing CPU overhead {cpu_pct:.2}% exceeds the {OVERHEAD_CAP_PCT}% cap"
    );
}
