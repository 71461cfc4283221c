//! Tracing-overhead benchmark: times `table02` runs with tracing disabled
//! and enabled, and checks the tracing contract where it measures it:
//!
//! * every traced report is byte-identical to its untraced partner —
//!   tracing is observational and must not perturb a single result;
//! * the balanced overhead of the enabled run over the disabled one (see
//!   below) is at most [`OVERHEAD_CAP_PCT`] of process CPU time.
//!
//! A broken contract panics, so the bin exits non-zero. Both configurations
//! run in this process, switched with `cae_trace::force_enabled`; an
//! untimed warm-up run first populates the process-global teacher cache so
//! the timed runs are comparable. The disabled run exercises the fully
//! instrumented build with every recording call short-circuiting on one
//! relaxed atomic load.
//!
//! One table02 run's wall clock varies by 10% or more between identical
//! runs on a loaded host — time the process waits for a core counts, and
//! tracing costs CPU, not waiting — so the gate reads the process's CPU
//! time (`getrusage`, every thread) and prints the wall clock beside it.
//! A single pair still cannot resolve a 3% bound, and the second run of a
//! pair tends to be the faster one by more than the cap. So the bin times
//! an even number of pairs, [`PAIRS`], half with the disabled run first
//! and half with the enabled run first, takes the median overhead within
//! each order, and gates the mean of the two medians: a run-order effect
//! adds to one median what it takes from the other and cancels. Half the
//! medians' difference is that order effect, and it is printed.
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

/// Untraced/traced pairs timed: even, so each run order gets half, and
/// odd within each order, so each per-order median is one measured pair.
const PAIRS: usize = 6;

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

    let (cpu_pct, cpu_order) = balanced(&cpu_overheads);
    let (wall_pct, wall_order) = balanced(&wall_overheads);
    println!(
        "  balanced overhead: cpu {cpu_pct:+.2}% (cap {OVERHEAD_CAP_PCT}%, order effect \
         {cpu_order:+.2} pts), wall {wall_pct:+.2}% (not gated, order effect {wall_order:+.2} pts), \
         reports identical"
    );
    assert!(
        cpu_pct <= OVERHEAD_CAP_PCT,
        "balanced tracing CPU overhead {cpu_pct:.2}% exceeds the {OVERHEAD_CAP_PCT}% cap"
    );
}

/// `(mean of the two per-order medians, half their difference)` of
/// per-pair overheads whose even indices ran the disabled side first and
/// odd indices the enabled side first. The second figure is the run-order
/// effect, positive when the run that goes second is the faster one.
fn balanced(overheads: &[f64]) -> (f64, f64) {
    let median = |first: usize| {
        let mut v: Vec<f64> = overheads.iter().skip(first).step_by(2).copied().collect();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (disabled_first, enabled_first) = (median(0), median(1));
    ((disabled_first + enabled_first) / 2.0, (enabled_first - disabled_first) / 2.0)
}
