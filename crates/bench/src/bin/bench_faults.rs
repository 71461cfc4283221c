//! Fault-recovery benchmark: runs `table02` clean, with deterministic
//! fault injection and no retries (partial table, `FAILED(...)` rows), and
//! with injection plus ample retries (full recovery), then checks the
//! recovered report byte-for-byte against the clean one — retries re-run a
//! cell under its identical derived seed, so successful recovery must not
//! change a single result. Prints per-mode wall-clock and the recovery
//! overhead, and checks the fault contract where it measures it: injection
//! still produces `FAILED(...)` rows carrying the panic message, recovery
//! is byte-identical, and recovery costs at most
//! [`RECOVERY_OVERHEAD_CAP_PCT`]. A broken contract panics, so the bin
//! exits non-zero.
//!
//! The retry policy is installed per configuration through the typed
//! [`force_fault_policy`] override (the environment is a parse-once
//! snapshot, so mutating it mid-process would have no effect), letting all
//! three configurations run in this process (no re-exec needed); an
//! untimed warm-up run first populates the process-global teacher cache so
//! the timed runs are comparable.
//!
//! Budget defaults to `smoke`; override with `CAE_BUDGET=smoke|fast|full`.
//! Run with `cargo run --release -p cae-bench --bin bench_faults`.

use cae_bench::{budget_from_env, run_one};
use cae_core::config::ExperimentBudget;
use cae_core::experiments::scheduler::{force_fault_policy, FaultPolicy};
use std::time::Instant;

/// Budget preset when `CAE_BUDGET` is unset.
const DEFAULT_BUDGET: &str = "smoke";

/// Injection knob used for the faulty/recovered runs: ~20% of cell
/// attempts panic, deterministically in the (cell seed, attempt) pair.
const INJECT: (f32, u64) = (0.2, 7);

/// Cap on the retried run's wall-clock overhead over the clean run, in
/// percent: the last committed smoke-budget record's overhead (−2.09%) plus
/// 50 points of slack for host noise.
const RECOVERY_OVERHEAD_CAP_PCT: f64 = -2.093_984_258_205_096 + 50.0;

struct Outcome {
    seconds: f64,
    report_json: String,
}

fn run_mode(mode: &str, policy: FaultPolicy, budget: &ExperimentBudget) -> Outcome {
    force_fault_policy(Some(policy));
    let started = Instant::now();
    let report = run_one("table02", budget);
    let seconds = started.elapsed().as_secs_f64();
    println!("  {mode}: {seconds:.1}s");
    Outcome { seconds, report_json: report.to_json() }
}

fn main() {
    let budget = budget_from_env(DEFAULT_BUDGET);

    println!("warming the teacher cache (untimed clean run) ...");
    run_mode("warmup", FaultPolicy::NONE, &budget);

    println!("timing table02 clean / injected / injected+retries ...");
    let clean = run_mode("clean", FaultPolicy::NONE, &budget);
    let faulty = run_mode("faulty", FaultPolicy { retries: 0, inject: Some(INJECT) }, &budget);
    let recovered =
        run_mode("recovered", FaultPolicy { retries: 20, inject: Some(INJECT) }, &budget);
    force_fault_policy(None);

    let failed_rows = faulty.report_json.matches("FAILED(").count();
    assert!(
        failed_rows > 0,
        "injection {INJECT:?} produced no FAILED rows — the fault path was not exercised"
    );
    assert!(
        faulty.report_json.contains("injected fault"),
        "FAILED rows must carry the original panic message"
    );
    assert_eq!(
        recovered.report_json, clean.report_json,
        "recovered run must be byte-identical to the clean run"
    );
    let recovery_overhead_pct =
        (recovered.seconds - clean.seconds) / clean.seconds.max(1e-9) * 100.0;
    println!(
        "  faulty run: {failed_rows} FAILED row(s); recovery overhead: \
         {recovery_overhead_pct:+.2}% (cap {RECOVERY_OVERHEAD_CAP_PCT:.2}%, reports identical)"
    );
    assert!(
        recovery_overhead_pct <= RECOVERY_OVERHEAD_CAP_PCT,
        "recovery overhead {recovery_overhead_pct:.2}% exceeds the \
         {RECOVERY_OVERHEAD_CAP_PCT:.2}% cap"
    );
}
