//! # cae-bench
//!
//! Benchmark harness regenerating every table and figure of the CAE-DFKD
//! paper.
//!
//! * `cargo bench -p cae-bench` runs two harnesses:
//!   * `tables` — regenerates **every** paper table/figure at the budget
//!     selected by the `CAE_BUDGET` env var (`smoke`, `fast` — default, or
//!     `full`) and prints the same rows/series the paper reports;
//!   * `kernels` — Criterion micro-benchmarks of the hot kernels (conv,
//!     matmul, CEND sampling, CNCL loss, generator/student steps, memory
//!     bank).
//! * `cargo run -p cae-bench --release --bin table02` (… `table01`–`table11`,
//!   `fig02`, `fig05`, `all_tables`) regenerates one table at the `full`
//!   budget (or the `CAE_BUDGET` override) and writes the JSON artifact to
//!   `results/`.
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

/// Prints a report and persists its JSON artifact; used by every bin.
/// When tracing is enabled, also drains the trace accumulated while the
/// report was produced and writes `trace_<stem>.jsonl` plus
/// `TRACE_<stem>.json` next to the report JSON.
pub fn emit(report: &Report) {
    println!("{report}");
    match report.save_json(&results_dir()) {
        Ok(path) => println!("  saved: {}\n", path.display()),
        Err(e) => eprintln!("  could not save JSON artifact: {e}\n"),
    }
    export_trace(&report.file_stem());
}

/// Drains the trace (if tracing is enabled and anything was recorded) and
/// writes its JSONL + summary artifacts under [`results_dir`]. Returns the
/// summary path when one was written.
pub fn export_trace(stem: &str) -> Option<std::path::PathBuf> {
    if !cae_trace::enabled() {
        return None;
    }
    let trace = cae_trace::drain();
    if trace.is_empty() {
        return None;
    }
    match trace.save(&results_dir(), stem) {
        Ok((jsonl, summary)) => {
            println!("  trace: {} + {}\n", jsonl.display(), summary.display());
            Some(summary)
        }
        Err(e) => {
            eprintln!("  could not save trace artifacts: {e}\n");
            None
        }
    }
}

/// Runs one experiment by registry id, traced (shared by the bins).
///
/// # Panics
/// Panics with the known ids for unknown names, and with the runner's
/// original panic message if the experiment itself failed (single-table
/// bins want loud failure; [`run_by_id`](cae_core::experiments::run_by_id)
/// returns the typed error for callers like `all_tables` that continue).
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

/// Whether checkpoint/resume is enabled for sweep bins. Defaults to on;
/// an off-token in `CAE_RESUME` forces every experiment to re-run.
pub fn resume_enabled() -> bool {
    Config::get().resume
}

/// Checks whether `entry` already has a completed report artifact under
/// [`results_dir`] and returns its path if so. "Completed" means the file
/// exists *and* parses back as a [`Report`] — a torn artifact from an
/// interrupted earlier run is treated as absent and re-run.
pub fn completed_artifact(entry: &cae_core::experiments::ExperimentEntry) -> Option<PathBuf> {
    completed_artifact_in(&results_dir(), entry)
}

fn completed_artifact_in(
    dir: &std::path::Path,
    entry: &cae_core::experiments::ExperimentEntry,
) -> Option<PathBuf> {
    let path = dir.join(format!("{}.json", entry.artifact_stem));
    let json = std::fs::read_to_string(&path).ok()?;
    Report::from_json(&json).ok()?;
    Some(path)
}

/// Registry ids of the paper's tables and figures, in paper order.
pub fn paper_experiment_ids() -> Vec<&'static str> {
    cae_core::experiments::registry()
        .iter()
        .filter(|e| e.in_paper)
        .map(|e| e.id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_one_rejects_unknown_ids_with_the_known_list() {
        let err = std::panic::catch_unwind(|| {
            run_one("tableXX", &ExperimentBudget::smoke());
        })
        .expect_err("unknown id must panic");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("table02") && msg.contains("ablations"), "{msg}");
    }

    #[test]
    fn paper_ids_come_from_the_registry() {
        let ids = paper_experiment_ids();
        assert_eq!(ids.len(), 13);
        assert_eq!(ids[0], "table01");
        assert!(!ids.contains(&"ablations"));
    }

    #[test]
    fn completed_artifact_requires_a_parseable_report() {
        let entry = cae_core::experiments::find("table02").expect("registered");
        let dir = std::env::temp_dir().join(format!("cae_resume_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("table_ii.json");

        // No artifact yet: not completed.
        std::fs::remove_file(&path).ok();
        assert_eq!(completed_artifact_in(&dir, entry), None);

        // Torn artifact (interrupted write): treated as absent.
        std::fs::write(&path, "{\"id\": \"Table II\", \"tru").expect("write");
        assert_eq!(completed_artifact_in(&dir, entry), None, "torn JSON must not count");

        // A real report artifact counts.
        let mut report = cae_core::report::Report::new("Table II", "demo", &["a"]);
        report.push_row("x", [1.0]);
        report.save_json(&dir).expect("save");
        assert_eq!(completed_artifact_in(&dir, entry), Some(path));
        std::fs::remove_dir_all(&dir).ok();
    }
}
