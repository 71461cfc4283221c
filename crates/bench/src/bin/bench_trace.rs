//! Tracing-overhead benchmark: times a `table02` run with tracing disabled
//! (`CAE_TRACE=0`) and enabled (`CAE_TRACE=1`), checks the two reports
//! byte-for-byte — tracing is observational and must not perturb a single
//! result — and writes `BENCH_trace.json` at the repository root plus the
//! enabled run's aggregated trace summary as `TRACE_table02.json`.
//!
//! The enablement guard is read once per process, so each configuration
//! runs in a fresh child process of this same binary (the same re-exec
//! pattern as `bench_experiments`). The disabled child exercises the fully
//! instrumented build with every recording call short-circuiting on one
//! atomic load — the overhead budget DESIGN.md states (<2% wall-clock) is
//! measured here as `overhead_pct`, enabled vs disabled.
//!
//! Budget defaults to `smoke`; override with `CAE_BUDGET=smoke|fast|full`.
//! Run with `cargo run --release -p cae-bench --bin bench_trace`.

use cae_bench::{budget_from_env, budget_name, run_one};
use serde::Value;
use std::process::Command;
use std::time::Instant;

/// Budget preset when `CAE_BUDGET` is unset.
const DEFAULT_BUDGET: &str = "smoke";

const CHILD_ENV: &str = "CAE_BENCH_TRACE_CHILD";
const CHILD_TRACE_ENV: &str = "CAE_BENCH_TRACE_SUMMARY";
const CHILD_JSONL_ENV: &str = "CAE_BENCH_TRACE_JSONL";

/// Child mode: run table02, write its JSON report to the given path, and —
/// when tracing is on — the drained trace summary to `CAE_BENCH_TRACE_SUMMARY`
/// plus the raw span jsonl to `CAE_BENCH_TRACE_JSONL` (the input
/// `bench_compare`'s trace-diff attribution and `cae-dfkd trace-diff`
/// consume).
fn run_child(out_path: &str) {
    let budget = budget_from_env(DEFAULT_BUDGET);
    let report = run_one("table02", &budget);
    std::fs::write(out_path, report.to_json()).expect("failed to write child report");
    if cae_trace::enabled() {
        let trace = cae_trace::drain();
        assert!(!trace.is_empty(), "traced run recorded nothing");
        let path = std::env::var(CHILD_TRACE_ENV).expect("trace summary path missing");
        std::fs::write(&path, trace.summary_json()).expect("failed to write trace summary");
        if let Ok(jsonl_path) = std::env::var(CHILD_JSONL_ENV) {
            std::fs::write(&jsonl_path, trace.to_jsonl()).expect("failed to write raw trace");
        }
    }
}

struct Outcome {
    mode: &'static str,
    seconds: f64,
    report_json: String,
}

fn run_config(
    mode: &'static str,
    trace: &str,
    summary_path: &std::path::Path,
    jsonl_path: &std::path::Path,
) -> Outcome {
    let exe = std::env::current_exe().expect("current_exe");
    let out = std::env::temp_dir().join(format!("cae_bench_trace_{mode}.json"));
    let started = Instant::now();
    let status = Command::new(&exe)
        .env(CHILD_ENV, out.display().to_string())
        .env(CHILD_TRACE_ENV, summary_path.display().to_string())
        .env(CHILD_JSONL_ENV, jsonl_path.display().to_string())
        .env("CAE_TRACE", trace)
        .status()
        .expect("failed to spawn child");
    let seconds = started.elapsed().as_secs_f64();
    assert!(status.success(), "{mode} child exited with {status}");
    let report_json = std::fs::read_to_string(&out).expect("child report missing");
    std::fs::remove_file(&out).ok();
    Outcome { mode, seconds, report_json }
}

fn main() {
    if let Ok(out_path) = std::env::var(CHILD_ENV) {
        run_child(&out_path);
        return;
    }

    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let summary_path = std::path::Path::new(root).join("TRACE_table02.json");
    let jsonl_path = std::path::Path::new(root).join("trace_table02.jsonl");
    println!("timing table02 with tracing disabled vs enabled ...");
    let disabled = run_config("disabled", "0", &summary_path, &jsonl_path);
    println!("  CAE_TRACE=0: {:.1}s", disabled.seconds);
    let enabled = run_config("enabled", "1", &summary_path, &jsonl_path);
    println!("  CAE_TRACE=1: {:.1}s", enabled.seconds);

    let identical = disabled.report_json == enabled.report_json;
    assert!(identical, "tracing changed the table02 report — it must be observational only");
    let overhead_pct = (enabled.seconds - disabled.seconds) / disabled.seconds.max(1e-9) * 100.0;
    println!("  overhead: {overhead_pct:+.2}% (reports identical: {identical})");

    let record = |o: &Outcome| {
        Value::Object(vec![
            ("mode".to_string(), Value::String(o.mode.to_string())),
            ("seconds".to_string(), Value::Number(o.seconds)),
        ])
    };
    let json = serde_json::to_string_pretty(&Value::Object(vec![
        ("experiment".to_string(), Value::String("table02".to_string())),
        (
            "budget".to_string(),
            Value::String(budget_name(DEFAULT_BUDGET).to_owned()),
        ),
        ("runs".to_string(), Value::Array(vec![record(&disabled), record(&enabled)])),
        ("overhead_pct".to_string(), Value::Number(overhead_pct)),
        ("reports_identical".to_string(), Value::Bool(identical)),
        (
            "trace_summary".to_string(),
            Value::String("TRACE_table02.json".to_string()),
        ),
        (
            "trace_jsonl".to_string(),
            Value::String("trace_table02.jsonl".to_string()),
        ),
    ]))
    .expect("benchmark record always serializes");
    let path = std::path::Path::new(root).join("BENCH_trace.json");
    std::fs::write(&path, json + "\n").expect("failed to write BENCH_trace.json");
    println!("wrote {} and {}", path.display(), summary_path.display());
}
