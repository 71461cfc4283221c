//! Cell-parallel scheduler benchmark: measures a 1/2/4-thread table02
//! scaling curve and writes `BENCH_experiments.json` at the repository
//! root.
//!
//! The tensor pool is sized once per process (`CAE_NUM_THREADS`), so each
//! curve point runs in a fresh child process of this same binary:
//!
//! * 1 thread  — `CAE_NUM_THREADS=1`, `CAE_CELL_PARALLEL=0`: every cell on
//!   one thread, the seed-equivalent baseline;
//! * 2/4 threads — `CAE_NUM_THREADS=<t>`, `CAE_CELL_PARALLEL=1`: whole
//!   cells fan out over the pool, with the cooperative per-cell thread
//!   budgets letting surplus workers help inside cells.
//!
//! Points above the host's parallelism are **skipped and marked as such**
//! in the JSON — time-slicing N pool threads on fewer cores measures
//! scheduler noise, not scaling, and `bench_compare` must not gate on it
//! (`host_parallelism` records why). Besides wall-clock, every measured
//! parallel point is checked byte-for-byte against the serial report —
//! per-cell seeding means thread count must never change a result.
//!
//! Budget defaults to `fast`; override with `CAE_BUDGET=smoke|fast|full`.
//! Run with `cargo run --release -p cae-bench --bin bench_experiments`.

use cae_bench::{budget_from_env, budget_name, run_one};
use serde::Value;
use std::process::Command;
use std::time::Instant;

/// Budget preset when `CAE_BUDGET` is unset.
const DEFAULT_BUDGET: &str = "fast";

const CHILD_ENV: &str = "CAE_BENCH_EXPERIMENTS_CHILD";

/// The thread counts the curve samples (1 is the serial baseline).
const CURVE_THREADS: [usize; 3] = [1, 2, 4];

/// Child mode: run table02 and write its JSON report to the given path.
fn run_child(out_path: &str) {
    let budget = budget_from_env(DEFAULT_BUDGET);
    let report = run_one("table02", &budget);
    std::fs::write(out_path, report.to_json()).expect("failed to write child report");
}

struct Outcome {
    seconds: f64,
    report_json: String,
}

/// Parent mode: re-exec this binary once per curve point and time it.
fn run_config(threads: usize) -> Outcome {
    let exe = std::env::current_exe().expect("current_exe");
    let out = std::env::temp_dir().join(format!("cae_bench_experiments_{threads}t.json"));
    let started = Instant::now();
    let status = Command::new(&exe)
        .env(CHILD_ENV, out.display().to_string())
        .env("CAE_NUM_THREADS", threads.to_string())
        .env("CAE_CELL_PARALLEL", if threads == 1 { "0" } else { "1" })
        .status()
        .expect("failed to spawn child");
    let seconds = started.elapsed().as_secs_f64();
    assert!(status.success(), "{threads}-thread child exited with {status}");
    let report_json = std::fs::read_to_string(&out).expect("child report missing");
    std::fs::remove_file(&out).ok();
    Outcome { seconds, report_json }
}

fn main() {
    if let Ok(out_path) = std::env::var(CHILD_ENV) {
        run_child(&out_path);
        return;
    }

    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("host parallelism: {host}; measuring a {CURVE_THREADS:?}-thread table02 scaling curve");

    let serial = run_config(1);
    println!("  1 thread:  {:.1}s (serial baseline)", serial.seconds);

    let mut curve: Vec<Value> = vec![Value::Object(vec![
        ("mode".to_string(), Value::String("serial".to_string())),
        ("threads".to_string(), Value::Number(1.0)),
        ("seconds".to_string(), Value::Number(serial.seconds)),
        ("skipped".to_string(), Value::Bool(false)),
    ])];
    let mut reports_identical = true;
    let mut best_speedup: Option<f64> = None;

    for &threads in CURVE_THREADS.iter().filter(|&&t| t > 1) {
        if threads > host {
            // Time-slicing more pool threads than cores measures scheduler
            // noise, not scaling: record the point as skipped so the
            // regression gate knows it was never measured.
            println!("  {threads} threads: skipped (host parallelism {host} < {threads})");
            curve.push(Value::Object(vec![
                ("mode".to_string(), Value::String("parallel".to_string())),
                ("threads".to_string(), Value::Number(threads as f64)),
                ("skipped".to_string(), Value::Bool(true)),
                (
                    "reason".to_string(),
                    Value::String(format!("host_parallelism {host} < {threads}")),
                ),
            ]));
            continue;
        }
        let point = run_config(threads);
        let identical = point.report_json == serial.report_json;
        assert!(
            identical,
            "{threads}-thread report differs from serial — per-cell seeding is broken"
        );
        reports_identical &= identical;
        let speedup = serial.seconds / point.seconds.max(1e-9);
        println!("  {threads} threads: {:.1}s ({speedup:.2}x, reports identical)", point.seconds);
        best_speedup = Some(best_speedup.map_or(speedup, |b: f64| b.max(speedup)));
        curve.push(Value::Object(vec![
            ("mode".to_string(), Value::String("parallel".to_string())),
            ("threads".to_string(), Value::Number(threads as f64)),
            ("seconds".to_string(), Value::Number(point.seconds)),
            ("skipped".to_string(), Value::Bool(false)),
            ("speedup".to_string(), Value::Number(speedup)),
        ]));
    }

    let mut record = vec![
        ("experiment".to_string(), Value::String("table02".to_string())),
        (
            "budget".to_string(),
            Value::String(budget_name(DEFAULT_BUDGET).to_owned()),
        ),
        ("host_parallelism".to_string(), Value::Number(host as f64)),
        ("curve".to_string(), Value::Array(curve)),
        ("reports_identical".to_string(), Value::Bool(reports_identical)),
    ];
    if let Some(speedup) = best_speedup {
        record.push(("best_speedup".to_string(), Value::Number(speedup)));
    }
    let json = serde_json::to_string_pretty(&Value::Object(record))
        .expect("benchmark record always serializes");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_experiments.json");
    std::fs::write(path, json + "\n").expect("failed to write BENCH_experiments.json");
    println!("wrote {path}");
}
