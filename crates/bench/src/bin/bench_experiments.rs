//! Cell-parallel scheduler benchmark: measures a 1/2/4-thread table02
//! scaling curve and checks the scaling contract where it measures it.
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
//! Points above the host's parallelism are **skipped loudly**, and only
//! those — time-slicing N pool threads on fewer cores measures scheduler
//! noise, not scaling. Every measured parallel point must reproduce the
//! serial report byte-for-byte (per-cell seeding means thread count must
//! never change a result) and clear its speedup floor
//! ([`SPEEDUP_FLOOR_2T`] at 2 threads, [`SPEEDUP_FLOOR_4T`] at 4). A broken
//! contract panics, so the bin exits non-zero.
//!
//! Budget defaults to `fast`; override with `CAE_BUDGET=smoke|fast|full`.
//! Run with `cargo run --release -p cae-bench --bin bench_experiments`.

use cae_bench::{budget_from_env, run_one};
use std::process::Command;
use std::time::Instant;

/// Budget preset when `CAE_BUDGET` is unset.
const DEFAULT_BUDGET: &str = "fast";

const CHILD_ENV: &str = "CAE_BENCH_EXPERIMENTS_CHILD";

/// The thread counts the curve samples (1 is the serial baseline).
const CURVE_THREADS: [usize; 3] = [1, 2, 4];

/// Floor on the measured 2-thread speedup over serial: two real cores must
/// buy a real speedup, not the ~1.0× of two threads time-slicing one core.
const SPEEDUP_FLOOR_2T: f64 = 1.5;

/// Floor on measured points at 4+ threads. Sub-linear headroom is expected
/// (shared caches, cells not a multiple of the thread count), so the floor
/// grows slower than the thread count.
const SPEEDUP_FLOOR_4T: f64 = 1.8;

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

    let mut measured = 0;
    for &threads in CURVE_THREADS.iter().filter(|&&t| t > 1) {
        if threads > host {
            println!("  {threads} threads: skipped (host parallelism {host} < {threads})");
            continue;
        }
        let point = run_config(threads);
        assert!(
            point.report_json == serial.report_json,
            "{threads}-thread report differs from serial — per-cell seeding is broken"
        );
        let speedup = serial.seconds / point.seconds.max(1e-9);
        let floor = if threads >= 4 { SPEEDUP_FLOOR_4T } else { SPEEDUP_FLOOR_2T };
        println!(
            "  {threads} threads: {:.1}s ({speedup:.2}x, floor {floor}x, reports identical)",
            point.seconds
        );
        assert!(
            speedup >= floor,
            "{threads}-thread speedup {speedup:.2}x is below its {floor}x floor"
        );
        measured += 1;
    }
    // Checked apart from the skip branch so an edit to it cannot silently
    // stop measuring points the host has the cores for.
    let measurable = CURVE_THREADS.iter().filter(|&&t| t > 1 && t <= host).count();
    assert_eq!(measured, measurable, "scaling went unmeasured on a host with {host} cores");
}
