//! Repository benchmark for the CAE-DFKD reproduction.
//!
//! ```text
//! perfbench --workload <table02|serve-heavy|serve-light> --seed <n> --seconds <s> --trace <0|1> [--record <file>]
//! perfbench compare <before-record> <after-record>
//! perfbench reference        # prints the seed-7 table02 report
//! ```
//!
//! A run prints human-readable lines, then one JSON result line. With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it runs
//! under `CAE_TRACE=1` and reports the per-layer ledger instead. It exits 1
//! when an output check fails. See `perfbench/README.md`.

mod ledger;
mod record;
mod serve;
mod stats;
mod sys;
mod table;

use record::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false, record: None };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--record" => parsed.record = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !["table02", "serve-heavy", "serve-light"].contains(&parsed.workload.as_str()) {
        return Err(format!("unknown workload {:?}", parsed.workload));
    }
    Ok(parsed)
}

/// Every `CAE_*` knob at its default, except the per-run isolation paths
/// (and `CAE_TRACE` for the traced run). Must run before any crate reads
/// its configuration.
fn isolate(run_dir: &std::path::Path, trace: bool) {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("CAE_") {
            std::env::remove_var(&key);
        }
    }
    std::env::set_var("CAE_AUTOTUNE_CACHE", run_dir.join("autotune.txt"));
    std::env::set_var("CAE_RESULTS_DIR", run_dir.join("results"));
    if trace {
        std::env::set_var("CAE_TRACE", "1");
    }
}

fn run_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("runs")
        .join(format!("{tag}-p{}", std::process::id()));
    std::fs::create_dir_all(dir.join("results")).expect("create the run directory");
    dir
}

fn compare(before: &str, after: &str) -> ExitCode {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| record::parse_record(&t))
    };
    match read(before).and_then(|a| read(after).and_then(|b| record::compare(&a, &b))) {
        Ok(table) => {
            print!("{table}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") if argv.len() == 3 => return compare(&argv[1], &argv[2]),
        Some("reference") => {
            let dir = run_dir("reference");
            isolate(&dir, false);
            let regen = table::regenerate(table::REFERENCE_SEED);
            let _ = std::fs::remove_dir_all(&dir);
            println!("{}", regen.report.expect("the reference run must not fail").to_json().trim_end());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = run_dir(&format!("{}-s{}-t{}", args.workload, args.seed, u8::from(args.trace)));
    isolate(&dir, args.trace);
    let host = sys::host_facts();
    let facts: Vec<String> = host.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("host {}", facts.join(" "));

    let rps = if args.workload == "serve-heavy" { serve::HEAVY_RPS } else { serve::LIGHT_RPS };
    let outcome: Outcome = match (args.workload.as_str(), args.trace) {
        ("table02", false) => table::timed_run(args.seed, args.seconds),
        ("table02", true) => ledger::table02(args.seed),
        (_, false) => {
            let s = serve::setup(args.seed);
            let due = serve::schedule(args.seed, rps, args.seconds);
            let w = serve::drive(&s.server, &s.images, &s.expected, &due, std::time::Instant::now());
            if w.samples.len() as u64 == w.sent {
                s.server.shutdown();
            }
            if let Some(p99) = stats::percentile(&w.samples.iter().map(|s| s.latency_us).collect::<Vec<f64>>(), 0.99) {
                println!("client latency p99 {:.6} ms (ledger only, see README)", p99 / 1e3);
            }
            serve::end_to_end(s.seconds.total, &w, args.seconds)
        }
        (_, true) => ledger::serve(args.seed, rps, args.seconds),
    };
    if !args.trace {
        debug_assert!(outcome.metrics.iter().map(|m| m.name).eq(record::END_TO_END));
        for m in &outcome.metrics {
            println!("{:20} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
    println!(
        "fail_pct {:.4} % ({} of {} checked operations failed)",
        outcome.fail_pct(),
        outcome.failed,
        outcome.attempted
    );
    if let Some(path) = &args.record {
        std::fs::write(path, outcome.record(&args.workload, args.seed, &host)).expect("write the record");
    }
    if outcome.correct() {
        let _ = std::fs::remove_dir_all(&dir);
    } else {
        eprintln!("output checks failed; run state kept in {}", dir.display());
    }
    println!("{}", outcome.json_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
