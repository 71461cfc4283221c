//! The `cae-dfkd` command-line tool: distill, evaluate and transfer —
//! data-free — from the terminal.
//!
//! ```text
//! cae-dfkd distill --dataset c100 --teacher resnet34 --student resnet18 \
//!                  --method cae --n 4 --budget fast --save student.json
//! cae-dfkd evaluate --weights student.json --dataset c100 --arch resnet18
//! cae-dfkd transfer --weights student.json --task nyu --arch resnet18
//! cae-dfkd table table02 --budget smoke
//! cae-dfkd table all --budget full
//! ```

use cae_dfkd::cli::{parse_freeze_mode, Command, HELP};
use cae_dfkd::core::config::Config;
use cae_dfkd::core::experiments;
use cae_dfkd::core::metrics::classification::top1_accuracy;
use cae_dfkd::core::pipeline::run_dfkd;
use cae_dfkd::core::report::Report;
use cae_dfkd::core::transfer::{transfer_evaluate, TaskSet};
use cae_dfkd::data::dense::DensePreset;
use cae_dfkd::nn::serialize;
use cae_dfkd::serve::{prediction_log, run_closed_loop, run_open_loop, RequestTrace, ServeOptions};
use cae_dfkd::tensor::rng::TensorRng;
use std::error::Error;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match Command::parse(args) {
        Ok(cmd) => cmd,
        Err(e) => return usage_error(e),
    };
    match run(&cmd) {
        None => usage_error(format!("unknown subcommand '{}'", cmd.name)),
        Some(Ok(())) => ExitCode::SUCCESS,
        Some(Err(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A command line that names no runnable subcommand: the error, then usage.
fn usage_error(e: impl std::fmt::Display) -> ExitCode {
    eprintln!("error: {e}");
    eprintln!("{HELP}");
    ExitCode::FAILURE
}

/// Runs one subcommand; `None` when `cmd` names none.
fn run(cmd: &Command) -> Option<Result<(), Box<dyn Error + Send + Sync>>> {
    Some(match cmd.name.as_str() {
        "help" | "--help" | "-h" => {
            println!("{HELP}");
            Ok(())
        }
        "distill" => distill(cmd),
        "evaluate" => evaluate(cmd),
        "transfer" => transfer(cmd),
        "freeze" => freeze(cmd),
        "serve-bench" => serve_bench(cmd),
        "table" => table(cmd),
        "profile" => profile(cmd),
        "metrics" => metrics(cmd),
        "trace-diff" => trace_diff(cmd),
        "health" => health(cmd),
        "config" => {
            print!("{}", Config::get().render());
            Ok(())
        }
        "list" => {
            list();
            Ok(())
        }
        _ => return None,
    })
}

fn list() {
    println!("registered experiments (paper order):");
    for entry in experiments::registry() {
        let marker = if entry.in_paper { " " } else { "+" };
        println!(
            "  {marker} {:<10} {:<14} {}",
            entry.id, entry.artifact_stem, entry.title
        );
    }
    println!("(+ = extra suite beyond the paper's tables/figures; middle column = artifact stem)");
}

/// Looks an experiment up by id, listing the known ids on a miss.
fn entry_by_id(id: &str) -> Result<&'static experiments::ExperimentEntry, Box<dyn Error + Send + Sync>> {
    experiments::registry()
        .iter()
        .find(|e| e.id == id)
        .ok_or_else(|| {
            let known: Vec<&str> = experiments::registry().iter().map(|e| e.id).collect();
            format!("unknown experiment '{id}' (known: {})", known.join("|")).into()
        })
}

/// `cae-dfkd table <id>|all`: run one registered experiment, or every
/// paper experiment, and write the reports under the results directory.
fn table(cmd: &Command) -> Result<(), Box<dyn Error + Send + Sync>> {
    let id = cmd.id_arg()?;
    let budget = cmd.budget()?;
    let out = cmd.results_dir();
    if id != "all" {
        let report = entry_by_id(id)?.run(&budget)?;
        return save_table(&report, &out);
    }

    // Paper order, resumable and fault-isolated: a parseable artifact from
    // an earlier run is kept, and one failed experiment does not stop the
    // sweep.
    let mut failures = Vec::new();
    for entry in experiments::registry().iter().filter(|e| e.in_paper) {
        if Config::get().resume {
            if let Some(path) = entry.completed_artifact_in(&out) {
                eprintln!(
                    ">>> {}: already completed ({}), skipping (CAE_RESUME=0 to re-run)",
                    entry.id,
                    path.display()
                );
                continue;
            }
        }
        eprintln!(">>> running {} ...", entry.id);
        match entry.run(&budget) {
            Ok(report) => save_table(&report, &out)?,
            Err(e) => {
                eprintln!(">>> {e}; continuing with the remaining tables\n");
                failures.push(e.to_string());
            }
        }
    }
    if failures.is_empty() {
        return Ok(());
    }
    Err(format!(
        "{} experiment(s) failed:\n  {}",
        failures.len(),
        failures.join("\n  ")
    )
    .into())
}

/// Prints a table report and writes its JSON artifact under `out`; when
/// tracing is on, also drains the trace the run recorded and writes
/// `trace_<stem>.jsonl` + `TRACE_<stem>.json` next to it.
fn save_table(report: &Report, out: &Path) -> Result<(), Box<dyn Error + Send + Sync>> {
    println!("{report}");
    let path = report.save_json(out)?;
    println!("saved: {}", path.display());
    if cae_dfkd::trace::enabled() {
        let trace = cae_dfkd::trace::drain();
        if !trace.is_empty() {
            let (jsonl, summary) = trace.save(out, &report.file_stem())?;
            println!("trace: {} + {}", jsonl.display(), summary.display());
        }
    }
    Ok(())
}

/// `cae-dfkd profile <id>`: run with tracing forced on and profile the
/// resulting span tree; or `--trace FILE.jsonl` to profile a saved trace.
fn profile(cmd: &Command) -> Result<(), Box<dyn Error + Send + Sync>> {
    let out = std::path::PathBuf::from(cmd.str_or("out", "."));
    if let Some(path) = cmd.options.get("trace") {
        let text = std::fs::read_to_string(path)?;
        let profile = cae_dfkd::trace::profile::Profile::from_jsonl(&text)?;
        let stem = std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .map(|s| s.strip_prefix("trace_").unwrap_or(s))
            .unwrap_or("trace")
            .to_owned();
        print!("{}", profile.self_time_table());
        let saved = profile.save(&out, &stem)?;
        println!("profile: {}", saved.display());
        return Ok(());
    }

    let id = cmd.id_arg()?;
    let budget = cmd.budget_or("smoke")?;
    let entry = entry_by_id(id)?;
    // Serial cells keep every span on one thread-rooted tree, so the
    // self-time table provably sums back to the `experiment` root; the
    // raised event cap keeps a fast-budget profile from truncating.
    cae_dfkd::core::experiments::scheduler::force_cell_parallelism(Some(false));
    cae_dfkd::trace::raise_event_cap(1 << 20);
    cae_dfkd::trace::force_enabled(true);
    cae_dfkd::trace::drain(); // profile this run only
    let run_outcome = entry.run(&budget);
    let trace = cae_dfkd::trace::drain();
    cae_dfkd::trace::reset_to_env();
    cae_dfkd::core::experiments::scheduler::force_cell_parallelism(None);
    run_outcome?;

    let profile = cae_dfkd::trace::profile::Profile::from_trace(&trace);
    print!("{}", profile.self_time_table());
    let saved = profile.save(&out, id)?;
    println!("profile: {}", saved.display());
    Ok(())
}

/// `cae-dfkd metrics <id>`: run with telemetry forced on, print the
/// Prometheus-style snapshot and export METRICS_<id>.json +
/// metrics_<id>.prom.
fn metrics(cmd: &Command) -> Result<(), Box<dyn Error + Send + Sync>> {
    let out = std::path::PathBuf::from(cmd.str_or("out", "."));
    let id = cmd.id_arg()?;
    let budget = cmd.budget_or("smoke")?;
    let entry = entry_by_id(id)?;
    cae_dfkd::trace::force_enabled(true);
    cae_dfkd::trace::drain(); // observe this run only
    let run_outcome = entry.run(&budget);
    // Snapshot before the cleanup drain — draining consumes the aggregates
    // the snapshot reads non-destructively. The optional second snapshot
    // exists so callers can byte-diff two independently taken+rendered
    // exports of the same quiescent state.
    let snap = cae_dfkd::trace::snapshot();
    let dup_snap = cmd.options.get("dup").map(|_| cae_dfkd::trace::snapshot());
    cae_dfkd::trace::drain();
    cae_dfkd::trace::reset_to_env();
    run_outcome?;

    print!("{}", snap.prometheus_text());
    let (json, prom) = cae_dfkd::trace::metrics::save(&snap, &out, id)?;
    println!("metrics: {} + {}", json.display(), prom.display());
    if let (Some(dir), Some(dup)) = (cmd.options.get("dup"), dup_snap) {
        let (json2, _) = cae_dfkd::trace::metrics::save(&dup, std::path::Path::new(dir), id)?;
        println!("metrics dup: {}", json2.display());
    }
    Ok(())
}

/// `cae-dfkd trace-diff <baseline.jsonl> <current.jsonl>`: align two saved
/// traces by span name and print self-time deltas sorted by contribution.
fn trace_diff(cmd: &Command) -> Result<(), Box<dyn Error + Send + Sync>> {
    let missing = "trace-diff needs two trace paths: <baseline.jsonl> <current.jsonl>";
    let baseline = cmd.positional.as_deref().ok_or(missing)?;
    let current = cmd.positional2.as_deref().ok_or(missing)?;
    let limit = cmd.usize_or("limit", 20)?;
    let base = cae_dfkd::trace::profile::Profile::from_jsonl(&std::fs::read_to_string(baseline)?)?;
    let cur = cae_dfkd::trace::profile::Profile::from_jsonl(&std::fs::read_to_string(current)?)?;
    println!("trace-diff: {baseline} -> {current}");
    print!("{}", cae_dfkd::trace::profile::diff(&base, &cur).render(limit));
    Ok(())
}

/// `cae-dfkd health <id>`: run with tracing forced on and print a
/// training-health verdict per recorded series.
fn health(cmd: &Command) -> Result<(), Box<dyn Error + Send + Sync>> {
    let id = cmd.id_arg()?;
    let budget = cmd.budget_or("smoke")?;
    let entry = entry_by_id(id)?;
    cae_dfkd::trace::force_enabled(true);
    cae_dfkd::trace::drain();
    let run_outcome = entry.run(&budget);
    let trace = cae_dfkd::trace::drain();
    cae_dfkd::trace::reset_to_env();

    let report = cae_dfkd::trace::health::HealthMonitor::default().check_trace(&trace);
    println!("training health for '{id}' ({} series):", report.verdicts.len());
    for v in &report.verdicts {
        if v.is_healthy() {
            println!("  {:<22} {:>6} points  healthy", v.name, v.points);
        } else {
            let issues: Vec<String> = v.issues.iter().map(ToString::to_string).collect();
            println!("  {:<22} {:>6} points  {}", v.name, v.points, issues.join(", "));
        }
    }
    println!("verdict: {}", report.summary());
    run_outcome?;
    Ok(())
}

fn distill(cmd: &Command) -> Result<(), Box<dyn Error + Send + Sync>> {
    let dataset = cmd.dataset()?;
    let teacher = cmd.arch("teacher", "resnet34")?;
    let student = cmd.arch("student", "resnet18")?;
    let method = cmd.method()?;
    let budget = cmd.budget()?;
    let seed = cmd.u64_or("seed", 42)?;

    println!(
        "distilling {} -> {} on {} with {} ...",
        teacher.name(),
        student.name(),
        dataset.name(),
        method.name
    );
    let run = run_dfkd(dataset, teacher, student, &method, &budget, seed);
    println!("teacher top-1: {:.2}%", run.teacher_top1 * 100.0);
    println!("student top-1: {:.2}% (data-free)", run.student_top1 * 100.0);

    if let Some(path) = cmd.options.get("save") {
        std::fs::write(path, serialize::to_json(run.student.as_ref()))?;
        println!("saved: {path}");
    }
    Ok(())
}

fn evaluate(cmd: &Command) -> Result<(), Box<dyn Error + Send + Sync>> {
    let dataset = cmd.dataset()?;
    let arch = cmd.arch("arch", "resnet18")?;
    let budget = cmd.budget()?;
    let weights = cmd.required("weights")?;

    let mut rng = TensorRng::seed_from(0);
    let model = arch.build(dataset.num_classes(), budget.base_width, &mut rng);
    serialize::from_json(model.as_ref(), &std::fs::read_to_string(weights)?)?;
    let split = dataset.generate(budget.seed);
    let acc = top1_accuracy(model.as_ref(), &split.test, 32);
    println!("{} on {}: top-1 {:.2}%", arch.name(), dataset.name(), acc * 100.0);
    Ok(())
}

fn freeze(cmd: &Command) -> Result<(), Box<dyn Error + Send + Sync>> {
    let dataset = cmd.dataset()?;
    let arch = cmd.arch("arch", "resnet18")?;
    let budget = cmd.budget()?;
    let weights = cmd.required("weights")?;
    let out = cmd.required("out")?;
    let mode = cmd.str_or("mode", "fused");
    let opts = parse_freeze_mode(mode)?;

    let mut rng = TensorRng::seed_from(0);
    let model = arch.build(dataset.num_classes(), budget.base_width, &mut rng);
    serialize::from_json(model.as_ref(), &std::fs::read_to_string(weights)?)?;
    let frozen = model.freeze_with(&opts);
    std::fs::write(out, serialize::frozen_classifier_to_json(&frozen))?;
    println!(
        "froze {} ({mode}): {} ops, {} classes -> {out}",
        arch.name(),
        frozen.spatial_ops().len(),
        frozen.num_classes(),
    );
    Ok(())
}

/// `cae-dfkd serve-bench`: drive the dynamic-batching server over a
/// deterministic synthetic trace — sequential baseline, then an open-loop
/// flood — and byte-diff the two prediction logs.
fn serve_bench(cmd: &Command) -> Result<(), Box<dyn Error + Send + Sync>> {
    let dataset = cmd.dataset()?;
    let arch = cmd.arch("arch", "resnet18")?;
    let budget = cmd.budget_or("smoke")?;
    let requests = cmd.usize_or("requests", 400)?;
    let clients = cmd.usize_or("clients", 4)?;
    let mode = cmd.str_or("mode", "fused");
    let freeze_opts = parse_freeze_mode(mode)?;

    let split = dataset.generate(budget.seed);
    let model: Box<dyn cae_dfkd::nn::module::Classifier> = match cmd.options.get("weights") {
        Some(weights) => {
            let mut rng = TensorRng::seed_from(0);
            let model = arch.build(dataset.num_classes(), budget.base_width, &mut rng);
            serialize::from_json(model.as_ref(), &std::fs::read_to_string(weights)?)?;
            model
        }
        None => {
            println!(
                "pretraining serve student ({}, {} steps) ...",
                arch.name(),
                budget.pretrain_steps
            );
            cae_dfkd::core::teacher::pretrained("serve-bench", arch, &split.train, &budget, 32)
        }
    };

    // Batching knobs default from Config (CAE_SERVE_*); flags override.
    let mut opts = ServeOptions::from_config();
    if cmd.options.contains_key("max-batch") {
        opts = opts.with_max_batch(cmd.usize_or("max-batch", 0)?);
    }
    if cmd.options.contains_key("max-latency-us") {
        opts = opts.with_max_latency_us(cmd.u64_or("max-latency-us", 0)?);
    }

    // Export live metrics periodically if CAE_METRICS_INTERVAL_MS asks for
    // it; a running exporter turns telemetry on.
    let exporter = cae_dfkd::trace::metrics::start_exporter(std::path::Path::new("."), "serve");

    let trace = RequestTrace::synthetic(requests, 3, dataset.resolution(), budget.seed ^ 0x7e5e);
    println!("sequential baseline ({requests} requests, {mode}) ...");
    let sequential = run_closed_loop(
        model.freeze_with(&freeze_opts),
        ServeOptions::from_config().with_max_batch(1),
        &trace,
    );
    println!(
        "  {:.0} rps, p50 {}us, p99 {}us",
        sequential.throughput_rps(),
        sequential.latency_percentile_us(50),
        sequential.latency_percentile_us(99)
    );
    println!("  phases: {}", sequential.phase_summary());
    println!("open loop ({clients} clients, max_batch {}, cutoff {}us) ...", opts.max_batch, opts.max_latency_us);
    let batched = run_open_loop(model.freeze_with(&freeze_opts), opts, &trace, clients);
    println!(
        "  {:.0} rps, p50 {}us, p99 {}us, mean batch {:.1}",
        batched.throughput_rps(),
        batched.latency_percentile_us(50),
        batched.latency_percentile_us(99),
        batched.mean_batch()
    );
    println!("  phases: {}", batched.phase_summary());
    if let Some(exporter) = exporter {
        let (json, prom) = exporter.stop()?;
        println!("metrics export: {} + {}", json.display(), prom.display());
    }
    let log = prediction_log(&batched.predictions);
    let identical = prediction_log(&sequential.predictions) == log;
    println!(
        "speedup {:.2}x, predictions identical: {identical}",
        batched.throughput_rps() / sequential.throughput_rps().max(1e-12)
    );
    if let Some(path) = cmd.options.get("log") {
        std::fs::write(path, &log)?;
        println!("prediction log: {path}");
    }
    if !identical {
        return Err("batching changed predictions — serve determinism violated".into());
    }
    Ok(())
}

fn transfer(cmd: &Command) -> Result<(), Box<dyn Error + Send + Sync>> {
    let dataset = cmd.dataset()?;
    let arch = cmd.arch("arch", "resnet18")?;
    let budget = cmd.budget()?;
    let weights = cmd.required("weights")?;
    let (preset, tasks) = match cmd.str_or("task", "nyu") {
        "nyu" => (DensePreset::NyuSim, TaskSet::nyu()),
        "ade" => (DensePreset::AdeSim, TaskSet::seg_only()),
        "coco" => (DensePreset::CocoSim, TaskSet::detection_only()),
        other => return Err(format!("unknown task '{other}' (nyu|ade|coco)").into()),
    };

    let mut rng = TensorRng::seed_from(0);
    let model = arch.build(dataset.num_classes(), budget.base_width, &mut rng);
    serialize::from_json(model.as_ref(), &std::fs::read_to_string(weights)?)?;

    let (train, test) = preset.generate(96, 24, budget.seed);
    println!("fine-tuning on {} ({} steps)...", preset.name(), budget.finetune_steps);
    let m = transfer_evaluate(model, tasks, &train, &test, budget.finetune_steps, budget.seed);
    if let (Some(miou), Some(pacc)) = (m.miou, m.pacc) {
        println!("seg: mIoU {:.2}%  pAcc {:.2}%", miou * 100.0, pacc * 100.0);
    }
    if let (Some(a), Some(r)) = (m.abs_err, m.rel_err) {
        println!("depth: AErr {a:.4}  RErr {r:.4}");
    }
    if let (Some(mean), Some(w30)) = (m.normal_mean, m.within_30) {
        println!("normals: mean {mean:.1}°  within-30° {:.1}%", w30 * 100.0);
    }
    if let (Some(map), Some(map50)) = (m.map, m.map50) {
        println!("detection: mAP {:.2}%  mAP50 {:.2}%", map * 100.0, map50 * 100.0);
    }
    Ok(())
}
