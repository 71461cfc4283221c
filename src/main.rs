//! The `cae-dfkd` command-line tool: distill, evaluate and transfer —
//! data-free — from the terminal.
//!
//! ```text
//! cae-dfkd distill --dataset c100 --teacher resnet34 --student resnet18 \
//!                  --method cae --n 4 --budget fast --save student.json
//! cae-dfkd evaluate --weights student.json --dataset c100 --arch resnet18
//! cae-dfkd transfer --weights student.json --task nyu --arch resnet18
//! cae-dfkd table table02 --budget smoke
//! CAE_TRACE=1 cae-dfkd table table02 --budget smoke   # + trace, profile, health
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
use cae_dfkd::trace::health::HealthMonitor;
use cae_dfkd::trace::profile::Profile;
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
        "trace-diff" => trace_diff(cmd),
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
                // The failed run's events must not land in the next trace.
                cae_dfkd::trace::drain();
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

/// Prints a table report and writes its JSON artifact under `out`. When
/// tracing is on it also drains the trace the run recorded and renders
/// every view of it: `trace_<stem>.jsonl` + `TRACE_<stem>.json` next to the
/// report, the self-time profile (printed, with flamegraph-folded stacks in
/// `PROFILE_<stem>.txt`) and a training-health verdict per series.
fn save_table(report: &Report, out: &Path) -> Result<(), Box<dyn Error + Send + Sync>> {
    println!("{report}");
    let path = report.save_json(out)?;
    println!("saved: {}", path.display());
    if !cae_dfkd::trace::enabled() {
        return Ok(());
    }
    let trace = cae_dfkd::trace::drain();
    if trace.is_empty() {
        return Ok(());
    }
    let stem = report.file_stem();
    let (jsonl, summary) = trace.save(out, &stem)?;
    println!("trace: {} + {}", jsonl.display(), summary.display());
    let profile = Profile::from_trace(&trace);
    print!("{}", profile.self_time_table());
    println!("profile: {}", profile.save(out, &stem)?.display());

    let health = HealthMonitor::default().check_trace(&trace);
    println!("training health for '{stem}' ({} series):", health.verdicts.len());
    for v in &health.verdicts {
        if v.is_healthy() {
            println!("  {:<22} {:>6} points  healthy", v.name, v.points);
        } else {
            let issues: Vec<String> = v.issues.iter().map(ToString::to_string).collect();
            println!("  {:<22} {:>6} points  {}", v.name, v.points, issues.join(", "));
        }
    }
    println!("verdict: {}", health.summary());
    Ok(())
}

/// `cae-dfkd profile --trace <trace.jsonl>`: profile a trace a traced
/// `table` run saved — print its self-time table and write
/// flamegraph-folded stacks to `PROFILE_<stem>.txt` under `--out`.
fn profile(cmd: &Command) -> Result<(), Box<dyn Error + Send + Sync>> {
    let out = std::path::PathBuf::from(cmd.str_or("out", "."));
    let path = cmd.required("trace")?;
    let profile = Profile::from_jsonl(&std::fs::read_to_string(path)?)?;
    let stem = Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .map(|s| s.strip_prefix("trace_").unwrap_or(s))
        .unwrap_or("trace");
    print!("{}", profile.self_time_table());
    println!("profile: {}", profile.save(&out, stem)?.display());
    Ok(())
}

/// `cae-dfkd trace-diff <baseline.jsonl> <current.jsonl>`: align two saved
/// traces by span name and print self-time deltas sorted by contribution.
fn trace_diff(cmd: &Command) -> Result<(), Box<dyn Error + Send + Sync>> {
    let missing = "trace-diff needs two trace paths: <baseline.jsonl> <current.jsonl>";
    let baseline = cmd.positional.as_deref().ok_or(missing)?;
    let current = cmd.positional2.as_deref().ok_or(missing)?;
    let limit = cmd.usize_or("limit", 20)?;
    let base = Profile::from_jsonl(&std::fs::read_to_string(baseline)?)?;
    let cur = Profile::from_jsonl(&std::fs::read_to_string(current)?)?;
    println!("trace-diff: {baseline} -> {current}");
    print!("{}", cae_dfkd::trace::profile::diff(&base, &cur).render(limit));
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

    // Export the summary view (TRACE_serve.json) periodically if
    // CAE_METRICS_INTERVAL_MS asks for it; a running exporter turns
    // telemetry on.
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
        println!("metrics export: {}", exporter.stop()?.display());
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
