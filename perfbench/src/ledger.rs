//! The traced run: per-layer metrics from the spans and counters the
//! program records under `CAE_TRACE=1`, read through `cae_trace::drain()`
//! and `cae_trace::profile`, plus figures timed around public calls.

use crate::record::Outcome;
use crate::serve;
use crate::stats::median;
use crate::table;
use cae_trace::profile::Profile;
use cae_trace::Trace;
use std::collections::BTreeMap;
use std::time::Instant;

/// One row of the ledger: its metrics, the end-to-end metrics they should
/// move, and the workloads they should (and should not) move them on.
pub struct Layer {
    pub metrics: &'static [(&'static str, &'static str)],
    pub moves: &'static str,
    pub on: &'static str,
    pub not_on: &'static str,
}

pub const LAYERS: &[Layer] = &[
    Layer {
        metrics: &[
            ("tensor.gemm.calls", "count"),
            ("tensor.gemm.busy_s", "s"),
            ("tensor.gemm.gflops", "GFLOP/s"),
            ("tensor.im2col.calls", "count"),
            ("tensor.im2col.busy_s", "s"),
            ("tensor.conv_epilogue.busy_s", "s"),
            ("tensor.workspace.allocs", "count"),
            ("tensor.workspace.reuse_ratio", "ratio"),
            ("tensor.pool.inline_jobs", "count"),
        ],
        moves: "wall_s, cpu_s, bench.latency_p99_ms, cpu_us_per_req, peak_rss_mb",
        on: "table02, serve-heavy",
        not_on: "serve-light latency",
    },
    Layer {
        metrics: &[("nn.infer.calls", "count"), ("nn.infer.busy_s", "s"), ("nn.freeze_s", "s")],
        moves: "latency_p50_ms, bench.latency_p99_ms, setup_s",
        on: "serve-heavy, table02 (eval and teacher logits)",
        not_on: "-",
    },
    Layer {
        metrics: &[
            ("core.trainer.generator_step_s", "s"),
            ("core.trainer.student_step_s", "s"),
            ("core.trainer.inversion_s", "s"),
            ("core.trainer.cncl_s", "s"),
            ("core.trainer.memory_replay_s", "s"),
            ("core.eval_s", "s"),
        ],
        moves: "wall_s, cpu_s",
        on: "table02",
        not_on: "serve-*",
    },
    Layer {
        metrics: &[
            ("core.teacher.pretrain_s", "s"),
            ("core.teacher.cache_hits", "count"),
            ("core.teacher.cache_misses", "count"),
        ],
        moves: "wall_s; setup_s",
        on: "table02; serve-*",
        not_on: "-",
    },
    Layer {
        metrics: &[
            ("core.scheduler.cells", "count"),
            ("core.scheduler.failed", "count"),
            ("core.scheduler.retried", "count"),
            ("core.scheduler.cell_busy_s", "s"),
            ("core.scheduler.idle_slot_s", "s"),
            ("core.scheduler.longest_cell_s", "s"),
        ],
        moves: "wall_s but not cpu_s",
        on: "table02",
        not_on: "serve-*",
    },
    Layer {
        metrics: &[
            ("serve.sent", "count"),
            ("serve.ok", "count"),
            ("serve.failed", "count"),
            ("serve.batches", "count"),
            ("serve.batch_mean", "req"),
            ("serve.queue_wait_p50_us", "us"),
            ("serve.queue_wait_p99_us", "us"),
            ("serve.assembly_p99_us", "us"),
            ("serve.forward_p50_us", "us"),
            ("serve.forward_p99_us", "us"),
            ("serve.handoff_p99_us", "us"),
            ("serve.outside_p99_us", "us"),
            ("serve.submit_blocked_s", "s"),
        ],
        moves: "latency_p50_ms, bench.latency_p99_ms, goodput_rps",
        on: "serve-*",
        not_on: "table02",
    },
    Layer {
        metrics: &[("bench.latency_p99_ms", "ms")],
        moves: "- (client p99 from the scheduled send time; on a shared host it swings too much for a bound)",
        on: "serve-*",
        not_on: "table02",
    },
    Layer {
        metrics: &[("data.generate_s", "s")],
        moves: "setup_s",
        on: "serve-*",
        not_on: "-",
    },
    Layer {
        metrics: &[
            ("bench.send_lag_p99_us", "us"),
            ("bench.fail_pct", "%"),
            ("trace.coverage_pct", "%"),
            ("trace.unattributed_s", "s"),
            ("trace.overhead_pct", "%"),
        ],
        moves: "validity checks: send lag shows the generator set the pace; coverage sizes the untraced layers",
        on: "all",
        not_on: "-",
    },
];

fn secs(trace: &Trace, span: &str) -> f64 {
    trace.span_stats.get(span).map_or(0.0, |s| s.total_ns as f64 / 1e9)
}

fn count(trace: &Trace, counter: &str) -> f64 {
    trace.counters.get(counter).copied().unwrap_or(0) as f64
}

/// The leaf kernels the program times: GEMM, forward im2col, conv epilogue.
/// Conv backward, BN, elementwise ops and the optimizers are not timed.
fn attributed_s(trace: &Trace) -> f64 {
    secs(trace, "gemm") + secs(trace, "conv.im2col") + secs(trace, "conv.epilogue")
}

/// Tensor, nn and core entries from a drained trace and its profile.
fn program_layers(trace: &Trace, profile: &Profile, into: &mut BTreeMap<&'static str, f64>) {
    let takes = count(trace, "workspace.takes");
    let cell = trace.span_stats.get("scheduler.cell").copied().unwrap_or_default();
    let entries = [
        ("tensor.gemm.calls", count(trace, "gemm.calls")),
        ("tensor.gemm.busy_s", secs(trace, "gemm")),
        ("tensor.gemm.gflops", profile.derived.gemm_gflops.unwrap_or(0.0)),
        (
            "tensor.im2col.calls",
            trace.span_stats.get("conv.im2col").map_or(0.0, |s| s.count as f64),
        ),
        ("tensor.im2col.busy_s", secs(trace, "conv.im2col")),
        ("tensor.conv_epilogue.busy_s", secs(trace, "conv.epilogue")),
        ("tensor.workspace.allocs", count(trace, "workspace.allocs")),
        (
            "tensor.workspace.reuse_ratio",
            if takes > 0.0 { count(trace, "workspace.reuses") / takes } else { 0.0 },
        ),
        ("tensor.pool.inline_jobs", count(trace, "pool.inline_jobs")),
        ("nn.infer.calls", count(trace, "infer.calls")),
        ("nn.infer.busy_s", secs(trace, "infer.forward")),
        ("core.trainer.generator_step_s", secs(trace, "trainer.generator_step")),
        ("core.trainer.student_step_s", secs(trace, "trainer.student_step")),
        ("core.trainer.inversion_s", secs(trace, "trainer.inversion")),
        ("core.trainer.cncl_s", secs(trace, "trainer.cncl_loss")),
        ("core.trainer.memory_replay_s", secs(trace, "trainer.memory_replay")),
        ("core.eval_s", secs(trace, "pipeline.evaluate")),
        ("core.scheduler.cells", cell.count as f64),
        ("core.scheduler.failed", count(trace, "cell.failed")),
        ("core.scheduler.retried", count(trace, "cell.retried")),
        ("core.scheduler.cell_busy_s", cell.total_ns as f64 / 1e9),
        ("core.scheduler.longest_cell_s", cell.max_ns as f64 / 1e9),
    ];
    into.extend(entries);
    if profile.truncated {
        eprintln!("note: {} raw span events dropped; per-name totals stay exact", profile.dropped_spans);
    }
}

fn teacher_layers(trace: &Trace, into: &mut BTreeMap<&'static str, f64>) {
    into.insert("core.teacher.pretrain_s", secs(trace, "teacher.pretrain"));
    into.insert("core.teacher.cache_hits", count(trace, "teacher.cache_hits"));
    into.insert("core.teacher.cache_misses", count(trace, "teacher.cache_misses"));
}

/// Coverage of `work_s` (the time the ledger must explain) by the timed
/// leaf kernels; the rest is one explicit unattributed figure.
fn coverage(trace: &Trace, work_s: f64, into: &mut BTreeMap<&'static str, f64>) {
    let attributed = attributed_s(trace);
    into.insert("trace.coverage_pct", if work_s > 0.0 { 100.0 * attributed / work_s } else { 0.0 });
    into.insert("trace.unattributed_s", work_s - attributed);
}

/// Turns a filled ledger into the traced run's outcome: every metric of
/// [`LAYERS`] in order (0 where a workload does not exercise the layer),
/// each printed with what it should move.
fn emit(values: &BTreeMap<&'static str, f64>, attempted: u64, failed: u64) -> Outcome {
    let mut out = Outcome { attempted, failed, metrics: Vec::new() };
    for layer in LAYERS {
        for &(name, unit) in layer.metrics {
            let value = if name == "bench.fail_pct" {
                out.fail_pct()
            } else {
                values.get(name).copied().unwrap_or(0.0)
            };
            println!(
                "{name:32} {value:>16.6} {unit:8} moves {} | on {} | not on {}",
                layer.moves, layer.on, layer.not_on
            );
            out.push(name, value, unit);
        }
    }
    debug_assert!(
        values.keys().all(|k| LAYERS.iter().any(|l| l.metrics.iter().any(|(n, _)| n == k))),
        "a ledger value has no row"
    );
    out
}

/// Runs `f` with tracing (and the metrics histograms) forced off.
fn untraced<T>(f: impl FnOnce() -> T) -> T {
    cae_trace::force_enabled(false);
    cae_trace::metrics::force_enabled(false);
    let out = f();
    cae_trace::reset_to_env();
    cae_trace::metrics::reset_to_env();
    out
}

/// Traced `table02`: a traced regeneration, whose trace fills the ledger,
/// between two untraced ones, whose median is the overhead reference.
/// Every report must pass the output checks and match the others byte for
/// byte.
pub fn table02(seed: u64) -> Outcome {
    let mut values = BTreeMap::new();
    values.insert("data.generate_s", table::setup(seed));
    let before = untraced(|| table::regenerate(seed));
    let _ = cae_trace::drain();
    let traced = table::regenerate(seed);
    let trace = cae_trace::drain();
    let after = untraced(|| table::regenerate(seed));
    let profile = Profile::from_trace(&trace);
    program_layers(&trace, &profile, &mut values);
    teacher_layers(&trace, &mut values);
    let threads = cae_tensor::pool::max_parallelism() as f64;
    let busy = values["core.scheduler.cell_busy_s"];
    values.insert("core.scheduler.idle_slot_s", threads * traced.wall_s - busy);
    values.insert("nn.freeze_s", secs(&trace, "teacher.freeze"));
    let untraced_s = median(&[before.wall_s, after.wall_s]);
    values.insert("trace.overhead_pct", 100.0 * (traced.wall_s / untraced_s - 1.0));
    coverage(&trace, busy, &mut values);
    let reference = table::reference_for(seed);
    let (mut attempted, mut failed) = (0, 0);
    for r in [&before, &traced, &after] {
        let (a, f) = table::check(&r.report, reference);
        let same = matches!((&r.report, &traced.report), (Ok(x), Ok(y)) if x.to_json() == y.to_json());
        attempted += a + 1;
        failed += f + u64::from(!same);
    }
    print_profile(&profile);
    emit(&values, attempted, failed)
}

/// Traced serving: set-up under tracing (teacher counters), one untraced
/// window as the overhead reference, then one traced window.
pub fn serve(seed: u64, rps: f64, seconds: f64) -> Outcome {
    let _ = cae_trace::drain();
    let s = serve::setup_once(seed);
    let setup_trace = cae_trace::drain();
    let mut values = BTreeMap::new();
    teacher_layers(&setup_trace, &mut values);
    values.insert("data.generate_s", s.seconds.generate);
    values.insert("nn.freeze_s", s.seconds.freeze);
    let due = serve::schedule(seed, rps, seconds);
    let plain = untraced(|| serve::drive(&s.server, &s.images, &s.expected, &due, Instant::now()));
    let _ = cae_trace::drain();
    let traced = serve::drive(&s.server, &s.images, &s.expected, &due, Instant::now());
    let trace = cae_trace::drain();
    if plain.samples.len() as u64 == plain.sent && traced.samples.len() as u64 == traced.sent {
        s.server.shutdown();
    }
    let profile = Profile::from_trace(&trace);
    program_layers(&trace, &profile, &mut values);
    serve::layer_values(&traced, &mut values);
    let per_req = |w: &serve::Window| w.cpu_s / w.sent.max(1) as f64;
    values.insert("trace.overhead_pct", 100.0 * (per_req(&traced) / per_req(&plain) - 1.0));
    coverage(&trace, secs(&trace, "serve.forward"), &mut values);
    print_profile(&profile);
    emit(&values, plain.sent + traced.sent, plain.failed() + traced.failed())
}

fn print_profile(profile: &Profile) {
    if !profile.nodes.is_empty() {
        eprintln!("{}", profile.self_time_table());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_ledger_metric_has_one_row() {
        let mut names: Vec<&str> = LAYERS.iter().flat_map(|l| l.metrics.iter().map(|(n, _)| *n)).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate ledger metric");
    }

    #[test]
    fn coverage_splits_work_into_attributed_and_unattributed() {
        let mut trace = Trace::default();
        trace.span_stats.insert("gemm", cae_trace::SpanStat { count: 2, total_ns: 3_000_000_000, min_ns: 1, max_ns: 2 });
        trace.span_stats.insert(
            "conv.im2col",
            cae_trace::SpanStat { count: 1, total_ns: 1_000_000_000, min_ns: 1, max_ns: 1 },
        );
        let mut values = BTreeMap::new();
        coverage(&trace, 8.0, &mut values);
        assert_eq!(values["trace.coverage_pct"], 50.0);
        assert_eq!(values["trace.unattributed_s"], 4.0);
    }
}
