//! Serving benchmark: dynamic batching vs one-request-at-a-time on a
//! frozen student, plus the int8 accuracy delta, checked against the serve
//! contract where they are measured.
//!
//! A small student is pretrained on the C10Sim preset (cached by the
//! teacher layer), frozen in fused mode, and served over a deterministic
//! synthetic request trace three ways:
//!
//! * **sequential** — one closed-loop client, `max_batch = 1`: every
//!   request pays the full queue/handoff cost and the batch-1 forward.
//!   This is the baseline the speedup gate divides by.
//! * **batched** — open-loop client floods at several
//!   `(max_batch, max_latency_us)` cutoff configurations; the best
//!   throughput becomes `batched_rps`.
//! * **int8** — the same student frozen with int8 weight quantization,
//!   evaluated for accuracy against the f32 freeze and re-served to check
//!   batching determinism under quantization.
//!
//! Every run serves the *same* trace, so the prediction logs must be
//! byte-identical across configurations — the serve determinism invariant,
//! re-proven here on every bench run. The rest of the contract:
//!
//! * the best config's throughput is at least [`SPEEDUP_FLOOR`]× the
//!   sequential baseline's;
//! * the best config's p99 stays under its own `max_latency_us` cutoff and
//!   under [`P99_CAP_US`];
//! * int8 quantization costs at most [`INT8_DELTA_CAP_PTS`] accuracy points.
//!
//! A broken contract panics, so the bin exits non-zero.
//!
//! Budget defaults to `smoke` (`CAE_BUDGET=smoke|fast|full`); the trace
//! is 400 requests long.
//! Run with `cargo run --release -p cae-bench --bin bench_serve`.

use cae_bench::budget_from_env;
use cae_core::metrics::classification::frozen_top1_accuracy;
use cae_core::teacher;
use cae_data::presets::ClassificationPreset;
use cae_nn::infer::{FreezeOptions, FrozenClassifier};
use cae_nn::models::Arch;
use cae_serve::{
    prediction_log, run_closed_loop, run_open_loop, RequestTrace, RunResult, ServeOptions,
};

/// Budget preset when `CAE_BUDGET` is unset.
const DEFAULT_BUDGET: &str = "smoke";

/// One batching configuration to sweep.
struct BatchConfig {
    name: &'static str,
    max_batch: usize,
    max_latency_us: u64,
    clients: usize,
}

const CONFIGS: [BatchConfig; 3] = [
    BatchConfig { name: "b8_l20ms_c4", max_batch: 8, max_latency_us: 20_000, clients: 4 },
    BatchConfig { name: "b16_l50ms_c8", max_batch: 16, max_latency_us: 50_000, clients: 8 },
    BatchConfig { name: "b32_l50ms_c8", max_batch: 32, max_latency_us: 50_000, clients: 8 },
];

/// Length of the served request trace.
const REQUESTS: usize = 400;

/// Floor on the dynamic-batching throughput edge over the
/// one-request-at-a-time baseline.
///
/// What batching can buy is host-dependent. The per-request fixed cost
/// (queue handoff, wakeup, dispatch) is amortized across the batch on any
/// host, but the per-image variable cost (patch gather + GEMM) is paid either
/// way — so on a single-core host the measured edge tops out around
/// 1.1–1.4× for the smoke-budget student. On multi-core hosts the batched
/// forward crosses the GEMM parallelism threshold and fans out across the
/// pool while a batch-1 forward cannot, so the edge grows with cores. The
/// floor is the portable single-core guarantee: broken batching shows up as
/// ~1.0× or below.
const SPEEDUP_FLOOR: f64 = 1.05;

/// Cap on the best config's p99 latency: 3× the 12 715 µs last committed
/// for it. Latency percentiles move with host load far more than
/// throughput ratios do, so the band is wide; the per-config cutoff is the
/// tight bound.
const P99_CAP_US: u64 = 3 * 12_715;

/// Maximum accuracy cost of int8 weight quantization, in points.
const INT8_DELTA_CAP_PTS: f64 = 1.0;

fn main() {
    let budget = budget_from_env(DEFAULT_BUDGET);
    let requests = REQUESTS;
    let preset = ClassificationPreset::C10Sim;
    let split = preset.generate(budget.seed);

    println!("pretraining serve student (ResNet18, {} steps) ...", budget.pretrain_steps);
    let student = teacher::pretrained("serve-student", Arch::ResNet18, &split.train, &budget, 32);
    let freeze = |opts: &FreezeOptions| -> FrozenClassifier { student.freeze_with(opts) };

    let acc_f32 = frozen_top1_accuracy(&freeze(&FreezeOptions::fused()), &split.test, 32);
    let acc_int8 = frozen_top1_accuracy(&freeze(&FreezeOptions::fused().int8()), &split.test, 32);
    let delta_points = (acc_f32 - acc_int8) as f64 * 100.0;
    println!("accuracy: f32 {acc_f32:.3}, int8 {acc_int8:.3} (delta {delta_points:+.2} pts)");

    let trace = RequestTrace::synthetic(requests, 3, preset.resolution(), budget.seed ^ 0x7e5e);

    // Warm the tensor pool and GEMM workspaces outside the timed runs.
    let warmup = RequestTrace::synthetic(16, 3, preset.resolution(), 1);
    run_closed_loop(freeze(&FreezeOptions::fused()), ServeOptions::default(), &warmup);

    // Two sequential passes, keeping the faster: the baseline is the
    // noisiest term of the speedup ratio on a shared host, and the ratio
    // should compare peak capability to peak capability (the batched side
    // already takes the best of several configs). Their logs must match —
    // a free repeat-determinism check.
    println!("sequential baseline ({requests} requests, max_batch=1) ...");
    let sequential = (0..2)
        .map(|_| {
            run_closed_loop(
                freeze(&FreezeOptions::fused()),
                ServeOptions::default().with_max_batch(1),
                &trace,
            )
        })
        .reduce(|a, b| {
            assert_eq!(prediction_log(&a.predictions), prediction_log(&b.predictions));
            if a.throughput_rps() >= b.throughput_rps() { a } else { b }
        })
        .expect("two sequential passes");
    assert_eq!(sequential.predictions.len(), trace.len());
    let reference_log = prediction_log(&sequential.predictions);
    println!(
        "  {:.0} rps, p50 {}us, p99 {}us",
        sequential.throughput_rps(),
        sequential.latency_percentile_us(50),
        sequential.latency_percentile_us(99)
    );
    println!("    phases: {}", sequential.phase_summary());

    let mut best: Option<(&BatchConfig, RunResult)> = None;
    for config in &CONFIGS {
        let opts = ServeOptions::default()
            .with_max_batch(config.max_batch)
            .with_max_latency_us(config.max_latency_us);
        let run = run_open_loop(freeze(&FreezeOptions::fused()), opts, &trace, config.clients);
        assert_eq!(run.predictions.len(), trace.len());
        assert!(
            prediction_log(&run.predictions) == reference_log,
            "{} changed a prediction — batching must never change results",
            config.name
        );
        println!(
            "  {}: {:.0} rps, p50 {}us, p99 {}us, mean batch {:.1}",
            config.name,
            run.throughput_rps(),
            run.latency_percentile_us(50),
            run.latency_percentile_us(99),
            run.mean_batch()
        );
        println!("    phases: {}", run.phase_summary());
        let better = best
            .as_ref()
            .is_none_or(|(_, b)| run.throughput_rps() > b.throughput_rps());
        if better {
            best = Some((config, run));
        }
    }
    let (best_config, best_run) = best.expect("at least one batching config");

    // int8 serve determinism: the quantized student must also be
    // batching-invariant (its dequantized weights are plain f32 tensors).
    let int8_seq = run_closed_loop(
        freeze(&FreezeOptions::fused().int8()),
        ServeOptions::default().with_max_batch(1),
        &trace,
    );
    let int8_batched = run_open_loop(
        freeze(&FreezeOptions::fused().int8()),
        ServeOptions::default().with_max_batch(16).with_max_latency_us(50_000),
        &trace,
        4,
    );
    assert!(
        prediction_log(&int8_seq.predictions) == prediction_log(&int8_batched.predictions),
        "batching changed an int8 prediction"
    );

    let batched_rps = best_run.throughput_rps();
    let batched_speedup = batched_rps / sequential.throughput_rps().max(1e-12);
    let batched_p99_us = best_run.latency_percentile_us(99);
    let cutoff_us = best_config.max_latency_us;
    println!(
        "best: {} at {batched_rps:.0} rps ({batched_speedup:.2}x sequential, floor \
         {SPEEDUP_FLOOR}x), p99 {batched_p99_us}us (cutoff {cutoff_us}us, cap {P99_CAP_US}us), \
         predictions identical",
        best_config.name
    );
    assert!(
        batched_speedup >= SPEEDUP_FLOOR,
        "batched speedup {batched_speedup:.2}x is below its {SPEEDUP_FLOOR}x floor"
    );
    assert!(
        batched_p99_us <= cutoff_us,
        "best config's p99 {batched_p99_us}us exceeds its {cutoff_us}us cutoff"
    );
    assert!(
        batched_p99_us <= P99_CAP_US,
        "best config's p99 {batched_p99_us}us exceeds the {P99_CAP_US}us cap"
    );
    assert!(
        delta_points <= INT8_DELTA_CAP_PTS,
        "int8 quantization costs {delta_points:.2} pts, over the {INT8_DELTA_CAP_PTS} pt cap"
    );
}
