//! Bench regression gate: diffs current `BENCH_*.json` records against
//! committed baselines with per-metric tolerance bands.
//!
//! Timing medians move with host load, so absolute nanoseconds are never
//! compared. The gate instead checks the *invariants* each bench record
//! exists to protect:
//!
//! - `BENCH_kernels.json` — every baselined `(op, shape)` still exists and
//!   keeps at least half its baseline speedup over the naive kernel (a 2×
//!   band absorbs host noise; losing more means a real kernel regression);
//! - `BENCH_trace.json` — traced and untraced reports stayed identical,
//!   and the disabled-path overhead is under an absolute 3% cap;
//! - `BENCH_experiments.json` — serial and parallel reports stayed
//!   identical, and every *measured* point of the 1/2/4-thread scaling
//!   curve clears its absolute speedup floor plus the retention band of
//!   its baseline point. Points the bench skipped because the host lacks
//!   the cores pass with a note — but a point skipped on a host that *has*
//!   the cores is a regression (the scaling feature silently stopped being
//!   measured);
//! - `BENCH_faults.json` — the recovered run is byte-identical to the
//!   clean one, injection still produces FAILED rows, and retry recovery
//!   costs at most baseline + 50 percentage points.
//! - `BENCH_serve.json` — predictions stayed byte-identical across
//!   batching configurations, dynamic batching keeps a real throughput
//!   edge over the one-request-at-a-time baseline (absolute floor plus a
//!   retention band of the committed baseline), the best config's p99
//!   stays under its latency cutoff, int8 quantization costs at most
//!   1 accuracy point, and the batched p99 stays within a 3× tolerance
//!   band of its baseline.
//!
//! The `bench_compare` bin prints one line per check and exits non-zero on
//! any regression; `scripts/tier1.sh` runs it on every tier-1 pass.

use serde::Value;

/// Disabled-path tracing overhead cap, in percent (absolute, not relative
/// to baseline: the whole point of the relaxed-load gate is that tracing
/// costs nothing when off).
pub const TRACE_OVERHEAD_CAP_PCT: f64 = 3.0;

/// Fraction of its baseline a speedup metric must retain.
pub const SPEEDUP_RETENTION: f64 = 0.5;

/// Percentage points of extra recovery overhead tolerated over baseline.
pub const RECOVERY_OVERHEAD_SLACK_PCT: f64 = 50.0;

/// Absolute floor on the measured 2-thread cell-parallel speedup over
/// serial (the scaling acceptance gate: two real cores must buy a real
/// speedup, not the ~1.0× of two threads time-slicing one core).
pub const SCALING_2T_SPEEDUP_FLOOR: f64 = 1.5;

/// Absolute floor on measured points at 4+ threads. Sub-linear headroom is
/// expected (shared caches, cells ≠ multiples of threads), so the floor
/// grows slower than the thread count.
pub const SCALING_4T_SPEEDUP_FLOOR: f64 = 1.8;

/// Absolute floor on the dynamic-batching throughput edge over the
/// one-request-at-a-time baseline (the serve acceptance gate).
///
/// What batching can buy is host-dependent. The per-request fixed cost
/// (queue handoff, wakeup, dispatch) is amortized across the batch on any
/// host, but the per-image variable cost (patch gather + GEMM) is paid either
/// way — so on a single-core host the measured edge tops out around
/// 1.1–1.4× for the smoke-budget student. On multi-core hosts the batched
/// forward crosses the GEMM parallelism threshold and fans out across the
/// pool while a batch-1 forward cannot, so the edge grows with cores. The
/// floor is set to the portable single-core guarantee (broken batching
/// shows up as ~1.0× or below); the [`SPEEDUP_RETENTION`] band against
/// the committed baseline keeps per-host regressions visible above it.
pub const SERVE_SPEEDUP_FLOOR: f64 = 1.05;

/// Maximum accuracy cost of int8 weight quantization, in points.
pub const SERVE_INT8_DELTA_CAP_PTS: f64 = 1.0;

/// Multiplicative tolerance band on the batched p99 latency vs its
/// baseline. Latency percentiles move with host load far more than
/// throughput ratios do, so the band is wide; the hard per-host bound is
/// `p99_within_cutoff`, which is absolute.
pub const SERVE_P99_TOLERANCE: f64 = 3.0;

/// One gate check: which metric, whether it passed, and a human line.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// Metric identifier, e.g. `kernels/matmul 64x128x96/speedup`.
    pub metric: String,
    /// Whether the check passed.
    pub ok: bool,
    /// Rendered `current vs baseline` detail.
    pub detail: String,
}

impl Check {
    fn pass(metric: impl Into<String>, detail: impl Into<String>) -> Check {
        Check { metric: metric.into(), ok: true, detail: detail.into() }
    }

    fn fail(metric: impl Into<String>, detail: impl Into<String>) -> Check {
        Check { metric: metric.into(), ok: false, detail: detail.into() }
    }
}

/// A malformed or incomplete bench record (distinct from a regression: the
/// bin exits 2 for these, 1 for regressions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompareError(pub String);

impl std::fmt::Display for CompareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CompareError {}

fn f64_field(v: &Value, key: &str, ctx: &str) -> Result<f64, CompareError> {
    match v.get(key) {
        Some(Value::Number(n)) => Ok(*n),
        other => Err(CompareError(format!("{ctx}: field '{key}' is not a number ({other:?})"))),
    }
}

fn bool_field(v: &Value, key: &str, ctx: &str) -> Result<bool, CompareError> {
    match v.get(key) {
        Some(Value::Bool(b)) => Ok(*b),
        other => Err(CompareError(format!("{ctx}: field '{key}' is not a bool ({other:?})"))),
    }
}

fn str_field<'v>(v: &'v Value, key: &str, ctx: &str) -> Result<&'v str, CompareError> {
    match v.get(key) {
        Some(Value::String(s)) => Ok(s),
        other => Err(CompareError(format!("{ctx}: field '{key}' is not a string ({other:?})"))),
    }
}

/// Reads an optional string field (absent or non-string returns `None`).
fn opt_str_field<'v>(v: &'v Value, key: &str) -> Option<&'v str> {
    match v.get(key) {
        Some(Value::String(s)) => Some(s),
        _ => None,
    }
}

/// Compares `BENCH_kernels.json` records (arrays of per-op entries): every
/// baselined `(op, shape)` must still exist and retain at least
/// [`SPEEDUP_RETENTION`] of its baseline speedup.
///
/// Records carry the SIMD `backend` they were measured under. When the
/// baseline and current rows name *different* backends (e.g. an `avx2`
/// baseline checked on a `scalar`-forced or aarch64 host) the speedup band
/// is skipped rather than reported as a regression — the comparison would
/// measure the host's instruction set, not the kernel.
///
/// # Errors
/// Returns [`CompareError`] on malformed records.
pub fn compare_kernels(current: &Value, baseline: &Value) -> Result<Vec<Check>, CompareError> {
    let ctx = "BENCH_kernels.json";
    let (Value::Array(cur), Value::Array(base)) = (current, baseline) else {
        return Err(CompareError(format!("{ctx}: expected a JSON array in both trees")));
    };
    let mut checks = Vec::new();
    for entry in base {
        let op = str_field(entry, "op", ctx)?;
        let shape = str_field(entry, "shape", ctx)?;
        let metric = format!("kernels/{op} {shape}/speedup");
        let base_speedup = f64_field(entry, "speedup", ctx)?;
        let found = cur.iter().find(|e| {
            opt_str_field(e, "op") == Some(op) && opt_str_field(e, "shape") == Some(shape)
        });
        let Some(found) = found else {
            checks.push(Check::fail(metric, "entry missing from current record"));
            continue;
        };
        let base_backend = opt_str_field(entry, "backend");
        let cur_backend = opt_str_field(found, "backend");
        if let (Some(bb), Some(cb)) = (base_backend, cur_backend) {
            if bb != cb {
                checks.push(Check::pass(
                    metric,
                    format!("skipped: baseline backend '{bb}', current '{cb}'"),
                ));
                continue;
            }
        }
        let cur_speedup = f64_field(found, "speedup", ctx)?;
        let floor = base_speedup * SPEEDUP_RETENTION;
        let detail = format!("{cur_speedup:.2}x vs baseline {base_speedup:.2}x (floor {floor:.2}x)");
        checks.push(if cur_speedup >= floor {
            Check::pass(metric, detail)
        } else {
            Check::fail(metric, detail)
        });
    }
    Ok(checks)
}

/// Compares `BENCH_trace.json`: byte-identical traced/untraced reports and
/// the absolute disabled-path overhead cap (the tier-1 "tracing stays
/// free" guard).
///
/// # Errors
/// Returns [`CompareError`] on malformed records.
pub fn compare_trace(current: &Value, _baseline: &Value) -> Result<Vec<Check>, CompareError> {
    let ctx = "BENCH_trace.json";
    let identical = bool_field(current, "reports_identical", ctx)?;
    let overhead = f64_field(current, "overhead_pct", ctx)?;
    let mut checks = vec![if identical {
        Check::pass("trace/reports_identical", "true")
    } else {
        Check::fail("trace/reports_identical", "traced run changed the report bytes")
    }];
    let detail = format!("{overhead:.2}% (cap {TRACE_OVERHEAD_CAP_PCT}%)");
    checks.push(if overhead <= TRACE_OVERHEAD_CAP_PCT {
        Check::pass("trace/overhead_pct", detail)
    } else {
        Check::fail("trace/overhead_pct", detail)
    });
    Ok(checks)
}

/// The scaling-curve points of a `BENCH_experiments.json` record, as
/// `(threads, skipped, speedup)` tuples in record order.
fn scaling_curve(record: &Value, ctx: &str) -> Result<Vec<(u64, bool, Option<f64>)>, CompareError> {
    let Some(Value::Array(points)) = record.get("curve") else {
        return Err(CompareError(format!("{ctx}: field 'curve' is not an array")));
    };
    points
        .iter()
        .map(|point| {
            let threads = f64_field(point, "threads", ctx)? as u64;
            let skipped = bool_field(point, "skipped", ctx)?;
            let speedup = match (skipped, threads) {
                (false, t) if t > 1 => Some(f64_field(point, "speedup", ctx)?),
                _ => None,
            };
            Ok((threads, skipped, speedup))
        })
        .collect()
}

/// The absolute speedup floor for a measured point at `threads` threads.
fn scaling_floor(threads: u64) -> f64 {
    if threads >= 4 {
        SCALING_4T_SPEEDUP_FLOOR
    } else {
        SCALING_2T_SPEEDUP_FLOOR
    }
}

/// Compares `BENCH_experiments.json`: byte-identical reports across every
/// measured thread count, and each measured point of the scaling curve
/// clears both its absolute floor ([`SCALING_2T_SPEEDUP_FLOOR`] /
/// [`SCALING_4T_SPEEDUP_FLOOR`]) and [`SPEEDUP_RETENTION`] of the matching
/// baseline point. Points skipped because `host_parallelism` is too low
/// pass with a note; a point skipped *despite* enough cores regresses.
///
/// # Errors
/// Returns [`CompareError`] on malformed records.
pub fn compare_experiments(current: &Value, baseline: &Value) -> Result<Vec<Check>, CompareError> {
    let ctx = "BENCH_experiments.json";
    let identical = bool_field(current, "reports_identical", ctx)?;
    let host = f64_field(current, "host_parallelism", ctx)? as u64;
    let curve = scaling_curve(current, ctx)?;
    let base_curve = scaling_curve(baseline, ctx)?;

    let mut checks = vec![if identical {
        Check::pass("experiments/reports_identical", "true")
    } else {
        Check::fail("experiments/reports_identical", "parallel run changed the report bytes")
    }];
    if !curve.iter().any(|&(t, skipped, _)| t == 1 && !skipped) {
        return Err(CompareError(format!("{ctx}: curve has no measured serial point")));
    }
    for &(threads, skipped, speedup) in curve.iter().filter(|&&(t, _, _)| t > 1) {
        let metric = format!("experiments/scaling_{threads}t");
        if skipped {
            checks.push(if threads > host {
                Check::pass(metric, format!("skipped (host_parallelism {host} < {threads})"))
            } else {
                Check::fail(
                    metric,
                    format!("skipped although the host has {host} cores — scaling went unmeasured"),
                )
            });
            continue;
        }
        let speedup =
            speedup.ok_or_else(|| CompareError(format!("{ctx}: measured {threads}t point lacks 'speedup'")))?;
        let base_point = base_curve
            .iter()
            .find(|&&(t, skipped, s)| t == threads && !skipped && s.is_some())
            .and_then(|&(_, _, s)| s);
        let floor = base_point.map_or(scaling_floor(threads), |b| {
            scaling_floor(threads).max(b * SPEEDUP_RETENTION)
        });
        let baseline_note =
            base_point.map_or_else(|| "no baseline point".to_string(), |b| format!("baseline {b:.2}x"));
        let detail = format!("{speedup:.2}x vs {baseline_note} (floor {floor:.2}x)");
        checks.push(if speedup >= floor {
            Check::pass(metric, detail)
        } else {
            Check::fail(metric, detail)
        });
    }
    Ok(checks)
}

/// Compares `BENCH_faults.json`: recovery must stay byte-identical,
/// injection must still fail rows, and recovery overhead may exceed
/// baseline by at most [`RECOVERY_OVERHEAD_SLACK_PCT`] points.
///
/// # Errors
/// Returns [`CompareError`] on malformed records.
pub fn compare_faults(current: &Value, baseline: &Value) -> Result<Vec<Check>, CompareError> {
    let ctx = "BENCH_faults.json";
    let identical = bool_field(current, "recovered_identical_to_clean", ctx)?;
    let failed_rows = f64_field(current, "failed_rows_without_retries", ctx)?;
    let cur_overhead = f64_field(current, "recovery_overhead_pct", ctx)?;
    let base_overhead = f64_field(baseline, "recovery_overhead_pct", ctx)?;
    let mut checks = vec![if identical {
        Check::pass("faults/recovered_identical_to_clean", "true")
    } else {
        Check::fail(
            "faults/recovered_identical_to_clean",
            "retried run no longer matches the clean run",
        )
    }];
    checks.push(if failed_rows >= 1.0 {
        Check::pass("faults/failed_rows_without_retries", format!("{failed_rows:.0} rows"))
    } else {
        Check::fail(
            "faults/failed_rows_without_retries",
            "fault injection produced no FAILED rows — the harness is not exercising recovery",
        )
    });
    let cap = base_overhead + RECOVERY_OVERHEAD_SLACK_PCT;
    let detail = format!("{cur_overhead:.2}% vs baseline {base_overhead:.2}% (cap {cap:.2}%)");
    checks.push(if cur_overhead <= cap {
        Check::pass("faults/recovery_overhead_pct", detail)
    } else {
        Check::fail("faults/recovery_overhead_pct", detail)
    });
    Ok(checks)
}

/// Compares `BENCH_serve.json`: byte-identical predictions across batching
/// configurations, the batched speedup holds both the absolute
/// [`SERVE_SPEEDUP_FLOOR`] and [`SPEEDUP_RETENTION`] of its baseline, the
/// best config's p99 stays under its own latency cutoff, int8 accuracy
/// loss stays under [`SERVE_INT8_DELTA_CAP_PTS`], and the batched p99
/// stays within [`SERVE_P99_TOLERANCE`]× its baseline.
///
/// # Errors
/// Returns [`CompareError`] on malformed records.
pub fn compare_serve(current: &Value, baseline: &Value) -> Result<Vec<Check>, CompareError> {
    let ctx = "BENCH_serve.json";
    let identical = bool_field(current, "predictions_identical", ctx)?;
    let within_cutoff = bool_field(current, "p99_within_cutoff", ctx)?;
    let cur_speedup = f64_field(current, "batched_speedup", ctx)?;
    let base_speedup = f64_field(baseline, "batched_speedup", ctx)?;
    let cur_p99 = f64_field(current, "batched_p99_us", ctx)?;
    let base_p99 = f64_field(baseline, "batched_p99_us", ctx)?;
    let int8 = current
        .get("int8")
        .ok_or_else(|| CompareError(format!("{ctx}: field 'int8' missing")))?;
    let delta = f64_field(int8, "delta_points", ctx)?;

    let mut checks = vec![if identical {
        Check::pass("serve/predictions_identical", "true")
    } else {
        Check::fail(
            "serve/predictions_identical",
            "a batching configuration changed a prediction",
        )
    }];
    let floor = SERVE_SPEEDUP_FLOOR.max(base_speedup * SPEEDUP_RETENTION);
    let detail = format!("{cur_speedup:.2}x vs baseline {base_speedup:.2}x (floor {floor:.2}x)");
    checks.push(if cur_speedup >= floor {
        Check::pass("serve/batched_speedup", detail)
    } else {
        Check::fail("serve/batched_speedup", detail)
    });
    checks.push(if within_cutoff {
        Check::pass("serve/p99_within_cutoff", "true")
    } else {
        Check::fail(
            "serve/p99_within_cutoff",
            "best config's p99 exceeded its max_latency_us cutoff",
        )
    });
    let cap = base_p99 * SERVE_P99_TOLERANCE;
    let detail = format!("{cur_p99:.0}us vs baseline {base_p99:.0}us (cap {cap:.0}us)");
    checks.push(if cur_p99 <= cap {
        Check::pass("serve/batched_p99_us", detail)
    } else {
        Check::fail("serve/batched_p99_us", detail)
    });
    let detail = format!("{delta:.2} pts (cap {SERVE_INT8_DELTA_CAP_PTS} pts)");
    checks.push(if delta <= SERVE_INT8_DELTA_CAP_PTS {
        Check::pass("serve/int8_delta_points", detail)
    } else {
        Check::fail("serve/int8_delta_points", detail)
    });
    Ok(checks)
}

/// Best-effort regression attribution: aligns a committed baseline trace
/// against the current run's trace (`trace_table02.jsonl`, written by
/// `bench_trace`) by span name and renders the per-span self-time deltas
/// sorted by contribution — the `cae-dfkd trace-diff` view, produced
/// in-process so the gate's failure output already names the span that
/// slowed down.
///
/// Attribution never gates: a missing or unparseable trace on either side
/// returns `None` and the numeric checks stand on their own.
pub fn attribute_regression(
    baseline_jsonl: &std::path::Path,
    current_jsonl: &std::path::Path,
) -> Option<String> {
    let base = std::fs::read_to_string(baseline_jsonl).ok()?;
    let cur = std::fs::read_to_string(current_jsonl).ok()?;
    let base = cae_trace::profile::Profile::from_jsonl(&base).ok()?;
    let cur = cae_trace::profile::Profile::from_jsonl(&cur).ok()?;
    Some(cae_trace::profile::diff(&base, &cur).render(10))
}

/// A per-file comparison function: `(current, baseline) -> checks`.
pub type CompareFn = fn(&Value, &Value) -> Result<Vec<Check>, CompareError>;

/// The five gated record files, paired with their comparison functions.
pub fn gated_files() -> [(&'static str, CompareFn); 5] {
    [
        ("BENCH_kernels.json", compare_kernels),
        ("BENCH_trace.json", compare_trace),
        ("BENCH_experiments.json", compare_experiments),
        ("BENCH_faults.json", compare_faults),
        ("BENCH_serve.json", compare_serve),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(json: &str) -> Value {
        serde_json::from_str(json).expect("test JSON parses")
    }

    const KERNELS: &str = r#"[
        {"op": "matmul", "shape": "64x128x96", "speedup": 4.4},
        {"op": "conv2d", "shape": "8x8x12x12->16", "speedup": 3.1}
    ]"#;

    #[test]
    fn identical_kernels_pass() {
        let checks = compare_kernels(&v(KERNELS), &v(KERNELS)).expect("compares");
        assert_eq!(checks.len(), 2);
        assert!(checks.iter().all(|c| c.ok));
    }

    #[test]
    fn kernel_speedup_below_half_baseline_regresses() {
        let current = v(r#"[
            {"op": "matmul", "shape": "64x128x96", "speedup": 2.0},
            {"op": "conv2d", "shape": "8x8x12x12->16", "speedup": 3.1}
        ]"#);
        let checks = compare_kernels(&current, &v(KERNELS)).expect("compares");
        let matmul = &checks[0];
        assert!(!matmul.ok, "2.0x < floor 2.2x must regress: {matmul:?}");
        assert!(checks[1].ok);
    }

    #[test]
    fn cross_backend_comparison_is_skipped_not_regressed() {
        let baseline = v(r#"[
            {"op": "matmul", "shape": "64x128x96", "backend": "avx2", "speedup": 9.0}
        ]"#);
        // Same op measured on a scalar-forced host at a fraction of the
        // speedup: must skip, not fail.
        let current = v(r#"[
            {"op": "matmul", "shape": "64x128x96", "backend": "scalar", "speedup": 1.1}
        ]"#);
        let checks = compare_kernels(&current, &baseline).expect("compares");
        assert!(checks[0].ok, "cross-backend must not regress: {:?}", checks[0]);
        assert!(checks[0].detail.contains("skipped"));

        // Same backend on both sides: the band applies again.
        let same = v(r#"[
            {"op": "matmul", "shape": "64x128x96", "backend": "avx2", "speedup": 1.1}
        ]"#);
        let checks = compare_kernels(&same, &baseline).expect("compares");
        assert!(!checks[0].ok, "same-backend collapse must regress");
    }

    #[test]
    fn missing_kernel_entry_regresses() {
        let current = v(r#"[{"op": "matmul", "shape": "64x128x96", "speedup": 4.4}]"#);
        let checks = compare_kernels(&current, &v(KERNELS)).expect("compares");
        assert!(checks[0].ok);
        assert!(!checks[1].ok);
        assert!(checks[1].detail.contains("missing"));
    }

    const TRACE: &str = r#"{"overhead_pct": 0.51, "reports_identical": true}"#;

    #[test]
    fn trace_overhead_over_cap_regresses() {
        let checks = compare_trace(&v(TRACE), &v(TRACE)).expect("compares");
        assert!(checks.iter().all(|c| c.ok));
        // Perturb past the 3% cap: the gate must fire.
        let hot = v(r#"{"overhead_pct": 3.7, "reports_identical": true}"#);
        let checks = compare_trace(&hot, &v(TRACE)).expect("compares");
        assert!(checks[0].ok);
        assert!(!checks[1].ok, "3.7% > 3% cap must regress");
    }

    #[test]
    fn trace_report_divergence_regresses() {
        let bad = v(r#"{"overhead_pct": 0.5, "reports_identical": false}"#);
        let checks = compare_trace(&bad, &v(TRACE)).expect("compares");
        assert!(!checks[0].ok);
    }

    /// A single-core host's record: parallel points skipped and marked.
    const EXPERIMENTS: &str = r#"{
        "host_parallelism": 1,
        "curve": [
            {"mode": "serial", "threads": 1, "seconds": 550.0, "skipped": false},
            {"mode": "parallel", "threads": 2, "skipped": true, "reason": "host_parallelism 1 < 2"},
            {"mode": "parallel", "threads": 4, "skipped": true, "reason": "host_parallelism 1 < 4"}
        ],
        "reports_identical": true
    }"#;

    /// A 4-core host's record with a fully measured curve.
    const EXPERIMENTS_4CORE: &str = r#"{
        "host_parallelism": 4,
        "curve": [
            {"mode": "serial", "threads": 1, "seconds": 550.0, "skipped": false},
            {"mode": "parallel", "threads": 2, "seconds": 289.0, "skipped": false, "speedup": 1.9},
            {"mode": "parallel", "threads": 4, "seconds": 170.0, "skipped": false, "speedup": 3.2}
        ],
        "reports_identical": true,
        "best_speedup": 3.2
    }"#;

    #[test]
    fn experiments_skipped_points_pass_only_when_the_host_lacks_cores() {
        // Single-core record: both parallel points skipped, with reasons —
        // the gate must not fail on noise that was never measured.
        let checks = compare_experiments(&v(EXPERIMENTS), &v(EXPERIMENTS)).expect("compares");
        assert_eq!(checks.len(), 3);
        assert!(checks.iter().all(|c| c.ok), "{checks:?}");
        assert!(checks[1].detail.contains("skipped"));

        // The same skipped curve claiming a 4-core host: scaling silently
        // went unmeasured — that is a regression, not a pass.
        let unmeasured = v(&EXPERIMENTS.replace("\"host_parallelism\": 1", "\"host_parallelism\": 4"));
        let checks = compare_experiments(&unmeasured, &v(EXPERIMENTS)).expect("compares");
        assert!(!checks[1].ok, "2t skipped despite 4 cores must regress: {checks:?}");
        assert!(!checks[2].ok);
    }

    #[test]
    fn experiments_measured_points_gate_on_floors_and_retention() {
        let base = v(EXPERIMENTS_4CORE);
        let checks = compare_experiments(&base, &base).expect("compares");
        assert_eq!(checks.len(), 3);
        assert!(checks.iter().all(|c| c.ok), "{checks:?}");

        // A measured 2-thread point below the absolute 1.5x floor fails
        // even with a weak baseline.
        let flat = v(&EXPERIMENTS_4CORE
            .replace("\"speedup\": 1.9", "\"speedup\": 1.01")
            .replace("\"best_speedup\": 3.2", "\"best_speedup\": 1.01"));
        let checks = compare_experiments(&flat, &flat).expect("compares");
        assert!(!checks[1].ok, "1.01x < 1.5x absolute floor must regress: {checks:?}");

        // Retention: 1.6x clears the absolute floor but not half of a 3.9x
        // baseline point.
        let strong_base = v(&EXPERIMENTS_4CORE.replace("\"speedup\": 1.9", "\"speedup\": 3.9"));
        let now = v(&EXPERIMENTS_4CORE.replace("\"speedup\": 1.9", "\"speedup\": 1.6"));
        assert!(compare_experiments(&now, &v(EXPERIMENTS_4CORE)).expect("compares")[1].ok);
        let checks = compare_experiments(&now, &strong_base).expect("compares");
        assert!(!checks[1].ok, "1.6x < 50% of 3.9x baseline must regress: {checks:?}");

        // A skipped baseline point imposes no retention band on a newly
        // measured current point (first run on a bigger host).
        let checks = compare_experiments(&base, &v(EXPERIMENTS)).expect("compares");
        assert!(checks.iter().all(|c| c.ok), "{checks:?}");
    }

    #[test]
    fn experiments_divergent_reports_and_malformed_curves_fire() {
        let diverged = v(&EXPERIMENTS.replace("\"reports_identical\": true", "\"reports_identical\": false"));
        let checks = compare_experiments(&diverged, &v(EXPERIMENTS)).expect("compares");
        assert!(!checks[0].ok);

        let err = compare_experiments(&v(r#"{"reports_identical": true, "host_parallelism": 1}"#), &v(EXPERIMENTS))
            .expect_err("missing curve");
        assert!(err.to_string().contains("curve"));

        let no_serial = v(r#"{
            "host_parallelism": 1,
            "curve": [{"mode": "parallel", "threads": 2, "skipped": true}],
            "reports_identical": true
        }"#);
        let err = compare_experiments(&no_serial, &v(EXPERIMENTS)).expect_err("no serial point");
        assert!(err.to_string().contains("serial"));
    }

    const FAULTS: &str = r#"{
        "failed_rows_without_retries": 15,
        "recovery_overhead_pct": -2.09,
        "recovered_identical_to_clean": true
    }"#;

    #[test]
    fn faults_invariants_hold_and_perturbations_fire() {
        let checks = compare_faults(&v(FAULTS), &v(FAULTS)).expect("compares");
        assert_eq!(checks.len(), 3);
        assert!(checks.iter().all(|c| c.ok));

        let no_rows = v(r#"{
            "failed_rows_without_retries": 0,
            "recovery_overhead_pct": -2.0,
            "recovered_identical_to_clean": true
        }"#);
        let checks = compare_faults(&no_rows, &v(FAULTS)).expect("compares");
        assert!(!checks[1].ok, "zero FAILED rows must regress");

        let slow = v(r#"{
            "failed_rows_without_retries": 15,
            "recovery_overhead_pct": 60.0,
            "recovered_identical_to_clean": true
        }"#);
        let checks = compare_faults(&slow, &v(FAULTS)).expect("compares");
        assert!(!checks[2].ok, "60% > -2.09% + 50pt cap must regress");
    }

    const SERVE: &str = r#"{
        "predictions_identical": true,
        "batched_speedup": 1.4,
        "p99_within_cutoff": true,
        "batched_p99_us": 1800,
        "int8": {"acc_f32": 0.71, "acc_int8": 0.705, "delta_points": 0.5}
    }"#;

    #[test]
    fn serve_invariants_hold_and_perturbations_fire() {
        let checks = compare_serve(&v(SERVE), &v(SERVE)).expect("compares");
        assert_eq!(checks.len(), 5);
        assert!(checks.iter().all(|c| c.ok), "{checks:?}");

        let diverged = v(&SERVE.replace("\"predictions_identical\": true", "\"predictions_identical\": false"));
        let checks = compare_serve(&diverged, &v(SERVE)).expect("compares");
        assert!(!checks[0].ok, "diverged predictions must regress");

        // 1.01x fails the absolute 1.05x floor even though it clears the
        // 50% retention band of the 1.4x baseline.
        let slow = v(&SERVE.replace("1.4", "1.01"));
        let checks = compare_serve(&slow, &v(SERVE)).expect("compares");
        assert!(!checks[1].ok, "1.01x < 1.05x absolute floor must regress");

        // A big baseline raises the floor through the retention band:
        // 1.6x is fine against 1.4x but regresses against 4.0x.
        let fast_base = v(&SERVE.replace("1.4", "4.0"));
        let ok_now = v(&SERVE.replace("1.4", "1.6"));
        let checks = compare_serve(&ok_now, &v(SERVE)).expect("compares");
        assert!(checks[1].ok, "1.6x clears floor and retention of 1.4x");
        let checks = compare_serve(&ok_now, &fast_base).expect("compares");
        assert!(!checks[1].ok, "1.6x < 50% of a 4.0x baseline must regress");

        let over = v(&SERVE.replace("\"p99_within_cutoff\": true", "\"p99_within_cutoff\": false"));
        let checks = compare_serve(&over, &v(SERVE)).expect("compares");
        assert!(!checks[2].ok, "p99 over cutoff must regress");

        let laggy = v(&SERVE.replace("1800", "6000"));
        let checks = compare_serve(&laggy, &v(SERVE)).expect("compares");
        assert!(!checks[3].ok, "6000us > 3x of 1800us band must regress");

        let lossy = v(&SERVE.replace("\"delta_points\": 0.5", "\"delta_points\": 1.4"));
        let checks = compare_serve(&lossy, &v(SERVE)).expect("compares");
        assert!(!checks[4].ok, "1.4 pts > 1 pt int8 cap must regress");
    }

    #[test]
    fn malformed_records_error_instead_of_passing() {
        let err = compare_trace(&v(r#"{"reports_identical": true}"#), &v(TRACE))
            .expect_err("missing overhead_pct");
        assert!(err.to_string().contains("overhead_pct"));
        let err = compare_kernels(&v(r#"{"not": "an array"}"#), &v(KERNELS))
            .expect_err("wrong shape");
        assert!(err.to_string().contains("array"));
        let no_int8 = v(r#"{
            "predictions_identical": true,
            "batched_speedup": 4.0,
            "p99_within_cutoff": true,
            "batched_p99_us": 1000
        }"#);
        let err = compare_serve(&no_int8, &v(SERVE)).expect_err("missing int8 block");
        assert!(err.to_string().contains("int8"));
    }

    #[test]
    fn attribution_names_the_slowed_span_and_never_gates() {
        let dir = std::env::temp_dir().join(format!("cae_attrib_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let base = dir.join("base.jsonl");
        let cur = dir.join("cur.jsonl");
        std::fs::write(
            &base,
            "{\"name\":\"experiment\",\"id\":1,\"parent\":null,\"thread\":0,\"start_ns\":0,\"dur_ns\":3000}\n\
             {\"name\":\"trainer.step\",\"id\":2,\"parent\":1,\"thread\":0,\"start_ns\":100,\"dur_ns\":1000}\n",
        )
        .expect("write base");
        std::fs::write(
            &cur,
            "{\"name\":\"experiment\",\"id\":1,\"parent\":null,\"thread\":0,\"start_ns\":0,\"dur_ns\":5000}\n\
             {\"name\":\"trainer.step\",\"id\":2,\"parent\":1,\"thread\":0,\"start_ns\":100,\"dur_ns\":3000}\n",
        )
        .expect("write cur");

        let rendered = attribute_regression(&base, &cur).expect("both traces parse");
        assert!(
            rendered.contains("top-delta span: trainer.step"),
            "attribution must name the slowed span:\n{rendered}"
        );

        // Missing or garbage traces degrade to None, never to an error.
        assert!(attribute_regression(&dir.join("absent.jsonl"), &cur).is_none());
        std::fs::write(&base, "not json at all").expect("write garbage");
        assert!(attribute_regression(&base, &cur).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn committed_baselines_pass_against_themselves() {
        // The baselines shipped in-tree must be internally consistent: the
        // gate run against identical current records reports zero
        // regressions (tier1's clean-tree invariant).
        let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/baselines"));
        for (file, compare) in gated_files() {
            let text = std::fs::read_to_string(dir.join(file))
                .unwrap_or_else(|e| panic!("baseline {file} unreadable: {e}"));
            let value: Value =
                serde_json::from_str(&text).unwrap_or_else(|e| panic!("baseline {file}: {e}"));
            let checks = compare(&value, &value).unwrap_or_else(|e| panic!("{file}: {e}"));
            assert!(
                checks.iter().all(|c| c.ok),
                "{file} baseline fails its own gate: {checks:?}"
            );
        }
    }
}
