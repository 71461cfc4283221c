//! Kernel speedup report: times the blocked GEMM/conv kernels against the
//! naive baselines they replaced and writes `BENCH_kernels.json` at the
//! repository root.
//!
//! Each record carries `op`, `shape`, `ns_per_iter`, `gflops` and the active
//! SIMD `backend` for the current kernel; ops with a naive counterpart also
//! record `naive_ns_per_iter` and `speedup`. The naive baselines reproduce
//! the seed implementation faithfully — i-k-j saxpy / dot-product loop nests
//! plus the per-call scratch allocations the old conv passes performed —
//! minus the NaN-swallowing `== 0.0` skip branches, which almost never fire
//! on random data.
//!
//! Before overwriting `BENCH_kernels.json` the new rows are gated against
//! the file's current contents (see [`gate`]): a kernel that lost more than
//! half its speedup, or a row that disappeared, exits 1 and leaves the file
//! untouched (with no file yet, the run records afresh). Timing medians move with host load, so absolute nanoseconds
//! are never compared — only the speedup over the naive kernel timed in the
//! same process.
//!
//! Run with `cargo run --release -p cae-bench --bin bench_kernels`. Set
//! `CAE_SIMD=scalar` to measure the scalar fallback.

use cae_nn::infer::FreezeOptions;
use cae_nn::models::Arch;
use cae_nn::module::ForwardCtx;
use cae_tensor::conv::{self, Conv2dSpec, ConvEpilogue};
use cae_tensor::gemm::{gemm, gemm_reference};
use cae_tensor::rng::TensorRng;
use cae_tensor::simd::vecmath;
use cae_tensor::{Tensor, Var};
use criterion::{black_box, measure};
use serde::Value;
use std::process::ExitCode;
use std::time::Duration;

/// Measurement window per benchmark; long enough for stable means on the
/// sub-millisecond kernels measured here.
const WINDOW: Duration = Duration::from_millis(300);

/// Fraction of its prior speedup a kernel row must retain: a 2× band
/// absorbs host noise, losing more means a real kernel regression.
const SPEEDUP_RETENTION: f64 = 0.5;

struct Record {
    op: &'static str,
    shape: String,
    ns_per_iter: f64,
    gflops: f64,
    naive_ns_per_iter: Option<f64>,
    speedup: Option<f64>,
}

impl Record {
    fn to_value(&self) -> Value {
        let backend = cae_tensor::simd::active_backend().name();
        let mut fields = vec![
            ("op".to_string(), Value::String(self.op.to_string())),
            ("shape".to_string(), Value::String(self.shape.clone())),
            ("backend".to_string(), Value::String(backend.to_string())),
            ("ns_per_iter".to_string(), Value::Number(self.ns_per_iter)),
            ("gflops".to_string(), Value::Number(self.gflops)),
        ];
        if let (Some(naive), Some(speedup)) = (self.naive_ns_per_iter, self.speedup) {
            fields.push(("naive_ns_per_iter".to_string(), Value::Number(naive)));
            fields.push(("speedup".to_string(), Value::Number(speedup)));
        }
        Value::Object(fields)
    }
}

/// Times `fast` (and optionally `naive`) and builds the JSON record.
fn bench_pair<O1, O2>(
    op: &'static str,
    shape: String,
    flops: usize,
    mut fast: impl FnMut() -> O1,
    naive: Option<&mut dyn FnMut() -> O2>,
) -> Record {
    let m = measure(&mut fast, WINDOW);
    let gflops = flops as f64 / m.ns_per_iter;
    let (naive_ns, speedup) = match naive {
        Some(naive_fn) => {
            let nm = measure(naive_fn, WINDOW);
            (Some(nm.ns_per_iter), Some(nm.ns_per_iter / m.ns_per_iter))
        }
        None => (None, None),
    };
    let rec = Record {
        op,
        shape,
        ns_per_iter: m.ns_per_iter,
        gflops,
        naive_ns_per_iter: naive_ns,
        speedup,
    };
    match rec.speedup {
        Some(s) => println!(
            "{op:<28} {shape:<24} {ns:>12.0} ns/iter  {gflops:>7.2} GFLOP/s  speedup {s:>5.2}x",
            op = rec.op,
            shape = rec.shape,
            ns = rec.ns_per_iter,
            gflops = rec.gflops,
        ),
        None => println!(
            "{op:<28} {shape:<24} {ns:>12.0} ns/iter  {gflops:>7.2} GFLOP/s",
            op = rec.op,
            shape = rec.shape,
            ns = rec.ns_per_iter,
            gflops = rec.gflops,
        ),
    }
    rec
}

/// Seed-faithful explicit im2col (the lowering the kernel used before it
/// gathered patches straight into the GEMM's B panels).
fn im2col_naive(x: &[f32], c: usize, h: usize, w: usize, spec: Conv2dSpec, col: &mut [f32]) {
    let k = spec.kernel;
    let oh = spec.out_size(h);
    let ow = spec.out_size(w);
    let ncols = oh * ow;
    for ci in 0..c {
        for ki in 0..k {
            for kj in 0..k {
                let row = (ci * k + ki) * k + kj;
                let dst = &mut col[row * ncols..(row + 1) * ncols];
                for oi in 0..oh {
                    let ii = (oi * spec.stride + ki) as isize - spec.padding as isize;
                    for oj in 0..ow {
                        let jj = (oj * spec.stride + kj) as isize - spec.padding as isize;
                        dst[oi * ow + oj] =
                            if ii >= 0 && jj >= 0 && (ii as usize) < h && (jj as usize) < w {
                                x[(ci * h + ii as usize) * w + jj as usize]
                            } else {
                                0.0
                            };
                    }
                }
            }
        }
    }
}

/// Seed-faithful col2im adjoint.
fn col2im_naive(col: &[f32], c: usize, h: usize, w: usize, spec: Conv2dSpec, x: &mut [f32]) {
    let k = spec.kernel;
    let oh = spec.out_size(h);
    let ow = spec.out_size(w);
    let ncols = oh * ow;
    for ci in 0..c {
        for ki in 0..k {
            for kj in 0..k {
                let row = (ci * k + ki) * k + kj;
                let src = &col[row * ncols..(row + 1) * ncols];
                for oi in 0..oh {
                    let ii = (oi * spec.stride + ki) as isize - spec.padding as isize;
                    if ii < 0 || ii as usize >= h {
                        continue;
                    }
                    for oj in 0..ow {
                        let jj = (oj * spec.stride + kj) as isize - spec.padding as isize;
                        if jj < 0 || jj as usize >= w {
                            continue;
                        }
                        x[(ci * h + ii as usize) * w + jj as usize] += src[oi * ow + oj];
                    }
                }
            }
        }
    }
}

/// The seed's conv2d forward: fresh col buffer per call, naive GEMM.
fn conv2d_naive(x: &Tensor, weight: &Tensor, spec: Conv2dSpec) -> Tensor {
    let (n, c, h, w) = x.shape().nchw();
    let o = weight.shape().dims()[0];
    let oh = spec.out_size(h);
    let ow = spec.out_size(w);
    let ncols = oh * ow;
    let krows = c * spec.kernel * spec.kernel;
    let mut out = Tensor::zeros(&[n, o, oh, ow]);
    let mut col = vec![0.0f32; krows * ncols];
    for ni in 0..n {
        im2col_naive(&x.data()[ni * c * h * w..(ni + 1) * c * h * w], c, h, w, spec, &mut col);
        let dst = &mut out.data_mut()[ni * o * ncols..(ni + 1) * o * ncols];
        gemm_reference(o, ncols, krows, weight.data(), (krows, 1), &col, (ncols, 1), dst, true);
    }
    out
}

/// The seed's conv2d backward: per-call buffers, dot-product `dw`, saxpy
/// `dcol`.
fn conv2d_backward_naive(
    x: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: Conv2dSpec,
) -> (Tensor, Vec<f32>, Vec<f32>) {
    let (n, c, h, w) = x.shape().nchw();
    let o = weight.shape().dims()[0];
    let oh = spec.out_size(h);
    let ow = spec.out_size(w);
    let ncols = oh * ow;
    let krows = c * spec.kernel * spec.kernel;
    let mut dx = Tensor::zeros(&[n, c, h, w]);
    let mut dw = vec![0.0f32; o * krows];
    let mut db = vec![0.0f32; o];
    let mut col = vec![0.0f32; krows * ncols];
    let mut dcol = vec![0.0f32; krows * ncols];
    for ni in 0..n {
        let go = &grad_out.data()[ni * o * ncols..(ni + 1) * o * ncols];
        for oi in 0..o {
            db[oi] += go[oi * ncols..(oi + 1) * ncols].iter().sum::<f32>();
        }
        im2col_naive(&x.data()[ni * c * h * w..(ni + 1) * c * h * w], c, h, w, spec, &mut col);
        for oi in 0..o {
            let gorow = &go[oi * ncols..(oi + 1) * ncols];
            let dwrow = &mut dw[oi * krows..(oi + 1) * krows];
            for p in 0..krows {
                let crow = &col[p * ncols..(p + 1) * ncols];
                dwrow[p] += gorow.iter().zip(crow).map(|(&g, &cv)| g * cv).sum::<f32>();
            }
        }
        dcol.iter_mut().for_each(|v| *v = 0.0);
        for oi in 0..o {
            let wrow = &weight.data()[oi * krows..(oi + 1) * krows];
            let gorow = &go[oi * ncols..(oi + 1) * ncols];
            for (p, &wv) in wrow.iter().enumerate() {
                let drow = &mut dcol[p * ncols..(p + 1) * ncols];
                for (d, &g) in drow.iter_mut().zip(gorow) {
                    *d += wv * g;
                }
            }
        }
        col2im_naive(&dcol, c, h, w, spec, &mut dx.data_mut()[ni * c * h * w..(ni + 1) * c * h * w]);
    }
    (dx, dw, db)
}

fn gemm_record(
    op: &'static str,
    m: usize,
    n: usize,
    k: usize,
    a_strides: (usize, usize),
    b_strides: (usize, usize),
    rng: &mut TensorRng,
) -> Record {
    let alen = (m - 1) * a_strides.0 + (k - 1) * a_strides.1 + 1;
    let blen = (k - 1) * b_strides.0 + (n - 1) * b_strides.1 + 1;
    let a: Vec<f32> = (0..alen).map(|_| rng.normal()).collect();
    let b: Vec<f32> = (0..blen).map(|_| rng.normal()).collect();
    let mut c_fast = vec![0.0f32; m * n];
    let mut c_naive = vec![0.0f32; m * n];
    bench_pair(
        op,
        format!("{m}x{k}x{n}"),
        2 * m * n * k,
        || {
            gemm(m, n, k, &a, a_strides, &b, b_strides, &mut c_fast, false);
            black_box(c_fast[0])
        },
        Some(&mut || {
            gemm_reference(m, n, k, &a, a_strides, &b, b_strides, &mut c_naive, false);
            black_box(c_naive[0])
        }),
    )
}

fn str_field<'v>(row: &'v Value, key: &str) -> Option<&'v str> {
    match row.get(key) {
        Some(Value::String(s)) => Some(s),
        _ => None,
    }
}

fn speedup_of(row: &Value) -> Result<f64, String> {
    match row.get("speedup") {
        Some(Value::Number(n)) => Ok(*n),
        _ => Err(format!("row without a numeric speedup: {row:?}")),
    }
}

/// Gates the `current` rows against the `prior` record they are about to
/// replace, returning one line per regression (empty: the write may go
/// ahead). Every prior `(op, shape)` row must still exist and keep at
/// least [`SPEEDUP_RETENTION`] of its speedup. A row whose SIMD `backend`
/// changed (an `avx2` record re-measured scalar-forced or on another host)
/// is skipped: the ratio would measure the instruction set, not the kernel.
///
/// # Errors
/// Returns a message when either side is not an array of
/// `op`/`shape`/`speedup` rows.
fn gate(current: &[Value], prior: &Value) -> Result<Vec<String>, String> {
    let Value::Array(prior) = prior else {
        return Err("expected a JSON array of kernel rows".to_string());
    };
    let mut regressions = Vec::new();
    for row in prior {
        let (Some(op), Some(shape)) = (str_field(row, "op"), str_field(row, "shape")) else {
            return Err(format!("row without op/shape: {row:?}"));
        };
        let prior_speedup = speedup_of(row)?;
        let key = format!("{op} {shape}");
        let found = current
            .iter()
            .find(|r| str_field(r, "op") == Some(op) && str_field(r, "shape") == Some(shape));
        let Some(found) = found else {
            regressions.push(format!("{key}: row missing from the new measurement"));
            continue;
        };
        let (prior_backend, backend) = (str_field(row, "backend"), str_field(found, "backend"));
        if let (Some(pb), Some(b)) = (prior_backend, backend) {
            if pb != b {
                println!("  skipped {key}: prior backend '{pb}', now '{b}'");
                continue;
            }
        }
        let speedup = speedup_of(found)?;
        let floor = prior_speedup * SPEEDUP_RETENTION;
        if speedup < floor {
            regressions.push(format!(
                "{key}: {speedup:.2}x vs prior {prior_speedup:.2}x (floor {floor:.2}x)"
            ));
        }
    }
    Ok(regressions)
}

fn main() -> ExitCode {
    let mut rng = TensorRng::seed_from(42);

    // -- GEMM, all three layouts, at DFKD-realistic shapes. ---------------
    let mut records = vec![
        // The acceptance shape from the criterion suite.
        gemm_record("matmul", 64, 96, 128, (128, 1), (96, 1), &mut rng),
        // Generator fc: z[16, 64] -> [16, base*3*3] at base_width 24.
        gemm_record("matmul", 16, 216, 64, (64, 1), (216, 1), &mut rng),
        // CNCL similarity: anchors x candidates^T.
        gemm_record("matmul_nt", 16, 64, 64, (64, 1), (1, 64), &mut rng),
        // Linear-layer weight gradient: emb^T x grad_logits.
        gemm_record("matmul_tn", 64, 64, 16, (1, 64), (64, 1), &mut rng),
    ];

    // -- Convolution, forward and backward. -------------------------------
    let spec = Conv2dSpec::new(3, 1, 1);
    let x = rng.normal_tensor(&[8, 8, 12, 12], 0.0, 1.0);
    let w = rng.normal_tensor(&[16, 8, 3, 3], 0.0, 0.3);
    let (n, c, hh, ww, o) = (8usize, 8usize, 12usize, 12usize, 16usize);
    let conv_flops = 2 * n * o * (c * 9) * (hh * ww);
    records.push(bench_pair(
        "conv2d",
        format!("{n}x{c}x{hh}x{ww}->{o}"),
        conv_flops,
        || black_box(conv::conv2d(&x, &w, None, spec)),
        Some(&mut || black_box(conv2d_naive(&x, &w, spec))),
    ));
    let y = conv::conv2d(&x, &w, None, spec);
    records.push(bench_pair(
        "conv2d_backward",
        format!("{n}x{c}x{hh}x{ww}->{o}"),
        2 * conv_flops,
        || {
            black_box(conv::conv2d_backward(
                &x,
                &w,
                &y,
                spec,
                conv::ConvGrads::ALL,
            ))
        },
        Some(&mut || black_box(conv2d_backward_naive(&x, &w, &y, spec))),
    ));

    // Student trunk layer at the DFKD training batch size.
    let spec2 = Conv2dSpec::new(3, 2, 1);
    let xs = rng.normal_tensor(&[16, 12, 12, 12], 0.0, 1.0);
    let ws = rng.normal_tensor(&[24, 12, 3, 3], 0.0, 0.3);
    let sflops = 2 * 16 * 24 * (12 * 9) * (6 * 6);
    records.push(bench_pair(
        "conv2d",
        "16x12x12x12->24 s2".to_string(),
        sflops,
        || black_box(conv::conv2d(&xs, &ws, None, spec2)),
        Some(&mut || black_box(conv2d_naive(&xs, &ws, spec2))),
    ));

    // Fused conv+bias+ReLU epilogue against the two-pass path it replaced:
    // bias-adding conv followed by a separate out-of-place ReLU sweep over a
    // freshly allocated output tensor.
    let bias = rng.normal_tensor(&[16], 0.0, 0.1);
    records.push(bench_pair(
        "conv2d_bias_relu",
        format!("{n}x{c}x{hh}x{ww}->{o}"),
        conv_flops,
        || black_box(conv::conv2d_fused(&x, &w, Some(&bias), spec, ConvEpilogue::Relu)),
        Some(&mut || {
            let y = conv::conv2d(&x, &w, Some(&bias), spec);
            let mut out = Tensor::zeros(y.shape().dims());
            vecmath::vec_relu(y.data(), out.data_mut());
            black_box(out)
        }),
    ));

    // -- Frozen-graph inference vs the Var-based eval path. -----------------
    // A ResNet-18 teacher forward at the DFKD eval batch size. The naive side
    // reproduces the legacy call sites exactly: wrap the batch in a constant
    // Var, run the module under `ForwardCtx::eval()`, unwrap to a `Tensor` —
    // paying the autograd-node and BN normalization allocations the frozen
    // graph eliminates.
    let mut model_rng = TensorRng::seed_from(7);
    let model = Arch::ResNet18.build(10, 8, &mut model_rng);
    let frozen = model.freeze_with(&FreezeOptions::fused());
    let xb = rng.normal_tensor(&[16, 3, 8, 8], 0.0, 1.0);
    // Approximate FLOPs: conv MACs of the width-8 CIFAR ResNet-18 on 8x8
    // inputs (stem + three stages + head), times two, times the batch.
    let frozen_flops = 2 * 16 * 423_424;
    records.push(bench_pair(
        "frozen_forward",
        "resnet18-w8 16x3x8x8".to_string(),
        frozen_flops,
        || black_box(frozen.forward(&xb)),
        Some(&mut || {
            let logits = model.forward(&Var::constant(xb.clone()), &mut ForwardCtx::eval());
            black_box(logits.to_tensor())
        }),
    ));

    // -- Vectorized transcendentals and softmax. ---------------------------
    let logits = rng.normal_tensor(&[256, 100], 0.0, 2.0);
    // ~5 flops/element for the reduction passes; exp itself is uncounted so
    // the GFLOP/s column stays comparable across math-library versions.
    records.push(bench_pair(
        "softmax_rows",
        "256x100".to_string(),
        5 * 256 * 100,
        || black_box(logits.softmax_rows()),
        Some(&mut || {
            let (rows, k) = (256usize, 100usize);
            let mut out = vec![0.0f32; rows * k];
            for i in 0..rows {
                let row = &logits.data()[i * k..(i + 1) * k];
                let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let mut z = 0.0f32;
                for (o, &v) in out[i * k..(i + 1) * k].iter_mut().zip(row) {
                    *o = (v - m).exp();
                    z += *o;
                }
                for o in &mut out[i * k..(i + 1) * k] {
                    *o /= z;
                }
            }
            black_box(out[0])
        }),
    ));

    let xv: Vec<f32> = (0..4096).map(|_| rng.normal() * 4.0).collect();
    let mut yv = vec![0.0f32; xv.len()];
    let mut yn = vec![0.0f32; xv.len()];
    records.push(bench_pair(
        "vec_exp",
        "4096".to_string(),
        xv.len(),
        || {
            vecmath::vec_exp(&xv, &mut yv);
            black_box(yv[0])
        },
        Some(&mut || {
            for (y, &x) in yn.iter_mut().zip(&xv) {
                *y = x.exp();
            }
            black_box(yn[0])
        }),
    ));

    // -- Gate against the committed record, then report. -------------------
    let rows: Vec<Value> = records.iter().map(Record::to_value).collect();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    if let Ok(text) = std::fs::read_to_string(path) {
        let verdict = serde_json::from_str(&text)
            .map_err(|e| e.to_string())
            .and_then(|prior| gate(&rows, &prior));
        match verdict {
            Ok(regressions) if regressions.is_empty() => {}
            Ok(regressions) => {
                for line in &regressions {
                    eprintln!("REGRESSED {line}");
                }
                eprintln!("{} kernel row(s) regressed; {path} left untouched", regressions.len());
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("cannot gate against {path}: {e} (delete it to record afresh)");
                return ExitCode::FAILURE;
            }
        }
    }
    let json = serde_json::to_string_pretty(&Value::Array(rows))
        .expect("benchmark records always serialize");
    std::fs::write(path, json + "\n").expect("failed to write BENCH_kernels.json");
    println!("\nwrote {path}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(json: &str) -> Vec<Value> {
        match serde_json::from_str(json).expect("test JSON parses") {
            Value::Array(rows) => rows,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn check(current: &str, prior: &str) -> Vec<String> {
        let prior = serde_json::from_str(prior).expect("test JSON parses");
        gate(&rows(current), &prior).expect("well-formed prior")
    }

    const KERNELS: &str = r#"[
        {"op": "matmul", "shape": "64x128x96", "speedup": 4.4},
        {"op": "conv2d", "shape": "8x8x12x12->16", "speedup": 3.1}
    ]"#;

    #[test]
    fn identical_kernels_pass() {
        assert!(check(KERNELS, KERNELS).is_empty());
    }

    #[test]
    fn kernel_speedup_below_half_prior_regresses() {
        let current = r#"[
            {"op": "matmul", "shape": "64x128x96", "speedup": 2.0},
            {"op": "conv2d", "shape": "8x8x12x12->16", "speedup": 3.1}
        ]"#;
        let regressions = check(current, KERNELS);
        assert_eq!(regressions.len(), 1, "2.0x < floor 2.2x must regress: {regressions:?}");
        assert!(regressions[0].starts_with("matmul 64x128x96"), "{regressions:?}");
    }

    #[test]
    fn cross_backend_comparison_is_skipped_not_regressed() {
        let prior = r#"[{"op": "matmul", "shape": "64x128x96", "backend": "avx2", "speedup": 9.0}]"#;
        // Same op measured on a scalar-forced host at a fraction of the
        // speedup: must skip, not fail.
        let scalar = r#"[{"op": "matmul", "shape": "64x128x96", "backend": "scalar", "speedup": 1.1}]"#;
        assert!(check(scalar, prior).is_empty());
        // Same backend on both sides: the band applies again.
        let same = r#"[{"op": "matmul", "shape": "64x128x96", "backend": "avx2", "speedup": 1.1}]"#;
        assert_eq!(check(same, prior).len(), 1, "same-backend collapse must regress");
    }

    #[test]
    fn missing_kernel_entry_regresses() {
        let current = r#"[{"op": "matmul", "shape": "64x128x96", "speedup": 4.4}]"#;
        let regressions = check(current, KERNELS);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("conv2d") && regressions[0].contains("missing"));
    }
}
