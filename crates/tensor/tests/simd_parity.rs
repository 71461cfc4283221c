//! Scalar-vs-SIMD parity suite: every dispatched kernel must produce
//! **bit-identical** results on the scalar backend and on the best backend
//! the host supports (AVX2 on x86-64, NEON on aarch64). This is the
//! executable form of the determinism contract in `cae_tensor::simd` —
//! uniform 8-lane semantics, fused multiply-adds everywhere, fixed
//! reduction trees — and what lets tier1 byte-diff a scalar-forced
//! experiment report against an auto-detected one.
//!
//! Accuracy of the vectorized transcendentals is gated separately, with
//! ULP bounds against f32 libm.
//!
//! The backend override is process-global, so every test that flips it
//! holds [`BACKEND_LOCK`] and restores the detected backend before
//! releasing it.

use cae_tensor::conv::{self, Conv2dSpec};
use cae_tensor::gemm::gemm;
use cae_tensor::rng::TensorRng;
use cae_tensor::simd::{self, vecmath, Backend};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes tests that toggle the process-global backend.
static BACKEND_LOCK: Mutex<()> = Mutex::new(());

/// Takes the backend lock, surviving poisoning (an assert failure in one
/// test must not cascade into every later test).
fn backend_guard() -> std::sync::MutexGuard<'static, ()> {
    BACKEND_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` under the scalar backend and again under the detected one,
/// asserting both runs return bit-identical `Vec<f32>` output.
fn assert_backend_parity(label: &str, mut f: impl FnMut() -> Vec<f32>) {
    let _guard = backend_guard();
    let detected = simd::detected_backend();
    simd::force_backend(Backend::Scalar);
    let scalar = f();
    simd::force_backend(detected);
    let native = f();
    assert_eq!(scalar.len(), native.len(), "{label}: length diverged");
    for (i, (s, v)) in scalar.iter().zip(&native).enumerate() {
        assert!(
            s.to_bits() == v.to_bits(),
            "{label}: scalar vs {} diverged at [{i}]: {s:?} ({:#010x}) vs {v:?} ({:#010x})",
            detected.name(),
            s.to_bits(),
            v.to_bits(),
        );
    }
}

/// Distance in representable f32 values, treating the floats as points on
/// the ordered-integer number line (so `inf` is 1 ulp past `MAX`, and the
/// distance is symmetric across zero).
fn ulp_dist(a: f32, b: f32) -> u32 {
    fn ordered(x: f32) -> i64 {
        let bits = x.to_bits() as i32;
        i64::from(if bits < 0 { i32::MIN.wrapping_sub(bits) } else { bits })
    }
    if a.is_nan() || b.is_nan() {
        return if a.is_nan() && b.is_nan() { 0 } else { u32::MAX };
    }
    ordered(a).abs_diff(ordered(b)).min(u64::from(u32::MAX)) as u32
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// GEMM over all three stride layouts and shapes spanning partial
    /// MR x NR tiles produces the same bits on every backend.
    #[test]
    fn gemm_parity(seed in 0u64..1000, m in 1usize..10, n in 1usize..36, k in 1usize..20, layout in 0usize..3) {
        let mut rng = TensorRng::seed_from(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
        // NN, NT (B column-major view), TN (A column-major view).
        let (a_strides, b_strides) = match layout {
            0 => ((k, 1), (n, 1)),
            1 => ((k, 1), (1, k)),
            _ => ((1, m), (n, 1)),
        };
        assert_backend_parity("gemm", || {
            let mut c = vec![0.0f32; m * n];
            gemm(m, n, k, &a, a_strides, &b, b_strides, &mut c, false);
            c
        });
    }

    /// conv2d forward + backward (dx ++ dw ++ db) bit-agree across
    /// backends, including the packed-GEMM and implicit-im2col paths.
    #[test]
    fn conv2d_parity(seed in 0u64..1000, n in 1usize..3, c in 1usize..4, hw in 3usize..8, o in 1usize..5, stride in 1usize..3) {
        let mut rng = TensorRng::seed_from(seed);
        let x = rng.normal_tensor(&[n, c, hw, hw], 0.0, 1.0);
        let w = rng.normal_tensor(&[o, c, 3, 3], 0.0, 0.3);
        let bias = rng.normal_tensor(&[o], 0.0, 0.1);
        let spec = Conv2dSpec::new(3, stride, 1);
        let y = conv::conv2d(&x, &w, Some(&bias), spec);
        assert_backend_parity("conv2d fwd+bwd", || {
            let fwd = conv::conv2d(&x, &w, Some(&bias), spec);
            let (dx, dwb) = conv::conv2d_backward(&x, &w, &y, spec, conv::ConvGrads::ALL);
            let (dx, (dw, db)) = (dx.unwrap(), dwb.unwrap());
            let mut out = fwd.data().to_vec();
            out.extend_from_slice(dx.data());
            out.extend_from_slice(dw.data());
            out.extend_from_slice(db.data());
            out
        });
    }

    /// softmax_rows and the elementwise/reduction slice kernels agree
    /// across backends on ragged (non-multiple-of-8) lengths.
    #[test]
    fn slice_kernel_parity(seed in 0u64..1000, len in 1usize..70) {
        let mut rng = TensorRng::seed_from(seed);
        let a: Vec<f32> = (0..len).map(|_| rng.normal() * 3.0).collect();
        let b: Vec<f32> = (0..len).map(|_| rng.normal() * 3.0).collect();
        assert_backend_parity("slice kernels", || {
            let mut out = Vec::new();
            let mut buf = vec![0.0f32; len];
            vecmath::vec_exp(&a, &mut buf);
            out.extend_from_slice(&buf);
            vecmath::vec_tanh(&a, &mut buf);
            out.extend_from_slice(&buf);
            vecmath::vec_sigmoid(&a, &mut buf);
            out.extend_from_slice(&buf);
            vecmath::vec_relu_grad(&a, &b, &mut buf);
            out.extend_from_slice(&buf);
            vecmath::vec_leaky_relu(&a, 0.2, &mut buf);
            out.extend_from_slice(&buf);
            let mut act = a.clone();
            vecmath::vec_relu_inplace(&mut act);
            out.extend_from_slice(&act);
            act.copy_from_slice(&a);
            vecmath::vec_leaky_relu_inplace(&mut act, 0.2);
            out.extend_from_slice(&act);
            vecmath::vec_mul(&a, &b, &mut buf);
            out.extend_from_slice(&buf);
            let mut soft = a.clone();
            vecmath::vec_softmax(&mut soft);
            out.extend_from_slice(&soft);
            let mut axpy = a.clone();
            vecmath::vec_axpy(&mut axpy, &b, 0.37);
            out.extend_from_slice(&axpy);
            out.push(vecmath::vec_sum(&a));
            out.push(vecmath::vec_dot(&a, &b));
            out.push(vecmath::vec_max(&a));
            out
        });
    }

    /// int8 dequantization (whole-slice scale and per-column scales)
    /// bit-agrees across backends: the i8 → f32 widening is exact and the
    /// scale multiply is correctly rounded everywhere.
    #[test]
    fn dequant_parity(seed in 0u64..1000, len in 1usize..70) {
        let mut rng = TensorRng::seed_from(seed);
        let q: Vec<i8> = (0..len).map(|_| (rng.normal() * 60.0).clamp(-127.0, 127.0) as i8).collect();
        let scales: Vec<f32> = (0..len).map(|_| rng.normal().abs() * 0.01 + 1e-4).collect();
        assert_backend_parity("dequant kernels", || {
            let mut out = Vec::new();
            let mut buf = vec![0.0f32; len];
            vecmath::vec_dequant_i8(&q, scales[0], &mut buf);
            out.extend_from_slice(&buf);
            vecmath::vec_dequant_i8_cols(&q, &scales, &mut buf);
            out.extend_from_slice(&buf);
            out
        });
    }

    /// The fused Adam update step bit-agrees across backends.
    #[test]
    fn adam_parity(seed in 0u64..1000, len in 1usize..40, t in 1i32..100) {
        let mut rng = TensorRng::seed_from(seed);
        let w0: Vec<f32> = (0..len).map(|_| rng.normal()).collect();
        let m: Vec<f32> = (0..len).map(|_| rng.normal() * 0.1).collect();
        let v: Vec<f32> = (0..len).map(|_| (rng.normal() * 0.1).abs() + 1e-6).collect();
        let bc1 = 1.0 - 0.9f32.powi(t);
        let bc2 = 1.0 - 0.999f32.powi(t);
        assert_backend_parity("vec_adam", || {
            let mut w = w0.clone();
            vecmath::vec_adam(&mut w, &m, &v, 1e-3, bc1, bc2, 1e-8);
            w
        });
    }

    /// Batch-norm-style channel statistics (sum, scale, dot reductions over
    /// H*W chunks) bit-agree across backends for awkward chunk sizes.
    #[test]
    fn channel_reduction_parity(seed in 0u64..1000, chunks in 1usize..5, hw in 1usize..30) {
        let mut rng = TensorRng::seed_from(seed);
        let x: Vec<f32> = (0..chunks * hw).map(|_| rng.normal()).collect();
        let g: Vec<f32> = (0..chunks * hw).map(|_| rng.normal()).collect();
        assert_backend_parity("channel reductions", || {
            let mut out = Vec::new();
            for ci in 0..chunks {
                let xs = &x[ci * hw..(ci + 1) * hw];
                let gs = &g[ci * hw..(ci + 1) * hw];
                out.push(vecmath::vec_sum(xs));
                out.push(vecmath::vec_dot(xs, gs));
                let mut scaled = vec![0.0f32; hw];
                vecmath::vec_scale(gs, 0.731, &mut scaled);
                out.extend_from_slice(&scaled);
            }
            out
        });
    }
}

// --- ULP accuracy of the vectorized transcendentals vs f32 libm. ---------

/// Max ULP distance of `f` from `reference` over a dense sweep of `range`.
fn max_ulp_over(
    range: std::ops::Range<f32>,
    steps: usize,
    f: impl Fn(&[f32], &mut [f32]),
    reference: impl Fn(f32) -> f32,
) -> u32 {
    let xs: Vec<f32> = (0..steps)
        .map(|i| range.start + (range.end - range.start) * i as f32 / (steps - 1) as f32)
        .collect();
    let mut ys = vec![0.0f32; xs.len()];
    f(&xs, &mut ys);
    xs.iter()
        .zip(&ys)
        .map(|(&x, &y)| ulp_dist(y, reference(x)))
        .max()
        .unwrap_or(0)
}

#[test]
fn vec_exp_stays_within_ulp_bound_of_libm() {
    let _guard = backend_guard();
    // The working range of every exp call in the codebase (softmax inputs
    // are max-shifted to <= 0; KL and generator losses stay small).
    let ulp = max_ulp_over(-87.0..87.0, 200_001, vecmath::vec_exp, f32::exp);
    assert!(ulp <= 4, "vec_exp drifted to {ulp} ulp from libm expf");
    // Near the overflow cutoff the two-factor scaling may hand back inf one
    // representable value early; allow a slightly wider band there.
    let ulp = max_ulp_over(87.0..88.8, 20_001, vecmath::vec_exp, f32::exp);
    assert!(ulp <= 8, "vec_exp overflow-boundary drift: {ulp} ulp");
}

#[test]
fn vec_tanh_stays_within_ulp_bound_of_libm() {
    let _guard = backend_guard();
    let ulp = max_ulp_over(-9.5..9.5, 200_001, vecmath::vec_tanh, f32::tanh);
    assert!(ulp <= 8, "vec_tanh drifted to {ulp} ulp from libm tanhf");
    // tanh saturates to ±1 exactly past ~9.01; spot-check the far tail.
    let ulp = max_ulp_over(9.5..80.0, 2_001, vecmath::vec_tanh, f32::tanh);
    assert!(ulp <= 1, "vec_tanh saturation drift: {ulp} ulp");
}

#[test]
fn vec_sigmoid_stays_within_ulp_bound_of_reference() {
    let _guard = backend_guard();
    let reference = |x: f32| 1.0 / (1.0 + (-x).exp());
    let ulp = max_ulp_over(-30.0..30.0, 200_001, vecmath::vec_sigmoid, reference);
    assert!(ulp <= 8, "vec_sigmoid drifted to {ulp} ulp from composed libm");
}

#[test]
fn transcendental_edge_cases_match_libm_semantics() {
    let _guard = backend_guard();
    let probes = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        f32::MAX,
        f32::MIN,
        1e-40, // subnormal
        88.722_84,
        -104.0,
        -200.0,
        200.0,
    ];
    let mut out = vec![0.0f32; probes.len()];
    vecmath::vec_exp(&probes, &mut out);
    assert!(out[0].is_nan(), "exp(NaN) must be NaN");
    assert_eq!(out[1], f32::INFINITY);
    assert_eq!(out[2], 0.0);
    assert_eq!(out[3], 1.0);
    assert_eq!(out[4], 1.0);
    assert_eq!(out[5], f32::INFINITY);
    assert_eq!(out[6], 0.0);
    assert_eq!(out[7], 1.0);
    assert_eq!(out[10], 0.0, "exp underflows to exactly zero");
    assert_eq!(out[11], f32::INFINITY, "exp overflows to inf");

    vecmath::vec_tanh(&probes, &mut out);
    assert!(out[0].is_nan(), "tanh(NaN) must be NaN");
    assert_eq!(out[1], 1.0);
    assert_eq!(out[2], -1.0);
    assert_eq!(out[3], 0.0);
    assert_eq!(out[4].to_bits(), (-0.0f32).to_bits(), "tanh preserves -0.0");

    vecmath::vec_sigmoid(&probes, &mut out);
    assert!(out[0].is_nan(), "sigmoid(NaN) must be NaN");
    assert_eq!(out[1], 1.0);
    assert_eq!(out[2], 0.0);
    assert_eq!(out[3], 0.5);
}

/// The report-level contract: a full softmax + log-softmax round on
/// realistic logits is byte-identical between the scalar and native
/// backends (the slice-level guarantee, exercised end to end through the
/// Tensor API).
#[test]
fn tensor_level_softmax_is_bit_identical_across_backends() {
    let mut rng = TensorRng::seed_from(7);
    let logits = rng.normal_tensor(&[17, 13], 0.0, 4.0);
    assert_backend_parity("Tensor::softmax_rows", || {
        let p = logits.softmax_rows();
        let mut out = p.data().to_vec();
        out.push(p.sum());
        out.push(p.sq_norm());
        out
    });
}
