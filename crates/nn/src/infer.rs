//! Graph-free inference: frozen models compiled from trained modules.
//!
//! Every inference-shaped forward in the stack — teacher logits in the
//! trainer, accuracy/agreement metrics, confidence profiles, CNCL anchor
//! generation, transfer-eval feature extraction — used to run through the
//! full autograd graph (`Var::constant` plus per-op node allocation) even
//! though no gradient was ever requested. This module compiles a trained
//! [`Module`](crate::module::Module) into a flat program of [`FrozenOp`]s
//! over plain [`Tensor`]s: no `Arc`/`RwLock` node per op, no tape, just the
//! SIMD `vecmath`/GEMM kernels the autograd forwards already bottom out in.
//!
//! Two freeze modes, selected by [`FreezeMode`] through [`FreezeOptions`]:
//!
//! * [`FreezeMode::Exact`] replays the evaluation-mode autograd forward
//!   kernel for kernel — the same conv → four-pass BN-eval → activation
//!   sequence, in the same per-channel loop order, on the same dispatched
//!   kernels — so outputs are **bit-identical** to
//!   `Module::forward(.., &mut ForwardCtx::eval())`. `tests/frozen_parity.rs`
//!   gates this for every architecture; it is the reference the fused mode
//!   is checked against, and `cae-dfkd freeze --mode exact` exports it.
//! * [`FreezeMode::Fused`] (the default, and what every eval forward in the
//!   stack uses) folds each conv's following batch-norm into adjusted
//!   weights/bias, fuses ReLU/leaky-ReLU epilogues into the conv bias pass
//!   ([`cae_tensor::conv::conv2d_fused`]), and collapses standalone BN
//!   layers into a single fma scale-shift pass. Results agree with the
//!   exact path within the tolerance documented in
//!   `tests/frozen_parity.rs` (|a−b| ≤ 1e-4 + 1e-3·|b|): the only rounding
//!   differences are one fma per folded op and the algebraic rearrangement
//!   `γ·(x−μ)·σ⁻¹+β → x·s+t`.
//!
//! Frozen models round-trip to disk through [`crate::serialize`]
//! (`frozen_to_json` / `frozen_classifier_from_json`): this is the seam a
//! future `cae-serve` loads from, with no training state attached.

use crate::layers::{BatchNorm2d, Conv2d, Linear};
use cae_tensor::conv::{self, Conv2dSpec, ConvEpilogue};
use cae_tensor::simd::vecmath;
use cae_tensor::{linalg, Tensor};

/// How [`freeze_with`](crate::module::Classifier::freeze_with) compiles a
/// module (carried by [`FreezeOptions`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FreezeMode {
    /// No folding: replay the eval-mode autograd kernels bit-for-bit.
    Exact,
    /// Fold conv+BN and fuse activation epilogues (default).
    #[default]
    Fused,
}

serde::impl_json_unit_enum!(FreezeMode { Exact, Fused });

/// How to compile a module into a frozen program: the [`FreezeMode`] plus
/// optional int8 weight quantization. Replaces the old positional
/// `freeze(mode)` so new knobs land without another positional parameter.
///
/// ```
/// use cae_nn::infer::{FreezeMode, FreezeOptions};
/// let exact = FreezeOptions::exact();
/// let int8 = FreezeOptions::fused().int8();
/// assert_eq!(exact.mode, FreezeMode::Exact);
/// assert!(int8.quantize.is_some());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FreezeOptions {
    /// Folding mode (default [`FreezeMode::Fused`]).
    pub mode: FreezeMode,
    /// Optional weight quantization applied after compilation.
    pub quantize: Option<QuantSpec>,
}

impl FreezeOptions {
    /// Fused compilation, no quantization (the default).
    pub fn fused() -> Self {
        FreezeOptions::default()
    }

    /// Exact (bit-identical) compilation, no quantization.
    pub fn exact() -> Self {
        FreezeOptions::with_mode(FreezeMode::Exact)
    }

    /// Options for an explicit mode, no quantization.
    pub fn with_mode(mode: FreezeMode) -> Self {
        FreezeOptions { mode, quantize: None }
    }

    /// Adds int8 per-output-channel symmetric weight quantization.
    pub fn int8(mut self) -> Self {
        self.quantize = Some(QuantSpec::int8());
        self
    }

    /// Applies the post-compilation steps (quantization) to a freshly
    /// compiled classifier. Model `freeze_with` implementations funnel
    /// their result through this.
    pub fn finish_classifier(&self, mut frozen: FrozenClassifier) -> FrozenClassifier {
        if let Some(spec) = &self.quantize {
            frozen.quantize(spec);
        }
        frozen
    }

    /// Applies the post-compilation steps to a freshly compiled generator.
    pub fn finish_generator(&self, mut frozen: FrozenGenerator) -> FrozenGenerator {
        if let Some(spec) = &self.quantize {
            frozen.quantize(spec);
        }
        frozen
    }
}

// ---------------------------------------------------------------------------
// int8 weight quantization.

/// Weight-quantization scheme: int8, symmetric, one scale per output
/// channel (`scale_o = max|W[o]| / 127`, values clamped to `[-127, 127]`).
///
/// Quantization happens at freeze time and is immediately *dequantized*
/// back into the op's f32 weight — every stored f32 is exactly
/// `scale · q` for an integer `q`, so the fused conv/GEMM path runs
/// unchanged and serialization can ship the i8 payload instead of the f32
/// weights ("dequant-on-load").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantSpec {
    /// Floor applied to each channel scale so all-zero channels keep a
    /// finite scale (and dequantize to exact zeros).
    pub min_scale: f32,
}

impl QuantSpec {
    /// The int8 per-output-channel symmetric scheme.
    pub fn int8() -> Self {
        QuantSpec {
            min_scale: f32::MIN_POSITIVE,
        }
    }
}

impl Default for QuantSpec {
    fn default() -> Self {
        QuantSpec::int8()
    }
}

/// Which axis of the stored tensor the per-channel scales run along.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantLayout {
    /// One scale per leading-dimension slice (conv weights `[O, C, k, k]`:
    /// each output channel is one contiguous block).
    Row,
    /// One scale per trailing-dimension column (linear weights
    /// `[in, out]`: each output unit is one strided column).
    Col,
}

serde::impl_json_unit_enum!(QuantLayout { Row, Col });

/// An int8-quantized weight tensor: shape, per-channel scales, and the
/// quantized values. Dequantizes through the SIMD slice kernels
/// ([`vecmath::vec_dequant_i8`] / [`vecmath::vec_dequant_i8_cols`]), which
/// are bit-identical across backends — so `dequantize()` reproduces the
/// in-memory frozen weights exactly, on any host.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantTensor {
    shape: Vec<usize>,
    scales: Vec<f32>,
    layout: QuantLayout,
    data: Vec<i8>,
}

serde::impl_json_struct!(QuantTensor {
    shape,
    scales,
    layout,
    data,
});

impl QuantTensor {
    /// Quantizes with one scale per leading-dimension slice (the conv
    /// weight layout: output channel `o` owns `w[o·per .. (o+1)·per]`).
    pub fn quantize_rows(w: &Tensor, spec: &QuantSpec) -> QuantTensor {
        let dims = w.shape().dims();
        let rows = dims.first().copied().unwrap_or(1).max(1);
        let per = w.numel() / rows;
        let wd = w.data();
        let mut scales = Vec::with_capacity(rows);
        let mut data = Vec::with_capacity(w.numel());
        for r in 0..rows {
            let block = &wd[r * per..(r + 1) * per];
            let scale = row_scale(block.iter().copied(), spec);
            scales.push(scale);
            data.extend(block.iter().map(|&v| quantize_value(v, scale)));
        }
        QuantTensor {
            shape: dims.to_vec(),
            scales,
            layout: QuantLayout::Row,
            data,
        }
    }

    /// Quantizes a 2-d `[in, out]` tensor with one scale per column (the
    /// linear weight layout: output unit `o` owns column `o`).
    pub fn quantize_cols(w: &Tensor, spec: &QuantSpec) -> QuantTensor {
        let dims = w.shape().dims();
        assert_eq!(dims.len(), 2, "per-column quantization expects 2-d, got {dims:?}");
        let (rows, cols) = (dims[0], dims[1]);
        let wd = w.data();
        let scales: Vec<f32> = (0..cols)
            .map(|c| row_scale((0..rows).map(|r| wd[r * cols + c]), spec))
            .collect();
        let data: Vec<i8> = wd
            .iter()
            .enumerate()
            .map(|(i, &v)| quantize_value(v, scales[i % cols]))
            .collect();
        QuantTensor {
            shape: dims.to_vec(),
            scales,
            layout: QuantLayout::Col,
            data,
        }
    }

    /// Reconstructs the f32 tensor via the dispatched dequant kernels.
    pub fn dequantize(&self) -> Tensor {
        let mut out = Tensor::zeros(&self.shape);
        let od = out.data_mut();
        match self.layout {
            QuantLayout::Row => {
                let per = self.data.len() / self.scales.len().max(1);
                for (r, &scale) in self.scales.iter().enumerate() {
                    let span = r * per..(r + 1) * per;
                    vecmath::vec_dequant_i8(&self.data[span.clone()], scale, &mut od[span]);
                }
            }
            QuantLayout::Col => {
                let cols = self.scales.len();
                for (src, dst) in self.data.chunks(cols).zip(od.chunks_mut(cols)) {
                    vecmath::vec_dequant_i8_cols(src, &self.scales, dst);
                }
            }
        }
        out
    }

    /// Per-channel scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Shape of the dequantized tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Quantized payload.
    pub fn data(&self) -> &[i8] {
        &self.data
    }
}

fn row_scale(values: impl Iterator<Item = f32>, spec: &QuantSpec) -> f32 {
    let max_abs = values.fold(0.0f32, |m, v| m.max(v.abs()));
    (max_abs / 127.0).max(spec.min_scale)
}

fn quantize_value(v: f32, scale: f32) -> i8 {
    (v / scale).round().clamp(-127.0, 127.0) as i8
}

/// Quantizes every Conv/Linear weight in a program in place, recursing
/// into residual blocks. Weights are replaced by their dequantized form so
/// execution stays pure f32.
fn quantize_ops(ops: &mut [FrozenOp], spec: &QuantSpec) {
    for op in ops {
        quantize_op(op, spec);
    }
}

fn quantize_op(op: &mut FrozenOp, spec: &QuantSpec) {
    match op {
        FrozenOp::Conv { weight, qweight, .. } => {
            let q = QuantTensor::quantize_rows(weight, spec);
            *weight = q.dequantize();
            *qweight = Some(Box::new(q));
        }
        FrozenOp::Linear { weight, qweight, .. } => {
            let q = QuantTensor::quantize_cols(weight, spec);
            *weight = q.dequantize();
            *qweight = Some(Box::new(q));
        }
        FrozenOp::Block { pre, main, skip, .. } => {
            quantize_ops(pre, spec);
            quantize_ops(main, spec);
            if let Some(skip) = skip {
                quantize_ops(skip, spec);
            }
        }
        _ => {}
    }
}

/// Activation attached to a frozen op (or standing alone as
/// [`FrozenOp::Act`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Activation {
    /// Identity.
    None,
    /// `max(x, 0)`.
    Relu,
    /// `x > 0 ? x : slope·x`.
    LeakyRelu(f32),
    /// Hyperbolic tangent (never fused into a conv epilogue).
    Tanh,
}

/// One instruction of a frozen model's flat program.
///
/// Parameters are snapshotted [`Tensor`]s; executing an op performs zero
/// autograd allocation. Residual topologies are expressed by the nested
/// [`FrozenOp::Block`], which covers both post-activation (ResNet) and
/// pre-activation (WideResNet) residual forms.
#[derive(Debug, Clone, PartialEq)]
pub enum FrozenOp {
    /// Implicit-GEMM convolution with optional bias and fused epilogue.
    Conv {
        /// `[O, C, k, k]` weights (BN-folded in fused mode; when
        /// `qweight` is present, exactly its dequantized form).
        weight: Tensor,
        /// Per-output-channel bias.
        bias: Option<Tensor>,
        /// Kernel/stride/padding.
        spec: Conv2dSpec,
        /// Epilogue fused into the bias pass (always `None` in exact mode).
        act: Activation,
        /// int8 payload when the op was frozen with quantization;
        /// serialization ships this instead of the f32 weights.
        qweight: Option<Box<QuantTensor>>,
    },
    /// Exact-mode BN eval: four sequential per-channel passes replaying
    /// `add_channels(−μ) → mul_channels(σ⁻¹) → mul_channels(γ) →
    /// add_channels(β)` on the same kernels in the same order.
    BnEval {
        /// `−running_mean`, computed via `Tensor::scale(-1.0)` exactly as
        /// the autograd path's `rm.neg()`.
        neg_mean: Tensor,
        /// `1 / sqrt(running_var + eps)`, the autograd path's expression.
        inv_std: Tensor,
        /// Learned scale.
        gamma: Tensor,
        /// Learned shift.
        beta: Tensor,
    },
    /// Fused standalone BN eval: one per-channel fma pass
    /// `x·scale + shift` with an optional fused activation.
    ScaleShift {
        /// `γ / sqrt(running_var + eps)` per channel.
        scale: Tensor,
        /// `β − running_mean · scale` per channel.
        shift: Tensor,
        /// Activation fused into the same pass.
        act: Activation,
    },
    /// Standalone out-of-place activation (the exact-mode form, and tanh).
    Act(Activation),
    /// Max pooling; skipped when the input extent is smaller than the
    /// window (replicating VGG's dimension-guarded pooling).
    MaxPool {
        /// Window size.
        kernel: usize,
        /// Stride.
        stride: usize,
    },
    /// Nearest-neighbour upsampling by an integer factor.
    Upsample {
        /// Scale factor.
        factor: usize,
    },
    /// Mean over each feature map: `[N, C, H, W] → [N, C]`.
    GlobalAvgPool,
    /// Row-major dense layer `y = x·W + b`.
    Linear {
        /// `[in, out]` weights (when `qweight` is present, exactly its
        /// dequantized form).
        weight: Tensor,
        /// `[out]` bias.
        bias: Tensor,
        /// int8 payload when the op was frozen with quantization.
        qweight: Option<Box<QuantTensor>>,
    },
    /// Reinterpret `[N, ch·h·w]` as `[N, ch, h, w]`.
    Reshape {
        /// Channels.
        ch: usize,
        /// Height.
        h: usize,
        /// Width.
        w: usize,
    },
    /// Residual block: `out = post(main(p) + skip(p))` where
    /// `p = pre(x)` and a missing `skip` takes the *original* input `x`
    /// (pre-activation identity shortcuts bypass `pre`).
    Block {
        /// Pre-activation prefix shared by both branches (empty for
        /// post-activation blocks).
        pre: Vec<FrozenOp>,
        /// Main branch.
        main: Vec<FrozenOp>,
        /// Projection shortcut; `None` means identity on the original
        /// input.
        skip: Option<Vec<FrozenOp>>,
        /// Activation applied after the residual add.
        post: Activation,
    },
}

// ---------------------------------------------------------------------------
// Execution.

/// Runs a program on a borrowed input, avoiding the defensive copy when the
/// first op only reads its input.
fn run(ops: &[FrozenOp], x: &Tensor) -> Tensor {
    match ops.split_first() {
        None => x.clone(),
        Some((first, rest)) => run_owned(rest, apply_ref(first, x)),
    }
}

fn run_owned(ops: &[FrozenOp], mut x: Tensor) -> Tensor {
    for op in ops {
        x = apply_owned(op, x);
    }
    x
}

/// Applies one op to a borrowed input. In-place ops (`BnEval`,
/// `ScaleShift`) clone first; everything else reads through the reference.
fn apply_ref(op: &FrozenOp, x: &Tensor) -> Tensor {
    match op {
        FrozenOp::BnEval { .. } | FrozenOp::ScaleShift { .. } | FrozenOp::Block { .. } => {
            apply_owned(op, x.clone())
        }
        FrozenOp::Conv {
            weight,
            bias,
            spec,
            act,
            ..
        } => apply_conv(x, weight, bias.as_ref(), *spec, *act),
        FrozenOp::Act(act) => activation(x, *act),
        FrozenOp::MaxPool { kernel, stride } => apply_max_pool(x, *kernel, *stride),
        FrozenOp::Upsample { factor } => conv::upsample_nearest2d(x, *factor),
        FrozenOp::GlobalAvgPool => global_avg_pool(x),
        FrozenOp::Linear { weight, bias, .. } => apply_linear(x, weight, bias),
        FrozenOp::Reshape { ch, h, w } => apply_reshape(x, *ch, *h, *w),
    }
}

fn apply_owned(op: &FrozenOp, x: Tensor) -> Tensor {
    match op {
        FrozenOp::BnEval {
            neg_mean,
            inv_std,
            gamma,
            beta,
        } => {
            // Four sequential whole-tensor passes, matching the autograd
            // eval path's `add_channels`/`mul_channels` chain op for op
            // (same kernels, same per-(n,c) loop order → bit-identical).
            let mut x = x;
            channel_pass(&mut x, neg_mean, vecmath::vec_add_scalar_inplace);
            channel_pass(&mut x, inv_std, vecmath::vec_scale_inplace);
            channel_pass(&mut x, gamma, vecmath::vec_scale_inplace);
            channel_pass(&mut x, beta, vecmath::vec_add_scalar_inplace);
            x
        }
        FrozenOp::ScaleShift { scale, shift, act } => {
            let mut x = x;
            let (n, c, h, w) = x.shape().nchw();
            let hw = h * w;
            let (sd, td) = (scale.data(), shift.data());
            let xd = x.data_mut();
            for ni in 0..n {
                for ci in 0..c {
                    let off = (ni * c + ci) * hw;
                    let row = &mut xd[off..off + hw];
                    match *act {
                        Activation::None | Activation::Tanh => {
                            vecmath::vec_scale_shift_inplace(row, sd[ci], td[ci]);
                        }
                        Activation::Relu => {
                            vecmath::vec_scale_shift_relu_inplace(row, sd[ci], td[ci]);
                        }
                        Activation::LeakyRelu(slope) => {
                            vecmath::vec_scale_shift_leaky_relu_inplace(row, sd[ci], td[ci], slope);
                        }
                    }
                }
            }
            if *act == Activation::Tanh {
                activation(&x, Activation::Tanh)
            } else {
                x
            }
        }
        FrozenOp::Block {
            pre,
            main,
            skip,
            post,
        } => {
            let mut out = match skip {
                Some(sops) => {
                    let p = run_owned(pre, x);
                    let identity = run(sops, &p);
                    let mut out = run(main, &p);
                    vecmath::vec_add_inplace(out.data_mut(), identity.data());
                    out
                }
                None => {
                    // Identity shortcut takes the original input, before
                    // any pre-activation prefix.
                    let mut out = if pre.is_empty() {
                        run(main, &x)
                    } else {
                        run_owned(main, run(pre, &x))
                    };
                    vecmath::vec_add_inplace(out.data_mut(), x.data());
                    out
                }
            };
            match *post {
                Activation::None => {}
                // In place, on the same lane ops as `activation`.
                Activation::Relu => vecmath::vec_relu_inplace(out.data_mut()),
                Activation::LeakyRelu(slope) => {
                    vecmath::vec_leaky_relu_inplace(out.data_mut(), slope)
                }
                Activation::Tanh => out = activation(&out, Activation::Tanh),
            }
            out
        }
        _ => apply_ref(op, &x),
    }
}

/// One per-channel pass over `[N, C, H, W]` with a scalar-per-channel
/// kernel — the loop shape of the autograd `add_channels`/`mul_channels`
/// forwards.
fn channel_pass(x: &mut Tensor, per_channel: &Tensor, kernel: fn(&mut [f32], f32)) {
    let (n, c, h, w) = x.shape().nchw();
    let hw = h * w;
    let s = per_channel.data();
    let xd = x.data_mut();
    for ni in 0..n {
        for (ci, &sv) in s.iter().enumerate().take(c) {
            let off = (ni * c + ci) * hw;
            kernel(&mut xd[off..off + hw], sv);
        }
    }
}

fn apply_conv(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
    act: Activation,
) -> Tensor {
    match act {
        Activation::None => conv::conv2d(x, weight, bias, spec),
        Activation::Relu => conv::conv2d_fused(x, weight, bias, spec, ConvEpilogue::Relu),
        Activation::LeakyRelu(slope) => {
            conv::conv2d_fused(x, weight, bias, spec, ConvEpilogue::LeakyRelu(slope))
        }
        Activation::Tanh => {
            let y = conv::conv2d(x, weight, bias, spec);
            activation(&y, Activation::Tanh)
        }
    }
}

/// Out-of-place activation on the same dispatched kernels as the autograd
/// forwards (`vec_relu` / `vec_leaky_relu` / `vec_tanh`).
fn activation(x: &Tensor, act: Activation) -> Tensor {
    let mut out = Tensor::zeros(x.shape().dims());
    match act {
        Activation::None => return x.clone(),
        Activation::Relu => vecmath::vec_relu(x.data(), out.data_mut()),
        Activation::LeakyRelu(slope) => vecmath::vec_leaky_relu(x.data(), slope, out.data_mut()),
        Activation::Tanh => vecmath::vec_tanh(x.data(), out.data_mut()),
    }
    out
}

fn apply_max_pool(x: &Tensor, kernel: usize, stride: usize) -> Tensor {
    // VGG guards pooling on the current spatial extent; replicate so frozen
    // models accept the same input sizes as the trainable forward.
    let (_, _, h, _) = x.shape().nchw();
    if h < kernel {
        return x.clone();
    }
    conv::max_pool2d(x, kernel, stride).0
}

/// Scalar per-map mean, matching the autograd `global_avg_pool` forward
/// exactly (plain `iter().sum()`, not the SIMD reduction).
fn global_avg_pool(x: &Tensor) -> Tensor {
    let (n, c, h, w) = x.shape().nchw();
    let hw = h * w;
    let inv = 1.0 / hw as f32;
    let mut out = Tensor::zeros(&[n, c]);
    let (xd, od) = (x.data(), out.data_mut());
    for nc in 0..n * c {
        od[nc] = xd[nc * hw..(nc + 1) * hw].iter().sum::<f32>() * inv;
    }
    out
}

/// GEMM plus the autograd `add_rows` scalar bias loop.
fn apply_linear(x: &Tensor, weight: &Tensor, bias: &Tensor) -> Tensor {
    let mut out = linalg::matmul(x, weight);
    let d = bias.numel();
    let n = out.numel() / d;
    let (od, bd) = (out.data_mut(), bias.data());
    for i in 0..n {
        for (v, &b) in od[i * d..(i + 1) * d].iter_mut().zip(bd) {
            *v += b;
        }
    }
    out
}

fn apply_reshape(x: &Tensor, ch: usize, h: usize, w: usize) -> Tensor {
    let n = x.numel() / (ch * h * w);
    x.reshape(&[n, ch, h, w])
        .expect("frozen reshape: element count mismatch")
}

// ---------------------------------------------------------------------------
// Freeze builders (used by the model `freeze` implementations).

/// Freezes a conv followed by a batch-norm (plus optional activation).
///
/// Exact mode emits the literal `conv → BN-eval → act` sequence; fused mode
/// folds the BN into the conv — `s = γ/√(σ²+ε)`, `W′[o] = W[o]·s_o`,
/// `b′_o = β_o + (b_o − μ_o)·s_o` — and fuses the activation into the conv
/// epilogue.
pub(crate) fn conv_bn_ops(
    conv: &Conv2d,
    bn: &BatchNorm2d,
    act: Activation,
    mode: FreezeMode,
) -> Vec<FrozenOp> {
    let (weight, bias, spec) = conv.freeze_parts();
    let (gamma, beta, rm, rv, eps) = bn.freeze_parts();
    match mode {
        FreezeMode::Exact => {
            let mut ops = vec![
                FrozenOp::Conv {
                    weight,
                    bias,
                    spec,
                    act: Activation::None,
                    qweight: None,
                },
                bn_eval_op(&gamma, &beta, &rm, &rv, eps),
            ];
            push_act(&mut ops, act);
            ops
        }
        FreezeMode::Fused => {
            let o = gamma.numel();
            let per = weight.numel() / o;
            let mut w = weight.clone();
            let mut b = Tensor::zeros(&[o]);
            {
                let (wd, bd) = (w.data_mut(), b.data_mut());
                for oi in 0..o {
                    let s = gamma.data()[oi] / (rv.data()[oi] + eps).sqrt();
                    vecmath::vec_scale_inplace(&mut wd[oi * per..(oi + 1) * per], s);
                    let b0 = bias.as_ref().map_or(0.0, |b| b.data()[oi]);
                    bd[oi] = beta.data()[oi] + (b0 - rm.data()[oi]) * s;
                }
            }
            let mut ops = vec![FrozenOp::Conv {
                weight: w,
                bias: Some(b),
                spec,
                act: fusable(act),
                qweight: None,
            }];
            if act == Activation::Tanh {
                ops.push(FrozenOp::Act(Activation::Tanh));
            }
            ops
        }
    }
}

/// Freezes a conv with no following batch-norm.
pub(crate) fn conv_ops(conv: &Conv2d, act: Activation, mode: FreezeMode) -> Vec<FrozenOp> {
    let (weight, bias, spec) = conv.freeze_parts();
    match mode {
        FreezeMode::Exact => {
            let mut ops = vec![FrozenOp::Conv {
                weight,
                bias,
                spec,
                act: Activation::None,
                qweight: None,
            }];
            push_act(&mut ops, act);
            ops
        }
        FreezeMode::Fused => {
            let mut ops = vec![FrozenOp::Conv {
                weight,
                bias,
                spec,
                act: fusable(act),
                qweight: None,
            }];
            if act == Activation::Tanh {
                ops.push(FrozenOp::Act(Activation::Tanh));
            }
            ops
        }
    }
}

/// Freezes a standalone batch-norm (plus optional activation).
pub(crate) fn bn_ops(bn: &BatchNorm2d, act: Activation, mode: FreezeMode) -> Vec<FrozenOp> {
    let (gamma, beta, rm, rv, eps) = bn.freeze_parts();
    match mode {
        FreezeMode::Exact => {
            let mut ops = vec![bn_eval_op(&gamma, &beta, &rm, &rv, eps)];
            push_act(&mut ops, act);
            ops
        }
        FreezeMode::Fused => {
            let c = gamma.numel();
            let mut scale = Tensor::zeros(&[c]);
            let mut shift = Tensor::zeros(&[c]);
            for ci in 0..c {
                let s = gamma.data()[ci] / (rv.data()[ci] + eps).sqrt();
                scale.data_mut()[ci] = s;
                shift.data_mut()[ci] = beta.data()[ci] - rm.data()[ci] * s;
            }
            vec![FrozenOp::ScaleShift { scale, shift, act }]
        }
    }
}

/// Freezes a dense head.
pub(crate) fn linear_op(linear: &Linear) -> FrozenOp {
    let (weight, bias) = linear.freeze_parts();
    FrozenOp::Linear { weight, bias, qweight: None }
}

fn bn_eval_op(gamma: &Tensor, beta: &Tensor, rm: &Tensor, rv: &Tensor, eps: f32) -> FrozenOp {
    FrozenOp::BnEval {
        neg_mean: rm.scale(-1.0),
        inv_std: rv.map(|v| 1.0 / (v + eps).sqrt()),
        gamma: gamma.clone(),
        beta: beta.clone(),
    }
}

fn push_act(ops: &mut Vec<FrozenOp>, act: Activation) {
    if act != Activation::None {
        ops.push(FrozenOp::Act(act));
    }
}

fn fusable(act: Activation) -> Activation {
    match act {
        Activation::Tanh => Activation::None,
        other => other,
    }
}

// ---------------------------------------------------------------------------
// Frozen models.

/// A classifier compiled into a flat inference program: spatial trunk,
/// global average pool, dense head. Forward is `&Tensor → Tensor` with zero
/// autograd allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct FrozenClassifier {
    spatial: Vec<FrozenOp>,
    head: FrozenOp,
    embed_dim: usize,
    num_classes: usize,
}

serde::impl_json_struct!(FrozenClassifier {
    spatial,
    head,
    embed_dim,
    num_classes,
});

impl FrozenClassifier {
    /// Assembles a frozen classifier from a compiled spatial trunk and the
    /// snapshotted head weights (`[embed_dim, num_classes]`).
    pub fn new(spatial: Vec<FrozenOp>, head_weight: Tensor, head_bias: Tensor) -> Self {
        let d = head_weight.shape().dims().to_vec();
        assert_eq!(d.len(), 2, "head weight must be 2-d, got {d:?}");
        FrozenClassifier {
            spatial,
            head: FrozenOp::Linear {
                weight: head_weight,
                bias: head_bias,
                qweight: None,
            },
            embed_dim: d[0],
            num_classes: d[1],
        }
    }

    /// Class-logit forward: `[N, C, H, W] → [N, num_classes]`.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        self.forward_embedding(x).1
    }

    /// Returns `(embedding, logits)` like
    /// [`Classifier::forward_embedding`](crate::module::Classifier::forward_embedding).
    pub fn forward_embedding(&self, x: &Tensor) -> (Tensor, Tensor) {
        let _stat = cae_trace::span_stat("infer.forward");
        cae_trace::counter("infer.calls", 1);
        let feat = run(&self.spatial, x);
        let emb = global_avg_pool(&feat);
        let logits = apply_ref(&self.head, &emb);
        (emb, logits)
    }

    /// Last spatial feature map before pooling.
    pub fn forward_spatial(&self, x: &Tensor) -> Tensor {
        let _stat = cae_trace::span_stat("infer.forward");
        cae_trace::counter("infer.calls", 1);
        run(&self.spatial, x)
    }

    /// Output class count.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Embedding width fed to the head.
    pub fn embed_dim(&self) -> usize {
        self.embed_dim
    }

    /// The compiled spatial program (inspection/diagnostics).
    pub fn spatial_ops(&self) -> &[FrozenOp] {
        &self.spatial
    }

    /// Quantizes every Conv/Linear weight in place (trunk and head); see
    /// [`QuantSpec`] for the scheme. Usually reached through
    /// [`FreezeOptions::int8`] rather than called directly.
    pub fn quantize(&mut self, spec: &QuantSpec) {
        quantize_ops(&mut self.spatial, spec);
        quantize_op(&mut self.head, spec);
    }

    /// Whether any op carries an int8 payload.
    pub fn quantized(&self) -> bool {
        fn any_quantized(ops: &[FrozenOp]) -> bool {
            ops.iter().any(op_quantized)
        }
        fn op_quantized(op: &FrozenOp) -> bool {
            match op {
                FrozenOp::Conv { qweight, .. } | FrozenOp::Linear { qweight, .. } => {
                    qweight.is_some()
                }
                FrozenOp::Block { pre, main, skip, .. } => {
                    any_quantized(pre)
                        || any_quantized(main)
                        || skip.as_deref().is_some_and(any_quantized)
                }
                _ => false,
            }
        }
        any_quantized(&self.spatial) || op_quantized(&self.head)
    }
}

/// A generator compiled into a flat inference program: `z[N, latent] →
/// images`, used for anchor generation and convergence probes where the
/// generator itself is not being trained.
#[derive(Debug, Clone, PartialEq)]
pub struct FrozenGenerator {
    ops: Vec<FrozenOp>,
    latent_dim: usize,
}

serde::impl_json_struct!(FrozenGenerator { ops, latent_dim });

impl FrozenGenerator {
    /// Assembles a frozen generator from a compiled program.
    pub fn new(ops: Vec<FrozenOp>, latent_dim: usize) -> Self {
        FrozenGenerator { ops, latent_dim }
    }

    /// Maps latent codes to images.
    pub fn generate(&self, z: &Tensor) -> Tensor {
        let _stat = cae_trace::span_stat("infer.forward");
        cae_trace::counter("infer.calls", 1);
        run(&self.ops, z)
    }

    /// Latent dimensionality expected by [`FrozenGenerator::generate`].
    pub fn latent_dim(&self) -> usize {
        self.latent_dim
    }

    /// Quantizes every Conv/Linear weight in place; see [`QuantSpec`].
    pub fn quantize(&mut self, spec: &QuantSpec) {
        quantize_ops(&mut self.ops, spec);
    }
}

// ---------------------------------------------------------------------------
// Serde: hand-written externally-tagged representation for the payload
// enums (the vendored serde has no derive; see `cae-core`'s `method.rs` for
// the precedent).

fn tagged(tag: &str, fields: Vec<(String, serde::Value)>) -> serde::Value {
    serde::Value::Object(vec![(tag.to_owned(), serde::Value::Object(fields))])
}

fn kv<T: serde::Serialize>(key: &str, v: &T) -> (String, serde::Value) {
    (key.to_owned(), v.to_value())
}

/// Looks up an optional field: absent keys read as `None` (so pre-int8
/// frozen JSON stays loadable).
fn opt_field<T: serde::Deserialize>(
    v: &serde::Value,
    name: &str,
) -> Result<Option<T>, serde::DeError> {
    match v.get(name) {
        Some(serde::Value::Null) | None => Ok(None),
        Some(inner) => T::from_value(inner).map(Some),
    }
}

/// Serializes a weight: the compact i8 payload when quantized (the f32
/// form is reconstructed bit-exactly on load), the f32 tensor otherwise.
fn weight_kv(weight: &Tensor, qweight: &Option<Box<QuantTensor>>) -> (String, serde::Value) {
    match qweight {
        Some(q) => kv("qweight", q.as_ref()),
        None => kv("weight", weight),
    }
}

/// Deserializes a weight written by [`weight_kv`]: dequantize-on-load when
/// the i8 payload is present.
fn weight_field(
    inner: &serde::Value,
) -> Result<(Tensor, Option<Box<QuantTensor>>), serde::DeError> {
    match opt_field::<QuantTensor>(inner, "qweight")? {
        Some(q) => Ok((q.dequantize(), Some(Box::new(q)))),
        None => Ok((serde::field(inner, "weight")?, None)),
    }
}

impl serde::Serialize for Activation {
    fn to_value(&self) -> serde::Value {
        match self {
            Activation::None => serde::Value::String("None".to_owned()),
            Activation::Relu => serde::Value::String("Relu".to_owned()),
            Activation::Tanh => serde::Value::String("Tanh".to_owned()),
            Activation::LeakyRelu(slope) => tagged("LeakyRelu", vec![kv("slope", slope)]),
        }
    }
}

impl serde::Deserialize for Activation {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match v {
            serde::Value::String(s) if s == "None" => Ok(Activation::None),
            serde::Value::String(s) if s == "Relu" => Ok(Activation::Relu),
            serde::Value::String(s) if s == "Tanh" => Ok(Activation::Tanh),
            serde::Value::Object(fields) if fields.len() == 1 => {
                let (tag, inner) = &fields[0];
                match tag.as_str() {
                    "LeakyRelu" => Ok(Activation::LeakyRelu(serde::field(inner, "slope")?)),
                    other => Err(serde::DeError(format!("unknown Activation variant: {other}"))),
                }
            }
            other => Err(serde::DeError(format!(
                "expected Activation, found {other:?}"
            ))),
        }
    }
}

impl serde::Serialize for FrozenOp {
    fn to_value(&self) -> serde::Value {
        match self {
            FrozenOp::Conv {
                weight,
                bias,
                spec,
                act,
                qweight,
            } => tagged(
                "Conv",
                vec![
                    weight_kv(weight, qweight),
                    kv("bias", bias),
                    kv("spec", spec),
                    kv("act", act),
                ],
            ),
            FrozenOp::BnEval {
                neg_mean,
                inv_std,
                gamma,
                beta,
            } => tagged(
                "BnEval",
                vec![
                    kv("neg_mean", neg_mean),
                    kv("inv_std", inv_std),
                    kv("gamma", gamma),
                    kv("beta", beta),
                ],
            ),
            FrozenOp::ScaleShift { scale, shift, act } => tagged(
                "ScaleShift",
                vec![kv("scale", scale), kv("shift", shift), kv("act", act)],
            ),
            FrozenOp::Act(act) => tagged("Act", vec![kv("act", act)]),
            FrozenOp::MaxPool { kernel, stride } => {
                tagged("MaxPool", vec![kv("kernel", kernel), kv("stride", stride)])
            }
            FrozenOp::Upsample { factor } => tagged("Upsample", vec![kv("factor", factor)]),
            FrozenOp::GlobalAvgPool => serde::Value::String("GlobalAvgPool".to_owned()),
            FrozenOp::Linear {
                weight,
                bias,
                qweight,
            } => tagged(
                "Linear",
                vec![weight_kv(weight, qweight), kv("bias", bias)],
            ),
            FrozenOp::Reshape { ch, h, w } => {
                tagged("Reshape", vec![kv("ch", ch), kv("h", h), kv("w", w)])
            }
            FrozenOp::Block {
                pre,
                main,
                skip,
                post,
            } => tagged(
                "Block",
                vec![
                    kv("pre", pre),
                    kv("main", main),
                    kv("skip", skip),
                    kv("post", post),
                ],
            ),
        }
    }
}

impl serde::Deserialize for FrozenOp {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match v {
            serde::Value::String(s) if s == "GlobalAvgPool" => Ok(FrozenOp::GlobalAvgPool),
            serde::Value::Object(fields) if fields.len() == 1 => {
                let (tag, inner) = &fields[0];
                match tag.as_str() {
                    "Conv" => {
                        let (weight, qweight) = weight_field(inner)?;
                        Ok(FrozenOp::Conv {
                            weight,
                            bias: serde::field(inner, "bias")?,
                            spec: serde::field(inner, "spec")?,
                            act: serde::field(inner, "act")?,
                            qweight,
                        })
                    }
                    "BnEval" => Ok(FrozenOp::BnEval {
                        neg_mean: serde::field(inner, "neg_mean")?,
                        inv_std: serde::field(inner, "inv_std")?,
                        gamma: serde::field(inner, "gamma")?,
                        beta: serde::field(inner, "beta")?,
                    }),
                    "ScaleShift" => Ok(FrozenOp::ScaleShift {
                        scale: serde::field(inner, "scale")?,
                        shift: serde::field(inner, "shift")?,
                        act: serde::field(inner, "act")?,
                    }),
                    "Act" => Ok(FrozenOp::Act(serde::field(inner, "act")?)),
                    "MaxPool" => Ok(FrozenOp::MaxPool {
                        kernel: serde::field(inner, "kernel")?,
                        stride: serde::field(inner, "stride")?,
                    }),
                    "Upsample" => Ok(FrozenOp::Upsample {
                        factor: serde::field(inner, "factor")?,
                    }),
                    "Linear" => {
                        let (weight, qweight) = weight_field(inner)?;
                        Ok(FrozenOp::Linear {
                            weight,
                            bias: serde::field(inner, "bias")?,
                            qweight,
                        })
                    }
                    "Reshape" => Ok(FrozenOp::Reshape {
                        ch: serde::field(inner, "ch")?,
                        h: serde::field(inner, "h")?,
                        w: serde::field(inner, "w")?,
                    }),
                    "Block" => Ok(FrozenOp::Block {
                        pre: serde::field(inner, "pre")?,
                        main: serde::field(inner, "main")?,
                        skip: serde::field(inner, "skip")?,
                        post: serde::field(inner, "post")?,
                    }),
                    other => Err(serde::DeError(format!("unknown FrozenOp variant: {other}"))),
                }
            }
            other => Err(serde::DeError(format!("expected FrozenOp, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;

    #[test]
    fn activation_serde_roundtrip() {
        for act in [
            Activation::None,
            Activation::Relu,
            Activation::Tanh,
            Activation::LeakyRelu(0.2),
        ] {
            let back = <Activation as serde::Deserialize>::from_value(&act.to_value()).unwrap();
            assert_eq!(back, act);
        }
    }

    #[test]
    fn frozen_op_serde_roundtrip() {
        let ops = vec![
            FrozenOp::Conv {
                weight: Tensor::ones(&[2, 1, 3, 3]),
                bias: Some(Tensor::zeros(&[2])),
                spec: Conv2dSpec::new(3, 1, 1),
                act: Activation::Relu,
                qweight: None,
            },
            FrozenOp::BnEval {
                neg_mean: Tensor::zeros(&[2]),
                inv_std: Tensor::ones(&[2]),
                gamma: Tensor::ones(&[2]),
                beta: Tensor::zeros(&[2]),
            },
            FrozenOp::ScaleShift {
                scale: Tensor::ones(&[2]),
                shift: Tensor::zeros(&[2]),
                act: Activation::LeakyRelu(0.2),
            },
            FrozenOp::Act(Activation::Tanh),
            FrozenOp::MaxPool { kernel: 2, stride: 2 },
            FrozenOp::Upsample { factor: 2 },
            FrozenOp::GlobalAvgPool,
            FrozenOp::Reshape { ch: 2, h: 4, w: 4 },
            FrozenOp::Block {
                pre: vec![],
                main: vec![FrozenOp::Act(Activation::Relu)],
                skip: None,
                post: Activation::Relu,
            },
        ];
        let back = <Vec<FrozenOp> as serde::Deserialize>::from_value(&ops.to_value()).unwrap();
        assert_eq!(back, ops);
    }

    #[test]
    fn scale_shift_matches_bn_eval_within_tolerance() {
        let (gamma, beta) = (Tensor::full(&[3], 1.3), Tensor::full(&[3], -0.2));
        let rm = Tensor::from_vec(vec![0.1, -0.4, 0.7], &[3]).unwrap();
        let rv = Tensor::from_vec(vec![0.9, 1.4, 0.3], &[3]).unwrap();
        let eps = 1e-5;
        let exact = bn_eval_op(&gamma, &beta, &rm, &rv, eps);
        let fused = {
            let mut scale = Tensor::zeros(&[3]);
            let mut shift = Tensor::zeros(&[3]);
            for ci in 0..3 {
                let s = gamma.data()[ci] / (rv.data()[ci] + eps).sqrt();
                scale.data_mut()[ci] = s;
                shift.data_mut()[ci] = beta.data()[ci] - rm.data()[ci] * s;
            }
            FrozenOp::ScaleShift {
                scale,
                shift,
                act: Activation::None,
            }
        };
        let x = Tensor::from_vec(
            (0..2 * 3 * 4).map(|i| (i as f32 * 0.31).sin()).collect(),
            &[2, 3, 2, 2],
        )
        .unwrap();
        let a = apply_ref(&exact, &x);
        let b = apply_ref(&fused, &x);
        for (&ya, &yb) in a.data().iter().zip(b.data()) {
            assert!(
                (ya - yb).abs() <= 1e-5 + 1e-4 * yb.abs(),
                "bn fold mismatch: {ya} vs {yb}"
            );
        }
    }

    #[test]
    fn max_pool_skips_too_small_inputs() {
        let x = Tensor::ones(&[1, 2, 1, 1]);
        let y = apply_ref(&FrozenOp::MaxPool { kernel: 2, stride: 2 }, &x);
        assert_eq!(y.shape().dims(), &[1, 2, 1, 1]);
    }

    fn ramp(dims: &[usize], step: f32) -> Tensor {
        let n: usize = dims.iter().product();
        Tensor::from_vec((0..n).map(|i| ((i as f32) * step).sin()).collect(), dims).unwrap()
    }

    #[test]
    fn quantize_rows_dequantize_is_within_one_step() {
        let w = ramp(&[4, 2, 3, 3], 0.37);
        let q = QuantTensor::quantize_rows(&w, &QuantSpec::int8());
        assert_eq!(q.shape(), w.shape().dims());
        assert_eq!(q.scales().len(), 4);
        let back = q.dequantize();
        let block = w.data().len() / 4;
        for (i, (&orig, &deq)) in w.data().iter().zip(back.data()).enumerate() {
            let scale = q.scales()[i / block];
            assert!(
                (orig - deq).abs() <= 0.5 * scale + 1e-7,
                "row quant error beyond half a step at {i}: {orig} vs {deq}"
            );
        }
    }

    #[test]
    fn quantize_cols_uses_per_column_scales() {
        // Column 1 has 100x the magnitude of column 0; per-column scales
        // must keep column 0's error at its own (small) scale.
        let w = Tensor::from_vec(vec![0.01, 1.0, -0.02, -2.0, 0.015, 1.5], &[3, 2]).unwrap();
        let q = QuantTensor::quantize_cols(&w, &QuantSpec::int8());
        assert_eq!(q.scales().len(), 2);
        assert!(q.scales()[1] > 10.0 * q.scales()[0]);
        let back = q.dequantize();
        for (i, (&orig, &deq)) in w.data().iter().zip(back.data()).enumerate() {
            let scale = q.scales()[i % 2];
            assert!((orig - deq).abs() <= 0.5 * scale + 1e-7);
        }
    }

    #[test]
    fn quantized_serde_roundtrip_is_bit_exact_and_compact() {
        let mut op = FrozenOp::Conv {
            weight: ramp(&[3, 2, 3, 3], 0.23),
            bias: Some(ramp(&[3], 0.11)),
            spec: Conv2dSpec::new(3, 1, 1),
            act: Activation::Relu,
            qweight: None,
        };
        quantize_op(&mut op, &QuantSpec::int8());
        let json = serde_json::to_string(&op).unwrap();
        assert!(json.contains("\"qweight\""), "quantized op must ship i8 payload");
        assert!(!json.contains("\"weight\""), "quantized op must not ship f32 weights");
        let back: FrozenOp = serde_json::from_str(&json).unwrap();
        // Dequant-on-load must reproduce the in-memory f32 weights bit-for-bit.
        match (&op, &back) {
            (
                FrozenOp::Conv { weight: a, qweight: qa, .. },
                FrozenOp::Conv { weight: b, qweight: qb, .. },
            ) => {
                assert!(qa.is_some() && qb.is_some());
                for (&x, &y) in a.data().iter().zip(b.data()) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
            _ => panic!("variant changed across roundtrip"),
        }
        assert_eq!(back, op);
    }

    #[test]
    fn linear_quantized_serde_roundtrip() {
        let mut op = FrozenOp::Linear {
            weight: ramp(&[5, 4], 0.19),
            bias: ramp(&[4], 0.07),
            qweight: None,
        };
        quantize_op(&mut op, &QuantSpec::int8());
        let back = <FrozenOp as serde::Deserialize>::from_value(&op.to_value()).unwrap();
        assert_eq!(back, op);
    }

    #[test]
    fn classifier_quantize_sets_flag_and_keeps_argmax_on_frozen_forward() {
        // A frozen net whose logits gaps are far wider than int8 rounding
        // error: quantization must not flip the argmax.
        let mut net = FrozenClassifier::new(
            vec![FrozenOp::Conv {
                weight: ramp(&[2, 1, 3, 3], 0.41),
                bias: Some(ramp(&[2], 0.3)),
                spec: Conv2dSpec::new(3, 1, 1),
                act: Activation::Relu,
                qweight: None,
            }],
            ramp(&[2, 3], 0.53),
            ramp(&[3], 0.29),
        );
        assert!(!net.quantized());
        let x = ramp(&[2, 1, 4, 4], 0.17);
        let before = net.forward(&x);
        net.quantize(&QuantSpec::int8());
        assert!(net.quantized());
        let after = net.forward(&x);
        assert_eq!(before.shape().dims(), after.shape().dims());
        assert_eq!(before.argmax_rows(), after.argmax_rows());
    }
}
