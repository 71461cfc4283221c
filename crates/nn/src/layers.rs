//! Core layers: linear, convolution and batch normalization.

use crate::init;
use crate::module::{BnBatchStats, ForwardCtx, Module};
use cae_tensor::conv::Conv2dSpec;
use cae_tensor::rng::TensorRng;
use cae_tensor::{Tensor, Var};
use std::sync::Mutex;

/// Fully connected layer computing `y = x · W + b` on `[N, in]` inputs.
#[derive(Debug)]
pub struct Linear {
    weight: Var,
    bias: Var,
}

impl Linear {
    /// Creates a Kaiming-initialized linear layer.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut TensorRng) -> Self {
        Linear {
            weight: Var::parameter(init::kaiming_linear(in_dim, out_dim, rng)),
            bias: Var::parameter(Tensor::zeros(&[out_dim])),
        }
    }
}

impl Linear {
    /// Snapshots `(weight, bias)` for the frozen inference compiler.
    pub(crate) fn freeze_parts(&self) -> (Tensor, Tensor) {
        (self.weight.to_tensor(), self.bias.to_tensor())
    }
}

impl Module for Linear {
    fn forward(&self, x: &Var, _ctx: &mut ForwardCtx) -> Var {
        x.matmul(&self.weight).add_rows(&self.bias)
    }

    fn parameters(&self) -> Vec<Var> {
        vec![self.weight.clone(), self.bias.clone()]
    }
}

/// 2-d convolution layer with a square kernel.
#[derive(Debug)]
pub struct Conv2d {
    weight: Var,
    bias: Option<Var>,
    spec: Conv2dSpec,
}

impl Conv2d {
    /// Creates a Kaiming-initialized convolution.
    ///
    /// # Panics
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        bias: bool,
        rng: &mut TensorRng,
    ) -> Self {
        Conv2d {
            weight: Var::parameter(init::kaiming_conv(out_ch, in_ch, kernel, rng)),
            bias: bias.then(|| Var::parameter(Tensor::zeros(&[out_ch]))),
            spec: Conv2dSpec::new(kernel, stride, padding),
        }
    }

    /// The convolution spec (kernel/stride/padding).
    pub fn spec(&self) -> Conv2dSpec {
        self.spec
    }

    /// Snapshots `(weight, bias, spec)` for the frozen inference compiler.
    pub(crate) fn freeze_parts(&self) -> (Tensor, Option<Tensor>, Conv2dSpec) {
        (
            self.weight.to_tensor(),
            self.bias.as_ref().map(Var::to_tensor),
            self.spec,
        )
    }
}

impl Module for Conv2d {
    fn forward(&self, x: &Var, _ctx: &mut ForwardCtx) -> Var {
        x.conv2d(&self.weight, self.bias.as_ref(), self.spec)
    }

    fn parameters(&self) -> Vec<Var> {
        let mut p = vec![self.weight.clone()];
        if let Some(b) = &self.bias {
            p.push(b.clone());
        }
        p
    }
}

/// Batch normalization over the channel dimension of NCHW tensors.
///
/// In training mode the layer normalizes with (differentiable) batch
/// statistics and updates its running statistics; in evaluation mode it
/// normalizes with the running statistics. When
/// [`ForwardCtx::collect_bn_stats`] is set, the layer additionally records
/// [`BnBatchStats`] so the DFKD `L_BN` loss can match synthetic-batch
/// statistics against the teacher's running statistics.
/// Running statistics live behind a `Mutex` (not a `RefCell`) so a model is
/// `Sync`; each experiment cell owns its models, so the locks are
/// uncontended in practice.
#[derive(Debug)]
pub struct BatchNorm2d {
    gamma: Var,
    beta: Var,
    running_mean: Mutex<Tensor>,
    running_var: Mutex<Tensor>,
    momentum: f32,
    eps: f32,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` feature maps with the
    /// conventional momentum `0.1` and epsilon `1e-5`.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Var::parameter(Tensor::ones(&[channels])),
            beta: Var::parameter(Tensor::zeros(&[channels])),
            running_mean: Mutex::new(Tensor::zeros(&[channels])),
            running_var: Mutex::new(Tensor::ones(&[channels])),
            momentum: 0.1,
            eps: 1e-5,
        }
    }

    /// Snapshot of the running mean.
    pub fn running_mean(&self) -> Tensor {
        self.running_mean.lock().expect("BN stats lock poisoned").clone()
    }

    /// Snapshot of the running variance.
    pub fn running_var(&self) -> Tensor {
        self.running_var.lock().expect("BN stats lock poisoned").clone()
    }

    /// Snapshots `(gamma, beta, running_mean, running_var, eps)` for the
    /// frozen inference compiler.
    pub(crate) fn freeze_parts(&self) -> (Tensor, Tensor, Tensor, Tensor, f32) {
        (
            self.gamma.to_tensor(),
            self.beta.to_tensor(),
            self.running_mean(),
            self.running_var(),
            self.eps,
        )
    }
}

impl Module for BatchNorm2d {
    fn forward(&self, x: &Var, ctx: &mut ForwardCtx) -> Var {
        // Three fused nodes (mean, variance, normalization) replace the
        // eight-op composition bit for bit. Mean and variance stay nodes of
        // their own because `L_BN` reads them: their gradient must gather
        // every consumer's share before it reaches `x`, in the composition's
        // order.
        let (mean, var) = if ctx.training || ctx.collect_bn_stats {
            let m = x.mean_channels();
            let v = x.channel_var(&m);
            if ctx.collect_bn_stats {
                ctx.bn_stats.push(BnBatchStats {
                    mean: m.clone(),
                    var: v.clone(),
                    running_mean: self.running_mean(),
                    running_var: self.running_var(),
                });
            }
            (Some(m), Some(v))
        } else {
            (None, None)
        };

        if ctx.training {
            let m = mean.expect("batch mean computed in training mode");
            let v = var.expect("batch var computed in training mode");
            // Update running statistics from detached batch statistics.
            {
                let mut rm = self.running_mean.lock().expect("BN stats lock poisoned");
                let mut rv = self.running_var.lock().expect("BN stats lock poisoned");
                *rm = rm
                    .scale(1.0 - self.momentum)
                    .add(&m.value().scale(self.momentum));
                *rv = rv
                    .scale(1.0 - self.momentum)
                    .add(&v.value().scale(self.momentum));
            }
            let inv_std = v.add_scalar(self.eps).powf(-0.5);
            x.channel_norm(&m, &inv_std, &self.gamma, &self.beta)
        } else {
            // Evaluation: normalize with frozen running statistics.
            let rm = Var::constant(self.running_mean());
            let inv_std = Var::constant(
                self.running_var()
                    .map(|v| 1.0 / (v + self.eps).sqrt()),
            );
            x.channel_norm(&rm, &inv_std, &self.gamma, &self.beta)
        }
    }

    fn parameters(&self) -> Vec<Var> {
        vec![self.gamma.clone(), self.beta.clone()]
    }

    fn buffers(&self) -> Vec<Tensor> {
        vec![self.running_mean(), self.running_var()]
    }

    fn set_buffers(&self, bufs: &[Tensor]) {
        assert_eq!(bufs.len(), 2, "BatchNorm2d expects 2 buffers, got {}", bufs.len());
        *self.running_mean.lock().expect("BN stats lock poisoned") = bufs[0].clone();
        *self.running_var.lock().expect("BN stats lock poisoned") = bufs[1].clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_shapes_and_param_count() {
        let mut rng = TensorRng::seed_from(0);
        let l = Linear::new(5, 3, &mut rng);
        assert_eq!(l.num_parameters(), 5 * 3 + 3);
        let x = Var::constant(Tensor::zeros(&[2, 5]));
        assert_eq!(l.forward(&x, &mut ForwardCtx::eval()).dims(), vec![2, 3]);
    }

    #[test]
    fn conv_layer_output_shape() {
        let mut rng = TensorRng::seed_from(1);
        let c = Conv2d::new(3, 8, 3, 2, 1, false, &mut rng);
        let x = Var::constant(Tensor::zeros(&[2, 3, 8, 8]));
        assert_eq!(c.forward(&x, &mut ForwardCtx::eval()).dims(), vec![2, 8, 4, 4]);
    }

    #[test]
    fn batchnorm_train_normalizes_batch() {
        let mut rng = TensorRng::seed_from(2);
        let bn = BatchNorm2d::new(4);
        let x = Var::constant(rng.normal_tensor(&[8, 4, 3, 3], 5.0, 2.0));
        let y = bn.forward(&x, &mut ForwardCtx::train());
        // Output batch stats should be ~N(0,1) per channel.
        let m = y.mean_channels();
        for &v in m.value().data() {
            assert!(v.abs() < 1e-3, "channel mean {v} not ~0");
        }
        // Running stats moved toward batch stats.
        let rm = bn.running_mean();
        for &v in rm.data() {
            assert!((v - 0.5).abs() < 0.3, "running mean {v} should be ~0.1*5");
        }
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let bn = BatchNorm2d::new(2);
        let x = Var::constant(Tensor::full(&[1, 2, 2, 2], 3.0));
        let y = bn.forward(&x, &mut ForwardCtx::eval());
        // Fresh running stats are mean 0 var 1, so eval output ≈ input.
        for &v in y.value().data() {
            assert!((v - 3.0).abs() < 1e-3);
        }
    }

    #[test]
    fn batchnorm_collects_stats_in_eval_mode() {
        let mut rng = TensorRng::seed_from(3);
        let bn = BatchNorm2d::new(4);
        let x = Var::constant(rng.normal_tensor(&[4, 4, 3, 3], 1.0, 1.0));
        let mut ctx = ForwardCtx::eval_with_bn_stats();
        bn.forward(&x, &mut ctx);
        assert_eq!(ctx.bn_stats.len(), 1);
        assert_eq!(ctx.bn_stats[0].mean.dims(), vec![4]);
    }

    /// The eight-op composition `BatchNorm2d::forward` ran before its fused
    /// ops: the bit-identity reference.
    fn composed_forward(bn: &BatchNorm2d, x: &Var, ctx: &mut ForwardCtx) -> Var {
        let (mean, var) = if ctx.training || ctx.collect_bn_stats {
            let m = x.mean_channels();
            let v = x.add_channels(&m.neg()).square().mean_channels();
            if ctx.collect_bn_stats {
                ctx.bn_stats.push(BnBatchStats {
                    mean: m.clone(),
                    var: v.clone(),
                    running_mean: bn.running_mean(),
                    running_var: bn.running_var(),
                });
            }
            (Some(m), Some(v))
        } else {
            (None, None)
        };
        if ctx.training {
            let (m, v) = (mean.unwrap(), var.unwrap());
            {
                let mut rm = bn.running_mean.lock().unwrap();
                let mut rv = bn.running_var.lock().unwrap();
                let (bm, bv) = (m.to_tensor(), v.to_tensor());
                *rm = rm.scale(1.0 - bn.momentum).add(&bm.scale(bn.momentum));
                *rv = rv.scale(1.0 - bn.momentum).add(&bv.scale(bn.momentum));
            }
            let inv_std = v.add_scalar(bn.eps).powf(-0.5);
            x.add_channels(&m.neg())
                .mul_channels(&inv_std)
                .mul_channels(&bn.gamma)
                .add_channels(&bn.beta)
        } else {
            let rm = Var::constant(bn.running_mean());
            let inv_std = Var::constant(bn.running_var().map(|v| 1.0 / (v + bn.eps).sqrt()));
            x.add_channels(&rm.neg())
                .mul_channels(&inv_std)
                .mul_channels(&bn.gamma)
                .add_channels(&bn.beta)
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Runs one BN forward + backward and returns every tensor the fused
    /// version must reproduce bit for bit: output, collected statistics,
    /// gradients of x/γ/β, and the updated running statistics.
    fn bn_run(
        fused: bool,
        make_ctx: fn() -> ForwardCtx,
        x0: &Tensor,
        freeze_affine: bool,
    ) -> Vec<Vec<u32>> {
        let mut rng = TensorRng::seed_from(21);
        let bn = BatchNorm2d::new(3);
        bn.gamma.set_value(rng.normal_tensor(&[3], 1.0, 0.3));
        bn.beta.set_value(rng.normal_tensor(&[3], 0.0, 0.3));
        bn.set_buffers(&[
            rng.normal_tensor(&[3], 0.0, 1.0),
            rng.normal_tensor(&[3], 1.0, 0.1),
        ]);
        if freeze_affine {
            bn.gamma.set_requires_grad(false);
            bn.beta.set_requires_grad(false);
        }
        let x = Var::parameter(x0.clone());
        let mut ctx = make_ctx();
        let y = if fused {
            bn.forward(&x, &mut ctx)
        } else {
            composed_forward(&bn, &x, &mut ctx)
        };
        let mut weighted = |v: &Var| {
            v.mul_const(&rng.normal_tensor(&v.dims(), 0.0, 1.0))
                .sum_all()
        };
        let mut loss = weighted(&y);
        for st in &ctx.bn_stats {
            loss = loss.add(&weighted(&st.mean)).add(&weighted(&st.var));
        }
        // A consumer of x built after the layer: its gradient reaches x
        // first, so the layer's shares must follow in the composition's order.
        loss = loss.add(&weighted(&x.square()));
        loss.backward();
        let mut out = vec![bits(&y.value())];
        for st in &ctx.bn_stats {
            out.push(bits(&st.mean.value()));
            out.push(bits(&st.var.value()));
        }
        out.push(bits(&x.grad().unwrap()));
        for p in [&bn.gamma, &bn.beta] {
            out.push(p.grad().map_or_else(Vec::new, |g| bits(&g)));
        }
        out.push(bits(&bn.running_mean()));
        out.push(bits(&bn.running_var()));
        out
    }

    #[test]
    fn fused_batchnorm_matches_the_composed_ops_bit_for_bit() {
        let mut rng = TensorRng::seed_from(20);
        let train_collect = || ForwardCtx {
            collect_bn_stats: true,
            ..ForwardCtx::train()
        };
        let ctxs = [
            ForwardCtx::train as fn() -> ForwardCtx,
            ForwardCtx::eval_with_bn_stats,
            train_collect,
            ForwardCtx::eval,
        ];
        for (shape, scale) in [
            ([4usize, 3, 5, 5], 2.0f32),
            ([2, 3, 1, 1], 0.5),
            ([3, 3, 9, 7], 3.0),
        ] {
            let x0 = rng.normal_tensor(&shape, 0.7, scale);
            for make_ctx in ctxs {
                for freeze_affine in [false, true] {
                    let fused = bn_run(true, make_ctx, &x0, freeze_affine);
                    let composed = bn_run(false, make_ctx, &x0, freeze_affine);
                    assert_eq!(
                        fused,
                        composed,
                        "{:?} {shape:?} frozen affine: {freeze_affine}",
                        make_ctx()
                    );
                }
            }
        }
    }

    #[test]
    fn batchnorm_stats_are_differentiable_toward_input() {
        let mut rng = TensorRng::seed_from(4);
        let bn = BatchNorm2d::new(2);
        let x = Var::parameter(rng.normal_tensor(&[2, 2, 2, 2], 0.0, 1.0));
        let mut ctx = ForwardCtx::eval_with_bn_stats();
        bn.forward(&x, &mut ctx);
        let stats = &ctx.bn_stats[0];
        // An L_BN-style objective must reach x.
        let loss = stats.mean.square().sum_all().add(&stats.var.square().sum_all());
        loss.backward();
        assert!(x.grad().is_some());
    }
}
