//! Differentiable reductions, softmax and per-channel statistics on [`Var`].
//!
//! Row and channel loops run on the SIMD layer ([`crate::simd::vecmath`]);
//! per-row/per-channel reductions use its fixed 8-lane accumulation order,
//! so results are identical across backends.

use super::{with_values, Var};
use crate::simd::vecmath;
use crate::tensor::Tensor;

impl Var {
    /// Sum of all elements, as a scalar variable.
    pub fn sum_all(&self) -> Var {
        let value = Tensor::scalar(self.value().sum());
        let dims = self.dims();
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                parents[0].accum(Tensor::full(&dims, g.item()));
            }),
        )
    }

    /// Mean of all elements, as a scalar variable.
    pub fn mean_all(&self) -> Var {
        let n = self.value().numel().max(1);
        self.sum_all().scale(1.0 / n as f32)
    }

    /// Row-wise log-softmax of a `[N, K]` matrix.
    ///
    /// # Panics
    /// Panics if `self` is not 2-d.
    pub fn log_softmax_rows(&self) -> Var {
        let (n, k) = self.value().shape().matrix();
        let x = self.value();
        let mut out = vec![0.0f32; n * k];
        let mut exps = vec![0.0f32; k];
        for i in 0..n {
            let row = &x.data()[i * k..(i + 1) * k];
            let m = vecmath::vec_max(row);
            vecmath::vec_exp_shift(row, -m, &mut exps);
            let lse = vecmath::vec_sum(&exps).ln() + m;
            vecmath::vec_add_scalar(row, -lse, &mut out[i * k..(i + 1) * k]);
        }
        let value = Tensor::from_vec(out, &[n, k]).expect("shape consistent");
        let logp = value.clone();
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                // dx = g - softmax * row_sum(g), one exp + fused
                // multiply-add pass per row.
                let mut dx = vec![0.0f32; n * k];
                for i in 0..n {
                    let grow = &g.data()[i * k..(i + 1) * k];
                    let gsum = vecmath::vec_sum(grow);
                    let dxrow = &mut dx[i * k..(i + 1) * k];
                    vecmath::vec_exp(&logp.data()[i * k..(i + 1) * k], dxrow);
                    vecmath::vec_scale_add_inplace(dxrow, -gsum, grow);
                }
                parents[0].accum(Tensor::from_vec(dx, &[n, k]).expect("shape consistent"));
            }),
        )
    }

    /// Gathers one element per row of a `[N, K]` matrix: `out[i] = x[i, idx[i]]`.
    ///
    /// # Panics
    /// Panics if `self` is not 2-d, `idx.len() != N`, or any index is out of
    /// range.
    pub fn gather_rows(&self, idx: &[usize]) -> Var {
        let (n, k) = self.value().shape().matrix();
        assert_eq!(idx.len(), n, "gather_rows needs one index per row");
        let x = self.value();
        let data: Vec<f32> = idx
            .iter()
            .enumerate()
            .map(|(i, &j)| {
                assert!(j < k, "gather index {j} out of range for {k} columns");
                x.data()[i * k + j]
            })
            .collect();
        let value = Tensor::from_vec(data, &[n]).expect("shape consistent");
        let saved_idx = idx.to_vec();
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                let mut dx = Tensor::zeros(&[n, k]);
                for (i, &j) in saved_idx.iter().enumerate() {
                    dx.data_mut()[i * k + j] += g.data()[i];
                }
                parents[0].accum(dx);
            }),
        )
    }

    /// Per-channel mean of an NCHW tensor: `[N,C,H,W] → [C]`.
    ///
    /// The result is differentiable with respect to the input, which is what
    /// lets the DFKD batch-norm loss push gradients into the generator.
    ///
    /// # Panics
    /// Panics if `self` is not 4-d.
    pub fn mean_channels(&self) -> Var {
        let (n, c, h, w) = self.value().shape().nchw();
        let count = (n * h * w) as f32;
        let x = self.value();
        let mut means = vec![0.0f32; c];
        let hw = h * w;
        for ni in 0..n {
            for (ci, m) in means.iter_mut().enumerate() {
                let off = (ni * c + ci) * hw;
                *m += vecmath::vec_sum(&x.data()[off..off + hw]);
            }
        }
        for m in &mut means {
            *m /= count;
        }
        let value = Tensor::from_vec(means, &[c]).expect("shape consistent");
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                let inv = 1.0 / count;
                let mut dx = Vec::with_capacity(n * c * hw);
                for _ni in 0..n {
                    for ci in 0..c {
                        let gv = g.data()[ci] * inv;
                        dx.extend(std::iter::repeat_n(gv, hw));
                    }
                }
                parents[0].accum(Tensor::from_vec(dx, &[n, c, h, w]).expect("shape consistent"));
            }),
        )
    }

    /// Multiplies each channel of an NCHW tensor by the corresponding entry
    /// of a `[C]` variable.
    ///
    /// # Panics
    /// Panics if `self` is not 4-d or `scale` is not `[C]`.
    pub fn mul_channels(&self, scale: &Var) -> Var {
        let (n, c, h, w) = self.value().shape().nchw();
        {
            let s = scale.value();
            assert_eq!(
                s.shape().dims(),
                &[c],
                "scale must be [{c}], got {}",
                s.shape()
            );
        }
        let hw = h * w;
        let value = with_values(self, scale, |x, s| {
            let mut value = x.clone();
            for ni in 0..n {
                for ci in 0..c {
                    let sv = s.data()[ci];
                    let off = (ni * c + ci) * hw;
                    vecmath::vec_scale_inplace(&mut value.data_mut()[off..off + hw], sv);
                }
            }
            value
        });
        Var::from_op(
            value,
            vec![self.clone(), scale.clone()],
            Box::new(move |g, parents| {
                let (dx, ds) = with_values(&parents[0], &parents[1], |x, s| {
                    let dx = parents[0].requires_grad().then(|| {
                        let mut dx = vec![0.0f32; n * c * hw];
                        for ni in 0..n {
                            for ci in 0..c {
                                let sv = s.data()[ci];
                                let off = (ni * c + ci) * hw;
                                vecmath::vec_scale(
                                    &g.data()[off..off + hw],
                                    sv,
                                    &mut dx[off..off + hw],
                                );
                            }
                        }
                        Tensor::from_vec(dx, &[n, c, h, w]).expect("shape consistent")
                    });
                    let ds = parents[1].requires_grad().then(|| {
                        let mut ds = Tensor::zeros(&[c]);
                        for ni in 0..n {
                            for ci in 0..c {
                                let off = (ni * c + ci) * hw;
                                ds.data_mut()[ci] += vecmath::vec_dot(
                                    &x.data()[off..off + hw],
                                    &g.data()[off..off + hw],
                                );
                            }
                        }
                        ds
                    });
                    (dx, ds)
                });
                if let Some(dx) = dx {
                    parents[0].accum(dx);
                }
                if let Some(ds) = ds {
                    parents[1].accum(ds);
                }
            }),
        )
    }

    /// Adds a `[C]` variable to each channel of an NCHW tensor.
    ///
    /// # Panics
    /// Panics if `self` is not 4-d or `shift` is not `[C]`.
    pub fn add_channels(&self, shift: &Var) -> Var {
        let (n, c, h, w) = self.value().shape().nchw();
        {
            let s = shift.value();
            assert_eq!(
                s.shape().dims(),
                &[c],
                "shift must be [{c}], got {}",
                s.shape()
            );
        }
        let hw = h * w;
        let value = with_values(self, shift, |x, s| {
            let mut value = x.clone();
            for ni in 0..n {
                for ci in 0..c {
                    let sv = s.data()[ci];
                    let off = (ni * c + ci) * hw;
                    vecmath::vec_add_scalar_inplace(&mut value.data_mut()[off..off + hw], sv);
                }
            }
            value
        });
        Var::from_op(
            value,
            vec![self.clone(), shift.clone()],
            Box::new(move |g, parents| {
                let ds = parents[1].requires_grad().then(|| {
                    let mut ds = Tensor::zeros(&[c]);
                    for ni in 0..n {
                        for ci in 0..c {
                            let off = (ni * c + ci) * hw;
                            ds.data_mut()[ci] += vecmath::vec_sum(&g.data()[off..off + hw]);
                        }
                    }
                    ds
                });
                parents[0].accum(g);
                if let Some(ds) = ds {
                    parents[1].accum(ds);
                }
            }),
        )
    }
    /// Per-channel biased variance of an NCHW tensor around a `[C]` mean:
    /// `mean_channels((self − mean)²)`, in one pass with no full-size
    /// intermediates. Each element runs the f32 steps of that composition
    /// (`x + (−mean)`, its square, the 8-lane channel sums, `/ count`),
    /// forward and backward, so the result and gradients are bit-identical
    /// to it. Batch normalization's statistics are `mean_channels` and this.
    ///
    /// # Panics
    /// Panics if `self` is not 4-d or `mean` is not `[C]`.
    pub fn channel_var(&self, mean: &Var) -> Var {
        let (n, c, h, w) = self.value().shape().nchw();
        check_channels("mean", mean, c);
        let hw = h * w;
        let count = (n * h * w) as f32;
        let mut vars = vec![0.0f32; c];
        {
            let (x, m) = (self.value(), channel_values(mean));
            let (mut cen, mut sq) = (vec![0.0f32; hw], vec![0.0f32; hw]);
            for ni in 0..n {
                for ci in 0..c {
                    let off = (ni * c + ci) * hw;
                    vecmath::vec_add_scalar(&x.data()[off..off + hw], -m[ci], &mut cen);
                    vecmath::vec_mul(&cen, &cen, &mut sq);
                    vars[ci] += vecmath::vec_sum(&sq);
                }
            }
        }
        for v in &mut vars {
            *v /= count;
        }
        let value = Tensor::from_vec(vars, &[c]).expect("shape consistent");
        Var::from_op(
            value,
            vec![self.clone(), mean.clone()],
            Box::new(move |g, parents| {
                // d(centered) = g/count · 2·centered; the mean receives
                // −Σ d(centered) per channel.
                let inv = 1.0 / count;
                let m = channel_values(&parents[1]);
                let mut dx = vec![0.0f32; n * c * hw];
                let mut dm = vec![0.0f32; c];
                {
                    let x = parents[0].value();
                    let (mut cen, mut two) = (vec![0.0f32; hw], vec![0.0f32; hw]);
                    for ni in 0..n {
                        for ci in 0..c {
                            let off = (ni * c + ci) * hw;
                            vecmath::vec_add_scalar(&x.data()[off..off + hw], -m[ci], &mut cen);
                            vecmath::vec_scale(&cen, 2.0, &mut two);
                            let dxp = &mut dx[off..off + hw];
                            vecmath::vec_scale(&two, g.data()[ci] * inv, dxp);
                            dm[ci] += vecmath::vec_sum(dxp);
                        }
                    }
                }
                parents[0].accum(Tensor::from_vec(dx, &[n, c, h, w]).expect("shape consistent"));
                if parents[1].requires_grad() {
                    let dm = Tensor::from_vec(dm, &[c]).expect("shape consistent");
                    parents[1].accum(dm.scale(-1.0));
                }
            }),
        )
    }

    /// Batch-normalizes an NCHW tensor with per-channel `[C]` statistics and
    /// affine parameters: `((self + (−mean)) · inv_std) · gamma + beta`,
    /// one pass forward and one backward with no full-size intermediates.
    /// Every element runs the f32 steps of the composition
    /// `add_channels(−mean)`, `mul_channels(inv_std)`, `mul_channels(gamma)`,
    /// `add_channels(beta)` in that order, and every gradient (including the
    /// channel sums and dot products) is the same f32 sequence that
    /// composition's backward runs, so both are bit-identical to it. Only
    /// the gradients of inputs that require one are computed.
    ///
    /// # Panics
    /// Panics if `self` is not 4-d or any other operand is not `[C]`.
    pub fn channel_norm(&self, mean: &Var, inv_std: &Var, gamma: &Var, beta: &Var) -> Var {
        let (n, c, h, w) = self.value().shape().nchw();
        for (name, v) in [
            ("mean", mean),
            ("inv_std", inv_std),
            ("gamma", gamma),
            ("beta", beta),
        ] {
            check_channels(name, v, c);
        }
        let hw = h * w;
        let (m, s) = (channel_values(mean), channel_values(inv_std));
        let (ga, be) = (channel_values(gamma), channel_values(beta));
        let mut out = vec![0.0f32; n * c * hw];
        {
            let x = self.value();
            for ni in 0..n {
                for ci in 0..c {
                    let off = (ni * c + ci) * hw;
                    let y = &mut out[off..off + hw];
                    vecmath::vec_add_scalar(&x.data()[off..off + hw], -m[ci], y);
                    vecmath::vec_scale_inplace(y, s[ci]);
                    vecmath::vec_scale_inplace(y, ga[ci]);
                    vecmath::vec_add_scalar_inplace(y, be[ci]);
                }
            }
        }
        let value = Tensor::from_vec(out, &[n, c, h, w]).expect("shape consistent");
        Var::from_op(
            value,
            vec![
                self.clone(),
                mean.clone(),
                inv_std.clone(),
                gamma.clone(),
                beta.clone(),
            ],
            Box::new(move |g, parents| {
                let req: Vec<bool> = parents.iter().map(Var::requires_grad).collect();
                let (want_dx, want_ds) = (req[0] || req[1], req[0] || req[1] || req[2]);
                let (m, s) = (channel_values(&parents[1]), channel_values(&parents[2]));
                let ga = channel_values(&parents[3]);
                // `a` = x − mean and `b` = a · inv_std are the composition's
                // intermediates, rebuilt per plane; `gb` is b's gradient.
                let (mut a, mut b, mut gb) = (vec![0.0f32; hw], vec![0.0f32; hw], vec![0.0f32; hw]);
                let mut dx = vec![0.0f32; if want_dx { n * c * hw } else { 0 }];
                let (mut dm, mut ds) = (vec![0.0f32; c], vec![0.0f32; c]);
                let (mut dgamma, mut dbeta) = (vec![0.0f32; c], vec![0.0f32; c]);
                {
                    let x = parents[0].value();
                    for ni in 0..n {
                        for ci in 0..c {
                            let off = (ni * c + ci) * hw;
                            let gp = &g.data()[off..off + hw];
                            if req[4] {
                                dbeta[ci] += vecmath::vec_sum(gp);
                            }
                            vecmath::vec_add_scalar(&x.data()[off..off + hw], -m[ci], &mut a);
                            if req[3] {
                                vecmath::vec_scale(&a, s[ci], &mut b);
                                dgamma[ci] += vecmath::vec_dot(&b, gp);
                            }
                            if !want_ds {
                                continue;
                            }
                            vecmath::vec_scale(gp, ga[ci], &mut gb);
                            if req[2] {
                                ds[ci] += vecmath::vec_dot(&a, &gb);
                            }
                            if want_dx {
                                let ga_p = &mut dx[off..off + hw];
                                vecmath::vec_scale(&gb, s[ci], ga_p);
                                dm[ci] += vecmath::vec_sum(ga_p);
                            }
                        }
                    }
                }
                let vec_c = |v: Vec<f32>| Tensor::from_vec(v, &[c]).expect("shape consistent");
                if req[0] {
                    parents[0]
                        .accum(Tensor::from_vec(dx, &[n, c, h, w]).expect("shape consistent"));
                }
                if req[1] {
                    parents[1].accum(vec_c(dm).scale(-1.0));
                }
                if req[2] {
                    parents[2].accum(vec_c(ds));
                }
                if req[3] {
                    parents[3].accum(vec_c(dgamma));
                }
                if req[4] {
                    parents[4].accum(vec_c(dbeta));
                }
            }),
        )
    }
}

/// Asserts that `v` is a `[c]` vector.
fn check_channels(name: &str, v: &Var, c: usize) {
    let t = v.value();
    assert_eq!(
        t.shape().dims(),
        &[c],
        "{name} must be [{c}], got {}",
        t.shape()
    );
}

/// Copies out a `[C]` vector: cheap, and takes no guard that outlives the
/// copy, so operands may repeat.
fn channel_values(v: &Var) -> Vec<f32> {
    v.value().data().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_and_mean() {
        let x = Var::parameter(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap());
        assert_eq!(x.sum_all().item(), 10.0);
        assert_eq!(x.mean_all().item(), 2.5);
        x.mean_all().backward();
        assert_eq!(x.grad().unwrap().data(), &[0.25; 4]);
    }

    #[test]
    fn log_softmax_rows_normalizes() {
        let x = Var::parameter(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap());
        let lp = x.log_softmax_rows();
        let total: f32 = lp.value().data().iter().map(|v| v.exp()).sum();
        assert!((total - 1.0).abs() < 1e-5);
    }

    #[test]
    fn gather_rows_routes_gradient() {
        let x = Var::parameter(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap());
        let y = x.gather_rows(&[1, 0]);
        assert_eq!(y.value().data(), &[2.0, 3.0]);
        y.sum_all().backward();
        assert_eq!(x.grad().unwrap().data(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn mean_channels_value_and_grad() {
        // x: [1, 2, 1, 2]; channel means = [1.5, 3.5].
        let x = Var::parameter(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 1, 2]).unwrap());
        let m = x.mean_channels();
        assert_eq!(m.value().data(), &[1.5, 3.5]);
        m.sum_all().backward();
        assert_eq!(x.grad().unwrap().data(), &[0.5; 4]);
    }

    #[test]
    fn channel_affine_ops() {
        let x = Var::parameter(Tensor::ones(&[1, 2, 1, 2]));
        let s = Var::parameter(Tensor::from_vec(vec![2.0, 3.0], &[2]).unwrap());
        let b = Var::parameter(Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap());
        let y = x.mul_channels(&s).add_channels(&b);
        assert_eq!(y.value().data(), &[2.5, 2.5, 2.5, 2.5]);
        y.sum_all().backward();
        assert_eq!(s.grad().unwrap().data(), &[2.0, 2.0]); // sum of x per channel
        assert_eq!(b.grad().unwrap().data(), &[2.0, 2.0]); // count per channel
    }
}
