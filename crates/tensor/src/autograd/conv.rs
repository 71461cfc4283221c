//! Differentiable convolution, pooling and upsampling on [`Var`].

use super::{with_values, Var};
use crate::conv::{self, Conv2dSpec, ConvGrads};

impl Var {
    /// 2-d convolution `self[N,C,H,W] * weight[O,C,k,k] (+ bias[O])`.
    ///
    /// # Panics
    /// Panics if the shapes are inconsistent with `spec` (see
    /// [`conv::conv2d`]).
    pub fn conv2d(&self, weight: &Var, bias: Option<&Var>, spec: Conv2dSpec) -> Var {
        let value = with_values(self, weight, |x, w| {
            conv::conv2d(x, w, bias.map(|b| b.value()).as_deref(), spec)
        });
        let mut parents = vec![self.clone(), weight.clone()];
        if let Some(b) = bias {
            parents.push(b.clone());
        }
        Var::from_op(
            value,
            parents,
            Box::new(move |g, parents| {
                let want = ConvGrads {
                    input: parents[0].requires_grad(),
                    weight: parents[1..].iter().any(Var::requires_grad),
                };
                let (dx, dwb) = with_values(&parents[0], &parents[1], |x, w| {
                    conv::conv2d_backward(x, w, &g, spec, want)
                });
                if let Some(dx) = dx {
                    parents[0].accum(dx);
                }
                if let Some((dw, db)) = dwb {
                    parents[1].accum(dw);
                    if let Some(b) = parents.get(2) {
                        b.accum(db);
                    }
                }
            }),
        )
    }

    /// Average pooling with a square window.
    ///
    /// # Panics
    /// Panics if `self` is not 4-d.
    pub fn avg_pool2d(&self, kernel: usize, stride: usize) -> Var {
        let shape = self.value().shape().nchw();
        let value = conv::avg_pool2d(&self.value(), kernel, stride);
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                parents[0].accum(conv::avg_pool2d_backward(shape, &g, kernel, stride));
            }),
        )
    }

    /// Max pooling with a square window.
    ///
    /// # Panics
    /// Panics if `self` is not 4-d.
    pub fn max_pool2d(&self, kernel: usize, stride: usize) -> Var {
        let shape = self.value().shape().nchw();
        let (value, argmax) = conv::max_pool2d(&self.value(), kernel, stride);
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                parents[0].accum(conv::max_pool2d_backward(shape, &g, &argmax));
            }),
        )
    }

    /// Global average pooling: `[N,C,H,W] → [N,C]`.
    ///
    /// # Panics
    /// Panics if `self` is not 4-d.
    pub fn global_avg_pool(&self) -> Var {
        let (n, c, h, w) = self.value().shape().nchw();
        let hw = h * w;
        let inv = 1.0 / hw as f32;
        let mut out = crate::Tensor::zeros(&[n, c]);
        {
            let x = self.value();
            for nc in 0..n * c {
                out.data_mut()[nc] = x.data()[nc * hw..(nc + 1) * hw].iter().sum::<f32>() * inv;
            }
        }
        Var::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g, parents| {
                let mut dx = crate::Tensor::zeros(&[n, c, h, w]);
                for nc in 0..n * c {
                    let gv = g.data()[nc] * inv;
                    for v in &mut dx.data_mut()[nc * hw..(nc + 1) * hw] {
                        *v += gv;
                    }
                }
                parents[0].accum(dx);
            }),
        )
    }

    /// Nearest-neighbour upsampling by an integer factor.
    ///
    /// # Panics
    /// Panics if `self` is not 4-d or `scale == 0`.
    pub fn upsample_nearest2d(&self, scale: usize) -> Var {
        assert!(scale > 0, "upsample scale must be positive");
        let shape = self.value().shape().nchw();
        let value = conv::upsample_nearest2d(&self.value(), scale);
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                parents[0].accum(conv::upsample_nearest2d_backward(shape, &g, scale));
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    #[test]
    fn conv2d_gradient_flows_to_input_weight_and_bias() {
        let x = Var::parameter(Tensor::ones(&[1, 1, 3, 3]));
        let w = Var::parameter(Tensor::ones(&[1, 1, 3, 3]));
        let b = Var::parameter(Tensor::zeros(&[1]));
        let y = x.conv2d(&w, Some(&b), Conv2dSpec::new(3, 1, 1));
        y.sum_all().backward();
        assert!(x.grad().is_some());
        assert!(w.grad().is_some());
        // dL/db = number of output pixels = 9.
        assert_eq!(b.grad().unwrap().data(), &[9.0]);
    }

    #[test]
    fn global_avg_pool_shape_and_grad() {
        let x = Var::parameter(Tensor::from_vec(
            (0..8).map(|v| v as f32).collect(),
            &[1, 2, 2, 2],
        ).unwrap());
        let y = x.global_avg_pool();
        assert_eq!(y.dims(), vec![1, 2]);
        assert_eq!(y.value().data(), &[1.5, 5.5]);
        y.sum_all().backward();
        assert_eq!(x.grad().unwrap().data(), &[0.25; 8]);
    }

    #[test]
    fn upsample_gradient_sums_blocks() {
        let x = Var::parameter(Tensor::ones(&[1, 1, 2, 2]));
        let y = x.upsample_nearest2d(3);
        assert_eq!(y.dims(), vec![1, 1, 6, 6]);
        y.sum_all().backward();
        assert_eq!(x.grad().unwrap().data(), &[9.0; 4]);
    }
}
