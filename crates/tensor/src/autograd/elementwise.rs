//! Elementwise differentiable operations on [`Var`].
//!
//! The activation forward/backward pairs (`relu`, `leaky_relu`, `tanh`,
//! `sigmoid`, `exp`) run on the SIMD layer's fused kernels
//! ([`crate::simd::vecmath`]); the backward kernels compute the derivative
//! and multiply by the incoming gradient in one pass instead of
//! materializing a mask tensor first.

use super::{with_values, Var};
use crate::simd::vecmath;
use crate::tensor::Tensor;

/// Builds a tensor with `template`'s shape around a freshly computed buffer.
fn like(template: &Tensor, data: Vec<f32>) -> Tensor {
    Tensor::from_vec(data, template.shape().dims()).expect("kernel preserves length")
}

impl Var {
    /// Elementwise addition of two same-shape variables.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn add(&self, other: &Var) -> Var {
        let value = with_values(self, other, Tensor::add);
        Var::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(|g, parents| {
                if parents[1].requires_grad() {
                    parents[0].accum(g.clone());
                    parents[1].accum(g);
                } else {
                    parents[0].accum(g);
                }
            }),
        )
    }

    /// Elementwise subtraction.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn sub(&self, other: &Var) -> Var {
        let value = with_values(self, other, Tensor::sub);
        Var::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(|g, parents| {
                let neg = parents[1].requires_grad().then(|| g.scale(-1.0));
                parents[0].accum(g);
                if let Some(neg) = neg {
                    parents[1].accum(neg);
                }
            }),
        )
    }

    /// Elementwise multiplication.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn mul(&self, other: &Var) -> Var {
        let value = with_values(self, other, Tensor::mul);
        Var::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(|g, parents| {
                let (da, db) = with_values(&parents[0], &parents[1], |a, b| {
                    let da = parents[0].requires_grad().then(|| g.mul(b));
                    let db = parents[1].requires_grad().then(|| g.mul(a));
                    (da, db)
                });
                if let Some(da) = da {
                    parents[0].accum(da);
                }
                if let Some(db) = db {
                    parents[1].accum(db);
                }
            }),
        )
    }

    /// Multiplies every element by a constant.
    pub fn scale(&self, s: f32) -> Var {
        let value = self.value().scale(s);
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| parents[0].accum(g.scale(s))),
        )
    }

    /// Adds a constant to every element.
    pub fn add_scalar(&self, s: f32) -> Var {
        let value = self.value().add_scalar(s);
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(|g, parents| parents[0].accum(g)),
        )
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Var {
        self.scale(-1.0)
    }

    /// Elementwise square.
    pub fn square(&self) -> Var {
        let x = self.value();
        let value = x.mul(&x);
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(|g, parents| {
                let dx = g.mul(&parents[0].value().scale(2.0));
                parents[0].accum(dx);
            }),
        )
    }

    /// Elementwise power with a constant (fractional) exponent.
    ///
    /// Inputs are clamped to `≥ 1e-12` before exponentiation so `powf(-0.5)`
    /// (inverse square root, used by batch normalization) is well defined.
    pub fn powf(&self, p: f32) -> Var {
        let value = self.value().map(|v| v.max(1e-12).powf(p));
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                let d = parents[0].value().map(|v| p * v.max(1e-12).powf(p - 1.0));
                parents[0].accum(g.mul(&d));
            }),
        )
    }

    /// Elementwise ReLU.
    pub fn relu(&self) -> Var {
        let x = self.value();
        let mut out = vec![0.0f32; x.data().len()];
        vecmath::vec_relu(x.data(), &mut out);
        Var::from_op(
            like(&x, out),
            vec![self.clone()],
            Box::new(|g, parents| {
                let mut dx = vec![0.0f32; g.data().len()];
                vecmath::vec_relu_grad(parents[0].value().data(), g.data(), &mut dx);
                parents[0].accum(like(&g, dx));
            }),
        )
    }

    /// Elementwise leaky ReLU with negative slope `slope`.
    pub fn leaky_relu(&self, slope: f32) -> Var {
        let x = self.value();
        let mut out = vec![0.0f32; x.data().len()];
        vecmath::vec_leaky_relu(x.data(), slope, &mut out);
        Var::from_op(
            like(&x, out),
            vec![self.clone()],
            Box::new(move |g, parents| {
                let mut dx = vec![0.0f32; g.data().len()];
                vecmath::vec_leaky_relu_grad(parents[0].value().data(), g.data(), slope, &mut dx);
                parents[0].accum(like(&g, dx));
            }),
        )
    }

    /// Elementwise hyperbolic tangent.
    pub fn tanh(&self) -> Var {
        let x = self.value();
        let mut out = vec![0.0f32; x.data().len()];
        vecmath::vec_tanh(x.data(), &mut out);
        let value = like(&x, out);
        let saved = value.clone();
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                let mut dx = vec![0.0f32; saved.data().len()];
                vecmath::vec_tanh_grad(saved.data(), g.data(), &mut dx);
                parents[0].accum(like(&saved, dx));
            }),
        )
    }

    /// Elementwise sigmoid.
    pub fn sigmoid(&self) -> Var {
        let x = self.value();
        let mut out = vec![0.0f32; x.data().len()];
        vecmath::vec_sigmoid(x.data(), &mut out);
        let value = like(&x, out);
        let saved = value.clone();
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                let mut dx = vec![0.0f32; saved.data().len()];
                vecmath::vec_sigmoid_grad(saved.data(), g.data(), &mut dx);
                parents[0].accum(like(&saved, dx));
            }),
        )
    }

    /// Elementwise absolute value (subgradient `0` at the origin).
    pub fn abs(&self) -> Var {
        let value = self.value().map(f32::abs);
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(|g, parents| {
                let sign = parents[0].value().map(|v| {
                    if v > 0.0 {
                        1.0
                    } else if v < 0.0 {
                        -1.0
                    } else {
                        0.0
                    }
                });
                parents[0].accum(g.mul(&sign));
            }),
        )
    }

    /// Elementwise natural exponential.
    pub fn exp(&self) -> Var {
        let x = self.value();
        let mut out = vec![0.0f32; x.data().len()];
        vecmath::vec_exp(x.data(), &mut out);
        let value = like(&x, out);
        let saved = value.clone();
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| parents[0].accum(g.mul(&saved))),
        )
    }

    /// Elementwise natural logarithm (inputs clamped to `≥ 1e-12`).
    pub fn ln(&self) -> Var {
        let value = self.value().map(|v| v.max(1e-12).ln());
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(|g, parents| {
                let d = parents[0].value().map(|v| 1.0 / v.max(1e-12));
                parents[0].accum(g.mul(&d));
            }),
        )
    }

    /// Multiplies elementwise by a constant tensor (no gradient flows into
    /// the constant), e.g. masks or frozen teacher probabilities.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn mul_const(&self, c: &Tensor) -> Var {
        let value = self.value().mul(c);
        let saved = c.clone();
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| parents[0].accum(g.mul(&saved))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(data: Vec<f32>, dims: &[usize]) -> Var {
        Var::parameter(Tensor::from_vec(data, dims).unwrap())
    }

    #[test]
    fn mul_product_rule() {
        let a = p(vec![2.0], &[1]);
        let b = p(vec![5.0], &[1]);
        a.mul(&b).backward();
        assert_eq!(a.grad().unwrap().data(), &[5.0]);
        assert_eq!(b.grad().unwrap().data(), &[2.0]);
    }

    #[test]
    fn relu_blocks_negative_gradient() {
        let x = p(vec![-1.0, 2.0], &[2]);
        x.relu().backward();
        assert_eq!(x.grad().unwrap().data(), &[0.0, 1.0]);
    }

    #[test]
    fn tanh_derivative_at_zero_is_one() {
        let x = p(vec![0.0], &[1]);
        x.tanh().backward();
        assert!((x.grad().unwrap().item() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn powf_matches_rsqrt_derivative() {
        // d/dx x^{-1/2} = -0.5 x^{-3/2}; at x=4: -0.5/8 = -0.0625.
        let x = p(vec![4.0], &[1]);
        x.powf(-0.5).backward();
        assert!((x.grad().unwrap().item() + 0.0625).abs() < 1e-6);
    }

    #[test]
    fn mul_const_passes_through_mask() {
        let x = p(vec![1.0, 1.0], &[2]);
        let mask = Tensor::from_vec(vec![0.0, 3.0], &[2]).unwrap();
        x.mul_const(&mask).sum_all().backward();
        assert_eq!(x.grad().unwrap().data(), &[0.0, 3.0]);
    }
}
