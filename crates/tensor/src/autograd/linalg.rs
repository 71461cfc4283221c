//! Differentiable linear-algebra operations on [`Var`].

use super::{with_values, Var};
use crate::linalg;

impl Var {
    /// Matrix product `self[m,k] × rhs[k,n] → [m,n]`.
    ///
    /// # Panics
    /// Panics if either operand is not 2-d or the inner dimensions disagree.
    pub fn matmul(&self, rhs: &Var) -> Var {
        let value = with_values(self, rhs, linalg::matmul);
        Var::from_op(
            value,
            vec![self.clone(), rhs.clone()],
            Box::new(|g, parents| {
                // dA = g × Bᵀ ; dB = Aᵀ × g
                let (da, db) = with_values(&parents[0], &parents[1], |a, b| {
                    let da = parents[0].requires_grad().then(|| linalg::matmul_nt(&g, b));
                    let db = parents[1].requires_grad().then(|| linalg::matmul_tn(a, &g));
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

    /// Matrix product with a transposed right operand:
    /// `self[m,k] × rhs[n,k]ᵀ → [m,n]`. Used for similarity matrices.
    ///
    /// # Panics
    /// Panics if either operand is not 2-d or the shared dimension disagrees.
    pub fn matmul_nt(&self, rhs: &Var) -> Var {
        let value = with_values(self, rhs, linalg::matmul_nt);
        Var::from_op(
            value,
            vec![self.clone(), rhs.clone()],
            Box::new(|g, parents| {
                // y = A Bᵀ : dA = g × B ; dB = gᵀ × A
                let (da, db) = with_values(&parents[0], &parents[1], |a, b| {
                    let da = parents[0].requires_grad().then(|| linalg::matmul(&g, b));
                    let db = parents[1].requires_grad().then(|| linalg::matmul_tn(&g, a));
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

    /// Adds a `[D]` bias row to every row of a `[N, D]` matrix.
    ///
    /// # Panics
    /// Panics if `self` is not 2-d or `bias` is not `[D]`.
    pub fn add_rows(&self, bias: &Var) -> Var {
        let (n, d) = self.value().shape().matrix();
        {
            let b = bias.value();
            assert_eq!(
                b.shape().dims(),
                &[d],
                "bias must be [{d}], got {}",
                b.shape()
            );
        }
        let value = with_values(self, bias, |x, bd| {
            let mut value = x.clone();
            let vd = value.data_mut();
            for i in 0..n {
                for (v, &b) in vd[i * d..(i + 1) * d].iter_mut().zip(bd.data()) {
                    *v += b;
                }
            }
            value
        });
        Var::from_op(
            value,
            vec![self.clone(), bias.clone()],
            Box::new(move |g, parents| {
                let db = parents[1].requires_grad().then(|| {
                    let mut db = crate::Tensor::zeros(&[d]);
                    let dbd = db.data_mut();
                    for i in 0..n {
                        for (j, &gv) in g.data()[i * d..(i + 1) * d].iter().enumerate() {
                            dbd[j] += gv;
                        }
                    }
                    db
                });
                parents[0].accum(g);
                if let Some(db) = db {
                    parents[1].accum(db);
                }
            }),
        )
    }

    /// L2-normalizes each row of a `[N, D]` matrix (used before cosine
    /// similarity). Rows with tiny norms are clamped to `1e-8`.
    ///
    /// # Panics
    /// Panics if `self` is not 2-d.
    pub fn l2_normalize_rows(&self) -> Var {
        let (n, d) = self.value().shape().matrix();
        let mut value = self.to_tensor();
        let norms: Vec<f32> = (0..n)
            .map(|i| {
                let s: f32 = value.data()[i * d..(i + 1) * d].iter().map(|v| v * v).sum();
                s.sqrt().max(1e-8)
            })
            .collect();
        for (i, &nm) in norms.iter().enumerate() {
            let inv = 1.0 / nm;
            for v in &mut value.data_mut()[i * d..(i + 1) * d] {
                *v *= inv;
            }
        }
        let y = value.clone();
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                // dx_i = (g_i - y_i <y_i, g_i>) / ||x_i||, built directly.
                let mut dx = Vec::with_capacity(n * d);
                for (i, &nm) in norms.iter().enumerate() {
                    let yrow = &y.data()[i * d..(i + 1) * d];
                    let grow = &g.data()[i * d..(i + 1) * d];
                    let dot: f32 = yrow.iter().zip(grow).map(|(a, b)| a * b).sum();
                    let inv = 1.0 / nm;
                    dx.extend((0..d).map(|j| (grow[j] - yrow[j] * dot) * inv));
                }
                parents[0].accum(crate::Tensor::from_vec(dx, &[n, d]).expect("shape consistent"));
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    #[test]
    fn matmul_gradients() {
        // y = sum(A × B); dA = 1 Bᵀ-row-sums, dB = Aᵀ 1.
        let a = Var::parameter(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap());
        let b = Var::parameter(Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap());
        a.matmul(&b).sum_all().backward();
        assert_eq!(a.grad().unwrap().data(), &[11.0, 15.0, 11.0, 15.0]);
        assert_eq!(b.grad().unwrap().data(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn normalize_rows_produces_unit_rows_and_tangent_gradient() {
        let x = Var::parameter(Tensor::from_vec(vec![3.0, 4.0], &[1, 2]).unwrap());
        let y = x.l2_normalize_rows();
        assert!((y.value().data()[0] - 0.6).abs() < 1e-6);
        assert!((y.value().data()[1] - 0.8).abs() < 1e-6);
        // Gradient of sum(y) must be orthogonal to y.
        y.sum_all().backward();
        let g = x.grad().unwrap();
        let dot = g.data()[0] * 0.6 + g.data()[1] * 0.8;
        assert!(dot.abs() < 1e-6, "gradient not tangent: {dot}");
    }

    #[test]
    fn add_rows_bias_gradient_sums_over_rows() {
        let x = Var::parameter(Tensor::zeros(&[3, 2]));
        let b = Var::parameter(Tensor::zeros(&[2]));
        x.add_rows(&b).sum_all().backward();
        assert_eq!(b.grad().unwrap().data(), &[3.0, 3.0]);
        assert_eq!(x.grad().unwrap().data(), &[1.0; 6]);
    }
}
