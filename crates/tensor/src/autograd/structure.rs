//! Differentiable shape-manipulation operations on [`Var`].

use super::Var;
use crate::tensor::Tensor;
use std::sync::Arc;

impl Var {
    /// Reshapes the variable (total element count must be preserved).
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Var {
        let old_dims = self.dims();
        let value = self
            .value()
            .reshape(dims)
            .unwrap_or_else(|e| panic!("reshape failed: {e}"));
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                let gr = g
                    .into_shape(&old_dims)
                    .expect("gradient reshape cannot fail: same element count");
                parents[0].accum(gr);
            }),
        )
    }

    /// Flattens `[N, ...] → [N, rest]`.
    ///
    /// # Panics
    /// Panics if the variable is 0-d.
    pub fn flatten_from(&self) -> Var {
        let dims = self.dims();
        assert!(!dims.is_empty(), "cannot flatten a 0-d variable");
        let rest: usize = dims[1..].iter().product();
        self.reshape(&[dims[0], rest])
    }

    /// Concatenates variables along dimension 0.
    ///
    /// # Panics
    /// Panics if `parts` is empty or trailing dimensions differ.
    pub fn concat0(parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat0 requires at least one variable");
        // One read guard per distinct node: a part may repeat (`[a, a]`),
        // and std's `RwLock` does not promise that one thread may hold two
        // read guards on one lock.
        let mut guards = Vec::with_capacity(parts.len());
        let mut slots = Vec::with_capacity(parts.len());
        for (i, p) in parts.iter().enumerate() {
            match parts[..i].iter().position(|q| Arc::ptr_eq(&p.0, &q.0)) {
                Some(j) => slots.push(slots[j]),
                None => {
                    slots.push(guards.len());
                    guards.push(p.value());
                }
            }
        }
        let refs: Vec<&Tensor> = slots.iter().map(|&k| &*guards[k]).collect();
        let value = Tensor::concat0(&refs);
        let sizes: Vec<usize> = refs.iter().map(|t| t.shape().dim(0)).collect();
        Var::from_op(
            value,
            parts.to_vec(),
            Box::new(move |g, parents| {
                let mut start = 0usize;
                for (p, &len) in parents.iter().zip(sizes.iter()) {
                    p.accum(g.slice0(start, len));
                    start += len;
                }
            }),
        )
    }

    /// Rearranges `[N, C, H, W] → [N·H·W, C]`: one row per pixel.
    ///
    /// Used to apply row-wise operations (softmax, normalization) per pixel
    /// in dense-prediction heads. The inverse is [`Var::rows_to_nchw`].
    ///
    /// # Panics
    /// Panics if the variable is not 4-d.
    pub fn nchw_to_rows(&self) -> Var {
        let (n, c, h, w) = self.value().shape().nchw();
        let hw = h * w;
        let x = self.value();
        let mut out = Tensor::zeros(&[n * hw, c]);
        {
            let (xd, od) = (x.data(), out.data_mut());
            for ni in 0..n {
                for ci in 0..c {
                    let src = &xd[(ni * c + ci) * hw..(ni * c + ci + 1) * hw];
                    for (p, &v) in src.iter().enumerate() {
                        od[(ni * hw + p) * c + ci] = v;
                    }
                }
            }
        }
        Var::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g, parents| {
                // The gradient is a pure permutation written in NCHW order,
                // so build it sequentially without a zero-init pass.
                let gd = g.data();
                let mut dx = Vec::with_capacity(n * c * hw);
                for ni in 0..n {
                    for ci in 0..c {
                        dx.extend((0..hw).map(|p| gd[(ni * hw + p) * c + ci]));
                    }
                }
                parents[0].accum(Tensor::from_vec(dx, &[n, c, h, w]).expect("shape consistent"));
            }),
        )
    }

    /// Rearranges `[N·H·W, C] → [N, C, H, W]`, the inverse of
    /// [`Var::nchw_to_rows`].
    ///
    /// # Panics
    /// Panics if the row count does not equal `n·h·w`.
    pub fn rows_to_nchw(&self, n: usize, h: usize, w: usize) -> Var {
        let (rows, c) = self.value().shape().matrix();
        assert_eq!(rows, n * h * w, "row count {rows} != {n}·{h}·{w}");
        let hw = h * w;
        let x = self.value();
        let mut out = Tensor::zeros(&[n, c, h, w]);
        {
            let (xd, od) = (x.data(), out.data_mut());
            for ni in 0..n {
                for ci in 0..c {
                    let dst = &mut od[(ni * c + ci) * hw..(ni * c + ci + 1) * hw];
                    for (p, v) in dst.iter_mut().enumerate() {
                        *v = xd[(ni * hw + p) * c + ci];
                    }
                }
            }
        }
        Var::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g, parents| {
                let mut dx = Tensor::zeros(&[n * hw, c]);
                let (gd, dd) = (g.data(), dx.data_mut());
                for ni in 0..n {
                    for ci in 0..c {
                        let src = &gd[(ni * c + ci) * hw..(ni * c + ci + 1) * hw];
                        for (p, &v) in src.iter().enumerate() {
                            dd[(ni * hw + p) * c + ci] = v;
                        }
                    }
                }
                parents[0].accum(dx);
            }),
        )
    }

    /// Extracts the spatial window `x[:, :, i0..i1, j0..j1]` of an NCHW
    /// tensor (used e.g. by total-variation priors).
    ///
    /// # Panics
    /// Panics if the variable is not 4-d or the window is out of bounds.
    pub fn slice_spatial(&self, i0: usize, i1: usize, j0: usize, j1: usize) -> Var {
        let (n, c, h, w) = self.value().shape().nchw();
        assert!(i0 < i1 && i1 <= h && j0 < j1 && j1 <= w, "window out of bounds");
        let (oh, ow) = (i1 - i0, j1 - j0);
        let x = self.value();
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        {
            let (xd, od) = (x.data(), out.data_mut());
            for nc in 0..n * c {
                for oi in 0..oh {
                    for oj in 0..ow {
                        od[nc * oh * ow + oi * ow + oj] =
                            xd[nc * h * w + (i0 + oi) * w + j0 + oj];
                    }
                }
            }
        }
        Var::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g, parents| {
                let mut dx = Tensor::zeros(&[n, c, h, w]);
                let (gd, dd) = (g.data(), dx.data_mut());
                for nc in 0..n * c {
                    for oi in 0..oh {
                        for oj in 0..ow {
                            dd[nc * h * w + (i0 + oi) * w + j0 + oj] +=
                                gd[nc * oh * ow + oi * ow + oj];
                        }
                    }
                }
                parents[0].accum(dx);
            }),
        )
    }

    /// Extracts rows `[start, start+len)` along dimension 0.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice0(&self, start: usize, len: usize) -> Var {
        let dims = self.dims();
        let value = self.value().slice0(start, len);
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                let mut dx = Tensor::zeros(&dims);
                let stride: usize = dims[1..].iter().product();
                dx.data_mut()[start * stride..(start + len) * stride].copy_from_slice(g.data());
                parents[0].accum(dx);
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reshape_roundtrips_gradient() {
        let x = Var::parameter(Tensor::ones(&[2, 3]));
        x.reshape(&[3, 2]).sum_all().backward();
        let g = x.grad().unwrap();
        assert_eq!(g.shape().dims(), &[2, 3]);
        assert_eq!(g.data(), &[1.0; 6]);
    }

    #[test]
    fn concat_splits_gradient() {
        let a = Var::parameter(Tensor::ones(&[1, 2]));
        let b = Var::parameter(Tensor::ones(&[2, 2]));
        let c = Var::concat0(&[a.clone(), b.clone()]);
        c.scale(3.0).sum_all().backward();
        assert_eq!(a.grad().unwrap().data(), &[3.0, 3.0]);
        assert_eq!(b.grad().unwrap().data(), &[3.0; 4]);
    }

    #[test]
    fn nchw_rows_roundtrip() {
        let x = Var::parameter(Tensor::from_vec(
            (0..24).map(|v| v as f32).collect(),
            &[2, 3, 2, 2],
        ).unwrap());
        let rows = x.nchw_to_rows();
        assert_eq!(rows.dims(), vec![8, 3]);
        // First pixel of first sample holds channels (0, 4, 8).
        assert_eq!(&rows.value().data()[0..3], &[0.0, 4.0, 8.0]);
        let back = rows.rows_to_nchw(2, 2, 2);
        assert_eq!(back.value().data(), x.value().data());
        back.sum_all().backward();
        assert_eq!(x.grad().unwrap().data(), &[1.0; 24]);
    }

    #[test]
    fn slice_routes_gradient_to_selected_rows() {
        let x = Var::parameter(Tensor::ones(&[3, 2]));
        x.slice0(1, 1).sum_all().backward();
        assert_eq!(x.grad().unwrap().data(), &[0.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
    }
}
