//! The raw (non-differentiable) tensor type and its elementwise kernels.

use crate::error::TensorError;
use crate::shape::Shape;
use crate::simd::vecmath;

/// An n-dimensional, row-major `f32` array.
///
/// `Tensor` carries no gradient information; it is the value type that the
/// autograd layer ([`crate::Var`]) wraps. All operations allocate fresh
/// output tensors unless documented otherwise.
///
/// ```
/// use cae_tensor::Tensor;
/// # fn main() -> Result<(), cae_tensor::TensorError> {
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// assert_eq!(t.shape().dims(), &[2, 2]);
/// assert_eq!(t.map(|v| v * 2.0).data(), &[2.0, 4.0, 6.0, 8.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

serde::impl_json_struct!(Tensor { shape, data });

impl Tensor {
    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Errors
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` does not equal
    /// the product of `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::new(dims);
        if data.len() != shape.numel() {
            return Err(TensorError::LengthMismatch {
                len: data.len(),
                shape: dims.to_vec(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a zero-filled tensor.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Creates a one-filled tensor.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Creates a 0-d (scalar) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::new(&[]),
            data: vec![value],
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The flat row-major data buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat buffer (used by optimizers for in-place
    /// parameter updates).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Extracts the single element of a one-element tensor.
    ///
    /// # Panics
    /// Panics if the tensor holds more than one element.
    pub fn item(&self) -> f32 {
        assert!(
            self.data.len() == 1,
            "item() requires a single-element tensor, shape is {}",
            self.shape
        );
        self.data[0]
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    /// Returns [`TensorError::LengthMismatch`] if the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Self, TensorError> {
        Tensor::from_vec(self.data.clone(), dims)
    }

    /// [`Tensor::reshape`] that reuses this tensor's buffer.
    pub(crate) fn into_shape(self, dims: &[usize]) -> Result<Self, TensorError> {
        Tensor::from_vec(self.data, dims)
    }

    /// Applies `f` elementwise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Combines two same-shape tensors elementwise.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Self {
        assert_eq!(
            self.shape, other.shape,
            "zip requires equal shapes ({} vs {})",
            self.shape, other.shape
        );
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Checks shapes and allocates an output buffer for a vectorized binary
    /// op; the caller fills it with one of the `vecmath` kernels.
    fn binary_out(&self, other: &Tensor, op: &str) -> Vec<f32> {
        assert_eq!(
            self.shape, other.shape,
            "{op} requires equal shapes ({} vs {})",
            self.shape, other.shape
        );
        vec![0.0f32; self.data.len()]
    }

    /// Elementwise addition.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Self {
        let mut out = self.binary_out(other, "add");
        vecmath::vec_add(&self.data, &other.data, &mut out);
        Tensor {
            shape: self.shape.clone(),
            data: out,
        }
    }

    /// Elementwise subtraction.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Self {
        let mut out = self.binary_out(other, "sub");
        vecmath::vec_sub(&self.data, &other.data, &mut out);
        Tensor {
            shape: self.shape.clone(),
            data: out,
        }
    }

    /// Elementwise multiplication.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Self {
        let mut out = self.binary_out(other, "mul");
        vecmath::vec_mul(&self.data, &other.data, &mut out);
        Tensor {
            shape: self.shape.clone(),
            data: out,
        }
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Self {
        let mut out = vec![0.0f32; self.data.len()];
        vecmath::vec_scale(&self.data, s, &mut out);
        Tensor {
            shape: self.shape.clone(),
            data: out,
        }
    }

    /// Adds `s` to every element.
    pub fn add_scalar(&self, s: f32) -> Self {
        let mut out = vec![0.0f32; self.data.len()];
        vecmath::vec_add_scalar(&self.data, s, &mut out);
        Tensor {
            shape: self.shape.clone(),
            data: out,
        }
    }

    /// In-place `self += other * scale` (used for gradient accumulation).
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn add_assign_scaled(&mut self, other: &Tensor, scale: f32) {
        assert_eq!(
            self.shape, other.shape,
            "add_assign_scaled requires equal shapes ({} vs {})",
            self.shape, other.shape
        );
        vecmath::vec_axpy(&mut self.data, &other.data, scale);
    }

    /// Sum of all elements.
    ///
    /// Accumulated in the fixed 8-lane order of the SIMD layer (see
    /// [`crate::simd`]), so the result is identical across backends but not
    /// bit-identical to a left-to-right scalar fold.
    pub fn sum(&self) -> f32 {
        vecmath::vec_sum(&self.data)
    }

    /// Mean of all elements (`0.0` for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (`f32::NEG_INFINITY` for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Index of the maximum element of a 1-d tensor slice starting at
    /// `offset` with length `len` (used for per-row argmax).
    fn argmax_slice(&self, offset: usize, len: usize) -> usize {
        let mut best = 0usize;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in self.data[offset..offset + len].iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        best
    }

    /// Row-wise argmax of a `[N, K]` matrix.
    ///
    /// # Panics
    /// Panics if the tensor is not 2-dimensional.
    pub fn argmax_rows(&self) -> Vec<usize> {
        let (n, k) = self.shape.matrix();
        (0..n).map(|i| self.argmax_slice(i * k, k)).collect()
    }

    /// Row-wise softmax of a `[N, K]` matrix (numerically stabilized).
    ///
    /// # Panics
    /// Panics if the tensor is not 2-dimensional.
    pub fn softmax_rows(&self) -> Tensor {
        let (n, k) = self.shape.matrix();
        let mut out = self.data.clone();
        for i in 0..n {
            vecmath::vec_softmax(&mut out[i * k..(i + 1) * k]);
        }
        Tensor {
            shape: self.shape.clone(),
            data: out,
        }
    }

    /// Squared L2 norm of all elements (fixed-order SIMD accumulation, see
    /// [`Tensor::sum`]).
    pub fn sq_norm(&self) -> f32 {
        vecmath::vec_dot(&self.data, &self.data)
    }

    /// Clamps every element to `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Self {
        assert!(lo <= hi, "clamp bounds inverted: {lo} > {hi}");
        self.map(|v| v.clamp(lo, hi))
    }

    /// Minimum element (`f32::INFINITY` for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Concatenates tensors along dimension 0. All trailing dimensions must
    /// match.
    ///
    /// # Panics
    /// Panics if `parts` is empty or trailing dimensions differ.
    pub fn concat0(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat0 requires at least one tensor");
        let first = parts[0].shape.dims();
        let tail = &first[1..];
        let mut n0 = 0usize;
        for p in parts {
            let d = p.shape.dims();
            assert_eq!(
                &d[1..],
                tail,
                "concat0 requires matching trailing dims ({:?} vs {:?})",
                &d[1..],
                tail
            );
            n0 += d[0];
        }
        let mut dims = vec![n0];
        dims.extend_from_slice(tail);
        let mut data = Vec::with_capacity(Shape::new(&dims).numel());
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Tensor {
            shape: Shape::new(&dims),
            data,
        }
    }

    /// Extracts rows `[start, start+len)` along dimension 0.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or the tensor is 0-d.
    pub fn slice0(&self, start: usize, len: usize) -> Tensor {
        let dims = self.shape.dims();
        assert!(!dims.is_empty(), "slice0 requires at least one dimension");
        assert!(
            start + len <= dims[0],
            "slice0 range {start}..{} out of bounds for dim {}",
            start + len,
            dims[0]
        );
        let stride: usize = dims[1..].iter().product();
        let mut out_dims = dims.to_vec();
        out_dims[0] = len;
        Tensor {
            shape: Shape::new(&out_dims),
            data: self.data[start * stride..(start + len) * stride].to_vec(),
        }
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::scalar(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 2]).is_err());
        assert!(Tensor::from_vec(vec![1.0; 4], &[2, 2]).is_ok());
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        assert_eq!(a.add(&b).data(), &[4.0, 6.0]);
        assert_eq!(a.sub(&b).data(), &[-2.0, -2.0]);
        assert_eq!(a.mul(&b).data(), &[3.0, 8.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]).unwrap();
        let s = t.softmax_rows();
        let row0: f32 = s.data()[0..3].iter().sum();
        let row1: f32 = s.data()[3..6].iter().sum();
        assert!((row0 - 1.0).abs() < 1e-6);
        assert!((row1 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn argmax_rows() {
        let t = Tensor::from_vec(vec![1.0, 5.0, 3.0, 9.0, 0.0, 1.0], &[2, 3]).unwrap();
        assert_eq!(t.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn concat_and_slice_roundtrip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0], &[1, 2]).unwrap();
        let c = Tensor::concat0(&[&a, &b]);
        assert_eq!(c.shape().dims(), &[3, 2]);
        assert_eq!(c.slice0(2, 1).data(), &[5.0, 6.0]);
        assert_eq!(c.slice0(0, 2).data(), a.data());
    }
}
