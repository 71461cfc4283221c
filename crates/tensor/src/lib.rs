//! # cae-tensor
//!
//! A minimal, dependency-light f32 tensor library with reverse-mode autograd,
//! built from scratch as the compute substrate for the CAE-DFKD reproduction.
//!
//! The library provides:
//!
//! * [`Tensor`] — an n-dimensional, row-major `f32` array with the raw
//!   (non-differentiable) kernels used by the neural-network stack: blocked
//!   matrix multiplication, implicit-GEMM convolution, pooling, upsampling,
//!   reductions and elementwise maps.
//! * [`Var`] — a reference-counted autograd variable wrapping a [`Tensor`].
//!   Operations on `Var`s record a backward closure; [`Var::backward`] walks
//!   the recorded graph in reverse creation order and accumulates gradients
//!   into leaves created with [`Var::parameter`].
//! * [`rng`] — seeded random tensor constructors (normal, uniform, and the
//!   heavier-tailed distributions used by the CEND noise sources).
//! * [`gradcheck`] — finite-difference gradient checking used throughout the
//!   test suite to validate every backward implementation.
//!
//! # Example
//!
//! ```
//! use cae_tensor::{Tensor, Var};
//!
//! # fn main() -> Result<(), cae_tensor::TensorError> {
//! let w = Var::parameter(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?);
//! let x = Var::constant(Tensor::from_vec(vec![1.0, 1.0], &[1, 2])?);
//! let y = x.matmul(&w).sum_all(); // scalar
//! y.backward();
//! let g = w.grad().expect("parameter receives a gradient");
//! assert_eq!(g.data(), &[1.0, 1.0, 1.0, 1.0]);
//! # Ok(())
//! # }
//! ```

pub mod autograd;
pub mod conv;
pub mod error;
pub mod gemm;
pub mod gradcheck;
pub mod linalg;
pub mod pool;
pub mod rng;
pub mod shape;
pub mod simd;
pub mod tensor;
pub mod workspace;

pub use autograd::Var;
pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;
