//! # cae-nn
//!
//! Neural-network building blocks for the CAE-DFKD reproduction: a small
//! module system over [`cae_tensor`]'s autograd, the layer zoo needed by the
//! paper (convolutions, batch normalization with running statistics and
//! differentiable batch-statistic capture, pooling, upsampling), the model
//! families used in the evaluation (ResNet, WideResNet, VGG and the DFKD
//! image generator), optimizers (SGD with momentum, Adam, cosine annealing)
//! and the classification/distillation losses.
//!
//! # Example
//!
//! ```
//! use cae_nn::layers::Linear;
//! use cae_nn::module::{ForwardCtx, Module};
//! use cae_tensor::rng::TensorRng;
//! use cae_tensor::{Tensor, Var};
//!
//! let mut rng = TensorRng::seed_from(0);
//! let layer = Linear::new(4, 2, &mut rng);
//! let x = Var::constant(Tensor::zeros(&[3, 4]));
//! let y = layer.forward(&x, &mut ForwardCtx::eval());
//! assert_eq!(y.dims(), vec![3, 2]);
//! ```

pub mod infer;
pub mod init;
pub mod layers;
pub mod loss;
pub mod models;
pub mod module;
pub mod optim;
pub mod serialize;

pub use infer::{FreezeMode, FreezeOptions, FrozenClassifier, FrozenGenerator, QuantSpec};
pub use module::{Classifier, ForwardCtx, Generator, Module, ParamFreeze};
