//! The module system: forward contexts and the [`Module`] / [`Classifier`]
//! traits.

use cae_tensor::{Tensor, Var};

/// Differentiable per-batch statistics of one batch-normalization layer,
/// captured during a forward pass.
///
/// The DFKD batch-norm loss (`L_BN` in Eq. 5 of the paper) matches these
/// batch statistics — computed on *synthetic* images — against the running
/// statistics the teacher accumulated on real data. The `mean`/`var`
/// variables stay connected to the generator's graph so the loss can push
/// gradients into it.
#[derive(Debug, Clone)]
pub struct BnBatchStats {
    /// Differentiable per-channel batch mean of the layer input.
    pub mean: Var,
    /// Differentiable per-channel (biased) batch variance of the layer input.
    pub var: Var,
    /// The layer's running mean (frozen snapshot).
    pub running_mean: Tensor,
    /// The layer's running variance (frozen snapshot).
    pub running_var: Tensor,
}

/// Mutable state threaded through a forward pass.
///
/// * `training` selects batch statistics (and running-stat updates) in
///   batch-norm layers.
/// * `collect_bn_stats` asks every batch-norm layer to record
///   [`BnBatchStats`] regardless of mode — used by the generator update.
#[derive(Debug, Default)]
pub struct ForwardCtx {
    /// Whether layers should behave as in training (batch-norm batch stats,
    /// running-stat updates).
    pub training: bool,
    /// Whether batch-norm layers should capture differentiable batch
    /// statistics into [`ForwardCtx::bn_stats`].
    pub collect_bn_stats: bool,
    /// Captured batch-norm statistics, in layer order.
    pub bn_stats: Vec<BnBatchStats>,
}

impl ForwardCtx {
    /// Context for training-mode forward passes.
    pub fn train() -> Self {
        ForwardCtx {
            training: true,
            ..Default::default()
        }
    }

    /// Context for evaluation-mode forward passes.
    pub fn eval() -> Self {
        ForwardCtx::default()
    }

    /// Evaluation-mode context that also captures differentiable batch-norm
    /// statistics (for the DFKD `L_BN` loss).
    pub fn eval_with_bn_stats() -> Self {
        ForwardCtx {
            training: false,
            collect_bn_stats: true,
            ..Default::default()
        }
    }
}

/// A neural-network component with trainable parameters.
///
/// `Module` requires `Send + Sync` so trained models (and trait objects
/// over them) can cross thread boundaries — the experiment scheduler runs
/// whole distillation cells on pool workers, and the global teacher cache
/// shares pretrained masters between them. Interior mutability inside
/// layers (batch-norm running statistics) must therefore be lock-based,
/// not `RefCell`-based.
pub trait Module: Send + Sync {
    /// Runs the module on `x`.
    fn forward(&self, x: &Var, ctx: &mut ForwardCtx) -> Var;

    /// All trainable parameters (leaf [`Var::parameter`] nodes), in a stable
    /// order.
    fn parameters(&self) -> Vec<Var>;

    /// Persistent non-trainable state (batch-norm running statistics), in a
    /// stable order matching [`Module::set_buffers`].
    fn buffers(&self) -> Vec<Tensor> {
        Vec::new()
    }

    /// Restores state captured by [`Module::buffers`].
    ///
    /// # Panics
    /// Implementations panic if `bufs` has the wrong length or shapes.
    fn set_buffers(&self, bufs: &[Tensor]) {
        assert!(
            bufs.is_empty(),
            "module has no buffers but {} were provided",
            bufs.len()
        );
    }

    /// Total number of scalar parameters.
    fn num_parameters(&self) -> usize {
        self.parameters().iter().map(|p| p.value().numel()).sum()
    }
}

/// Copies all trainable parameters and buffers from `src` into `dst`.
///
/// Both modules must have identical structure (same architecture and
/// configuration).
///
/// # Panics
/// Panics if parameter counts or shapes differ.
pub fn copy_state(src: &dyn Module, dst: &dyn Module) {
    let sp = src.parameters();
    let dp = dst.parameters();
    assert_eq!(sp.len(), dp.len(), "parameter lists differ in length");
    for (s, d) in sp.iter().zip(dp.iter()) {
        assert_eq!(s.dims(), d.dims(), "parameter shapes differ");
        d.set_value(s.to_tensor());
    }
    dst.set_buffers(&src.buffers());
}

/// Freezes a model's parameters for a scope. While the guard lives, no
/// parameter accumulates a gradient, and ops that read only frozen
/// parameters and constants record no backward closure, so backpropagating
/// through the model computes input gradients only. Dropping the guard
/// restores each parameter's previous flag, so guards nest.
///
/// Flags live on the parameters' `Var`s: every holder of a clone of those
/// `Var`s sees the freeze.
///
/// ```
/// use cae_nn::layers::Linear;
/// use cae_nn::module::{Module, ParamFreeze};
/// use cae_tensor::rng::TensorRng;
///
/// let layer = Linear::new(2, 3, &mut TensorRng::seed_from(0));
/// {
///     let _frozen = ParamFreeze::new(&layer);
///     assert!(layer.parameters().iter().all(|p| !p.requires_grad()));
/// }
/// assert!(layer.parameters().iter().all(|p| p.requires_grad()));
/// ```
#[derive(Debug)]
#[must_use = "the parameters unfreeze as soon as the guard is dropped"]
pub struct ParamFreeze {
    /// Each parameter with the flag it had before the freeze.
    restore: Vec<(Var, bool)>,
}

impl ParamFreeze {
    /// Freezes every parameter of `model` until the guard is dropped.
    pub fn new(model: &dyn Module) -> Self {
        let restore = model
            .parameters()
            .into_iter()
            .map(|p| {
                let was = p.requires_grad();
                p.set_requires_grad(false);
                (p, was)
            })
            .collect();
        ParamFreeze { restore }
    }
}

impl Drop for ParamFreeze {
    fn drop(&mut self) {
        // Cannot panic: `new` already set the flag on these same leaves.
        for (p, was) in &self.restore {
            p.set_requires_grad(*was);
        }
    }
}

/// An image classifier exposing its penultimate embedding.
///
/// CAE-DFKD's CNCL loss contrasts *student embeddings* of generated images,
/// so every backbone must expose the feature vector feeding its linear head.
pub trait Classifier: Module {
    /// Number of output classes.
    fn num_classes(&self) -> usize;

    /// Dimension of the penultimate embedding.
    fn embed_dim(&self) -> usize;

    /// Returns `(embedding [N, D], logits [N, K])`.
    fn forward_embedding(&self, x: &Var, ctx: &mut ForwardCtx) -> (Var, Var);

    /// Returns the last spatial feature map `[N, D, H', W']` (before global
    /// pooling), used by dense-prediction transfer heads.
    fn forward_spatial(&self, x: &Var, ctx: &mut ForwardCtx) -> Var;

    /// Compiles the current weights into a graph-free
    /// [`FrozenClassifier`](crate::infer::FrozenClassifier) for eval-mode
    /// forwards. [`FreezeOptions`](crate::infer::FreezeOptions) carries the
    /// folding mode plus optional int8 weight quantization (see
    /// [`crate::infer`] for the semantics of each).
    fn freeze_with(&self, opts: &crate::infer::FreezeOptions) -> crate::infer::FrozenClassifier;
}

/// An image generator mapping latent embeddings to images in `[-1, 1]`.
pub trait Generator: Module {
    /// Latent input dimension.
    fn latent_dim(&self) -> usize;

    /// Generates images from latent codes `z[N, latent_dim]`.
    fn generate(&self, z: &Var, ctx: &mut ForwardCtx) -> Var;

    /// Compiles the current weights into a graph-free
    /// [`FrozenGenerator`](crate::infer::FrozenGenerator) for eval-mode
    /// generation. [`FreezeOptions`](crate::infer::FreezeOptions) carries
    /// the folding mode plus optional int8 weight quantization.
    fn freeze_with(&self, opts: &crate::infer::FreezeOptions) -> crate::infer::FrozenGenerator;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_trait_objects_are_send_sync() {
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn Module>();
        assert_send_sync::<dyn Classifier>();
        assert_send_sync::<dyn Generator>();
        assert_send_sync::<Box<dyn Classifier>>();
    }

    #[test]
    fn param_freeze_nests_and_restores_prior_flags() {
        let mut rng = cae_tensor::rng::TensorRng::seed_from(0);
        let layer = crate::layers::Linear::new(2, 3, &mut rng);
        let params = layer.parameters();
        params[1].set_requires_grad(false);
        {
            let _outer = ParamFreeze::new(&layer);
            {
                let _inner = ParamFreeze::new(&layer);
                assert!(params.iter().all(|p| !p.requires_grad()));
            }
            assert!(params.iter().all(|p| !p.requires_grad()));
        }
        assert!(params[0].requires_grad());
        assert!(
            !params[1].requires_grad(),
            "a leaf frozen before the guard stays frozen"
        );
    }

    #[test]
    fn contexts_have_expected_flags() {
        assert!(ForwardCtx::train().training);
        assert!(!ForwardCtx::eval().training);
        let c = ForwardCtx::eval_with_bn_stats();
        assert!(!c.training && c.collect_bn_stats);
    }
}
