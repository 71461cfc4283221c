//! Category Noise Contrastive Learning (CNCL, paper §III-C and Eq. 4).
//!
//! Instead of contrasting augmented *images* (which amplifies the semantic
//! ambiguity of low-quality synthetic images — paper Table I), CNCL uses the
//! generator to construct contrastive pairs *in the embedding space*:
//!
//! * **anchor** `S_k = G(e_k^off)` — the image generated from category `k`'s
//!   offline embedding;
//! * **positives** `S_k^n = G(e_k^n)` — images generated from the `N`
//!   CEND-diffused embeddings of the same category;
//! * **negatives** — the positives of every other category in the batch.
//!
//! The InfoNCE objective over cosine similarities of *student embeddings*
//! pulls each anchor toward its diffusion family and away from other
//! categories, teaching the student domain-invariant category features.

use crate::cend::CendLayer;
use cae_nn::infer::FreezeOptions;
use cae_nn::module::{Classifier, ForwardCtx, Generator};
use cae_tensor::rng::TensorRng;
use cae_tensor::{Tensor, Var};

/// CNCL hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CnclConfig {
    /// Temperature `τ` of Eq. 4.
    pub tau: f32,
    /// Number of categories contrasted per step (anchors per batch).
    pub classes_per_step: usize,
}

serde::impl_json_struct!(CnclConfig { tau, classes_per_step });

impl Default for CnclConfig {
    fn default() -> Self {
        CnclConfig {
            tau: 0.2,
            classes_per_step: 4,
        }
    }
}

/// Computes the CNCL loss (Eq. 4) for one step.
///
/// The generator is used in evaluation mode and *detached* — gradients flow
/// only into the student, matching the paper where `L_cncl` appears in the
/// student objective (Eq. 6).
///
/// # Panics
/// Panics if `e_off` has fewer categories than `config.classes_per_step`
/// requires at least one of, or shapes are inconsistent.
pub fn cncl_loss(
    student: &dyn Classifier,
    generator: &dyn Generator,
    e_off: &Tensor,
    cend: &CendLayer,
    config: CnclConfig,
    rng: &mut TensorRng,
) -> Var {
    let (num_classes, d) = e_off.shape().matrix();
    let kb = config.classes_per_step.clamp(2, num_classes);
    let n = cend.num_sources();

    // Choose kb distinct categories.
    let mut classes: Vec<usize> = (0..num_classes).collect();
    for i in (1..classes.len()).rev() {
        let j = rng.index(i + 1);
        classes.swap(i, j);
    }
    classes.truncate(kb);

    // Latents: anchors first, then each category's N diffusions.
    let mut latents = Vec::with_capacity((kb + kb * n) * d);
    for &k in &classes {
        latents.extend_from_slice(&e_off.data()[k * d..(k + 1) * d]);
    }
    for &k in &classes {
        let diffused = cend.diffuse_all_sources(e_off, k, rng);
        latents.extend_from_slice(diffused.data());
    }
    let z = Tensor::from_vec(latents, &[kb + kb * n, d]).expect("shape consistent");

    // Generate all images in one pass, detached from the generator: the
    // frozen forward never builds a graph, so detachment is structural.
    let images = Var::constant(generator.freeze_with(&FreezeOptions::fused()).generate(&z));

    // Student embeddings (training mode: gradients flow into the student).
    let mut ctx = ForwardCtx::train();
    let (emb, _) = student.forward_embedding(&images, &mut ctx);
    let anchors = emb.slice0(0, kb).l2_normalize_rows();
    let candidates = emb.slice0(kb, kb * n).l2_normalize_rows();

    // Similarity matrix [kb, kb*n]: row k's positives are columns
    // k*n..(k+1)*n, everything else is a negative.
    let sim = anchors.matmul_nt(&candidates).scale(1.0 / config.tau);
    let logp = sim.log_softmax_rows();
    let mut mask = Tensor::zeros(&[kb, kb * n]);
    for k in 0..kb {
        for p in 0..n {
            mask.data_mut()[k * (kb * n) + k * n + p] = 1.0;
        }
    }
    logp.mul_const(&mask)
        .sum_all()
        .scale(-1.0 / (kb * n) as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cae_nn::models::{Arch, DfkdGenerator, GeneratorConfig};

    fn setup() -> (Box<dyn Classifier>, DfkdGenerator, Tensor, CendLayer, TensorRng) {
        let mut rng = TensorRng::seed_from(3);
        let student = Arch::ResNet18.build(4, 4, &mut rng);
        let generator = DfkdGenerator::new(GeneratorConfig::new(8, 8, 8), &mut rng);
        let e_off = rng.normal_tensor(&[4, 8], 0.0, 1.0);
        let cend = CendLayer::with_default_sources(3, 0.2);
        (student, generator, e_off, cend, rng)
    }

    #[test]
    fn loss_is_finite_and_positive() {
        let (student, generator, e_off, cend, mut rng) = setup();
        let loss = cncl_loss(
            student.as_ref(),
            &generator,
            &e_off,
            &cend,
            CnclConfig::default(),
            &mut rng,
        );
        assert!(loss.item().is_finite());
        assert!(loss.item() > 0.0, "InfoNCE with random nets must be > 0");
    }

    #[test]
    fn gradients_reach_student_but_not_generator() {
        let (student, generator, e_off, cend, mut rng) = setup();
        let loss = cncl_loss(
            student.as_ref(),
            &generator,
            &e_off,
            &cend,
            CnclConfig::default(),
            &mut rng,
        );
        loss.backward();
        assert!(
            student.parameters().iter().any(|p| p.grad().is_some()),
            "student must receive gradients"
        );
        assert!(
            cae_nn::Module::parameters(&generator)
                .iter()
                .all(|p| p.grad().is_none()),
            "generator must be detached"
        );
    }

    #[test]
    fn perfect_separation_yields_lower_loss_than_collapse() {
        // Direct check of the InfoNCE core: if anchors align with their own
        // positives, the Eq. 4 denominator is dominated by the positives and
        // the loss shrinks. (Exercised through the public function by using
        // a fixed degenerate generator is impractical, so we verify the
        // monotonicity on the similarity structure instead.)
        let tau = 0.2f32;
        let aligned: f32 = -((1.0f32 / tau).exp() / ((1.0f32 / tau).exp() + 3.0 * (-1.0f32 / tau).exp())).ln();
        let collapsed: f32 = -(1.0f32 / 4.0).ln();
        assert!(aligned < collapsed);
    }
}
