//! Teacher-confidence statistics over synthetic images (paper Fig. 2a).

use cae_nn::infer::FreezeOptions;
use cae_nn::module::Classifier;
use cae_tensor::Tensor;

/// Per-category confidence statistics of a teacher over a labelled set of
/// (synthetic) images.
#[derive(Debug, Clone)]
pub struct ConfidenceProfile {
    /// For each category: fraction of its images whose *highest* teacher
    /// probability is at most the threshold (the paper's "low-confidence
    /// proportion", threshold 0.1).
    pub low_conf_fraction: Vec<f32>,
    /// For each category: mean highest probability.
    pub mean_max_prob: Vec<f32>,
}

impl ConfidenceProfile {
    /// Spread between the most and least reliable categories — the Fig. 2a
    /// "quality difference across categories" in one number.
    pub fn low_conf_spread(&self) -> f32 {
        let max = self
            .low_conf_fraction
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max);
        let min = self
            .low_conf_fraction
            .iter()
            .copied()
            .fold(f32::INFINITY, f32::min);
        (max - min).max(0.0)
    }

    /// Overall low-confidence fraction.
    pub fn mean_low_conf(&self) -> f32 {
        if self.low_conf_fraction.is_empty() {
            0.0
        } else {
            self.low_conf_fraction.iter().sum::<f32>() / self.low_conf_fraction.len() as f32
        }
    }
}

/// Computes the teacher-confidence profile of labelled images.
///
/// # Panics
/// Panics if `labels.len()` differs from the batch size or a label is out
/// of range for `num_classes`.
pub fn confidence_profile(
    teacher: &dyn Classifier,
    images: &Tensor,
    labels: &[usize],
    num_classes: usize,
    threshold: f32,
) -> ConfidenceProfile {
    assert_eq!(images.shape().dim(0), labels.len(), "one label per image");
    let logits = teacher.freeze_with(&FreezeOptions::fused()).forward(images);
    let probs = logits.softmax_rows();
    let (n, k) = probs.shape().matrix();
    let mut low = vec![0usize; num_classes];
    let mut count = vec![0usize; num_classes];
    let mut sum_max = vec![0.0f32; num_classes];
    for (i, &label) in labels.iter().enumerate().take(n) {
        let row = &probs.data()[i * k..(i + 1) * k];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        assert!(label < num_classes, "label {label} out of range");
        count[label] += 1;
        sum_max[label] += max;
        if max <= threshold {
            low[label] += 1;
        }
    }
    ConfidenceProfile {
        low_conf_fraction: low
            .iter()
            .zip(&count)
            .map(|(&l, &c)| if c == 0 { 0.0 } else { l as f32 / c as f32 })
            .collect(),
        mean_max_prob: sum_max
            .iter()
            .zip(&count)
            .map(|(&s, &c)| if c == 0 { 0.0 } else { s / c as f32 })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cae_nn::models::Arch;
    use cae_tensor::rng::TensorRng;

    #[test]
    fn profile_counts_are_consistent() {
        let mut rng = TensorRng::seed_from(0);
        let teacher = Arch::ResNet18.build(3, 4, &mut rng);
        let images = rng.normal_tensor(&[6, 3, 8, 8], 0.0, 1.0);
        let labels = vec![0, 0, 1, 1, 2, 2];
        let p = confidence_profile(teacher.as_ref(), &images, &labels, 3, 0.5);
        assert_eq!(p.low_conf_fraction.len(), 3);
        for (&f, &m) in p.low_conf_fraction.iter().zip(&p.mean_max_prob) {
            assert!((0.0..=1.0).contains(&f));
            assert!((0.0..=1.0).contains(&m));
        }
        assert!(p.low_conf_spread() >= 0.0);
    }
}
