//! Top-1 classification accuracy.

use cae_data::dataset::Dataset;
use cae_nn::infer::{FreezeOptions, FrozenClassifier};
use cae_nn::module::Classifier;

/// Evaluates top-1 accuracy of `model` on `dataset` (evaluation mode,
/// batched): the model is compiled into one fused frozen forward for the
/// whole sweep (it does not change between batches).
pub fn top1_accuracy(model: &dyn Classifier, dataset: &Dataset, batch_size: usize) -> f32 {
    frozen_top1_accuracy(&model.freeze_with(&FreezeOptions::fused()), dataset, batch_size)
}

/// Evaluates top-1 accuracy of an already-frozen classifier on `dataset`
/// (batched). Used where the caller owns the frozen compilation — e.g. the
/// serve bench comparing one student's f32 and int8 freezes on the same
/// eval set.
pub fn frozen_top1_accuracy(frozen: &FrozenClassifier, dataset: &Dataset, batch_size: usize) -> f32 {
    let mut correct = 0usize;
    let n = dataset.len();
    let mut start = 0usize;
    while start < n {
        let len = batch_size.min(n - start);
        let indices: Vec<usize> = (start..start + len).collect();
        let (x, y) = dataset.batch(&indices);
        let pred = frozen.forward(&x).argmax_rows();
        correct += pred.iter().zip(&y).filter(|(p, t)| p == t).count();
        start += len;
    }
    correct as f32 / n.max(1) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use cae_data::world::VisionWorld;
    use cae_data::SplitDataset;
    use cae_nn::models::Arch;
    use cae_tensor::rng::TensorRng;

    #[test]
    fn untrained_model_is_near_chance() {
        let world = VisionWorld::new(5, 8, 1);
        let split = SplitDataset::sample(&world, 8, 10, 0);
        let mut rng = TensorRng::seed_from(0);
        let model = Arch::ResNet18.build(5, 4, &mut rng);
        let acc = top1_accuracy(model.as_ref(), &split.test, 16);
        assert!((0.0..=0.7).contains(&acc), "accuracy {acc}");
    }
}
