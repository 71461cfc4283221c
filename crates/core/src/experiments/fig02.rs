//! Paper Figure 2: quality differences in synthetic images.
//!
//! (a) The proportion of low-confidence (teacher max-prob ≤ 0.1·K-adjusted
//! threshold) synthetic images varies strongly across categories under
//! vanilla DFKD — evidence of category-imbalanced synthesis quality.
//! (b/c) Numeric proxy for the qualitative panels: mean teacher max-prob of
//! synthetic images before and after image-level augmentation — the
//! augmentation makes ambiguous images *more* ambiguous.

use crate::baselines::augment::two_views;
use crate::config::{DfkdConfig, ExperimentBudget};
use crate::experiments::scheduler;
use crate::method::MethodSpec;
use crate::metrics::confidence::confidence_profile;
use crate::report::Report;
use crate::teacher::pretrained;
use crate::trainer::DfkdTrainer;
use cae_data::presets::ClassificationPreset;
use cae_nn::models::Arch;
use cae_tensor::rng::TensorRng;

/// Runs the experiment.
pub fn run(budget: &ExperimentBudget) -> Report {
    let preset = ClassificationPreset::C100Sim;
    let split = preset.generate(budget.seed);
    let config = DfkdConfig::default();
    let teacher = pretrained("teacher", Arch::ResNet34, &split.train, budget, config.batch_size);

    // Train a vanilla DFKD generator briefly and harvest its memory bank.
    // This figure is one monolithic cell (a single trainer), so it derives
    // the cell-0 seed directly instead of fanning out.
    let seed = scheduler::cell_seed(budget.seed, 0);
    let mut rng = TensorRng::seed_from(seed ^ 0xf19);
    let student = Arch::ResNet18.build(preset.num_classes(), budget.base_width, &mut rng);
    let class_names = preset.class_names();
    let spec = MethodSpec::vanilla();
    let mut trainer = DfkdTrainer::new(
        teacher.as_ref(),
        student,
        &class_names,
        preset.resolution(),
        &spec,
        config,
        budget,
        seed,
    );
    for _ in 0..budget.total_generator_steps().max(8) {
        trainer.generator_step();
    }
    let (images, labels) = trainer
        .memory()
        .sample_batch(256.min(trainer.memory().len()), &mut rng);

    // Low-confidence threshold: the paper uses 0.1 on 100 classes (10×
    // chance); scale the same factor to our class count.
    let threshold = (10.0 / preset.num_classes() as f32).min(0.95);
    let profile = confidence_profile(
        teacher.as_ref(),
        &images,
        &labels,
        preset.num_classes(),
        threshold,
    );

    let mut report = Report::new(
        "Figure 2",
        "Per-category low-confidence proportion of vanilla-DFKD synthetic images (a); augmentation ambiguity proxy (b/c)",
        &["low-conf frac", "mean max-prob"],
    );
    for (k, name) in class_names.iter().enumerate() {
        report.push_row(
            name,
            [profile.low_conf_fraction[k], profile.mean_max_prob[k]],
        );
    }
    report.push_row(
        "[spread across categories]",
        [profile.low_conf_spread(), profile.mean_low_conf()],
    );

    // Fig. 2c proxy: augmentation lowers teacher confidence.
    let (aug, _) = two_views(&images, &mut rng);
    let aug_profile = confidence_profile(
        teacher.as_ref(),
        &aug,
        &labels,
        preset.num_classes(),
        threshold,
    );
    let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len().max(1) as f32;
    report.push_row(
        "[mean max-prob: raw vs augmented]",
        [mean(&profile.mean_max_prob), mean(&aug_profile.mean_max_prob)],
    );
    report.note("paper shape: low-conf fraction differs strongly across categories (a); augmentation reduces confidence (c)");
    report.note(&format!("budget: {budget:?}"));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_has_one_row_per_category_plus_summaries() {
        let _guard = crate::trace_test_lock();
        let b = ExperimentBudget::smoke();
        let r = run(&b);
        assert_eq!(
            r.rows.len(),
            ClassificationPreset::C100Sim.num_classes() + 2
        );
    }
}
