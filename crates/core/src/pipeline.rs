//! High-level experiment pipelines: pre-train a teacher, run DFKD with a
//! method, evaluate — the unit of work behind every table cell.

use crate::config::{DfkdConfig, ExperimentBudget};
use crate::method::MethodSpec;
use crate::metrics::classification::top1_accuracy;
use crate::teacher::pretrained;
use crate::trainer::{DfkdTrainer, TrainStats};
use cae_data::presets::ClassificationPreset;
use cae_nn::models::Arch;
use cae_nn::module::Classifier;
use cae_tensor::rng::TensorRng;

/// Result of one DFKD cell: the distilled student plus its evaluation.
pub struct DfkdRun {
    /// The distilled student network.
    pub student: Box<dyn Classifier>,
    /// Student top-1 accuracy on the preset's held-out set.
    pub student_top1: f32,
    /// Teacher top-1 accuracy (same split), for the table header rows.
    pub teacher_top1: f32,
    /// Training statistics (loss curves, epoch times).
    pub stats: TrainStats,
}

impl std::fmt::Debug for DfkdRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DfkdRun")
            .field("student_top1", &self.student_top1)
            .field("teacher_top1", &self.teacher_top1)
            .field("generator_loss_points", &self.stats.generator_losses.len())
            .field("student_loss_points", &self.stats.student_losses.len())
            .field("epochs", &self.stats.epoch_times.len())
            .field("mean_epoch_time", &self.stats.mean_epoch_time())
            .finish()
    }
}

/// Runs one full DFKD cell: pre-trains (or fetches the cached) teacher on
/// the preset, distills a fresh student data-free using `spec`, and
/// evaluates both on the held-out split.
pub fn run_dfkd(
    preset: ClassificationPreset,
    teacher_arch: Arch,
    student_arch: Arch,
    spec: &MethodSpec,
    budget: &ExperimentBudget,
    seed: u64,
) -> DfkdRun {
    let _sp = cae_trace::span_with("pipeline.run_dfkd", &[("seed", seed.into())]);
    let split = preset.generate(budget.seed);
    let config = DfkdConfig::default();
    let teacher = pretrained("teacher", teacher_arch, &split.train, budget, config.batch_size);
    let teacher_top1 = top1_accuracy(teacher.as_ref(), &split.test, 32);

    let mut rng = TensorRng::seed_from(seed ^ 0x57d4);
    let student = student_arch.build(preset.num_classes(), budget.base_width, &mut rng);
    let class_names = preset.class_names();
    let mut trainer = DfkdTrainer::new(
        teacher.as_ref(),
        student,
        &class_names,
        preset.resolution(),
        spec,
        config,
        budget,
        seed,
    );
    let stats = trainer.run(budget);
    let student = trainer.into_student();
    let student_top1 = {
        let _eval = cae_trace::span("pipeline.evaluate");
        top1_accuracy(student.as_ref(), &split.test, 32)
    };
    DfkdRun {
        student,
        student_top1,
        teacher_top1,
        stats,
    }
}

/// Trains the *data-accessible* reference student (the "Student" rows of
/// the paper's tables) and returns `(model, top-1)`.
pub fn run_data_accessible(
    preset: ClassificationPreset,
    arch: Arch,
    budget: &ExperimentBudget,
) -> (Box<dyn Classifier>, f32) {
    let split = preset.generate(budget.seed);
    // `pretrained` returns a private copy, so callers may fine-tune freely.
    let reference = pretrained("student-ref", arch, &split.train, budget, 16);
    let top1 = top1_accuracy(reference.as_ref(), &split.test, 32);
    (reference, top1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_dfkd_run_distills_above_chance() {
        let _guard = crate::trace_test_lock();
        let budget = ExperimentBudget::smoke();
        let run = run_dfkd(
            ClassificationPreset::C10Sim,
            Arch::ResNet34,
            Arch::ResNet18,
            &MethodSpec::cae_dfkd(3),
            &budget,
            11,
        );
        assert!(run.teacher_top1 > 0.15, "teacher {:.3}", run.teacher_top1);
        assert!(run.student_top1 >= 0.0 && run.student_top1 <= 1.0);
        assert!(!run.stats.student_losses.is_empty());
    }
}
