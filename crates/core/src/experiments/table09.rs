//! Paper Table IX: CEND's convergence speedup.
//!
//! The paper reports wall-clock epoch time with and without CEND; the
//! underlying mechanism is that a "structured → structured" generator
//! converges in fewer updates. We measure end-to-end: the DFKD epochs the
//! full loop needs until the *student* reaches a fixed top-1 accuracy bar,
//! with and without CEND, and report the speedup as the epoch ratio. The
//! measurement is symmetric across methods (identical student pipeline and
//! quality bar), and epochs, unlike seconds, depend on the seed alone, so
//! the report is byte-reproducible at any thread count. A run that hits
//! `max_epochs` without reaching the bar is censored: it counts as
//! `max_epochs`, a lower bound, and the censored columns say how many of
//! the repetitions that was.

use crate::config::{DfkdConfig, ExperimentBudget};
use crate::experiments::{push_failure_rows, scheduler, Pair};
use crate::method::MethodSpec;
use crate::report::Report;
use crate::teacher::pretrained;
use crate::trainer::DfkdTrainer;
use cae_data::presets::ClassificationPreset;
use cae_nn::models::Arch;
use cae_tensor::rng::TensorRng;

/// Convergence measurement for one method on one pair: epochs until the
/// student reaches `target_top1` on the held-out split, and whether the
/// run was censored at `max_epochs` instead.
pub fn convergence_epochs(
    pair: Pair,
    spec: &MethodSpec,
    budget: &ExperimentBudget,
    target_top1: f32,
    max_epochs: usize,
) -> (usize, bool) {
    let preset = ClassificationPreset::C100Sim;
    let split = preset.generate(budget.seed);
    let config = DfkdConfig::default();
    let teacher = pretrained("teacher", pair.teacher, &split.train, budget, config.batch_size);
    let mut rng = TensorRng::seed_from(budget.seed ^ 0x909);
    let student = pair
        .student
        .build(preset.num_classes(), budget.base_width, &mut rng);
    let class_names = preset.class_names();
    let mut trainer = DfkdTrainer::new(
        teacher.as_ref(),
        student,
        &class_names,
        preset.resolution(),
        spec,
        config,
        budget,
        budget.seed,
    );
    let epoch_shape = (
        budget.generator_steps_per_epoch,
        budget.student_steps_per_epoch,
    );
    trainer.epochs_to_student_accuracy(target_top1, &split.test, epoch_shape, max_epochs)
}

/// Runs the experiment.
pub fn run(budget: &ExperimentBudget) -> Report {
    let mut report = Report::new(
        "Table IX",
        "DFKD convergence with vs without CEND (epochs for the student to reach the accuracy bar)",
        &[
            "w/o CEND epochs",
            "w/o CEND censored",
            "w/ CEND epochs",
            "w/ CEND censored",
            "SpeedUp ×",
        ],
    );
    // Accuracy bar: 3.5× chance on the 20-class C100 sim.
    let target = 3.5 / ClassificationPreset::C100Sim.num_classes() as f32;
    let max_epochs = (budget.dfkd_epochs * 3).max(6);
    // Single runs are noisy at this scale; average over a few repetitions,
    // each on its own cell-derived seed.
    const REPS: usize = 3;
    let pairs = [
        Pair::new(Arch::ResNet34, Arch::ResNet18),
        Pair::new(Arch::Wrn40x2, Arch::Wrn16x1),
    ];
    // One cell per (pair × repetition × {base, cend}).
    let mut plan = Vec::new();
    for (p, pair) in pairs.iter().enumerate() {
        for rep in 0..REPS {
            let seeded = ExperimentBudget {
                seed: scheduler::cell_seed(budget.seed, (p * REPS + rep) as u64),
                ..*budget
            };
            plan.push((*pair, seeded, false));
            plan.push((*pair, seeded, true));
        }
    }
    let isolated = scheduler::run_indexed_isolated(budget.seed, plan.len(), |i| {
        let (pair, seeded, with_cend) = &plan[i];
        let spec = if *with_cend {
            MethodSpec::cend_only(4)
        } else {
            MethodSpec::vanilla().named("CAE-DFKD w/o CEND")
        };
        convergence_epochs(*pair, &spec, seeded, target, max_epochs)
    });
    let (outcomes, failures) = scheduler::split_failures(isolated);
    for (p, pair) in pairs.iter().enumerate() {
        // Averages need every repetition of both arms; if any cell of this
        // pair failed, the whole row is marked unavailable (the trailing
        // FAILED rows carry the reasons) rather than averaging a biased
        // subset.
        let slots = &outcomes[p * REPS * 2..(p + 1) * REPS * 2];
        if slots.iter().any(Option::is_none) {
            report.push_row(&pair.label(), vec![None; 5]);
            continue;
        }
        // [epochs, censored] summed over repetitions, base then CEND arm.
        let mut acc = [[0.0f32; 2]; 2];
        for (i, slot) in slots.iter().enumerate() {
            let (epochs, censored) = slot.expect("checked above");
            acc[i % 2][0] += epochs as f32;
            acc[i % 2][1] += f32::from(u8::from(censored));
        }
        let n = REPS as f32;
        let [[base_epochs, base_censored], [cend_epochs, cend_censored]] = acc;
        let (base_epochs, cend_epochs) = (base_epochs / n, cend_epochs / n);
        report.push_row(
            &pair.label(),
            [
                base_epochs,
                base_censored,
                cend_epochs,
                cend_censored,
                base_epochs / cend_epochs,
            ],
        );
    }
    push_failure_rows(&mut report, &failures);
    report.note("paper shape: w/ CEND converges faster (paper: 1.37×/1.71× epoch-time speedup)");
    report.note(&format!(
        "epochs are means over {REPS} seeds; censored = repetitions that hit {max_epochs} \
         epochs without reaching the bar (counted as {max_epochs}, so a censored arm bounds \
         the speedup instead of measuring it)"
    ));
    report.note(&format!("budget: {budget:?}"));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "minutes at smoke budget; exercised by the bench harness"]
    fn smoke_rows() {
        let r = run(&ExperimentBudget::smoke());
        assert_eq!(r.rows.len(), 2);
    }
}
