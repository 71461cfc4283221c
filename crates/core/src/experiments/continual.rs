//! Extension experiment (paper Fig. 1c taken literally): continual transfer
//! of one data-free-distilled backbone across a *sequence* of downstream
//! tasks, reporting per-stage performance and end-of-sequence forgetting.

use crate::config::ExperimentBudget;
use crate::continual::continual_transfer;
use crate::method::MethodSpec;
use crate::pipeline::run_dfkd;
use crate::report::Report;
use crate::teacher::clone_classifier;
use crate::transfer::TaskSet;
use cae_data::dense::DensePreset;
use cae_data::presets::ClassificationPreset;
use cae_nn::models::Arch;

/// Runs the continual-transfer extension. The distillation seed (42) and
/// the dense-task seeds (11, 12) are fixed rather than derived from
/// `budget.seed`, so the report does not move with the budget's seed.
pub fn run(budget: &ExperimentBudget) -> Report {
    let preset = ClassificationPreset::C100Sim;
    let mut report = Report::new(
        "Continual",
        "Sequential downstream transfer (extension): per-stage pAcc and forgetting",
        &["pAcc after stage", "pAcc final", "forgetting"],
    );

    for spec in [MethodSpec::vanilla(), MethodSpec::cae_dfkd(4)] {
        let run = run_dfkd(preset, Arch::ResNet34, Arch::ResNet18, &spec, budget, 42);
        let backbone = clone_classifier(
            run.student.as_ref(),
            Arch::ResNet18,
            preset.num_classes(),
            budget.base_width,
        );
        let (t1, e1) = DensePreset::NyuSim.generate(64, 16, 11);
        let (t2, e2) = DensePreset::AdeSim.generate(64, 16, 12);
        let stages = vec![
            ("NYUv2 (sim)".to_owned(), TaskSet::seg_only(), t1, e1),
            ("ADE-20K (sim)".to_owned(), TaskSet::seg_only(), t2, e2),
        ];
        let outcome = continual_transfer(backbone, stages, budget.finetune_steps, 5);
        for stage in outcome {
            report.push_row(
                &format!("{} / {}", spec.name, stage.name),
                [
                    stage.after_training.pacc.unwrap_or(0.0) * 100.0,
                    stage.final_metrics.pacc.unwrap_or(0.0) * 100.0,
                    stage.pacc_forgetting().unwrap_or(0.0) * 100.0,
                ],
            );
        }
    }
    report.note("extension beyond the paper: does CAE-DFKD's domain-invariant representation also forget less?");
    report
}
