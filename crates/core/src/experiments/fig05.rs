//! Paper Figure 5: downstream qualitative comparison.
//!
//! The paper visualizes depth and segmentation predictions; the numeric
//! proxy here is the per-pixel error summary of each method's predictions
//! on the same held-out NYUv2 (sim) images: segmentation error rate
//! (1 − pAcc) and depth absolute error. Lower is better, and the ordering
//! mirrors the visual quality ordering in the figure.

use crate::config::ExperimentBudget;
use crate::experiments::{dense_split, distill, push_cell_row, scheduler, transfer_clone, Pair};
use crate::method::MethodSpec;
use crate::pipeline::run_data_accessible;
use crate::report::Report;
use crate::transfer::{transfer_evaluate, TaskSet};
use cae_data::dense::DensePreset;
use cae_data::presets::ClassificationPreset;
use cae_nn::models::Arch;

/// Runs the experiment.
pub fn run(budget: &ExperimentBudget) -> Report {
    let preset = ClassificationPreset::C100Sim;
    let pair = Pair::new(Arch::ResNet34, Arch::ResNet18);
    let (train, test) = dense_split(DensePreset::NyuSim, budget);
    let mut report = Report::new(
        "Figure 5",
        "Downstream error-map summary (seg error rate, depth abs error)",
        &["seg err", "depth AErr"],
    );

    // Cells: the data-accessible reference plus one per method.
    let specs = [
        MethodSpec::vanilla().with_image_contrastive(1.0).named("Image-level CL"),
        MethodSpec::cae_dfkd(4).named("CAE-DFKD (embedding-level)"),
    ];
    let (train, test) = (&train, &test);
    let mut cells: Vec<scheduler::Cell<'_, [f32; 2]>> = vec![Box::new(move || {
        let (s_model, _) = run_data_accessible(preset, pair.student, budget);
        let m = transfer_evaluate(s_model, TaskSet::nyu(), train, test, budget.finetune_steps, 5);
        [1.0 - m.pacc.unwrap_or(0.0), m.abs_err.unwrap_or(0.0)]
    })];
    for spec in &specs {
        let idx = cells.len() as u64;
        cells.push(Box::new(move || {
            let run = distill(preset, pair, spec, budget, idx);
            let m = transfer_clone(
                run.student.as_ref(),
                pair.student,
                preset.num_classes(),
                budget,
                TaskSet::nyu(),
                train,
                test,
                6,
            );
            [1.0 - m.pacc.unwrap_or(0.0), m.abs_err.unwrap_or(0.0)]
        }));
    }
    let rows = scheduler::run_indexed_isolated(budget.seed, cells.len(), |i| cells[i]());
    let labels: Vec<&str> = std::iter::once("Student (data-accessible)")
        .chain(specs.iter().map(|s| s.name.as_str()))
        .collect();
    for (label, outcome) in labels.into_iter().zip(rows) {
        push_cell_row(&mut report, label, outcome);
    }
    report.note("paper shape: embedding-level (CAE-DFKD) error maps are cleaner than image-level contrastive");
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
        assert_eq!(r.rows.len(), 3);
    }
}
