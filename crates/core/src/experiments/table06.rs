//! Paper Table VI: ADE-20K segmentation and COCO-2017 detection transfer
//! after data-free distillation on CIFAR-100 (sim).

use crate::config::ExperimentBudget;
use crate::experiments::{dense_split, distill, push_cell_row, scheduler, Pair};
use crate::method::MethodSpec;
use crate::pipeline::run_data_accessible;
use crate::report::Report;
use crate::teacher::clone_classifier;
use crate::transfer::{transfer_evaluate, TaskSet, TransferMetrics};
use cae_data::dense::DensePreset;
use cae_data::presets::ClassificationPreset;
use cae_nn::models::Arch;
use cae_nn::module::Classifier;

fn row(ade: &TransferMetrics, coco: &TransferMetrics) -> Vec<f32> {
    vec![
        ade.pacc.unwrap_or(0.0) * 100.0,
        ade.miou.unwrap_or(0.0) * 100.0,
        coco.map.unwrap_or(0.0) * 100.0,
        coco.map50.unwrap_or(0.0) * 100.0,
        coco.map75.unwrap_or(0.0) * 100.0,
        coco.map_small.unwrap_or(0.0) * 100.0,
        coco.map_medium.unwrap_or(0.0) * 100.0,
        coco.map_large.unwrap_or(0.0) * 100.0,
    ]
}

/// Runs the experiment.
pub fn run(budget: &ExperimentBudget) -> Report {
    let preset = ClassificationPreset::C100Sim;
    let pair = Pair::new(Arch::ResNet34, Arch::ResNet18);
    let (ade_train, ade_test) = dense_split(DensePreset::AdeSim, budget);
    let (coco_train, coco_test) = dense_split(DensePreset::CocoSim, budget);
    let mut report = Report::new(
        "Table VI",
        "ADE-20K (sim) segmentation + COCO-2017 (sim) detection transfer",
        &[
            "pAcc", "mIoU", "mAP", "mAP50", "mAP75", "mAPs", "mAPm", "mAPl",
        ],
    );

    let (ade_train, ade_test) = (&ade_train, &ade_test);
    let (coco_train, coco_test) = (&coco_train, &coco_test);
    let eval_both = move |backbone: &dyn Classifier, arch: Arch, seed: u64| {
        let ade_bb = clone_classifier(backbone, arch, preset.num_classes(), budget.base_width);
        let ade = transfer_evaluate(
            ade_bb,
            TaskSet::seg_only(),
            ade_train,
            ade_test,
            budget.finetune_steps,
            seed,
        );
        let coco_bb = clone_classifier(backbone, arch, preset.num_classes(), budget.base_width);
        let coco = transfer_evaluate(
            coco_bb,
            TaskSet::detection_only(),
            coco_train,
            coco_test,
            budget.finetune_steps,
            seed ^ 0xc0c0,
        );
        row(&ade, &coco)
    };

    // Cells: the two references plus one per method; each produces one row.
    let specs = [MethodSpec::cmi_like(), MethodSpec::cae_dfkd(4)];
    let eval_both = &eval_both;
    let mut cells: Vec<scheduler::Cell<'_, Vec<f32>>> = vec![
        Box::new(move || {
            let (t_model, _) = run_data_accessible(preset, pair.teacher, budget);
            eval_both(t_model.as_ref(), pair.teacher, 1)
        }),
        Box::new(move || {
            let (s_model, _) = run_data_accessible(preset, pair.student, budget);
            eval_both(s_model.as_ref(), pair.student, 2)
        }),
    ];
    for spec in &specs {
        let idx = cells.len() as u64;
        cells.push(Box::new(move || {
            let run = distill(preset, pair, spec, budget, idx);
            eval_both(run.student.as_ref(), pair.student, 3)
        }));
    }
    let rows = scheduler::run_indexed_isolated(budget.seed, cells.len(), |i| cells[i]());
    let labels: Vec<&str> = ["Teacher", "Student"]
        .into_iter()
        .chain(specs.iter().map(|s| s.name.as_str()))
        .collect();
    for (label, outcome) in labels.into_iter().zip(rows) {
        push_cell_row(&mut report, label, outcome);
    }
    report.note("paper shape: CAE-DFKD > CMI on both datasets; beats the data-accessible Student on mAP_s/mAP_m");
    report.note("row SpaceShipNet is a cited number and not re-implemented");
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
        assert_eq!(r.rows.len(), 4);
        assert_eq!(r.columns.len(), 8);
    }
}
