//! Paper Table V: NYUv2 transfer — semantic segmentation, depth estimation
//! and surface-normal prediction after data-free distillation on CIFAR-100
//! (sim).

use crate::config::ExperimentBudget;
use crate::experiments::{dense_split, distill, push_cell_row, scheduler, transfer_clone, Pair};
use crate::method::MethodSpec;
use crate::pipeline::run_data_accessible;
use crate::report::Report;
use crate::transfer::{transfer_evaluate, TaskSet, TransferMetrics};
use cae_data::dense::DensePreset;
use cae_data::presets::ClassificationPreset;
use cae_nn::models::Arch;

fn metrics_row(m: &TransferMetrics) -> Vec<f32> {
    vec![
        m.miou.unwrap_or(0.0) * 100.0,
        m.pacc.unwrap_or(0.0) * 100.0,
        m.abs_err.unwrap_or(0.0),
        m.rel_err.unwrap_or(0.0),
        m.normal_mean.unwrap_or(0.0),
        m.normal_median.unwrap_or(0.0),
        m.within_11.unwrap_or(0.0) * 100.0,
        m.within_22.unwrap_or(0.0) * 100.0,
        m.within_30.unwrap_or(0.0) * 100.0,
    ]
}

/// Runs the experiment.
pub fn run(budget: &ExperimentBudget) -> Report {
    let preset = ClassificationPreset::C100Sim;
    let pair = Pair::new(Arch::ResNet34, Arch::ResNet18);
    let (train, test) = dense_split(DensePreset::NyuSim, budget);
    let mut report = Report::new(
        "Table V",
        "NYUv2 (sim) transfer: seg / depth / normals after DFKD on CIFAR-100 (sim)",
        &[
            "mIoU", "pAcc", "AErr", "RErr", "NMean", "NMED", "11.25", "22.5", "30",
        ],
    );

    // Cells: each distills (or trains) a backbone and transfer-evaluates it
    // end to end, returning one metrics row.
    let specs = [MethodSpec::nayer_like(), MethodSpec::cae_dfkd(4)];
    let (train, test) = (&train, &test);
    let mut cells: Vec<scheduler::Cell<'_, Vec<f32>>> = vec![
        Box::new(move || {
            let (t_model, _) = run_data_accessible(preset, pair.teacher, budget);
            let m = transfer_evaluate(t_model, TaskSet::nyu(), train, test, budget.finetune_steps, 1);
            metrics_row(&m)
        }),
        Box::new(move || {
            let (s_model, _) = run_data_accessible(preset, pair.student, budget);
            let m = transfer_evaluate(s_model, TaskSet::nyu(), train, test, budget.finetune_steps, 2);
            metrics_row(&m)
        }),
    ];
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
                3,
            );
            metrics_row(&m)
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
    report.note("paper shape: CAE-DFKD > NAYER on every subtask, closing most of the gap to the data-accessible Student");
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
        assert_eq!(r.columns.len(), 9);
    }
}
