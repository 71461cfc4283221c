//! Paper Table IV: large resolution (ImageNet-1K sim),
//! ResNet-50 → ResNet-50.

use crate::config::ExperimentBudget;
use crate::experiments::{distill, push_failure_rows, scheduler, Pair};
use crate::method::MethodSpec;
use crate::pipeline::run_data_accessible;
use crate::report::Report;
use cae_data::presets::ClassificationPreset;
use cae_nn::models::Arch;

/// Runs the experiment.
pub fn run(budget: &ExperimentBudget) -> Report {
    let preset = ClassificationPreset::ImageNetSim;
    let pair = Pair::new(Arch::ResNet50, Arch::ResNet50);
    let mut report = Report::new(
        "Table IV",
        "Large-resolution experiments (ImageNet-1K sim, ResNet-50→ResNet-50, top-1 %)",
        &["Top-1 Acc (%)"],
    );
    let specs = [
        MethodSpec::vanilla().named("FM-like (vanilla fast DFKD)"),
        MethodSpec::deepinv_like(),
        MethodSpec::nayer_like(),
        MethodSpec::cae_dfkd(4),
    ];
    // Cells: the teacher reference, then one per method.
    let mut cells: Vec<scheduler::Cell<'_, f32>> =
        vec![Box::new(move || run_data_accessible(preset, pair.teacher, budget).1)];
    for spec in &specs {
        let idx = cells.len() as u64;
        cells.push(Box::new(move || {
            distill(preset, pair, spec, budget, idx).student_top1
        }));
    }
    let outcomes = scheduler::run_indexed_isolated(budget.seed, cells.len(), |i| cells[i]());
    let (accs, failures) = scheduler::split_failures(outcomes);
    report.push_row("Teacher", [accs[0].map(|a| a * 100.0)]);
    report.push_row("Student", [accs[0].map(|a| a * 100.0)]); // same architecture/pipeline as teacher
    for (spec, acc) in specs.iter().zip(&accs[1..]) {
        report.push_row(&spec.name, [acc.map(|a| a * 100.0)]);
    }
    push_failure_rows(&mut report, &failures);
    report.note("paper shape: CAE-DFKD > NAYER > DeepInv > FM; all below the data-accessible reference");
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
        assert_eq!(r.rows.len(), 6);
    }
}
