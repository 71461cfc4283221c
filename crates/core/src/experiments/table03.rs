//! Paper Table III: medium resolution (Tiny-ImageNet sim),
//! ResNet-34 → ResNet-18.

use crate::config::ExperimentBudget;
use crate::experiments::{distill, push_failure_rows, scheduler, Pair};
use crate::method::MethodSpec;
use crate::pipeline::run_data_accessible;
use crate::report::Report;
use cae_data::presets::ClassificationPreset;
use cae_nn::models::Arch;

/// Runs the experiment.
pub fn run(budget: &ExperimentBudget) -> Report {
    let preset = ClassificationPreset::TinyImageNetSim;
    let pair = Pair::new(Arch::ResNet34, Arch::ResNet18);
    let mut report = Report::new(
        "Table III",
        "Medium-resolution experiments (Tiny-ImageNet sim, ResNet-34→ResNet-18, top-1 %)",
        &["Top-1 Acc (%)"],
    );
    let specs = [
        MethodSpec::vanilla(),
        MethodSpec::cmi_like(),
        MethodSpec::nayer_like(),
        MethodSpec::cae_dfkd(4),
    ];
    // Cells: the two data-accessible references, then one per method.
    let mut cells: Vec<scheduler::Cell<'_, f32>> = vec![
        Box::new(move || run_data_accessible(preset, pair.teacher, budget).1),
        Box::new(move || run_data_accessible(preset, pair.student, budget).1),
    ];
    for spec in &specs {
        let idx = cells.len() as u64;
        cells.push(Box::new(move || {
            distill(preset, pair, spec, budget, idx).student_top1
        }));
    }
    let outcomes = scheduler::run_indexed_isolated(budget.seed, cells.len(), |i| cells[i]());
    let (accs, failures) = scheduler::split_failures(outcomes);
    report.push_row("Teacher", [accs[0].map(|a| a * 100.0)]);
    report.push_row("Student", [accs[1].map(|a| a * 100.0)]);
    for (spec, acc) in specs.iter().zip(&accs[2..]) {
        report.push_row(&spec.name, [acc.map(|a| a * 100.0)]);
    }
    push_failure_rows(&mut report, &failures);
    report.note("paper shape: CAE-DFKD > NAYER > CMI ≫ weaker baselines, approaching the data-accessible Student");
    report.note("rows PREKD/MBDFKD/MAD/KAKR/SpaceShipNet/KDCI are cited numbers and not re-implemented");
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
