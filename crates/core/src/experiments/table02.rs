//! Paper Table II: small-resolution main results — five teacher→student
//! pairs on CIFAR-10 (sim) and CIFAR-100 (sim) across methods.
//!
//! Rows we re-implement on our substrate: the data-accessible Teacher and
//! Student references, vanilla generator DFKD (the DAFL/ZSKT/DFQ family),
//! DeepInversion-like optimization-based inversion, CMI-like, NAYER-like
//! and CAE-DFKD. Rows of Table II that are *cited numbers from other
//! papers* (SpaceShipNet, SSD-KD, KDCI, CCL-D) are not reproducible without
//! their code and are noted instead.

use crate::config::ExperimentBudget;
use crate::experiments::{distill, push_failure_rows, scheduler, table2_pairs};
use crate::method::MethodSpec;
use crate::pipeline::run_data_accessible;
use crate::report::Report;
use cae_data::presets::ClassificationPreset;

/// Runs the experiment.
pub fn run(budget: &ExperimentBudget) -> Report {
    let datasets = [ClassificationPreset::C100Sim, ClassificationPreset::C10Sim];
    let pairs = table2_pairs();
    let columns: Vec<String> = datasets
        .iter()
        .flat_map(|d| {
            pairs.iter().map(move |p| {
                format!(
                    "{} {}",
                    if *d == ClassificationPreset::C100Sim { "C100" } else { "C10" },
                    p.label()
                )
            })
        })
        .collect();
    let col_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut report = Report::new(
        "Table II",
        "Small-resolution experiments (top-1 %, CIFAR-10/100 sims)",
        &col_refs,
    );

    let methods = [
        MethodSpec::vanilla(),
        MethodSpec::deepinv_like(),
        MethodSpec::cmi_like(),
        MethodSpec::nayer_like(),
        MethodSpec::cae_dfkd(4),
    ];

    // One flat cell list: reference cells (teacher then student per
    // dataset×pair) followed by one method cell per (method × dataset ×
    // pair). Each cell returns one top-1 accuracy; the scheduler preserves
    // cell order, so rows are assembled by slicing the result vector. Cells
    // run isolated: a failed cell leaves a `-` in its column (plus a
    // trailing FAILED row naming the cause) instead of aborting the table.
    let mut cells: Vec<scheduler::Cell<'_, f32>> = Vec::new();
    for &dataset in &datasets {
        for pair in &pairs {
            let (t, s) = (pair.teacher, pair.student);
            cells.push(Box::new(move || run_data_accessible(dataset, t, budget).1));
            cells.push(Box::new(move || run_data_accessible(dataset, s, budget).1));
        }
    }
    let ref_cells = cells.len();
    for spec in &methods {
        for &dataset in &datasets {
            for pair in &pairs {
                let pair = *pair;
                let idx = cells.len() as u64;
                cells.push(Box::new(move || {
                    distill(dataset, pair, spec, budget, idx).student_top1
                }));
            }
        }
    }
    let outcomes = scheduler::run_indexed_isolated(budget.seed, cells.len(), |i| cells[i]());
    let (accs, failures) = scheduler::split_failures(outcomes);

    let mut teacher_row = Vec::new();
    let mut student_row = Vec::new();
    for chunk in accs[..ref_cells].chunks_exact(2) {
        teacher_row.push(chunk[0].map(|a| a * 100.0));
        student_row.push(chunk[1].map(|a| a * 100.0));
    }
    report.push_row("Teacher", teacher_row);
    report.push_row("Student", student_row);

    let cols = datasets.len() * pairs.len();
    for (m, spec) in methods.iter().enumerate() {
        let start = ref_cells + m * cols;
        let row: Vec<Option<f32>> = accs[start..start + cols]
            .iter()
            .map(|a| a.map(|a| a * 100.0))
            .collect();
        report.push_row(&spec.name, row);
    }
    push_failure_rows(&mut report, &failures);
    report.note("paper shape: CAE-DFKD ≥ NAYER ≥ CMI ≥ vanilla/DeepInv across pairs; close to data-accessible Student");
    report.note("rows SpaceShipNet/SSD-KD/KDCI/CCL-D are cited numbers in the paper and are not re-implemented");
    report.note(&format!("budget: {budget:?}"));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "several minutes even at smoke budget; exercised by the bench harness"]
    fn smoke_table_has_all_rows() {
        let r = run(&ExperimentBudget::smoke());
        assert_eq!(r.rows.len(), 7);
        assert_eq!(r.columns.len(), 10);
    }

    #[test]
    #[ignore = "runs the fast budget twice (serial then parallel); minutes of wall-clock"]
    fn serial_and_parallel_runs_emit_identical_json() {
        // Per-cell seeds make every cell's RNG stream a function of
        // (budget.seed, cell_index) only, so thread count and execution
        // order must not change a single byte of the report.
        let budget = ExperimentBudget::fast();
        crate::experiments::scheduler::force_cell_parallelism(Some(false));
        let serial = run(&budget).to_json();
        crate::experiments::scheduler::force_cell_parallelism(Some(true));
        let parallel = run(&budget).to_json();
        crate::experiments::scheduler::force_cell_parallelism(None);
        assert_eq!(serial, parallel, "table02 report depends on cell scheduling");
    }
}
