//! The `table02` workload: `run_by_id("table02", …)` at the smoke budget,
//! with the run's seed as the budget seed.

use crate::record::Outcome;
use crate::stats::median;
use crate::sys::{cpu_seconds, peak_rss_mb};
use cae_core::experiments::{run_by_id, ExperimentError};
use cae_core::{teacher, ExperimentBudget, Report};
use cae_data::presets::ClassificationPreset;
use std::time::Instant;

/// 20 supervised pretrains (teacher and student per dataset x pair) plus
/// 50 DFKD runs (five methods x two datasets x five pairs).
pub const CELLS: u64 = 70;
/// The smoke budget's own seed; its report is checked byte for byte.
pub const REFERENCE_SEED: u64 = 7;
/// The seed-7 report, recorded at the parent commit.
pub const REFERENCE: &str = include_str!("../reference/table02_seed7.json");
const SETUP_REPEATS: usize = 9;
/// Seconds of `--seconds` per regeneration (one takes about 20 s on the
/// reference host): the count depends on `--seconds` alone, never on how
/// fast the host happens to be.
const SECONDS_PER_REGENERATION: f64 = 20.0;

pub fn budget(seed: u64) -> ExperimentBudget {
    ExperimentBudget { seed, ..ExperimentBudget::smoke() }
}

/// Synthesizes the two datasets the table's cells train on (the data layer
/// every cell starts from), `SETUP_REPEATS` times; the median, seconds.
pub fn setup(seed: u64) -> f64 {
    let times: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            let t = Instant::now();
            for preset in [ClassificationPreset::C100Sim, ClassificationPreset::C10Sim] {
                std::hint::black_box(preset.generate(seed));
            }
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// One table regeneration from a cold teacher cache.
pub struct Regeneration {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub report: Result<Report, ExperimentError>,
}

pub fn regenerate(seed: u64) -> Regeneration {
    teacher::clear_cache();
    let cpu0 = cpu_seconds();
    let t = Instant::now();
    let report = run_by_id("table02", &budget(seed)).expect("table02 is registered");
    Regeneration { wall_s: t.elapsed().as_secs_f64(), cpu_s: cpu_seconds() - cpu0, report }
}

/// `(attempted, failed)` for one report: each of the 70 cells, plus the
/// report as a whole — byte-identical to [`REFERENCE`] at the reference
/// seed, seven rows by ten columns with no `FAILED` row otherwise.
pub fn check(report: &Result<Report, ExperimentError>, reference: Option<&str>) -> (u64, u64) {
    let attempted = CELLS + 1;
    let Ok(report) = report else {
        return (attempted, attempted);
    };
    let failed_rows = report.rows.iter().filter(|r| r.label.starts_with("FAILED(")).count() as u64;
    let present = report
        .rows
        .iter()
        .filter(|r| !r.label.starts_with("FAILED("))
        .flat_map(|r| &r.values)
        .filter(|v| v.is_some())
        .count() as u64;
    let failed_cells = CELLS.saturating_sub(present).max(failed_rows);
    let whole_ok = match reference {
        Some(expected) => report.to_json().trim_end() == expected.trim_end(),
        None => failed_rows == 0 && report.rows.len() == 7 && report.columns.len() == 10,
    };
    (attempted, failed_cells + u64::from(!whole_ok))
}

/// The reference to hold a report of `seed` to, if it has one.
pub fn reference_for(seed: u64) -> Option<&'static str> {
    (seed == REFERENCE_SEED).then_some(REFERENCE)
}

/// Regenerates the table `round(seconds / 20)` times (at least once; a
/// regeneration cannot be cut); end-to-end metrics over all of them.
pub fn timed_run(seed: u64, seconds: f64) -> Outcome {
    let setup_s = setup(seed);
    let count = (seconds / SECONDS_PER_REGENERATION).round().max(1.0) as usize;
    let runs: Vec<Regeneration> = (0..count).map(|_| regenerate(seed)).collect();
    let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    eprintln!("table02: {} regeneration(s), walls {walls:?}", runs.len());
    end_to_end(setup_s, &runs, reference_for(seed))
}

/// The end-to-end metrics over a run's regenerations.
pub fn end_to_end(setup_s: f64, runs: &[Regeneration], reference: Option<&str>) -> Outcome {
    let mut out = Outcome::default();
    for r in runs {
        let (a, f) = check(&r.report, reference);
        out.attempted += a;
        out.failed += f;
    }
    let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    let total_wall: f64 = walls.iter().sum();
    let total_cpu: f64 = runs.iter().map(|r| r.cpu_s).sum();
    let good_cells = (CELLS * runs.len() as u64).saturating_sub(out.failed) as f64;
    out.push("setup_s", setup_s, "s");
    out.push("wall_s", median(&walls), "s");
    out.push("cpu_s", median(&runs.iter().map(|r| r.cpu_s).collect::<Vec<f64>>()), "s");
    out.push("peak_rss_mb", peak_rss_mb(), "MiB");
    // Every cell's answer arrives with the report, so a cell's latency is
    // its regeneration's.
    out.push("latency_p50_ms", median(&walls) * 1e3, "ms");
    out.push("goodput_rps", good_cells / total_wall, "req/s");
    out.push("cpu_us_per_req", total_cpu * 1e6 / (CELLS * runs.len() as u64) as f64, "us");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_report() -> Report {
        let cols: Vec<String> = (0..10).map(|i| format!("c{i}")).collect();
        let refs: Vec<&str> = cols.iter().map(String::as_str).collect();
        let mut r = Report::new("Table II", "test", &refs);
        for row in 0..7 {
            r.push_row(&format!("row{row}"), (0..10).map(|c| Some((row * 10 + c) as f32)).collect::<Vec<_>>());
        }
        r
    }

    #[test]
    fn a_complete_report_passes_its_own_reference() {
        let report = Ok(full_report());
        let json = full_report().to_json();
        assert_eq!(check(&report, Some(&json)), (71, 0));
        assert_eq!(check(&report, None), (71, 0));
    }

    #[test]
    fn a_corrupted_reference_or_a_failed_cell_is_a_failure() {
        let report = Ok(full_report());
        let corrupted = full_report().to_json().replacen("12", "13", 1);
        let (attempted, failed) = check(&report, Some(&corrupted));
        assert_eq!((attempted, failed), (71, 1));
        let mut broken = full_report();
        broken.rows[3].values[4] = None;
        broken.push_row("FAILED(cell 34 seed 0x1: boom)", vec![None; 10]);
        assert_eq!(check(&Ok(broken), None), (71, 2));
        let err = Err(ExperimentError { id: "table02", message: "boom".into(), health: None });
        assert_eq!(check(&err, None), (71, 71));
    }

    #[test]
    fn end_to_end_reports_the_declared_metrics() {
        let run = |wall_s| Regeneration { wall_s, cpu_s: 2.0 * wall_s, report: Ok(full_report()) };
        let out = end_to_end(0.1, &[run(20.0), run(22.0)], None);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, crate::record::END_TO_END);
        assert_eq!((out.attempted, out.failed), (142, 0));
        assert_eq!(out.metrics[1].value, 21.0, "wall_s is the median regeneration");
    }
}
