//! One runner per paper table/figure. Every runner takes an
//! [`ExperimentBudget`] and returns a [`Report`] with the same rows/columns
//! (modulo the substitutions documented in DESIGN.md) as the paper.

pub mod ablations;
pub mod continual;
pub mod fig02;
pub mod fig05;
pub mod scheduler;
pub mod table01;
pub mod table02;
pub mod table03;
pub mod table04;
pub mod table05;
pub mod table06;
pub mod table07;
pub mod table08;
pub mod table09;
pub mod table10;
pub mod table11;

use crate::config::ExperimentBudget;
use crate::method::MethodSpec;
use crate::pipeline::{run_dfkd, DfkdRun};
use crate::report::{IntoRowValues, Report};
use crate::teacher::clone_classifier;
use scheduler::CellError;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use crate::transfer::{transfer_evaluate, TaskSet, TransferMetrics};
use cae_data::dense::{DenseDataset, DensePreset};
use cae_data::presets::ClassificationPreset;
use cae_nn::models::Arch;
use cae_nn::module::Classifier;

/// A teacher→student architecture pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pair {
    /// Teacher architecture.
    pub teacher: Arch,
    /// Student architecture.
    pub student: Arch,
}

impl Pair {
    /// Creates a pair.
    pub fn new(teacher: Arch, student: Arch) -> Self {
        Pair { teacher, student }
    }

    /// Display label ("ResNet-34→ResNet-18").
    pub fn label(&self) -> String {
        format!("{}→{}", self.teacher.name(), self.student.name())
    }
}

/// The five small-resolution pairs of paper Table II.
pub fn table2_pairs() -> Vec<Pair> {
    vec![
        Pair::new(Arch::ResNet34, Arch::ResNet18),
        Pair::new(Arch::Vgg11, Arch::ResNet18),
        Pair::new(Arch::Wrn40x2, Arch::Wrn16x1),
        Pair::new(Arch::Wrn40x2, Arch::Wrn40x1),
        Pair::new(Arch::Wrn40x2, Arch::Wrn16x2),
    ]
}

/// Distills one cell (convenience wrapper around [`run_dfkd`]).
///
/// `cell_index` is the cell's position within its runner; the run's RNG
/// seed is derived as [`scheduler::cell_seed`]`(budget.seed, cell_index)`
/// so every cell of a table gets an independent stream and results do not
/// depend on execution order or thread count.
pub fn distill(
    preset: ClassificationPreset,
    pair: Pair,
    spec: &MethodSpec,
    budget: &ExperimentBudget,
    cell_index: u64,
) -> DfkdRun {
    let seed = scheduler::cell_seed(budget.seed, cell_index);
    run_dfkd(preset, pair.teacher, pair.student, spec, budget, seed)
}

/// Dense dataset sizes scaled by budget.
pub fn dense_sizes(budget: &ExperimentBudget) -> (usize, usize) {
    if budget.finetune_steps >= 200 {
        (160, 40)
    } else if budget.finetune_steps >= 80 {
        (96, 24)
    } else {
        (24, 8)
    }
}

/// Generates the dense train/test split for a preset under a budget.
pub fn dense_split(preset: DensePreset, budget: &ExperimentBudget) -> (DenseDataset, DenseDataset) {
    let (tr, te) = dense_sizes(budget);
    preset.generate(tr, te, budget.seed ^ 0xd53e)
}

/// Clones a distilled backbone (so one student can be fine-tuned on several
/// tasks) and transfer-evaluates it.
#[allow(clippy::too_many_arguments)]
pub fn transfer_clone(
    student: &dyn Classifier,
    arch: Arch,
    num_classes: usize,
    budget: &ExperimentBudget,
    tasks: TaskSet,
    train: &DenseDataset,
    test: &DenseDataset,
    seed: u64,
) -> TransferMetrics {
    let backbone = clone_classifier(student, arch, num_classes, budget.base_width);
    transfer_evaluate(backbone, tasks, train, test, budget.finetune_steps, seed)
}

/// A whole experiment failed: the runner itself panicked (outside any
/// isolated cell — e.g. during report assembly). Cell-level failures are
/// absorbed into `FAILED(...)` report rows instead (see
/// [`push_failure_rows`]); this error is the outer safety net that keeps
/// one broken table from aborting a `cae-dfkd table all` sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentError {
    /// Registry id of the experiment that failed.
    pub id: &'static str,
    /// The runner's original panic message.
    pub message: String,
    /// Training-health verdict over the series recorded up to the failure
    /// ([`cae_trace::health::HealthReport::summary`]); present only when
    /// tracing was enabled at failure time.
    pub health: Option<String>,
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "experiment '{}' failed: {}", self.id, self.message)?;
        if let Some(health) = &self.health {
            write!(f, " [health: {health}]")?;
        }
        Ok(())
    }
}

impl std::error::Error for ExperimentError {}

/// One registered experiment runner: a stable id, a human title and the
/// runner entry point. The registry is the single authority every consumer
/// (the CLI, the bench bins, perfbench) looks experiments up in, so adding
/// a runner module means adding exactly one entry here.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentEntry {
    /// Stable lookup id, equal to the runner module's name ("table02").
    pub id: &'static str,
    /// Short human-readable title.
    pub title: &'static str,
    /// Whether the paper itself reports this table/figure (the ablation and
    /// continual suites are ours and are excluded from paper-order sweeps).
    pub in_paper: bool,
    /// File stem of the report artifact the runner produces
    /// (`Report::file_stem()` of its report id, e.g. "table_ii"), declared
    /// here so resume logic can locate a run's artifact *without* running
    /// it first. `run()` asserts the two stay in sync.
    pub artifact_stem: &'static str,
    /// The runner.
    pub runner: fn(&ExperimentBudget) -> Report,
}

impl ExperimentEntry {
    /// The path of this entry's completed report artifact under `dir`, if
    /// there is one. "Completed" means `<artifact_stem>.json` exists *and*
    /// parses back as a [`Report`]: a torn artifact from an interrupted
    /// earlier run counts as absent, so a resumed sweep re-runs it.
    pub fn completed_artifact_in(&self, dir: &Path) -> Option<PathBuf> {
        let path = dir.join(format!("{}.json", self.artifact_stem));
        let json = std::fs::read_to_string(&path).ok()?;
        Report::from_json(&json).ok()?;
        Some(path)
    }

    /// Runs the experiment inside an `experiment` trace span tagged with
    /// the registry id, so a drained trace attributes every interval to
    /// the table that produced it. The runner executes under
    /// `catch_unwind`: a panic that escapes the runner (cell failures
    /// normally don't — they become `FAILED` rows) is returned as a typed
    /// [`ExperimentError`] carrying the original message, so sweeps over
    /// the registry can continue past one broken table.
    pub fn run(&self, budget: &ExperimentBudget) -> Result<Report, ExperimentError> {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _sp = cae_trace::span_with("experiment", &[("id", self.id.into())]);
            (self.runner)(budget)
        }));
        match outcome {
            Ok(report) => {
                debug_assert_eq!(
                    report.file_stem(),
                    self.artifact_stem,
                    "registry entry '{}' declares artifact stem '{}' but its report is '{}'",
                    self.id,
                    self.artifact_stem,
                    report.file_stem()
                );
                Ok(report)
            }
            Err(payload) => {
                // Snapshot (non-destructively — the caller may still want a
                // full drain) whatever series the run recorded before dying
                // and attach a health verdict explaining the blow-up.
                let health = cae_trace::enabled().then(|| {
                    cae_trace::health::HealthMonitor::default()
                        .check_events(&cae_trace::series_snapshot())
                        .summary()
                });
                Err(ExperimentError {
                    id: self.id,
                    message: scheduler::panic_message(payload.as_ref()),
                    health,
                })
            }
        }
    }
}

/// Appends one all-`None` row per cell failure, labelled
/// `FAILED(<cell> seed <seed>: <message>)`, so a partially failed table
/// still renders and records *why* each missing cell is missing. Call it
/// last so data rows keep their positions.
pub fn push_failure_rows(report: &mut Report, failures: &[CellError]) {
    for e in failures {
        report.push_row(&format!("FAILED({e})"), vec![None; report.columns.len()]);
    }
}

/// Appends one row per isolated cell outcome: a successful cell renders
/// normally under `label`, a failed one as a `FAILED(<label>: <error>)` row
/// of `-`s in the same position, keeping row order stable under partial
/// failure.
pub fn push_cell_row<V: IntoRowValues>(report: &mut Report, label: &str, outcome: Result<V, CellError>) {
    match outcome {
        Ok(values) => report.push_row(label, values),
        Err(e) => {
            report.push_row(&format!("FAILED({label}: {e})"), vec![None; report.columns.len()]);
        }
    }
}

/// Every experiment, in paper order (tables and figures interleaved as the
/// paper presents them), with the two suites beyond the paper last.
pub const REGISTRY: &[ExperimentEntry] = &[
    ExperimentEntry {
        id: "table01",
        title: "Image-level augmentation hurts DFKD",
        in_paper: true,
        artifact_stem: "table_i",
        runner: table01::run,
    },
    ExperimentEntry {
        id: "fig02",
        title: "Per-category confidence and augmentation-ambiguity diagnostics",
        in_paper: true,
        artifact_stem: "figure_2",
        runner: fig02::run,
    },
    ExperimentEntry {
        id: "table02",
        title: "Small-resolution main results (CIFAR-10/100 sims)",
        in_paper: true,
        artifact_stem: "table_ii",
        runner: table02::run,
    },
    ExperimentEntry {
        id: "table03",
        title: "Medium-resolution results (Tiny-ImageNet sim)",
        in_paper: true,
        artifact_stem: "table_iii",
        runner: table03::run,
    },
    ExperimentEntry {
        id: "table04",
        title: "Large-resolution results (ImageNet-1K sim)",
        in_paper: true,
        artifact_stem: "table_iv",
        runner: table04::run,
    },
    ExperimentEntry {
        id: "table05",
        title: "NYUv2 (sim) transfer: seg / depth / normals",
        in_paper: true,
        artifact_stem: "table_v",
        runner: table05::run,
    },
    ExperimentEntry {
        id: "table06",
        title: "ADE-20K (sim) segmentation + COCO-2017 (sim) detection transfer",
        in_paper: true,
        artifact_stem: "table_vi",
        runner: table06::run,
    },
    ExperimentEntry {
        id: "table07",
        title: "Component ablation over a CMI-like base (ADE-20K sim transfer)",
        in_paper: true,
        artifact_stem: "table_vii",
        runner: table07::run,
    },
    ExperimentEntry {
        id: "table08",
        title: "Noise-source count N vs downstream mIoU (NYUv2 sim)",
        in_paper: true,
        artifact_stem: "table_viii",
        runner: table08::run,
    },
    ExperimentEntry {
        id: "table09",
        title: "DFKD convergence with vs without CEND",
        in_paper: true,
        artifact_stem: "table_ix",
        runner: table09::run,
    },
    ExperimentEntry {
        id: "table10",
        title: "Language-model choice vs COCO-2017 (sim) mAP@50",
        in_paper: true,
        artifact_stem: "table_x",
        runner: table10::run,
    },
    ExperimentEntry {
        id: "table11",
        title: "Prompt design vs NYUv2 (sim) segmentation",
        in_paper: true,
        artifact_stem: "table_xi",
        runner: table11::run,
    },
    ExperimentEntry {
        id: "fig05",
        title: "Downstream error-map summary (seg error, depth abs error)",
        in_paper: true,
        artifact_stem: "figure_5",
        runner: fig05::run,
    },
    ExperimentEntry {
        id: "ablations",
        title: "Design-choice ablations (memory, λ_adv, CEND magnitude)",
        in_paper: false,
        artifact_stem: "ablations",
        runner: ablations::run,
    },
    ExperimentEntry {
        id: "continual",
        title: "Continual transfer across downstream tasks (per-stage pAcc, forgetting)",
        in_paper: false,
        artifact_stem: "continual",
        runner: continual::run,
    },
];

/// The registry, ordered as [`REGISTRY`].
pub fn registry() -> &'static [ExperimentEntry] {
    REGISTRY
}

/// Looks an experiment up by id.
pub fn find(id: &str) -> Option<&'static ExperimentEntry> {
    REGISTRY.iter().find(|e| e.id == id)
}

/// Runs an experiment by registry id (traced, fault-isolated); `None` for
/// unknown ids, `Some(Err(..))` if the runner itself panicked.
pub fn run_by_id(id: &str, budget: &ExperimentBudget) -> Option<Result<Report, ExperimentError>> {
    find(id).map(|e| e.run(budget))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_match_paper_table2() {
        let pairs = table2_pairs();
        assert_eq!(pairs.len(), 5);
        assert_eq!(pairs[0].label(), "ResNet-34→ResNet-18");
    }

    #[test]
    fn dense_sizes_scale_with_budget() {
        let (smoke_tr, _) = dense_sizes(&ExperimentBudget::smoke());
        let (fast_tr, _) = dense_sizes(&ExperimentBudget::fast());
        let (full_tr, _) = dense_sizes(&ExperimentBudget::full());
        assert!(smoke_tr < fast_tr && fast_tr < full_tr);
    }

    #[test]
    fn registry_covers_every_runner_module_exactly_once() {
        // Registry ids equal runner module names, so the source directory
        // is the ground truth: every `experiments/*.rs` file except the
        // infrastructure modules must appear in the registry exactly once.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/experiments");
        let mut modules: Vec<String> = std::fs::read_dir(&dir)
            .expect("experiments source dir readable")
            .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
            .filter_map(|name| name.strip_suffix(".rs").map(str::to_owned))
            .filter(|stem| stem != "mod" && stem != "scheduler")
            .collect();
        modules.sort();
        let mut ids: Vec<String> = registry().iter().map(|e| e.id.to_owned()).collect();
        ids.sort();
        assert_eq!(
            ids, modules,
            "registry ids must match the runner modules one-to-one"
        );
        let mut dedup = ids.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), registry().len(), "duplicate registry id");
    }

    #[test]
    fn registry_lookup_and_paper_order() {
        assert!(find("table02").is_some());
        assert!(find("nope").is_none());
        assert!(run_by_id("nope", &ExperimentBudget::smoke()).is_none());
        let paper: Vec<&str> = registry().iter().filter(|e| e.in_paper).map(|e| e.id).collect();
        assert_eq!(paper.len(), 13, "eleven tables plus fig02/fig05");
        assert_eq!(paper.first(), Some(&"table01"));
        assert_eq!(paper.last(), Some(&"fig05"));
        assert!(find("continual").is_some_and(|e| !e.in_paper));
        assert!(registry().iter().all(|e| !e.title.is_empty()));
    }

    #[test]
    fn artifact_stems_are_unique_and_filesystem_safe() {
        let mut stems: Vec<&str> = registry().iter().map(|e| e.artifact_stem).collect();
        stems.sort_unstable();
        let mut dedup = stems.clone();
        dedup.dedup();
        assert_eq!(dedup, stems, "artifact stems must be unique");
        for stem in stems {
            assert!(!stem.is_empty());
            assert!(
                stem.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "stem {stem:?} must be lowercase ascii/underscore"
            );
        }
    }

    #[test]
    fn completed_artifact_requires_a_parseable_report() {
        let entry = find("table02").expect("registered");
        let dir = std::env::temp_dir().join(format!("cae_resume_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("table_ii.json");

        // No artifact yet: not completed.
        std::fs::remove_file(&path).ok();
        assert_eq!(entry.completed_artifact_in(&dir), None);

        // Torn artifact (interrupted write): treated as absent.
        std::fs::write(&path, "{\"id\": \"Table II\", \"tru").expect("write");
        assert_eq!(
            entry.completed_artifact_in(&dir),
            None,
            "torn JSON must not count"
        );

        // A real report artifact counts.
        let mut report = Report::new("Table II", "demo", &["a"]);
        report.push_row("x", [1.0]);
        report.save_json(&dir).expect("save");
        assert_eq!(entry.completed_artifact_in(&dir), Some(path));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn entry_run_converts_runner_panics_into_typed_errors() {
        fn broken(_: &ExperimentBudget) -> Report {
            panic!("report assembly fell over");
        }
        let entry = ExperimentEntry {
            id: "broken",
            title: "deliberately panicking runner",
            in_paper: false,
            artifact_stem: "broken",
            runner: broken,
        };
        // Pin tracing off: with CAE_TRACE=1 in the environment the error
        // would (correctly) carry a health annotation, which is covered by
        // the scheduler/health tests. This test asserts the untraced shape.
        let _guard = crate::trace_test_lock();
        cae_trace::force_enabled(false);
        let err = entry.run(&ExperimentBudget::smoke()).expect_err("must fail");
        cae_trace::reset_to_env();
        assert_eq!(err.id, "broken");
        assert_eq!(err.message, "report assembly fell over");
        assert_eq!(err.health, None);
        assert_eq!(
            err.to_string(),
            "experiment 'broken' failed: report assembly fell over"
        );
    }

    #[test]
    fn failure_rows_render_reason_and_preserve_columns() {
        let mut report = Report::new("Table F", "demo", &["a", "b"]);
        report.push_row("ok", [1.0, 2.0]);
        push_failure_rows(
            &mut report,
            &[CellError { cell: 4, seed: 0x2a, message: "boom".into(), health: None }],
        );
        push_cell_row(&mut report, "late", Err::<[f32; 2], _>(CellError {
            cell: 5,
            seed: 0x2b,
            message: "bang".into(),
            health: Some("student.loss: non-finite at step 7".into()),
        }));
        push_cell_row(&mut report, "fine", Ok([3.0, 4.0]));
        assert_eq!(report.rows.len(), 4);
        assert_eq!(report.rows[1].label, "FAILED(cell 4 seed 0x2a: boom)");
        assert_eq!(report.rows[1].values, vec![None, None]);
        assert_eq!(
            report.rows[2].label,
            "FAILED(late: cell 5 seed 0x2b: bang [health: student.loss: non-finite at step 7])"
        );
        assert_eq!(report.cell("fine", "b"), Some(4.0));
    }
}
