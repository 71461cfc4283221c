//! Configuration types: DFKD hyper-parameters, experiment budgets, and the
//! process-wide [`Config`] snapshot of the `CAE_*` environment knobs.

use cae_trace::knob;

/// Hyper-parameters of the DFKD optimization (Eqs. 5 and 6).
///
/// Defaults follow the paper's setup (Adam for the generator, SGD lr 0.1 +
/// cosine annealing for the student) with loss weights in the range
/// conventional for generator-based DFKD. One deliberate deviation: the
/// generator learning rate is 5e-3 rather than the paper's 1e-3 — at this
/// reproduction's small scale (tiny generator, tens of steps instead of
/// thousands) 1e-3 does not converge within budget; 5e-3 restores the
/// paper's qualitative behaviour (validated in the workspace tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DfkdConfig {
    /// Generator learning rate (Adam).
    pub generator_lr: f32,
    /// Student learning rate (SGD, cosine-annealed).
    pub student_lr: f32,
    /// Student SGD momentum.
    pub student_momentum: f32,
    /// Student weight decay.
    pub student_weight_decay: f32,
    /// Weight of the batch-norm statistic loss `λ_bn`.
    pub lambda_bn: f32,
    /// Weight of the adversarial loss `λ_adv`.
    pub lambda_adv: f32,
    /// Weight of the CNCL loss `α` (0 disables it).
    pub alpha_cncl: f32,
    /// Distillation temperature.
    pub temperature: f32,
    /// CNCL temperature `τ`.
    pub tau_cncl: f32,
    /// Synthetic batch size.
    pub batch_size: usize,
    /// Memory-bank capacity in images.
    pub memory_capacity: usize,
}

serde::impl_json_struct!(DfkdConfig {
    generator_lr,
    student_lr,
    student_momentum,
    student_weight_decay,
    lambda_bn,
    lambda_adv,
    alpha_cncl,
    temperature,
    tau_cncl,
    batch_size,
    memory_capacity,
});

impl Default for DfkdConfig {
    fn default() -> Self {
        DfkdConfig {
            generator_lr: 5e-3,
            student_lr: 0.1,
            student_momentum: 0.9,
            student_weight_decay: 5e-4,
            lambda_bn: 1.0,
            lambda_adv: 0.5,
            alpha_cncl: 0.5,
            temperature: 4.0,
            tau_cncl: 0.2,
            batch_size: 16,
            memory_capacity: 512,
        }
    }
}

/// Step budgets controlling how long each phase trains.
///
/// Two presets are used throughout: [`ExperimentBudget::fast`] (the
/// `cae-dfkd table` default; finishes a full table in minutes on two CPU cores)
/// and [`ExperimentBudget::full`] (several times larger). Both are recorded
/// in EXPERIMENTS.md next to every number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentBudget {
    /// Supervised pre-training steps for teachers and data-accessible
    /// student references.
    pub pretrain_steps: usize,
    /// DFKD epochs (each epoch interleaves generator and student steps).
    pub dfkd_epochs: usize,
    /// Generator steps per DFKD epoch.
    pub generator_steps_per_epoch: usize,
    /// Student steps per DFKD epoch.
    pub student_steps_per_epoch: usize,
    /// Fine-tuning steps for downstream transfer.
    pub finetune_steps: usize,
    /// Base model width (the capacity knob shared by all architectures).
    pub base_width: usize,
    /// Network and data seed.
    pub seed: u64,
}

serde::impl_json_struct!(ExperimentBudget {
    pretrain_steps,
    dfkd_epochs,
    generator_steps_per_epoch,
    student_steps_per_epoch,
    finetune_steps,
    base_width,
    seed,
});

impl ExperimentBudget {
    /// The default budget of `cae-dfkd table` and of the `paper_shapes`
    /// tests: small but large enough that method orderings are measurable.
    pub fn fast() -> Self {
        ExperimentBudget {
            pretrain_steps: 160,
            dfkd_epochs: 10,
            generator_steps_per_epoch: 6,
            student_steps_per_epoch: 12,
            finetune_steps: 120,
            base_width: 6,
            seed: 42,
        }
    }

    /// The largest preset (`cae-dfkd table <id> --budget full`): several
    /// times the fast budget.
    pub fn full() -> Self {
        ExperimentBudget {
            pretrain_steps: 400,
            dfkd_epochs: 25,
            generator_steps_per_epoch: 8,
            student_steps_per_epoch: 16,
            finetune_steps: 300,
            base_width: 6,
            seed: 42,
        }
    }

    /// The preset named `smoke`, `fast` or `full` (the spelling shared by
    /// `CAE_BUDGET` and the CLI's `--budget`), or `None` for any other name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "smoke" => Some(ExperimentBudget::smoke()),
            "fast" => Some(ExperimentBudget::fast()),
            "full" => Some(ExperimentBudget::full()),
            _ => None,
        }
    }

    /// A micro budget for unit tests (seconds, not minutes).
    pub fn smoke() -> Self {
        ExperimentBudget {
            pretrain_steps: 30,
            dfkd_epochs: 3,
            generator_steps_per_epoch: 2,
            student_steps_per_epoch: 3,
            finetune_steps: 20,
            base_width: 4,
            seed: 7,
        }
    }

    /// Total DFKD generator steps.
    pub fn total_generator_steps(&self) -> usize {
        self.dfkd_epochs * self.generator_steps_per_epoch
    }

    /// Total DFKD student steps.
    pub fn total_student_steps(&self) -> usize {
        self.dfkd_epochs * self.student_steps_per_epoch
    }
}

// ---------------------------------------------------------------------------
// Runtime configuration: the CAE_* environment snapshot.

/// Documentation metadata for one `CAE_*` knob — the source the README's
/// configuration table is generated from, so it never drifts from the code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigEntry {
    /// Environment variable name (the stable external API).
    pub var: &'static str,
    /// Accepted values, human-readable.
    pub values: &'static str,
    /// Effective default when unset.
    pub default: &'static str,
    /// What the knob does.
    pub doc: &'static str,
}

/// The typed, read-once snapshot of the `CAE_*` knobs owned by this crate
/// and `cae-serve`.
///
/// Every knob is read through the [`cae_trace::knob`] grammar. Knobs owned
/// by a lower crate (`CAE_SIMD`, `CAE_NUM_THREADS`, `CAE_TRACE`,
/// `CAE_METRICS_INTERVAL_MS`) are not mirrored here: each is parsed once by
/// its owning accessor, and [`Config::render`] reports what those accessors
/// resolved. Fields are parsed on the first [`Config::get`] call; later
/// environment mutations have no effect. In-process harnesses that need to
/// vary a knob between runs use the typed overrides
/// ([`crate::experiments::scheduler::force_cell_parallelism`],
/// [`crate::experiments::scheduler::force_fault_policy`],
/// `cae_tensor::simd::force_backend`, `cae_tensor::pool::force_pool_size`,
/// `cae_trace::force_enabled`) instead of mutating the environment.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Cell-level experiment parallelism (`CAE_CELL_PARALLEL`).
    pub cell_parallel: bool,
    /// Failed-cell retry count (`CAE_CELL_RETRIES`).
    pub cell_retries: usize,
    /// Deterministic fault injection (`CAE_FAULT_INJECT=<prob>:<seed>`).
    pub fault_inject: Option<(f32, u64)>,
    /// Budget preset name (`CAE_BUDGET`), if set; a `--budget` flag beats
    /// it.
    pub budget: Option<String>,
    /// Report artifact directory override (`CAE_RESULTS_DIR`), if set; a
    /// `--out` flag beats it.
    pub results_dir: Option<String>,
    /// `cae-dfkd table all` skips completed artifacts (`CAE_RESUME`).
    pub resume: bool,
    /// Serve: dynamic-batching cutoff in images (`CAE_SERVE_MAX_BATCH`).
    pub serve_max_batch: usize,
    /// Serve: oldest-request latency cutoff (`CAE_SERVE_MAX_LATENCY_US`).
    pub serve_max_latency_us: u64,
    /// Serve: batched-forward worker threads (`CAE_SERVE_WORKERS`).
    pub serve_workers: usize,
}

impl Config {
    /// The process-wide snapshot, parsed on first call.
    pub fn get() -> &'static Config {
        static SNAPSHOT: std::sync::OnceLock<Config> = std::sync::OnceLock::new();
        SNAPSHOT.get_or_init(Config::from_env)
    }

    fn from_env() -> Config {
        Config {
            cell_parallel: !knob::off("CAE_CELL_PARALLEL"),
            cell_retries: knob::raw("CAE_CELL_RETRIES")
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0),
            fault_inject: knob::raw("CAE_FAULT_INJECT")
                .and_then(|v| crate::experiments::scheduler::parse_fault_inject(&v)),
            budget: knob::raw("CAE_BUDGET"),
            results_dir: knob::raw("CAE_RESULTS_DIR"),
            resume: !knob::off("CAE_RESUME"),
            serve_max_batch: knob::positive("CAE_SERVE_MAX_BATCH").unwrap_or(16),
            serve_max_latency_us: knob::positive("CAE_SERVE_MAX_LATENCY_US").unwrap_or(2000) as u64,
            serve_workers: knob::positive("CAE_SERVE_WORKERS").unwrap_or(1),
        }
    }

    /// Static documentation for every knob, in display order. Kept in one
    /// place so [`Config::markdown_table`] and the field list cannot drift
    /// apart silently (a test asserts one entry per field).
    pub fn entries() -> &'static [ConfigEntry] {
        &[
            ConfigEntry { var: "CAE_SIMD", values: "`scalar`/`avx2`/`neon`", default: "auto-detect", doc: "SIMD backend for all f32 kernels; unsupported requests fall back to detection. All backends are bit-identical." },
            ConfigEntry { var: "CAE_NUM_THREADS", values: "integer ≥ 1", default: "all cores", doc: "Tensor-pool parallelism (kernel and cell levels share the pool cooperatively)." },
            ConfigEntry { var: "CAE_TRACE", values: "bool (`1`/`true`/`on`/`yes` enable)", default: "off", doc: "The one telemetry switch: spans, span stats, counters, gauges and series." },
            ConfigEntry { var: "CAE_METRICS_INTERVAL_MS", values: "integer ≥ 1", default: "off", doc: "Period of the live metrics exporter `cae-dfkd serve-bench` starts: rewrites the `TRACE_serve.json` summary every N ms (a running exporter turns telemetry on)." },
            ConfigEntry { var: "CAE_CELL_PARALLEL", values: "bool (off-tokens disable)", default: "on", doc: "Fan experiment cells out across the pool; off runs cells serially with kernel parallelism inside each." },
            ConfigEntry { var: "CAE_CELL_RETRIES", values: "integer ≥ 0", default: "0", doc: "Re-runs of a panicked cell (identical derived seed, so recovery is byte-identical)." },
            ConfigEntry { var: "CAE_FAULT_INJECT", values: "`<prob>:<seed>`", default: "off", doc: "Deterministic panic injection at cell-attempt entry, for testing the recovery path." },
            ConfigEntry { var: "CAE_BUDGET", values: "`smoke`/`fast`/`full`", default: "per command", doc: "Experiment budget preset for `cae-dfkd` subcommands (`--budget` beats it) and the bench bins." },
            ConfigEntry { var: "CAE_RESULTS_DIR", values: "path", default: "`results/`", doc: "Where `cae-dfkd table` (`--out` beats it) and `render_synthetics` write report artifacts." },
            ConfigEntry { var: "CAE_RESUME", values: "bool (off-tokens disable)", default: "on", doc: "`cae-dfkd table all` skips an experiment whose report artifact already parses." },
            ConfigEntry { var: "CAE_SERVE_MAX_BATCH", values: "integer ≥ 1", default: "16", doc: "cae-serve: max images per dynamically formed batch." },
            ConfigEntry { var: "CAE_SERVE_MAX_LATENCY_US", values: "integer ≥ 1", default: "2000", doc: "cae-serve: max µs the oldest queued request waits before a partial batch is dispatched." },
            ConfigEntry { var: "CAE_SERVE_WORKERS", values: "integer ≥ 1", default: "1", doc: "cae-serve: worker threads running batched frozen forwards." },
        ]
    }

    /// Renders [`Config::entries`] as the README's markdown table
    /// (host-independent: documentation only, no effective values).
    pub fn markdown_table() -> String {
        let mut out = String::from("| Variable | Values | Default | Effect |\n|---|---|---|---|\n");
        for e in Config::entries() {
            out.push_str(&format!(
                "| `{}` | {} | {} | {} |\n",
                e.var, e.values, e.default, e.doc
            ));
        }
        out
    }

    /// Renders the effective configuration for `cae-dfkd config`, one
    /// `VAR = value` line per knob, in [`Config::entries`] order. Knobs a
    /// lower crate owns are reported from that crate's accessor, i.e. the
    /// value the process actually runs with.
    pub fn render(&self) -> String {
        let fmt_opt = |v: &Option<String>| v.clone().unwrap_or_else(|| "<unset>".to_owned());
        let rows: Vec<(&str, String)> = vec![
            ("CAE_SIMD", cae_tensor::simd::active_backend().name().to_owned()),
            ("CAE_NUM_THREADS", cae_tensor::pool::max_parallelism().to_string()),
            ("CAE_TRACE", cae_trace::enabled().to_string()),
            (
                "CAE_METRICS_INTERVAL_MS",
                cae_trace::metrics::interval_ms()
                    .map_or_else(|| "<unset>".to_owned(), |n| n.to_string()),
            ),
            ("CAE_CELL_PARALLEL", self.cell_parallel.to_string()),
            ("CAE_CELL_RETRIES", self.cell_retries.to_string()),
            (
                "CAE_FAULT_INJECT",
                self.fault_inject
                    .map_or_else(|| "<unset>".to_owned(), |(p, s)| format!("{p}:{s}")),
            ),
            ("CAE_BUDGET", fmt_opt(&self.budget)),
            ("CAE_RESULTS_DIR", fmt_opt(&self.results_dir)),
            ("CAE_RESUME", self.resume.to_string()),
            ("CAE_SERVE_MAX_BATCH", self.serve_max_batch.to_string()),
            ("CAE_SERVE_MAX_LATENCY_US", self.serve_max_latency_us.to_string()),
            ("CAE_SERVE_WORKERS", self.serve_workers.to_string()),
        ];
        let width = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        rows.iter()
            .map(|(k, v)| format!("{k:width$} = {v}\n"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_are_ordered() {
        let fast = ExperimentBudget::fast();
        let full = ExperimentBudget::full();
        let smoke = ExperimentBudget::smoke();
        assert!(smoke.total_student_steps() < fast.total_student_steps());
        assert!(fast.total_student_steps() < full.total_student_steps());
    }

    #[test]
    fn default_config_matches_paper_optimizers() {
        let c = DfkdConfig::default();
        // Scaled generator lr (see the type docs for the rationale).
        assert!((c.generator_lr - 5e-3).abs() < 1e-9);
        assert!((c.student_lr - 0.1).abs() < 1e-9);
    }

    #[test]
    fn snapshot_renders_every_documented_knob() {
        let config = Config::get();
        let rendered = config.render();
        for entry in Config::entries() {
            assert!(
                rendered.contains(entry.var),
                "{} documented but not rendered",
                entry.var
            );
        }
        // One render line and one doc entry per knob — a new field must
        // update both or this count drifts.
        assert_eq!(rendered.lines().count(), Config::entries().len());
    }

    #[test]
    fn markdown_table_covers_every_entry_once() {
        let table = Config::markdown_table();
        for entry in Config::entries() {
            assert_eq!(
                table.matches(&format!("`{}`", entry.var)).count(),
                1,
                "{} must appear exactly once",
                entry.var
            );
        }
        assert_eq!(table.lines().count(), Config::entries().len() + 2);
    }

    #[test]
    fn snapshot_defaults_are_sane_without_env() {
        // The suite doesn't set serve knobs, so defaults must hold.
        let config = Config::get();
        assert!(config.serve_max_batch >= 1);
        assert!(config.serve_max_latency_us >= 1);
        assert!(config.serve_workers >= 1);
    }

    #[test]
    fn budget_names_resolve_to_presets() {
        assert_eq!(ExperimentBudget::from_name("smoke"), Some(ExperimentBudget::smoke()));
        assert_eq!(ExperimentBudget::from_name("fast"), Some(ExperimentBudget::fast()));
        assert_eq!(ExperimentBudget::from_name("full"), Some(ExperimentBudget::full()));
        for unknown in ["", "Fast", " fast", "medium"] {
            assert_eq!(ExperimentBudget::from_name(unknown), None, "{unknown:?}");
        }
    }
}
