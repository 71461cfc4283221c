//! Command-line argument parsing for the `cae-dfkd` binary.
//!
//! Hand-rolled (no external parser dependency): `--key value` flags after a
//! subcommand, with typed accessors and helpful errors.

use cae_core::config::{Config, ExperimentBudget};
use cae_core::method::MethodSpec;
use cae_data::presets::ClassificationPreset;
use cae_nn::infer::FreezeOptions;
use cae_nn::models::Arch;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::path::PathBuf;

/// A parsed command line: subcommand, up to two leading positional
/// arguments (`cae-dfkd table table02`,
/// `cae-dfkd trace-diff base.jsonl cur.jsonl`) and `--key value` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Command {
    /// The subcommand (`distill`, `evaluate`, `transfer`, `freeze`,
    /// `serve-bench`, `table`, `profile`, `trace-diff`, `config`, `list`,
    /// `help`).
    pub name: String,
    /// The first positional argument directly after the subcommand, if any
    /// (`table` accepts the experiment id this way; `trace-diff` takes the
    /// baseline trace path).
    pub positional: Option<String>,
    /// The second positional argument, if any (`trace-diff` takes the
    /// current trace path here).
    pub positional2: Option<String>,
    /// Flag map.
    pub options: BTreeMap<String, String>,
}

/// Error produced while parsing or interpreting arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseArgsError(String);

impl fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for ParseArgsError {}

fn err(msg: impl Into<String>) -> ParseArgsError {
    ParseArgsError(msg.into())
}

impl Command {
    /// Parses `args` (without the program name).
    ///
    /// # Errors
    /// Returns an error when no subcommand is given, a flag is missing its
    /// value, or more than two positional arguments appear (positionals
    /// are accepted directly after the subcommand only).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Command, ParseArgsError> {
        let mut iter = args.into_iter().peekable();
        let name = iter.next().ok_or_else(|| err("missing subcommand; try `help`"))?;
        let mut take_positional = || match iter.peek() {
            Some(arg) if !arg.starts_with("--") => iter.next(),
            _ => None,
        };
        let positional = take_positional();
        let positional2 = take_positional();
        let mut options = BTreeMap::new();
        while let Some(arg) = iter.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| err(format!("expected a --flag, got '{arg}'")))?;
            let value = iter
                .next()
                .ok_or_else(|| err(format!("flag --{key} is missing its value")))?;
            options.insert(key.to_owned(), value);
        }
        Ok(Command { name, positional, positional2, options })
    }

    /// String option with a default.
    pub fn str_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.options.get(key).map(String::as_str).unwrap_or(default)
    }

    /// Required string option.
    ///
    /// # Errors
    /// Returns an error naming the missing flag.
    pub fn required(&self, key: &str) -> Result<&str, ParseArgsError> {
        self.options
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| err(format!("missing required flag --{key}")))
    }

    /// Integer option with a default.
    ///
    /// # Errors
    /// Returns an error when the value is not an integer.
    pub fn usize_or(&self, key: &str, default: usize) -> Result<usize, ParseArgsError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| err(format!("--{key} expects an integer, got '{v}'"))),
        }
    }

    /// u64 option with a default.
    ///
    /// # Errors
    /// Returns an error when the value is not an integer.
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, ParseArgsError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| err(format!("--{key} expects an integer, got '{v}'"))),
        }
    }

    /// Dataset preset option (default `c10`).
    ///
    /// # Errors
    /// Returns an error for unknown dataset names.
    pub fn dataset(&self) -> Result<ClassificationPreset, ParseArgsError> {
        parse_dataset(self.str_or("dataset", "c10"))
    }

    /// Architecture option under `key`.
    ///
    /// # Errors
    /// Returns an error for unknown architecture names.
    pub fn arch(&self, key: &str, default: &str) -> Result<Arch, ParseArgsError> {
        parse_arch(self.str_or(key, default))
    }

    /// Budget option with the default `fast` (see [`Command::budget_or`]).
    ///
    /// # Errors
    /// Returns an error for unknown budget names.
    pub fn budget(&self) -> Result<ExperimentBudget, ParseArgsError> {
        self.budget_or("fast")
    }

    /// The budget preset: `--budget`, else `CAE_BUDGET`, else the
    /// subcommand's `default` (`serve-bench` defaults to `smoke`: it
    /// exercises the server, not paper numbers).
    ///
    /// # Errors
    /// Returns an error for unknown budget names, from either source.
    pub fn budget_or(&self, default: &str) -> Result<ExperimentBudget, ParseArgsError> {
        let name = self
            .options
            .get("budget")
            .or(Config::get().budget.as_ref())
            .map_or(default, String::as_str);
        ExperimentBudget::from_name(name)
            .ok_or_else(|| err(format!("unknown budget '{name}' (smoke|fast|full)")))
    }

    /// Where `table` writes its artifacts: `--out`, else `CAE_RESULTS_DIR`,
    /// else `results`.
    pub fn results_dir(&self) -> PathBuf {
        let dir = self
            .options
            .get("out")
            .or(Config::get().results_dir.as_ref())
            .map_or("results", String::as_str);
        PathBuf::from(dir)
    }

    /// The experiment id `table` runs: the positional argument
    /// (`cae-dfkd table table02`) or the `--id` flag.
    ///
    /// # Errors
    /// Returns an error when neither is given.
    pub fn id_arg(&self) -> Result<&str, ParseArgsError> {
        if let Some(id) = &self.positional {
            return Ok(id);
        }
        self.required("id")
            .map_err(|_| err("missing experiment id (positional or --id; see `list`)"))
    }

    /// Method option (default `cae`).
    ///
    /// # Errors
    /// Returns an error for unknown method names or bad `--n`.
    pub fn method(&self) -> Result<MethodSpec, ParseArgsError> {
        let n = self.usize_or("n", 4)?;
        match self.str_or("method", "cae") {
            "cae" => Ok(MethodSpec::cae_dfkd(n)),
            "cend" => Ok(MethodSpec::cend_only(n)),
            "vanilla" => Ok(MethodSpec::vanilla()),
            "nayer" => Ok(MethodSpec::nayer_like()),
            "cmi" => Ok(MethodSpec::cmi_like()),
            "deepinv" => Ok(MethodSpec::deepinv_like()),
            other => Err(err(format!(
                "unknown method '{other}' (cae|cend|vanilla|nayer|cmi|deepinv)"
            ))),
        }
    }
}

/// Parses a dataset name.
///
/// # Errors
/// Returns an error for unknown names.
pub fn parse_dataset(name: &str) -> Result<ClassificationPreset, ParseArgsError> {
    match name {
        "c10" | "cifar10" => Ok(ClassificationPreset::C10Sim),
        "c100" | "cifar100" => Ok(ClassificationPreset::C100Sim),
        "tiny" | "tiny-imagenet" => Ok(ClassificationPreset::TinyImageNetSim),
        "imagenet" => Ok(ClassificationPreset::ImageNetSim),
        other => Err(err(format!(
            "unknown dataset '{other}' (c10|c100|tiny|imagenet)"
        ))),
    }
}

/// Parses a freeze mode name into the [`FreezeOptions`] it denotes:
/// `exact` (bit-identical to autograd eval), `fused` (conv+BN folding,
/// the default) or `int8` (fused plus int8 weight quantization).
///
/// # Errors
/// Returns an error listing the valid modes for unknown names.
pub fn parse_freeze_mode(name: &str) -> Result<FreezeOptions, ParseArgsError> {
    match name {
        "exact" => Ok(FreezeOptions::exact()),
        "fused" => Ok(FreezeOptions::fused()),
        "int8" => Ok(FreezeOptions::fused().int8()),
        other => Err(err(format!("unknown mode '{other}' (exact|fused|int8)"))),
    }
}

/// Parses an architecture name.
///
/// # Errors
/// Returns an error for unknown names.
pub fn parse_arch(name: &str) -> Result<Arch, ParseArgsError> {
    match name {
        "resnet18" => Ok(Arch::ResNet18),
        "resnet34" => Ok(Arch::ResNet34),
        "resnet50" => Ok(Arch::ResNet50),
        "wrn40-2" => Ok(Arch::Wrn40x2),
        "wrn40-1" => Ok(Arch::Wrn40x1),
        "wrn16-2" => Ok(Arch::Wrn16x2),
        "wrn16-1" => Ok(Arch::Wrn16x1),
        "vgg11" => Ok(Arch::Vgg11),
        other => Err(err(format!(
            "unknown architecture '{other}' (resnet18|resnet34|resnet50|wrn40-2|wrn40-1|wrn16-2|wrn16-1|vgg11)"
        ))),
    }
}

/// The help text shown by `cae-dfkd help`.
pub const HELP: &str = "\
cae-dfkd — data-free knowledge distillation (CAE-DFKD reproduction)

USAGE:
  cae-dfkd distill  [--dataset c10|c100|tiny|imagenet] [--teacher ARCH] [--student ARCH]
                    [--method cae|cend|vanilla|nayer|cmi|deepinv] [--n 4]
                    [--budget smoke|fast|full] [--seed 42] [--save FILE.json]
  cae-dfkd evaluate --weights FILE.json [--dataset c10] [--arch resnet18] [--budget fast]
  cae-dfkd transfer --weights FILE.json [--task nyu|ade|coco] [--arch resnet18]
                    [--dataset c10] [--budget fast]
  cae-dfkd freeze   --weights FILE.json --out FROZEN.json [--arch resnet18]
                    [--dataset c10] [--budget fast] [--mode exact|fused|int8]
  cae-dfkd serve-bench [--requests 400] [--clients 4] [--max-batch N] [--max-latency-us N]
                    [--mode exact|fused|int8] [--weights FILE.json] [--log LOG.txt]
                    [--arch resnet18] [--dataset c10] [--budget smoke|fast|full]
  cae-dfkd table    <id>|all [--budget smoke|fast|full] [--out results]
  cae-dfkd profile  --trace trace_table_ii.jsonl [--out .]
  cae-dfkd trace-diff <baseline.jsonl> <current.jsonl> [--limit 20]
  cae-dfkd config
  cae-dfkd list
  cae-dfkd help

`table` runs one registered experiment by id (see `list` for the ids) and
writes its JSON artifact under --out. It is the only subcommand that runs
an experiment. Set CAE_TRACE=1 to also get every telemetry view of the
run: it writes the trace (trace_<stem>.jsonl + TRACE_<stem>.json) and
flamegraph-folded stacks (PROFILE_<stem>.txt) next to the report, and
prints a per-span self-time table (coverage of the experiment span, self
time outside it, critical path, GEMM GFLOP/s, pool use) and a
training-health verdict (NaN/Inf, divergence, plateau) per recorded series
(generator.loss, student.loss, ...). The report itself is byte-identical
with tracing on or off.
`table all` runs every table and figure the paper reports, in paper order:
it skips an experiment whose report under --out already parses (set
CAE_RESUME=0 to re-run it), continues past a failed experiment, and exits
non-zero listing the failures. A flag beats its environment variable:
--budget beats CAE_BUDGET and --out beats CAE_RESULTS_DIR.
The id is accepted positionally or as --id.

`profile` reads a saved trace_<stem>.jsonl, prints its self-time table and
writes PROFILE_<stem>.txt under --out; the JSONL carries span events only,
so no throughput lines.

`trace-diff` aligns two saved trace_*.jsonl span trees by span name and
prints per-span self-time deltas sorted by absolute contribution, naming
the top-delta span — the regression-attribution view for a traced run
that slowed down.

`freeze` compiles a trained checkpoint into a graph-free frozen inference
model (conv+BN folded under --mode fused, the default; --mode exact keeps
layers separate and matches the autograd eval path bit-for-bit; --mode
int8 additionally quantizes weights to int8 per-output-channel) and writes
it as self-describing JSON. Every eval forward inside `distill`/`evaluate`/
`table` runs on a fused frozen graph compiled the same way.

`serve-bench` runs the dynamic-batching inference server over a frozen
student: a one-request-at-a-time sequential baseline, then an open-loop
flood from --clients concurrent clients, printing throughput, latency
percentiles and the batched speedup, and byte-diffing the two prediction
logs (they must be identical — batching never changes results). With
--weights it serves that checkpoint; otherwise it pretrains a small
student under --budget. --log writes the batched prediction log for
external byte-diffing. Defaults for --max-batch/--max-latency-us come
from CAE_SERVE_MAX_BATCH / CAE_SERVE_MAX_LATENCY_US (see `config`). Set
CAE_METRICS_INTERVAL_MS to have it rewrite TRACE_serve.json in . every N
ms: the serve phase span stats, counters and queue gauges (a running
exporter turns telemetry on).

`config` prints the process-wide runtime configuration: every CAE_* knob,
its current value and where it came from.

Architectures: resnet18 resnet34 resnet50 wrn40-2 wrn40-1 wrn16-2 wrn16-1 vgg11
";

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_subcommand_and_flags() {
        let c = Command::parse(args("distill --dataset c100 --n 5")).expect("parses");
        assert_eq!(c.name, "distill");
        assert_eq!(c.str_or("dataset", "c10"), "c100");
        assert_eq!(c.usize_or("n", 4).expect("int"), 5);
        assert_eq!(c.usize_or("missing", 7).expect("default"), 7);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Command::parse(args("")).is_err());
        assert!(
            Command::parse(args("distill one two three")).is_err(),
            "at most two leading positionals are accepted"
        );
        assert!(
            Command::parse(args("table --budget smoke table02")).is_err(),
            "positionals after flags are rejected"
        );
        assert!(Command::parse(args("distill --n")).is_err());
        let c = Command::parse(args("distill --n x")).expect("parses");
        assert!(c.usize_or("n", 4).is_err());
    }

    #[test]
    fn two_positionals_feed_trace_diff() {
        let c = Command::parse(args("trace-diff base.jsonl cur.jsonl --limit 5")).expect("parses");
        assert_eq!(c.positional.as_deref(), Some("base.jsonl"));
        assert_eq!(c.positional2.as_deref(), Some("cur.jsonl"));
        assert_eq!(c.usize_or("limit", 20).expect("int"), 5);

        let c = Command::parse(args("table table02")).expect("parses");
        assert_eq!(c.positional2, None);
    }

    #[test]
    fn leading_positional_feeds_id_arg() {
        let c = Command::parse(args("table table02 --budget smoke")).expect("parses");
        assert_eq!(c.positional.as_deref(), Some("table02"));
        assert_eq!(c.id_arg().expect("id"), "table02");
        assert_eq!(c.budget_or("smoke").expect("budget"), ExperimentBudget::smoke());

        let c = Command::parse(args("table --id table05")).expect("parses");
        assert_eq!(c.positional, None);
        assert_eq!(c.id_arg().expect("id"), "table05");

        let c = Command::parse(args("table")).expect("parses");
        let e = c.id_arg().expect_err("no id anywhere");
        assert!(e.to_string().contains("positional or --id"));
    }

    #[test]
    fn help_documents_the_observability_subcommands() {
        // One traced `table` run renders every view; two readers of a
        // saved trace remain.
        assert!(HELP.contains("Set CAE_TRACE=1 to also get every telemetry view"));
        assert!(HELP.contains("PROFILE_<stem>.txt"));
        assert!(HELP.contains("training-health verdict"));
        assert!(HELP.contains("cae-dfkd profile  --trace trace_table_ii.jsonl"));
        assert!(HELP.contains("cae-dfkd trace-diff"));
        assert!(HELP.contains("CAE_METRICS_INTERVAL_MS"));
        assert!(HELP.contains("TRACE_serve.json"));
        let gone = ["cae-dfkd metrics", "cae-dfkd health", "METRICS_<", "METRICS_serve", ".prom"];
        for name in gone {
            assert!(!HELP.contains(name), "HELP still mentions {name}");
        }
    }

    #[test]
    fn help_documents_freeze_modes() {
        assert!(HELP.contains("cae-dfkd freeze"));
        assert!(HELP.contains("[--mode exact|fused|int8]"));
        assert!(HELP.contains("fused frozen graph"));
        assert!(!HELP.contains("CAE_INFER") && !HELP.contains("CAE_FUSE"));
    }

    #[test]
    fn help_documents_serving_and_config() {
        assert!(HELP.contains("cae-dfkd serve-bench"));
        assert!(HELP.contains("cae-dfkd config"));
        assert!(HELP.contains("CAE_SERVE_MAX_BATCH"));
    }

    #[test]
    fn freeze_modes_parse_and_unknown_lists_choices() {
        assert_eq!(parse_freeze_mode("fused").expect("fused"), FreezeOptions::fused());
        assert_eq!(parse_freeze_mode("exact").expect("exact"), FreezeOptions::exact());
        assert_eq!(
            parse_freeze_mode("int8").expect("int8"),
            FreezeOptions::fused().int8()
        );
        let e = parse_freeze_mode("fast").expect_err("unknown mode");
        assert!(e.to_string().contains("exact|fused|int8"));
    }

    #[test]
    fn typed_accessors_resolve_domain_values() {
        let c = Command::parse(args(
            "distill --dataset tiny --teacher wrn40-2 --method nayer --budget smoke",
        ))
        .expect("parses");
        assert_eq!(c.dataset().expect("dataset"), ClassificationPreset::TinyImageNetSim);
        assert_eq!(c.arch("teacher", "resnet34").expect("arch"), Arch::Wrn40x2);
        assert_eq!(c.method().expect("method").name, "NAYER-like");
        assert_eq!(c.budget().expect("budget"), ExperimentBudget::smoke());
    }

    #[test]
    fn unknown_values_error_with_choices() {
        let c = Command::parse(args("distill --dataset mars")).expect("parses");
        let e = c.dataset().expect_err("must fail");
        assert!(e.to_string().contains("c10|c100|tiny|imagenet"));
    }

    #[test]
    fn required_flags_are_enforced() {
        let c = Command::parse(args("evaluate")).expect("parses");
        assert!(c.required("weights").is_err());
    }
}
