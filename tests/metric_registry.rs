//! Registries checked against the source, in both directions: every
//! statically-named instrumentation point in the workspace must be
//! documented in DESIGN.md's Telemetry table and every row of that table
//! must name one; every `CAE_*` knob must be a `Config::entries()` entry
//! read through the `cae_trace::knob` grammar, and every entry must be read.
//!
//! The scanner is deliberately dumb — a hand-rolled substring walk over
//! the non-test source (everything before the first `#[cfg(test)]`) for
//! the recording-call literals `span("..")`, `span_with("..")`,
//! `span_stat("..")`, `counter("..")`, `counters(&[".."])`,
//! `gauge("..")`, `series("..")` and `stat_ns("..")`. Names assembled
//! at run time (the `gemm.backend.<backend>` counters) are invisible to
//! it and are documented in the table by pattern instead.

use cae_dfkd::core::config::Config;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Recording calls whose first argument is the metric name literal.
const CALLS: [&str; 8] = [
    "span(",
    "span_with(",
    "span_stat(",
    "counter(",
    "gauge(",
    "series(",
    "stat_ns(",
    "counters(&[",
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`'s `src/` trees, recursively.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            // Integration-test trees document nothing.
            if path.file_name().is_some_and(|n| n == "tests") {
                continue;
            }
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Reads a string literal starting at `text[start..]` (just past the
/// opening quote), handling `\"` escapes.
fn read_literal(text: &str, start: usize) -> Option<&str> {
    let bytes = text.as_bytes();
    let mut i = start;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Some(&text[start..i]),
            _ => i += 1,
        }
    }
    None
}

/// One file's non-test source (everything before the first
/// `#[cfg(test)]`) with comment lines removed.
fn code_of(path: &Path) -> String {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    text.split("#[cfg(test)]")
        .next()
        .unwrap_or("")
        .lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Every non-test `.rs` source of the workspace: each crate's `src/` tree
/// plus the root package's.
fn workspace_sources() -> Vec<PathBuf> {
    let root = repo_root();
    let mut files = Vec::new();
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ exists");
    for entry in crates.flatten() {
        rust_sources(&entry.path().join("src"), &mut files);
    }
    rust_sources(&root.join("src"), &mut files);
    assert!(files.len() > 10, "scanner found too few sources: {files:?}");
    files
}

/// Collects metric-name literals from one file's non-test, non-comment
/// source.
fn scan_file(path: &Path, names: &mut BTreeSet<String>) {
    let code = code_of(path);
    for call in CALLS {
        let mut from = 0;
        while let Some(pos) = code[from..].find(call) {
            let at = from + pos + call.len();
            if call.ends_with("(&[") {
                // counters(&["a", "b", ...]) — every literal up to the ']'.
                let slice_end = code[at..].find(']').map_or(code.len(), |e| at + e);
                let mut cursor = at;
                while let Some(q) = code[cursor..slice_end].find('"') {
                    let lit_start = cursor + q + 1;
                    let Some(name) = read_literal(&code, lit_start) else { break };
                    names.insert(name.to_string());
                    cursor = lit_start + name.len() + 1;
                }
            } else {
                // The literal may sit on the call's next line.
                let arg = code[at..].trim_start();
                let literal = arg.starts_with('"').then(|| code.len() - arg.len() + 1);
                if let Some(name) = literal.and_then(|start| read_literal(&code, start)) {
                    names.insert(name.to_string());
                }
            }
            from = at;
        }
    }
}

/// DESIGN.md's Telemetry section (header to the next `## `).
fn telemetry_section() -> String {
    let design = std::fs::read_to_string(repo_root().join("DESIGN.md"))
        .expect("DESIGN.md must exist at the repository root");
    let start = design
        .find("## Telemetry")
        .expect("DESIGN.md must have a Telemetry section");
    let rest = &design[start..];
    let end = rest[3..].find("\n## ").map_or(rest.len(), |e| e + 3);
    rest[..end].to_string()
}

/// Every statically-named metric the workspace's non-test source records.
fn recorded_names() -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for file in &workspace_sources() {
        scan_file(file, &mut names);
    }
    // The workspace is heavily instrumented; a scanner that suddenly sees
    // only a handful of names is broken, not a sign the code got cleaner.
    assert!(
        names.len() > 25,
        "scanner found only {} metric names — scanner or instrumentation broke: {names:?}",
        names.len()
    );
    names
}

#[test]
fn every_recorded_metric_name_is_documented_in_design_md() {
    let names = recorded_names();
    let section = telemetry_section();
    let undocumented: Vec<&String> = names
        .iter()
        .filter(|name| !section.contains(&format!("`{name}`")))
        .collect();
    assert!(
        undocumented.is_empty(),
        "metric names recorded in code but missing from DESIGN.md's Telemetry table: {undocumented:?}"
    );
}

#[test]
fn every_telemetry_row_names_a_recorded_metric() {
    let names = recorded_names();
    let section = telemetry_section();
    let rows: Vec<&str> = section
        .lines()
        .filter_map(|line| line.strip_prefix("| `")?.split('`').next())
        .collect();
    assert!(rows.len() > 25, "Telemetry table parse found too few rows: {rows:?}");
    // Run-time-assembled names (`gemm.backend.<backend>`) are documented
    // by pattern and cannot match a literal.
    let stale: Vec<&&str> = rows
        .iter()
        .filter(|row| !row.contains('<') && !names.contains(**row))
        .collect();
    assert!(
        stale.is_empty(),
        "DESIGN.md Telemetry rows that no code records: {stale:?}"
    );
}

#[test]
fn telemetry_table_documents_the_histograms_and_dynamic_counters() {
    let section = telemetry_section();
    // The dynamically named GEMM backend counters are invisible to the
    // scanner, so the two-way check above cannot keep them documented.
    assert!(section.contains("gemm.backend."), "Telemetry section lost gemm.backend.");
}

/// The one module allowed to read the environment.
const GRAMMAR_MODULE: &str = "crates/trace/src/knob.rs";

/// Environment reads outside the grammar: `bench_experiments` re-executes
/// itself once per thread count (the pool size is fixed per process) and
/// hands each child its report path through a `CAE_BENCH_*` variable.
/// This is process plumbing, not a user knob.
const HANDOFF_READS: [&str; 1] = ["env::var(CHILD_ENV)"];

#[test]
fn every_knob_is_registered_and_read_through_the_grammar() {
    let root = repo_root();
    let registered: BTreeSet<&str> = Config::entries().iter().map(|e| e.var).collect();
    assert_eq!(registered.len(), Config::entries().len(), "duplicate Config entry");

    let mut knobs = BTreeSet::new();
    let mut read = BTreeSet::new();
    let mut stray_reads = Vec::new();
    let mut handoffs_seen = BTreeSet::new();
    let mut off_token_lists = Vec::new();
    for file in &workspace_sources() {
        let rel = file.strip_prefix(&root).unwrap_or(file).to_string_lossy().replace('\\', "/");
        let code = code_of(file);
        let mut from = 0;
        while let Some(pos) = code[from..].find("\"CAE_") {
            let start = from + pos + 1;
            let len = code[start..]
                .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
                .unwrap_or(code.len() - start);
            let name = code[start..start + len].to_string();
            // A knob is read where its literal is the argument of a grammar
            // call: `knob::off("CAE_X")`, `cae_trace::knob::raw("CAE_X")`.
            let call = code[..start - 1].rsplit("knob::").next().unwrap_or("");
            let is_read = call.strip_suffix('(').is_some_and(|f| {
                !f.is_empty() && f.chars().all(|c| c.is_ascii_lowercase() || c == '_')
            });
            if is_read {
                read.insert(name.clone());
            }
            knobs.insert((name, rel.clone()));
            from = start + len;
        }
        if rel != GRAMMAR_MODULE {
            let mut from = 0;
            while let Some(pos) = code[from..].find("env::var") {
                let at = from + pos;
                let handoff = HANDOFF_READS
                    .iter()
                    .find(|read| code[at..].starts_with(**read))
                    .filter(|_| rel.starts_with("crates/bench/src/bin/"));
                match handoff {
                    Some(read) => {
                        handoffs_seen.insert(*read);
                    }
                    None => stray_reads.push(rel.clone()),
                }
                from = at + 1;
            }
        }
        let spellings = code.matches(r#""0" | "off" | "false" | "no""#).count();
        off_token_lists.extend(std::iter::repeat_n(rel.clone(), spellings));
    }

    assert!(knobs.len() > 15, "scanner found too few knob literals: {knobs:?}");
    let unregistered: Vec<_> = knobs
        .iter()
        .filter(|(name, _)| !name.starts_with("CAE_BENCH_") && !registered.contains(name.as_str()))
        .collect();
    assert!(
        unregistered.is_empty(),
        "CAE_* literals in code that are not Config::entries() knobs: {unregistered:?}"
    );
    let unread: Vec<_> = registered.iter().filter(|var| !read.contains(**var)).collect();
    assert!(
        unread.is_empty(),
        "Config::entries() knobs that no code reads through cae_trace::knob: {unread:?}"
    );
    assert!(
        stray_reads.is_empty(),
        "environment read outside {GRAMMAR_MODULE} (use cae_trace::knob): {stray_reads:?}"
    );
    let stale: Vec<_> = HANDOFF_READS.iter().filter(|read| !handoffs_seen.contains(*read)).collect();
    assert!(stale.is_empty(), "HANDOFF_READS entries no bench bin performs any more: {stale:?}");
    assert_eq!(
        off_token_lists,
        vec![GRAMMAR_MODULE.to_string()],
        "the off-token list must be spelled once, in the grammar"
    );
}

/// `cae-dfkd config` reports what the owning accessors resolved, so values
/// the grammar rejects or normalizes show up as the process really runs.
#[test]
fn config_reports_the_values_the_accessors_parse() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cae-dfkd"))
        .arg("config")
        .env("CAE_NUM_THREADS", " 5")
        .env("CAE_SERVE_MAX_BATCH", "0")
        .env("CAE_METRICS_INTERVAL_MS", "lots")
        .output()
        .expect("cae-dfkd runs");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).expect("utf-8");
    let value = |var: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(var)?.trim_start().strip_prefix("= "))
            .unwrap_or_else(|| panic!("{var} missing from:\n{text}"))
            .to_owned()
    };
    // A padded thread count sizes the pool, which is what the report shows.
    assert_eq!(value("CAE_NUM_THREADS"), "5");
    // A zero or unparsable value is invalid, so the default applies.
    assert_eq!(value("CAE_SERVE_MAX_BATCH"), "16");
    assert_eq!(value("CAE_METRICS_INTERVAL_MS"), "<unset>");
}
