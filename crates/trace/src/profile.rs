//! Span-tree profiler: turns a drained [`Trace`] (or a saved
//! `trace_<stem>.jsonl`) into answers — where does wall-clock go?
//!
//! The raw span events carry `parent` ids, so the profiler reconstructs
//! the span forest, computes per-node **self time** (duration minus the
//! sum of direct children's durations) and aggregates per span name:
//! call counts, total vs self time, and p50/p95 durations (nearest-rank
//! over raw events). It also extracts the **critical path** through the
//! `experiment` root (the chain of heaviest children), derives throughput
//! metrics from the trace's counters and gauges (GFLOP/s from
//! `gemm.flops` ÷ the exact `gemm` span-stat time, pool utilization from
//! the queue-depth gauge), and renders a flamegraph-folded text artifact
//! (`PROFILE_<stem>.txt`, one `a;b;c self_ns` line per unique stack)
//! consumable by standard flamegraph tooling.
//!
//! Profiles built from a truncated trace (per-thread event cap hit) are
//! marked [`Profile::truncated`]: aggregated statistics stay exact, but
//! the tree — and therefore self times — only covers recorded events.

use crate::{Trace, SpanEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One span event with an owned name, as parsed back from JSONL (the
/// in-memory [`SpanEvent`] uses `&'static str` names).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawSpan {
    /// Span name.
    pub name: String,
    /// Process-unique span id.
    pub id: u64,
    /// Id of the parent span, if any was open on the recording thread.
    pub parent: Option<u64>,
    /// Recording thread (registration order).
    pub thread: u64,
    /// Start offset from the trace epoch, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

impl From<&SpanEvent> for RawSpan {
    fn from(s: &SpanEvent) -> Self {
        RawSpan {
            name: s.name.to_owned(),
            id: s.id,
            parent: s.parent,
            thread: s.thread,
            start_ns: s.start_ns,
            dur_ns: s.dur_ns,
        }
    }
}

/// One node of the reconstructed span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileNode {
    /// The underlying span.
    pub span: RawSpan,
    /// Duration minus the summed durations of direct children (clamped at
    /// zero against sub-nanosecond measurement skew).
    pub self_ns: u64,
    /// Indices of direct children in [`Profile::nodes`], start-time order.
    pub children: Vec<usize>,
}

/// Aggregated statistics for one span name, over raw tree events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NameProfile {
    /// Number of recorded spans.
    pub count: u64,
    /// Summed durations, nanoseconds.
    pub total_ns: u64,
    /// Summed self times, nanoseconds.
    pub self_ns: u64,
    /// Median duration (nearest rank), nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile duration (nearest rank), nanoseconds.
    pub p95_ns: u64,
}

/// Throughput metrics derived from counters/gauges (absent when built
/// from a JSONL file, which carries span events and series only).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DerivedMetrics {
    /// `gemm.flops` ÷ the exact `gemm` stat-span time — sustained GEMM
    /// throughput in GFLOP/s (1 flop/ns = 1 GFLOP/s).
    pub gemm_gflops: Option<f64>,
    /// The SIMD backend most GEMM calls ran under, from the
    /// `gemm.backend.<name>` counters — without it a GFLOP/s number can't
    /// be compared across hosts or `CAE_SIMD` settings.
    pub gemm_backend: Option<&'static str>,
    /// Mean of the `pool.queue_depth` gauge (submitters waiting per job).
    pub pool_mean_queue_depth: Option<f64>,
    /// Mean ÷ max queue depth: how evenly the pool's capacity was used.
    pub pool_utilization: Option<f64>,
}

/// A reconstructed profile: span forest, per-name aggregates and derived
/// throughput.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Every recorded span, as tree nodes (start-time order).
    pub nodes: Vec<ProfileNode>,
    /// Indices of roots (spans whose parent was absent), start-time order.
    pub roots: Vec<usize>,
    /// Per-name aggregates over the raw events.
    pub stats: BTreeMap<String, NameProfile>,
    /// Whether the source trace dropped raw events to a per-thread cap —
    /// self times then under-count the dropped subtrees.
    pub truncated: bool,
    /// How many raw span events the source trace dropped.
    pub dropped_spans: u64,
    /// Counter/gauge-derived throughput metrics.
    pub derived: DerivedMetrics,
}

/// Error parsing a `trace_<stem>.jsonl` file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace jsonl line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl Profile {
    /// Builds a profile from a drained trace: the span tree from raw
    /// events, plus derived metrics from its counters, gauges and exact
    /// span statistics.
    pub fn from_trace(trace: &Trace) -> Profile {
        let spans: Vec<RawSpan> = trace.spans.iter().map(RawSpan::from).collect();
        let mut profile = Profile::from_spans(spans);
        profile.truncated = trace.dropped_spans > 0;
        profile.dropped_spans = trace.dropped_spans;
        profile.derived.gemm_gflops = match (
            trace.counters.get("gemm.flops"),
            trace.span_stats.get("gemm"),
        ) {
            (Some(&flops), Some(stat)) if stat.total_ns > 0 => {
                Some(flops as f64 / stat.total_ns as f64)
            }
            _ => None,
        };
        profile.derived.gemm_backend = trace
            .counters
            .iter()
            .filter_map(|(&k, &count)| {
                k.strip_prefix("gemm.backend.").map(|name| (count, name))
            })
            .max()
            .map(|(_, name)| name);
        if let Some(g) = trace.gauges.get("pool.queue_depth") {
            if g.count > 0 {
                let mean = g.sum / g.count as f64;
                profile.derived.pool_mean_queue_depth = Some(mean);
                if g.max > 0.0 {
                    profile.derived.pool_utilization = Some(mean / g.max);
                }
            }
        }
        profile
    }

    /// Builds a profile from raw span events alone. Events may arrive in
    /// any order (a JSONL file may have been filtered or re-sorted); the
    /// tree is reconstructed purely from ids.
    pub fn from_spans(mut spans: Vec<RawSpan>) -> Profile {
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut nodes: Vec<ProfileNode> = spans
            .into_iter()
            .map(|span| ProfileNode { span, self_ns: 0, children: Vec::new() })
            .collect();
        let mut roots = Vec::new();
        for i in 0..nodes.len() {
            match nodes[i].span.parent.and_then(|p| index.get(&p)).copied() {
                // A span cannot parent itself even in a corrupted file.
                Some(p) if p != i => nodes[p].children.push(i),
                _ => roots.push(i),
            }
        }
        for i in 0..nodes.len() {
            let child_ns: u64 = nodes[i]
                .children
                .iter()
                .map(|&c| nodes[c].span.dur_ns)
                .sum();
            nodes[i].self_ns = nodes[i].span.dur_ns.saturating_sub(child_ns);
        }
        let mut durs: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
        let mut stats: BTreeMap<String, NameProfile> = BTreeMap::new();
        for node in &nodes {
            let st = stats.entry(node.span.name.clone()).or_default();
            st.count += 1;
            st.total_ns += node.span.dur_ns;
            st.self_ns += node.self_ns;
            durs.entry(node.span.name.as_str()).or_default().push(node.span.dur_ns);
        }
        let percentiles: Vec<(String, u64, u64)> = durs
            .into_iter()
            .map(|(name, mut ds)| {
                ds.sort_unstable();
                (name.to_owned(), nearest_rank(&ds, 50), nearest_rank(&ds, 95))
            })
            .collect();
        for (name, p50, p95) in percentiles {
            let st = stats.get_mut(&name).expect("stat exists for every name");
            st.p50_ns = p50;
            st.p95_ns = p95;
        }
        Profile { nodes, roots, stats, ..Profile::default() }
    }

    /// Parses a `trace_<stem>.jsonl` file. Span lines are consumed in any
    /// order; series lines (and other non-span objects) are skipped.
    /// Derived counter/gauge metrics are unavailable from JSONL.
    ///
    /// # Errors
    /// Returns a [`ParseError`] naming the first malformed line.
    pub fn from_jsonl(text: &str) -> Result<Profile, ParseError> {
        let mut spans = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(span) = parse_span_line(line)
                .map_err(|message| ParseError { line: i + 1, message })?
            {
                spans.push(span);
            }
        }
        Ok(Profile::from_spans(spans))
    }

    /// Index of the `experiment` root, when one was recorded.
    fn experiment_index(&self) -> Option<usize> {
        self.roots
            .iter()
            .copied()
            .find(|&r| self.nodes[r].span.name == "experiment")
    }

    /// The root node of the `experiment` span, when one was recorded.
    pub fn experiment_root(&self) -> Option<&ProfileNode> {
        self.experiment_index().map(|r| &self.nodes[r])
    }

    /// Summed self time of the subtree under node `root`.
    fn subtree_self_ns(&self, root: usize) -> u64 {
        let mut stack = vec![root];
        let mut self_sum = 0u64;
        while let Some(i) = stack.pop() {
            self_sum += self.nodes[i].self_ns;
            stack.extend_from_slice(&self.nodes[i].children);
        }
        self_sum
    }

    /// `(experiment duration, summed self time of its subtree)` — with a
    /// complete (untruncated) trace the two agree exactly, so the
    /// experiment tree's rows provably account for its wall-clock.
    pub fn experiment_coverage(&self) -> Option<(u64, u64)> {
        let root = self.experiment_index()?;
        Some((self.nodes[root].span.dur_ns, self.subtree_self_ns(root)))
    }

    /// `(root count, summed self time)` of the span trees outside the
    /// `experiment` tree; `None` without an experiment root. Under
    /// parallel cells a pool thread has no span open when it picks up a
    /// cell, so that cell roots its own tree and runs concurrently with
    /// the experiment span. This self time plus the experiment subtree's
    /// is what the self-time table's rows sum to.
    pub(crate) fn outside_experiment(&self) -> Option<(usize, u64)> {
        let exp = self.experiment_index()?;
        let others: Vec<usize> = self.roots.iter().copied().filter(|&r| r != exp).collect();
        Some((others.len(), others.iter().map(|&r| self.subtree_self_ns(r)).sum()))
    }

    /// The critical path from the `experiment` root (falling back to the
    /// longest root): at each level, descend into the heaviest child.
    /// Returns `(name, dur_ns)` pairs from the root down.
    pub fn critical_path(&self) -> Vec<(String, u64)> {
        let start = self.experiment_index().or_else(|| {
            self.roots
                .iter()
                .copied()
                .max_by_key(|&r| self.nodes[r].span.dur_ns)
        });
        let mut path = Vec::new();
        let mut cursor = start;
        while let Some(i) = cursor {
            let node = &self.nodes[i];
            path.push((node.span.name.clone(), node.span.dur_ns));
            cursor = node
                .children
                .iter()
                .copied()
                .max_by_key(|&c| self.nodes[c].span.dur_ns);
        }
        path
    }

    /// Flamegraph-folded stacks: one `a;b;c self_ns` line per unique stack
    /// (semicolon-joined names root→leaf), self time aggregated over every
    /// occurrence, lines sorted for determinism. Pipe into any standard
    /// `flamegraph.pl`-compatible renderer.
    pub fn folded(&self) -> String {
        let mut folded: BTreeMap<String, u64> = BTreeMap::new();
        let mut stack: Vec<(usize, String)> = self
            .roots
            .iter()
            .map(|&r| (r, self.nodes[r].span.name.clone()))
            .collect();
        while let Some((i, path)) = stack.pop() {
            let node = &self.nodes[i];
            if node.self_ns > 0 {
                *folded.entry(path.clone()).or_insert(0) += node.self_ns;
            }
            for &c in &node.children {
                stack.push((c, format!("{path};{}", self.nodes[c].span.name)));
            }
        }
        let mut out = String::new();
        for (path, self_ns) in folded {
            let _ = writeln!(out, "{path} {self_ns}");
        }
        out
    }

    /// Renders the per-name self-time table (sorted by self time,
    /// heaviest first) plus coverage, critical path and derived-throughput
    /// footers — the console answer to "where did the time go?".
    pub fn self_time_table(&self) -> String {
        let mut rows: Vec<(&String, &NameProfile)> = self.stats.iter().collect();
        rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
        let name_w = rows
            .iter()
            .map(|(n, _)| n.len())
            .chain(std::iter::once("span".len()))
            .max()
            .unwrap_or(4)
            + 2;
        let total_self: u64 = rows.iter().map(|(_, s)| s.self_ns).sum();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:name_w$}{:>8}{:>12}{:>12}{:>7}{:>12}{:>12}",
            "span", "count", "total_ms", "self_ms", "self%", "p50_us", "p95_us"
        );
        for (name, st) in &rows {
            let pct = if total_self > 0 {
                st.self_ns as f64 / total_self as f64 * 100.0
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:name_w$}{:>8}{:>12.2}{:>12.2}{:>7.1}{:>12.1}{:>12.1}",
                name,
                st.count,
                st.total_ns as f64 / 1e6,
                st.self_ns as f64 / 1e6,
                pct,
                st.p50_ns as f64 / 1e3,
                st.p95_ns as f64 / 1e3,
            );
        }
        if let Some((root_ns, self_sum)) = self.experiment_coverage() {
            let pct = if root_ns > 0 {
                self_sum as f64 / root_ns as f64 * 100.0
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "self-time coverage: {:.2}% of the experiment span ({:.2}s)",
                pct,
                root_ns as f64 / 1e9
            );
        }
        if let Some((roots, outside_ns)) = self.outside_experiment() {
            let _ = writeln!(
                out,
                "outside the experiment span: {roots} root span(s), {:.2}s self time; rows sum to {:.2}s",
                outside_ns as f64 / 1e9,
                total_self as f64 / 1e9
            );
        }
        let path = self.critical_path();
        if !path.is_empty() {
            let rendered: Vec<String> = path
                .iter()
                .map(|(n, d)| format!("{n} ({:.1}ms)", *d as f64 / 1e6))
                .collect();
            let _ = writeln!(out, "critical path: {}", rendered.join(" -> "));
        }
        if let Some(gflops) = self.derived.gemm_gflops {
            let backend = self
                .derived
                .gemm_backend
                .map_or(String::new(), |b| format!(" (backend: {b})"));
            let _ = writeln!(out, "gemm throughput: {gflops:.2} GFLOP/s{backend}");
        }
        if let Some(depth) = self.derived.pool_mean_queue_depth {
            let util = self
                .derived
                .pool_utilization
                .map_or(String::new(), |u| format!(" (utilization {:.0}%)", u * 100.0));
            let _ = writeln!(out, "pool mean queue depth: {depth:.2}{util}");
        }
        if self.truncated {
            let _ = writeln!(
                out,
                "WARNING: trace truncated ({} span events dropped to the per-thread cap); \
                 self times under-count the dropped subtrees",
                self.dropped_spans
            );
        }
        out
    }

    /// Writes the folded stacks to `dir/PROFILE_<stem>.txt` (creating
    /// `dir` first) and returns the path.
    ///
    /// # Errors
    /// Returns any I/O error from creating the directory or writing.
    pub fn save(&self, dir: &Path, stem: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("PROFILE_{stem}.txt"));
        std::fs::write(&path, self.folded())?;
        Ok(path)
    }
}

// ---------------------------------------------------------------------------
// Trace diff: regression attribution
// ---------------------------------------------------------------------------

/// One span name's baseline-vs-current comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffRow {
    /// Span name (present in either profile).
    pub name: String,
    /// Baseline aggregates (zeroed when the span is new).
    pub base: NameProfile,
    /// Current aggregates (zeroed when the span disappeared).
    pub cur: NameProfile,
    /// Current minus baseline summed self time, nanoseconds (positive =
    /// the span got slower).
    pub delta_self_ns: i64,
    /// Current minus baseline summed total time, nanoseconds.
    pub delta_total_ns: i64,
}

/// A name-aligned comparison of two profiles, rows sorted by absolute
/// self-time delta (largest contribution first, names breaking ties).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDiff {
    /// Per-name rows, contribution order.
    pub rows: Vec<DiffRow>,
    /// Summed self time across the baseline profile, nanoseconds.
    pub base_self_ns: u64,
    /// Summed self time across the current profile, nanoseconds.
    pub cur_self_ns: u64,
}

/// Aligns two span trees by name and reports per-span self-time deltas:
/// the attribution step behind `cae-dfkd trace-diff`. Spans appearing in
/// only one profile compare against zero, so added or removed phases
/// surface as whole-size deltas.
pub fn diff(baseline: &Profile, current: &Profile) -> TraceDiff {
    let mut names: Vec<&String> = baseline.stats.keys().collect();
    names.extend(current.stats.keys());
    names.sort();
    names.dedup();
    let mut rows: Vec<DiffRow> = names
        .into_iter()
        .map(|name| {
            let base = baseline.stats.get(name).copied().unwrap_or_default();
            let cur = current.stats.get(name).copied().unwrap_or_default();
            DiffRow {
                name: name.clone(),
                base,
                cur,
                delta_self_ns: cur.self_ns as i64 - base.self_ns as i64,
                delta_total_ns: cur.total_ns as i64 - base.total_ns as i64,
            }
        })
        .collect();
    rows.sort_by(|a, b| {
        b.delta_self_ns
            .unsigned_abs()
            .cmp(&a.delta_self_ns.unsigned_abs())
            .then_with(|| a.name.cmp(&b.name))
    });
    TraceDiff {
        rows,
        base_self_ns: baseline.stats.values().map(|s| s.self_ns).sum(),
        cur_self_ns: current.stats.values().map(|s| s.self_ns).sum(),
    }
}

impl TraceDiff {
    /// The span that got slower by the most self time — the "guilty span"
    /// a regression report should name. `None` when nothing slowed down.
    pub fn top_regression(&self) -> Option<&DiffRow> {
        // Rows are contribution-ordered, so the first positive delta is
        // the largest one.
        self.rows.iter().find(|r| r.delta_self_ns > 0)
    }

    /// Renders up to `limit` rows as a fixed-width table (delta, percent
    /// of the total absolute delta, counts) with a summary footer.
    pub fn render(&self, limit: usize) -> String {
        let total_abs: u64 = self.rows.iter().map(|r| r.delta_self_ns.unsigned_abs()).sum();
        let shown = self.rows.iter().take(limit);
        let name_w = shown
            .clone()
            .map(|r| r.name.len())
            .chain(std::iter::once("span".len()))
            .max()
            .unwrap_or(4)
            + 2;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:name_w$}{:>14}{:>14}{:>14}{:>8}{:>14}",
            "span", "base_self_ms", "cur_self_ms", "delta_ms", "share%", "count"
        );
        for r in shown {
            let share = if total_abs > 0 {
                r.delta_self_ns.unsigned_abs() as f64 / total_abs as f64 * 100.0
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:name_w$}{:>14.3}{:>14.3}{:>+14.3}{:>8.1}{:>14}",
                r.name,
                r.base.self_ns as f64 / 1e6,
                r.cur.self_ns as f64 / 1e6,
                r.delta_self_ns as f64 / 1e6,
                share,
                format!("{}->{}", r.base.count, r.cur.count),
            );
        }
        if self.rows.len() > limit {
            let _ = writeln!(out, "... {} more spans elided", self.rows.len() - limit);
        }
        let delta = self.cur_self_ns as i64 - self.base_self_ns as i64;
        let _ = writeln!(
            out,
            "total self time: {:.3}ms -> {:.3}ms ({:+.3}ms)",
            self.base_self_ns as f64 / 1e6,
            self.cur_self_ns as f64 / 1e6,
            delta as f64 / 1e6,
        );
        match self.top_regression() {
            Some(top) => {
                let _ = writeln!(
                    out,
                    "top-delta span: {} ({:+.3}ms self)",
                    top.name,
                    top.delta_self_ns as f64 / 1e6,
                );
            }
            None => {
                let _ = writeln!(out, "top-delta span: none (no span got slower)");
            }
        }
        out
    }
}

/// Nearest-rank percentile (`pct` in 0..=100) over an ascending-sorted
/// slice: the `ceil(n·pct/100)`-th smallest value (the smallest at
/// `pct = 0`), computed in integers; 0 when empty. The one percentile
/// definition of the workspace: profiles and the serve bench both use it.
pub fn nearest_rank(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 * pct).div_ceil(100).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Parses one JSONL line; `Ok(None)` for non-span objects (series points).
fn parse_span_line(line: &str) -> Result<Option<RawSpan>, String> {
    let fields = parse_flat_object(line)?;
    if fields.iter().any(|(k, _)| k == "series") {
        return Ok(None);
    }
    let str_field = |key: &str| -> Result<&str, String> {
        fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| format!("missing field '{key}'"))
    };
    let u64_field = |key: &str| -> Result<u64, String> {
        str_field(key)?
            .parse::<u64>()
            .map_err(|_| format!("field '{key}' is not a u64"))
    };
    let parent = match str_field("parent")? {
        "null" => None,
        v => Some(v.parse::<u64>().map_err(|_| "field 'parent' is not a u64".to_owned())?),
    };
    Ok(Some(RawSpan {
        name: str_field("name")?.to_owned(),
        id: u64_field("id")?,
        parent,
        thread: u64_field("thread")?,
        start_ns: u64_field("start_ns")?,
        dur_ns: u64_field("dur_ns")?,
    }))
}

/// Minimal scanner for one flat JSON object line as this crate emits them:
/// returns `(key, raw value)` pairs, with string values unescaped and
/// nested objects (tags) returned raw and otherwise ignored.
fn parse_flat_object(line: &str) -> Result<Vec<(String, String)>, String> {
    let inner = line
        .strip_prefix('{')
        .and_then(|l| l.strip_suffix('}'))
        .ok_or("not a JSON object")?;
    let bytes = inner.as_bytes();
    let mut fields = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let (key, next) = parse_string(bytes, pos)?;
        pos = skip_ws(bytes, next);
        if bytes.get(pos) != Some(&b':') {
            return Err(format!("expected ':' after key '{key}'"));
        }
        pos = skip_ws(bytes, pos + 1);
        let (value, next) = parse_value(bytes, pos)?;
        fields.push((key, value));
        pos = skip_ws(bytes, next);
        match bytes.get(pos) {
            Some(b',') => pos = skip_ws(bytes, pos + 1),
            None => break,
            Some(_) => return Err("expected ',' between fields".to_owned()),
        }
    }
    Ok(fields)
}

fn skip_ws(bytes: &[u8], mut pos: usize) -> usize {
    while bytes.get(pos).is_some_and(u8::is_ascii_whitespace) {
        pos += 1;
    }
    pos
}

/// Parses a JSON string starting at `pos`; returns (unescaped, next pos).
fn parse_string(bytes: &[u8], pos: usize) -> Result<(String, usize), String> {
    if bytes.get(pos) != Some(&b'"') {
        return Err("expected '\"'".to_owned());
    }
    let mut out = String::new();
    let mut i = pos + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => return Ok((out, i + 1)),
            b'\\' => {
                let esc = bytes.get(i + 1).ok_or("truncated escape")?;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = bytes
                            .get(i + 2..i + 6)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_owned())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        i += 4;
                    }
                    other => return Err(format!("unknown escape '\\{}'", *other as char)),
                }
                i += 2;
            }
            _ => {
                // Advance over one UTF-8 scalar.
                let s = &bytes[i..];
                let ch_len = std::str::from_utf8(s)
                    .map(|s| s.chars().next().map_or(1, char::len_utf8))
                    .unwrap_or(1);
                out.push_str(std::str::from_utf8(&s[..ch_len]).map_err(|_| "bad utf-8")?);
                i += ch_len;
            }
        }
    }
    Err("unterminated string".to_owned())
}

/// Parses one JSON value (string / number / null / nested object) starting
/// at `pos`; returns its raw textual form and the next position.
fn parse_value(bytes: &[u8], pos: usize) -> Result<(String, usize), String> {
    match bytes.get(pos) {
        Some(b'"') => parse_string(bytes, pos),
        Some(b'{') => {
            let mut depth = 0usize;
            let mut i = pos;
            let mut in_str = false;
            while i < bytes.len() {
                match bytes[i] {
                    b'"' if i == 0 || bytes[i - 1] != b'\\' => in_str = !in_str,
                    b'{' if !in_str => depth += 1,
                    b'}' if !in_str => {
                        depth -= 1;
                        if depth == 0 {
                            let raw = std::str::from_utf8(&bytes[pos..=i])
                                .map_err(|_| "bad utf-8")?;
                            return Ok((raw.to_owned(), i + 1));
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
            Err("unterminated object".to_owned())
        }
        Some(_) => {
            let start = pos;
            let mut i = pos;
            while i < bytes.len() && !matches!(bytes[i], b',' | b'}') {
                i += 1;
            }
            let raw = std::str::from_utf8(&bytes[start..i]).map_err(|_| "bad utf-8")?;
            Ok((raw.trim().to_owned(), i))
        }
        None => Err("expected a value".to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, id: u64, parent: Option<u64>, start_ns: u64, dur_ns: u64) -> RawSpan {
        RawSpan { name: name.to_owned(), id, parent, thread: 0, start_ns, dur_ns }
    }

    /// experiment(1000) -> cell(600) -> step(200), plus a second cell(250).
    fn sample_spans() -> Vec<RawSpan> {
        vec![
            span("experiment", 1, None, 0, 1000),
            span("scheduler.cell", 2, Some(1), 10, 600),
            span("trainer.step", 3, Some(2), 20, 200),
            span("scheduler.cell", 4, Some(1), 620, 250),
        ]
    }

    #[test]
    fn tree_reconstruction_and_self_times() {
        let p = Profile::from_spans(sample_spans());
        assert_eq!(p.roots.len(), 1);
        let root = &p.nodes[p.roots[0]];
        assert_eq!(root.span.name, "experiment");
        assert_eq!(root.self_ns, 1000 - 600 - 250);
        assert_eq!(p.stats["scheduler.cell"].count, 2);
        assert_eq!(p.stats["scheduler.cell"].total_ns, 850);
        assert_eq!(p.stats["scheduler.cell"].self_ns, (600 - 200) + 250);
        assert_eq!(p.stats["trainer.step"].self_ns, 200);
        // Self times over the experiment subtree sum exactly to the root.
        let (root_ns, self_sum) = p.experiment_coverage().expect("experiment root");
        assert_eq!(root_ns, 1000);
        assert_eq!(self_sum, 1000);
    }

    #[test]
    fn critical_path_descends_heaviest_children() {
        let p = Profile::from_spans(sample_spans());
        let path = p.critical_path();
        let names: Vec<&str> = path.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["experiment", "scheduler.cell", "trainer.step"]);
        assert_eq!(path[1].1, 600, "heaviest cell, not the later one");
    }

    #[test]
    fn folded_stacks_aggregate_by_path() {
        let p = Profile::from_spans(sample_spans());
        let folded = p.folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert!(lines.contains(&"experiment 150"));
        // Both cells' self time lands on one folded stack line.
        assert!(lines.contains(&"experiment;scheduler.cell 650"));
        assert!(lines.contains(&"experiment;scheduler.cell;trainer.step 200"));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let spans: Vec<RawSpan> = (0..100)
            .map(|i| span("s", i + 1, None, i * 10, (i + 1) * 10))
            .collect();
        let p = Profile::from_spans(spans);
        assert_eq!(p.stats["s"].p50_ns, 500);
        assert_eq!(p.stats["s"].p95_ns, 950);
        assert_eq!(nearest_rank(&[7], 50), 7);
        assert_eq!(nearest_rank(&[], 95), 0);
    }

    #[test]
    fn out_of_order_jsonl_reconstructs_the_same_tree() {
        // Children before parents, interleaved with series lines and blank
        // lines: ids, not file order, define the tree.
        let jsonl = "\n{\"series\":\"student.loss\",\"step\":0,\"value\":2.5}\n\
            {\"name\":\"trainer.step\",\"id\":3,\"parent\":2,\"thread\":0,\"start_ns\":20,\"dur_ns\":200}\n\
            {\"name\":\"scheduler.cell\",\"id\":4,\"parent\":1,\"thread\":0,\"start_ns\":620,\"dur_ns\":250}\n\
            {\"name\":\"scheduler.cell\",\"id\":2,\"parent\":1,\"thread\":0,\"start_ns\":10,\"dur_ns\":600,\"tags\":{\"cell\":0,\"cell_seed\":18446744073709551615}}\n\
            {\"name\":\"experiment\",\"id\":1,\"parent\":null,\"thread\":0,\"start_ns\":0,\"dur_ns\":1000,\"tags\":{\"id\":\"table02\"}}\n";
        let from_file = Profile::from_jsonl(jsonl).expect("parses");
        let from_memory = Profile::from_spans(sample_spans());
        assert_eq!(from_file.roots, from_memory.roots);
        assert_eq!(from_file.stats, from_memory.stats);
        let tree_of = |p: &Profile| -> Vec<(String, u64, Vec<usize>)> {
            p.nodes
                .iter()
                .map(|n| (n.span.name.clone(), n.self_ns, n.children.clone()))
                .collect()
        };
        assert_eq!(tree_of(&from_file), tree_of(&from_memory));
    }

    #[test]
    fn malformed_jsonl_names_the_line() {
        let err = Profile::from_jsonl("{\"name\":\"a\",\"id\":1}\nnot json\n")
            .expect_err("second line is malformed");
        // Line 1 is missing fields, so it errors first.
        assert_eq!(err.line, 1);
        assert!(err.to_string().contains("line 1"));
        let err = Profile::from_jsonl("not json\n").expect_err("must fail");
        assert!(err.message.contains("not a JSON object"));
    }

    #[test]
    fn orphans_become_roots_and_truncation_is_flagged() {
        // Parent id 99 was dropped to the event cap: the child must still
        // appear, as its own root.
        let p = Profile::from_spans(vec![
            span("experiment", 1, None, 0, 1000),
            span("orphan", 5, Some(99), 50, 40),
        ]);
        assert_eq!(p.roots.len(), 2);
        let trace = Trace { dropped_spans: 3, ..Trace::default() };
        let p = Profile::from_trace(&trace);
        assert!(p.truncated);
        assert!(p.self_time_table().contains("WARNING: trace truncated"));
    }

    #[test]
    fn derived_metrics_come_from_counters_and_gauges() {
        let mut trace = Trace::default();
        trace.counters.insert("gemm.flops", 4_000_000);
        trace.span_stats.insert(
            "gemm",
            crate::SpanStat { count: 10, total_ns: 2_000_000, min_ns: 1, max_ns: 1_000_000 },
        );
        trace.gauges.insert(
            "pool.queue_depth",
            crate::GaugeStat { count: 4, last: 1.0, min: 1.0, max: 4.0, sum: 8.0 },
        );
        let p = Profile::from_trace(&trace);
        assert_eq!(p.derived.gemm_gflops, Some(2.0));
        assert_eq!(p.derived.gemm_backend, None);
        assert_eq!(p.derived.pool_mean_queue_depth, Some(2.0));
        assert_eq!(p.derived.pool_utilization, Some(0.5));
        let table = p.self_time_table();
        assert!(table.contains("gemm throughput: 2.00 GFLOP/s"));
        assert!(!table.contains("backend:"), "no backend counter, no suffix");
        assert!(table.contains("pool mean queue depth: 2.00 (utilization 50%)"));
    }

    #[test]
    fn gemm_backend_comes_from_the_majority_counter() {
        let mut trace = Trace::default();
        trace.counters.insert("gemm.flops", 4_000_000);
        trace.span_stats.insert(
            "gemm",
            crate::SpanStat { count: 10, total_ns: 2_000_000, min_ns: 1, max_ns: 1_000_000 },
        );
        // A forced-backend run may mix counters (e.g. a test flipped the
        // override mid-process); the report names the majority backend.
        trace.counters.insert("gemm.backend.scalar", 2);
        trace.counters.insert("gemm.backend.avx2", 8);
        let p = Profile::from_trace(&trace);
        assert_eq!(p.derived.gemm_backend, Some("avx2"));
        assert!(p
            .self_time_table()
            .contains("gemm throughput: 2.00 GFLOP/s (backend: avx2)"));
    }

    #[test]
    fn save_writes_folded_artifact() {
        let p = Profile::from_spans(sample_spans());
        let dir = std::env::temp_dir().join(format!("cae_profile_test_{}", std::process::id()));
        let path = p.save(&dir, "demo").expect("save succeeds");
        assert!(path.ends_with("PROFILE_demo.txt"));
        let text = std::fs::read_to_string(&path).expect("readable");
        assert_eq!(text, p.folded());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_trace_produces_an_empty_but_renderable_profile() {
        for p in [
            Profile::from_spans(Vec::new()),
            Profile::from_jsonl("").expect("empty jsonl parses"),
            Profile::from_trace(&Trace::default()),
        ] {
            assert!(p.nodes.is_empty());
            assert!(p.roots.is_empty());
            assert!(p.stats.is_empty());
            assert!(p.critical_path().is_empty());
            assert_eq!(p.experiment_coverage(), None);
            assert_eq!(p.folded(), "");
            // The table must still render (header only, no footers) rather
            // than panic on empty aggregates.
            let table = p.self_time_table();
            assert!(table.starts_with("span"));
            assert!(!table.contains("self-time coverage"));
            assert!(!table.contains("critical path"));
        }
    }

    #[test]
    fn single_sample_percentiles_collapse_to_the_sample() {
        let p = Profile::from_spans(vec![span("solo", 1, None, 0, 777)]);
        let st = &p.stats["solo"];
        assert_eq!(st.count, 1);
        assert_eq!(st.p50_ns, 777);
        assert_eq!(st.p95_ns, 777, "one sample is every percentile");
        assert_eq!(st.total_ns, 777);
        assert_eq!(st.self_ns, 777);
    }

    #[test]
    fn missing_root_from_truncated_jsonl_still_profiles() {
        // A truncated file lost the experiment root (id 1): every child
        // whose parent is absent becomes its own root, the critical path
        // falls back to the heaviest surviving root, and coverage (which
        // is defined against the experiment span) reports absence.
        let jsonl = "\
            {\"name\":\"scheduler.cell\",\"id\":2,\"parent\":1,\"thread\":0,\"start_ns\":10,\"dur_ns\":600}\n\
            {\"name\":\"trainer.step\",\"id\":3,\"parent\":2,\"thread\":0,\"start_ns\":20,\"dur_ns\":200}\n\
            {\"name\":\"scheduler.cell\",\"id\":4,\"parent\":1,\"thread\":0,\"start_ns\":620,\"dur_ns\":250}\n";
        let p = Profile::from_jsonl(jsonl).expect("parses");
        assert_eq!(p.roots.len(), 2, "both orphaned cells become roots");
        assert!(p.experiment_root().is_none());
        assert_eq!(p.experiment_coverage(), None);
        let path = p.critical_path();
        let names: Vec<&str> = path.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["scheduler.cell", "trainer.step"]);
        // The intact subtree still has exact self times.
        assert_eq!(p.stats["scheduler.cell"].self_ns, (600 - 200) + 250);
    }

    #[test]
    fn diff_aligns_by_name_and_sorts_by_contribution() {
        let base = Profile::from_spans(sample_spans());
        // Current run: the step got 300ns slower, one cell shrank by
        // 50ns, and a new span appeared.
        let cur = Profile::from_spans(vec![
            span("experiment", 1, None, 0, 1300),
            span("scheduler.cell", 2, Some(1), 10, 900),
            span("trainer.step", 3, Some(2), 20, 500),
            span("scheduler.cell", 4, Some(1), 920, 200),
            span("novel.phase", 5, Some(1), 1150, 20),
        ]);
        let d = diff(&base, &cur);
        assert_eq!(d.base_self_ns, 1000);
        assert_eq!(d.cur_self_ns, 1300);
        let top = d.top_regression().expect("something slowed down");
        assert_eq!(top.name, "trainer.step");
        assert_eq!(top.delta_self_ns, 300);
        // Contribution order: |delta| descending.
        let names: Vec<&str> = d.rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names[0], "trainer.step");
        let novel = d.rows.iter().find(|r| r.name == "novel.phase").expect("new span present");
        assert_eq!(novel.base.count, 0, "new spans compare against zero");
        assert_eq!(novel.delta_self_ns, 20);
        let rendered = d.render(10);
        assert!(rendered.contains("top-delta span: trainer.step (+0.000ms self)")
            || rendered.contains("top-delta span: trainer.step"));
        assert!(rendered.contains("trainer.step"));
        assert!(rendered.contains("1->1"));
    }

    #[test]
    fn diff_render_elides_and_handles_no_regression() {
        let base = Profile::from_spans(sample_spans());
        let d = diff(&base, &base);
        assert!(d.top_regression().is_none(), "identical profiles have no regression");
        let rendered = d.render(1);
        assert!(rendered.contains("top-delta span: none"));
        assert!(rendered.contains("more spans elided"));
        assert!(rendered.contains("total self time: 0.001ms -> 0.001ms (+0.000ms)"));
        // Empty vs empty renders a header and clean totals.
        let empty = diff(&Profile::default(), &Profile::default());
        assert!(empty.rows.is_empty());
        assert!(empty.render(5).contains("total self time: 0.000ms -> 0.000ms"));
    }

    #[test]
    fn self_time_table_lists_heaviest_first() {
        let p = Profile::from_spans(sample_spans());
        let table = p.self_time_table();
        let cell_pos = table.find("scheduler.cell").expect("cell row");
        let exp_pos = table.find("experiment").expect("experiment row");
        assert!(cell_pos < exp_pos, "650ns self beats 150ns self:\n{table}");
        assert!(table.contains("self-time coverage: 100.00%"));
        assert!(table.contains("outside the experiment span: 0 root span(s), 0.00s self time"));
        assert!(table.contains("critical path: experiment"));
    }

    #[test]
    fn orphan_root_self_time_is_reported_outside_the_experiment() {
        // A cell a pool thread ran has no open parent there: it roots its
        // own tree beside the experiment's, and its self time must show.
        let s = 1_000_000_000;
        let mut spans = sample_spans();
        spans.push(span("scheduler.cell", 7, None, 30, 3 * s));
        spans.push(span("trainer.step", 8, Some(7), 40, s));
        let p = Profile::from_spans(spans);
        assert_eq!(p.roots.len(), 2);
        assert_eq!(p.experiment_coverage(), Some((1000, 1000)));
        assert_eq!(p.outside_experiment(), Some((1, 3 * s)));
        let rows: u64 = p.stats.values().map(|st| st.self_ns).sum();
        assert_eq!(rows, 1000 + 3 * s, "experiment tree + outside = rows");
        let table = p.self_time_table();
        let line = "outside the experiment span: 1 root span(s), 3.00s self time; rows sum to 3.00s";
        assert!(table.contains(line), "{table}");
        let no_experiment = Profile::from_spans(vec![span("cell", 1, None, 0, 5)]);
        assert_eq!(no_experiment.outside_experiment(), None);
    }
}
