//! # cae-trace
//!
//! Hierarchical spans, monotonic counters and scalar gauges for the
//! CAE-DFKD workspace, designed around two constraints:
//!
//! 1. **Near-zero disabled overhead.** Every recording entry point starts
//!    with [`enabled`] — one relaxed atomic load — and returns immediately
//!    when tracing is off (the default). Hot kernels (GEMM, the worker
//!    pool) can therefore stay instrumented unconditionally.
//! 2. **No cross-thread contention on the hot path.** Each thread records
//!    into its own buffer (registered once in a process-global list), so
//!    cell-parallel experiment runs — where whole table cells execute on
//!    [`cae_tensor::pool`] workers — produce one coherent trace without the
//!    workers ever contending on a shared sink. [`drain`] aggregates and
//!    clears every thread's buffer.
//!
//! Tracing is observational only: it never touches RNG state or model
//! state, so reports are byte-identical with tracing on and off (enforced
//! by `scripts/tier1.sh` and the `bench_trace` benchmark, which also fails
//! when enabling tracing costs more than 3% of process CPU time).
//!
//! ## Model
//!
//! * **Spans** ([`span`], [`span_with`]) measure a wall-clock interval.
//!   They nest per thread: a span opened while another span on the same
//!   thread is active records it as its parent, giving a per-thread tree.
//!   Spans carry static names plus optional tags (e.g. a cell index and
//!   its RNG seed). Raw span events are capped at 65 536 per thread;
//!   overflow is counted, and aggregated per-name statistics are always
//!   exact.
//! * **Counters** ([`counter`], [`counters`]) accumulate monotonically
//!   (GEMM calls, FLOPs, cache hits).
//! * **Gauges** ([`gauge`]) sample a scalar (pool task count per job);
//!   last/min/max/mean are aggregated.
//! * **Stat-only spans** ([`span_stat`]) time an interval into the
//!   aggregated per-name statistics *without* recording a raw event — the
//!   right tool for sites called millions of times per run (the GEMM
//!   kernel), where raw events would instantly exhaust the per-thread cap.
//!   [`stat_ns`] records a duration measured elsewhere into the same
//!   statistics (the serve worker's per-request phases).
//! * **Series** ([`series`]) record `(step, value)` training curves
//!   (student/generator losses) with the same thread-local buffering and
//!   disabled-path relaxed-load gate as spans; raw points are capped at
//!   65 536 per thread with overflow counted.
//!   The [`health`] module analyses drained series for NaN/Inf, divergence
//!   and plateaus; the [`profile`] module reconstructs span trees into
//!   self-time profiles and flamegraph-folded stacks.
//!
//! ## Enabling
//!
//! Reads `CAE_TRACE` once on first use through the [`knob`] grammar's
//! opt-in rule: `1`, `true`, `on` or `yes` enable tracing. [`enabled`] is
//! the only telemetry gate. Tests and benchmarks can override with
//! [`force_enabled`] and return to the environment's setting with
//! [`reset_to_env`].
//!
//! ## Export
//!
//! [`drain`] returns a [`Trace`]; [`Trace::save`] writes the raw span
//! events as JSONL (`trace_<stem>.jsonl`) plus an aggregated summary
//! (`TRACE_<stem>.json`) next to the experiment report JSONs. [`snapshot`] returns the same aggregates without clearing
//! anything; the [`metrics`] exporter writes its summary.

pub mod health;
pub mod knob;
pub mod metrics;
pub mod profile;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Enablement
// ---------------------------------------------------------------------------

const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

/// Latches the `CAE_TRACE` setting — unless a [`force_enabled`] override
/// landed while the environment was being read, which must win (a plain
/// store here would silently undo it).
#[cold]
fn init_from_env() -> bool {
    let on = knob::opt_in("CAE_TRACE");
    let value = if on { STATE_ON } else { STATE_OFF };
    match STATE.compare_exchange(STATE_UNINIT, value, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => on,
        Err(current) => current == STATE_ON,
    }
}

/// Whether tracing is currently enabled. One relaxed atomic load on the
/// fast path; the `CAE_TRACE` env var is consulted on the first call only.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_from_env(),
    }
}

/// Overrides the enablement state (tests and benchmarks). Pair with
/// [`reset_to_env`] to restore the environment's setting.
pub fn force_enabled(on: bool) {
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

/// Restores the enablement state to whatever `CAE_TRACE` dictates.
pub fn reset_to_env() {
    STATE.store(STATE_UNINIT, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Tags
// ---------------------------------------------------------------------------

/// A tag value: an unsigned integer (indices, seeds) or a static string
/// (experiment ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagValue {
    /// Unsigned integer tag (cell index, RNG seed, …).
    U64(u64),
    /// Static string tag (registry id, …).
    Str(&'static str),
}

impl From<u64> for TagValue {
    fn from(v: u64) -> Self {
        TagValue::U64(v)
    }
}

impl From<usize> for TagValue {
    fn from(v: usize) -> Self {
        TagValue::U64(v as u64)
    }
}

impl From<&'static str> for TagValue {
    fn from(v: &'static str) -> Self {
        TagValue::Str(v)
    }
}

/// A `(key, value)` span tag.
pub type Tag = (&'static str, TagValue);

// ---------------------------------------------------------------------------
// Per-thread buffers
// ---------------------------------------------------------------------------

/// One completed span interval.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Span name.
    pub name: &'static str,
    /// Process-unique span id.
    pub id: u64,
    /// Id of the span active on the same thread when this one opened.
    pub parent: Option<u64>,
    /// Recording thread (registration order, not OS id).
    pub thread: u64,
    /// Start offset from the process trace epoch, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Tags attached at open time.
    pub tags: Vec<Tag>,
}

/// Aggregated statistics for one span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanStat {
    /// Number of completed spans.
    pub count: u64,
    /// Total duration, nanoseconds.
    pub total_ns: u64,
    /// Shortest span, nanoseconds.
    pub min_ns: u64,
    /// Longest span, nanoseconds.
    pub max_ns: u64,
}

impl SpanStat {
    fn record(&mut self, dur_ns: u64) {
        if self.count == 0 {
            self.min_ns = dur_ns;
            self.max_ns = dur_ns;
        } else {
            self.min_ns = self.min_ns.min(dur_ns);
            self.max_ns = self.max_ns.max(dur_ns);
        }
        self.count += 1;
        self.total_ns += dur_ns;
    }

    fn merge(&mut self, other: &SpanStat) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// Aggregated statistics for one gauge name.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeStat {
    /// Number of samples.
    pub count: u64,
    /// Most recent sample (by drain order across threads).
    pub last: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Sum of samples (for the mean).
    pub sum: f64,
}

impl GaugeStat {
    fn new(value: f64) -> Self {
        GaugeStat {
            count: 1,
            last: value,
            min: value,
            max: value,
            sum: value,
        }
    }

    fn record(&mut self, value: f64) {
        self.count += 1;
        self.last = value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sum += value;
    }

    fn merge(&mut self, other: &GaugeStat) {
        self.count += other.count;
        self.last = other.last;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }
}

/// One recorded time-series point: a metric name plus `(step, value)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesEvent {
    /// Series name (`"student.loss"`, `"generator.loss"`, …).
    pub name: &'static str,
    /// Training step the value was observed at.
    pub step: u64,
    /// Observed value (may be non-finite; the health monitor flags those).
    pub value: f64,
}

/// One `(step, value)` point of a drained, per-name series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// Training step.
    pub step: u64,
    /// Observed value.
    pub value: f64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<SpanEvent>,
    dropped_spans: u64,
    span_stats: BTreeMap<&'static str, SpanStat>,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, GaugeStat>,
    series: Vec<SeriesEvent>,
    dropped_series: u64,
}

struct ThreadBuf {
    thread: u64,
    inner: Mutex<Inner>,
}

fn buffers() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static BUFFERS: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
    BUFFERS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Per-thread cap for span events and for series points.
const THREAD_CAP: usize = 65_536;

thread_local! {
    static BUF: Arc<ThreadBuf> = {
        static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
        let buf = Arc::new(ThreadBuf {
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            inner: Mutex::new(Inner::default()),
        });
        buffers()
            .lock()
            .expect("trace buffer registry poisoned")
            .push(buf.clone());
        buf
    };
    /// Ids of the spans currently open on this thread (innermost last).
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

// ---------------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------------

/// Adds `delta` to the counter `name`.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    BUF.with(|buf| {
        let mut inner = buf.inner.lock().expect("trace thread buffer poisoned");
        *inner.counters.entry(name).or_insert(0) += delta;
    });
}

/// Adds several counter deltas under one buffer lock (hot kernels).
#[inline]
pub fn counters(updates: &[(&'static str, u64)]) {
    if !enabled() {
        return;
    }
    BUF.with(|buf| {
        let mut inner = buf.inner.lock().expect("trace thread buffer poisoned");
        for &(name, delta) in updates {
            *inner.counters.entry(name).or_insert(0) += delta;
        }
    });
}

/// Samples the gauge `name`.
#[inline]
pub fn gauge(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    BUF.with(|buf| {
        let mut inner = buf.inner.lock().expect("trace thread buffer poisoned");
        match inner.gauges.entry(name) {
            std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().record(value),
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(GaugeStat::new(value));
            }
        }
    });
}

/// Records one `(step, value)` point of the series `name` (a training
/// curve). Points are buffered per thread up to 65 536; overflow is
/// counted in [`Trace::dropped_series`]. A no-op (one relaxed atomic load)
/// when tracing is disabled.
#[inline]
pub fn series(name: &'static str, step: u64, value: f64) {
    if !enabled() {
        return;
    }
    BUF.with(|buf| {
        let mut inner = buf.inner.lock().expect("trace thread buffer poisoned");
        if inner.series.len() < THREAD_CAP {
            inner.series.push(SeriesEvent { name, step, value });
        } else {
            inner.dropped_series += 1;
        }
    });
}

/// Number of series points currently buffered on *this* thread. Pair with
/// [`take_thread_series_since`] to capture exactly the points a code
/// region recorded (the scheduler uses this to attach training-health
/// verdicts to a failing cell).
pub fn thread_series_mark() -> usize {
    BUF.with(|buf| {
        buf.inner
            .lock()
            .expect("trace thread buffer poisoned")
            .series
            .len()
    })
}

/// Removes and returns this thread's series points recorded after `mark`
/// (as returned by [`thread_series_mark`]). A concurrent [`drain`] may
/// have cleared the buffer already, in which case fewer (possibly zero)
/// points come back. Failed-and-retried work uses this to keep its partial
/// curves out of the globally drained series.
pub fn take_thread_series_since(mark: usize) -> Vec<SeriesEvent> {
    BUF.with(|buf| {
        let mut inner = buf.inner.lock().expect("trace thread buffer poisoned");
        if mark >= inner.series.len() {
            return Vec::new();
        }
        inner.series.split_off(mark)
    })
}

/// Clones every thread's currently buffered series points without clearing
/// anything (unlike [`drain`]). Lets error paths inspect training curves
/// while the trace keeps accumulating for the final drain.
pub fn series_snapshot() -> Vec<SeriesEvent> {
    let buffers: Vec<Arc<ThreadBuf>> = buffers()
        .lock()
        .expect("trace buffer registry poisoned")
        .clone();
    let mut out = Vec::new();
    for buf in buffers {
        out.extend_from_slice(
            &buf.inner.lock().expect("trace thread buffer poisoned").series,
        );
    }
    out
}

/// Guard returned by [`span_stat`]; on drop it records the interval into
/// the aggregated per-name span statistics only — no raw event, no parent
/// stack. Safe for sites called millions of times per run.
pub struct StatSpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

/// Opens a stat-only span: the interval lands in [`Trace::span_stats`]
/// under `name` (count/total/min/max stay exact) but no raw [`SpanEvent`]
/// is recorded, so the per-thread event cap is never consumed. Use for
/// hot kernels (the GEMM micro-kernel) where raw per-call events are
/// unaffordable. A no-op when tracing is disabled.
#[inline]
pub fn span_stat(name: &'static str) -> StatSpanGuard {
    StatSpanGuard {
        name,
        start: enabled().then(Instant::now),
    }
}

impl Drop for StatSpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            stat_ns(self.name, start.elapsed().as_nanos() as u64);
        }
    }
}

/// Records one measured duration of `ns` nanoseconds into
/// [`Trace::span_stats`] under `name`, as a [`span_stat`] guard does on
/// drop — for intervals timed elsewhere (the serve worker's per-request
/// phases). A no-op (one relaxed atomic load) when tracing is disabled.
#[inline]
pub fn stat_ns(name: &'static str, ns: u64) {
    if !enabled() {
        return;
    }
    BUF.with(|buf| {
        let mut inner = buf.inner.lock().expect("trace thread buffer poisoned");
        inner.span_stats.entry(name).or_default().record(ns);
    });
}

struct ActiveSpan {
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    start: Instant,
    start_ns: u64,
    tags: Vec<Tag>,
}

/// Guard returned by [`span`] / [`span_with`]; records the interval when
/// dropped. Not `Send`: a span must close on the thread that opened it.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
    /// Spans are thread-trees; keep the guard on its opening thread.
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Opens a span named `name`. A no-op (no allocation, no lock) when
/// tracing is disabled.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    span_with(name, &[])
}

/// Opens a span with tags. A no-op when tracing is disabled.
#[inline]
pub fn span_with(name: &'static str, tags: &[Tag]) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            active: None,
            _not_send: std::marker::PhantomData,
        };
    }
    static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    let epoch = epoch();
    let start = Instant::now();
    SpanGuard {
        active: Some(ActiveSpan {
            name,
            id,
            parent,
            start,
            start_ns: start.duration_since(epoch).as_nanos() as u64,
            tags: tags.to_vec(),
        }),
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let dur_ns = active.start.elapsed().as_nanos() as u64;
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Pop this span; tolerate unwind-skewed stacks.
            if let Some(pos) = s.iter().rposition(|&id| id == active.id) {
                s.truncate(pos);
            }
        });
        BUF.with(|buf| {
            let mut inner = buf.inner.lock().expect("trace thread buffer poisoned");
            inner
                .span_stats
                .entry(active.name)
                .or_default()
                .record(dur_ns);
            if inner.spans.len() < THREAD_CAP {
                let thread = buf.thread;
                inner.spans.push(SpanEvent {
                    name: active.name,
                    id: active.id,
                    parent: active.parent,
                    thread,
                    start_ns: active.start_ns,
                    dur_ns,
                    tags: active.tags,
                });
            } else {
                inner.dropped_spans += 1;
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Aggregation and export
// ---------------------------------------------------------------------------

/// An aggregated trace: every thread's events and statistics, merged.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Raw span events, ordered by start time.
    pub spans: Vec<SpanEvent>,
    /// Span events dropped to the per-thread cap (stats stay exact).
    pub dropped_spans: u64,
    /// Per-name span statistics.
    pub span_stats: BTreeMap<&'static str, SpanStat>,
    /// Counter totals.
    pub counters: BTreeMap<&'static str, u64>,
    /// Gauge statistics.
    pub gauges: BTreeMap<&'static str, GaugeStat>,
    /// Per-name time series, merged across threads and sorted by step.
    pub series: BTreeMap<&'static str, Vec<SeriesPoint>>,
    /// Series points dropped to the per-thread cap.
    pub dropped_series: u64,
}

/// Collects and clears every thread's buffer. Threads keep recording
/// concurrently; events recorded during the drain land in the next one.
pub fn drain() -> Trace {
    merge(std::mem::take)
}

/// Merges every thread's span statistics, counter totals, gauge
/// statistics and drop counts without clearing anything; raw span events
/// and series stay out (and stay buffered). A periodic exporter reads through this, so it
/// never steals events from the final [`drain`].
pub fn snapshot() -> Trace {
    merge(|inner| Inner {
        dropped_spans: inner.dropped_spans,
        span_stats: inner.span_stats.clone(),
        counters: inner.counters.clone(),
        gauges: inner.gauges.clone(),
        dropped_series: inner.dropped_series,
        ..Inner::default()
    })
}

/// Merges what `take` extracts from each thread's buffer into one trace.
fn merge(take: impl Fn(&mut Inner) -> Inner) -> Trace {
    let mut trace = Trace::default();
    let buffers: Vec<Arc<ThreadBuf>> = buffers()
        .lock()
        .expect("trace buffer registry poisoned")
        .clone();
    for buf in buffers {
        let inner = take(&mut buf.inner.lock().expect("trace thread buffer poisoned"));
        trace.spans.extend(inner.spans);
        trace.dropped_spans += inner.dropped_spans;
        for (name, stat) in inner.span_stats {
            trace.span_stats.entry(name).or_default().merge(&stat);
        }
        for (name, total) in inner.counters {
            *trace.counters.entry(name).or_insert(0) += total;
        }
        for (name, stat) in inner.gauges {
            match trace.gauges.entry(name) {
                std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().merge(&stat),
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(stat);
                }
            }
        }
        for ev in inner.series {
            trace
                .series
                .entry(ev.name)
                .or_default()
                .push(SeriesPoint { step: ev.step, value: ev.value });
        }
        trace.dropped_series += inner.dropped_series;
    }
    trace.spans.sort_by_key(|s| (s.start_ns, s.id));
    for points in trace.series.values_mut() {
        points.sort_by_key(|p| p.step);
    }
    trace
}

fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn tag_value_json(v: &TagValue, out: &mut String) {
    match v {
        TagValue::U64(n) => {
            let _ = write!(out, "{n}");
        }
        TagValue::Str(s) => {
            out.push('"');
            json_escape(s, out);
            out.push('"');
        }
    }
}

/// Writes an `f64` as JSON: `null` for non-finite values (NaN/Inf have no
/// JSON representation), the shortest round-trip form otherwise.
pub(crate) fn json_f64(value: f64, out: &mut String) {
    if value.is_finite() {
        let _ = write!(out, "{value}");
    } else {
        out.push_str("null");
    }
}

impl Trace {
    /// Whether nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.span_stats.is_empty()
            && self.counters.is_empty()
            && self.gauges.is_empty()
            && self.series.is_empty()
    }

    /// Whether any raw span events or series points were dropped to a
    /// per-thread cap. A truncated trace still has exact aggregated
    /// statistics, but profiles built from its raw events are partial.
    pub fn truncated(&self) -> bool {
        self.dropped_spans > 0 || self.dropped_series > 0
    }

    /// Raw span events named `name`.
    pub fn spans_named<'a>(&'a self, name: &str) -> impl Iterator<Item = &'a SpanEvent> {
        let name = name.to_owned();
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// One JSON object per line: every span event (start-time order), then
    /// every series point (`{"series":...,"step":...,"value":...}`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str("{\"name\":\"");
            json_escape(s.name, &mut out);
            let _ = write!(out, "\",\"id\":{},\"parent\":", s.id);
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            let _ = write!(
                out,
                ",\"thread\":{},\"start_ns\":{},\"dur_ns\":{}",
                s.thread, s.start_ns, s.dur_ns
            );
            if !s.tags.is_empty() {
                out.push_str(",\"tags\":{");
                for (i, (k, v)) in s.tags.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    json_escape(k, &mut out);
                    out.push_str("\":");
                    tag_value_json(v, &mut out);
                }
                out.push('}');
            }
            out.push_str("}\n");
        }
        for (name, points) in &self.series {
            for p in points {
                out.push_str("{\"series\":\"");
                json_escape(name, &mut out);
                let _ = write!(out, "\",\"step\":{},\"value\":", p.step);
                json_f64(p.value, &mut out);
                out.push_str("}\n");
            }
        }
        out
    }

    /// Aggregated summary: per-name span statistics, counter totals and
    /// gauge statistics, as pretty JSON.
    pub fn summary_json(&self) -> String {
        let mut out = String::from("{\n  \"spans\": {\n");
        for (i, (name, st)) in self.span_stats.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let mean = st.total_ns.checked_div(st.count).unwrap_or(0);
            let _ = write!(
                out,
                "    \"{name}\": {{\"count\": {}, \"total_ns\": {}, \"mean_ns\": {}, \"min_ns\": {}, \"max_ns\": {}}}",
                st.count, st.total_ns, mean, st.min_ns, st.max_ns
            );
        }
        out.push_str("\n  },\n  \"counters\": {\n");
        for (i, (name, total)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(out, "    \"{name}\": {total}");
        }
        out.push_str("\n  },\n  \"gauges\": {\n");
        for (i, (name, g)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let mean = if g.count > 0 { g.sum / g.count as f64 } else { 0.0 };
            let _ = write!(out, "    \"{name}\": {{\"count\": {}, \"last\": ", g.count);
            json_f64(g.last, &mut out);
            out.push_str(", \"mean\": ");
            json_f64(mean, &mut out);
            out.push_str(", \"min\": ");
            json_f64(g.min, &mut out);
            out.push_str(", \"max\": ");
            json_f64(g.max, &mut out);
            out.push('}');
        }
        out.push_str("\n  },\n  \"series\": {\n");
        for (i, (name, points)) in self.series.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let non_finite = points.iter().filter(|p| !p.value.is_finite()).count();
            let finite = points.iter().map(|p| p.value).filter(|v| v.is_finite());
            let min = finite.clone().fold(f64::INFINITY, f64::min);
            let max = finite.fold(f64::NEG_INFINITY, f64::max);
            let _ = write!(
                out,
                "    \"{name}\": {{\"points\": {}, \"first_step\": {}, \"last_step\": {}, \"last\": ",
                points.len(),
                points.first().map_or(0, |p| p.step),
                points.last().map_or(0, |p| p.step),
            );
            json_f64(points.last().map_or(f64::NAN, |p| p.value), &mut out);
            out.push_str(", \"min\": ");
            json_f64(if min.is_finite() { min } else { f64::NAN }, &mut out);
            out.push_str(", \"max\": ");
            json_f64(if max.is_finite() { max } else { f64::NAN }, &mut out);
            let _ = write!(out, ", \"non_finite\": {non_finite}}}");
        }
        // `truncated` is loud and first-class: a capped trace must never be
        // silently read as a complete profile (aggregated stats stay exact;
        // raw events/points are what is partial).
        let _ = write!(
            out,
            "\n  }},\n  \"span_events\": {},\n  \"dropped_span_events\": {},\n  \"series_points\": {},\n  \"dropped_series_points\": {},\n  \"truncated\": {}\n}}\n",
            self.spans.len(),
            self.dropped_spans,
            self.series.values().map(Vec::len).sum::<usize>(),
            self.dropped_series,
            self.truncated(),
        );
        out
    }

    /// Writes `trace_<stem>.jsonl` (raw events) and `TRACE_<stem>.json`
    /// (summary) into `dir`, creating it first. Returns both paths.
    ///
    /// # Errors
    /// Returns any I/O error from creating the directory or writing.
    pub fn save(&self, dir: &Path, stem: &str) -> std::io::Result<(PathBuf, PathBuf)> {
        let summary = self.save_summary(dir, stem)?;
        let jsonl = dir.join(format!("trace_{stem}.jsonl"));
        std::fs::write(&jsonl, self.to_jsonl())?;
        Ok((jsonl, summary))
    }

    /// Writes [`Trace::summary_json`] to `dir/TRACE_<stem>.json`, creating
    /// `dir` first, and returns the path. The one place the summary file
    /// is named: [`Trace::save`] and the [`metrics`] exporter both write
    /// through it.
    ///
    /// # Errors
    /// Returns any I/O error from creating the directory or writing.
    pub(crate) fn save_summary(&self, dir: &Path, stem: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let summary = dir.join(format!("TRACE_{stem}.json"));
        std::fs::write(&summary, self.summary_json())?;
        Ok(summary)
    }
}

/// Serializes tests (across this crate's modules) that toggle the global
/// enablement state and drain the shared buffers.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that toggle the global enablement state.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        test_lock()
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _l = lock();
        force_enabled(false);
        let _ = drain();
        {
            let _g = span("never");
            let _s = span_stat("never_stat");
            stat_ns("never_stat_ns", 1);
            counter("never", 3);
            gauge("never", 1.0);
        }
        let t = drain();
        assert!(t.spans_named("never").next().is_none());
        for name in ["never", "never_stat", "never_stat_ns"] {
            assert!(!t.span_stats.contains_key(name), "{name} recorded while disabled");
        }
        assert!(!t.counters.contains_key("never"));
        assert!(!t.gauges.contains_key("never"));
        reset_to_env();
    }

    #[test]
    fn spans_nest_and_carry_tags() {
        let _l = lock();
        force_enabled(true);
        let _ = drain();
        {
            let _outer = span_with("outer", &[("idx", TagValue::U64(7))]);
            let _inner = span("inner");
        }
        let t = drain();
        force_enabled(false);
        reset_to_env();
        let outer = t.spans_named("outer").next().expect("outer recorded");
        let inner = t.spans_named("inner").next().expect("inner recorded");
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(outer.tags, vec![("idx", TagValue::U64(7))]);
        assert_eq!(t.span_stats["outer"].count, 1);
        assert!(t.span_stats["outer"].total_ns >= t.span_stats["outer"].min_ns);
    }

    #[test]
    fn counters_and_gauges_aggregate_across_threads() {
        let _l = lock();
        force_enabled(true);
        let _ = drain();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    counter("xthread.count", 10);
                    counters(&[("xthread.count", 1), ("xthread.other", 2)]);
                    gauge("xthread.gauge", i as f64);
                    let _g = span("xthread.span");
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker panicked");
        }
        let t = drain();
        force_enabled(false);
        reset_to_env();
        assert_eq!(t.counters["xthread.count"], 44);
        assert_eq!(t.counters["xthread.other"], 8);
        assert_eq!(t.gauges["xthread.gauge"].count, 4);
        assert_eq!(t.gauges["xthread.gauge"].min, 0.0);
        assert_eq!(t.gauges["xthread.gauge"].max, 3.0);
        assert_eq!(t.span_stats["xthread.span"].count, 4);
        assert_eq!(t.spans_named("xthread.span").count(), 4);
    }

    #[test]
    fn drain_clears_buffers() {
        let _l = lock();
        force_enabled(true);
        let _ = drain();
        counter("once", 1);
        let first = drain();
        let second = drain();
        force_enabled(false);
        reset_to_env();
        assert_eq!(first.counters["once"], 1);
        assert!(!second.counters.contains_key("once"));
    }

    #[test]
    fn export_formats_are_well_formed() {
        let _l = lock();
        force_enabled(true);
        let _ = drain();
        {
            let _g = span_with("fmt.span", &[("id", TagValue::Str("table02")), ("n", TagValue::U64(3))]);
            counter("fmt.count", 5);
            gauge("fmt.gauge", 2.5);
        }
        let t = drain();
        force_enabled(false);
        reset_to_env();
        let jsonl = t.to_jsonl();
        let line = jsonl
            .lines()
            .find(|l| l.contains("fmt.span"))
            .expect("span line present");
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"tags\":{\"id\":\"table02\",\"n\":3}"));
        let summary = t.summary_json();
        assert!(summary.contains("\"fmt.count\": 5"));
        assert!(summary.contains("\"fmt.gauge\""));

        let dir = std::env::temp_dir().join(format!("cae_trace_test_{}", std::process::id()));
        let (jl, sm) = t.save(&dir.join("nested"), "demo").expect("save succeeds");
        assert!(jl.ends_with("trace_demo.jsonl") && jl.exists());
        assert!(sm.ends_with("TRACE_demo.json") && sm.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn series_record_merge_and_capture() {
        let _l = lock();
        force_enabled(true);
        let _ = drain();
        series("t.loss", 0, 2.0);
        let mark = thread_series_mark();
        series("t.loss", 1, 1.5);
        series("t.other", 0, 7.0);
        let handle = std::thread::spawn(|| {
            series("t.loss", 2, 1.0);
        });
        handle.join().expect("worker panicked");
        // Capture (and remove) only this thread's points after the mark.
        let captured = take_thread_series_since(mark);
        assert_eq!(
            captured,
            vec![
                SeriesEvent { name: "t.loss", step: 1, value: 1.5 },
                SeriesEvent { name: "t.other", step: 0, value: 7.0 },
            ]
        );
        assert!(take_thread_series_since(999).is_empty(), "stale marks saturate");
        let snapshot = series_snapshot();
        assert_eq!(snapshot.len(), 2, "snapshot sees remaining points, uncleared");
        let t = drain();
        force_enabled(false);
        reset_to_env();
        // The captured points must not reappear in the drained trace; the
        // cross-thread point merges in, sorted by step.
        assert_eq!(
            t.series["t.loss"],
            vec![
                SeriesPoint { step: 0, value: 2.0 },
                SeriesPoint { step: 2, value: 1.0 },
            ]
        );
        assert!(!t.series.contains_key("t.other"));
        assert!(!t.truncated());
    }

    #[test]
    fn disabled_series_and_stat_spans_record_nothing() {
        let _l = lock();
        force_enabled(false);
        let _ = drain();
        series("never.series", 0, 1.0);
        {
            let _g = span_stat("never.stat");
        }
        let t = drain();
        assert!(!t.series.contains_key("never.series"));
        assert!(!t.span_stats.contains_key("never.stat"));
        reset_to_env();
    }

    #[test]
    fn stat_spans_aggregate_without_raw_events() {
        let _l = lock();
        force_enabled(true);
        let _ = drain();
        for _ in 0..100 {
            let _g = span_stat("stat.only");
        }
        let t = drain();
        force_enabled(false);
        reset_to_env();
        assert_eq!(t.span_stats["stat.only"].count, 100);
        assert_eq!(t.spans_named("stat.only").count(), 0, "no raw events recorded");
        assert_eq!(t.dropped_spans, 0, "stat spans never consume the event cap");
    }

    #[test]
    fn series_export_formats_flag_non_finite_values() {
        let _l = lock();
        force_enabled(true);
        let _ = drain();
        series("fmt.series", 0, 1.25);
        series("fmt.series", 1, f64::NAN);
        let t = drain();
        force_enabled(false);
        reset_to_env();
        let jsonl = t.to_jsonl();
        assert!(jsonl.contains("{\"series\":\"fmt.series\",\"step\":0,\"value\":1.25}"));
        assert!(jsonl.contains("{\"series\":\"fmt.series\",\"step\":1,\"value\":null}"));
        let summary = t.summary_json();
        assert!(summary.contains("\"fmt.series\""));
        assert!(summary.contains("\"non_finite\": 1"));
        assert!(summary.contains("\"truncated\": false"));
    }

    #[test]
    fn span_cap_counts_dropped_events() {
        // One burst past this thread's fixed cap: the overflow is dropped
        // and counted, and the per-name statistics stay exact.
        let _l = lock();
        force_enabled(true);
        let _ = drain();
        for _ in 0..=THREAD_CAP {
            let _g = span("burst");
        }
        let t = drain();
        force_enabled(false);
        reset_to_env();
        assert_eq!(t.span_stats["burst"].count, THREAD_CAP as u64 + 1);
        assert!(t.dropped_spans >= 1 && t.truncated());
        assert_eq!(
            t.span_stats["burst"].count,
            t.spans_named("burst").count() as u64 + t.dropped_spans
        );
    }
}
