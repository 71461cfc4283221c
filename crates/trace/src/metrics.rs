//! Live telemetry: lock-free latency histograms and a byte-stable
//! exposition layer over the rest of the trace aggregates.
//!
//! The span/counter machinery in the crate root is built for *post-hoc*
//! analysis — buffer per thread, merge on drain. A serving process needs
//! the complementary view: tail latency *while the run is in flight*,
//! cheap enough that workers can record every request unconditionally.
//! This module provides that view:
//!
//! * [`Histogram`] — fixed 65-bucket log2 latency histogram. Each bucket
//!   `b ≥ 1` covers `[2^(b-1), 2^b)` nanoseconds (bucket 0 is exactly
//!   zero), so any `u64` duration lands in a bucket with one
//!   `leading_zeros`. Recording is a handful of **relaxed `fetch_add`s on
//!   the histogram's own cache lines** — lock-free, so a serve worker can
//!   never block a submitter — and snapshots merge the bucket counts in
//!   one non-destructive pass, the analogue of the span buffers'
//!   merge-on-drain minus the clearing: exposition counters are
//!   cumulative. p50/p90/p99 are exact at bucket resolution (nearest
//!   rank over bucket counts, reported as the bucket's inclusive upper
//!   bound clamped to the exactly-tracked max).
//! * [`snapshot`] — a [`MetricsSnapshot`] of every registered histogram
//!   plus the counter totals and gauge statistics cloned (not drained)
//!   from the thread buffers. Renders to a byte-stable Prometheus-style
//!   text format ([`MetricsSnapshot::prometheus_text`]) and a
//!   `METRICS_<stem>.json` document ([`MetricsSnapshot::save`]): all maps
//!   are name-ordered and integers dominate, so two snapshots of a
//!   quiescent process render byte-identically.
//! * [`start_exporter`] — a periodic in-process exporter thread that
//!   rewrites `METRICS_<stem>.json` / `metrics_<stem>.prom` every
//!   `CAE_METRICS_INTERVAL_MS` milliseconds, for watching a long serve
//!   run from outside the process.
//!
//! ## Enablement
//!
//! There is one telemetry gate: the crate-root [`crate::enabled`]
//! (`CAE_TRACE`). Histograms record through it exactly like spans,
//! counters and gauges. `CAE_METRICS_INTERVAL_MS` only sets the exporter
//! period; starting an exporter turns the gate on, so an export carries
//! histograms, counters and gauges alike.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::GaugeStat;

/// The crate-root gate overrides, kept at this path for callers that
/// predate the single gate.
pub use crate::{force_enabled, reset_to_env};

/// The configured exporter interval: `CAE_METRICS_INTERVAL_MS` parsed once
/// per process (`None` when unset, non-numeric, or zero).
pub fn interval_ms() -> Option<u64> {
    static INTERVAL: OnceLock<Option<u64>> = OnceLock::new();
    *INTERVAL.get_or_init(|| crate::knob::positive("CAE_METRICS_INTERVAL_MS").map(|ms| ms as u64))
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// Number of log2 buckets: bucket 0 holds exact zeros, bucket `b` holds
/// `[2^(b-1), 2^b - 1]`, bucket 64 holds everything from `2^63` up.
pub const BUCKETS: usize = 65;

#[inline]
fn bucket_index(ns: u64) -> usize {
    (u64::BITS - ns.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `b`, in nanoseconds.
#[inline]
fn bucket_le(b: usize) -> u64 {
    match b {
        0 => 0,
        1..=63 => (1u64 << b) - 1,
        _ => u64::MAX,
    }
}

/// A lock-free fixed-bucket log2 latency histogram. Obtain a `&'static`
/// handle once via [`histogram`] and record durations from any thread;
/// recording when telemetry is disabled is a single relaxed load.
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; BUCKETS],
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Histogram {
    fn new(name: &'static str) -> Self {
        Histogram {
            name,
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// This histogram's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records one duration in nanoseconds. Relaxed atomics only; a no-op
    /// (one relaxed load) when telemetry is disabled.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        if !crate::enabled() {
            return;
        }
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Records the elapsed time since `start`.
    #[inline]
    pub fn record_since(&self, start: Instant) {
        if !crate::enabled() {
            return;
        }
        self.record_ns(start.elapsed().as_nanos() as u64);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for b in 0..BUCKETS {
            let c = self.buckets[b].load(Ordering::Relaxed);
            if c > 0 {
                buckets.push((bucket_le(b), c));
                count += c;
            }
        }
        HistogramSnapshot {
            name: self.name,
            count,
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
            buckets,
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum_ns.store(0, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
    }
}

fn registry() -> &'static Mutex<BTreeMap<&'static str, &'static Histogram>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<&'static str, &'static Histogram>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Interns and returns the histogram named `name`. The registry lock is
/// taken only here — call sites look their handle up once (e.g. at server
/// start) and record through the returned `&'static` reference forever.
pub fn histogram(name: &'static str) -> &'static Histogram {
    let mut reg = registry().lock().expect("metrics registry poisoned");
    if let Some(h) = reg.get(name) {
        return h;
    }
    let h: &'static Histogram = Box::leak(Box::new(Histogram::new(name)));
    reg.insert(name, h);
    h
}

/// Zeroes every registered histogram. Harnesses call this between runs so
/// per-run percentiles don't mix with a previous run's samples; the
/// process-cumulative default is what the exporter wants.
pub fn reset() {
    let reg = registry().lock().expect("metrics registry poisoned");
    for h in reg.values() {
        h.reset();
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// A point-in-time copy of one histogram's buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Registered name.
    pub name: &'static str,
    /// Total recorded samples.
    pub count: u64,
    /// Sum of recorded durations, nanoseconds.
    pub sum_ns: u64,
    /// Largest recorded duration, exact.
    pub max_ns: u64,
    /// Non-empty buckets as `(inclusive_upper_bound_ns, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Nearest-rank percentile (`pct` in 0..=100) at bucket resolution:
    /// the inclusive upper bound of the bucket holding the target rank,
    /// clamped to the exactly-tracked maximum. Returns 0 for an empty
    /// histogram.
    pub fn percentile(&self, pct: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count * pct).div_ceil(100).max(1);
        let mut cum = 0u64;
        for &(le, c) in &self.buckets {
            cum += c;
            if cum >= rank {
                return le.min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Median, nanoseconds (bucket resolution).
    pub fn p50_ns(&self) -> u64 {
        self.percentile(50)
    }

    /// 90th percentile, nanoseconds (bucket resolution).
    pub fn p90_ns(&self) -> u64 {
        self.percentile(90)
    }

    /// 99th percentile, nanoseconds (bucket resolution).
    pub fn p99_ns(&self) -> u64 {
        self.percentile(99)
    }
}

/// A point-in-time view of the whole telemetry surface: every registered
/// histogram plus counter totals and gauge statistics cloned from the
/// thread buffers (nothing is drained or reset by taking a snapshot).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Histogram snapshots, name-ordered.
    pub histograms: Vec<HistogramSnapshot>,
    /// Counter totals across all threads.
    pub counters: BTreeMap<&'static str, u64>,
    /// Gauge statistics across all threads.
    pub gauges: BTreeMap<&'static str, GaugeStat>,
}

/// Takes a [`MetricsSnapshot`] of the current process.
pub fn snapshot() -> MetricsSnapshot {
    let histograms = {
        let reg = registry().lock().expect("metrics registry poisoned");
        reg.values().map(|h| h.snapshot()).collect()
    };
    let (counters, gauges) = crate::aggregates_snapshot();
    MetricsSnapshot { histograms, counters, gauges }
}

/// `name` → Prometheus metric identifier: `cae_` prefix, every
/// non-alphanumeric character folded to `_`.
fn metric_ident(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("cae_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

impl MetricsSnapshot {
    /// Looks up one histogram snapshot by registered name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Renders the snapshot as Prometheus-style exposition text. The
    /// output is byte-stable: maps are name-ordered, histogram buckets
    /// are cumulative counts over fixed bounds, and gauge values use the
    /// shortest round-trip float form.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for h in &self.histograms {
            let ident = metric_ident(h.name);
            let _ = writeln!(out, "# TYPE {ident}_ns histogram");
            let mut cum = 0u64;
            for &(le, c) in &h.buckets {
                cum += c;
                let _ = writeln!(out, "{ident}_ns_bucket{{le=\"{le}\"}} {cum}");
            }
            let _ = writeln!(out, "{ident}_ns_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{ident}_ns_sum {}", h.sum_ns);
            let _ = writeln!(out, "{ident}_ns_count {}", h.count);
        }
        for (name, total) in &self.counters {
            let ident = metric_ident(name);
            let _ = writeln!(out, "# TYPE {ident} counter");
            let _ = writeln!(out, "{ident} {total}");
        }
        for (name, g) in &self.gauges {
            let ident = metric_ident(name);
            let _ = writeln!(out, "# TYPE {ident} gauge");
            let mut v = String::new();
            crate::json_f64(g.last, &mut v);
            let _ = writeln!(out, "{ident} {v}");
        }
        out
    }

    /// Renders the snapshot as the `METRICS_<stem>.json` document:
    /// histograms with derived percentiles and raw buckets, counter
    /// totals, gauge statistics. Name-ordered and byte-stable for a given
    /// snapshot.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"histograms\": {\n");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "    \"{}\": {{\"count\": {}, \"sum_ns\": {}, \"max_ns\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"buckets\": [",
                h.name,
                h.count,
                h.sum_ns,
                h.max_ns,
                h.p50_ns(),
                h.p90_ns(),
                h.p99_ns(),
            );
            for (j, &(le, c)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "[{le}, {c}]");
            }
            out.push_str("]}");
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
            crate::json_f64(g.last, &mut out);
            out.push_str(", \"mean\": ");
            crate::json_f64(mean, &mut out);
            out.push_str(", \"min\": ");
            crate::json_f64(g.min, &mut out);
            out.push_str(", \"max\": ");
            crate::json_f64(g.max, &mut out);
            out.push('}');
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Writes `METRICS_<stem>.json` and `metrics_<stem>.prom` into `dir`,
    /// creating it first. Returns both paths.
    ///
    /// # Errors
    /// Returns any I/O error from creating the directory or writing.
    pub fn save(&self, dir: &Path, stem: &str) -> std::io::Result<(PathBuf, PathBuf)> {
        std::fs::create_dir_all(dir)?;
        let json = dir.join(format!("METRICS_{stem}.json"));
        std::fs::write(&json, self.to_json())?;
        let prom = dir.join(format!("metrics_{stem}.prom"));
        std::fs::write(&prom, self.prometheus_text())?;
        Ok((json, prom))
    }
}

// ---------------------------------------------------------------------------
// Periodic exporter
// ---------------------------------------------------------------------------

/// Handle to a running in-process exporter thread; stop it with
/// [`Exporter::stop`] (dropping the handle detaches the thread, which is
/// harmless — it only ever rewrites the export files).
pub struct Exporter {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: std::thread::JoinHandle<()>,
    dir: PathBuf,
    stem: String,
}

impl Exporter {
    /// Signals the exporter thread, joins it, and writes one final
    /// snapshot so the files on disk reflect the complete run. Returns
    /// the `(json, prom)` paths.
    ///
    /// # Errors
    /// Returns any I/O error from the final write.
    pub fn stop(self) -> std::io::Result<(PathBuf, PathBuf)> {
        {
            let (flag, cv) = &*self.stop;
            *flag.lock().expect("exporter stop flag poisoned") = true;
            cv.notify_all();
        }
        let _ = self.handle.join();
        snapshot().save(&self.dir, &self.stem)
    }
}

/// Starts the periodic exporter if `CAE_METRICS_INTERVAL_MS` is set:
/// every interval it rewrites `METRICS_<stem>.json` / `metrics_<stem>.prom`
/// under `dir`. Returns `None` (and starts nothing) when no interval is
/// configured. Starting an exporter force-enables the telemetry gate for
/// the process — an exporter over empty aggregates is useless.
pub fn start_exporter(dir: &Path, stem: &str) -> Option<Exporter> {
    let every = Duration::from_millis(interval_ms()?);
    Some(start_exporter_every(dir, stem, every))
}

/// [`start_exporter`] with an explicit interval, ignoring the environment
/// (tests; harnesses that want an exporter unconditionally).
pub fn start_exporter_every(dir: &Path, stem: &str, every: Duration) -> Exporter {
    crate::force_enabled(true);
    let stop = Arc::new((Mutex::new(false), Condvar::new()));
    let thread_stop = Arc::clone(&stop);
    let thread_dir = dir.to_path_buf();
    let thread_stem = stem.to_string();
    let handle = std::thread::Builder::new()
        .name("cae-metrics-exporter".into())
        .spawn(move || {
            let (flag, cv) = &*thread_stop;
            let mut stopped = flag.lock().expect("exporter stop flag poisoned");
            loop {
                let (guard, _timeout) = cv
                    .wait_timeout(stopped, every)
                    .expect("exporter stop flag poisoned");
                stopped = guard;
                if *stopped {
                    return;
                }
                // Export errors are non-fatal: telemetry must never take
                // down the serving process it observes.
                let _ = snapshot().save(&thread_dir, &thread_stem);
            }
        })
        .expect("spawning metrics exporter thread");
    Exporter {
        stop,
        handle,
        dir: dir.to_path_buf(),
        stem: stem.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{force_enabled, reset_to_env};

    /// Serializes tests that toggle the telemetry gate or reset the shared
    /// histogram registry (shared with the crate-root tests, which toggle
    /// the same gate).
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        crate::test_lock()
    }

    #[test]
    fn bucket_bounds_partition_the_u64_range() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_le(0), 0);
        assert_eq!(bucket_le(1), 1);
        assert_eq!(bucket_le(2), 3);
        assert_eq!(bucket_le(64), u64::MAX);
        // Every value falls in a bucket whose bounds contain it.
        for ns in [0u64, 1, 7, 8, 1023, 1024, 123_456_789, u64::MAX] {
            let b = bucket_index(ns);
            assert!(ns <= bucket_le(b));
            if b > 0 {
                assert!(ns > bucket_le(b - 1));
            }
        }
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _l = lock();
        force_enabled(false);
        let h = histogram("test.disabled");
        h.reset();
        h.record_ns(1000);
        h.record_since(Instant::now());
        assert_eq!(h.snapshot().count, 0);
        reset_to_env();
    }

    #[test]
    fn percentiles_and_max_are_exact_at_bucket_resolution() {
        let _l = lock();
        force_enabled(true);
        let h = histogram("test.percentiles");
        h.reset();
        // 89 samples in [512, 1023] (bucket le=1023), 10 in [1024, 2047],
        // 1 at exactly 5000 (bucket le=8191, clamped to the exact max).
        for _ in 0..89 {
            h.record_ns(600);
        }
        for _ in 0..10 {
            h.record_ns(1500);
        }
        h.record_ns(5000);
        let s = h.snapshot();
        force_enabled(false);
        reset_to_env();
        assert_eq!(s.count, 100);
        assert_eq!(s.max_ns, 5000);
        assert_eq!(s.sum_ns, 89 * 600 + 10 * 1500 + 5000);
        assert_eq!(s.p50_ns(), 1023);
        assert_eq!(s.p90_ns(), 2047);
        assert_eq!(s.p99_ns(), 2047);
        assert_eq!(s.percentile(100), 5000, "p100 clamps to the exact max");
        assert_eq!(HistogramSnapshot { count: 0, ..s }.percentile(50), 0);
    }

    #[test]
    fn histograms_merge_across_threads_lock_free() {
        let _l = lock();
        force_enabled(true);
        let h = histogram("test.threads");
        h.reset();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let h = histogram("test.threads");
                    for _ in 0..100 {
                        h.record_ns(100 << i);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().expect("worker panicked");
        }
        let s = h.snapshot();
        force_enabled(false);
        reset_to_env();
        assert_eq!(s.count, 400);
        assert_eq!(s.max_ns, 800);
        assert_eq!(s.sum_ns, 100 * (100 + 200 + 400 + 800));
    }

    #[test]
    fn snapshot_renders_byte_stably_and_nondestructively() {
        let _l = lock();
        force_enabled(true);
        let h = histogram("test.render");
        h.reset();
        h.record_ns(0);
        h.record_ns(900);
        h.record_ns(900);
        let a = snapshot();
        let b = snapshot();
        force_enabled(false);
        reset_to_env();
        // Snapshots are non-destructive, so two in a row agree — and the
        // renderings are byte-identical (the tier1 METRICS byte-diff).
        let ha = a.histogram("test.render").expect("registered");
        assert_eq!(ha, b.histogram("test.render").expect("registered"));
        assert_eq!(ha.count, 3);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.prometheus_text(), b.prometheus_text());

        let prom = a.prometheus_text();
        assert!(prom.contains("# TYPE cae_test_render_ns histogram"));
        assert!(prom.contains("cae_test_render_ns_bucket{le=\"0\"} 1"));
        // Bucket counts are cumulative: le=1023 covers the zero too.
        assert!(prom.contains("cae_test_render_ns_bucket{le=\"1023\"} 3"));
        assert!(prom.contains("cae_test_render_ns_bucket{le=\"+Inf\"} 3"));
        assert!(prom.contains("cae_test_render_ns_sum 1800"));
        assert!(prom.contains("cae_test_render_ns_count 3"));
        let json = a.to_json();
        assert!(json.contains("\"test.render\": {\"count\": 3, \"sum_ns\": 1800"));
        assert!(json.contains("\"buckets\": [[0, 1], [1023, 2]]"));
    }

    #[test]
    fn snapshot_includes_counters_and_gauges_without_draining() {
        let _l = lock();
        force_enabled(true);
        let _ = crate::drain();
        crate::counter("metrics.test.counter", 7);
        crate::gauge("metrics.test.gauge", 2.5);
        let s = snapshot();
        assert_eq!(s.counters.get("metrics.test.counter"), Some(&7));
        assert_eq!(s.gauges["metrics.test.gauge"].last, 2.5);
        let prom = s.prometheus_text();
        assert!(prom.contains("# TYPE cae_metrics_test_counter counter"));
        assert!(prom.contains("cae_metrics_test_counter 7"));
        assert!(prom.contains("cae_metrics_test_gauge 2.5"));
        // Non-destructive: the later drain still sees everything.
        let t = crate::drain();
        force_enabled(false);
        reset_to_env();
        assert_eq!(t.counters["metrics.test.counter"], 7);
    }

    #[test]
    fn exporter_writes_and_final_snapshot_lands_on_stop() {
        let _l = lock();
        // Starting an exporter turns the one gate on, so the export carries
        // gauges as well as histograms.
        force_enabled(false);
        let _ = crate::drain();
        let h = histogram("test.exporter");
        h.reset();
        let dir = std::env::temp_dir().join(format!("cae_metrics_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let exporter = start_exporter_every(&dir, "demo", Duration::from_millis(5));
        h.record_ns(4242);
        crate::gauge("metrics.test.exported", 1.5);
        std::thread::sleep(Duration::from_millis(30));
        let (json, prom) = exporter.stop().expect("final export succeeds");
        let _ = crate::drain();
        force_enabled(false);
        reset_to_env();
        assert!(json.ends_with("METRICS_demo.json") && json.exists());
        assert!(prom.ends_with("metrics_demo.prom") && prom.exists());
        let body = std::fs::read_to_string(&json).expect("readable");
        assert!(body.contains("\"test.exporter\": {\"count\": 1"));
        assert!(body.contains("\"metrics.test.exported\": {\"count\": 1, \"last\": 1.5"), "{body}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reset_zeroes_registered_histograms() {
        let _l = lock();
        force_enabled(true);
        let h = histogram("test.reset");
        h.record_ns(10);
        reset();
        let s = h.snapshot();
        force_enabled(false);
        reset_to_env();
        assert_eq!(s.count, 0);
        assert_eq!(s.max_ns, 0);
        assert!(s.buckets.is_empty());
    }
}
