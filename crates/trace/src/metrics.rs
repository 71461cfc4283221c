//! Live telemetry: a periodic exporter for watching a long serve run from
//! outside the process.
//!
//! There is one telemetry model: the crate-root span statistics, counters
//! and gauges. [`crate::snapshot`] merges them across thread buffers
//! without clearing anything, and [`start_exporter`] writes that
//! [`crate::Trace`] every `CAE_METRICS_INTERVAL_MS` milliseconds as
//! `TRACE_<stem>.json`, the summary view a traced `cae-dfkd table` run
//! also writes, through the function [`crate::Trace::save`] writes it
//! with. All maps are name-ordered and
//! integers dominate, so two snapshots of a quiescent process render
//! byte-identically. A snapshot holds no raw span events or series, so
//! its export reports zero `span_events`/`series_points` and an empty
//! `series`; its drop counts, and so `truncated`, are the run's.
//!
//! ## Enablement
//!
//! There is one telemetry gate: the crate-root [`crate::enabled`]
//! (`CAE_TRACE`). `CAE_METRICS_INTERVAL_MS` only sets the exporter
//! period; starting an exporter turns the gate on, so an export carries
//! span statistics, counters and gauges alike.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

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
// Periodic exporter
// ---------------------------------------------------------------------------

/// Handle to a running in-process exporter thread; stop it with
/// [`Exporter::stop`] (dropping the handle detaches the thread, which is
/// harmless — it only ever rewrites the export file).
pub struct Exporter {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: std::thread::JoinHandle<()>,
    dir: PathBuf,
    stem: String,
}

impl Exporter {
    /// Signals the exporter thread, joins it, and writes one final
    /// snapshot so the file on disk reflects the complete run. Returns
    /// its path.
    ///
    /// # Errors
    /// Returns any I/O error from the final write.
    pub fn stop(self) -> std::io::Result<PathBuf> {
        {
            let (flag, cv) = &*self.stop;
            *flag.lock().expect("exporter stop flag poisoned") = true;
            cv.notify_all();
        }
        let _ = self.handle.join();
        crate::snapshot().save_summary(&self.dir, &self.stem)
    }
}

/// Starts the periodic exporter if `CAE_METRICS_INTERVAL_MS` is set:
/// every interval it rewrites `TRACE_<stem>.json` under `dir`. Returns
/// `None` (and starts nothing) when no interval is configured. Starting an exporter force-enables the telemetry gate for
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
                let _ = crate::snapshot().save_summary(&thread_dir, &thread_stem);
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

    /// Serializes tests that toggle the telemetry gate (shared with the
    /// crate-root tests, which toggle the same gate).
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        crate::test_lock()
    }

    #[test]
    fn snapshot_carries_stats_counters_and_gauges_without_draining() {
        let _l = lock();
        force_enabled(true);
        let _ = crate::drain();
        {
            let _g = crate::span_stat("metrics.test.span");
        }
        crate::stat_ns("metrics.test.stat", 900);
        crate::stat_ns("metrics.test.stat", 0);
        crate::counter("metrics.test.counter", 7);
        crate::gauge("metrics.test.gauge", 2.5);
        let s = crate::snapshot();
        assert_eq!(s.span_stats["metrics.test.span"].count, 1);
        let stat = s.span_stats["metrics.test.stat"];
        assert_eq!((stat.count, stat.total_ns, stat.min_ns, stat.max_ns), (2, 900, 0, 900));
        assert_eq!(s.counters.get("metrics.test.counter"), Some(&7));
        assert_eq!(s.gauges["metrics.test.gauge"].last, 2.5);
        // Non-destructive: the later drain still sees everything.
        let t = crate::drain();
        force_enabled(false);
        reset_to_env();
        assert_eq!(t.span_stats["metrics.test.stat"], stat);
        assert_eq!(t.span_stats["metrics.test.span"].count, 1);
        assert_eq!(t.counters["metrics.test.counter"], 7);
        assert_eq!(t.gauges["metrics.test.gauge"].count, 1);
    }

    #[test]
    fn snapshot_keeps_drop_counts_so_truncation_shows() {
        let _l = lock();
        force_enabled(true);
        let _ = crate::drain();
        for step in 0..=crate::THREAD_CAP as u64 {
            crate::series("metrics.test.overflow", step, 0.0);
        }
        let s = crate::snapshot();
        let _ = crate::drain();
        force_enabled(false);
        reset_to_env();
        // No raw series in a snapshot, but the drop it saw is reported.
        assert!(s.series.is_empty());
        assert!(s.dropped_series >= 1 && s.truncated());
        assert!(s.summary_json().ends_with("\"truncated\": true\n}\n"), "{}", s.summary_json());
    }

    #[test]
    fn snapshot_renders_byte_stably() {
        let _l = lock();
        force_enabled(true);
        let _ = crate::drain();
        crate::stat_ns("metrics.render", 1800);
        crate::counter("metrics.render.counter", 3);
        crate::gauge("metrics.render.gauge", 0.5);
        let a = crate::snapshot();
        let b = crate::snapshot();
        let _ = crate::drain();
        force_enabled(false);
        reset_to_env();
        // Two snapshots of a quiescent process render byte-identically.
        assert_eq!(a.summary_json(), b.summary_json());
        let json = a.summary_json();
        assert!(json.contains("\"metrics.render\": {\"count\": 1, \"total_ns\": 1800"), "{json}");
    }

    #[test]
    fn exporter_writes_and_final_snapshot_lands_on_stop() {
        let _l = lock();
        // Starting an exporter turns the one gate on, so the export carries
        // span statistics and gauges.
        force_enabled(false);
        let _ = crate::drain();
        let dir = std::env::temp_dir().join(format!("cae_metrics_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let exporter = start_exporter_every(&dir, "demo", Duration::from_millis(5));
        crate::stat_ns("metrics.test.exporter", 4242);
        crate::gauge("metrics.test.exported", 1.5);
        std::thread::sleep(Duration::from_millis(30));
        let json = exporter.stop().expect("final export succeeds");
        let _ = crate::drain();
        force_enabled(false);
        reset_to_env();
        assert!(json.ends_with("TRACE_demo.json") && json.exists());
        let body = std::fs::read_to_string(&json).expect("readable");
        assert!(body.contains("\"metrics.test.exporter\": {\"count\": 1, \"total_ns\": 4242"), "{body}");
        assert!(body.contains("\"metrics.test.exported\": {\"count\": 1, \"last\": 1.5"), "{body}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
