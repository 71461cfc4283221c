//! Runtime autotuning of GEMM blocking and parallel/serial cutoffs.
//!
//! Static block sizes are tuned for one cache hierarchy and one thread
//! count; the right row/column blocking and the right serial-vs-parallel
//! cutoff shift with the host and with the thread budget a kernel runs
//! under (a GEMM inside a budget-2 cell wants different blocking than the
//! same GEMM owning the whole pool). Instead of guessing, this module
//! measures: the first few large products of each **shape class** sample a
//! small candidate set of `(mc, nc, threads)` configs — the production
//! calls themselves are the benchmark — and the fastest candidate becomes
//! the cached winner for that `(shape-class, budget)` key.
//!
//! * **Winners are cached in-process** and, best-effort, **on disk** keyed
//!   by a host fingerprint (arch + SIMD backend + pool size), so later
//!   processes on the same host skip the measurement phase entirely. The
//!   cache lives in the system temp dir by default; `CAE_AUTOTUNE_CACHE`
//!   overrides the path (`CAE_AUTOTUNE_CACHE=0` disables persistence).
//! * **`CAE_AUTOTUNE=0` disables tuning**: every plan falls back to the
//!   static default heuristic (the pre-autotune behavior).
//! * **Bit-stability**: every candidate computes bit-identical results.
//!   Only the output-space partitioning — row blocks `mc`, column blocks
//!   `nc`, worker count — is tuned; per output element the k-loop stays
//!   one sequential FMA chain (see [`crate::gemm`]). The depth blocking
//!   `KC`, which *would* change f32 accumulation grouping, is explicitly
//!   excluded from the candidate space. Reports therefore stay
//!   byte-identical across autotune on/off, cold/warm caches, and thread
//!   counts.

use crate::pool;
use crate::simd;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// Default row-block size (the static `MC` the heuristic falls back to).
pub const DEFAULT_MC: usize = 64;
/// Default column-block size (the static `NC`).
pub const DEFAULT_NC: usize = 256;
/// Products below this many FLOPs (`2 m n k`) never leave the calling
/// thread under the default heuristic.
pub const PARALLEL_FLOP_THRESHOLD: usize = 1 << 21;
/// Products below this many FLOPs are never tuned: call overhead and timer
/// noise dominate any blocking difference, and locking the tuner on every
/// tiny matmul would cost more than it could win.
const MIN_TUNE_FLOPS: usize = 1 << 18;
/// Timed samples per candidate before a winner is decided (the minimum of
/// the samples is compared, damping one-off scheduling noise).
const SAMPLES_PER_CANDIDATE: u32 = 2;
/// Candidate `(mc, nc)` block shapes. `KC` is deliberately absent: depth
/// blocking changes accumulation grouping and therefore bits.
const CANDIDATE_BLOCKS: [(usize, usize); 4] = [(32, 256), (64, 256), (128, 256), (64, 512)];

/// One tunable GEMM execution config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmConfig {
    /// Row-block size (clamped to a micro-tile multiple by the kernel).
    pub mc: usize,
    /// Column-block size.
    pub nc: usize,
    /// Worker threads to fan row blocks over (1 = serial).
    pub threads: usize,
}

/// What [`plan_gemm`] tells the kernel to do for one call.
#[derive(Debug, Clone, Copy)]
pub struct GemmPlan {
    pub config: GemmConfig,
    /// `Some(candidate)` while this shape class is still being measured:
    /// the kernel should time the call and pass the index back through
    /// [`record`]. `None` once a winner is cached or when tuning is off.
    pub measure: Option<usize>,
}

/// Shape-class key: ceil-log2 buckets of each dimension plus the thread
/// budget. Two products in the same bucket share cache behavior closely
/// enough to share a winner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ClassKey {
    m: u8,
    n: u8,
    k: u8,
    budget: u8,
}

fn log2_class(x: usize) -> u8 {
    x.max(1).next_power_of_two().trailing_zeros() as u8
}

fn class_key(m: usize, n: usize, k: usize, budget: usize) -> ClassKey {
    ClassKey {
        m: log2_class(m),
        n: log2_class(n),
        k: log2_class(k),
        budget: budget.min(u8::MAX as usize) as u8,
    }
}

fn candidates(budget: usize) -> Vec<GemmConfig> {
    let mut out = Vec::with_capacity(CANDIDATE_BLOCKS.len() * 2);
    for &(mc, nc) in &CANDIDATE_BLOCKS {
        out.push(GemmConfig { mc, nc, threads: 1 });
        if budget > 1 {
            out.push(GemmConfig { mc, nc, threads: budget });
        }
    }
    out
}

/// The static pre-autotune heuristic: default blocking, parallel iff the
/// product clears the FLOP threshold and the budget allows it.
fn default_config(flops: usize, budget: usize) -> GemmConfig {
    GemmConfig {
        mc: DEFAULT_MC,
        nc: DEFAULT_NC,
        threads: if budget > 1 && flops >= PARALLEL_FLOP_THRESHOLD {
            budget
        } else {
            1
        },
    }
}

/// Measurement state for one shape class.
struct ClassState {
    candidates: Vec<GemmConfig>,
    /// Best observed nanos per candidate (`u64::MAX` until timed).
    best_nanos: Vec<u64>,
    /// Samples handed out by `plan_gemm` (round-robins concurrent callers).
    planned: Vec<u32>,
    /// Samples actually timed back via `record`.
    timed: Vec<u32>,
    winner: Option<GemmConfig>,
}

impl ClassState {
    fn new(candidates: Vec<GemmConfig>) -> ClassState {
        let n = candidates.len();
        ClassState {
            candidates,
            best_nanos: vec![u64::MAX; n],
            planned: vec![0; n],
            timed: vec![0; n],
            winner: None,
        }
    }
}

struct Tuner {
    classes: HashMap<ClassKey, ClassState>,
    /// Winners loaded from (and persisted to) the on-disk cache.
    disk_winners: HashMap<ClassKey, GemmConfig>,
    path: Option<PathBuf>,
}

impl Tuner {
    fn from_disk(path: Option<PathBuf>) -> Tuner {
        let disk_winners = path
            .as_deref()
            .map(|p| load_winners(p, &fingerprint()))
            .unwrap_or_default();
        Tuner {
            classes: HashMap::new(),
            disk_winners,
            path,
        }
    }
}

fn tuner() -> MutexGuard<'static, Tuner> {
    static TUNER: OnceLock<Mutex<Tuner>> = OnceLock::new();
    TUNER
        .get_or_init(|| Mutex::new(Tuner::from_disk(default_cache_path())))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn default_cache_path() -> Option<PathBuf> {
    match cae_trace::knob::raw("CAE_AUTOTUNE_CACHE") {
        Some(v) if cae_trace::knob::is_off(&v) => None,
        Some(path) => Some(PathBuf::from(path)),
        None => Some(std::env::temp_dir().join(format!("cae_autotune_{}.txt", fingerprint()))),
    }
}

/// Host fingerprint the on-disk cache is keyed by: a winner measured on a
/// different arch, SIMD backend, or pool size is not trusted.
fn fingerprint() -> String {
    format!(
        "{}-{}-t{}",
        std::env::consts::ARCH,
        simd::active_backend().name(),
        pool::max_parallelism()
    )
}

const CACHE_MAGIC: &str = "cae-autotune v1";

/// Parses an on-disk cache. Returns empty on any mismatch (missing file,
/// wrong fingerprint, corrupt header) and skips unparseable lines — a stale
/// or torn cache must only ever cost a re-measurement.
fn load_winners(path: &std::path::Path, fingerprint: &str) -> HashMap<ClassKey, GemmConfig> {
    let mut out = HashMap::new();
    let Ok(text) = std::fs::read_to_string(path) else {
        return out;
    };
    let mut lines = text.lines();
    match lines.next() {
        Some(header) if header == format!("{CACHE_MAGIC} {fingerprint}") => {}
        _ => return out,
    }
    for line in lines {
        let fields: Vec<usize> = line.split_whitespace().filter_map(|f| f.parse().ok()).collect();
        let [m, n, k, budget, mc, nc, threads] = fields[..] else {
            continue;
        };
        let key = ClassKey {
            m: m.min(u8::MAX as usize) as u8,
            n: n.min(u8::MAX as usize) as u8,
            k: k.min(u8::MAX as usize) as u8,
            budget: budget.min(u8::MAX as usize) as u8,
        };
        let config = GemmConfig { mc, nc, threads };
        // Only trust entries that are in the current candidate space.
        let valid = CANDIDATE_BLOCKS.contains(&(mc, nc))
            && threads >= 1
            && threads <= key.budget as usize;
        if valid {
            out.insert(key, config);
        }
    }
    out
}

/// Atomically rewrites the cache file (temp + rename). Best-effort: errors
/// are swallowed — persistence is an optimization, never a correctness
/// dependency.
fn save_winners(
    path: &std::path::Path,
    fingerprint: &str,
    winners: &HashMap<ClassKey, GemmConfig>,
) {
    let mut text = format!("{CACHE_MAGIC} {fingerprint}\n");
    let mut rows: Vec<_> = winners.iter().collect();
    rows.sort_by_key(|(k, _)| (k.m, k.n, k.k, k.budget));
    for (key, cfg) in rows {
        text.push_str(&format!(
            "{} {} {} {} {} {} {}\n",
            key.m, key.n, key.k, key.budget, cfg.mc, cfg.nc, cfg.threads
        ));
    }
    let tmp = path.with_extension("tmp");
    if std::fs::write(&tmp, text).is_ok() && std::fs::rename(&tmp, path).is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
}

/// In-process override of `CAE_AUTOTUNE`: 0 = follow env, 1 = forced off,
/// 2 = forced on.
static FORCED_AUTOTUNE: AtomicU8 = AtomicU8::new(0);

/// Test hook: overrides the `CAE_AUTOTUNE` switch in-process (`None`
/// restores env behavior), avoiding racy `std::env::set_var` at test time.
pub fn force_autotune(value: Option<bool>) {
    let code = match value {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    };
    FORCED_AUTOTUNE.store(code, Ordering::Relaxed);
}

/// Whether autotuning is active: the in-process override if set, else the
/// `CAE_AUTOTUNE` env switch (default on), parsed once per process.
pub fn enabled() -> bool {
    match FORCED_AUTOTUNE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => {
            static FROM_ENV: OnceLock<bool> = OnceLock::new();
            *FROM_ENV.get_or_init(|| !cae_trace::knob::off("CAE_AUTOTUNE"))
        }
    }
}

/// Whether on-disk winner persistence is active (the `CAE_AUTOTUNE_CACHE`
/// knob; reflects the tuner's resolved path).
pub fn cache_enabled() -> bool {
    tuner().path.is_some()
}

/// Plans one GEMM call: the cached winner for this shape class if decided,
/// a candidate to measure while the class is warming up, or the static
/// default heuristic when tuning is off / the product is too small to tune.
pub fn plan_gemm(m: usize, n: usize, k: usize, budget: usize) -> GemmPlan {
    let flops = 2 * m * n * k;
    if !enabled() || flops < MIN_TUNE_FLOPS {
        return GemmPlan {
            config: default_config(flops, budget),
            measure: None,
        };
    }
    let key = class_key(m, n, k, budget);
    let mut tuner = tuner();
    if let Some(&cfg) = tuner.disk_winners.get(&key) {
        // A disk-cached winner short-circuits measurement for this class.
        let state = tuner
            .classes
            .entry(key)
            .or_insert_with(|| ClassState::new(candidates(budget)));
        if state.winner.is_none() {
            state.winner = Some(cfg);
        }
    }
    let state = tuner
        .classes
        .entry(key)
        .or_insert_with(|| ClassState::new(candidates(budget)));
    if let Some(cfg) = state.winner {
        return GemmPlan {
            config: cfg,
            measure: None,
        };
    }
    // Least-planned candidate next, so concurrent callers round-robin the
    // candidate space instead of dog-piling one config.
    let idx = (0..state.candidates.len())
        .min_by_key(|&i| state.planned[i])
        .expect("candidate set is never empty");
    state.planned[idx] += 1;
    cae_trace::counter("autotune.measured", 1);
    GemmPlan {
        config: state.candidates[idx],
        measure: Some(idx),
    }
}

/// Feeds a measured sample back. Once every candidate of the class has
/// [`SAMPLES_PER_CANDIDATE`] timed samples, the fastest becomes the winner
/// and is persisted to the on-disk cache (best-effort).
pub fn record(m: usize, n: usize, k: usize, budget: usize, candidate: usize, elapsed: Duration) {
    let key = class_key(m, n, k, budget);
    let mut tuner = tuner();
    let Some(state) = tuner.classes.get_mut(&key) else {
        return;
    };
    if state.winner.is_some() || candidate >= state.candidates.len() {
        return;
    }
    let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX).max(1);
    state.best_nanos[candidate] = state.best_nanos[candidate].min(nanos);
    state.timed[candidate] += 1;
    if state.timed.iter().all(|&t| t >= SAMPLES_PER_CANDIDATE) {
        let best = (0..state.candidates.len())
            .min_by_key(|&i| state.best_nanos[i])
            .expect("candidate set is never empty");
        let cfg = state.candidates[best];
        state.winner = Some(cfg);
        cae_trace::counter("autotune.winners", 1);
        tuner.disk_winners.insert(key, cfg);
        if let Some(path) = tuner.path.clone() {
            save_winners(&path, &fingerprint(), &tuner.disk_winners);
        }
    }
}

/// The decided winner for a shape class, if measurement has converged.
/// Introspection for tests and the profiler.
pub fn winner_for(m: usize, n: usize, k: usize, budget: usize) -> Option<GemmConfig> {
    tuner()
        .classes
        .get(&class_key(m, n, k, budget))
        .and_then(|s| s.winner)
}

/// Total timed samples recorded for a shape class so far.
pub fn timed_samples(m: usize, n: usize, k: usize, budget: usize) -> u64 {
    tuner()
        .classes
        .get(&class_key(m, n, k, budget))
        .map_or(0, |s| s.timed.iter().map(|&t| t as u64).sum())
}

/// Test hook: drops all in-process measurement state and re-targets the
/// on-disk cache at `disk` (`None` disables persistence), reloading winners
/// from it if it exists. Lets tests run against a private temp cache
/// without touching the process environment.
pub fn reset_for_tests(disk: Option<PathBuf>) {
    let mut tuner = tuner();
    *tuner = Tuner::from_disk(disk);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_classes_bucket_by_ceil_log2() {
        assert_eq!(log2_class(1), 0);
        assert_eq!(log2_class(2), 1);
        assert_eq!(log2_class(3), 2);
        assert_eq!(log2_class(4), 2);
        assert_eq!(log2_class(5), 3);
        assert_eq!(class_key(100, 100, 100, 2), class_key(128, 65, 70, 2));
        assert_ne!(class_key(100, 100, 100, 2), class_key(100, 100, 100, 1));
    }

    #[test]
    fn candidate_space_never_tunes_kc_and_respects_budget() {
        let serial = candidates(1);
        assert!(serial.iter().all(|c| c.threads == 1));
        let budget4 = candidates(4);
        assert!(budget4.iter().all(|c| c.threads == 1 || c.threads == 4));
        assert_eq!(budget4.len(), 2 * serial.len());
    }

    #[test]
    fn default_heuristic_matches_pre_autotune_behavior() {
        let small = default_config(PARALLEL_FLOP_THRESHOLD - 1, 4);
        assert_eq!(small, GemmConfig { mc: DEFAULT_MC, nc: DEFAULT_NC, threads: 1 });
        let large = default_config(PARALLEL_FLOP_THRESHOLD, 4);
        assert_eq!(large.threads, 4);
        let budget1 = default_config(PARALLEL_FLOP_THRESHOLD, 1);
        assert_eq!(budget1.threads, 1);
    }

    #[test]
    fn disk_cache_roundtrips_and_rejects_foreign_fingerprints() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("cae_autotune_test_{}.txt", std::process::id()));
        let mut winners = HashMap::new();
        winners.insert(
            ClassKey { m: 7, n: 8, k: 9, budget: 2 },
            GemmConfig { mc: 64, nc: 256, threads: 2 },
        );
        winners.insert(
            ClassKey { m: 5, n: 5, k: 5, budget: 1 },
            GemmConfig { mc: 32, nc: 256, threads: 1 },
        );
        save_winners(&path, "host-a", &winners);
        assert_eq!(load_winners(&path, "host-a"), winners);
        assert!(
            load_winners(&path, "host-b").is_empty(),
            "foreign fingerprint must invalidate the whole cache"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_cache_lines_are_skipped() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("cae_autotune_corrupt_{}.txt", std::process::id()));
        std::fs::write(
            &path,
            format!(
                "{CACHE_MAGIC} host-x\n\
                 garbage line\n\
                 7 8 9 2 64 256 2\n\
                 7 8 9 2 61 999 2\n\
                 1 2 3 1 64 256 9\n"
            ),
        )
        .unwrap();
        let loaded = load_winners(&path, "host-x");
        // Only the well-formed line with an in-space config and a
        // budget-respecting thread count survives.
        assert_eq!(loaded.len(), 1);
        assert_eq!(
            loaded[&ClassKey { m: 7, n: 8, k: 9, budget: 2 }],
            GemmConfig { mc: 64, nc: 256, threads: 2 }
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_cache_file_loads_empty() {
        let path = std::env::temp_dir().join("cae_autotune_does_not_exist_12345.txt");
        assert!(load_winners(&path, "any").is_empty());
    }
}
