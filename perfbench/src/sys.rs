//! Process resource usage and host facts.

use std::collections::BTreeMap;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as laid out on 64-bit Linux.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

/// Lets the calling thread's sleeps end within about a microsecond of their
/// deadline instead of the default 50 µs timer slack, so the load generator
/// sends on time.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK (29) takes one unsigned long, in ns.
    unsafe { prctl(29, 1u64) };
}

fn rusage() -> Rusage {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage`; 0 is RUSAGE_SELF.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    usage
}

/// User plus system CPU time of the whole process so far, seconds.
pub fn cpu_seconds() -> f64 {
    let u = rusage();
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&u.utime) + secs(&u.stime)
}

/// Peak resident set size of the process so far, MiB.
pub fn peak_rss_mb() -> f64 {
    rusage().maxrss as f64 / 1024.0
}

/// The facts a measurement depends on beyond the code: results whose host
/// facts differ are not comparable.
pub fn host_facts() -> BTreeMap<&'static str, String> {
    BTreeMap::from([
        ("arch", std::env::consts::ARCH.to_string()),
        (
            "nproc",
            std::thread::available_parallelism().map_or(1, |n| n.get()).to_string(),
        ),
        ("simd", cae_tensor::simd::active_backend().name().to_string()),
        ("pool_threads", cae_tensor::pool::max_parallelism().to_string()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - before < 0.02 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        std::hint::black_box(x);
        assert!(peak_rss_mb() > 1.0);
    }

    #[test]
    fn host_facts_name_the_pool_and_backend() {
        let facts = host_facts();
        assert!(facts["nproc"].parse::<usize>().unwrap() >= 1);
        assert!(facts["pool_threads"].parse::<usize>().unwrap() >= 1);
        assert!(!facts["simd"].is_empty());
    }
}
