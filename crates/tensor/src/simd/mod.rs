//! Portable SIMD abstraction: one trait, three backends, one dispatch point.
//!
//! Every vectorized kernel in this crate (the GEMM micro-kernel, the
//! [`vecmath`] transcendentals, the elementwise/reduction drivers) is written
//! once as a generic function over the [`SimdF32`] trait and monomorphized
//! per backend:
//!
//! * [`scalar::ScalarF32`] — a `[f32; 8]` software vector. Works everywhere;
//!   LLVM auto-vectorizes most of its lane loops at the baseline SSE2
//!   target, so it doubles as the x86-64 SSE2 path.
//! * [`avx2::AvxF32`] — `__m256` with FMA, selected on `x86_64` when the CPU
//!   reports `avx2` **and** `fma`.
//! * [`neon::NeonF32`] — a pair of `float32x4_t` on `aarch64`.
//!
//! # Determinism policy (why results are bit-identical across backends)
//!
//! The experiment pipeline byte-diffs serialized reports produced under
//! different backends (`scripts/tier1.sh` runs the same smoke under
//! `CAE_SIMD=scalar` and the detected backend and `cmp`s the tables), so the
//! backends may not merely be "close" — they must agree bit-for-bit. Three
//! rules make that hold:
//!
//! 1. **Uniform lane count.** Every backend exposes exactly [`LANES`] = 8
//!    virtual f32 lanes, so loop trip counts, tail boundaries and reduction
//!    shapes never depend on the backend.
//! 2. **Uniform op semantics.** Each trait op is defined by its scalar
//!    backend behaviour and the hardware backends match it exactly:
//!    `add/sub/mul/div/sqrt` are the correctly-rounded IEEE 754 operations
//!    on every backend; [`SimdF32::mul_add`] is a *fused* multiply-add with
//!    a single rounding on every backend (the scalar backend calls
//!    [`f32::mul_add`], which is correctly rounded); [`SimdF32::max`] /
//!    [`SimdF32::min`] use the x86 `maxps`/`minps` rule (`a > b ? a : b`,
//!    so a NaN in the first operand yields the second) on every backend.
//! 3. **Fixed reduction trees.** [`SimdF32::reduce_sum`] and
//!    [`SimdF32::reduce_max`] are *provided* methods: they spill the 8 lanes
//!    and combine them in a fixed pairwise tree (`0+4, 1+5, 2+6, 3+7`, then
//!    halves again), shared verbatim by all backends. Long reductions
//!    accumulate into 8 lanes in a fixed element order first, so neither the
//!    partial order nor the horizontal combine depends on the backend.
//!
//! The price is that the scalar backend must use a real fused multiply-add
//! (`fmaf`), which is a libcall when the compile target lacks FMA — the
//! scalar backend is therefore slower than the seed's auto-vectorized
//! mul+add kernel, and exists for correctness, portability and as the
//! cross-check oracle, not for speed.
//!
//! # Dispatch
//!
//! [`active_backend`] picks the backend once per process (cached in an
//! atomic): `CAE_SIMD` override first, then CPU feature detection. The
//! [`simd_dispatch!`] macro is the single dispatch point — it wraps a
//! generic kernel in per-backend `#[target_feature]` thunks so the whole
//! monomorphized call tree (all trait methods are `#[inline(always)]`)
//! is compiled with the backend's features enabled.

pub mod scalar;
pub mod vecmath;

#[cfg(target_arch = "x86_64")]
pub mod avx2;

#[cfg(target_arch = "aarch64")]
pub mod neon;

use std::sync::atomic::{AtomicU8, Ordering};

/// Virtual f32 lanes per SIMD vector, identical on every backend.
pub const LANES: usize = 8;

/// One 8-lane f32 SIMD vector.
///
/// All methods are `unsafe` because the hardware implementations use
/// target-feature intrinsics: the caller must guarantee the backend's CPU
/// features are available, which in this crate is established exactly once,
/// by [`active_backend`] / [`force_backend`] never yielding an unsupported
/// backend (see the module docs for the dispatch pattern).
///
/// Semantics are normative, not best-effort: every backend must implement
/// each operation bit-identically (see the module-level determinism policy).
#[allow(clippy::missing_safety_doc)] // blanket contract documented above
pub trait SimdF32: Copy {
    /// Broadcasts `v` to all lanes.
    unsafe fn splat(v: f32) -> Self;
    /// Loads 8 consecutive f32s from `ptr` (no alignment requirement).
    unsafe fn load(ptr: *const f32) -> Self;
    /// Stores 8 consecutive f32s to `ptr` (no alignment requirement).
    unsafe fn store(self, ptr: *mut f32);
    /// Lane-wise `self + other`.
    unsafe fn add(self, other: Self) -> Self;
    /// Lane-wise `self - other`.
    unsafe fn sub(self, other: Self) -> Self;
    /// Lane-wise `self * other`.
    unsafe fn mul(self, other: Self) -> Self;
    /// Lane-wise `self / other`.
    unsafe fn div(self, other: Self) -> Self;
    /// Lane-wise fused `self * m + a` with a single rounding.
    unsafe fn mul_add(self, m: Self, a: Self) -> Self;
    /// Lane-wise `maxps` rule: `self > other ? self : other` (NaN in `self`
    /// yields `other`).
    unsafe fn max(self, other: Self) -> Self;
    /// Lane-wise `minps` rule: `self < other ? self : other`.
    unsafe fn min(self, other: Self) -> Self;
    /// Lane-wise negation.
    unsafe fn neg(self) -> Self;
    /// Lane-wise absolute value (clears the sign bit).
    unsafe fn abs(self) -> Self;
    /// Lane-wise correctly-rounded square root.
    unsafe fn sqrt(self) -> Self;
    /// Lane-wise round to nearest integer, ties to even.
    unsafe fn round_ties_even(self) -> Self;
    /// Lane-wise `2^self` for lanes holding integral values in
    /// `[-126, 127]`, via the exponent-field bit trick.
    unsafe fn pow2i(self) -> Self;
    /// Lane mask (all-ones / all-zeros bits) of `self > other`; NaN
    /// compares false.
    unsafe fn gt(self, other: Self) -> Self;
    /// Lane mask of `self < other`; NaN compares false.
    unsafe fn lt(self, other: Self) -> Self;
    /// Lane mask of `self != self` (NaN lanes).
    unsafe fn nan_mask(self) -> Self;
    /// Per-lane `mask ? t : f`. `mask` lanes must be all-ones or all-zeros
    /// (the output of `gt`/`lt`/`nan_mask`).
    unsafe fn select(mask: Self, t: Self, f: Self) -> Self;

    /// All lanes zero.
    #[inline(always)]
    unsafe fn zero() -> Self {
        Self::splat(0.0)
    }

    /// Spills the lanes to an array (used by the fixed reduction trees).
    #[inline(always)]
    unsafe fn to_array(self) -> [f32; LANES] {
        let mut buf = [0.0f32; LANES];
        self.store(buf.as_mut_ptr());
        buf
    }

    /// Horizontal sum in a fixed pairwise tree, identical on every backend:
    /// `(l0+l4)+(l2+l6)` + `(l1+l5)+(l3+l7)` — deliberately *not* a
    /// left-to-right fold, so hardware backends could lower it with
    /// half-width extracts without changing the bits.
    #[inline(always)]
    unsafe fn reduce_sum(self) -> f32 {
        let l = self.to_array();
        let s0 = l[0] + l[4];
        let s1 = l[1] + l[5];
        let s2 = l[2] + l[6];
        let s3 = l[3] + l[7];
        (s0 + s2) + (s1 + s3)
    }

    /// Horizontal max over the same fixed tree as [`SimdF32::reduce_sum`],
    /// combining with the `maxps` rule (`a > b ? a : b`).
    #[inline(always)]
    unsafe fn reduce_max(self) -> f32 {
        #[inline(always)]
        fn m(a: f32, b: f32) -> f32 {
            if a > b {
                a
            } else {
                b
            }
        }
        let l = self.to_array();
        let s0 = m(l[0], l[4]);
        let s1 = m(l[1], l[5]);
        let s2 = m(l[2], l[6]);
        let s3 = m(l[3], l[7]);
        m(m(s0, s2), m(s1, s3))
    }
}

/// Which [`SimdF32`] implementation the process is using.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Backend {
    /// `[f32; 8]` software vector (portable fallback / SSE2 via
    /// auto-vectorization).
    Scalar = 1,
    /// `__m256` + FMA on x86-64.
    Avx2 = 2,
    /// Paired `float32x4_t` on aarch64.
    Neon = 3,
}

impl Backend {
    /// Lower-case backend name as recorded in benchmark rows and profiles.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
        }
    }

    /// `cae_trace` counter key bumped once per GEMM call under this backend,
    /// which is how `cae_trace::profile` learns the backend of a run.
    pub fn counter_key(self) -> &'static str {
        match self {
            Backend::Scalar => "gemm.backend.scalar",
            Backend::Avx2 => "gemm.backend.avx2",
            Backend::Neon => "gemm.backend.neon",
        }
    }

    /// Whether the running CPU can execute this backend.
    pub fn supported(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => {
                is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => true, // baseline on aarch64
            #[allow(unreachable_patterns)] // arms above are cfg-gated
            _ => false,
        }
    }

    fn from_u8(v: u8) -> Backend {
        match v {
            2 => Backend::Avx2,
            3 => Backend::Neon,
            _ => Backend::Scalar,
        }
    }
}

/// Cached backend choice; 0 = not yet initialized.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// Best backend the running CPU supports, ignoring `CAE_SIMD`.
#[allow(unreachable_code)] // the aarch64 arm returns unconditionally
pub fn detected_backend() -> Backend {
    #[cfg(target_arch = "x86_64")]
    {
        if Backend::Avx2.supported() {
            return Backend::Avx2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        return Backend::Neon;
    }
    Backend::Scalar
}

/// Parses a `CAE_SIMD` value. The shared disable tokens
/// ([`cae_trace::knob::is_off`]) force the scalar backend, as does
/// `scalar`; `avx2`/`neon` name a backend explicitly (case-insensitive).
/// Unknown values and unsupported backends fall back to auto-detection so
/// a stale override can never crash a run.
fn parse_override(value: &str) -> Option<Backend> {
    let requested = match value.trim().to_ascii_lowercase().as_str() {
        "scalar" => Backend::Scalar,
        "avx2" => Backend::Avx2,
        "neon" => Backend::Neon,
        _ if cae_trace::knob::is_off(value) => Backend::Scalar,
        _ => return None,
    };
    requested.supported().then_some(requested)
}

fn init_backend() -> Backend {
    cae_trace::knob::raw("CAE_SIMD")
        .and_then(|v| parse_override(&v))
        .unwrap_or_else(detected_backend)
}

/// The backend every dispatched kernel in this process uses.
///
/// Resolved once (first call) from `CAE_SIMD` or CPU detection and cached;
/// later changes to the environment variable have no effect. The returned
/// backend is always [`Backend::supported`] on the running CPU — that
/// invariant is what makes the `#[target_feature]` thunks behind
/// `simd_dispatch!` sound.
pub fn active_backend() -> Backend {
    match ACTIVE.load(Ordering::Relaxed) {
        0 => {
            let b = init_backend();
            ACTIVE.store(b as u8, Ordering::Relaxed);
            b
        }
        v => Backend::from_u8(v),
    }
}

/// Forces the process-wide backend, overriding `CAE_SIMD` and detection.
///
/// Test hook for the scalar-vs-SIMD parity suite; safe to call at any time
/// precisely because all backends produce bit-identical results.
///
/// # Panics
/// Panics if the requested backend is not supported on the running CPU.
pub fn force_backend(backend: Backend) {
    assert!(
        backend.supported(),
        "backend {:?} not supported on this CPU",
        backend
    );
    ACTIVE.store(backend as u8, Ordering::Relaxed);
}

/// Wraps a generic SIMD kernel in per-backend `#[target_feature]` thunks and
/// a runtime `match` on [`active_backend`] — the crate's single dispatch
/// pattern.
///
/// ```ignore
/// simd_dispatch!(pub fn vec_add(a: &[f32], b: &[f32], out: &mut [f32]) = add_slice);
/// ```
///
/// expands to a safe `vec_add` that runs `add_slice::<AvxF32>` inside an
/// `#[target_feature(enable = "avx2", enable = "fma")]` thunk when the AVX2
/// backend is active (so the whole inlined call tree is compiled with FMA),
/// and `add_slice::<ScalarF32>` otherwise.
macro_rules! simd_dispatch {
    ($(#[$meta:meta])* $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? = $kernel:ident) => {
        $(#[$meta])*
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2", enable = "fma")]
            unsafe fn thunk_avx2($($arg: $ty),*) $(-> $ret)? {
                unsafe { $kernel::<$crate::simd::avx2::AvxF32>($($arg),*) }
            }
            #[cfg(target_arch = "aarch64")]
            #[target_feature(enable = "neon")]
            unsafe fn thunk_neon($($arg: $ty),*) $(-> $ret)? {
                unsafe { $kernel::<$crate::simd::neon::NeonF32>($($arg),*) }
            }
            match $crate::simd::active_backend() {
                // SAFETY: `active_backend` only ever yields backends whose
                // target features were runtime-detected on this CPU.
                #[cfg(target_arch = "x86_64")]
                $crate::simd::Backend::Avx2 => unsafe { thunk_avx2($($arg),*) },
                #[cfg(target_arch = "aarch64")]
                $crate::simd::Backend::Neon => unsafe { thunk_neon($($arg),*) },
                // SAFETY: the scalar backend needs no target features.
                _ => unsafe { $kernel::<$crate::simd::scalar::ScalarF32>($($arg),*) },
            }
        }
    };
}

pub(crate) use simd_dispatch;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detected_backend_is_supported() {
        assert!(detected_backend().supported());
        assert!(Backend::Scalar.supported());
    }

    #[test]
    fn override_parsing_matches_cell_parallel_conventions() {
        for v in ["0", "off", "FALSE", " no ", "Scalar", "SCALAR"] {
            assert_eq!(parse_override(v), Some(Backend::Scalar), "value {v:?}");
        }
        // Unknown tokens fall back to detection.
        assert_eq!(parse_override("pentium"), None);
        assert_eq!(parse_override(""), None);
        // Named backends resolve only when the CPU supports them.
        #[cfg(target_arch = "x86_64")]
        if Backend::Avx2.supported() {
            assert_eq!(parse_override("AVX2"), Some(Backend::Avx2));
        }
        #[cfg(target_arch = "x86_64")]
        assert_eq!(parse_override("neon"), None, "neon never valid on x86-64");
    }

    #[test]
    fn backend_names_and_counter_keys_agree() {
        for b in [Backend::Scalar, Backend::Avx2, Backend::Neon] {
            assert_eq!(b.counter_key(), format!("gemm.backend.{}", b.name()));
            assert_eq!(Backend::from_u8(b as u8), b);
        }
    }

    #[test]
    fn reduce_trees_are_fixed_and_total() {
        // reduce_sum must follow the documented pairwise tree, not a fold.
        let v: Vec<f32> = (1..=8).map(|i| i as f32).collect();
        let x = unsafe { scalar::ScalarF32::load(v.as_ptr()) };
        let tree: f32 = ((1.0 + 5.0) + (3.0 + 7.0)) + ((2.0 + 6.0) + (4.0 + 8.0));
        assert_eq!(unsafe { x.reduce_sum() }.to_bits(), tree.to_bits());
        assert_eq!(unsafe { x.reduce_max() }, 8.0);
    }
}
