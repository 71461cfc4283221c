//! Vectorized slice kernels: transcendentals, elementwise maps, reductions
//! and the fused optimizer update, written once over [`SimdF32`] and
//! dispatched per-backend.
//!
//! Every public function here is generated by `simd_dispatch!`, so calling
//! it runs the generic kernel under the active backend's target features.
//! All kernels share the same shape:
//!
//! * the main loop walks [`LANES`]-wide chunks,
//! * the remainder goes through a *masked tail load*: the tail elements are
//!   copied into a `[f32; LANES]` stack buffer padded with an op-specific
//!   identity (`0.0` for sums and elementwise ops, `-inf` for maxima), the
//!   full-width op runs once more, and only the valid lanes are stored
//!   back — so tails take the exact same arithmetic path as full chunks.
//!
//! Reductions accumulate into 8 virtual lanes in a fixed element order and
//! collapse with the fixed tree in [`SimdF32::reduce_sum`] /
//! [`SimdF32::reduce_max`], which is what keeps their results bit-identical
//! across backends (see the `simd` module docs for the full determinism
//! policy).
//!
//! The transcendentals use Cephes-style polynomial kernels ([`vec_exp`]:
//! Cody-Waite range reduction + degree-6 polynomial + two-step exponent
//! scaling that handles subnormal underflow and the overflow boundary;
//! [`vec_tanh`]: odd polynomial below 0.625, `1 - 2/(e^{2|x|}+1)` above),
//! with NaN propagation restored by mask selects. Accuracy against scalar
//! libm is enforced by the ULP-bound tests in `tests/simd_parity.rs`.

use super::{simd_dispatch, SimdF32, LANES};

// ---------------------------------------------------------------------------
// exp/tanh polynomial constants (single-precision Cephes expf/tanhf).

const EXP_LO: f32 = -104.0; // below this exp underflows past the subnormals
const EXP_HI: f32 = 88.722_84; // ~ln(f32::MAX); above this exp overflows
const LOG2_E: f32 = std::f32::consts::LOG2_E;
// Exactly representable (0x3F317000): the Cody-Waite hi/lo split depends on
// these literal bits, not on the shortest decimal rendering clippy prefers.
#[allow(clippy::excessive_precision)]
const LN2_HI: f32 = 0.693_359_375;
const LN2_LO: f32 = -2.121_944_4e-4;
const EXP_P: [f32; 6] = [
    1.987_569_2e-4,
    1.398_2e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    1.666_666_5e-1,
    5.000_000_3e-1,
];
const TANH_CUTOFF: f32 = 0.625;
// Cephes tanhf coefficients verbatim; keep their published digits.
#[allow(clippy::excessive_precision)]
const TANH_P: [f32; 5] = [
    -5.704_988_7e-3,
    2.063_908_9e-2,
    -5.373_971_6e-2,
    1.333_144_2e-1,
    -3.333_328_2e-1,
];

// ---------------------------------------------------------------------------
// Per-vector math (inlined into every slice kernel).

/// `exp(x)` per lane: clamp, Cody-Waite reduction `r = x - n·ln2`,
/// degree-6 polynomial, then scaling by `2^n` split into two half-range
/// factors so subnormal results round correctly and `n = 128` (just below
/// the overflow cutoff) stays representable.
#[inline(always)]
unsafe fn exp_v<S: SimdF32>(x: S) -> S {
    unsafe {
        let hi = S::splat(EXP_HI);
        let xc = x.max(S::splat(EXP_LO)).min(hi);
        let n = xc.mul(S::splat(LOG2_E)).round_ties_even();
        let r = n.mul_add(S::splat(-LN2_HI), xc);
        let r = n.mul_add(S::splat(-LN2_LO), r);
        let mut p = S::splat(EXP_P[0]);
        for &c in &EXP_P[1..] {
            p = p.mul_add(r, S::splat(c));
        }
        let y = p.mul_add(r.mul(r), r).add(S::splat(1.0));
        // 2^n = 2^m1 · 2^m2 with m1 = round(n/2 - 1/4), m2 = n - m1: both
        // halves stay inside the normal exponent range for n ∈ [-151, 129].
        let m1 = n.mul_add(S::splat(0.5), S::splat(-0.25)).round_ties_even();
        let m2 = n.sub(m1);
        let y = y.mul(m1.pow2i()).mul(m2.pow2i());
        let y = S::select(x.gt(hi), S::splat(f32::INFINITY), y);
        S::select(x.nan_mask(), x, y)
    }
}

/// `1 / (1 + exp(-x))` per lane; the division is correctly rounded on every
/// backend, so sigmoid inherits exp's bit-identity.
#[inline(always)]
unsafe fn sigmoid_v<S: SimdF32>(x: S) -> S {
    unsafe {
        let one = S::splat(1.0);
        one.div(one.add(exp_v::<S>(x.neg())))
    }
}

/// `tanh(x)` per lane: odd polynomial `x + x·t·P(t)` (`t = x²`) below the
/// 0.625 cutoff, `sign(x)·(1 - 2/(e^{2|x|}+1))` above. NaN follows the
/// large branch and propagates through the arithmetic.
#[inline(always)]
unsafe fn tanh_v<S: SimdF32>(x: S) -> S {
    unsafe {
        let z = x.abs();
        let one = S::splat(1.0);
        let big = one.sub(S::splat(2.0).div(exp_v::<S>(z.add(z)).add(one)));
        let big = S::select(x.lt(S::zero()), big.neg(), big);
        let t = x.mul(x);
        let mut p = S::splat(TANH_P[0]);
        for &c in &TANH_P[1..] {
            p = p.mul_add(t, S::splat(c));
        }
        let small = x.mul(t).mul_add(p, x);
        // When t = x² is not strictly positive (x is ±0 or subnormal enough
        // to underflow the square) tanh(x) = x exactly to f32 precision; the
        // fma form would turn -0.0 into +0.0.
        let small = S::select(t.gt(S::zero()), small, x);
        S::select(z.lt(S::splat(TANH_CUTOFF)), small, big)
    }
}

// ---------------------------------------------------------------------------
// Tail handling: masked loads/stores through a lane-wide stack buffer.

/// Loads a partial chunk, padding missing lanes with `fill`.
#[inline(always)]
unsafe fn load_tail<S: SimdF32>(src: &[f32], fill: f32) -> S {
    debug_assert!(src.len() < LANES);
    let mut buf = [fill; LANES];
    buf[..src.len()].copy_from_slice(src);
    unsafe { S::load(buf.as_ptr()) }
}

/// Stores only `dst.len()` valid lanes of `v`.
#[inline(always)]
unsafe fn store_tail<S: SimdF32>(v: S, dst: &mut [f32]) {
    debug_assert!(dst.len() < LANES);
    let buf = unsafe { v.to_array() };
    let n = dst.len();
    dst.copy_from_slice(&buf[..n]);
}

// ---------------------------------------------------------------------------
// Slice drivers.
//
// These are macros, not higher-order functions, on purpose: a closure
// argument compiles to its own (featureless) function, and the
// `#[target_feature]` intrinsics behind the hardware backends cannot be
// inlined into a function without those features — every vector op in the
// closure body degrades to an outlined call (~10× slower than libm in
// practice). A macro keeps the op expression lexically inside the
// `#[inline(always)]` slice kernel, so the whole loop collapses into the
// dispatch thunk and compiles as straight-line SIMD.

/// `dst[i] = f(src[i])` for a lane-wise expression `f`.
macro_rules! unary_loop {
    ($S:ty, $src:expr, $dst:expr, |$v:ident| $body:expr) => {{
        let src: &[f32] = $src;
        let dst: &mut [f32] = $dst;
        assert_eq!(src.len(), dst.len(), "unary kernel length mismatch");
        let n = src.len();
        let mut i = 0;
        while i + LANES <= n {
            let $v = <$S as SimdF32>::load(src.as_ptr().add(i));
            ($body).store(dst.as_mut_ptr().add(i));
            i += LANES;
        }
        if i < n {
            let $v = load_tail::<$S>(&src[i..], 0.0);
            store_tail($body, &mut dst[i..]);
        }
    }};
}

/// `dst[i] = f(dst[i])` in place.
macro_rules! unary_inplace_loop {
    ($S:ty, $dst:expr, |$v:ident| $body:expr) => {{
        let dst: &mut [f32] = $dst;
        let n = dst.len();
        let mut i = 0;
        while i + LANES <= n {
            let p = dst.as_mut_ptr().add(i);
            let $v = <$S as SimdF32>::load(p);
            ($body).store(p);
            i += LANES;
        }
        if i < n {
            let $v = load_tail::<$S>(&dst[i..], 0.0);
            store_tail($body, &mut dst[i..]);
        }
    }};
}

/// `dst[i] = f(a[i], b[i])` for a lane-wise expression `f`.
macro_rules! binary_loop {
    ($S:ty, $a:expr, $b:expr, $dst:expr, |$va:ident, $vb:ident| $body:expr) => {{
        let a: &[f32] = $a;
        let b: &[f32] = $b;
        let dst: &mut [f32] = $dst;
        assert_eq!(a.len(), b.len(), "binary kernel length mismatch");
        assert_eq!(a.len(), dst.len(), "binary kernel length mismatch");
        let n = a.len();
        let mut i = 0;
        while i + LANES <= n {
            let $va = <$S as SimdF32>::load(a.as_ptr().add(i));
            let $vb = <$S as SimdF32>::load(b.as_ptr().add(i));
            ($body).store(dst.as_mut_ptr().add(i));
            i += LANES;
        }
        if i < n {
            let $va = load_tail::<$S>(&a[i..], 0.0);
            let $vb = load_tail::<$S>(&b[i..], 0.0);
            store_tail($body, &mut dst[i..]);
        }
    }};
}

/// `dst[i] = f(dst[i], src[i])` in place.
macro_rules! binary_inplace_loop {
    ($S:ty, $dst:expr, $src:expr, |$vd:ident, $vs:ident| $body:expr) => {{
        let dst: &mut [f32] = $dst;
        let src: &[f32] = $src;
        assert_eq!(dst.len(), src.len(), "binary kernel length mismatch");
        let n = dst.len();
        let mut i = 0;
        while i + LANES <= n {
            let p = dst.as_mut_ptr().add(i);
            let $vs = <$S as SimdF32>::load(src.as_ptr().add(i));
            let $vd = <$S as SimdF32>::load(p);
            ($body).store(p);
            i += LANES;
        }
        if i < n {
            let $vd = load_tail::<$S>(&dst[i..], 0.0);
            let $vs = load_tail::<$S>(&src[i..], 0.0);
            store_tail($body, &mut dst[i..]);
        }
    }};
}

// ---------------------------------------------------------------------------
// Generic kernels behind the dispatched API.

#[inline(always)]
unsafe fn exp_slice<S: SimdF32>(src: &[f32], dst: &mut [f32]) {
    unsafe { unary_loop!(S, src, dst, |v| exp_v::<S>(v)) }
}

#[inline(always)]
unsafe fn exp_shift_slice<S: SimdF32>(src: &[f32], shift: f32, dst: &mut [f32]) {
    unsafe {
        let s = S::splat(shift);
        unary_loop!(S, src, dst, |v| exp_v::<S>(v.add(s)))
    }
}

#[inline(always)]
unsafe fn sigmoid_slice<S: SimdF32>(src: &[f32], dst: &mut [f32]) {
    unsafe { unary_loop!(S, src, dst, |v| sigmoid_v::<S>(v)) }
}

#[inline(always)]
unsafe fn tanh_slice<S: SimdF32>(src: &[f32], dst: &mut [f32]) {
    unsafe { unary_loop!(S, src, dst, |v| tanh_v::<S>(v)) }
}

#[inline(always)]
unsafe fn relu_slice<S: SimdF32>(src: &[f32], dst: &mut [f32]) {
    unsafe { unary_loop!(S, src, dst, |v| v.max(S::zero())) }
}

#[inline(always)]
unsafe fn leaky_relu_slice<S: SimdF32>(src: &[f32], slope: f32, dst: &mut [f32]) {
    unsafe {
        let s = S::splat(slope);
        let zero = S::zero();
        unary_loop!(S, src, dst, |v| S::select(v.gt(zero), v, v.mul(s)))
    }
}

#[inline(always)]
unsafe fn relu_inplace_slice<S: SimdF32>(dst: &mut [f32]) {
    unsafe { unary_inplace_loop!(S, dst, |v| v.max(S::zero())) }
}

#[inline(always)]
unsafe fn leaky_relu_inplace_slice<S: SimdF32>(dst: &mut [f32], slope: f32) {
    unsafe {
        let s = S::splat(slope);
        let zero = S::zero();
        unary_inplace_loop!(S, dst, |v| S::select(v.gt(zero), v, v.mul(s)))
    }
}

#[inline(always)]
unsafe fn relu_grad_slice<S: SimdF32>(x: &[f32], g: &[f32], dst: &mut [f32]) {
    unsafe {
        let zero = S::zero();
        binary_loop!(S, x, g, dst, |xv, gv| S::select(xv.gt(zero), gv, zero))
    }
}

#[inline(always)]
unsafe fn leaky_relu_grad_slice<S: SimdF32>(x: &[f32], g: &[f32], slope: f32, dst: &mut [f32]) {
    unsafe {
        let s = S::splat(slope);
        let zero = S::zero();
        binary_loop!(S, x, g, dst, |xv, gv| S::select(xv.gt(zero), gv, gv.mul(s)))
    }
}

#[inline(always)]
unsafe fn tanh_grad_slice<S: SimdF32>(y: &[f32], g: &[f32], dst: &mut [f32]) {
    // g·(1 - y²) as -(g·(y² - 1)) so the square and subtraction fuse.
    unsafe {
        let neg_one = S::splat(-1.0);
        binary_loop!(S, y, g, dst, |yv, gv| gv.mul(yv.mul_add(yv, neg_one)).neg())
    }
}

#[inline(always)]
unsafe fn sigmoid_grad_slice<S: SimdF32>(y: &[f32], g: &[f32], dst: &mut [f32]) {
    unsafe {
        let one = S::splat(1.0);
        binary_loop!(S, y, g, dst, |yv, gv| gv.mul(yv).mul(one.sub(yv)))
    }
}

#[inline(always)]
unsafe fn add_slice<S: SimdF32>(a: &[f32], b: &[f32], dst: &mut [f32]) {
    unsafe { binary_loop!(S, a, b, dst, |x, y| x.add(y)) }
}

#[inline(always)]
unsafe fn add_inplace_slice<S: SimdF32>(dst: &mut [f32], src: &[f32]) {
    unsafe { binary_inplace_loop!(S, dst, src, |d, s| d.add(s)) }
}

#[inline(always)]
unsafe fn bias_relu_inplace_slice<S: SimdF32>(dst: &mut [f32], b: f32) {
    unsafe {
        let bv = S::splat(b);
        let zero = S::zero();
        unary_inplace_loop!(S, dst, |v| v.add(bv).max(zero))
    }
}

#[inline(always)]
unsafe fn bias_leaky_relu_inplace_slice<S: SimdF32>(dst: &mut [f32], b: f32, slope: f32) {
    unsafe {
        let bv = S::splat(b);
        let sv = S::splat(slope);
        let zero = S::zero();
        unary_inplace_loop!(S, dst, |v| {
            let y = v.add(bv);
            S::select(y.gt(zero), y, y.mul(sv))
        })
    }
}

#[inline(always)]
unsafe fn scale_shift_inplace_slice<S: SimdF32>(dst: &mut [f32], s: f32, b: f32) {
    unsafe {
        let sv = S::splat(s);
        let bv = S::splat(b);
        unary_inplace_loop!(S, dst, |v| v.mul_add(sv, bv))
    }
}

#[inline(always)]
unsafe fn scale_shift_relu_inplace_slice<S: SimdF32>(dst: &mut [f32], s: f32, b: f32) {
    unsafe {
        let sv = S::splat(s);
        let bv = S::splat(b);
        let zero = S::zero();
        unary_inplace_loop!(S, dst, |v| v.mul_add(sv, bv).max(zero))
    }
}

#[inline(always)]
unsafe fn scale_shift_leaky_relu_inplace_slice<S: SimdF32>(
    dst: &mut [f32],
    s: f32,
    b: f32,
    slope: f32,
) {
    unsafe {
        let sv = S::splat(s);
        let bv = S::splat(b);
        let lv = S::splat(slope);
        let zero = S::zero();
        unary_inplace_loop!(S, dst, |v| {
            let y = v.mul_add(sv, bv);
            S::select(y.gt(zero), y, y.mul(lv))
        })
    }
}

#[inline(always)]
unsafe fn sub_slice<S: SimdF32>(a: &[f32], b: &[f32], dst: &mut [f32]) {
    unsafe { binary_loop!(S, a, b, dst, |x, y| x.sub(y)) }
}

#[inline(always)]
unsafe fn mul_slice<S: SimdF32>(a: &[f32], b: &[f32], dst: &mut [f32]) {
    unsafe { binary_loop!(S, a, b, dst, |x, y| x.mul(y)) }
}

#[inline(always)]
unsafe fn scale_slice<S: SimdF32>(src: &[f32], s: f32, dst: &mut [f32]) {
    unsafe {
        let sv = S::splat(s);
        unary_loop!(S, src, dst, |v| v.mul(sv))
    }
}

#[inline(always)]
unsafe fn scale_inplace_slice<S: SimdF32>(dst: &mut [f32], s: f32) {
    unsafe {
        let sv = S::splat(s);
        unary_inplace_loop!(S, dst, |v| v.mul(sv))
    }
}

#[inline(always)]
unsafe fn add_scalar_slice<S: SimdF32>(src: &[f32], s: f32, dst: &mut [f32]) {
    unsafe {
        let sv = S::splat(s);
        unary_loop!(S, src, dst, |v| v.add(sv))
    }
}

#[inline(always)]
unsafe fn add_scalar_inplace_slice<S: SimdF32>(dst: &mut [f32], s: f32) {
    unsafe {
        let sv = S::splat(s);
        unary_inplace_loop!(S, dst, |v| v.add(sv))
    }
}

#[inline(always)]
unsafe fn div_scalar_inplace_slice<S: SimdF32>(dst: &mut [f32], s: f32) {
    unsafe {
        let sv = S::splat(s);
        unary_inplace_loop!(S, dst, |v| v.div(sv))
    }
}

#[inline(always)]
unsafe fn axpy_slice<S: SimdF32>(dst: &mut [f32], x: &[f32], s: f32) {
    unsafe {
        let sv = S::splat(s);
        binary_inplace_loop!(S, dst, x, |d, xv| xv.mul_add(sv, d))
    }
}

#[inline(always)]
unsafe fn scale_add_inplace_slice<S: SimdF32>(dst: &mut [f32], s: f32, y: &[f32]) {
    unsafe {
        let sv = S::splat(s);
        binary_inplace_loop!(S, dst, y, |d, yv| d.mul_add(sv, yv))
    }
}

/// Widens a sub-`LANES` run of i8 quants into an f32 vector (missing lanes
/// zero). `i8 → f32` is exact, so the widening introduces no rounding and
/// the kernels below stay bit-identical across backends.
#[inline(always)]
unsafe fn load_i8<S: SimdF32>(src: &[i8]) -> S {
    let mut buf = [0.0f32; LANES];
    for (b, &q) in buf.iter_mut().zip(src) {
        *b = f32::from(q);
    }
    unsafe { S::load(buf.as_ptr()) }
}

#[inline(always)]
unsafe fn dequant_i8_slice<S: SimdF32>(src: &[i8], scale: f32, dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "dequant kernel length mismatch");
    unsafe {
        let sv = S::splat(scale);
        let n = src.len();
        let mut i = 0;
        while i + LANES <= n {
            let v = load_i8::<S>(&src[i..i + LANES]);
            v.mul(sv).store(dst.as_mut_ptr().add(i));
            i += LANES;
        }
        if i < n {
            let v = load_i8::<S>(&src[i..]);
            store_tail(v.mul(sv), &mut dst[i..]);
        }
    }
}

#[inline(always)]
unsafe fn dequant_i8_cols_slice<S: SimdF32>(src: &[i8], scales: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "dequant kernel length mismatch");
    assert_eq!(src.len(), scales.len(), "dequant kernel length mismatch");
    unsafe {
        let n = src.len();
        let mut i = 0;
        while i + LANES <= n {
            let v = load_i8::<S>(&src[i..i + LANES]);
            let sv = S::load(scales.as_ptr().add(i));
            v.mul(sv).store(dst.as_mut_ptr().add(i));
            i += LANES;
        }
        if i < n {
            let v = load_i8::<S>(&src[i..]);
            let sv = load_tail::<S>(&scales[i..], 0.0);
            store_tail(v.mul(sv), &mut dst[i..]);
        }
    }
}

#[inline(always)]
unsafe fn sum_slice<S: SimdF32>(src: &[f32]) -> f32 {
    unsafe {
        let mut acc = S::zero();
        let n = src.len();
        let mut i = 0;
        while i + LANES <= n {
            acc = acc.add(S::load(src.as_ptr().add(i)));
            i += LANES;
        }
        if i < n {
            acc = acc.add(load_tail::<S>(&src[i..], 0.0));
        }
        acc.reduce_sum()
    }
}

#[inline(always)]
unsafe fn dot_slice<S: SimdF32>(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot kernel length mismatch");
    unsafe {
        let mut acc = S::zero();
        let n = a.len();
        let mut i = 0;
        while i + LANES <= n {
            let va = S::load(a.as_ptr().add(i));
            let vb = S::load(b.as_ptr().add(i));
            acc = va.mul_add(vb, acc);
            i += LANES;
        }
        if i < n {
            let va = load_tail::<S>(&a[i..], 0.0);
            let vb = load_tail::<S>(&b[i..], 0.0);
            acc = va.mul_add(vb, acc);
        }
        acc.reduce_sum()
    }
}

#[inline(always)]
unsafe fn max_slice<S: SimdF32>(src: &[f32]) -> f32 {
    unsafe {
        let mut acc = S::splat(f32::NEG_INFINITY);
        let n = src.len();
        let mut i = 0;
        while i + LANES <= n {
            acc = acc.max(S::load(src.as_ptr().add(i)));
            i += LANES;
        }
        if i < n {
            acc = acc.max(load_tail::<S>(&src[i..], f32::NEG_INFINITY));
        }
        acc.reduce_max()
    }
}

#[inline(always)]
unsafe fn softmax_slice<S: SimdF32>(row: &mut [f32]) {
    if row.is_empty() {
        return;
    }
    unsafe {
        let m = max_slice::<S>(row);
        let mv = S::splat(m);
        unary_inplace_loop!(S, row, |v| exp_v::<S>(v.sub(mv)));
        let z = sum_slice::<S>(row);
        let zv = S::splat(z);
        unary_inplace_loop!(S, row, |v| v.div(zv));
    }
}

#[inline(always)]
unsafe fn adam_slice<S: SimdF32>(
    w: &mut [f32],
    m: &[f32],
    v: &[f32],
    lr: f32,
    bc1: f32,
    bc2: f32,
    eps: f32,
) {
    assert_eq!(w.len(), m.len(), "adam kernel length mismatch");
    assert_eq!(w.len(), v.len(), "adam kernel length mismatch");
    unsafe {
        let (bc1v, bc2v) = (S::splat(bc1), S::splat(bc2));
        let (lrv, epsv) = (S::splat(lr), S::splat(eps));
        let n = w.len();
        let mut i = 0;
        // A macro, not a closure, for the same inlining reason as the slice
        // drivers above.
        macro_rules! step {
            ($wv:expr, $mv:expr, $vv:expr) => {{
                let mhat = $mv.div(bc1v);
                let vhat = $vv.div(bc2v);
                $wv.sub(lrv.mul(mhat).div(vhat.sqrt().add(epsv)))
            }};
        }
        while i + LANES <= n {
            let p = w.as_mut_ptr().add(i);
            let mv = S::load(m.as_ptr().add(i));
            let vv = S::load(v.as_ptr().add(i));
            step!(S::load(p), mv, vv).store(p);
            i += LANES;
        }
        if i < n {
            let wv = load_tail::<S>(&w[i..], 0.0);
            let mv = load_tail::<S>(&m[i..], 0.0);
            let vv = load_tail::<S>(&v[i..], 0.0);
            store_tail(step!(wv, mv, vv), &mut w[i..]);
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatched public API.

simd_dispatch!(
    /// `dst[i] = exp(src[i])`, ULP-tested against libm `expf`.
    pub fn vec_exp(src: &[f32], dst: &mut [f32]) = exp_slice
);
simd_dispatch!(
    /// `dst[i] = exp(src[i] + shift)` — the fused shift used by softmax and
    /// log-sum-exp.
    pub fn vec_exp_shift(src: &[f32], shift: f32, dst: &mut [f32]) = exp_shift_slice
);
simd_dispatch!(
    /// `dst[i] = 1 / (1 + exp(-src[i]))`.
    pub fn vec_sigmoid(src: &[f32], dst: &mut [f32]) = sigmoid_slice
);
simd_dispatch!(
    /// `dst[i] = tanh(src[i])`, ULP-tested against libm `tanhf`.
    pub fn vec_tanh(src: &[f32], dst: &mut [f32]) = tanh_slice
);
simd_dispatch!(
    /// `dst[i] = max(src[i], 0)` (NaN inputs yield `0`, like `f32::max`).
    pub fn vec_relu(src: &[f32], dst: &mut [f32]) = relu_slice
);
simd_dispatch!(
    /// `dst[i] = src[i] > 0 ? src[i] : slope·src[i]`.
    pub fn vec_leaky_relu(src: &[f32], slope: f32, dst: &mut [f32]) = leaky_relu_slice
);
simd_dispatch!(
    /// In-place [`vec_relu`]: `dst[i] = max(dst[i], 0)`, the same lane op.
    pub fn vec_relu_inplace(dst: &mut [f32]) = relu_inplace_slice
);
simd_dispatch!(
    /// In-place [`vec_leaky_relu`]: `dst[i] = dst[i] > 0 ? dst[i] :
    /// slope·dst[i]`, the same lane op.
    pub fn vec_leaky_relu_inplace(dst: &mut [f32], slope: f32) = leaky_relu_inplace_slice
);
simd_dispatch!(
    /// ReLU backward: `dst[i] = x[i] > 0 ? g[i] : 0`.
    pub fn vec_relu_grad(x: &[f32], g: &[f32], dst: &mut [f32]) = relu_grad_slice
);
simd_dispatch!(
    /// Leaky-ReLU backward: `dst[i] = x[i] > 0 ? g[i] : slope·g[i]`.
    pub fn vec_leaky_relu_grad(x: &[f32], g: &[f32], slope: f32, dst: &mut [f32]) =
        leaky_relu_grad_slice
);
simd_dispatch!(
    /// Tanh backward from the saved output: `dst[i] = g[i]·(1 - y[i]²)`.
    pub fn vec_tanh_grad(y: &[f32], g: &[f32], dst: &mut [f32]) = tanh_grad_slice
);
simd_dispatch!(
    /// Sigmoid backward from the saved output: `dst[i] = g[i]·y[i]·(1 - y[i])`.
    pub fn vec_sigmoid_grad(y: &[f32], g: &[f32], dst: &mut [f32]) = sigmoid_grad_slice
);
simd_dispatch!(
    /// `dst[i] = a[i] + b[i]`.
    pub fn vec_add(a: &[f32], b: &[f32], dst: &mut [f32]) = add_slice
);
simd_dispatch!(
    /// In-place `dst[i] += src[i]` — the residual-accumulation primitive of
    /// the frozen inference path (same lane op and order as [`vec_add`], so
    /// results are bit-identical to the out-of-place form).
    pub fn vec_add_inplace(dst: &mut [f32], src: &[f32]) = add_inplace_slice
);
simd_dispatch!(
    /// In-place fused conv epilogue: `dst[i] = max(dst[i] + b, 0)`.
    pub fn vec_bias_relu_inplace(dst: &mut [f32], b: f32) = bias_relu_inplace_slice
);
simd_dispatch!(
    /// In-place fused conv epilogue:
    /// `y = dst[i] + b; dst[i] = y > 0 ? y : slope·y`.
    pub fn vec_bias_leaky_relu_inplace(dst: &mut [f32], b: f32, slope: f32) =
        bias_leaky_relu_inplace_slice
);
simd_dispatch!(
    /// In-place fused (fma) batch-norm epilogue: `dst[i] = dst[i]·s + b`.
    pub fn vec_scale_shift_inplace(dst: &mut [f32], s: f32, b: f32) = scale_shift_inplace_slice
);
simd_dispatch!(
    /// In-place fused batch-norm + ReLU: `dst[i] = max(dst[i]·s + b, 0)`.
    pub fn vec_scale_shift_relu_inplace(dst: &mut [f32], s: f32, b: f32) =
        scale_shift_relu_inplace_slice
);
simd_dispatch!(
    /// In-place fused batch-norm + leaky ReLU:
    /// `y = dst[i]·s + b; dst[i] = y > 0 ? y : slope·y`.
    pub fn vec_scale_shift_leaky_relu_inplace(dst: &mut [f32], s: f32, b: f32, slope: f32) =
        scale_shift_leaky_relu_inplace_slice
);
simd_dispatch!(
    /// `dst[i] = a[i] - b[i]`.
    pub fn vec_sub(a: &[f32], b: &[f32], dst: &mut [f32]) = sub_slice
);
simd_dispatch!(
    /// `dst[i] = a[i] · b[i]`.
    pub fn vec_mul(a: &[f32], b: &[f32], dst: &mut [f32]) = mul_slice
);
simd_dispatch!(
    /// `dst[i] = src[i] · s`.
    pub fn vec_scale(src: &[f32], s: f32, dst: &mut [f32]) = scale_slice
);
simd_dispatch!(
    /// In-place `dst[i] *= s`.
    pub fn vec_scale_inplace(dst: &mut [f32], s: f32) = scale_inplace_slice
);
simd_dispatch!(
    /// `dst[i] = src[i] + s`.
    pub fn vec_add_scalar(src: &[f32], s: f32, dst: &mut [f32]) = add_scalar_slice
);
simd_dispatch!(
    /// In-place `dst[i] += s`.
    pub fn vec_add_scalar_inplace(dst: &mut [f32], s: f32) = add_scalar_inplace_slice
);
simd_dispatch!(
    /// In-place `dst[i] /= s`.
    pub fn vec_div_scalar_inplace(dst: &mut [f32], s: f32) = div_scalar_inplace_slice
);
simd_dispatch!(
    /// In-place `dst[i] += x[i] · s` (fused) — the gradient-accumulation
    /// primitive.
    pub fn vec_axpy(dst: &mut [f32], x: &[f32], s: f32) = axpy_slice
);
simd_dispatch!(
    /// In-place `dst[i] = dst[i]·s + y[i]` (fused) — e.g. log-softmax
    /// backward with `dst = softmax`, `s = -Σg`, `y = g`.
    pub fn vec_scale_add_inplace(dst: &mut [f32], s: f32, y: &[f32]) = scale_add_inplace_slice
);
simd_dispatch!(
    /// int8 → f32 dequantization with one symmetric scale for the whole
    /// slice: `dst[i] = src[i] as f32 · scale`. The per-output-channel
    /// frozen-weight layout calls this once per contiguous channel block.
    pub fn vec_dequant_i8(src: &[i8], scale: f32, dst: &mut [f32]) = dequant_i8_slice
);
simd_dispatch!(
    /// int8 → f32 dequantization with a per-element scale vector:
    /// `dst[i] = src[i] as f32 · scales[i]` — the per-column form used by
    /// `[in, out]` linear weights (call once per row with the column
    /// scales).
    pub fn vec_dequant_i8_cols(src: &[i8], scales: &[f32], dst: &mut [f32]) = dequant_i8_cols_slice
);
simd_dispatch!(
    /// Sum of all elements over the fixed 8-lane reduction order.
    pub fn vec_sum(src: &[f32]) -> f32 = sum_slice
);
simd_dispatch!(
    /// Fused dot product over the fixed 8-lane reduction order.
    pub fn vec_dot(a: &[f32], b: &[f32]) -> f32 = dot_slice
);
simd_dispatch!(
    /// Maximum element (`-inf` for an empty slice), `maxps` semantics.
    pub fn vec_max(src: &[f32]) -> f32 = max_slice
);
simd_dispatch!(
    /// In-place numerically-stabilized softmax of one row:
    /// `row = exp(row - max) / Σ exp(row - max)`.
    pub fn vec_softmax(row: &mut [f32]) = softmax_slice
);
simd_dispatch!(
    /// Fused Adam update:
    /// `w[i] -= lr · (m[i]/bc1) / (sqrt(v[i]/bc2) + eps)`, matching the
    /// scalar expression of `cae_nn::optim::Adam` operation for operation.
    pub fn vec_adam(
        w: &mut [f32],
        m: &[f32],
        v: &[f32],
        lr: f32,
        bc1: f32,
        bc2: f32,
        eps: f32,
    ) = adam_slice
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_matches_libm_on_probes() {
        let xs: Vec<f32> = vec![
            0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 10.0, -10.0, 80.0, -80.0, 88.0, -87.0, -100.0,
            std::f32::consts::PI,
            -std::f32::consts::E,
            1e-8,
            -1e-8,
        ];
        let mut got = vec![0.0; xs.len()];
        vec_exp(&xs, &mut got);
        for (&x, &g) in xs.iter().zip(&got) {
            let want = x.exp();
            let tol = (want * 1e-6).abs().max(f32::MIN_POSITIVE);
            assert!((g - want).abs() <= tol, "exp({x}) = {g}, want {want}");
        }
    }

    #[test]
    fn exp_edge_cases() {
        let xs = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1000.0,
            -1000.0,
            88.73,
            -103.0,
        ];
        let mut got = [0.0; 7];
        vec_exp(&xs, &mut got);
        assert!(got[0].is_nan());
        assert_eq!(got[1], f32::INFINITY);
        assert_eq!(got[2], 0.0);
        assert_eq!(got[3], f32::INFINITY);
        assert_eq!(got[4], 0.0);
        assert_eq!(got[5], f32::INFINITY); // past the overflow cutoff
        assert!(got[6] > 0.0 && got[6].is_finite(), "deep underflow stays graded");
    }

    #[test]
    fn tanh_and_sigmoid_probe_values() {
        let xs: Vec<f32> = vec![-6.0, -2.0, -0.624, -0.626, 0.0, 0.3, 0.626, 2.0, 6.0, 30.0];
        let mut t = vec![0.0; xs.len()];
        let mut s = vec![0.0; xs.len()];
        vec_tanh(&xs, &mut t);
        vec_sigmoid(&xs, &mut s);
        for i in 0..xs.len() {
            assert!(
                (t[i] - xs[i].tanh()).abs() <= 2e-6,
                "tanh({}) = {}, want {}",
                xs[i],
                t[i],
                xs[i].tanh()
            );
            let want = 1.0 / (1.0 + (-xs[i]).exp());
            assert!((s[i] - want).abs() <= 2e-6, "sigmoid({})", xs[i]);
        }
    }

    #[test]
    fn reductions_handle_tails_and_empty() {
        for n in [0usize, 1, 7, 8, 9, 16, 33] {
            let xs: Vec<f32> = (0..n).map(|i| (i as f32) - 3.0).collect();
            let want_sum: f32 = xs.iter().sum();
            assert!(
                (vec_sum(&xs) - want_sum).abs() <= 1e-4,
                "sum over {n} elements"
            );
            let want_max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            assert_eq!(vec_max(&xs), want_max, "max over {n} elements");
        }
        assert_eq!(vec_max(&[]), f32::NEG_INFINITY);
        assert_eq!(vec_sum(&[]), 0.0);
    }

    #[test]
    fn softmax_rows_sum_to_one_across_tail_lengths() {
        for n in [1usize, 5, 8, 13, 64] {
            let mut row: Vec<f32> = (0..n).map(|i| (i as f32) * 0.37 - 1.0).collect();
            vec_softmax(&mut row);
            let total: f32 = row.iter().sum();
            assert!((total - 1.0).abs() < 1e-5, "softmax over {n} lanes: {total}");
            assert!(row.iter().all(|v| *v >= 0.0));
        }
    }

    #[test]
    fn elementwise_and_fused_ops() {
        let a = [1.0f32, -2.0, 3.0, -4.0, 5.0, -6.0, 7.0, -8.0, 9.0];
        let b = [0.5f32; 9];
        let mut out = [0.0f32; 9];
        vec_mul(&a, &b, &mut out);
        assert_eq!(out[8], 4.5);
        let mut acc = [1.0f32; 9];
        vec_axpy(&mut acc, &a, 2.0);
        assert_eq!(acc[0], 3.0);
        assert_eq!(acc[8], 19.0);
        let mut r = [0.0f32; 9];
        vec_relu(&a, &mut r);
        assert_eq!(r[1], 0.0);
        assert_eq!(r[2], 3.0);
        let mut lg = [0.0f32; 9];
        vec_leaky_relu_grad(&a, &b, 0.1, &mut lg);
        assert_eq!(lg[0], 0.5);
        assert!((lg[1] - 0.05).abs() < 1e-7);
        assert!((vec_dot(&a, &b) - a.iter().sum::<f32>() * 0.5).abs() < 1e-5);
    }

    #[test]
    fn inplace_activations_match_out_of_place_bits() {
        // 11 elements: one full 8-lane chunk plus a masked tail, NaN and
        // signed zeros included.
        let mut src: Vec<f32> = (0..11).map(|i| (i as f32) * 0.7 - 3.5).collect();
        src[2] = f32::NAN;
        src[4] = -0.0;
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut want = vec![0.0f32; src.len()];
        vec_relu(&src, &mut want);
        let mut got = src.clone();
        vec_relu_inplace(&mut got);
        assert_eq!(bits(&got), bits(&want), "relu");
        vec_leaky_relu(&src, 0.2, &mut want);
        let mut got = src.clone();
        vec_leaky_relu_inplace(&mut got, 0.2);
        assert_eq!(bits(&got), bits(&want), "leaky relu");
    }

    #[test]
    fn fused_epilogues_match_unfused_sequences() {
        // 11 elements: one full 8-lane chunk plus a masked tail.
        let src: Vec<f32> = (0..11).map(|i| (i as f32) * 0.7 - 3.5).collect();
        let (b, s, slope) = (0.25f32, 1.5f32, 0.2f32);

        let mut fused = src.clone();
        vec_bias_relu_inplace(&mut fused, b);
        for (i, (&x, &got)) in src.iter().zip(&fused).enumerate() {
            assert_eq!(got, (x + b).max(0.0), "bias_relu element {i}");
        }

        let mut fused = src.clone();
        vec_bias_leaky_relu_inplace(&mut fused, b, slope);
        for (&x, &got) in src.iter().zip(&fused) {
            let y = x + b;
            let want = if y > 0.0 { y } else { y * slope };
            assert!((got - want).abs() <= 1e-7, "bias_leaky: {got} vs {want}");
        }

        let mut fused = src.clone();
        vec_scale_shift_relu_inplace(&mut fused, s, b);
        for (&x, &got) in src.iter().zip(&fused) {
            let want = f32::mul_add(x, s, b).max(0.0);
            assert_eq!(got, want, "scale_shift_relu");
        }

        let mut fused = src.clone();
        vec_scale_shift_leaky_relu_inplace(&mut fused, s, b, slope);
        for (&x, &got) in src.iter().zip(&fused) {
            let y = f32::mul_add(x, s, b);
            let want = if y > 0.0 { y } else { y * slope };
            assert_eq!(got, want, "scale_shift_leaky_relu");
        }

        let mut fused = src.clone();
        vec_scale_shift_inplace(&mut fused, s, b);
        for (&x, &got) in src.iter().zip(&fused) {
            assert_eq!(got, f32::mul_add(x, s, b), "scale_shift");
        }
    }

    #[test]
    fn dequant_kernels_match_scalar_expression_across_tails() {
        for n in [0usize, 1, 7, 8, 9, 16, 33] {
            let q: Vec<i8> = (0..n).map(|i| (i as i64 * 37 % 255 - 127) as i8).collect();
            let scale = 0.0173f32;
            let mut got = vec![0.0f32; n];
            vec_dequant_i8(&q, scale, &mut got);
            for (i, (&qi, &g)) in q.iter().zip(&got).enumerate() {
                assert_eq!(g.to_bits(), (f32::from(qi) * scale).to_bits(), "element {i}/{n}");
            }

            let scales: Vec<f32> = (0..n).map(|i| 0.001 + i as f32 * 0.0007).collect();
            let mut got = vec![0.0f32; n];
            vec_dequant_i8_cols(&q, &scales, &mut got);
            for i in 0..n {
                assert_eq!(
                    got[i].to_bits(),
                    (f32::from(q[i]) * scales[i]).to_bits(),
                    "cols element {i}/{n}"
                );
            }
        }
    }

    #[test]
    fn add_inplace_is_bit_identical_to_add() {
        let a: Vec<f32> = (0..13).map(|i| (i as f32 * 0.31).sin()).collect();
        let b: Vec<f32> = (0..13).map(|i| (i as f32 * 0.17).cos()).collect();
        let mut out = vec![0.0f32; 13];
        vec_add(&a, &b, &mut out);
        let mut acc = a.clone();
        vec_add_inplace(&mut acc, &b);
        for i in 0..13 {
            assert_eq!(acc[i].to_bits(), out[i].to_bits(), "element {i}");
        }
    }

    #[test]
    fn adam_update_matches_scalar_expression() {
        let mut w = vec![1.0f32; 11];
        let m: Vec<f32> = (0..11).map(|i| i as f32 * 0.1 - 0.5).collect();
        let v: Vec<f32> = (0..11).map(|i| i as f32 * 0.01 + 0.2).collect();
        let (lr, bc1, bc2, eps) = (1e-3, 0.9, 0.99, 1e-8);
        vec_adam(&mut w, &m, &v, lr, bc1, bc2, eps);
        for i in 0..11 {
            let want = 1.0 - lr * (m[i] / bc1) / ((v[i] / bc2).sqrt() + eps);
            assert_eq!(w[i].to_bits(), want.to_bits(), "element {i}");
        }
    }
}
