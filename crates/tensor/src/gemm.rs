//! Blocked GEMM: the single matrix-multiply kernel behind every dense and
//! convolutional layer.
//!
//! The seed carried three divergent hand-rolled triple loops (`matmul`,
//! `matmul_nt`, `matmul_tn`) plus two more inside the conv backward pass,
//! each with per-element `if v == 0.0 { continue }` branches that (a) cost a
//! compare per multiply and (b) silently swallowed NaN/inf from the skipped
//! operand. This module replaces all of them with one cache-tiled kernel:
//!
//! * **Layouts via strides** — operands are described by `(row_stride,
//!   col_stride)` pairs, so NN, NT and TN products are the same code path;
//!   transposition happens for free during packing.
//! * **Implicit im2col** — inside the crate, B may instead be a conv patch
//!   source, so convolution never materializes its column matrix. A gather
//!   (`BSource::Patches`: strided convs, stride-1 convs on maps too small
//!   for the grid, and both backward products) is packed element by
//!   element from the (padded) NCHW input through two offset tables. A
//!   stride-1 forward conv otherwise computes over the padded output grid
//!   (`BSource::Rows`): there every kernel row of a tile is one contiguous
//!   run of the padded input, so the micro-kernel loads it in place and B
//!   is never packed.
//! * **Packing** — A is repacked into `MR`-row panels and B (unless read in
//!   place) into `NR`-column panels, both contiguous in the micro-kernel's
//!   access order and zero-padded to tile multiples, so the inner loop is
//!   branch-free and sequential regardless of the original layout.
//! * **Register micro-kernel** — an `MR × NR = 4 × 16` f32 accumulator
//!   block ([`microkernel`]) written over the [`crate::simd::SimdF32`]
//!   trait: each output row is two 8-lane vectors updated with fused
//!   multiply-adds, dispatched at runtime to AVX2+FMA / NEON / the scalar
//!   fallback. Per output element the k-loop is one sequential FMA chain,
//!   so the result is bit-identical across backends and tile shapes (see
//!   the determinism policy in [`crate::simd`]).
//! * **Cache blocking** — `MC/KC/NC` outer loops keep the packed A block in
//!   L2 and the packed B panel streaming through L1. `MC`, `NC` and the
//!   thread count only partition the output space, so they never change a
//!   result bit; the depth block `KC` sets where partial sums are stored
//!   and re-added, so it is fixed.
//! * **Adaptive parallelism** — products of at least
//!   [`PARALLEL_FLOP_THRESHOLD`] FLOPs fan their row blocks out through
//!   [`crate::pool::parallel_for`], sized from the calling thread's budget
//!   ([`crate::pool::current_parallelism`]), so a GEMM inside a budgeted
//!   experiment cell only recruits its cell's share of the pool; on
//!   single-core hosts or small products everything runs inline.
//!
//! Packing buffers come from [`crate::workspace`], so steady-state calls
//! allocate nothing.

use crate::pool;
use crate::simd::{self, simd_dispatch, SimdF32, LANES};
use crate::workspace::{self, Slot};

/// Micro-kernel rows: C is updated in `MR x NR` register tiles.
const MR: usize = 4;
/// Micro-kernel columns: two 8-lane SIMD vectors per row (8 accumulator
/// registers total on AVX2, half the register file).
pub(crate) const NR: usize = 2 * LANES;
/// Depth-block size. Splitting k into blocks stores and re-adds partial
/// products, so unlike `MC`/`NC` this size participates in the f32
/// accumulation order: changing it changes result bits.
const KC: usize = 256;
/// Row-block size (shrunk to share rows out when parallel).
const MC: usize = 64;
/// Column-block size.
const NC: usize = 256;
/// Products below this many FLOPs (`2 m n k`) never leave the calling
/// thread. Convolution keys its batch chunking off the same cutoff.
pub const PARALLEL_FLOP_THRESHOLD: usize = 1 << 21;

/// Strides describing how a logical `rows x cols` operand maps onto its
/// backing slice: element `(i, j)` lives at `i * row_stride + j * col_stride`.
///
/// A plain row-major matrix is `(cols, 1)`; its transpose view is
/// `(1, cols)` over the same slice — which is how [`gemm`] serves NT and TN
/// products without materializing a transpose.
pub type Strides = (usize, usize);

/// Where [`gemm_with`] reads its logical `k x n` B operand from.
#[derive(Clone, Copy)]
pub(crate) enum BSource<'a> {
    /// `B[p, j] = b[p * row_stride + j * col_stride]`.
    Strided(&'a [f32], Strides),
    /// Conv patches: `B[p, j] = src[row_off[p] + col_off[j]]`. Forward conv
    /// passes per-kernel-row offsets as `row_off` and per-output-column
    /// offsets as `col_off`; the weight gradient's NT product swaps them.
    Patches { src: &'a [f32], row_off: &'a [usize], col_off: &'a [usize] },
    /// Conv patches over the padded output grid, read in place (never
    /// packed): `B[p, j] = src[row_off[p] + (j / img_cols)·img_stride +
    /// j % img_cols]`. Columns come in images of `img_cols`, a multiple of
    /// `NR`, whose images start `img_stride` floats apart in `src`; so
    /// every `NR`-column tile lies in one image, and its row `p` is the
    /// contiguous run at `row_off[p]` plus the tile's start.
    Rows { src: &'a [f32], row_off: &'a [usize], img_cols: usize, img_stride: usize },
}

impl BSource<'_> {
    /// Panics unless every element of the logical `k x n` operand
    /// (`k, n > 0`) is in bounds, so packing and the in-place micro-kernel
    /// may index unchecked. For [`BSource::Rows`] that covers every float
    /// a tile loads, padding columns included.
    fn check(&self, k: usize, n: usize) {
        let max = |o: &[usize]| o.iter().copied().max().unwrap_or(0);
        let (len, last) = match *self {
            BSource::Strided(b, (brs, bcs)) => (b.len(), (k - 1) * brs + (n - 1) * bcs),
            BSource::Patches { src, row_off, col_off } => {
                (src.len(), max(&row_off[..k]) + max(&col_off[..n]))
            }
            BSource::Rows { src, row_off, img_cols, img_stride } => {
                assert!(
                    img_cols.is_multiple_of(NR) && n.is_multiple_of(img_cols),
                    "in-place B: {n} columns are not whole images of {img_cols} whole tiles"
                );
                let last_image = (n / img_cols - 1) * img_stride;
                (src.len(), max(&row_off[..k]) + last_image + img_cols - 1)
            }
        };
        assert!(last < len, "B too short for {k}x{n}: reads index {last} of {len}");
    }
}

/// Raw pointer wrapper so disjoint row blocks of C can be written from pool
/// workers.
#[derive(Clone, Copy)]
struct SendPtr(*mut f32);
// SAFETY: tasks write disjoint row ranges of C (see `gemm`).
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

/// `C = A·B` (or `C += A·B` when `accumulate`), with `A` logically `m x k`
/// and `B` logically `k x n` under the given strides, and `C` row-major
/// `m x n` contiguous.
///
/// NaN and inf propagate exactly as IEEE multiply-add dictates — there is no
/// zero-skip short cut. Accumulation order differs from the naive triple
/// loop, so results may differ from [`gemm_reference`] by normal f32
/// rounding.
///
/// # Panics
/// Panics if a slice is too short for its logical extent.
#[allow(clippy::too_many_arguments)] // BLAS-style signature
pub fn gemm(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    (ars, acs): Strides,
    b: &[f32],
    (brs, bcs): Strides,
    c: &mut [f32],
    accumulate: bool,
) {
    gemm_with(m, n, k, a, (ars, acs), BSource::Strided(b, (brs, bcs)), c, accumulate);
}

/// [`gemm`] over any [`BSource`]: the one blocked kernel behind both the
/// public strided entry point and the implicit-im2col convolution.
#[allow(clippy::too_many_arguments)] // BLAS-style signature
pub(crate) fn gemm_with(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    (ars, acs): Strides,
    b: BSource<'_>,
    c: &mut [f32],
    accumulate: bool,
) {
    assert!(c.len() >= m * n, "C too short: {} < {}", c.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // Empty inner dimension: the product is the zero matrix.
        if !accumulate {
            c[..m * n].fill(0.0);
        }
        return;
    }
    assert!(
        a.len() > (m - 1) * ars + (k - 1) * acs,
        "A too short for {m}x{k} with strides ({ars},{acs})"
    );
    b.check(k, n);
    cae_trace::counters(&[
        ("gemm.calls", 1),
        ("gemm.flops", (2 * m * n * k) as u64),
        // Lets `cae_trace::profile` report which SIMD backend produced the
        // run's GEMM throughput.
        (simd::active_backend().counter_key(), 1),
    ]);
    // Stats-only span: exact per-call timing without a raw event per GEMM
    // (millions per run would instantly hit the per-thread event cap).
    let _gemm_span = cae_trace::span_stat("gemm");

    // Parallel only above the FLOP cutoff, sized against this thread's
    // budget (its cell's share of the pool, or the whole pool at top level).
    let budget = pool::current_parallelism();
    let threads = if budget > 1 && 2 * m * n * k >= PARALLEL_FLOP_THRESHOLD {
        budget
    } else {
        1
    };

    // Unzeroed: `pack_b` overwrites every element of the region the
    // micro-kernel reads (padding included). In-place rows need no buffer.
    let in_place = matches!(b, BSource::Rows { .. });
    let mut bbuf = if in_place {
        Vec::new()
    } else {
        workspace::take_unzeroed(Slot::PackB, n.min(NC).div_ceil(NR) * NR * k.min(KC))
    };
    let cptr = SendPtr(c.as_mut_ptr());
    // Column blocks bound the packed B panel; rows read in place need none.
    let nc_step = if in_place { n } else { NC };

    for jc in (0..n).step_by(nc_step) {
        let nc = nc_step.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            if !in_place {
                pack_b(&mut bbuf, b, pc, kc, jc, nc);
            }
            // On the first k-block, overwrite C unless the caller asked to
            // accumulate; later k-blocks always accumulate.
            let add = accumulate || pc > 0;

            // Shrink row blocks when parallel so every thread gets work,
            // but never below one micro-tile.
            let mc_step = if threads > 1 {
                MC.min(m.div_ceil(threads).next_multiple_of(MR))
            } else {
                MC
            };
            let blocks = m.div_ceil(mc_step);
            let run = |blk: usize| {
                // Capture the whole wrapper, not its raw-pointer field
                // (disjoint field capture would lose Send/Sync).
                let cptr = &cptr;
                let ic = blk * mc_step;
                let mc = mc_step.min(m - ic);
                // SAFETY: block `blk` touches only C rows [ic, ic+mc), and
                // blocks partition the row range, so writes are disjoint;
                // the pointer outlives the call.
                unsafe {
                    process_row_block(
                        ic, mc, pc, kc, jc, nc, a, ars, acs, b, &bbuf, cptr.0, n, add,
                    );
                }
            };
            if threads > 1 && blocks > 1 {
                pool::parallel_for(blocks, run);
            } else {
                for blk in 0..blocks {
                    run(blk);
                }
            }
        }
    }
    if !in_place {
        workspace::give(Slot::PackB, bbuf);
    }
}

/// Reference implementation: the seed's naive i-k-j saxpy loop (minus its
/// NaN-swallowing zero-skip), over the same strided-layout interface.
///
/// Kept as the ground truth for property tests and as the baseline the
/// benchmark suite measures speedups against.
#[allow(clippy::too_many_arguments)] // BLAS-style signature
pub fn gemm_reference(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    (ars, acs): Strides,
    b: &[f32],
    (brs, bcs): Strides,
    c: &mut [f32],
    accumulate: bool,
) {
    assert!(c.len() >= m * n, "C too short: {} < {}", c.len(), m * n);
    if !accumulate {
        c[..m * n].fill(0.0);
    }
    for i in 0..m {
        for p in 0..k {
            let av = a[i * ars + p * acs];
            let row = &mut c[i * n..(i + 1) * n];
            for (j, cv) in row.iter_mut().enumerate() {
                *cv += av * b[p * brs + j * bcs];
            }
        }
    }
}

/// Packs `A[ic..ic+mc, pc..pc+kc]` into MR-row panels: panel `p` holds rows
/// `ic + p*MR ..`, stored k-major so the micro-kernel reads `MR` values per
/// step contiguously. Rows past `mc` are zero-filled.
///
/// When `ars == 1` (a transposed-A view, the `matmul_tn` backward path) the
/// `MR` values of one k-step are already contiguous in the source, so each
/// step is a `memcpy` instead of a strided gather.
#[allow(clippy::too_many_arguments)] // BLAS-style signature
fn pack_a(
    dst: &mut [f32],
    a: &[f32],
    ars: usize,
    acs: usize,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
) {
    let panels = mc.div_ceil(MR);
    if ars == 1 {
        for p in 0..panels {
            let panel = &mut dst[p * kc * MR..(p + 1) * kc * MR];
            let row0 = p * MR;
            let rows = MR.min(mc - row0);
            if rows == MR {
                // Full panel: a fixed `MR`-length copy per k-step compiles
                // to plain vector moves (a runtime-length copy_from_slice
                // is an outlined memcpy call, which dominates small
                // products).
                for (kk, step) in panel.chunks_exact_mut(MR).enumerate() {
                    let src = ic + row0 + (pc + kk) * acs;
                    step.copy_from_slice(&a[src..src + MR]);
                }
            } else {
                for kk in 0..kc {
                    let src = ic + row0 + (pc + kk) * acs;
                    let step = &mut panel[kk * MR..(kk + 1) * MR];
                    step[..rows].copy_from_slice(&a[src..src + rows]);
                    step[rows..].fill(0.0);
                }
            }
        }
        return;
    }
    if acs == 1 {
        // Row-major A (every forward matmul and the NT backward path): each
        // source row is contiguous in k, so fill the panel one row-lane at a
        // time with contiguous reads and a fixed write stride of `MR`.
        for p in 0..panels {
            let panel = &mut dst[p * kc * MR..(p + 1) * kc * MR];
            let row0 = p * MR;
            let rows = MR.min(mc - row0);
            for r in 0..MR {
                if r < rows {
                    let src = &a[(ic + row0 + r) * ars + pc..][..kc];
                    for (step, &v) in panel.chunks_exact_mut(MR).zip(src) {
                        step[r] = v;
                    }
                } else {
                    for step in panel.chunks_exact_mut(MR) {
                        step[r] = 0.0;
                    }
                }
            }
        }
        return;
    }
    for p in 0..panels {
        let panel = &mut dst[p * kc * MR..(p + 1) * kc * MR];
        for kk in 0..kc {
            for r in 0..MR {
                let row = p * MR + r;
                panel[kk * MR + r] = if row < mc {
                    a[(ic + row) * ars + (pc + kk) * acs]
                } else {
                    0.0
                };
            }
        }
    }
}

/// Packs `B[pc..pc+kc, jc..jc+nc]` into NR-column panels, k-major, columns
/// past `nc` zero-filled.
///
/// A transposed-B view (`brs == 1`) is packed column by column; every
/// other source goes panel by panel through [`pack_panel`], which for
/// row-major B (`bcs == 1`, every forward matmul) copies one contiguous
/// `NR`-wide run per k-step of a full panel.
fn pack_b(dst: &mut [f32], b: BSource<'_>, pc: usize, kc: usize, jc: usize, nc: usize) {
    let panels = nc.div_ceil(NR);
    if let BSource::Strided(b, (1, bcs @ 2..)) = b {
        // Transposed-B view (the NT matmul): each source column is
        // contiguous in k, so packing is a pure transpose. Full panels go
        // through the 8x8 in-register transpose when AVX2 is active (pure
        // data movement, so the packed bytes are identical to the scalar
        // path); everything else falls back to one column-lane at a time
        // with contiguous reads and a fixed write stride of `NR`.
        for q in 0..panels {
            let panel = &mut dst[q * kc * NR..(q + 1) * kc * NR];
            let col0 = q * NR;
            let cols = NR.min(nc - col0);
            let mut k_done = 0;
            #[cfg(target_arch = "x86_64")]
            if cols == NR && simd::active_backend() == simd::Backend::Avx2 {
                let blocks = kc / 8;
                for g in 0..NR / 8 {
                    for blk in 0..blocks {
                        let kk = blk * 8;
                        // SAFETY: AVX2 was runtime-detected; the deepest
                        // load reads b[pc+kk+7 + (jc+col0+g*8+7)*bcs],
                        // inside the `(k-1)*brs + (n-1)*bcs` extent asserted
                        // by `gemm`; the deepest store is within `panel`.
                        unsafe {
                            transpose8x8_avx2(
                                b.as_ptr().add(pc + kk + (jc + col0 + g * 8) * bcs),
                                bcs,
                                panel.as_mut_ptr().add(kk * NR + g * 8),
                                NR,
                            );
                        }
                    }
                }
                k_done = blocks * 8;
            }
            for j in 0..NR {
                if j < cols {
                    let src = &b[pc + (jc + col0 + j) * bcs..][..kc];
                    for (step, &v) in panel[k_done * NR..].chunks_exact_mut(NR).zip(&src[k_done..])
                    {
                        step[j] = v;
                    }
                } else {
                    for step in panel.chunks_exact_mut(NR) {
                        step[j] = 0.0;
                    }
                }
            }
        }
        return;
    }
    for (q, panel) in dst.chunks_exact_mut(kc * NR).take(panels).enumerate() {
        let (j0, w) = (jc + q * NR, NR.min(nc - q * NR));
        match b {
            BSource::Patches { src, row_off, col_off } => {
                pack_panel(panel, src, |kk| row_off[pc + kk], &col_off[j0..j0 + w])
            }
            // Row-major full panel: one contiguous run per k-step.
            BSource::Strided(b, (brs, 1)) if w == NR => {
                copy_runs::<NR>(panel, b, |kk| (pc + kk) * brs, &[j0])
            }
            BSource::Strided(b, (brs, bcs)) => {
                let cols: [usize; NR] = std::array::from_fn(|j| (j0 + j) * bcs);
                pack_panel(panel, b, |kk| (pc + kk) * brs, &cols[..w]);
            }
            BSource::Rows { .. } => unreachable!("in-place B rows are never packed"),
        }
    }
}

/// Packs one `NR`-column panel: k-step `kk` gets `src[row(kk) + cols[j]]`
/// in lane `j`, lanes past `cols.len()` zero. For a conv patch source
/// these are exactly the values and slots an explicit column matrix would
/// have been packed into, so the product's bits are unchanged.
///
/// A stride-1 forward conv has consecutive column offsets along each
/// output row: a full panel whose aligned groups of 16, 8 or 4 lanes are
/// each consecutive copies whole groups per k-step (fixed-length copies
/// compile to vector moves); any other panel is gathered lane by lane.
#[inline(always)]
fn pack_panel(panel: &mut [f32], src: &[f32], row: impl Fn(usize) -> usize, cols: &[usize]) {
    let runs = |len: usize| {
        cols.len() == NR && (1..NR).all(|j| j % len == 0 || cols[j] == cols[j - 1] + 1)
    };
    if runs(NR) {
        copy_runs::<NR>(panel, src, row, cols);
    } else if runs(LANES) {
        copy_runs::<LANES>(panel, src, row, cols);
    } else if runs(4) {
        copy_runs::<4>(panel, src, row, cols);
    } else {
        for kk in 0..panel.len() / NR {
            let (r, step) = (row(kk), &mut panel[kk * NR..(kk + 1) * NR]);
            for (j, &c) in cols.iter().enumerate() {
                // SAFETY: the only caller is `pack_b` under `gemm_with`,
                // whose `BSource::check` bounded every `row + col` offset of
                // the operand below `src.len()` (as for the transpose above).
                step[j] = unsafe { *src.get_unchecked(r + c) };
            }
            step[cols.len()..].fill(0.0);
        }
    }
}

/// [`pack_panel`] for a full panel made of `L`-lane groups of consecutive
/// offsets: one `L`-float copy per group and k-step. Plain index loops:
/// iterator adapters here were left un-inlined, paying a division per
/// k-step.
#[inline(always)]
fn copy_runs<const L: usize>(
    panel: &mut [f32],
    src: &[f32],
    row: impl Fn(usize) -> usize,
    cols: &[usize],
) {
    for kk in 0..panel.len() / NR {
        let (r, step) = (row(kk), &mut panel[kk * NR..(kk + 1) * NR]);
        for g in 0..NR / L {
            let s = r + cols[g * L];
            step[g * L..(g + 1) * L].copy_from_slice(&src[s..s + L]);
        }
    }
}

/// Transposes an 8x8 f32 block: reads 8 rows of 8 at `src + i*src_stride`,
/// writes 8 rows of 8 at `dst + i*dst_stride` with rows and columns swapped.
/// Standard unpack/shuffle/permute ladder; used by [`pack_b`] for
/// transposed-B (NT) packing, where it replaces 64 strided scalar moves
/// with 8 vector loads and stores.
///
/// # Safety
/// Requires AVX2 (runtime-detected by the caller) and `src`/`dst` valid for
/// the strided 8x8 reads/writes described above.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn transpose8x8_avx2(src: *const f32, src_stride: usize, dst: *mut f32, dst_stride: usize) {
    use std::arch::x86_64::*;
    unsafe {
        let r0 = _mm256_loadu_ps(src);
        let r1 = _mm256_loadu_ps(src.add(src_stride));
        let r2 = _mm256_loadu_ps(src.add(2 * src_stride));
        let r3 = _mm256_loadu_ps(src.add(3 * src_stride));
        let r4 = _mm256_loadu_ps(src.add(4 * src_stride));
        let r5 = _mm256_loadu_ps(src.add(5 * src_stride));
        let r6 = _mm256_loadu_ps(src.add(6 * src_stride));
        let r7 = _mm256_loadu_ps(src.add(7 * src_stride));
        let t0 = _mm256_unpacklo_ps(r0, r1);
        let t1 = _mm256_unpackhi_ps(r0, r1);
        let t2 = _mm256_unpacklo_ps(r2, r3);
        let t3 = _mm256_unpackhi_ps(r2, r3);
        let t4 = _mm256_unpacklo_ps(r4, r5);
        let t5 = _mm256_unpackhi_ps(r4, r5);
        let t6 = _mm256_unpacklo_ps(r6, r7);
        let t7 = _mm256_unpackhi_ps(r6, r7);
        let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let s5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
        let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let s7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
        _mm256_storeu_ps(dst, _mm256_permute2f128_ps::<0x20>(s0, s4));
        _mm256_storeu_ps(
            dst.add(dst_stride),
            _mm256_permute2f128_ps::<0x20>(s1, s5),
        );
        _mm256_storeu_ps(
            dst.add(2 * dst_stride),
            _mm256_permute2f128_ps::<0x20>(s2, s6),
        );
        _mm256_storeu_ps(
            dst.add(3 * dst_stride),
            _mm256_permute2f128_ps::<0x20>(s3, s7),
        );
        _mm256_storeu_ps(
            dst.add(4 * dst_stride),
            _mm256_permute2f128_ps::<0x31>(s0, s4),
        );
        _mm256_storeu_ps(
            dst.add(5 * dst_stride),
            _mm256_permute2f128_ps::<0x31>(s1, s5),
        );
        _mm256_storeu_ps(
            dst.add(6 * dst_stride),
            _mm256_permute2f128_ps::<0x31>(s2, s6),
        );
        _mm256_storeu_ps(
            dst.add(7 * dst_stride),
            _mm256_permute2f128_ps::<0x31>(s3, s7),
        );
    }
}

/// Where the micro-kernel reads B row `kk` of its `NR`-column tile.
#[derive(Clone, Copy)]
enum BTile<'a> {
    /// A packed panel: row `kk` at `kk·NR`.
    Packed(&'a [f32]),
    /// In place ([`BSource::Rows`]): row `kk` at `rows[kk]` of the slice,
    /// which starts at the tile's first column.
    Rows(&'a [f32], &'a [usize]),
}

/// The register block, generic over the SIMD backend:
/// `acc[i][j] = sum_k ap[k][i] * B[k][j]` over one packed A panel and one
/// B tile, packed or read in place ([`BTile`]). Each of the `MR` output
/// rows is two 8-lane vectors updated with one fused multiply-add per
/// k-step, so per output element the whole k-loop is a single sequential
/// FMA chain — the accumulation order (and therefore the bits) is
/// independent of backend, blocking and where B is read from.
#[inline(always)]
unsafe fn microkernel_impl<S: SimdF32>(
    kc: usize,
    ap: &[f32],
    b: BTile<'_>,
    acc: &mut [[f32; NR]; MR],
) {
    debug_assert!(ap.len() >= kc * MR);
    unsafe {
        let mut accv = [[S::zero(); 2]; MR];
        let a = ap.as_ptr();
        match b {
            BTile::Packed(bp) => {
                debug_assert!(bp.len() >= kc * NR);
                for kk in 0..kc {
                    fma_step(&mut accv, a.add(kk * MR), bp.as_ptr().add(kk * NR));
                }
            }
            BTile::Rows(src, rows) => {
                debug_assert!(rows[..kc].iter().all(|&r| r + NR <= src.len()));
                for (kk, &r) in rows[..kc].iter().enumerate() {
                    fma_step(&mut accv, a.add(kk * MR), src.as_ptr().add(r));
                }
            }
        }
        for (vrow, out) in accv.iter().zip(acc.iter_mut()) {
            vrow[0].store(out.as_mut_ptr());
            vrow[1].store(out.as_mut_ptr().add(LANES));
        }
    }
}

/// One k-step of [`microkernel_impl`]: `MR` A values at `a` times the
/// `NR`-float B row at `row`. A function, not a closure, so it compiles
/// under the caller's target features.
#[inline(always)]
unsafe fn fma_step<S: SimdF32>(accv: &mut [[S; 2]; MR], a: *const f32, row: *const f32) {
    unsafe {
        let b0 = S::load(row);
        let b1 = S::load(row.add(LANES));
        for (i, vrow) in accv.iter_mut().enumerate() {
            let ai = S::splat(*a.add(i));
            vrow[0] = ai.mul_add(b0, vrow[0]);
            vrow[1] = ai.mul_add(b1, vrow[1]);
        }
    }
}

simd_dispatch!(
    /// Runtime-dispatched entry to [`microkernel_impl`]: one call per
    /// `MR x NR` tile, compiled under the active backend's target features.
    fn microkernel(kc: usize, ap: &[f32], b: BTile<'_>, acc: &mut [[f32; NR]; MR]) =
        microkernel_impl
);

/// Runs one `mc x nc` row block: packs A once, then sweeps the micro-kernel
/// over all `MR x NR` tiles, writing (or adding) the valid region of each
/// accumulator into C. B tiles come from the packed panels in `bbuf`, or
/// straight from `b` when it is [`BSource::Rows`].
///
/// # Safety
/// `c` must be valid for `ldc`-strided writes to rows `[ic, ic+mc)`, columns
/// `[jc, jc+nc)`, and no other thread may touch those rows concurrently.
#[allow(clippy::too_many_arguments)] // BLAS-style signature
unsafe fn process_row_block(
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    a: &[f32],
    ars: usize,
    acs: usize,
    b: BSource<'_>,
    bbuf: &[f32],
    c: *mut f32,
    ldc: usize,
    add: bool,
) {
    // Unzeroed: `pack_a` overwrites the whole buffer (padding included).
    let mut abuf = workspace::take_unzeroed(Slot::PackA, mc.div_ceil(MR) * MR * kc);
    pack_a(&mut abuf, a, ars, acs, ic, mc, pc, kc);

    for q in 0..nc.div_ceil(NR) {
        let tile = match b {
            // `BSource::check` bounded every row of every tile.
            BSource::Rows { src, row_off, img_cols, img_stride } => {
                let j = jc + q * NR;
                BTile::Rows(&src[j / img_cols * img_stride + j % img_cols..], &row_off[pc..pc + kc])
            }
            _ => BTile::Packed(&bbuf[q * kc * NR..(q + 1) * kc * NR]),
        };
        let cols = NR.min(nc - q * NR);
        for p in 0..mc.div_ceil(MR) {
            let ap = &abuf[p * kc * MR..(p + 1) * kc * MR];
            let rows = MR.min(mc - p * MR);
            let mut acc = [[0.0f32; NR]; MR];
            microkernel(kc, ap, tile, &mut acc);
            let row0 = ic + p * MR;
            let col0 = jc + q * NR;
            for (i, acc_row) in acc.iter().enumerate().take(rows) {
                // SAFETY: rows [ic, ic+mc) of C are exclusively this
                // block's (see the function contract), and `cols` stays
                // inside the row.
                let dst = unsafe {
                    std::slice::from_raw_parts_mut(c.add((row0 + i) * ldc + col0), cols)
                };
                if add {
                    for (d, &v) in dst.iter_mut().zip(&acc_row[..cols]) {
                        *d += v;
                    }
                } else {
                    dst.copy_from_slice(&acc_row[..cols]);
                }
            }
        }
    }
    workspace::give(Slot::PackA, abuf);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(len: usize, seed: u32) -> Vec<f32> {
        // Small deterministic pseudo-random values in [-1, 1).
        let mut state = seed.wrapping_mul(747796405).wrapping_add(2891336453);
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(747796405).wrapping_add(2891336453);
                (state >> 8) as f32 / (1u32 << 23) as f32 - 1.0
            })
            .collect()
    }

    fn check(m: usize, n: usize, k: usize, strides_a: Strides, strides_b: Strides) {
        let alen = if m * k == 0 {
            0
        } else {
            (m - 1) * strides_a.0 + (k - 1) * strides_a.1 + 1
        };
        let blen = if k * n == 0 {
            0
        } else {
            (k - 1) * strides_b.0 + (n - 1) * strides_b.1 + 1
        };
        let a = fill(alen, (m + 7 * n + 13 * k) as u32);
        let b = fill(blen, (3 * m + n + 5 * k) as u32);
        for accumulate in [false, true] {
            let mut got = vec![0.25f32; m * n];
            let mut want = vec![0.25f32; m * n];
            gemm(m, n, k, &a, strides_a, &b, strides_b, &mut got, accumulate);
            gemm_reference(m, n, k, &a, strides_a, &b, strides_b, &mut want, accumulate);
            for (idx, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (g - w).abs() <= 1e-4 * w.abs().max(1.0),
                    "({m},{n},{k}) acc={accumulate} idx={idx}: {g} vs {w}"
                );
            }
        }
    }

    #[test]
    fn matches_reference_across_shapes() {
        // Exact tile multiples, sub-tile, non-multiples, and deep-k shapes.
        for (m, n, k) in [
            (4, 8, 1),
            (1, 1, 1),
            (3, 5, 7),
            (8, 16, 32),
            (13, 9, 300),
            (65, 17, 5),
            (2, 300, 2),
            (70, 70, 70),
        ] {
            check(m, n, k, (k, 1), (n, 1));
        }
    }

    #[test]
    fn transposed_layouts_match_reference() {
        for (m, n, k) in [(5, 9, 6), (16, 8, 4), (33, 7, 20)] {
            check(m, n, k, (1, m), (n, 1)); // A transposed (TN)
            check(m, n, k, (k, 1), (1, k)); // B transposed (NT)
        }
    }

    #[test]
    fn k_zero_writes_zero_or_preserves() {
        let mut c = vec![3.0f32; 6];
        gemm(2, 3, 0, &[], (0, 1), &[], (3, 1), &mut c, false);
        assert_eq!(c, vec![0.0; 6]);
        let mut c = vec![3.0f32; 6];
        gemm(2, 3, 0, &[], (0, 1), &[], (3, 1), &mut c, true);
        assert_eq!(c, vec![3.0; 6]);
    }

    #[test]
    fn nan_propagates_even_against_zero() {
        // 0 * NaN must be NaN in every output it touches.
        let a = vec![0.0f32, 0.0];
        let b = vec![f32::NAN, 1.0, 2.0, 3.0];
        let mut c = vec![0.0f32; 2];
        gemm(1, 2, 2, &a, (2, 1), &b, (2, 1), &mut c, false);
        assert!(c[0].is_nan(), "zero-skip would have hidden this NaN");
        // Column 1 of B holds no NaN, so that output stays finite.
        assert_eq!(c[1], 0.0);
    }

    /// A 3x3 image padded to 5x5 under a 3x3 kernel: grid columns
    /// `2·5 + 3 = 13`, one 16-column tile, whose last row reads index
    /// `(2·5 + 2) + 15 = 27`.
    fn rows_over(src: &[f32]) -> Vec<f32> {
        let row_off: Vec<usize> = (0..3).flat_map(|ki| (0..3).map(move |kj| ki * 5 + kj)).collect();
        let mut c = vec![0.0f32; 16];
        let b = BSource::Rows { src, row_off: &row_off, img_cols: 16, img_stride: 25 };
        gemm_with(1, 16, 9, &[1.0; 9], (9, 1), b, &mut c, false);
        c
    }

    #[test]
    fn in_place_rows_with_tail_slack_are_read() {
        assert_eq!(rows_over(&[1.0; 28]), vec![9.0; 16]);
    }

    #[test]
    #[should_panic(expected = "B too short for 9x16: reads index 27 of 25")]
    fn in_place_rows_without_tail_slack_are_refused() {
        rows_over(&[1.0; 25]);
    }

    #[test]
    fn accumulate_adds_onto_existing_c() {
        let a = vec![1.0f32, 2.0];
        let b = vec![3.0f32, 4.0];
        let mut c = vec![10.0f32];
        gemm(1, 1, 2, &a, (2, 1), &b, (1, 1), &mut c, true);
        assert_eq!(c[0], 10.0 + 3.0 + 8.0);
    }
}
