//! Convolution, pooling and upsampling kernels (implicit-GEMM convolution).
//!
//! Both convolution passes that read the input are products on the
//! *implicit* im2col matrix `col[krows, N·OH·OW]`, routed through the
//! blocked kernel in [`crate::gemm`]:
//!
//! * forward: `out = W[o, krows] · col` (NN);
//! * weight gradient: `dW += grad_out[o, ncols] · colᵀ` (NT), per image;
//! * input gradient: `dcol = Wᵀ · grad_out[o, ncols]` (TN), folded back by
//!   `col2im`.
//!
//! The column matrix is never written. `Patches` prepares the (padded)
//! input and its offset tables once per call, and the GEMM reads patches
//! straight from NCHW in one of two ways:
//!
//! * **gathered** — the B packer gathers each patch element into its
//!   panels through a per-kernel-row and a per-output-column offset table
//!   (the tract `FixedParamsConv`/`patch` design). Strided forward convs,
//!   stride-1 forwards whose grid would waste more than packing costs (see
//!   [`conv2d_fused`]) and both backward products take this path.
//! * **in place over the padded output grid** — a stride-1 forward
//!   computes every grid column `j = oi·Wp + oj` of each image (rounded up
//!   to whole `NR` tiles), so kernel row `r` of a tile is one contiguous
//!   run of the padded input at `k_off[r]` and the micro-kernel loads it
//!   there: B is never packed and there is no column table. The epilogue
//!   keeps the `OW` valid columns of each `Wp`-wide grid row.
//!
//! Both read the same values an explicit im2col would hold, in the same
//! kernel-row order, so every output is the same FMA chain and the bits
//! are unchanged.
//!
//! Scratch buffers come from [`crate::workspace`] instead of per-call `vec!`
//! allocations, and the batch loop is split into chunks over
//! [`crate::pool::parallel_for`] — each chunk owns its thread-local
//! workspace (and, backward, a private `dW`/`db` partial, reduced at the
//! end). The backward chunk count is a *fixed constant* (not the pool
//! size): the partials are reduced in chunk order, so tying the chunking to
//! the thread count would make `dW`/`db` rounding — and therefore whole
//! training trajectories — depend on `CAE_NUM_THREADS`.

use crate::gemm::{gemm, gemm_with, BSource, NR, PARALLEL_FLOP_THRESHOLD};
use crate::pool;
use crate::simd::vecmath;
use crate::tensor::Tensor;
use crate::workspace::{self, Slot};
use std::borrow::Cow;

/// Fixed batch chunking for [`conv2d_backward`]'s `dW`/`db` partials.
///
/// The per-chunk partials are summed in chunk order, so the chunk count
/// must not depend on [`pool::max_parallelism`] or results would change
/// with the thread count. Sixteen chunks keep up to sixteen cores busy
/// while bounding the partial workspace; `parallel_for` load-balances
/// them over however many threads exist.
const BACKWARD_CHUNKS: usize = 16;

/// Raw pointer wrapper so batch chunks can write disjoint sample slices of
/// a shared output tensor from pool workers.
#[derive(Clone, Copy)]
struct SendPtr(*mut f32);
// SAFETY: every task derives slices only for its own sample/chunk range.
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

/// Static description of a 2-d convolution (square kernel, symmetric padding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dSpec {
    /// Kernel height/width.
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding in both dimensions.
    pub padding: usize,
}

serde::impl_json_struct!(Conv2dSpec { kernel, stride, padding });

impl Conv2dSpec {
    /// Creates a spec.
    ///
    /// # Panics
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Self {
        assert!(kernel > 0, "kernel size must be positive");
        assert!(stride > 0, "stride must be positive");
        Conv2dSpec {
            kernel,
            stride,
            padding,
        }
    }

    /// Output spatial size for an input of size `h`.
    ///
    /// # Panics
    /// Panics (instead of underflowing) if the kernel does not fit the
    /// padded input, i.e. `kernel > h + 2 * padding`.
    pub fn out_size(&self, h: usize) -> usize {
        let padded = h + 2 * self.padding;
        assert!(
            padded >= self.kernel,
            "kernel {} does not fit padded input extent {} (input {}, padding {})",
            self.kernel,
            padded,
            h,
            self.padding
        );
        (padded - self.kernel) / self.stride + 1
    }
}

/// Checks `weight` against an `[N, c, H, W]` input and `spec`, returning
/// the output channel count.
fn weight_out_channels(op: &str, c: usize, weight: &Tensor, spec: Conv2dSpec) -> usize {
    let wd = weight.shape().dims();
    assert_eq!(wd.len(), 4, "{op} weight must be 4-d, got {wd:?}");
    assert_eq!(wd[1], c, "{op} channel mismatch: input {c}, weight {}", wd[1]);
    let k = spec.kernel;
    assert_eq!((wd[2], wd[3]), (k, k), "{op} kernel mismatch: weight vs spec");
    wd[0]
}

/// The implicit im2col of one conv call. Patch element `(r, j)` — kernel
/// row `r = (ci, ki, kj)`, output column `j` of image `ni` — is
/// `src[ni·img_stride + k_off[r] + col]`, where `src` is the input,
/// zero-padded into `[N, C, H+2p, W+2p]` when `p > 0` so every read is in
/// bounds and branch-free (padding reads `+0.0`, as an explicit column
/// matrix holds), and `col` is the output position's offset in one padded
/// image.
///
/// Two column layouts:
/// * **gathered** (strided forward convs, stride-1 forwards whose grid
///   would waste too much, and the backward pass): one
///   column per output position, `N·OH·OW` in all, whose offsets
///   `(oi·Wp + oj)·s` (plus the image base) sit in a table the GEMM's B
///   packer gathers through;
/// * **grid** (`in_place`, stride-1 forward): each image's columns are the
///   padded output grid `j = oi·Wp + oj` for `j < (OH−1)·Wp + OW`, rounded
///   up to whole `NR` tiles, so `col = j` and kernel row `r` of an image is
///   the contiguous run at `k_off[r]` — the GEMM reads it in place
///   ([`BSource::Rows`]). Only `OW` of each `Wp` grid columns are outputs;
///   the rest are computed and dropped. The last image's tail tile reads up
///   to `NR − 1` floats past its data, so the buffer carries that slack.
struct Patches<'a> {
    src: Cow<'a, [f32]>,
    /// `k_off` (`krows` entries), then on the gathered layout the column
    /// offsets (`N·OH·OW` entries, image-major).
    offs: Vec<usize>,
    krows: usize,
    /// Floats per (padded) input image, `C·(H+2p)·(W+2p)`.
    img_stride: usize,
    /// GEMM columns per image: `OH·OW`, or the grid in whole tiles.
    img_cols: usize,
    /// Distance between output rows in an image's columns: `OW`, or `Wp`
    /// on the grid.
    row_pitch: usize,
    in_place: bool,
}

impl<'a> Patches<'a> {
    fn new(x: &'a Tensor, spec: Conv2dSpec, in_place: bool) -> Self {
        let _sp = cae_trace::span_stat("conv.im2col");
        let (n, c, h, w) = x.shape().nchw();
        let (k, s, p) = (spec.kernel, spec.stride, spec.padding);
        let (oh, ow) = (spec.out_size(h), spec.out_size(w));
        let (hp, wp) = (h + 2 * p, w + 2 * p);
        assert!(!in_place || s == 1, "the output grid is a stride-1 layout");
        let (img_cols, row_pitch, slack) = if in_place {
            let cols = grid_cols(spec, h, w);
            (cols, wp, cols - ((oh - 1) * wp + ow))
        } else {
            (oh * ow, ow, 0)
        };
        // Zeroed: only the interior rows are copied in. Plain index loops
        // throughout — this runs once per conv call, often on tiny shapes.
        let src = if p == 0 && slack == 0 {
            Cow::Borrowed(x.data())
        } else {
            let mut xp = workspace::take(Slot::Padded, n * c * hp * wp + slack);
            for plane in 0..n * c {
                for i in 0..h {
                    let d = (plane * hp + i + p) * wp + p;
                    xp[d..d + w].copy_from_slice(&x.data()[(plane * h + i) * w..][..w]);
                }
            }
            Cow::Owned(xp)
        };
        let krows = c * k * k;
        let mut offs = workspace::take_offsets(krows + if in_place { 0 } else { n * oh * ow });
        let mut r = 0;
        for ci in 0..c {
            for ki in 0..k {
                for kj in 0..k {
                    offs[r] = (ci * hp + ki) * wp + kj;
                    r += 1;
                }
            }
        }
        if !in_place {
            for ni in 0..n {
                for oi in 0..oh {
                    for oj in 0..ow {
                        offs[r] = ni * c * hp * wp + (oi * wp + oj) * s;
                        r += 1;
                    }
                }
            }
        }
        Patches { src, offs, krows, img_stride: c * hp * wp, img_cols, row_pitch, in_place }
    }

    fn k_off(&self) -> &[usize] {
        &self.offs[..self.krows]
    }

    /// Gathered-layout offsets of the output columns `cols` (`N·OH·OW` in
    /// all, image-major).
    fn n_off(&self, cols: std::ops::Range<usize>) -> &[usize] {
        &self.offs[self.krows + cols.start..self.krows + cols.end]
    }

    /// The forward product's B operand for the images `images`: their
    /// `images.len()·img_cols` columns.
    fn forward_b(&self, images: std::ops::Range<usize>) -> BSource<'_> {
        if self.in_place {
            BSource::Rows {
                src: &self.src[images.start * self.img_stride..],
                row_off: self.k_off(),
                img_cols: self.img_cols,
                img_stride: self.img_stride,
            }
        } else {
            BSource::Patches {
                src: &self.src,
                row_off: self.k_off(),
                col_off: self.n_off(images.start * self.img_cols..images.end * self.img_cols),
            }
        }
    }

    fn release(self) {
        if let Cow::Owned(xp) = self.src {
            workspace::give(Slot::Padded, xp);
        }
        workspace::give_offsets(self.offs);
    }
}

/// GEMM columns per image on the padded output grid of a stride-1 conv
/// over `h x w`: `(OH−1)·Wp + OW`, rounded up to whole `NR` tiles.
fn grid_cols(spec: Conv2dSpec, h: usize, w: usize) -> usize {
    let wp = w + 2 * spec.padding;
    ((spec.out_size(h) - 1) * wp + spec.out_size(w)).next_multiple_of(NR)
}

/// Half-open range of output positions `o` whose input coordinate
/// `o·stride + koff − padding` falls inside `[0, extent)`. Hoisting this
/// out of the col2im inner loops removes the per-element padding branch
/// and enables contiguous adds in the stride-1 case.
fn valid_out_span(
    extent: usize,
    out: usize,
    stride: usize,
    koff: usize,
    padding: usize,
) -> (usize, usize) {
    if extent == 0 || koff >= extent + padding {
        return (0, 0);
    }
    let lo = if koff >= padding {
        0
    } else {
        (padding - koff).div_ceil(stride)
    };
    let hi = ((extent - 1 + padding - koff) / stride + 1).min(out);
    if hi <= lo {
        (0, 0)
    } else {
        (lo, hi)
    }
}

/// Folds a column matrix `[C*k*k, OH*OW]` back into an image `[C, H, W]`,
/// accumulating overlaps (the adjoint of the patch gather).
fn col2im_single(col: &[f32], c: usize, h: usize, w: usize, spec: Conv2dSpec, x: &mut [f32]) {
    let k = spec.kernel;
    let oh = spec.out_size(h);
    let ow = spec.out_size(w);
    let ncols = oh * ow;
    for ci in 0..c {
        let xc = &mut x[ci * h * w..(ci + 1) * h * w];
        for ki in 0..k {
            for kj in 0..k {
                let row = (ci * k + ki) * k + kj;
                let src = &col[row * ncols..(row + 1) * ncols];
                let (jlo, jhi) = valid_out_span(w, ow, spec.stride, kj, spec.padding);
                if jlo == jhi {
                    continue;
                }
                for oi in 0..oh {
                    let ii = (oi * spec.stride + ki) as isize - spec.padding as isize;
                    if ii < 0 || ii as usize >= h {
                        continue;
                    }
                    let xrow = &mut xc[ii as usize * w..(ii as usize + 1) * w];
                    let srow = &src[oi * ow..(oi + 1) * ow];
                    let j0 = jlo * spec.stride + kj - spec.padding;
                    if spec.stride == 1 {
                        for (d, s) in xrow[j0..j0 + (jhi - jlo)].iter_mut().zip(&srow[jlo..jhi]) {
                            *d += s;
                        }
                    } else {
                        for (t, s) in srow[jlo..jhi].iter().enumerate() {
                            xrow[j0 + t * spec.stride] += s;
                        }
                    }
                }
            }
        }
    }
}

/// Activation fused into the per-channel bias pass of [`conv2d_fused`].
///
/// `None` reproduces the plain [`conv2d`] epilogue exactly (bias via
/// [`vecmath::vec_add_scalar_inplace`]); the other variants fold the bias
/// add and the activation into one pass over each output-channel row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConvEpilogue {
    /// Bias only (when present) — identical to [`conv2d`].
    None,
    /// `out = max(out + b, 0)` per output channel.
    Relu,
    /// `y = out + b; out = y > 0 ? y : slope·y` per output channel.
    LeakyRelu(f32),
}

/// Forward 2-d convolution: `x[N,C,H,W] * w[O,C,k,k] (+ b[O]) → [N,O,OH,OW]`.
///
/// # Panics
/// Panics if shapes are inconsistent with `spec`.
pub fn conv2d(x: &Tensor, weight: &Tensor, bias: Option<&Tensor>, spec: Conv2dSpec) -> Tensor {
    conv2d_fused(x, weight, bias, spec, ConvEpilogue::None)
}

/// [`conv2d`] with the bias add and an optional activation fused into the
/// GEMM output pass — the epilogue of the frozen inference path.
pub fn conv2d_fused(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
    epilogue: ConvEpilogue,
) -> Tensor {
    let (n, c, h, w) = x.shape().nchw();
    let o = weight_out_channels("conv2d", c, weight, spec);
    let oh = spec.out_size(h);
    let ow = spec.out_size(w);
    let ncols = oh * ow;
    let krows = c * spec.kernel * spec.kernel;
    let per_sample = o * ncols;
    if n == 0 || per_sample == 0 {
        return Tensor::zeros(&[n, o, oh, ow]);
    }

    // Each chunk of images is one GEMM over its images' patch columns, so
    // weight packing, GEMM blocking setup and the epilogue pass are paid
    // once per *chunk* rather than once per *image* — on small per-image
    // shapes those fixed costs dominate, and amortizing them is what makes
    // dynamic batching in `cae-serve` pay off. Each output column's
    // accumulation is a single FMA chain regardless of the GEMM width (see
    // `gemm`), so every image's logits stay bit-identical to its batch-1
    // forward, and the chunk count is free to follow the thread budget:
    // inside a budgeted experiment cell that is the cell's share of the
    // pool, not the whole pool.
    let flops = 2 * n * o * krows * ncols;
    let chunks = if flops >= PARALLEL_FLOP_THRESHOLD {
        pool::current_parallelism().min(n)
    } else {
        1
    };
    let per_chunk = n.div_ceil(chunks);
    // A stride-1 conv runs over the padded output grid, which skips packing
    // B but computes `grid_cols − OH·OW` dropped columns per image, `O`
    // output rows each. That pays while the dropped work stays under about
    // `NR` rows per kept column: on 12x12..3x3 maps with 4..16 channels
    // the forward gets faster, while 2x2 and 1x1 maps, or 24+ channels on
    // 3x3, were measured slower than packing and keep the gathered path.
    let in_place = spec.stride == 1 && (grid_cols(spec, h, w) - ncols) * o < ncols * NR;
    let patches = Patches::new(x, spec, in_place);
    let (img_cols, pitch) = (patches.img_cols, patches.row_pitch);
    // Not zero-filled: the epilogue writes every element before the length
    // is set.
    let mut data = Vec::<f32>::with_capacity(n * per_sample);
    let out_ptr = SendPtr(data.as_mut_ptr());
    let run = |t: usize| {
        // Capture the wrapper, not its raw-pointer field (which is !Sync).
        let out_ptr = &out_ptr;
        let images = t * per_chunk..n.min((t + 1) * per_chunk);
        let total = images.len() * img_cols;
        // Unzeroed: the GEMM overwrites every element (accumulate=false).
        let mut prod = workspace::take_unzeroed(Slot::ConvOut, o * total);
        let cols = patches.forward_b(images.clone());
        gemm_with(o, total, krows, weight.data(), (krows, 1), cols, &mut prod, false);
        let _ep = cae_trace::span_stat("conv.epilogue");
        // Bias and activation run over each channel's whole product row,
        // dropped grid columns included: one kernel call per channel, the
        // same lane op on every kept element.
        for (oi, row) in prod.chunks_exact_mut(total).enumerate() {
            let bv = bias.map_or(0.0, |b| b.data()[oi]);
            match epilogue {
                ConvEpilogue::None if bias.is_some() => vecmath::vec_add_scalar_inplace(row, bv),
                ConvEpilogue::None => {}
                ConvEpilogue::Relu => vecmath::vec_bias_relu_inplace(row, bv),
                ConvEpilogue::LeakyRelu(slope) => {
                    vecmath::vec_bias_leaky_relu_inplace(row, bv, slope)
                }
            }
        }
        for (ni, image) in images.enumerate() {
            for oi in 0..o {
                let src = &prod[oi * total + ni * img_cols..][..(oh - 1) * pitch + ow];
                // SAFETY: the images of chunk `t` belong to it alone, so
                // this channel is written by no other task, and the
                // output's capacity covers its `ncols` floats.
                unsafe { copy_rows(src, pitch, ow, out_ptr.0.add((image * o + oi) * ncols)) };
            }
        }
        workspace::give(Slot::ConvOut, prod);
    };
    match n.div_ceil(per_chunk) {
        1 => run(0),
        tasks => pool::parallel_for(tasks, run),
    }
    patches.release();
    // SAFETY: the chunks cover every image, and each wrote all of its
    // images' `per_sample` floats.
    unsafe { data.set_len(n * per_sample) };
    Tensor::from_vec(data, &[n, o, oh, ow]).expect("conv output shape is consistent by construction")
}

/// Copies the `width`-float rows that start every `pitch` floats of `src`
/// densely to `dst`, in fixed 4-float moves plus a scalar tail: output rows
/// are a few floats long, where a `memcpy` call per row costs more than
/// the copy.
///
/// # Safety
/// `dst` must be valid for `src.len().div_ceil(pitch)·width` writes that
/// alias nothing borrowed.
#[inline(always)]
unsafe fn copy_rows(src: &[f32], pitch: usize, width: usize, dst: *mut f32) {
    for (y, row) in src.chunks(pitch).enumerate() {
        let (s, d) = (row[..width].as_ptr(), unsafe { dst.add(y * width) });
        let mut x = 0;
        // SAFETY: `x + 4 ≤ width` and `x < width` keep every read in `row`
        // and every write in row `y` of `dst`.
        unsafe {
            while x + 4 <= width {
                let quad = s.add(x).cast::<[f32; 4]>().read_unaligned();
                d.add(x).cast::<[f32; 4]>().write_unaligned(quad);
                x += 4;
            }
            while x < width {
                d.add(x).write(*s.add(x));
                x += 1;
            }
        }
    }
}

/// Which gradients [`conv2d_backward`] computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGrads {
    /// The input gradient `dx`.
    pub input: bool,
    /// The weight and bias gradients `dW`, `db`.
    pub weight: bool,
}

impl ConvGrads {
    /// Every gradient: `dx`, `dW` and `db`.
    pub const ALL: ConvGrads = ConvGrads {
        input: true,
        weight: true,
    };
}

/// Backward pass of [`conv2d`], computing only the gradients `want` asks
/// for: `(dx, (dW, db))`. Without `dx` it skips the TN product and
/// `col2im`; without `dW` it skips the patch tables, the NT product and the
/// bias sums. A gradient that is computed is bit-identical whatever else is
/// skipped: its FMA chains and the `dW`/`db` chunk reduction do not depend
/// on `want`.
///
/// # Panics
/// Panics if `weight` does not match `x` and `spec` (as in [`conv2d`]) or
/// `grad_out` is not `[N, O, OH, OW]`.
pub fn conv2d_backward(
    x: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: Conv2dSpec,
    want: ConvGrads,
) -> (Option<Tensor>, Option<(Tensor, Tensor)>) {
    let (n, c, h, w) = x.shape().nchw();
    let o = weight_out_channels("conv2d_backward", c, weight, spec);
    let oh = spec.out_size(h);
    let ow = spec.out_size(w);
    assert_eq!(
        grad_out.shape().dims(),
        &[n, o, oh, ow],
        "conv2d_backward grad_out shape mismatch: expected [N, O, OH, OW]"
    );
    let ncols = oh * ow;
    let krows = c * spec.kernel * spec.kernel;
    let wd = weight.shape().dims();

    let chw = c * h * w;
    let mut dx = want.input.then(|| Tensor::zeros(&[n, c, h, w]));
    let mut dw_flat = vec![0.0f32; if want.weight { o * krows } else { 0 }];
    let mut db = want.weight.then(|| Tensor::zeros(&[o]));
    let finish = |dx, dw_flat, db: Option<Tensor>| {
        let dwb = db.map(|db| {
            let dw = Tensor::from_vec(dw_flat, wd).expect("dw shape is consistent by construction");
            (dw, db)
        });
        (dx, dwb)
    };
    if n == 0 || !(want.input || want.weight) {
        return finish(dx, dw_flat, db);
    }

    // Each chunk of the batch accumulates into a private [dw | db] partial,
    // reduced after the join; dx sample slices are disjoint by construction.
    // The chunk count is fixed (see [`BACKWARD_CHUNKS`]) so the reduction
    // order — and the f32 rounding of dw/db — is identical at every
    // thread count.
    let flops = 4 * n * o * krows * ncols;
    let chunks = if flops >= PARALLEL_FLOP_THRESHOLD {
        BACKWARD_CHUNKS.min(n)
    } else {
        1
    };
    let per_chunk = n.div_ceil(chunks);
    let tasks = n.div_ceil(per_chunk);
    let part_stride = if want.weight { o * krows + o } else { 0 };
    let mut partials = workspace::take(Slot::Partial, tasks * part_stride);
    let part_ptr = SendPtr(partials.as_mut_ptr());
    let dx_ptr = SendPtr(
        dx.as_mut()
            .map_or(std::ptr::null_mut(), |t| t.data_mut().as_mut_ptr()),
    );
    let (god, wd_flat) = (grad_out.data(), weight.data());
    let patches = want.weight.then(|| Patches::new(x, spec, false));

    pool::parallel_for(tasks, |t| {
        // Capture the wrappers, not their raw-pointer fields (which are
        // !Sync).
        let (part_ptr, dx_ptr) = (&part_ptr, &dx_ptr);
        // Unzeroed: the TN product overwrites every element.
        let mut dcol = want
            .input
            .then(|| workspace::take_unzeroed(Slot::DCol, krows * ncols));
        // SAFETY: partial `t` is touched by this task only, and is empty
        // (length 0) when no weight gradient is wanted.
        let part = unsafe {
            std::slice::from_raw_parts_mut(part_ptr.0.add(t * part_stride), part_stride)
        };
        let (dw_part, db_part) = part.split_at_mut(if want.weight { o * krows } else { 0 });
        for ni in t * per_chunk..n.min((t + 1) * per_chunk) {
            let go = &god[ni * o * ncols..(ni + 1) * o * ncols];
            if let Some(patches) = &patches {
                for oi in 0..o {
                    db_part[oi] += vecmath::vec_sum(&go[oi * ncols..(oi + 1) * ncols]);
                }
                // dw += go[o, ncols] · col[krows, ncols]ᵀ (NT product): the
                // image's output columns are the depth, so the patch tables
                // swap roles.
                let colt = BSource::Patches {
                    src: &patches.src,
                    row_off: patches.n_off(ni * ncols..(ni + 1) * ncols),
                    col_off: patches.k_off(),
                };
                gemm_with(o, krows, ncols, go, (ncols, 1), colt, dw_part, true);
            }
            if let Some(dcol) = dcol.as_mut() {
                // dcol = w[o, krows]ᵀ · go[o, ncols]  (TN product).
                gemm(krows, ncols, o, wd_flat, (1, krows), go, (ncols, 1), dcol, false);
                // SAFETY: `dx` exists whenever `dcol` does, and sample `ni`
                // belongs to this task's chunk alone.
                let dst = unsafe { std::slice::from_raw_parts_mut(dx_ptr.0.add(ni * chw), chw) };
                col2im_single(dcol, c, h, w, spec, dst);
            }
        }
        if let Some(dcol) = dcol {
            workspace::give(Slot::DCol, dcol);
        }
    });
    if let Some(patches) = patches {
        patches.release();
    }

    if let Some(db) = db.as_mut() {
        for t in 0..tasks {
            let part = &partials[t * part_stride..(t + 1) * part_stride];
            for (d, &p) in dw_flat.iter_mut().zip(&part[..o * krows]) {
                *d += p;
            }
            for (d, &p) in db.data_mut().iter_mut().zip(&part[o * krows..]) {
                *d += p;
            }
        }
    }
    workspace::give(Slot::Partial, partials);
    finish(dx, dw_flat, db)
}

/// Forward 2-d average pooling with a square window and equal stride.
pub fn avg_pool2d(x: &Tensor, kernel: usize, stride: usize) -> Tensor {
    let (n, c, h, w) = x.shape().nchw();
    // The checked conv geometry: panics on a zero stride or a window
    // larger than the input instead of wrapping.
    let window = Conv2dSpec::new(kernel, stride, 0);
    let (oh, ow) = (window.out_size(h), window.out_size(w));
    let mut out = Tensor::zeros(&[n, c, oh, ow]);
    let inv = 1.0 / (kernel * kernel) as f32;
    let (xd, od) = (x.data(), out.data_mut());
    for nc in 0..n * c {
        let src = &xd[nc * h * w..(nc + 1) * h * w];
        let dst = &mut od[nc * oh * ow..(nc + 1) * oh * ow];
        for oi in 0..oh {
            for oj in 0..ow {
                let mut s = 0.0f32;
                for ki in 0..kernel {
                    for kj in 0..kernel {
                        s += src[(oi * stride + ki) * w + oj * stride + kj];
                    }
                }
                dst[oi * ow + oj] = s * inv;
            }
        }
    }
    out
}

/// Backward pass of [`avg_pool2d`].
pub fn avg_pool2d_backward(
    x_shape: (usize, usize, usize, usize),
    grad_out: &Tensor,
    kernel: usize,
    stride: usize,
) -> Tensor {
    let (n, c, h, w) = x_shape;
    let window = Conv2dSpec::new(kernel, stride, 0);
    let (oh, ow) = (window.out_size(h), window.out_size(w));
    let inv = 1.0 / (kernel * kernel) as f32;
    let mut dx = Tensor::zeros(&[n, c, h, w]);
    let (gd, dd) = (grad_out.data(), dx.data_mut());
    for nc in 0..n * c {
        let g = &gd[nc * oh * ow..(nc + 1) * oh * ow];
        let d = &mut dd[nc * h * w..(nc + 1) * h * w];
        for oi in 0..oh {
            for oj in 0..ow {
                let gv = g[oi * ow + oj] * inv;
                for ki in 0..kernel {
                    for kj in 0..kernel {
                        d[(oi * stride + ki) * w + oj * stride + kj] += gv;
                    }
                }
            }
        }
    }
    dx
}

/// Forward 2-d max pooling; also returns the flat argmax indices used by the
/// backward pass.
pub fn max_pool2d(x: &Tensor, kernel: usize, stride: usize) -> (Tensor, Vec<usize>) {
    let (n, c, h, w) = x.shape().nchw();
    let window = Conv2dSpec::new(kernel, stride, 0);
    let (oh, ow) = (window.out_size(h), window.out_size(w));
    let mut out = Tensor::zeros(&[n, c, oh, ow]);
    let mut arg = vec![0usize; n * c * oh * ow];
    let (xd, od) = (x.data(), out.data_mut());
    for nc in 0..n * c {
        let src = &xd[nc * h * w..(nc + 1) * h * w];
        for oi in 0..oh {
            for oj in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = 0usize;
                for ki in 0..kernel {
                    for kj in 0..kernel {
                        let idx = (oi * stride + ki) * w + oj * stride + kj;
                        if src[idx] > best {
                            best = src[idx];
                            best_idx = idx;
                        }
                    }
                }
                let off = nc * oh * ow + oi * ow + oj;
                od[off] = best;
                arg[off] = nc * h * w + best_idx;
            }
        }
    }
    (out, arg)
}

/// Backward pass of [`max_pool2d`] given the saved argmax indices.
pub fn max_pool2d_backward(
    x_shape: (usize, usize, usize, usize),
    grad_out: &Tensor,
    argmax: &[usize],
) -> Tensor {
    let (n, c, h, w) = x_shape;
    let mut dx = Tensor::zeros(&[n, c, h, w]);
    let dd = dx.data_mut();
    for (g, &idx) in grad_out.data().iter().zip(argmax.iter()) {
        dd[idx] += g;
    }
    dx
}

/// Nearest-neighbour upsampling by an integer factor.
pub fn upsample_nearest2d(x: &Tensor, scale: usize) -> Tensor {
    let (n, c, h, w) = x.shape().nchw();
    let (oh, ow) = (h * scale, w * scale);
    let mut out = Tensor::zeros(&[n, c, oh, ow]);
    let (xd, od) = (x.data(), out.data_mut());
    for nc in 0..n * c {
        let src = &xd[nc * h * w..(nc + 1) * h * w];
        let dst = &mut od[nc * oh * ow..(nc + 1) * oh * ow];
        for oi in 0..oh {
            for oj in 0..ow {
                dst[oi * ow + oj] = src[(oi / scale) * w + oj / scale];
            }
        }
    }
    out
}

/// Backward pass of [`upsample_nearest2d`] (sums gradients over each
/// upsampled block).
pub fn upsample_nearest2d_backward(
    x_shape: (usize, usize, usize, usize),
    grad_out: &Tensor,
    scale: usize,
) -> Tensor {
    let (n, c, h, w) = x_shape;
    let (oh, ow) = (h * scale, w * scale);
    let mut dx = Tensor::zeros(&[n, c, h, w]);
    let (gd, dd) = (grad_out.data(), dx.data_mut());
    for nc in 0..n * c {
        let g = &gd[nc * oh * ow..(nc + 1) * oh * ow];
        let d = &mut dd[nc * h * w..(nc + 1) * h * w];
        for oi in 0..oh {
            for oj in 0..ow {
                d[(oi / scale) * w + oj / scale] += g[oi * ow + oj];
            }
        }
    }
    dx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv2d_identity_kernel() {
        // A 1x1 kernel with weight 1 is the identity.
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let w = Tensor::ones(&[1, 1, 1, 1]);
        let y = conv2d(&x, &w, None, Conv2dSpec::new(1, 1, 0));
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv2d_3x3_known_value() {
        // All-ones 3x3 input, all-ones 3x3 kernel, pad 1: center output = 9.
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let w = Tensor::ones(&[1, 1, 3, 3]);
        let y = conv2d(&x, &w, None, Conv2dSpec::new(3, 1, 1));
        assert_eq!(y.shape().dims(), &[1, 1, 3, 3]);
        assert_eq!(y.data()[4], 9.0); // center
        assert_eq!(y.data()[0], 4.0); // corner
    }

    #[test]
    fn conv2d_stride_shrinks_output() {
        let x = Tensor::ones(&[2, 3, 8, 8]);
        let w = Tensor::ones(&[4, 3, 3, 3]);
        let y = conv2d(&x, &w, None, Conv2dSpec::new(3, 2, 1));
        assert_eq!(y.shape().dims(), &[2, 4, 4, 4]);
    }

    #[test]
    fn conv2d_fused_epilogue_matches_separate_passes() {
        let x = Tensor::from_vec(
            (0..2 * 3 * 6 * 6).map(|i| ((i * 31 % 17) as f32 - 8.0) * 0.1).collect(),
            &[2, 3, 6, 6],
        )
        .unwrap();
        let w = Tensor::from_vec(
            (0..4 * 3 * 9).map(|i| ((i * 13 % 11) as f32 - 5.0) * 0.1).collect(),
            &[4, 3, 3, 3],
        )
        .unwrap();
        let b = Tensor::from_vec(vec![0.3, -0.2, 0.1, -0.4], &[4]).unwrap();
        let spec = Conv2dSpec::new(3, 1, 1);

        let base = conv2d(&x, &w, Some(&b), spec);
        let fused = conv2d_fused(&x, &w, Some(&b), spec, ConvEpilogue::Relu);
        for (&f, &y) in fused.data().iter().zip(base.data()) {
            assert_eq!(f, y.max(0.0), "fused relu epilogue");
        }
        let fused = conv2d_fused(&x, &w, Some(&b), spec, ConvEpilogue::LeakyRelu(0.2));
        for (&f, &y) in fused.data().iter().zip(base.data()) {
            let want = if y > 0.0 { y } else { y * 0.2 };
            assert!((f - want).abs() <= 1e-6, "fused leaky epilogue: {f} vs {want}");
        }
        // Without bias the epilogue still applies the activation.
        let base = conv2d(&x, &w, None, spec);
        let fused = conv2d_fused(&x, &w, None, spec, ConvEpilogue::Relu);
        for (&f, &y) in fused.data().iter().zip(base.data()) {
            assert_eq!(f, y.max(0.0), "fused relu epilogue, no bias");
        }
    }

    #[test]
    fn conv2d_spec_serde_roundtrip() {
        let spec = Conv2dSpec::new(3, 2, 1);
        let back =
            <Conv2dSpec as serde::Deserialize>::from_value(&serde::Serialize::to_value(&spec))
                .unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn max_pool_and_backward_route_gradient_to_argmax() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let (y, arg) = max_pool2d(&x, 2, 2);
        assert_eq!(y.data(), &[4.0]);
        let g = Tensor::from_vec(vec![10.0], &[1, 1, 1, 1]).unwrap();
        let dx = max_pool2d_backward((1, 1, 2, 2), &g, &arg);
        assert_eq!(dx.data(), &[0.0, 0.0, 0.0, 10.0]);
    }

    #[test]
    fn avg_pool_backward_spreads_gradient() {
        let g = Tensor::from_vec(vec![4.0], &[1, 1, 1, 1]).unwrap();
        let dx = avg_pool2d_backward((1, 1, 2, 2), &g, 2, 2);
        assert_eq!(dx.data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn upsample_roundtrip_shapes() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let y = upsample_nearest2d(&x, 2);
        assert_eq!(y.shape().dims(), &[1, 1, 4, 4]);
        assert_eq!(y.data()[0], 1.0);
        assert_eq!(y.data()[3], 2.0);
        let dx = upsample_nearest2d_backward((1, 1, 2, 2), &y, 2);
        // Each input cell collects 4 copies of itself.
        assert_eq!(dx.data(), &[4.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    #[should_panic(expected = "does not fit padded input")]
    fn out_size_rejects_kernel_larger_than_padded_input() {
        // Seed behavior: usize underflow panic in release
        // (or garbage size in a hypothetical wrapping build).
        Conv2dSpec::new(5, 1, 1).out_size(2);
    }

    #[test]
    fn out_size_accepts_exact_fit() {
        assert_eq!(Conv2dSpec::new(4, 1, 1).out_size(2), 1);
    }

    #[test]
    fn conv2d_backward_matches_naive_reference() {
        // Cross-check the GEMM-routed backward against a direct
        // loop-nest computation of dw/db/dx on a small case.
        let spec = Conv2dSpec::new(3, 1, 1);
        let (n, c, h, w, o) = (2usize, 2usize, 4usize, 4usize, 3usize);
        let x = Tensor::from_vec(
            (0..n * c * h * w).map(|i| ((i * 37 % 23) as f32 - 11.0) * 0.1).collect(),
            &[n, c, h, w],
        )
        .unwrap();
        let wt = Tensor::from_vec(
            (0..o * c * 9).map(|i| ((i * 17 % 19) as f32 - 9.0) * 0.05).collect(),
            &[o, c, 3, 3],
        )
        .unwrap();
        let go = Tensor::from_vec(
            (0..n * o * h * w).map(|i| ((i * 13 % 29) as f32 - 14.0) * 0.02).collect(),
            &[n, o, h, w],
        )
        .unwrap();
        let (dx, dwb) = conv2d_backward(&x, &wt, &go, spec, ConvGrads::ALL);
        let (dx, (dw, db)) = (dx.unwrap(), dwb.unwrap());

        // Naive dw[oi, ci, ki, kj] = sum over n, output positions of
        // go * shifted x; dx by the transposed stencil.
        let mut dw_ref = vec![0.0f32; o * c * 9];
        let mut db_ref = vec![0.0f32; o];
        let mut dx_ref = vec![0.0f32; n * c * h * w];
        for ni in 0..n {
            for oi in 0..o {
                for yy in 0..h {
                    for xx in 0..w {
                        let g = go.data()[((ni * o + oi) * h + yy) * w + xx];
                        db_ref[oi] += g;
                        for ci in 0..c {
                            for ki in 0..3 {
                                for kj in 0..3 {
                                    let iy = yy as isize + ki as isize - 1;
                                    let ix = xx as isize + kj as isize - 1;
                                    if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                        continue;
                                    }
                                    let xi = ((ni * c + ci) * h + iy as usize) * w + ix as usize;
                                    dw_ref[((oi * c + ci) * 3 + ki) * 3 + kj] += g * x.data()[xi];
                                    dx_ref[xi] +=
                                        g * wt.data()[((oi * c + ci) * 3 + ki) * 3 + kj];
                                }
                            }
                        }
                    }
                }
            }
        }
        for (got, want) in db.data().iter().zip(&db_ref) {
            assert!((got - want).abs() < 1e-4, "db: {got} vs {want}");
        }
        for (got, want) in dw.data().iter().zip(&dw_ref) {
            assert!((got - want).abs() < 1e-4, "dw: {got} vs {want}");
        }
        for (got, want) in dx.data().iter().zip(&dx_ref) {
            assert!((got - want).abs() < 1e-4, "dx: {got} vs {want}");
        }
    }

    #[test]
    fn patch_gather_col2im_adjoint_property() {
        // <gather(x), y> == <x, col2im(y)> for random-ish tensors: validates
        // the patch offset tables against the backward fold, padding
        // included.
        let spec = Conv2dSpec::new(3, 2, 1);
        let (c, h, w) = (2, 5, 6);
        let ncols = spec.out_size(h) * spec.out_size(w);
        let krows = c * 9;
        let x = Tensor::from_vec(
            (0..c * h * w).map(|i| (i as f32 * 0.37).sin()).collect(),
            &[1, c, h, w],
        )
        .unwrap();
        let y: Vec<f32> = (0..krows * ncols).map(|i| (i as f32 * 0.11).cos()).collect();
        let patches = Patches::new(&x, spec, false);
        let (src, k_off, n_off) = (&patches.src, patches.k_off(), patches.n_off(0..ncols));
        let mut lhs = 0.0f32;
        for r in 0..krows {
            for j in 0..ncols {
                lhs += src[k_off[r] + n_off[j]] * y[r * ncols + j];
            }
        }
        let mut xb = vec![0.0f32; c * h * w];
        col2im_single(&y, c, h, w, spec, &mut xb);
        let rhs: f32 = x.data().iter().zip(xb.iter()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "lhs={lhs} rhs={rhs}");
        patches.release();
    }

    #[test]
    #[should_panic(expected = "does not fit padded input")]
    fn avg_pool_rejects_window_larger_than_input() {
        avg_pool2d(&Tensor::ones(&[1, 1, 2, 2]), 3, 1);
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn avg_pool_rejects_zero_stride() {
        avg_pool2d(&Tensor::ones(&[1, 1, 4, 4]), 2, 0);
    }

    #[test]
    #[should_panic(expected = "does not fit padded input")]
    fn avg_pool_backward_rejects_window_larger_than_input() {
        avg_pool2d_backward((1, 1, 2, 2), &Tensor::ones(&[1, 1, 1, 1]), 3, 1);
    }

    #[test]
    #[should_panic(expected = "does not fit padded input")]
    fn max_pool_rejects_window_larger_than_input() {
        max_pool2d(&Tensor::ones(&[1, 1, 4, 2]), 3, 1);
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn max_pool_rejects_zero_stride() {
        max_pool2d(&Tensor::ones(&[1, 1, 4, 4]), 2, 0);
    }

    #[test]
    #[should_panic(expected = "conv2d_backward grad_out shape mismatch")]
    fn conv2d_backward_rejects_mismatched_grad_out() {
        let x = Tensor::ones(&[2, 3, 6, 6]);
        let w = Tensor::ones(&[4, 3, 3, 3]);
        // Output is [2, 4, 6, 6]; a gradient for 5 channels must not be
        // gathered against it.
        conv2d_backward(
            &x,
            &w,
            &Tensor::ones(&[2, 5, 6, 6]),
            Conv2dSpec::new(3, 1, 1),
            ConvGrads::ALL,
        );
    }

    #[test]
    #[should_panic(expected = "conv2d_backward channel mismatch")]
    fn conv2d_backward_rejects_mismatched_weight() {
        let x = Tensor::ones(&[1, 3, 6, 6]);
        let w = Tensor::ones(&[4, 2, 3, 3]);
        conv2d_backward(
            &x,
            &w,
            &Tensor::ones(&[1, 4, 6, 6]),
            Conv2dSpec::new(3, 1, 1),
            ConvGrads::ALL,
        );
    }
}
