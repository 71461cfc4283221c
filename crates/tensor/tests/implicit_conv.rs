//! Bit-identity suite for the implicit-GEMM convolution.
//!
//! `conv2d_fused` and `conv2d_backward` never materialize the im2col
//! column matrix: a strided forward conv and the backward products gather
//! patches straight from the (padded) NCHW input into packed panels, and a
//! stride-1 forward conv computes over the padded output grid, its
//! micro-kernel reading every kernel row in place. This suite keeps an
//! explicit im2col plus the public strided [`gemm`] as a *test-local*
//! reference — the lowering the kernels used before — and requires
//! `to_bits()` equality with it for the forward output and for `dW`, `db`
//! and `dx`, across kernel sizes, strides, paddings, non-square inputs,
//! depth blocks past `KC`, column counts past the `NR` panel and the
//! default `nc` block, grids that end mid-tile, and both forward chunk
//! counts (one chunk, and one per budgeted thread).

use cae_tensor::conv::{self, Conv2dSpec, ConvEpilogue, ConvGrads};
use cae_tensor::gemm::{gemm, PARALLEL_FLOP_THRESHOLD};
use cae_tensor::pool;
use cae_tensor::rng::TensorRng;
use cae_tensor::simd::vecmath;
use cae_tensor::Tensor;
use std::sync::Mutex;

/// Mirrors the kernel's fixed backward batch chunking (`BACKWARD_CHUNKS`
/// in `conv.rs`), which sets the `dW`/`db` reduction order.
const BACKWARD_CHUNKS: usize = 16;

/// Gives the process a 4-thread pool so top-level convs above the parallel
/// cutoff take the multi-chunk body even on a 1- or 2-core host. Every test
/// calls it before touching the pool; only the first call can size it.
fn wide_pool() {
    assert!(
        pool::force_pool_size(4) >= 2,
        "the pool must have worker threads"
    );
}

/// Runs `f` inside a pool task whose thread budget is `budget`, so conv2d
/// above the parallel cutoff splits its batch into `budget` chunks.
fn with_budget<T: Send>(budget: usize, f: impl Fn() -> T + Sync) -> T {
    let out = Mutex::new(None);
    pool::parallel_for_with(pool::JobOpts::cell(budget), 2, |t| {
        if t == 0 {
            assert_eq!(pool::current_parallelism(), budget);
            *out.lock().unwrap() = Some(f());
        }
    });
    out.into_inner().unwrap().expect("task 0 ran")
}

/// Runs `f` inside a pool task, where the thread budget is 1, so conv2d
/// takes its single-chunk body.
fn with_budget_one<T: Send>(f: impl Fn() -> T + Sync) -> T {
    with_budget(1, f)
}

/// Explicit im2col of one `[C, H, W]` image into `[C*k*k, OH*OW]`, zeros
/// where a patch overlaps the padding.
fn im2col(x: &[f32], c: usize, h: usize, w: usize, spec: Conv2dSpec) -> Vec<f32> {
    let (k, s, p) = (spec.kernel, spec.stride, spec.padding);
    let (oh, ow) = (spec.out_size(h), spec.out_size(w));
    let mut col = vec![0.0f32; c * k * k * oh * ow];
    for ci in 0..c {
        for ki in 0..k {
            for kj in 0..k {
                let r = (ci * k + ki) * k + kj;
                for oi in 0..oh {
                    for oj in 0..ow {
                        let (ii, jj) = (
                            (oi * s + ki) as isize - p as isize,
                            (oj * s + kj) as isize - p as isize,
                        );
                        if ii >= 0 && jj >= 0 && (ii as usize) < h && (jj as usize) < w {
                            col[r * oh * ow + oi * ow + oj] =
                                x[(ci * h + ii as usize) * w + jj as usize];
                        }
                    }
                }
            }
        }
    }
    col
}

/// Adjoint of [`im2col`], accumulating in the kernel's `col2im` order
/// (kernel row, then output row, then output column).
fn col2im(col: &[f32], c: usize, h: usize, w: usize, spec: Conv2dSpec, x: &mut [f32]) {
    let (k, s, p) = (spec.kernel, spec.stride, spec.padding);
    let (oh, ow) = (spec.out_size(h), spec.out_size(w));
    for ci in 0..c {
        for ki in 0..k {
            for kj in 0..k {
                let r = (ci * k + ki) * k + kj;
                for oi in 0..oh {
                    for oj in 0..ow {
                        let (ii, jj) = (
                            (oi * s + ki) as isize - p as isize,
                            (oj * s + kj) as isize - p as isize,
                        );
                        if ii >= 0 && jj >= 0 && (ii as usize) < h && (jj as usize) < w {
                            x[(ci * h + ii as usize) * w + jj as usize] +=
                                col[r * oh * ow + oi * ow + oj];
                        }
                    }
                }
            }
        }
    }
}

/// Reference forward: one explicit im2col + GEMM per image, bias added
/// exactly as the kernel's `ConvEpilogue::None` does.
fn forward_ref(x: &Tensor, weight: &Tensor, bias: Option<&Tensor>, spec: Conv2dSpec) -> Vec<f32> {
    let (n, c, h, w) = x.shape().nchw();
    let o = weight.shape().dims()[0];
    let ncols = spec.out_size(h) * spec.out_size(w);
    let krows = c * spec.kernel * spec.kernel;
    let mut out = vec![0.0f32; n * o * ncols];
    for (ni, dst) in out.chunks_exact_mut(o * ncols).enumerate() {
        let col = im2col(&x.data()[ni * c * h * w..][..c * h * w], c, h, w, spec);
        gemm(
            o,
            ncols,
            krows,
            weight.data(),
            (krows, 1),
            &col,
            (ncols, 1),
            dst,
            false,
        );
        if let Some(b) = bias {
            for (oi, row) in dst.chunks_exact_mut(ncols).enumerate() {
                vecmath::vec_add_scalar_inplace(row, b.data()[oi]);
            }
        }
    }
    out
}

/// Reference backward `(dx, dw, db)`: per-image `dW += go·colᵀ` and
/// `db += Σ go` into per-chunk partials reduced in chunk order, and
/// `dx = col2im(Wᵀ·go)`.
fn backward_ref(
    x: &Tensor,
    weight: &Tensor,
    go: &Tensor,
    spec: Conv2dSpec,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let (n, c, h, w) = x.shape().nchw();
    let o = weight.shape().dims()[0];
    let ncols = spec.out_size(h) * spec.out_size(w);
    let krows = c * spec.kernel * spec.kernel;
    let chunks = if 4 * n * o * krows * ncols >= PARALLEL_FLOP_THRESHOLD {
        BACKWARD_CHUNKS.min(n)
    } else {
        1
    };
    let per_chunk = n.div_ceil(chunks);
    let (mut dx, mut dw, mut db) = (
        vec![0.0f32; n * c * h * w],
        vec![0.0f32; o * krows],
        vec![0.0f32; o],
    );
    for t in 0..n.div_ceil(per_chunk) {
        let (mut dw_part, mut db_part) = (vec![0.0f32; o * krows], vec![0.0f32; o]);
        for ni in t * per_chunk..n.min((t + 1) * per_chunk) {
            let g = &go.data()[ni * o * ncols..][..o * ncols];
            for (oi, d) in db_part.iter_mut().enumerate() {
                *d += vecmath::vec_sum(&g[oi * ncols..][..ncols]);
            }
            let col = im2col(&x.data()[ni * c * h * w..][..c * h * w], c, h, w, spec);
            gemm(
                o,
                krows,
                ncols,
                g,
                (ncols, 1),
                &col,
                (1, ncols),
                &mut dw_part,
                true,
            );
            let mut dcol = vec![0.0f32; krows * ncols];
            gemm(
                krows,
                ncols,
                o,
                weight.data(),
                (1, krows),
                g,
                (ncols, 1),
                &mut dcol,
                false,
            );
            col2im(&dcol, c, h, w, spec, &mut dx[ni * c * h * w..][..c * h * w]);
        }
        dw.iter_mut().zip(&dw_part).for_each(|(d, p)| *d += p);
        db.iter_mut().zip(&db_part).for_each(|(d, p)| *d += p);
    }
    (dx, dw, db)
}

fn assert_bits(label: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{label}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{label}[{i}]: {g} vs {w}");
    }
}

/// A conv case: `x[n, c, h, w] * w[o, c, k, k]` under `spec`.
struct Case {
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    go: Tensor,
    spec: Conv2dSpec,
}

impl Case {
    fn new(
        seed: u64,
        (n, c, h, w, o): (usize, usize, usize, usize, usize),
        spec: Conv2dSpec,
    ) -> Case {
        let mut rng = TensorRng::seed_from(seed);
        let (oh, ow) = (spec.out_size(h), spec.out_size(w));
        Case {
            x: rng.normal_tensor(&[n, c, h, w], 0.0, 1.0),
            weight: rng.normal_tensor(&[o, c, spec.kernel, spec.kernel], 0.0, 0.3),
            bias: rng.normal_tensor(&[o], 0.0, 0.1),
            go: rng.normal_tensor(&[n, o, oh, ow], 0.0, 1.0),
            spec,
        }
    }

    fn label(&self) -> String {
        format!(
            "{:?} w{:?} {:?}",
            self.x.shape().dims(),
            self.weight.shape().dims(),
            self.spec
        )
    }

    /// Forward (with and without bias) and backward, at the current budget,
    /// bit-equal to the explicit-im2col reference.
    fn check(&self) {
        let label = self.label();
        let y = conv::conv2d(&self.x, &self.weight, None, self.spec);
        assert_bits(
            &format!("{label} forward"),
            y.data(),
            &forward_ref(&self.x, &self.weight, None, self.spec),
        );
        let yb = conv::conv2d(&self.x, &self.weight, Some(&self.bias), self.spec);
        assert_bits(
            &format!("{label} forward+bias"),
            yb.data(),
            &forward_ref(&self.x, &self.weight, Some(&self.bias), self.spec),
        );
        let (dx, dwb) =
            conv::conv2d_backward(&self.x, &self.weight, &self.go, self.spec, ConvGrads::ALL);
        let (dx, (dw, db)) = (dx.unwrap(), dwb.unwrap());
        let (dx_ref, dw_ref, db_ref) = backward_ref(&self.x, &self.weight, &self.go, self.spec);
        assert_bits(&format!("{label} dx"), dx.data(), &dx_ref);
        assert_bits(&format!("{label} dw"), dw.data(), &dw_ref);
        assert_bits(&format!("{label} db"), db.data(), &db_ref);
    }
}

#[test]
fn kernels_strides_paddings_and_non_square_inputs_match_explicit_im2col() {
    wide_pool();
    let mut seed = 0;
    for kernel in [1, 3, 5] {
        for stride in [1, 2, 3] {
            for padding in [0, 1, 2] {
                seed += 1;
                Case::new(
                    seed,
                    (3, 3, 7, 9, 5),
                    Conv2dSpec::new(kernel, stride, padding),
                )
                .check();
            }
        }
    }
}

#[test]
fn depth_past_the_kc_block_matches_explicit_im2col() {
    wide_pool();
    // krows = 32·9 = 288 > KC = 256: the second depth block reads the
    // kernel-row offsets from index 256 on (forward), and the weight
    // gradient's 288 patch columns cross the NR = 16 panel unevenly.
    Case::new(40, (2, 32, 5, 6, 6), Conv2dSpec::new(3, 1, 1)).check();
    Case::new(41, (3, 30, 6, 5, 4), Conv2dSpec::new(3, 2, 2)).check();
}

#[test]
fn columns_past_the_panel_and_nc_blocks_match_explicit_im2col() {
    wide_pool();
    // N·OH·OW = 5·63 = 315 and 5·63 again at stride 2: past the default
    // nc = 256 column block and not a multiple of the NR = 16 panel. Rows
    // of 7 break every aligned run, so both take the lane gather.
    Case::new(50, (5, 4, 9, 7, 6), Conv2dSpec::new(3, 1, 1)).check();
    Case::new(51, (5, 4, 17, 13, 6), Conv2dSpec::new(3, 2, 1)).check();
    // Output rows 8, 16 and 4 wide: every contiguous-run width.
    Case::new(52, (3, 2, 8, 8, 3), Conv2dSpec::new(3, 1, 1)).check();
    Case::new(53, (2, 2, 16, 16, 3), Conv2dSpec::new(3, 1, 1)).check();
    Case::new(54, (4, 2, 4, 4, 3), Conv2dSpec::new(3, 1, 1)).check();
}

#[test]
fn single_and_multi_chunk_bodies_match_explicit_im2col() {
    wide_pool();
    // 2·17·16·72·64 flops ≥ PARALLEL_FLOP_THRESHOLD: at the top level the
    // forward splits into one chunk per budgeted thread; inside a pool task
    // (budget 1) it runs as one chunk. Both must equal the reference.
    let case = Case::new(60, (17, 8, 8, 8, 16), Conv2dSpec::new(3, 1, 1));
    const { assert!(2 * 17 * 16 * 72 * 64 >= PARALLEL_FLOP_THRESHOLD) };
    assert!(
        pool::current_parallelism() > 1,
        "top level must see the wide pool"
    );
    case.check();
    with_budget_one(|| case.check());
}

#[test]
fn batch_17_forward_is_bit_identical_to_batch_1_per_image() {
    wide_pool();
    let case = Case::new(70, (17, 8, 8, 8, 16), Conv2dSpec::new(3, 1, 1));
    let (c, h, w) = (8, 8, 8);
    for epilogue in [
        ConvEpilogue::None,
        ConvEpilogue::Relu,
        ConvEpilogue::LeakyRelu(0.2),
    ] {
        let batched =
            conv::conv2d_fused(&case.x, &case.weight, Some(&case.bias), case.spec, epilogue);
        let serial = with_budget_one(|| {
            conv::conv2d_fused(&case.x, &case.weight, Some(&case.bias), case.spec, epilogue)
        });
        assert_bits(
            &format!("{epilogue:?} chunked vs one chunk"),
            batched.data(),
            serial.data(),
        );
        let per_image = batched.data().len() / 17;
        for ni in 0..17 {
            let xi = Tensor::from_vec(
                case.x.data()[ni * c * h * w..][..c * h * w].to_vec(),
                &[1, c, h, w],
            )
            .unwrap();
            let yi = conv::conv2d_fused(&xi, &case.weight, Some(&case.bias), case.spec, epilogue);
            assert_bits(
                &format!("{epilogue:?} image {ni}"),
                &batched.data()[ni * per_image..][..per_image],
                yi.data(),
            );
        }
    }
}

#[test]
fn serial_and_parallel_gemm_plans_are_bit_identical() {
    wide_pool();
    // 2·203·300·290 flops ≥ PARALLEL_FLOP_THRESHOLD: at the top level the
    // GEMM shares 52-row blocks out over the 4-thread pool; inside a pool
    // task (budget 1) it walks 64-row blocks serially. Row and column
    // blocks only partition the output, so the bits must not move — across
    // the NC = 256 column block, the KC = 256 depth block, a row count off
    // the MR = 4 tile, and the NN, NT and TN layouts.
    let (m, n, k) = (203, 300, 290);
    const { assert!(2 * 203 * 300 * 290 >= PARALLEL_FLOP_THRESHOLD) };
    assert!(
        pool::current_parallelism() > 1,
        "top level must see the wide pool"
    );
    let mut rng = TensorRng::seed_from(80);
    let a = rng.normal_tensor(&[m * k], 0.0, 1.0);
    let b = rng.normal_tensor(&[k * n], 0.0, 1.0);
    let c0 = rng.normal_tensor(&[m * n], 0.0, 1.0);
    let layouts = [
        ("NN", (k, 1), (n, 1)),
        ("NT", (k, 1), (1, k)),
        ("TN", (1, m), (n, 1)),
    ];
    for (layout, a_strides, b_strides) in layouts {
        for accumulate in [false, true] {
            let run = || {
                let mut c = c0.data().to_vec();
                gemm(m, n, k, a.data(), a_strides, b.data(), b_strides, &mut c, accumulate);
                c
            };
            assert_bits(
                &format!("{layout} accumulate={accumulate} parallel vs serial"),
                &run(),
                &with_budget_one(run),
            );
        }
    }
}

// Stride-1 forward convs run over the padded output grid: per image the
// GEMM columns are `j = oi·Wp + oj` for `j < (OH−1)·Wp + OW`, rounded up to
// whole NR = 16 tiles, and the micro-kernel reads B rows in place. The
// cases below put that layout's edges under the reference; each keeps the
// dropped grid columns times O under NR per output column, so it takes the
// in-place path.

#[test]
fn in_place_grids_ending_mid_tile_and_past_the_nc_block_match_explicit_im2col() {
    wide_pool();
    // 11x13 at p = 1: Wp = 15, grid = 10·15 + 13 = 163, rounded to 176 —
    // the last tile of every image holds 3 grid columns and 13 padding
    // columns, and 3 images make 528 GEMM columns, past NC = 256.
    Case::new(90, (3, 3, 11, 13, 5), Conv2dSpec::new(3, 1, 1)).check();
    // 5x5 kernel at p = 2 on 6x4: Wp = 8, grid = 5·8 + 4 = 44 → 48.
    Case::new(91, (4, 2, 6, 4, 4), Conv2dSpec::new(5, 1, 2)).check();
}

#[test]
fn in_place_output_channels_off_the_mr_tile_match_explicit_im2col() {
    wide_pool();
    // O = 7 and O = 1: the last A panel of MR = 4 rows is partly padding.
    Case::new(92, (2, 3, 6, 6, 7), Conv2dSpec::new(3, 1, 1)).check();
    Case::new(93, (3, 4, 5, 7, 1), Conv2dSpec::new(3, 1, 1)).check();
}

#[test]
fn in_place_depth_past_the_kc_block_matches_explicit_im2col() {
    wide_pool();
    // krows = 29·9 = 261 > KC = 256: the second depth block adds its
    // partial sums onto C from in-place rows 256..261.
    Case::new(94, (2, 29, 7, 5, 6), Conv2dSpec::new(3, 1, 2)).check();
    // krows = 12·25 = 300 with a 5x5 kernel.
    Case::new(95, (2, 12, 6, 6, 5), Conv2dSpec::new(5, 1, 2)).check();
}

#[test]
fn in_place_unpadded_inputs_borrowed_or_copied_match_explicit_im2col() {
    wide_pool();
    // p = 0 and the grid is whole tiles, so the input is read in place
    // without a copy: 1x1 on 4x8 (grid 32), and 3x3 on 5x6 (OH = 3,
    // OW = 4, grid = 2·6 + 4 = 16).
    Case::new(96, (3, 5, 4, 8, 6), Conv2dSpec::new(1, 1, 0)).check();
    Case::new(97, (3, 2, 5, 6, 5), Conv2dSpec::new(3, 1, 0)).check();
    // p = 0 with a grid ending mid-tile (7x9, 3x3: 4·9 + 7 = 43 → 48): the
    // last image would read past the input, so it is copied into a buffer
    // with tail slack.
    Case::new(98, (2, 3, 7, 9, 4), Conv2dSpec::new(3, 1, 0)).check();
}

#[test]
fn stride_one_grids_that_waste_more_than_packing_keep_packed_panels() {
    wide_pool();
    // 2x2 at p = 1 under 32 output channels: the grid would be 16 columns
    // for 4 outputs, so the conv gathers into packed panels instead; 1x1
    // likewise. Both paths must give the reference bits.
    Case::new(100, (5, 32, 2, 2, 32), Conv2dSpec::new(3, 1, 1)).check();
    Case::new(101, (3, 24, 1, 1, 24), Conv2dSpec::new(3, 1, 1)).check();
}

#[test]
fn in_place_batches_at_thread_budgets_one_and_two_match_explicit_im2col() {
    wide_pool();
    // 2·15·12·72·90 flops ≥ PARALLEL_FLOP_THRESHOLD: budget 2 splits the
    // 15 images into chunks of 8 and 7, so the second chunk's in-place
    // rows start 8 padded images into the source; budget 1 runs one chunk.
    // The grid, 9·11 + 9 = 108 → 112, ends mid-tile.
    let case = Case::new(99, (15, 8, 10, 9, 12), Conv2dSpec::new(3, 1, 1));
    const { assert!(2 * 15 * 12 * 72 * 90 >= PARALLEL_FLOP_THRESHOLD) };
    with_budget(1, || case.check());
    with_budget(2, || case.check());
    for epilogue in [ConvEpilogue::Relu, ConvEpilogue::LeakyRelu(0.1)] {
        let fused = |budget| {
            with_budget(budget, || {
                conv::conv2d_fused(&case.x, &case.weight, Some(&case.bias), case.spec, epilogue)
            })
        };
        assert_bits(&format!("{epilogue:?} budget 2 vs 1"), fused(2).data(), fused(1).data());
    }
}

#[test]
fn stale_floats_in_the_reused_padded_buffer_never_reach_a_border() {
    wide_pool();
    // The padded input copy reuses the thread's workspace buffer. A larger
    // padded conv first leaves its input — every float at least 1 — in that
    // buffer; the smaller convs that follow on the same thread lay out a
    // different grid over it, so a border the copy does not zero reads a
    // stale non-zero float. One case takes the in-place grid (stride 1),
    // one the gathered panels (stride 2).
    let prime = || {
        let mut rng = TensorRng::seed_from(110);
        let x = rng.normal_tensor(&[2, 6, 21, 19], 0.0, 1.0).map(|v| v.abs() + 1.0);
        let weight = rng.normal_tensor(&[4, 6, 3, 3], 0.0, 0.3);
        conv::conv2d(&x, &weight, None, Conv2dSpec::new(3, 1, 2));
    };
    let grid = Case::new(111, (2, 3, 6, 7, 5), Conv2dSpec::new(3, 1, 1));
    let gathered = Case::new(112, (2, 3, 9, 8, 5), Conv2dSpec::new(3, 2, 2));
    with_budget_one(|| {
        for case in [&grid, &gathered] {
            prime();
            case.check();
        }
    });
}
