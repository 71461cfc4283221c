//! Criterion micro-benchmarks of the hot kernels behind the DFKD loop.

use cae_core::cend::CendLayer;
use cae_core::cncl::{cncl_loss, CnclConfig};
use cae_core::config::{DfkdConfig, ExperimentBudget};
use cae_core::memory::MemoryBank;
use cae_core::method::MethodSpec;
use cae_core::teacher::train_supervised;
use cae_core::trainer::DfkdTrainer;
use cae_data::world::VisionWorld;
use cae_data::SplitDataset;
use cae_nn::models::{Arch, DfkdGenerator, GeneratorConfig};
use cae_nn::module::{Classifier, ForwardCtx, Generator};
use cae_tensor::conv::Conv2dSpec;
use cae_tensor::linalg;
use cae_tensor::rng::TensorRng;
use cae_tensor::{Tensor, Var};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_matmul(c: &mut Criterion) {
    let mut rng = TensorRng::seed_from(0);
    let a = rng.normal_tensor(&[64, 128], 0.0, 1.0);
    let b = rng.normal_tensor(&[128, 96], 0.0, 1.0);
    c.bench_function("matmul_64x128x96", |bench| {
        bench.iter(|| black_box(linalg::matmul(black_box(&a), black_box(&b))))
    });
}

fn bench_conv2d(c: &mut Criterion) {
    let mut rng = TensorRng::seed_from(1);
    let x = rng.normal_tensor(&[8, 8, 12, 12], 0.0, 1.0);
    let w = rng.normal_tensor(&[16, 8, 3, 3], 0.0, 0.3);
    let spec = Conv2dSpec::new(3, 1, 1);
    c.bench_function("conv2d_8x8x12x12_to_16", |bench| {
        bench.iter(|| black_box(cae_tensor::conv::conv2d(black_box(&x), &w, None, spec)))
    });
    c.bench_function("conv2d_backward_same", |bench| {
        let y = cae_tensor::conv::conv2d(&x, &w, None, spec);
        bench.iter(|| {
            black_box(cae_tensor::conv::conv2d_backward(
                black_box(&x),
                &w,
                &y,
                spec,
                cae_tensor::conv::ConvGrads::ALL,
            ))
        })
    });
}

/// Layer shapes that actually occur in the DFKD training loop: the
/// generator's latent-to-feature projection, the CNCL similarity matrix,
/// the linear-head weight gradient, and a strided student trunk conv.
fn bench_dfkd_layer_shapes(c: &mut Criterion) {
    let mut rng = TensorRng::seed_from(9);
    let z = rng.normal_tensor(&[16, 64], 0.0, 1.0);
    let wfc = rng.normal_tensor(&[64, 216], 0.0, 0.1);
    c.bench_function("matmul_generator_fc_16x64x216", |bench| {
        bench.iter(|| black_box(linalg::matmul(black_box(&z), &wfc)))
    });

    let anchors = rng.normal_tensor(&[16, 64], 0.0, 1.0);
    let candidates = rng.normal_tensor(&[64, 64], 0.0, 1.0);
    c.bench_function("matmul_nt_cncl_sim_16x64x64", |bench| {
        bench.iter(|| black_box(linalg::matmul_nt(black_box(&anchors), &candidates)))
    });

    let emb = rng.normal_tensor(&[16, 64], 0.0, 1.0);
    let dlogits = rng.normal_tensor(&[16, 64], 0.0, 1.0);
    c.bench_function("matmul_tn_head_grad_64x16x64", |bench| {
        bench.iter(|| black_box(linalg::matmul_tn(black_box(&emb), &dlogits)))
    });

    let xs = rng.normal_tensor(&[16, 12, 12, 12], 0.0, 1.0);
    let ws = rng.normal_tensor(&[24, 12, 3, 3], 0.0, 0.3);
    let spec = Conv2dSpec::new(3, 2, 1);
    c.bench_function("conv2d_stride2_16x12x12x12_to_24", |bench| {
        bench.iter(|| black_box(cae_tensor::conv::conv2d(black_box(&xs), &ws, None, spec)))
    });
    c.bench_function("conv2d_stride2_backward_same", |bench| {
        let y = cae_tensor::conv::conv2d(&xs, &ws, None, spec);
        bench.iter(|| {
            black_box(cae_tensor::conv::conv2d_backward(
                black_box(&xs),
                &ws,
                &y,
                spec,
                cae_tensor::conv::ConvGrads::ALL,
            ))
        })
    });
}

fn bench_cend(c: &mut Criterion) {
    let mut rng = TensorRng::seed_from(2);
    let e_off = rng.normal_tensor(&[20, 64], 0.0, 1.0);
    let layer = CendLayer::with_default_sources(4, 0.3);
    let classes: Vec<usize> = (0..16).map(|i| i % 20).collect();
    c.bench_function("cend_diffuse_batch_16x64", |bench| {
        bench.iter(|| black_box(layer.diffuse_batch(&e_off, &classes, &mut rng)))
    });
}

fn bench_memory_bank(c: &mut Criterion) {
    let mut rng = TensorRng::seed_from(3);
    let images = rng.normal_tensor(&[16, 3, 12, 12], 0.0, 1.0);
    let labels: Vec<usize> = (0..16).collect();
    c.bench_function("memory_push_sample_16", |bench| {
        let mut bank = MemoryBank::new(512, &[3, 12, 12]);
        bank.push_batch(&images, &labels);
        bench.iter(|| {
            bank.push_batch(&images, &labels);
            black_box(bank.sample_batch(16, &mut rng))
        })
    });
}

struct LoopFixture {
    teacher: Box<dyn Classifier>,
}

fn loop_fixture() -> LoopFixture {
    let world = VisionWorld::new(6, 12, 33);
    let split = SplitDataset::sample(&world, 24, 8, 3);
    let mut rng = TensorRng::seed_from(4);
    let teacher = Arch::ResNet34.build(6, 6, &mut rng);
    train_supervised(teacher.as_ref(), &split.train, 40, 16, 0.1, &mut rng);
    LoopFixture { teacher }
}

fn make_trainer<'a>(fix: &'a LoopFixture, spec: &MethodSpec) -> DfkdTrainer<'a> {
    let mut rng = TensorRng::seed_from(5);
    let student = Arch::ResNet18.build(6, 6, &mut rng);
    let names = ["a", "b", "c", "d", "e", "f"];
    DfkdTrainer::new(
        fix.teacher.as_ref(),
        student,
        &names,
        12,
        spec,
        DfkdConfig { batch_size: 16, ..Default::default() },
        &ExperimentBudget::fast(),
        7,
    )
}

fn bench_dfkd_steps(c: &mut Criterion) {
    let fix = loop_fixture();
    let mut group = c.benchmark_group("dfkd_steps");
    group.sample_size(10);
    group.bench_function("generator_step_cae", |bench| {
        let mut t = make_trainer(&fix, &MethodSpec::cae_dfkd(4));
        bench.iter(|| black_box(t.generator_step()))
    });
    group.bench_function("generator_step_vanilla", |bench| {
        let mut t = make_trainer(&fix, &MethodSpec::vanilla());
        bench.iter(|| black_box(t.generator_step()))
    });
    group.bench_function("student_step_cae", |bench| {
        let mut t = make_trainer(&fix, &MethodSpec::cae_dfkd(4));
        t.generator_step();
        bench.iter(|| black_box(t.student_step()))
    });
    group.finish();
}

fn bench_cncl(c: &mut Criterion) {
    let mut rng = TensorRng::seed_from(6);
    let student = Arch::ResNet18.build(6, 6, &mut rng);
    let generator = DfkdGenerator::new(GeneratorConfig::new(64, 16, 12), &mut rng);
    let e_off = rng.normal_tensor(&[6, 64], 0.0, 1.0);
    let cend = CendLayer::with_default_sources(4, 0.3);
    let mut group = c.benchmark_group("cncl");
    group.sample_size(10);
    group.bench_function("cncl_loss_k4_n4", |bench| {
        bench.iter(|| {
            black_box(cncl_loss(
                student.as_ref(),
                &generator,
                &e_off,
                &cend,
                CnclConfig::default(),
                &mut rng,
            ))
        })
    });
    group.finish();
}

fn bench_generator_forward(c: &mut Criterion) {
    let mut rng = TensorRng::seed_from(7);
    let generator = DfkdGenerator::new(GeneratorConfig::new(64, 24, 12), &mut rng);
    let z = Var::constant(rng.normal_tensor(&[16, 64], 0.0, 1.0));
    c.bench_function("generator_forward_16x12px", |bench| {
        bench.iter(|| black_box(generator.generate(&z, &mut ForwardCtx::eval())))
    });
}

fn bench_upsample(c: &mut Criterion) {
    let mut rng = TensorRng::seed_from(8);
    let x = rng.normal_tensor(&[8, 16, 6, 6], 0.0, 1.0);
    c.bench_function("upsample_nearest_2x", |bench| {
        bench.iter(|| black_box(cae_tensor::conv::upsample_nearest2d(black_box(&x), 2)))
    });
    let t = Tensor::zeros(&[4, 3, 12, 12]);
    c.bench_function("tensor_clone_4x3x12x12", |bench| {
        bench.iter(|| black_box(t.clone()))
    });
}

criterion_group!(
    kernels,
    bench_matmul,
    bench_conv2d,
    bench_dfkd_layer_shapes,
    bench_cend,
    bench_memory_bank,
    bench_dfkd_steps,
    bench_cncl,
    bench_generator_forward,
    bench_upsample,
);
criterion_main!(kernels);
