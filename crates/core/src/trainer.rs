//! The shared DFKD training loop (paper Fig. 3).
//!
//! One trainer executes every method: the [`crate::method::MethodSpec`]
//! selects the latent provider (Gaussian / label / CEND), the student-side
//! augmentation, CNCL, periodic generator re-initialization and
//! optimization-based inversion. Each epoch interleaves generator updates
//! (Eq. 5, writing synthetic batches to the memory bank) with student
//! updates (Eq. 6, replaying from the bank).

use crate::baselines::augment::{mixup_batch, two_views};
use crate::baselines::deepinv::{invert_batch, InversionConfig};
use crate::cend::CendLayer;
use crate::cncl::cncl_loss;
use crate::config::{DfkdConfig, ExperimentBudget};
use crate::embedding::EmbeddingProvider;
use crate::losses::{adversarial_loss, bn_loss};
use crate::memory::MemoryBank;
use crate::method::{EmbeddingKind, MethodSpec, StudentAug};
use cae_nn::infer::{FreezeOptions, FrozenClassifier};
use cae_nn::loss::{cross_entropy, kd_kl_divergence};
use cae_nn::models::{DfkdGenerator, GeneratorConfig};
use cae_nn::module::{Classifier, ForwardCtx, Generator, Module, ParamFreeze};
use cae_nn::optim::{Adam, CosineSchedule, Optimizer, Sgd};
use cae_tensor::rng::TensorRng;
use cae_tensor::{Tensor, Var};
use std::time::{Duration, Instant};

/// Summary statistics of one DFKD run.
#[derive(Debug, Clone, Default)]
pub struct TrainStats {
    /// Generator loss after each generator step.
    pub generator_losses: Vec<f32>,
    /// Student loss after each student step.
    pub student_losses: Vec<f32>,
    /// Wall-clock duration of each epoch.
    pub epoch_times: Vec<Duration>,
}

impl TrainStats {
    /// Mean epoch wall-clock time.
    ///
    /// Computed via nanoseconds rather than `Duration / u32` so epoch
    /// counts above `u32::MAX` cannot truncate (and sub-nanosecond rounding
    /// follows integer division of the exact total).
    pub fn mean_epoch_time(&self) -> Duration {
        if self.epoch_times.is_empty() {
            return Duration::ZERO;
        }
        let total_nanos: u128 = self.epoch_times.iter().map(Duration::as_nanos).sum();
        let mean = total_nanos / self.epoch_times.len() as u128;
        Duration::new(
            (mean / 1_000_000_000) as u64,
            (mean % 1_000_000_000) as u32,
        )
    }
}

/// Drives data-free distillation of `student` from a frozen `teacher`.
///
/// The trainer freezes the teacher's parameters (see [`ParamFreeze`]) until
/// it is dropped.
pub struct DfkdTrainer<'a> {
    teacher: &'a dyn Classifier,
    /// Graph-free compiled teacher for eval-mode forwards (teacher weights
    /// never change during DFKD, so one compile in [`DfkdTrainer::new`]
    /// serves the whole run).
    frozen_teacher: FrozenClassifier,
    student: Box<dyn Classifier>,
    generator: DfkdGenerator,
    provider: EmbeddingProvider,
    memory: MemoryBank,
    config: DfkdConfig,
    spec: MethodSpec,
    opt_g: Adam,
    opt_s: Sgd,
    schedule: CosineSchedule,
    student_step_count: usize,
    generator_step_count: usize,
    resolution: usize,
    num_classes: usize,
    generator_width: usize,
    rng: TensorRng,
    /// The teacher's parameters stay frozen for the trainer's lifetime: the
    /// generator step and inversion backpropagate through the teacher for
    /// image gradients only, so no teacher weight gradient is computed.
    _teacher_frozen: ParamFreeze,
}

impl<'a> DfkdTrainer<'a> {
    /// Creates a trainer.
    ///
    /// `class_names` provides the vocabulary for language-model-based latent
    /// providers; `resolution` must match the teacher's training resolution.
    ///
    /// # Panics
    /// Panics if `resolution` is not a multiple of 4 or the spec requests
    /// more CEND sources than exist.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        teacher: &'a dyn Classifier,
        student: Box<dyn Classifier>,
        class_names: &[&str],
        resolution: usize,
        spec: &MethodSpec,
        config: DfkdConfig,
        budget: &ExperimentBudget,
        seed: u64,
    ) -> Self {
        let mut rng = TensorRng::seed_from(seed);
        let provider = build_provider(&spec.embedding, class_names);
        let generator_width = budget.base_width * 4;
        let generator = DfkdGenerator::new(
            GeneratorConfig::new(provider.dim(), generator_width, resolution),
            &mut rng,
        );
        let opt_g = Adam::new(Module::parameters(&generator), config.generator_lr);
        let opt_s = Sgd::new(
            student.parameters(),
            config.student_lr,
            config.student_momentum,
            config.student_weight_decay,
        );
        let schedule = CosineSchedule::new(config.student_lr, budget.total_student_steps());
        let memory = MemoryBank::new(config.memory_capacity, &[3, resolution, resolution]);
        DfkdTrainer {
            _teacher_frozen: ParamFreeze::new(teacher),
            frozen_teacher: teacher.freeze_with(&FreezeOptions::fused()),
            teacher,
            student,
            generator,
            provider,
            memory,
            config,
            spec: spec.clone(),
            opt_g,
            opt_s,
            schedule,
            student_step_count: 0,
            generator_step_count: 0,
            resolution,
            num_classes: class_names.len(),
            generator_width,
            rng,
        }
    }

    /// The student being distilled.
    pub fn student(&self) -> &dyn Classifier {
        self.student.as_ref()
    }

    /// Consumes the trainer, returning the distilled student.
    pub fn into_student(self) -> Box<dyn Classifier> {
        self.student
    }

    /// The synthetic-image memory bank.
    pub fn memory(&self) -> &MemoryBank {
        &self.memory
    }

    fn random_labels(&mut self, n: usize) -> Vec<usize> {
        (0..n).map(|_| self.rng.index(self.num_classes)).collect()
    }

    /// One generator update (Eq. 5). Returns the generator loss. For
    /// optimization-based specs this runs pixel inversion instead and
    /// returns the final inversion teacher cross-entropy.
    pub fn generator_step(&mut self) -> f32 {
        let _sp = cae_trace::span("trainer.generator_step");
        let step = self.generator_step_count as u64;
        self.generator_step_count += 1;
        let labels = self.random_labels(self.config.batch_size);
        if self.spec.optimization_based {
            let _inv = cae_trace::span("trainer.inversion");
            let images = invert_batch(
                self.teacher,
                &labels,
                self.resolution,
                InversionConfig::default(),
                &mut self.rng,
            );
            let logits = Var::constant(self.frozen_teacher.forward(&images));
            let ce = cross_entropy(&logits, &labels).item();
            self.memory.push_batch(&images, &labels);
            cae_trace::series("generator.loss", step, f64::from(ce));
            return ce;
        }

        let latent = self.provider.sample(&labels, &mut self.rng);
        if cae_trace::enabled() {
            cae_trace::gauge("generator.embedding_norm", mean_row_l2(&latent));
        }
        let z = Var::constant(latent);
        let images = self.generator.generate(&z, &mut ForwardCtx::train());
        let mut t_ctx = ForwardCtx::eval_with_bn_stats();
        let t_logits = self.teacher.forward(&images, &mut t_ctx);
        // The adversarial term reaches the student, but only the generator's
        // gradients are read here: freeze the student through the backward
        // so its weight gradients are never computed.
        let student_frozen = ParamFreeze::new(self.student.as_ref());
        let s_logits = self.student.forward(&images, &mut ForwardCtx::eval());
        // Class-conditioned providers (label/CEND) can satisfy CE toward
        // their intended labels; an unconditional Gaussian generator cannot
        // know them, so it gets DAFL's one-hot loss instead: CE toward the
        // teacher's own predictions (maximizing teacher confidence).
        let conditioned = self.provider.e_off().is_some();
        let ce_targets = if conditioned {
            labels.clone()
        } else {
            t_logits.value().argmax_rows()
        };
        let loss = cross_entropy(&t_logits, &ce_targets)
            .add(&bn_loss(&t_ctx.bn_stats).scale(self.config.lambda_bn))
            .add(&adversarial_loss(&t_logits, &s_logits).scale(self.config.lambda_adv));
        self.opt_g.zero_grad();
        loss.backward();
        drop(student_frozen);
        self.opt_g.step();
        // Memory labels: the intended class when conditioned, the teacher's
        // pseudo-label otherwise.
        self.memory.push_batch(&images.to_tensor(), &ce_targets);
        cae_trace::counter("memory.pushed_images", self.config.batch_size as u64);
        let item = loss.item();
        cae_trace::series("generator.loss", step, f64::from(item));
        item
    }

    /// One student update (Eq. 6). Returns the student loss, or `None` if
    /// the memory bank is still empty.
    pub fn student_step(&mut self) -> Option<f32> {
        if self.memory.is_empty() {
            return None;
        }
        let _sp = cae_trace::span("trainer.student_step");
        let (raw_images, _labels) = {
            let _replay = cae_trace::span("trainer.memory_replay");
            self.memory
                .sample_batch(self.config.batch_size, &mut self.rng)
        };

        self.opt_s
            .set_lr(self.schedule.lr_at(self.student_step_count));
        let step = self.student_step_count as u64;
        self.student_step_count += 1;

        // Image-level augmentation (baselines / Table I). Mixup is pure
        // augmentation: the student distills the teacher's response to the
        // *mixed* images — exactly the transformation Fig. 2c shows making
        // ambiguous synthetic images more ambiguous.
        let images = match self.spec.student_aug {
            StudentAug::Mixup { alpha } => mixup_batch(&raw_images, alpha, &mut self.rng).0,
            _ => raw_images.clone(),
        };

        let teacher_logits = self.frozen_teacher.forward(&images);
        let x = Var::constant(images);
        let student_logits = self.student.forward(&x, &mut ForwardCtx::train());
        let mut loss = kd_kl_divergence(&student_logits, &teacher_logits, self.config.temperature);

        if let StudentAug::ImageContrastive { weight } = self.spec.student_aug {
            let (va, vb) = two_views(&raw_images, &mut self.rng);
            loss = loss.add(&self.two_view_loss(&va, &vb).scale(weight));
        }

        if self.spec.use_cncl {
            if let (Some(e_off), Some(layer)) = (self.provider.e_off(), self.provider.cend_layer())
            {
                let _cncl_sp = cae_trace::span("trainer.cncl_loss");
                let (e_off, layer) = (e_off.clone(), layer.clone());
                let cncl = cncl_loss(
                    self.student.as_ref(),
                    &self.generator,
                    &e_off,
                    &layer,
                    self.spec.cncl,
                    &mut self.rng,
                );
                if cae_trace::enabled() {
                    cae_trace::series("student.cncl_loss", step, f64::from(cncl.item()));
                }
                loss = loss.add(&cncl.scale(self.config.alpha_cncl));
            }
        }

        self.opt_s.zero_grad();
        loss.backward();
        self.opt_s.step();
        self.opt_s.zero_grad();
        let item = loss.item();
        cae_trace::series("student.loss", step, f64::from(item));
        Some(item)
    }

    /// SimCLR-style two-view InfoNCE over student embeddings (image-level
    /// contrastive baseline).
    fn two_view_loss(&self, va: &Tensor, vb: &Tensor) -> Var {
        let n = va.shape().dim(0);
        let both = Var::constant(Tensor::concat0(&[va, vb]));
        let mut ctx = ForwardCtx::train();
        let (emb, _) = self.student.forward_embedding(&both, &mut ctx);
        let ea = emb.slice0(0, n).l2_normalize_rows();
        let eb = emb.slice0(n, n).l2_normalize_rows();
        let sim = ea.matmul_nt(&eb).scale(1.0 / 0.2);
        let targets: Vec<usize> = (0..n).collect();
        sim.log_softmax_rows().gather_rows(&targets).mean_all().neg()
    }

    /// Steps taken so far by [`Self::generator_step`] — the step axis of
    /// the `generator.loss` series.
    pub fn generator_steps_taken(&self) -> usize {
        self.generator_step_count
    }

    /// Re-initializes the generator and its optimizer (NAYER's periodic
    /// re-initialization).
    pub fn reinit_generator(&mut self) {
        self.generator = DfkdGenerator::new(
            GeneratorConfig::new(self.provider.dim(), self.generator_width, self.resolution),
            &mut self.rng,
        );
        self.opt_g = Adam::new(Module::parameters(&self.generator), self.config.generator_lr);
    }

    /// Runs the full schedule defined by `budget`.
    pub fn run(&mut self, budget: &ExperimentBudget) -> TrainStats {
        let mut stats = TrainStats::default();
        for epoch in 0..budget.dfkd_epochs {
            let _ep = cae_trace::span_with("trainer.epoch", &[("epoch", (epoch as u64).into())]);
            if let Some(every) = self.spec.generator_reinit_every {
                if epoch > 0 && epoch % every == 0 && !self.spec.optimization_based {
                    self.reinit_generator();
                }
            }
            let start = Instant::now();
            for _ in 0..budget.generator_steps_per_epoch {
                stats.generator_losses.push(self.generator_step());
            }
            for _ in 0..budget.student_steps_per_epoch {
                if let Some(l) = self.student_step() {
                    stats.student_losses.push(l);
                }
            }
            stats.epoch_times.push(start.elapsed());
        }
        stats
    }

    /// Runs full DFKD epochs until the student reaches `target_top1` on
    /// `test`, or `max_epochs` is hit. Returns `(epochs, censored)`:
    /// `censored` is true when the bar was never reached, and `epochs` is
    /// then `max_epochs`, a lower bound.
    ///
    /// This is the end-to-end convergence measurement behind Table IX: a
    /// faster-converging generator (CEND's "structured → structured"
    /// objective) shows up as the student reaching the accuracy bar in
    /// fewer epochs. Epochs, unlike seconds, are a pure function of the
    /// seed, so the measurement is byte-reproducible.
    pub fn epochs_to_student_accuracy(
        &mut self,
        target_top1: f32,
        test: &cae_data::dataset::Dataset,
        epoch_shape: (usize, usize),
        max_epochs: usize,
    ) -> (usize, bool) {
        let (gen_steps, student_steps) = epoch_shape;
        for epoch in 1..=max_epochs {
            for _ in 0..gen_steps {
                self.generator_step();
            }
            for _ in 0..student_steps {
                self.student_step();
            }
            let acc =
                crate::metrics::classification::top1_accuracy(self.student.as_ref(), test, 32);
            if acc >= target_top1 {
                return (epoch, false);
            }
        }
        (max_epochs, true)
    }

    /// Runs generator-only updates until the teacher's *mean maximum
    /// probability* on fresh synthetic batches exceeds `confidence`, or
    /// `max_steps` is hit. Returns `(steps, wall-clock)` — the measurement
    /// behind the paper's Table IX CEND speedup.
    ///
    /// Confidence is label-free, so conditioned (CEND/label) and
    /// unconditioned (Gaussian) latent providers are measured against the
    /// identical quality bar.
    pub fn generator_convergence(&mut self, confidence: f32, max_steps: usize) -> (usize, Duration) {
        let start = Instant::now();
        for step in 1..=max_steps {
            self.generator_step();
            // Measure quality on a fresh batch (no gradient bookkeeping).
            // The generator evolves every step, so it is re-frozen per
            // probe; the teacher reuses the trainer's one-time compile.
            let labels = self.random_labels(self.config.batch_size);
            let latent = self.provider.sample(&labels, &mut self.rng);
            let images = self.generator.freeze_with(&FreezeOptions::fused()).generate(&latent);
            let logits = self.frozen_teacher.forward(&images);
            let probs = logits.softmax_rows();
            let (n, k) = probs.shape().matrix();
            let mean_max: f32 = (0..n)
                .map(|i| {
                    probs.data()[i * k..(i + 1) * k]
                        .iter()
                        .copied()
                        .fold(f32::NEG_INFINITY, f32::max)
                })
                .sum::<f32>()
                / n as f32;
            // Guard against degenerate "one confident class" collapse:
            // quality also requires the batch to cover a reasonable number
            // of distinct predicted categories.
            let mut seen = vec![false; k];
            for &p in &probs.argmax_rows() {
                seen[p] = true;
            }
            let coverage = seen.iter().filter(|&&s| s).count();
            let min_coverage = k.min(n).div_ceil(2);
            if mean_max > confidence && coverage >= min_coverage {
                return (step, start.elapsed());
            }
        }
        (max_steps, start.elapsed())
    }
}

/// Mean L2 norm over the rows of a `[batch, dim]` latent batch — the
/// `generator.embedding_norm` health gauge (CEND perturbations shift it;
/// a collapse to ~0 or an explosion both show up here before the loss).
fn mean_row_l2(latent: &Tensor) -> f64 {
    let rows = latent.shape().dim(0).max(1);
    let cols = latent.data().len() / rows;
    if cols == 0 {
        return 0.0;
    }
    let mut total = 0.0f64;
    for row in latent.data().chunks_exact(cols) {
        total += row
            .iter()
            .map(|&v| f64::from(v) * f64::from(v))
            .sum::<f64>()
            .sqrt();
    }
    total / rows as f64
}

/// Builds the latent provider for an embedding kind.
fn build_provider(kind: &EmbeddingKind, class_names: &[&str]) -> EmbeddingProvider {
    match kind {
        EmbeddingKind::Gaussian => EmbeddingProvider::Gaussian {
            dim: cae_lm::LanguageModel::embed_dim(&cae_lm::ClipSim::new()),
        },
        EmbeddingKind::Label { lm, template } => {
            let model = lm.build();
            EmbeddingProvider::label_from_lm(model.as_ref(), class_names, *template)
        }
        EmbeddingKind::Cend {
            lm,
            template,
            n_sources,
            magnitude,
        } => {
            let model = lm.build();
            EmbeddingProvider::cend_from_lm(
                model.as_ref(),
                class_names,
                *template,
                CendLayer::with_default_sources(*n_sources, *magnitude),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cae_data::world::VisionWorld;
    use cae_data::SplitDataset;
    use cae_nn::models::Arch;

    #[test]
    fn mean_epoch_time_averages_exactly() {
        let stats = TrainStats {
            epoch_times: vec![
                Duration::from_nanos(1),
                Duration::from_nanos(2),
                Duration::from_secs(3),
            ],
            ..Default::default()
        };
        assert_eq!(stats.mean_epoch_time(), Duration::from_nanos(1_000_000_001));
        assert_eq!(TrainStats::default().mean_epoch_time(), Duration::ZERO);
    }

    fn tiny_setup() -> (Box<dyn Classifier>, SplitDataset) {
        let world = VisionWorld::new(3, 8, 13);
        let split = SplitDataset::sample(&world, 16, 8, 4);
        let mut rng = TensorRng::seed_from(5);
        let teacher = Arch::ResNet18.build(3, 4, &mut rng);
        crate::teacher::train_supervised(teacher.as_ref(), &split.train, 50, 16, 0.1, &mut rng);
        (teacher, split)
    }

    fn tiny_trainer<'a>(teacher: &'a dyn Classifier, spec: &MethodSpec) -> DfkdTrainer<'a> {
        let mut rng = TensorRng::seed_from(6);
        let student = Arch::Wrn16x1.build(3, 4, &mut rng);
        let budget = ExperimentBudget::smoke();
        let config = DfkdConfig {
            batch_size: 8,
            memory_capacity: 64,
            ..Default::default()
        };
        DfkdTrainer::new(
            teacher,
            student,
            &["cat", "dog", "ship"],
            8,
            spec,
            config,
            &budget,
            9,
        )
    }

    #[test]
    fn generator_step_fills_memory_and_returns_finite_loss() {
        let _guard = crate::trace_test_lock();
        let (teacher, _) = tiny_setup();
        let mut t = tiny_trainer(teacher.as_ref(), &MethodSpec::cae_dfkd(3));
        let loss = t.generator_step();
        assert!(loss.is_finite());
        assert_eq!(t.memory().len(), 8);
    }

    #[test]
    fn student_step_requires_memory() {
        let _guard = crate::trace_test_lock();
        let (teacher, _) = tiny_setup();
        let mut t = tiny_trainer(teacher.as_ref(), &MethodSpec::vanilla());
        assert!(t.student_step().is_none());
        t.generator_step();
        assert!(t.student_step().is_some());
    }

    #[test]
    fn full_run_produces_stats_for_all_method_variants() {
        let _guard = crate::trace_test_lock();
        let (teacher, _) = tiny_setup();
        let budget = ExperimentBudget::smoke();
        for spec in [
            MethodSpec::vanilla(),
            MethodSpec::cmi_like(),
            MethodSpec::nayer_like(),
            MethodSpec::cae_dfkd(3),
            MethodSpec::vanilla().with_mixup(0.5),
        ] {
            let mut t = tiny_trainer(teacher.as_ref(), &spec);
            let stats = t.run(&budget);
            assert_eq!(
                stats.generator_losses.len(),
                budget.total_generator_steps(),
                "{}",
                spec.name
            );
            assert!(
                stats.student_losses.iter().all(|l| l.is_finite()),
                "{}",
                spec.name
            );
            assert_eq!(stats.epoch_times.len(), budget.dfkd_epochs);
        }
    }

    #[test]
    fn traced_run_profiles_to_full_coverage_with_training_series() {
        let (teacher, _) = tiny_setup(); // untraced: keep teacher spans out
        let budget = ExperimentBudget::smoke();
        let _guard = crate::trace_test_lock();
        cae_trace::force_enabled(true);
        cae_trace::drain(); // discard leftovers from other tests
        {
            let _sp = cae_trace::span("experiment");
            let mut t = tiny_trainer(teacher.as_ref(), &MethodSpec::cae_dfkd(3));
            t.run(&budget);
            assert_eq!(t.generator_steps_taken(), budget.total_generator_steps());
        }
        let trace = cae_trace::drain();
        cae_trace::reset_to_env();

        // Training series landed in the drained trace, one point per step.
        let gen = &trace.series["generator.loss"];
        assert_eq!(gen.len(), budget.total_generator_steps());
        assert!(gen.iter().all(|p| p.value.is_finite()));
        assert!(!trace.series["student.loss"].is_empty());
        assert!(
            trace.series.contains_key("student.cncl_loss"),
            "CAE-DFKD spec must log its CNCL term"
        );
        let norm = &trace.gauges["generator.embedding_norm"];
        assert_eq!(norm.count as usize, budget.total_generator_steps());
        assert!(norm.min > 0.0, "CEND latents are never all-zero");

        // No series contains a non-finite value on a healthy run.
        let report = cae_trace::health::HealthMonitor::default().check_trace(&trace);
        for v in &report.verdicts {
            assert!(
                !v.issues
                    .iter()
                    .any(|i| matches!(i, cae_trace::health::HealthIssue::NonFinite { .. })),
                "{}: unexpected non-finite value",
                v.name
            );
        }

        // The reconstructed profile accounts for the experiment span's
        // wall-clock: self times over its subtree sum back to the root
        // within 1% (single-thread run => one connected tree).
        let profile = cae_trace::profile::Profile::from_trace(&trace);
        assert!(!profile.truncated, "smoke run must fit the event cap");
        let (root_ns, self_sum) = profile.experiment_coverage().expect("experiment root");
        let drift = (root_ns as f64 - self_sum as f64).abs() / root_ns as f64;
        assert!(drift < 0.01, "coverage drift {:.4} (root {root_ns}ns, self {self_sum}ns)", drift);
        assert!(
            profile.derived.gemm_gflops.is_some(),
            "gemm stats + flops counter must yield derived throughput"
        );
        assert_eq!(profile.critical_path()[0].0, "experiment");
    }

    #[test]
    fn generator_step_computes_no_teacher_or_student_gradients() {
        let _guard = crate::trace_test_lock();
        let (teacher, _) = tiny_setup();
        let bits = |ps: &[Var]| -> Vec<Vec<u32>> {
            ps.iter()
                .map(|p| p.value().data().iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        for spec in [MethodSpec::cae_dfkd(3), MethodSpec::deepinv_like()] {
            {
                let mut t = tiny_trainer(teacher.as_ref(), &spec);
                assert!(
                    !teacher.parameters().iter().any(Var::requires_grad),
                    "{}",
                    spec.name
                );
                t.generator_step();
                let student = t.student().parameters();
                for p in teacher.parameters().iter().chain(&student) {
                    assert!(
                        p.grad().is_none(),
                        "{}: a frozen model got a gradient",
                        spec.name
                    );
                }
                assert!(student.iter().all(Var::requires_grad), "{}", spec.name);
                // SGD skips parameters without a gradient, so a student step
                // that moves every parameter gave every one a gradient.
                let before = bits(&student);
                t.student_step().expect("memory holds the generated batch");
                let after = bits(&student);
                for (i, (b, a)) in before.iter().zip(&after).enumerate() {
                    assert_ne!(b, a, "{}: student parameter {i} got no gradient", spec.name);
                }
            }
            assert!(
                teacher.parameters().iter().all(Var::requires_grad),
                "{}: dropping the trainer must unfreeze the teacher",
                spec.name
            );
        }
    }

    #[test]
    fn deepinv_spec_runs_without_generator_training() {
        let _guard = crate::trace_test_lock();
        let (teacher, _) = tiny_setup();
        let budget = ExperimentBudget::smoke();
        let mut t = tiny_trainer(teacher.as_ref(), &MethodSpec::deepinv_like());
        let stats = t.run(&budget);
        assert!(!stats.student_losses.is_empty());
    }

    #[test]
    fn generator_losses_trend_downward_for_cae() {
        let _guard = crate::trace_test_lock();
        let (teacher, _) = tiny_setup();
        let mut t = tiny_trainer(teacher.as_ref(), &MethodSpec::cae_dfkd(3));
        let mut losses = Vec::new();
        for _ in 0..30 {
            losses.push(t.generator_step());
        }
        let head: f32 = losses[..5].iter().sum::<f32>() / 5.0;
        let tail: f32 = losses[25..].iter().sum::<f32>() / 5.0;
        assert!(
            tail < head,
            "generator loss should fall: head {head} tail {tail}"
        );
    }
}
