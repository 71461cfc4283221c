//! Supervised pre-training of teachers and data-accessible student
//! references, with a process-global cache.
//!
//! Every DFKD experiment needs the same frozen teacher for a given
//! (dataset, architecture, budget) triple; training it once and sharing it
//! across method cells keeps table runs tractable. Models are `Send + Sync`
//! (autograd nodes are `Arc`-based), so the cache is a process-global map
//! of per-key [`OnceLock`] slots: when several experiment cells request the
//! same teacher concurrently, exactly one trains it and the rest block on
//! the slot until the master is ready.
//!
//! The cached master is never handed out directly: [`pretrained`] returns a
//! private structural clone per call (fresh `Var`s), so the master stays
//! read-only. Callers may fine-tune their copy, and per-`Var` state such as
//! the gradient-freeze flag a `DfkdTrainer` sets on its teacher stays
//! private to the cell that set it.

use crate::config::ExperimentBudget;
use cae_data::dataset::Dataset;
use cae_nn::infer::{FreezeOptions, FrozenClassifier};
use cae_nn::loss::cross_entropy;
use cae_nn::models::Arch;
use cae_nn::module::{copy_state, Classifier, ForwardCtx};
use cae_nn::optim::{CosineSchedule, Optimizer, Sgd};
use cae_tensor::rng::TensorRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One cache entry: a lazily trained master model plus its lazily compiled
/// fused frozen form. The outer map hands out
/// `Arc<Slot>`s under a short-lived lock; the expensive pre-training runs
/// inside `get_or_init` without holding the map lock, so cells requesting
/// *different* teachers train in parallel while cells requesting the *same*
/// teacher wait for the single trainer.
#[derive(Default)]
struct Slot {
    master: OnceLock<Box<dyn Classifier>>,
    frozen: OnceLock<Arc<FrozenClassifier>>,
}

fn cache() -> &'static Mutex<HashMap<String, Arc<Slot>>> {
    static CACHE: OnceLock<Mutex<HashMap<String, Arc<Slot>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Number of actual pre-training runs performed (cache misses). Exposed so
/// tests can assert that N concurrent requests for one key train once.
static PRETRAIN_RUNS: AtomicUsize = AtomicUsize::new(0);

fn runs_by_prefix() -> &'static Mutex<HashMap<String, usize>> {
    static RUNS: OnceLock<Mutex<HashMap<String, usize>>> = OnceLock::new();
    RUNS.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Total number of supervised pre-training runs executed so far (i.e. cache
/// misses; cache hits do not increment this).
pub fn pretrain_runs() -> usize {
    PRETRAIN_RUNS.load(Ordering::Relaxed)
}

/// Pre-training runs whose cache key starts with `key_prefix`. Lets tests
/// assert hit/miss behaviour for their own keys without interference from
/// pre-training triggered elsewhere in the process.
pub fn pretrain_runs_for(key_prefix: &str) -> usize {
    runs_by_prefix()
        .lock()
        .expect("teacher run-count lock poisoned")
        .get(key_prefix)
        .copied()
        .unwrap_or(0)
}

/// Trains `model` supervised on `dataset` for `steps` SGD steps with cosine
/// annealing. Returns the final running training loss.
pub fn train_supervised(
    model: &dyn Classifier,
    dataset: &Dataset,
    steps: usize,
    batch_size: usize,
    base_lr: f32,
    rng: &mut TensorRng,
) -> f32 {
    let mut opt = Sgd::new(model.parameters(), base_lr, 0.9, 5e-4);
    let schedule = CosineSchedule::new(base_lr, steps);
    let mut step = 0usize;
    let mut last_loss = f32::NAN;
    'outer: loop {
        for batch in dataset.epoch_batches(batch_size, rng) {
            if step >= steps {
                break 'outer;
            }
            opt.set_lr(schedule.lr_at(step));
            let (x, y) = dataset.batch(&batch);
            let logits = model.forward(&cae_tensor::Var::constant(x), &mut ForwardCtx::train());
            let loss = cross_entropy(&logits, &y);
            opt.zero_grad();
            loss.backward();
            opt.step();
            last_loss = loss.item();
            step += 1;
        }
    }
    // The trained model is used frozen from here on: drop the last step's
    // gradient buffers instead of keeping them alive with it.
    opt.zero_grad();
    last_loss
}

/// Returns a supervised classifier for `(arch, dataset)` trained under
/// `budget`, training it on the first request (concurrent requesters for
/// the same key block until that single training run finishes) and serving
/// every request from the cached master afterwards.
///
/// The returned model is a private copy with its own `Var`s: callers may
/// fine-tune it, freeze its parameters or backpropagate through it without
/// affecting the master or other cells.
pub fn pretrained(
    key_prefix: &str,
    arch: Arch,
    dataset: &Dataset,
    budget: &ExperimentBudget,
    batch_size: usize,
) -> Box<dyn Classifier> {
    let slot = acquire_trained_slot(key_prefix, arch, dataset, budget, batch_size);
    let master = slot.master.get().expect("slot was just initialized");
    clone_classifier(
        master.as_ref(),
        arch,
        dataset.num_classes(),
        budget.base_width,
    )
}

/// Like [`pretrained`], but returns a shared fused [`FrozenClassifier`]
/// compiled from the cached master.
///
/// Frozen models are immutable (plain tensors, no gradient buffers), so a
/// single compiled instance per key is shared by all callers via `Arc` —
/// no per-call structural clone, no per-call BN folding.
pub fn pretrained_frozen(
    key_prefix: &str,
    arch: Arch,
    dataset: &Dataset,
    budget: &ExperimentBudget,
    batch_size: usize,
) -> Arc<FrozenClassifier> {
    let slot = acquire_trained_slot(key_prefix, arch, dataset, budget, batch_size);
    let master = slot.master.get().expect("slot was just initialized");
    slot.frozen
        .get_or_init(|| {
            let _sp = cae_trace::span("teacher.freeze");
            Arc::new(master.freeze_with(&FreezeOptions::fused()))
        })
        .clone()
}

/// Returns the slot for the cache key, training the master on first use.
fn acquire_trained_slot(
    key_prefix: &str,
    arch: Arch,
    dataset: &Dataset,
    budget: &ExperimentBudget,
    batch_size: usize,
) -> Arc<Slot> {
    let key = format!(
        "{key_prefix}/{arch:?}/k{}/r{}/n{}/s{}/w{}/seed{}",
        dataset.num_classes(),
        dataset.resolution(),
        dataset.len(),
        budget.pretrain_steps,
        budget.base_width,
        budget.seed,
    );
    let slot = {
        let mut map = cache().lock().expect("teacher cache lock poisoned");
        map.entry(key).or_default().clone()
    };
    // A populated slot is a hit; otherwise this call either trains the
    // master itself (span `teacher.pretrain`) or blocks until a concurrent
    // trainer finishes (the remainder of `teacher.cache_acquire`).
    let hit = slot.master.get().is_some();
    cae_trace::counter(
        if hit { "teacher.cache_hits" } else { "teacher.cache_misses" },
        1,
    );
    let _acquire = if hit { None } else { Some(cae_trace::span("teacher.cache_acquire")) };
    slot.master.get_or_init(|| {
        let _sp = cae_trace::span("teacher.pretrain");
        PRETRAIN_RUNS.fetch_add(1, Ordering::Relaxed);
        *runs_by_prefix()
            .lock()
            .expect("teacher run-count lock poisoned")
            .entry(key_prefix.to_owned())
            .or_insert(0) += 1;
        let mut rng = TensorRng::seed_from(budget.seed ^ 0x7e4c_4e12);
        let model = arch.build(dataset.num_classes(), budget.base_width, &mut rng);
        train_supervised(
            model.as_ref(),
            dataset,
            budget.pretrain_steps,
            batch_size,
            0.1,
            &mut rng,
        );
        model
    });
    slot
}

/// Clears the teacher cache (useful in long test sessions).
pub fn clear_cache() {
    cache().lock().expect("teacher cache lock poisoned").clear();
}

/// Builds a structurally identical classifier and copies all weights and
/// batch-norm statistics from `src`.
///
/// # Panics
/// Panics if `arch`/`num_classes`/`base_width` do not describe `src`.
pub fn clone_classifier(
    src: &dyn Classifier,
    arch: Arch,
    num_classes: usize,
    base_width: usize,
) -> Box<dyn Classifier> {
    let mut rng = TensorRng::seed_from(0);
    let dst = arch.build(num_classes, base_width, &mut rng);
    copy_state(src, dst.as_ref());
    dst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::classification::top1_accuracy;
    use cae_data::presets::ClassificationPreset;
    use cae_data::world::VisionWorld;
    use cae_data::SplitDataset;

    #[test]
    fn supervised_training_beats_chance() {
        let world = VisionWorld::new(4, 8, 3);
        let split = SplitDataset::sample(&world, 24, 8, 1);
        let mut rng = TensorRng::seed_from(0);
        let model = Arch::ResNet18.build(4, 4, &mut rng);
        train_supervised(model.as_ref(), &split.train, 60, 16, 0.1, &mut rng);
        let acc = top1_accuracy(model.as_ref(), &split.test, 16);
        assert!(acc > 0.4, "accuracy {acc} not above chance (0.25)");
    }

    #[test]
    fn cache_trains_once_and_returns_equal_private_copies() {
        let split = ClassificationPreset::C10Sim.generate(9);
        let tiny = ExperimentBudget::smoke();
        let a = pretrained("t-once", Arch::ResNet18, &split.train, &tiny, 16);
        assert_eq!(pretrain_runs_for("t-once"), 1, "first request trains the master");
        let b = pretrained("t-once", Arch::ResNet18, &split.train, &tiny, 16);
        assert_eq!(pretrain_runs_for("t-once"), 1, "second request is a hit");
        // Private copies: equal outputs, independent parameters.
        let (x, _) = split.test.batch(&[0, 1]);
        let xv = cae_tensor::Var::constant(x);
        let ya = a.forward(&xv, &mut ForwardCtx::eval());
        let yb = b.forward(&xv, &mut ForwardCtx::eval());
        assert_eq!(ya.to_tensor(), yb.to_tensor());
        let pa = a.parameters();
        let pb = b.parameters();
        assert!(pa.iter().zip(&pb).all(|(p, q)| p.id() != q.id()));
    }

    #[test]
    fn pretrained_frozen_shares_one_compiled_instance() {
        let split = ClassificationPreset::C10Sim.generate(21);
        let tiny = ExperimentBudget::smoke();
        let a = pretrained_frozen("t-frozen", Arch::Wrn16x1, &split.train, &tiny, 16);
        let b = pretrained_frozen("t-frozen", Arch::Wrn16x1, &split.train, &tiny, 16);
        assert!(Arc::ptr_eq(&a, &b), "same key must share one frozen instance");
        assert_eq!(pretrain_runs_for("t-frozen"), 1, "freezing must not retrain");
        // The shared instance is the fused compile of the cached master.
        let master = pretrained("t-frozen", Arch::Wrn16x1, &split.train, &tiny, 16);
        let (x, _) = split.test.batch(&[0, 1]);
        let reference = master.freeze_with(&FreezeOptions::fused()).forward(&x);
        assert_eq!(a.forward(&x).data(), reference.data());
    }

    #[test]
    fn concurrent_requests_for_one_key_pretrain_exactly_once() {
        let split = std::sync::Arc::new(ClassificationPreset::C10Sim.generate(13));
        let tiny = ExperimentBudget {
            seed: 1312,
            ..ExperimentBudget::smoke()
        };
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let split = split.clone();
                std::thread::spawn(move || {
                    pretrained("t-conc", Arch::Wrn16x1, &split.train, &tiny, 16)
                        .num_parameters()
                })
            })
            .collect();
        let counts: Vec<usize> = handles
            .into_iter()
            .map(|h| h.join().expect("no deadlock or panic"))
            .collect();
        assert!(counts.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(
            pretrain_runs_for("t-conc"),
            1,
            "4 concurrent requests must share one training run"
        );
    }

    #[test]
    fn clone_classifier_reproduces_outputs() {
        let world = VisionWorld::new(3, 8, 5);
        let split = SplitDataset::sample(&world, 8, 4, 2);
        let mut rng = TensorRng::seed_from(1);
        let model = Arch::Wrn16x1.build(3, 4, &mut rng);
        train_supervised(model.as_ref(), &split.train, 10, 8, 0.1, &mut rng);
        let copy = clone_classifier(model.as_ref(), Arch::Wrn16x1, 3, 4);
        let (x, _) = split.test.batch(&[0, 1, 2]);
        let xa = cae_tensor::Var::constant(x);
        let ya = model.forward(&xa, &mut ForwardCtx::eval());
        let yb = copy.forward(&xa, &mut ForwardCtx::eval());
        for (a, b) in ya.value().data().iter().zip(yb.value().data()) {
            assert!((a - b).abs() < 1e-5, "outputs differ: {a} vs {b}");
        }
    }
}
