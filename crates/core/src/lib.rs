//! # cae-core
//!
//! The primary contribution of the CAE-DFKD paper and everything needed to
//! evaluate it:
//!
//! * [`cend`] — the **Category Embedding Noise Diffusion** layer (Eq. 3):
//!   language-model category embeddings diffused by `N` noise sources with
//!   distinct distributions.
//! * [`cncl`] — **Category Noise Contrastive Learning** (Eq. 4):
//!   embedding-level InfoNCE over generator-synthesized anchors, diffused
//!   positives and cross-category negatives.
//! * [`embedding`] — generator input providers: unstructured Gaussian noise
//!   (native DFKD), raw label embeddings (NAYER-like) and CEND (ours).
//! * [`losses`] — the DFKD generator objective (Eq. 5: cross-entropy,
//!   batch-norm statistic matching, adversarial divergence) and student
//!   objective (Eq. 6).
//! * [`memory`] — the synthetic-image memory bank of Fig. 3.
//! * [`trainer`] — the full adversarial DFKD loop, parameterized by a
//!   [`method::MethodSpec`] so every baseline shares the same substrate.
//! * [`method`], [`baselines`] — CAE-DFKD and the compared methods
//!   (vanilla generator DFKD, DeepInversion-like, CMI-like, NAYER-like,
//!   Mixup / image-level contrastive student variants).
//! * [`teacher`] — supervised pre-training (and caching) of teachers and
//!   data-accessible student references.
//! * [`metrics`] — top-1 accuracy, confidence histograms, mIoU/pAcc, depth
//!   errors, surface-normal angle statistics, detection mAP.
//! * [`transfer`] — downstream-task heads (segmentation, depth, normals,
//!   detection) and the fine-tuning harness of §IV-B2.
//! * [`experiments`] — one runner per paper table/figure, producing
//!   [`report::Report`]s.
//!
//! # Example
//!
//! ```no_run
//! use cae_core::config::ExperimentBudget;
//! use cae_core::method::MethodSpec;
//! use cae_core::pipeline;
//! use cae_data::presets::ClassificationPreset;
//! use cae_nn::models::Arch;
//!
//! let outcome = pipeline::run_dfkd(
//!     ClassificationPreset::C10Sim,
//!     Arch::ResNet34,
//!     Arch::ResNet18,
//!     &MethodSpec::cae_dfkd(4),
//!     &ExperimentBudget::fast(),
//!     42,
//! );
//! println!("student top-1: {:.2}%", outcome.student_top1 * 100.0);
//! ```

pub mod baselines;
pub mod cend;
pub mod cncl;
pub mod config;
pub mod continual;
pub mod embedding;
pub mod experiments;
pub mod logging;
pub mod losses;
pub mod memory;
pub mod method;
pub mod metrics;
pub mod pipeline;
pub mod report;
pub mod teacher;
pub mod trainer;
pub mod transfer;

/// Serializes unit tests that force-enable tracing and drain or consume the
/// process-global trace state — a concurrent test would otherwise steal
/// another's events or flip the gate mid-run — and tests that run DFKD
/// training, whose series and gauges a concurrently traced test would
/// otherwise count as its own.
#[cfg(test)]
pub(crate) fn trace_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub use cend::CendLayer;
pub use cncl::CnclConfig;
pub use config::{Config, DfkdConfig, ExperimentBudget};
pub use method::MethodSpec;
pub use report::Report;
