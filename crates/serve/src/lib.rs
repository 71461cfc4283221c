//! `cae-serve`: a dynamic-batching inference server over frozen CAE-DFKD
//! students.
//!
//! The deployment story CAE-DFKD motivates — distill once, serve the
//! student cheaply — ends at a serving layer. This crate provides it for
//! the frozen-graph inference path: single-image queries from many
//! concurrent clients are pulled from a bounded queue and dynamically
//! batched into GEMM-friendly forwards, dispatching when either a full
//! batch ([`ServeOptions::max_batch`]) is available or the oldest queued
//! request has waited [`ServeOptions::max_latency_us`].
//!
//! Like the rest of the workspace, there is no async runtime and no
//! external dependency: the queue is a mutex + two condvars, completion
//! handoff is a per-request one-shot slot, and workers are plain threads
//! running [`cae_nn::infer::FrozenClassifier::forward`] on the shared
//! tensor pool.
//!
//! Because the underlying GEMM computes each batch row independently,
//! predictions are **bit-identical regardless of batching** — the
//! integration tests byte-diff [`bench::prediction_log`]s across
//! configurations to prove it. Loading a student frozen with int8 weight
//! quantization (`FreezeOptions::int8`) composes transparently: the
//! dequantized weights are ordinary f32 tensors by the time they reach
//! this crate.
//!
//! Runtime knobs come from the `CAE_SERVE_*` entries of
//! [`cae_core::config::Config`] via [`ServeOptions::from_config`].
//!
//! Every prediction carries a [`PhaseBreakdown`] decomposing its
//! server-side latency into queue-wait, batch-assembly, forward and
//! completion-handoff, which add up to the latency exactly. The bench
//! harnesses take per-phase p50/p99 from these samples
//! ([`RunResult::phase_percentile_us`]); when telemetry is on (`CAE_TRACE`)
//! the same durations also feed the `serve.phase.*` span stats
//! ([`cae_trace::stat_ns`]), which the [`cae_trace::metrics`] exporter shows.

pub mod bench;
pub mod server;

pub use bench::{prediction_log, run_closed_loop, run_open_loop, RequestTrace, RunResult};
pub use server::{PhaseBreakdown, Prediction, ServeOptions, ServeSummary, Server, Ticket};
