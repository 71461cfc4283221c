//! The dynamic-batching scheduler: bounded queue, cutoff-driven dispatch,
//! per-request completion handoff.
//!
//! # Queue design
//!
//! One mutex-protected [`VecDeque`] of pending requests, two condvars:
//! `not_empty` wakes workers when requests arrive (or at shutdown),
//! `not_full` wakes blocked submitters when a batch is drained. No async
//! runtime — like the rest of the zero-dependency substrate, the handoff
//! is hand-rolled from `std::sync` primitives. Each request carries an
//! [`Arc`]'d result slot (a one-shot mutex+condvar cell); the worker that
//! forwards the batch fulfills every slot, and [`Ticket::wait`] blocks the
//! submitting client until its slot fills.
//!
//! # Cutoff semantics
//!
//! A worker dispatches a batch when **either** cutoff trips:
//!
//! * `max_batch` requests are queued (a full batch exists), or
//! * the *oldest* queued request has waited `max_latency_us` — a partial
//!   batch is dispatched rather than stalling the head of the queue.
//!
//! Shutdown relaxes both: remaining requests are drained immediately in
//! `max_batch`-sized chunks until the queue is empty.
//!
//! # Determinism
//!
//! The batched forward stacks images along dim 0 and the underlying GEMM
//! kernels compute each output row independently from that row's inputs,
//! so row `i` of a batch-`n` forward is bit-identical to the same image
//! forwarded alone. Predictions therefore do not depend on which batch a
//! request landed in — the property `tests/determinism.rs` locks down by
//! byte-diffing prediction logs across batching configurations.

use cae_nn::infer::FrozenClassifier;
use cae_tensor::Tensor;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Scheduler knobs. Defaults mirror the `CAE_SERVE_*` entries in
/// [`cae_core::config::Config`]; [`ServeOptions::from_config`] reads the
/// process snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOptions {
    /// Dispatch as soon as this many requests are queued.
    pub max_batch: usize,
    /// Dispatch a partial batch once the oldest queued request has waited
    /// this long.
    pub max_latency_us: u64,
    /// Worker threads running batched forwards.
    pub workers: usize,
    /// Bounded-queue capacity; [`Server::submit`] blocks above it
    /// (backpressure instead of unbounded memory growth).
    pub queue_cap: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions { max_batch: 16, max_latency_us: 2000, workers: 1, queue_cap: 64 }
    }
}

impl ServeOptions {
    /// Options from the process-wide `CAE_SERVE_*` snapshot.
    pub fn from_config() -> Self {
        let config = cae_core::Config::get();
        ServeOptions {
            max_batch: config.serve_max_batch,
            max_latency_us: config.serve_max_latency_us,
            workers: config.serve_workers,
            queue_cap: config.serve_max_batch.saturating_mul(4).max(1),
        }
    }

    /// Returns these options with a different `max_batch` (and a queue
    /// capacity rescaled to four batches).
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        assert!(max_batch >= 1, "max_batch must be at least 1");
        self.max_batch = max_batch;
        self.queue_cap = max_batch.saturating_mul(4).max(self.queue_cap.min(4));
        self
    }

    /// Returns these options with a different latency cutoff.
    pub fn with_max_latency_us(mut self, max_latency_us: u64) -> Self {
        self.max_latency_us = max_latency_us;
        self
    }
}

/// Where one request's server-side latency went, phase by phase. Carried
/// on every [`Prediction`] (the timestamps are free — the worker already
/// holds them); the bench harnesses take their per-phase percentiles from
/// these samples. Each phase is the difference of two whole-µs offsets from
/// the enqueue instant, so the four phases add up to
/// [`Prediction::latency_us`] exactly. When telemetry is on (`CAE_TRACE`)
/// the same intervals, in ns, also land in the `serve.phase.*` span stats
/// ([`cae_trace::stat_ns`]) for the live exporter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseBreakdown {
    /// Enqueue until the dispatching worker drained this request.
    pub queue_wait_us: u64,
    /// Drain until the batched forward started (gathering rows, concat).
    pub assembly_us: u64,
    /// The batched forward itself (shared by every request in the batch).
    pub forward_us: u64,
    /// Forward completion until this request's result slot was filled
    /// (row extraction, argmax, slot handoff).
    pub handoff_us: u64,
}

/// One completed request.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Caller-chosen request id (echoed back; logs sort by it).
    pub id: u64,
    /// Argmax class of the logits row.
    pub argmax: usize,
    /// The full logits row, bit-exact regardless of batch placement.
    pub logits: Vec<f32>,
    /// Server-side latency: enqueue to slot fulfillment.
    pub latency_us: u64,
    /// Size of the batch this request was served in.
    pub batch_size: usize,
    /// Per-phase latency decomposition.
    pub phases: PhaseBreakdown,
}

/// One-shot result cell: the worker fills it, the client waits on it.
struct ResultSlot {
    ready: Mutex<Option<Prediction>>,
    cv: Condvar,
}

/// A pending single-image request (`[1, C, H, W]`).
struct Pending {
    id: u64,
    image: Tensor,
    enqueued: Instant,
    slot: Arc<ResultSlot>,
}

struct QueueState {
    queue: VecDeque<Pending>,
    open: bool,
    /// Deepest the queue has been since the last batch drain. Sampling
    /// the depth gauge only at enqueue/dequeue misses bursts that arrive
    /// and drain between two samples; the high-water mark per batch
    /// window is what capacity planning actually needs.
    high_water: usize,
}

struct Shared {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    opts: ServeOptions,
    model: FrozenClassifier,
    batches: AtomicU64,
    served: AtomicU64,
}

/// A claim on one submitted request's eventual [`Prediction`].
pub struct Ticket {
    slot: Arc<ResultSlot>,
}

impl Ticket {
    /// Blocks until the worker fulfills this request.
    pub fn wait(self) -> Prediction {
        let mut ready = self.slot.ready.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(prediction) = ready.take() {
                return prediction;
            }
            ready = self.slot.cv.wait(ready).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Totals returned by [`Server::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests served (every submitted request, including those drained
    /// at shutdown).
    pub served: u64,
    /// Batched forwards dispatched.
    pub batches: u64,
}

/// The inference server: owns a frozen student and `opts.workers` threads
/// draining the shared queue.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Starts worker threads over a frozen classifier.
    pub fn start(model: FrozenClassifier, opts: ServeOptions) -> Server {
        assert!(opts.max_batch >= 1, "max_batch must be at least 1");
        assert!(opts.workers >= 1, "at least one worker required");
        assert!(opts.queue_cap >= 1, "queue capacity must be at least 1");
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState { queue: VecDeque::new(), open: true, high_water: 0 }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            opts,
            model,
            batches: AtomicU64::new(0),
            served: AtomicU64::new(0),
        });
        let workers = (0..opts.workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("cae-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn serve worker")
            })
            .collect();
        Server { shared, workers }
    }

    /// Enqueues one single-image request (`[1, C, H, W]`) and returns a
    /// [`Ticket`] for its result. Blocks while the queue is at capacity.
    ///
    /// # Panics
    /// Panics if `image` is not a single-image NCHW tensor.
    pub fn submit(&self, id: u64, image: Tensor) -> Ticket {
        let dims = image.shape().dims();
        assert!(
            dims.len() == 4 && dims[0] == 1,
            "serve requests are single images [1, C, H, W], got {dims:?}"
        );
        let slot = Arc::new(ResultSlot { ready: Mutex::new(None), cv: Condvar::new() });
        let pending =
            Pending { id, image, enqueued: Instant::now(), slot: slot.clone() };
        let mut state = self.shared.state.lock().unwrap_or_else(PoisonError::into_inner);
        while state.queue.len() >= self.shared.opts.queue_cap {
            state = self
                .shared
                .not_full
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.queue.push_back(pending);
        state.high_water = state.high_water.max(state.queue.len());
        cae_trace::gauge("serve.queue_depth", state.queue.len() as f64);
        drop(state);
        self.shared.not_empty.notify_all();
        Ticket { slot }
    }

    /// Closed-loop convenience: submit one request and block for its
    /// prediction.
    pub fn query(&self, id: u64, image: Tensor) -> Prediction {
        self.submit(id, image).wait()
    }

    /// Closes the queue, drains every remaining request, joins the
    /// workers, and returns the totals.
    pub fn shutdown(self) -> ServeSummary {
        {
            let mut state = self.shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.open = false;
        }
        self.shared.not_empty.notify_all();
        for handle in self.workers {
            handle.join().expect("serve worker panicked");
        }
        ServeSummary {
            served: self.shared.served.load(Ordering::Relaxed),
            batches: self.shared.batches.load(Ordering::Relaxed),
        }
    }
}

/// Waits for a dispatchable batch and drains it (returning the drain
/// instant, which anchors the per-request phase decomposition), or
/// returns `None` when the server is shut down and the queue is empty.
fn next_batch(shared: &Shared) -> Option<(Vec<Pending>, Instant)> {
    let opts = &shared.opts;
    let mut state = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
    loop {
        if state.queue.is_empty() {
            if !state.open {
                return None;
            }
            state = shared
                .not_empty
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            continue;
        }
        if state.queue.len() >= opts.max_batch || !state.open {
            break;
        }
        let oldest = state.queue.front().expect("queue checked non-empty").enqueued;
        let deadline = oldest + Duration::from_micros(opts.max_latency_us);
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        // Partial batch: wait for more requests, but never past the oldest
        // request's latency cutoff. Spurious and timeout wakeups both loop
        // back through the dispatch conditions.
        let (guard, _) = shared
            .not_empty
            .wait_timeout(state, deadline - now)
            .unwrap_or_else(PoisonError::into_inner);
        state = guard;
    }
    let n = opts.max_batch.min(state.queue.len());
    let batch: Vec<Pending> = state.queue.drain(..n).collect();
    let drained_at = Instant::now();
    cae_trace::gauge("serve.queue_depth", state.queue.len() as f64);
    cae_trace::gauge("serve.queue_high_water", state.high_water as f64);
    state.high_water = state.queue.len();
    drop(state);
    shared.not_full.notify_all();
    Some((batch, drained_at))
}

fn worker_loop(shared: &Shared) {
    while let Some((batch, drained_at)) = next_batch(shared) {
        let batch_index = shared.batches.fetch_add(1, Ordering::Relaxed);
        cae_trace::series("serve.batch_size", batch_index, batch.len() as f64);
        // Assembly: everything between draining the queue and launching
        // the batched forward (gathering image refs, the dim-0 concat).
        let input = {
            let images: Vec<&Tensor> = batch.iter().map(|p| &p.image).collect();
            Tensor::concat0(&images)
        };
        let forward_start = Instant::now();
        let logits = shared.model.forward(&input);
        let forward_end = Instant::now();
        let assembly_ns = forward_start.duration_since(drained_at).as_nanos() as u64;
        let forward_ns = forward_end.duration_since(forward_start).as_nanos() as u64;
        cae_trace::stat_ns("serve.forward", forward_ns);
        let classes = logits.shape().dims()[1];
        for (row, pending) in batch.iter().enumerate() {
            let row_logits = logits.data()[row * classes..(row + 1) * classes].to_vec();
            let argmax = row_logits
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .expect("logits row is non-empty");
            // Latency and handoff end here, just before the slot fills: the
            // row extraction and argmax above are this request's share of
            // completion work.
            let filled = Instant::now();
            let queue_wait_ns = drained_at.duration_since(pending.enqueued).as_nanos() as u64;
            cae_trace::stat_ns("serve.phase.queue_wait", queue_wait_ns);
            cae_trace::stat_ns("serve.phase.assembly", assembly_ns);
            cae_trace::stat_ns("serve.phase.forward", forward_ns);
            cae_trace::stat_ns(
                "serve.phase.handoff",
                filled.duration_since(forward_end).as_nanos() as u64,
            );
            // Whole-µs offsets from enqueue; flooring is monotonic, so their
            // differences are non-negative and sum to the latency exactly.
            let offset_us = |t: Instant| t.duration_since(pending.enqueued).as_micros() as u64;
            let [drained_us, forward_start_us, forward_end_us, latency_us] =
                [drained_at, forward_start, forward_end, filled].map(offset_us);
            let prediction = Prediction {
                id: pending.id,
                argmax,
                logits: row_logits,
                latency_us,
                batch_size: batch.len(),
                phases: PhaseBreakdown {
                    queue_wait_us: drained_us,
                    assembly_us: forward_start_us - drained_us,
                    forward_us: forward_end_us - forward_start_us,
                    handoff_us: latency_us - forward_end_us,
                },
            };
            let mut ready = pending
                .slot
                .ready
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            *ready = Some(prediction);
            pending.slot.cv.notify_all();
        }
        shared.served.fetch_add(batch.len() as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cae_nn::infer::{Activation, FrozenOp};

    /// A tiny deterministic frozen classifier: 2 input channels, 3 classes.
    fn tiny_model() -> FrozenClassifier {
        let n = 2 * 3 * 9;
        let weight =
            Tensor::from_vec((0..n).map(|i| ((i as f32) * 0.37).sin()).collect(), &[3, 2, 3, 3])
                .unwrap();
        let spatial = vec![FrozenOp::Conv {
            weight,
            bias: Some(Tensor::zeros(&[3])),
            spec: cae_tensor::conv::Conv2dSpec::new(3, 1, 1),
            act: Activation::Relu,
            qweight: None,
        }];
        let head_weight =
            Tensor::from_vec((0..9).map(|i| ((i as f32) * 0.53).cos()).collect(), &[3, 3]).unwrap();
        FrozenClassifier::new(spatial, head_weight, Tensor::zeros(&[3]))
    }

    fn image(seed: u64) -> Tensor {
        let mut rng = cae_tensor::rng::TensorRng::seed_from(seed);
        rng.normal_tensor(&[1, 2, 6, 6], 0.0, 1.0)
    }

    /// Serializes the tests that toggle the global trace state and drain it.
    fn trace_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn every_request_is_served_exactly_once_and_batches_respect_cutoff() {
        let opts = ServeOptions::default().with_max_batch(4).with_max_latency_us(500);
        let server = Server::start(tiny_model(), opts);
        let tickets: Vec<Ticket> =
            (0..13).map(|i| server.submit(i, image(i))).collect();
        let mut ids: Vec<u64> = tickets
            .into_iter()
            .map(|t| {
                let p = t.wait();
                assert!(p.batch_size >= 1 && p.batch_size <= 4);
                assert_eq!(p.logits.len(), 3);
                p.id
            })
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..13).collect::<Vec<u64>>());
        let summary = server.shutdown();
        assert_eq!(summary.served, 13);
        assert!(summary.batches >= 4, "13 requests at max_batch 4 need >= 4 batches");
    }

    #[test]
    fn shutdown_drains_queued_requests() {
        // A huge latency cutoff would park requests for a minute; shutdown
        // must drain them immediately instead.
        let opts = ServeOptions::default().with_max_batch(64).with_max_latency_us(60_000_000);
        let server = Server::start(tiny_model(), opts);
        let tickets: Vec<Ticket> = (0..5).map(|i| server.submit(i, image(i))).collect();
        let summary = server.shutdown();
        assert_eq!(summary.served, 5);
        for t in tickets {
            let p = t.wait();
            assert_eq!(p.logits.len(), 3);
        }
    }

    #[test]
    fn batched_and_single_predictions_are_bit_identical() {
        let opts = ServeOptions::default().with_max_batch(8).with_max_latency_us(2000);
        let batched_server = Server::start(tiny_model(), opts);
        let batched: Vec<Prediction> = {
            let tickets: Vec<Ticket> =
                (0..8).map(|i| batched_server.submit(i, image(i))).collect();
            tickets.into_iter().map(Ticket::wait).collect()
        };
        batched_server.shutdown();

        let single_server = Server::start(tiny_model(), ServeOptions::default().with_max_batch(1));
        for p in &batched {
            let alone = single_server.query(p.id, image(p.id));
            assert_eq!(alone.argmax, p.argmax);
            for (&a, &b) in alone.logits.iter().zip(&p.logits) {
                assert_eq!(a.to_bits(), b.to_bits(), "batch placement changed a logit");
            }
        }
        single_server.shutdown();
    }

    #[test]
    fn queue_high_water_mark_sees_bursts_the_depth_gauge_misses() {
        let _l = trace_lock();
        cae_trace::force_enabled(true);
        let _ = cae_trace::drain();
        // A far-off latency cutoff parks all five requests; shutdown then
        // drains them in one batch, so dequeue-time depth sampling sees
        // only 0 — the high-water gauge must still report the burst of 5.
        let opts = ServeOptions::default().with_max_batch(64).with_max_latency_us(60_000_000);
        let server = Server::start(tiny_model(), opts);
        let tickets: Vec<Ticket> = (0..5).map(|i| server.submit(i, image(i))).collect();
        server.shutdown();
        for t in tickets {
            t.wait();
        }
        let trace = cae_trace::drain();
        cae_trace::reset_to_env();
        // Other concurrently-running tests may also emit serve gauges (the
        // whole suite runs under CAE_TRACE=1 in tier1), so assert the burst
        // is visible rather than demanding exact ownership of the trace.
        let high_water = trace.gauges["serve.queue_high_water"];
        assert!(high_water.max >= 5.0, "the full burst must be visible, got {}", high_water.max);
        let depth = trace.gauges["serve.queue_depth"];
        assert!(depth.count > 0, "depth gauge still sampled at enqueue/dequeue");
    }

    #[test]
    fn phase_breakdown_is_carried_on_every_prediction() {
        let opts = ServeOptions::default().with_max_batch(4).with_max_latency_us(500);
        let server = Server::start(tiny_model(), opts);
        let tickets: Vec<Ticket> = (0..8).map(|i| server.submit(i, image(i))).collect();
        for t in tickets {
            let p = t.wait();
            let ph = p.phases;
            // The phases partition enqueue→slot fill exactly.
            assert_eq!(
                ph.queue_wait_us + ph.assembly_us + ph.forward_us + ph.handoff_us,
                p.latency_us,
                "{ph:?} must add up to the latency"
            );
        }
        server.shutdown();
    }

    #[test]
    fn every_request_records_each_phase_as_a_span_stat() {
        let _l = trace_lock();
        cae_trace::force_enabled(true);
        let _ = cae_trace::drain();
        let opts = ServeOptions::default().with_max_batch(4).with_max_latency_us(500);
        let server = Server::start(tiny_model(), opts);
        let tickets: Vec<Ticket> = (0..9).map(|i| server.submit(i, image(i))).collect();
        for t in tickets {
            t.wait();
        }
        server.shutdown();
        let trace = cae_trace::drain();
        cae_trace::reset_to_env();
        // At least: other tests may serve concurrently while the gate is
        // on (and the whole suite also runs under CAE_TRACE=1).
        let count = |name: &str| trace.span_stats.get(name).map_or(0, |s| s.count);
        for phase in ["queue_wait", "assembly", "forward", "handoff"] {
            let name = format!("serve.phase.{phase}");
            assert!(count(&name) >= 9, "{name}: {} samples for 9 requests", count(&name));
        }
        assert!(count("serve.forward") >= 1, "the batched forward is timed once per batch");
    }

    #[test]
    #[should_panic(expected = "single images")]
    fn rejects_multi_image_submissions() {
        let server = Server::start(tiny_model(), ServeOptions::default());
        let bad = Tensor::zeros(&[2, 2, 6, 6]);
        // Leak the server so the panic doesn't double-panic in drop.
        let _ = std::mem::ManuallyDrop::new(server).submit(0, bad);
    }
}
