//! Serving benchmark harness: deterministic request traces, closed- and
//! open-loop drivers, latency statistics, and a byte-stable prediction log.
//!
//! The same harness backs three surfaces: the `bench_serve` bin (checks the
//! serve contract at measurement time), the `cae-dfkd serve-bench`
//! subcommand, and the determinism integration test (same trace ⇒
//! byte-identical [`prediction_log`] across batching configurations).

use crate::server::{PhaseBreakdown, Prediction, ServeOptions, Server, Ticket};
use cae_nn::infer::FrozenClassifier;
use cae_tensor::rng::TensorRng;
use cae_tensor::Tensor;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Reads one phase's µs off a [`PhaseBreakdown`].
type Phase = fn(&PhaseBreakdown) -> u64;

/// The four per-request phases, in pipeline order, with their accessors.
const PHASES: [(&str, Phase); 4] = [
    ("queue_wait", |p| p.queue_wait_us),
    ("assembly", |p| p.assembly_us),
    ("forward", |p| p.forward_us),
    ("handoff", |p| p.handoff_us),
];

/// A reproducible sequence of single-image requests: request `i` is a
/// pure function of `(seed, i)`, so every run over the same trace serves
/// identical inputs.
pub struct RequestTrace {
    images: Vec<Tensor>,
}

impl RequestTrace {
    /// `n` Gaussian images of shape `[1, channels, hw, hw]`.
    pub fn synthetic(n: usize, channels: usize, hw: usize, seed: u64) -> RequestTrace {
        let mut rng = TensorRng::seed_from(seed);
        RequestTrace {
            images: (0..n)
                .map(|_| rng.normal_tensor(&[1, channels, hw, hw], 0.0, 1.0))
                .collect(),
        }
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// The `i`-th request image.
    pub fn image(&self, i: usize) -> &Tensor {
        &self.images[i]
    }
}

/// One driver run: every prediction plus the wall-clock it took.
pub struct RunResult {
    /// All predictions, sorted by request id.
    pub predictions: Vec<Prediction>,
    /// Wall-clock seconds from first submission to last completion.
    pub seconds: f64,
}

/// Nearest-rank percentile (`pct` in 0..=100) of `samples`; 0 when empty.
fn percentile(mut samples: Vec<u64>, pct: u64) -> u64 {
    samples.sort_unstable();
    cae_trace::profile::nearest_rank(&samples, pct)
}

impl RunResult {
    /// Requests per second.
    pub fn throughput_rps(&self) -> f64 {
        self.predictions.len() as f64 / self.seconds.max(1e-12)
    }

    /// Latency percentile in µs over the server-measured per-request
    /// latencies (`pct` in 0..=100; the nearest-rank order statistic,
    /// [`cae_trace::profile::nearest_rank`]).
    pub fn latency_percentile_us(&self, pct: u64) -> u64 {
        percentile(self.predictions.iter().map(|p| p.latency_us).collect(), pct)
    }

    /// Percentile in µs of one phase (`phase` reads it off a
    /// [`PhaseBreakdown`]) over the per-request samples, by the same
    /// nearest rank.
    pub fn phase_percentile_us(&self, phase: Phase, pct: u64) -> u64 {
        percentile(self.predictions.iter().map(|p| phase(&p.phases)).collect(), pct)
    }

    /// Mean served batch size.
    pub fn mean_batch(&self) -> f64 {
        if self.predictions.is_empty() {
            return 0.0;
        }
        let total: usize = self.predictions.iter().map(|p| p.batch_size).sum();
        total as f64 / self.predictions.len() as f64
    }

    /// One-line per-phase p50/p99 summary for console output.
    pub fn phase_summary(&self) -> String {
        PHASES
            .iter()
            .map(|&(name, phase)| {
                let p50 = self.phase_percentile_us(phase, 50);
                let p99 = self.phase_percentile_us(phase, 99);
                format!("{name} p50 {p50}us p99 {p99}us")
            })
            .collect::<Vec<String>>()
            .join(" | ")
    }
}

fn sorted_by_id(mut predictions: Vec<Prediction>) -> Vec<Prediction> {
    predictions.sort_by_key(|p| p.id);
    predictions
}

/// Closed-loop driver: one synchronous client, submit → wait, one request
/// in flight at a time. This is the "one-request-at-a-time" baseline the
/// batched-speedup acceptance gate compares against — it pays the full
/// queue/handoff overhead per request and can never batch.
pub fn run_closed_loop(model: FrozenClassifier, opts: ServeOptions, trace: &RequestTrace) -> RunResult {
    let server = Server::start(model, opts);
    let started = Instant::now();
    let predictions = (0..trace.len())
        .map(|i| server.query(i as u64, trace.image(i).clone()))
        .collect();
    let seconds = started.elapsed().as_secs_f64();
    server.shutdown();
    RunResult { predictions: sorted_by_id(predictions), seconds }
}

/// Open-loop driver: `clients` concurrent submitters flood the queue
/// (bounded by `opts.queue_cap`, so backpressure applies) and collect
/// their tickets. Request `i` goes to client `i % clients`, but ids — and
/// therefore the [`prediction_log`] — are independent of scheduling.
pub fn run_open_loop(
    model: FrozenClassifier,
    opts: ServeOptions,
    trace: &RequestTrace,
    clients: usize,
) -> RunResult {
    assert!(clients >= 1, "at least one client required");
    let server = Server::start(model, opts);
    let collected: Mutex<Vec<Prediction>> = Mutex::new(Vec::with_capacity(trace.len()));
    let started = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..clients {
            let server = &server;
            let collected = &collected;
            scope.spawn(move || {
                let tickets: Vec<Ticket> = (client..trace.len())
                    .step_by(clients)
                    .map(|i| server.submit(i as u64, trace.image(i).clone()))
                    .collect();
                let mine: Vec<Prediction> = tickets.into_iter().map(Ticket::wait).collect();
                collected
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .extend(mine);
            });
        }
    });
    let seconds = started.elapsed().as_secs_f64();
    server.shutdown();
    let predictions = collected.into_inner().unwrap_or_else(PoisonError::into_inner);
    RunResult { predictions: sorted_by_id(predictions), seconds }
}

/// Renders predictions as a byte-stable log: one `id argmax logit-bits…`
/// line per request, sorted by id. Logits are written as the hex of their
/// f32 bit patterns, so equality is exact — two logs match iff every
/// logit of every request is bit-identical. Latency and batch size are
/// deliberately excluded: they legitimately vary across configurations.
pub fn prediction_log(predictions: &[Prediction]) -> String {
    let mut sorted: Vec<&Prediction> = predictions.iter().collect();
    sorted.sort_by_key(|p| p.id);
    let mut out = String::new();
    for p in sorted {
        out.push_str(&format!("{} {}", p.id, p.argmax));
        for &logit in &p.logits {
            out.push_str(&format!(" {:08x}", logit.to_bits()));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cae_nn::infer::{Activation, FrozenOp};

    fn tiny_model() -> FrozenClassifier {
        let n = 2 * 2 * 9;
        let weight =
            Tensor::from_vec((0..n).map(|i| ((i as f32) * 0.29).sin()).collect(), &[2, 2, 3, 3])
                .unwrap();
        let spatial = vec![FrozenOp::Conv {
            weight,
            bias: Some(Tensor::zeros(&[2])),
            spec: cae_tensor::conv::Conv2dSpec::new(3, 1, 1),
            act: Activation::Relu,
            qweight: None,
        }];
        let head =
            Tensor::from_vec((0..8).map(|i| ((i as f32) * 0.41).cos()).collect(), &[2, 4]).unwrap();
        FrozenClassifier::new(spatial, head, Tensor::zeros(&[4]))
    }

    #[test]
    fn open_and_closed_loop_serve_identical_predictions() {
        let trace = RequestTrace::synthetic(24, 2, 5, 11);
        let closed = run_closed_loop(
            tiny_model(),
            ServeOptions::default().with_max_batch(1),
            &trace,
        );
        let open = run_open_loop(
            tiny_model(),
            ServeOptions::default().with_max_batch(8).with_max_latency_us(1000),
            &trace,
            3,
        );
        assert_eq!(closed.predictions.len(), 24);
        assert_eq!(open.predictions.len(), 24);
        assert_eq!(prediction_log(&closed.predictions), prediction_log(&open.predictions));
    }

    #[test]
    fn percentiles_are_order_statistics() {
        let mk = |latency_us| Prediction {
            id: latency_us,
            argmax: 0,
            logits: vec![0.0],
            latency_us,
            batch_size: 1,
            phases: Default::default(),
        };
        // Nearest rank: the ceil(n·pct/100)-th smallest sample (rank 1 at
        // pct 0), in integer arithmetic, so p99 is rank 99 of 100 and rank
        // 198 of 200 with no float rounding in between.
        let run = RunResult { predictions: (1..=100).map(mk).collect(), seconds: 1.0 };
        assert_eq!(run.latency_percentile_us(0), 1);
        assert_eq!(run.latency_percentile_us(50), 50);
        assert_eq!(run.latency_percentile_us(99), 99);
        assert_eq!(run.latency_percentile_us(100), 100);
        assert!((run.throughput_rps() - 100.0).abs() < 1e-9);
        let run = RunResult { predictions: (1..=200).map(mk).collect(), seconds: 1.0 };
        assert_eq!(run.latency_percentile_us(50), 100);
        assert_eq!(run.latency_percentile_us(99), 198);
        assert_eq!(RunResult { predictions: Vec::new(), seconds: 1.0 }.latency_percentile_us(99), 0);
    }

    #[test]
    fn phase_percentiles_are_order_statistics_of_the_samples() {
        // Each request's phases add up to its latency, as the server
        // stamps them, so no phase percentile can exceed the latency's.
        let mk = |i: u64| {
            let phases = PhaseBreakdown {
                queue_wait_us: (i * 37) % 101,
                assembly_us: i % 3,
                forward_us: 80 + (i * 13) % 29,
                handoff_us: (i * 7) % 5,
            };
            Prediction {
                id: i,
                argmax: 0,
                logits: vec![0.0],
                latency_us: PHASES.iter().map(|(_, phase)| phase(&phases)).sum(),
                batch_size: 1,
                phases,
            }
        };
        let run = RunResult { predictions: (0..200).map(mk).collect(), seconds: 1.0 };
        for &(name, phase) in &PHASES {
            let mut samples: Vec<u64> = run.predictions.iter().map(|p| phase(&p.phases)).collect();
            samples.sort_unstable();
            // 0-based indices of the ranks ceil(200·pct/100): 100 and 198.
            for (pct, index) in [(50, 99), (99, 197)] {
                let got = run.phase_percentile_us(phase, pct);
                assert_eq!(got, samples[index], "{name} at p{pct}");
                let latency = run.latency_percentile_us(pct);
                assert!(got <= latency, "{name} at p{pct}: {got}us exceeds the latency's {latency}us");
            }
        }
        let summary = run.phase_summary();
        assert!(summary.starts_with("queue_wait p50 "), "{summary}");
        assert_eq!(summary.matches(" p99 ").count(), 4, "{summary}");
    }

    #[test]
    fn log_is_sorted_and_hex_stable() {
        let p = |id, logit: f32| Prediction {
            id,
            argmax: 0,
            logits: vec![logit],
            latency_us: 5,
            batch_size: 2,
            phases: Default::default(),
        };
        let log = prediction_log(&[p(2, 1.5), p(0, -0.25), p(1, 0.0)]);
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("0 "));
        assert_eq!(lines[0], format!("0 0 {:08x}", (-0.25f32).to_bits()));
        assert!(lines[2].starts_with("2 "));
    }
}
