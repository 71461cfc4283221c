//! The serve workloads: open-loop Poisson arrivals from one generator
//! thread into a `cae_serve::Server` holding a fused frozen smoke ResNet18
//! student, with every response checked bit for bit.

use crate::record::Outcome;
use crate::stats::{median, percentile};
use crate::sys::{cpu_seconds, peak_rss_mb, tighten_timer_slack};
use cae_core::{teacher, ExperimentBudget};
use cae_data::presets::ClassificationPreset;
use cae_nn::infer::{FreezeOptions, FrozenClassifier};
use cae_nn::models::Arch;
use cae_serve::{PhaseBreakdown, RequestTrace, ServeOptions, Server, Ticket};
use cae_tensor::Tensor;
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// `serve-heavy` arrival rate: about two thirds of the 10.7k req/s the
/// batch-16 flood of `cae-dfkd serve-bench` reached on the reference host
/// (2-core x86_64, AVX2), so batches fill and the forward dominates.
pub const HEAVY_RPS: f64 = 6000.0;
/// `serve-light` arrival rate: batches of two or three requests, each
/// waiting out most of the 2 ms batching cutoff.
pub const LIGHT_RPS: f64 = 1000.0;
/// Responses slower than this (from their scheduled send time) do not
/// count towards goodput.
pub const LATENCY_LIMIT_MS: f64 = 25.0;
/// Distinct request images; request `i` sends image `i % IMAGE_POOL`.
pub const IMAGE_POOL: usize = 256;
/// Set-ups per timed run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// How long a window waits for stragglers after its last send.
const GRACE: Duration = Duration::from_secs(20);

/// splitmix64: a tiny, fixed generator, so the schedule depends on the seed
/// alone and never on the code under test.
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Poisson arrivals at `rps` over `seconds`: each request's due time as an
/// offset from the window start, seconds.
pub fn schedule(seed: u64, rps: f64, seconds: f64) -> Vec<f64> {
    let mut rng = SplitMix(seed ^ 0x5e4e_a441);
    let mut due = Vec::with_capacity((rps * seconds * 1.1) as usize);
    let mut t = -rng.unit().ln() / rps;
    while t < seconds {
        due.push(t);
        t += -rng.unit().ln() / rps;
    }
    due
}

/// The request images for `seed`: `IMAGE_POOL` Gaussian `[1, 3, 12, 12]`
/// images (the C10Sim input shape).
pub fn image_pool(seed: u64) -> Vec<Tensor> {
    let res = ClassificationPreset::C10Sim.resolution();
    let trace = RequestTrace::synthetic(IMAGE_POOL, 3, res, seed ^ 0x1a9e_5eed);
    (0..IMAGE_POOL).map(|i| trace.image(i).clone()).collect()
}

/// Bit-exact logits comparison.
pub fn logits_match(expected: &[f32], got: &[f32]) -> bool {
    expected.len() == got.len() && expected.iter().zip(got).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// A started server plus everything needed to check its answers.
pub struct Setup {
    pub server: Server,
    pub images: Vec<Tensor>,
    /// Batch-1 logits of every pool image, computed before any timing.
    pub expected: Vec<Vec<f32>>,
    pub seconds: SetupTimes,
}

/// Where one set-up's time went, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub total: f64,
    pub generate: f64,
    pub freeze: f64,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Forwards every batch size the server can form, so GEMM autotuning and
/// workspace growth happen here and not inside the timed window.
fn warm(model: &FrozenClassifier, images: &[Tensor], max_batch: usize) {
    for b in 1..=max_batch {
        let batch: Vec<&Tensor> = images[..b].iter().collect();
        std::hint::black_box(model.forward(&Tensor::concat0(&batch)));
    }
}

/// Data generation, student pretrain (as `bench_serve` trains it), fused
/// freeze, warm-up, batch-1 reference forwards and server start.
pub fn setup_once(seed: u64) -> Setup {
    let started = Instant::now();
    let budget = ExperimentBudget::smoke();
    let preset = ClassificationPreset::C10Sim;
    let (split, generate) = timed(|| preset.generate(budget.seed));
    let student = teacher::pretrained("serve-student", Arch::ResNet18, &split.train, &budget, 32);
    let (model, freeze) = timed(|| student.freeze_with(&FreezeOptions::fused()));
    let opts = ServeOptions::from_config();
    let images = image_pool(seed);
    warm(&model, &images, opts.max_batch);
    let expected: Vec<Vec<f32>> = images.iter().map(|x| model.forward(x).data().to_vec()).collect();
    let server = Server::start(model, opts);
    // Warm the serve worker's own thread-local workspaces with a full batch.
    let tickets: Vec<Ticket> =
        (0..opts.max_batch).map(|i| server.submit(u64::MAX - i as u64, images[i].clone())).collect();
    tickets.into_iter().for_each(|t| drop(t.wait()));
    let total = started.elapsed().as_secs_f64();
    Setup { server, images, expected, seconds: SetupTimes { total, generate, freeze } }
}

/// Sets up `SETUP_REPEATS` times from a cold teacher cache, keeping the
/// last server; its `seconds.total` becomes the median set-up time.
pub fn setup(seed: u64) -> Setup {
    let mut totals = Vec::new();
    let mut last: Option<Setup> = None;
    for _ in 0..SETUP_REPEATS {
        teacher::clear_cache();
        if let Some(previous) = last.take() {
            previous.server.shutdown();
        }
        let s = setup_once(seed);
        totals.push(s.seconds.total);
        last = Some(s);
    }
    eprintln!("serve set-up totals: {totals:?}");
    let mut kept = last.expect("at least one set-up");
    kept.seconds.total = median(&totals);
    kept
}

/// One answered request, as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Scheduled send time until `Ticket::wait` returned, µs.
    pub latency_us: f64,
    /// Scheduled send time until the generator called `submit`, µs.
    pub send_lag_us: f64,
    /// Time spent inside `submit` (blocked on a full queue or not), s.
    pub submit_s: f64,
    pub phases: PhaseBreakdown,
    pub batch_size: usize,
    /// Logits bit-identical to the batch-1 reference.
    pub correct: bool,
}

impl Sample {
    /// Client latency the four server phases do not cover, µs.
    pub fn outside_us(&self) -> f64 {
        let p = self.phases;
        self.latency_us - (p.queue_wait_us + p.assembly_us + p.forward_us + p.handoff_us) as f64
    }
}

/// Everything one window measured.
pub struct Window {
    pub samples: Vec<Sample>,
    /// Requests sent.
    pub sent: u64,
    /// Window start until the last answer, s.
    pub wall_s: f64,
    /// Process CPU over the window, s.
    pub cpu_s: f64,
}

impl Window {
    pub fn ok(&self) -> u64 {
        self.samples.iter().filter(|s| s.correct).count() as u64
    }

    /// Failed, wrong or missing responses.
    pub fn failed(&self) -> u64 {
        self.sent - self.ok()
    }
}

struct InFlight {
    index: usize,
    due: Instant,
    sent: Instant,
    submit_s: f64,
    ticket: Ticket,
}

/// Sends request `i` at `start + due[i]` from the calling thread; one
/// collector thread waits the tickets in order. Latency counts from the due
/// time, so a late send is the client's latency too.
pub fn drive(server: &Server, images: &[Tensor], expected: &[Vec<f32>], due: &[f64], start: Instant) -> Window {
    let cpu0 = cpu_seconds();
    let (work_tx, work_rx) = mpsc::channel::<InFlight>();
    let (done_tx, done_rx) = mpsc::channel::<(Sample, Instant)>();
    let expected_owned: Vec<Vec<f32>> = expected.to_vec();
    let pool = images.len();
    let collector = std::thread::Builder::new()
        .name("perfbench-collector".into())
        .spawn(move || {
            for f in work_rx {
                let p = f.ticket.wait();
                let done = Instant::now();
                let sample = Sample {
                    latency_us: done.duration_since(f.due).as_secs_f64() * 1e6,
                    send_lag_us: f.sent.duration_since(f.due).as_secs_f64() * 1e6,
                    submit_s: f.submit_s,
                    phases: p.phases,
                    batch_size: p.batch_size,
                    correct: p.id == f.index as u64 && logits_match(&expected_owned[f.index % pool], &p.logits),
                };
                if done_tx.send((sample, done)).is_err() {
                    return;
                }
            }
        })
        .expect("spawn collector");
    tighten_timer_slack();
    for (index, &offset) in due.iter().enumerate() {
        let due_at = start + Duration::from_secs_f64(offset);
        let now = Instant::now();
        if due_at > now {
            std::thread::sleep(due_at - now);
        }
        let sent = Instant::now();
        let ticket = server.submit(index as u64, images[index % pool].clone());
        let submit_s = sent.elapsed().as_secs_f64();
        work_tx.send(InFlight { index, due: due_at, sent, submit_s, ticket }).expect("collector alive");
    }
    drop(work_tx);
    let deadline = Instant::now() + GRACE;
    let mut samples = Vec::with_capacity(due.len());
    let mut last = start;
    while samples.len() < due.len() {
        let left = deadline.saturating_duration_since(Instant::now());
        match done_rx.recv_timeout(left) {
            Ok((sample, done)) => {
                samples.push(sample);
                last = last.max(done);
            }
            Err(_) => break,
        }
    }
    if samples.len() == due.len() {
        collector.join().expect("collector panicked");
    }
    Window {
        samples,
        sent: due.len() as u64,
        wall_s: last.duration_since(start).as_secs_f64(),
        cpu_s: cpu_seconds() - cpu0,
    }
}

fn pct(values: impl Iterator<Item = f64>, q: f64, what: &str) -> f64 {
    let v: Vec<f64> = values.collect();
    percentile(&v, q).unwrap_or_else(|| {
        panic!("{what}: {} samples are too few for a q={q} percentile; run longer", v.len())
    })
}

/// The `q`-percentile of client latency over every answered request, ms.
pub fn latency_ms(w: &Window, q: f64) -> f64 {
    pct(w.samples.iter().map(|s| s.latency_us), q, "client latency") / 1e3
}

/// The end-to-end metrics of one timed window.
pub fn end_to_end(setup_s: f64, w: &Window, seconds: f64) -> Outcome {
    let limit_us = LATENCY_LIMIT_MS * 1e3;
    let good = w.samples.iter().filter(|s| s.correct && s.latency_us <= limit_us).count();
    let mut out = Outcome { attempted: w.sent, failed: w.failed(), metrics: Vec::new() };
    out.push("setup_s", setup_s, "s");
    out.push("wall_s", w.wall_s, "s");
    out.push("cpu_s", w.cpu_s, "s");
    out.push("peak_rss_mb", peak_rss_mb(), "MiB");
    out.push("latency_p50_ms", latency_ms(w, 0.5), "ms");
    out.push("goodput_rps", good as f64 / seconds, "req/s");
    out.push("cpu_us_per_req", w.cpu_s * 1e6 / w.sent.max(1) as f64, "us");
    out
}

/// The `serve.*` and `bench.*` ledger entries of one window, from exact
/// per-request samples (never the log2 phase histograms).
pub fn layer_values(w: &Window, into: &mut BTreeMap<&'static str, f64>) {
    let s = &w.samples;
    let phase = |f: fn(&PhaseBreakdown) -> u64| s.iter().map(move |x| f(&x.phases) as f64);
    // A batch of b contributes b samples of 1/b each.
    let batches = s.iter().map(|x| 1.0 / x.batch_size.max(1) as f64).sum::<f64>().round();
    into.insert("bench.latency_p99_ms", latency_ms(w, 0.99));
    into.insert("serve.sent", w.sent as f64);
    into.insert("serve.ok", w.ok() as f64);
    into.insert("serve.failed", w.failed() as f64);
    into.insert("serve.batches", batches);
    into.insert("serve.batch_mean", s.len() as f64 / batches.max(1.0));
    into.insert("serve.queue_wait_p50_us", pct(phase(|p| p.queue_wait_us), 0.5, "queue wait"));
    into.insert("serve.queue_wait_p99_us", pct(phase(|p| p.queue_wait_us), 0.99, "queue wait"));
    into.insert("serve.assembly_p99_us", pct(phase(|p| p.assembly_us), 0.99, "assembly"));
    into.insert("serve.forward_p50_us", pct(phase(|p| p.forward_us), 0.5, "forward"));
    into.insert("serve.forward_p99_us", pct(phase(|p| p.forward_us), 0.99, "forward"));
    into.insert("serve.handoff_p99_us", pct(phase(|p| p.handoff_us), 0.99, "handoff"));
    into.insert("serve.outside_p99_us", pct(s.iter().map(Sample::outside_us), 0.99, "outside"));
    into.insert("serve.submit_blocked_s", s.iter().map(|x| x.submit_s).sum());
    into.insert("bench.send_lag_p99_us", pct(s.iter().map(|x| x.send_lag_us), 0.99, "send lag"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use cae_nn::infer::{Activation, FrozenOp};

    fn tiny_model() -> FrozenClassifier {
        let n = 4 * 3 * 9;
        let weight =
            Tensor::from_vec((0..n).map(|i| ((i as f32) * 0.37).sin()).collect(), &[4, 3, 3, 3]).unwrap();
        let spatial = vec![FrozenOp::Conv {
            weight,
            bias: Some(Tensor::zeros(&[4])),
            spec: cae_tensor::conv::Conv2dSpec::new(3, 1, 1),
            act: Activation::Relu,
            qweight: None,
        }];
        let head = Tensor::from_vec((0..20).map(|i| ((i as f32) * 0.53).cos()).collect(), &[4, 5]).unwrap();
        FrozenClassifier::new(spatial, head, Tensor::zeros(&[5]))
    }

    fn started(model: FrozenClassifier, images: &[Tensor]) -> (Server, Vec<Vec<f32>>) {
        let expected = images.iter().map(|x| model.forward(x).data().to_vec()).collect();
        (Server::start(model, ServeOptions::default()), expected)
    }

    #[test]
    fn same_seed_same_schedule_and_images() {
        assert_eq!(schedule(3, 1000.0, 2.0), schedule(3, 1000.0, 2.0));
        assert_ne!(schedule(3, 1000.0, 2.0), schedule(4, 1000.0, 2.0));
        let a = image_pool(3);
        let b = image_pool(3);
        assert!(a.iter().zip(&b).all(|(x, y)| x.data() == y.data()));
        assert_ne!(a[0].data(), image_pool(4)[0].data());
        // Poisson: about rate x seconds arrivals, increasing, in the window.
        let due = schedule(9, 5000.0, 2.0);
        assert!((9000..11000).contains(&due.len()), "{} arrivals", due.len());
        assert!(due.windows(2).all(|w| w[0] < w[1]) && due[due.len() - 1] < 2.0);
    }

    #[test]
    fn latency_counts_from_the_due_time_not_the_submit_time() {
        let images = image_pool(1);
        let (server, expected) = started(tiny_model(), &images);
        // The window "started" 40 ms ago, so every send is 40 ms late.
        let start = Instant::now() - Duration::from_millis(40);
        let w = drive(&server, &images, &expected, &[0.0, 0.0005, 0.001], start);
        server.shutdown();
        assert_eq!(w.ok(), 3);
        for s in &w.samples {
            assert!(s.latency_us >= 40_000.0, "latency {} us ignores the late send", s.latency_us);
            assert!(s.send_lag_us >= 38_000.0);
            assert!(s.outside_us() >= 38_000.0, "late send shows outside the server phases");
        }
    }

    #[test]
    fn corrupted_expected_logits_fail_the_run() {
        let images = image_pool(2);
        let (server, mut expected) = started(tiny_model(), &images);
        let due: Vec<f64> = (0..40).map(|i| i as f64 * 1e-4).collect();
        let clean = drive(&server, &images, &expected, &due, Instant::now());
        assert_eq!((clean.sent, clean.failed()), (40, 0));
        // Flip one bit of one reference: the requests for that image fail.
        expected[5][0] = f32::from_bits(expected[5][0].to_bits() ^ 1);
        let corrupt = drive(&server, &images, &expected, &due, Instant::now());
        server.shutdown();
        assert_eq!(corrupt.failed(), 1);
        // Enough answers for every reported percentile; one is still wrong.
        let mut samples = corrupt.samples.clone();
        samples.extend((0..100).map(|_| corrupt.samples[0]));
        let w = Window { sent: samples.len() as u64, samples, wall_s: 1.0, cpu_s: 0.1 };
        let outcome = end_to_end(1.0, &w, 1.0);
        assert!(outcome.fail_pct() > 0.0 && !outcome.correct());
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, crate::record::END_TO_END);
    }

    #[test]
    fn logits_match_is_bit_exact() {
        assert!(logits_match(&[1.0, -0.0], &[1.0, -0.0]));
        assert!(!logits_match(&[0.0], &[-0.0]));
        assert!(!logits_match(&[1.0], &[1.0, 2.0]));
    }
}
