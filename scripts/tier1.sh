#!/usr/bin/env bash
# Tier-1 gate: release build, full test suite, and lint-clean clippy.
# Run from anywhere; operates on the repository that contains this script.
set -euo pipefail
cd "$(dirname "$0")/.."
# Nothing below may write to the worktree: every run redirects its
# artifacts to a temp dir, and the last step checks this snapshot.
worktree_before="$(git status --porcelain)"

cargo build --release --offline --workspace
cargo test --offline --workspace -q
# The thread-safe substrate must behave identically with an inline pool and
# with worker threads (the cell scheduler and kernel pool both key off the
# pool size, which CAE_NUM_THREADS fixes per process).
CAE_NUM_THREADS=1 cargo test --offline --workspace -q
CAE_NUM_THREADS=4 cargo test --offline --workspace -q
# Tracing is observational: the whole suite must also pass with every span,
# counter and gauge recorded ...
CAE_TRACE=1 cargo test --offline --workspace -q
# The SIMD layer's backends are bit-identical by contract: the full suite
# must pass with the dispatch forced to the scalar fallback, and the parity
# suite must hold under both the scalar and the auto-detected backend.
CAE_SIMD=scalar cargo test --offline --workspace -q
CAE_SIMD=scalar cargo test --release --offline -p cae-tensor --test simd_parity -q
cargo test --release --offline -p cae-tensor --test simd_parity -q
# The implicit-GEMM convolution must match an explicit im2col + GEMM
# bit-for-bit (forward, dW, db, dx), under both backends.
CAE_SIMD=scalar cargo test --release --offline -p cae-tensor --test implicit_conv -q
cargo test --release --offline -p cae-tensor --test implicit_conv -q
# Demand-gated backward: freezing any subset of an op's leaves must leave
# every gradient still computed bit-identical, under both backends.
CAE_SIMD=scalar cargo test --release --offline -p cae-tensor --test grad_demand -q
cargo test --release --offline -p cae-tensor --test grad_demand -q
# ... and a traced table run must reproduce the untraced report
# byte-for-byte, while rendering every telemetry view of the run: the
# trace, the flamegraph-folded profile, a self-time table that accounts
# for the experiment span and a training-health verdict.
trace_tmp="$(mktemp -d)"
trap 'rm -rf "$trace_tmp"' EXIT
CAE_TRACE=0 cargo run --release --offline -- \
  table table02 --budget smoke --out "$trace_tmp/off" >/dev/null
CAE_TRACE=1 cargo run --release --offline -- \
  table table02 --budget smoke --out "$trace_tmp/on" >"$trace_tmp/on_out.txt"
cmp "$trace_tmp/off/table_ii.json" "$trace_tmp/on/table_ii.json"
test -s "$trace_tmp/on/TRACE_table_ii.json"
test -s "$trace_tmp/on/PROFILE_table_ii.txt"
grep -q 'self-time coverage' "$trace_tmp/on_out.txt"
grep -q 'verdict:' "$trace_tmp/on_out.txt"
# Table IX counts epochs, not seconds: its report must not depend on the
# thread count either.
CAE_NUM_THREADS=1 cargo run --release --offline -- \
  table table09 --budget smoke --out "$trace_tmp/t9_1t" >/dev/null
CAE_NUM_THREADS=2 cargo run --release --offline -- \
  table table09 --budget smoke --out "$trace_tmp/t9_2t" >/dev/null
cmp "$trace_tmp/t9_1t/table_ix.json" "$trace_tmp/t9_2t/table_ix.json"
# Backend bit-identity end to end: a scalar-forced table run must reproduce
# the auto-detected report byte-for-byte.
CAE_TRACE=0 CAE_SIMD=scalar cargo run --release --offline -- \
  table table02 --budget smoke --out "$trace_tmp/scalar" >/dev/null
cmp "$trace_tmp/off/table_ii.json" "$trace_tmp/scalar/table_ii.json"
# Inference-path bit-identity: exact-mode frozen graphs must reproduce the
# Var eval forward bit-for-bit for every model (and fused graphs stay within
# tolerance of them), under both the scalar and the auto-detected SIMD
# backend.
CAE_SIMD=scalar cargo test --release --offline -p cae-nn --test frozen_parity -q
cargo test --release --offline -p cae-nn --test frozen_parity -q
# Fault isolation: with deterministic injection and no retries the table
# must still complete, rendering the injected failures as FAILED rows —
# annotated (the run is traced) with a training-health verdict saying why.
CAE_TRACE=1 CAE_FAULT_INJECT=0.2:7 CAE_CELL_RETRIES=0 cargo run --release --offline -- \
  table table02 --budget smoke --out "$trace_tmp/fault" >/dev/null
grep -q 'FAILED(' "$trace_tmp/fault/table_ii.json"
grep -q 'injected fault' "$trace_tmp/fault/table_ii.json"
grep -q 'health:' "$trace_tmp/fault/table_ii.json"
# ... and with retries enough to absorb every injected fault, the report
# must be byte-identical to the uninjected baseline (retries re-run the
# identical cell seed).
CAE_TRACE=0 CAE_FAULT_INJECT=0.2:7 CAE_CELL_RETRIES=20 cargo run --release --offline -- \
  table table02 --budget smoke --out "$trace_tmp/retry" >/dev/null
cmp "$trace_tmp/off/table_ii.json" "$trace_tmp/retry/table_ii.json"
# Live-export smoke: the exporter serve-bench starts under
# CAE_METRICS_INTERVAL_MS turns telemetry on, so its TRACE_serve.json
# carries the serve phase span stats and the queue gauges (it writes to .,
# hence the temp dir).
manifest="$PWD/Cargo.toml"
(cd "$trace_tmp" && CAE_METRICS_INTERVAL_MS=200 cargo run --release --offline \
  --manifest-path "$manifest" -- serve-bench --budget smoke --requests 200 >/dev/null)
grep -q '"serve.phase.forward": {"count"' "$trace_tmp/TRACE_serve.json"
grep -q '"serve.queue_depth": {"count"' "$trace_tmp/TRACE_serve.json"
# Serving smoke: a tiny pretrained student served over a simulated request
# trace must keep byte-identical predictions across batching configurations
# and hold the serve contract (batched speedup, p99, int8 delta);
# bench_serve exits non-zero otherwise ...
CAE_BUDGET=smoke \
  cargo run --release --offline -p cae-bench --bin bench_serve >/dev/null
# ... and two serve-bench runs with different batching cutoffs must write
# byte-identical prediction logs (the serve determinism invariant, checked
# by external byte-diff rather than in-process comparison).
cargo run --release --offline -- serve-bench --budget smoke \
  --requests 200 --clients 4 --max-batch 8 --max-latency-us 20000 \
  --log "$trace_tmp/serve_a.log" >/dev/null
cargo run --release --offline -- serve-bench --budget smoke \
  --requests 200 --clients 8 --max-batch 32 --max-latency-us 50000 \
  --log "$trace_tmp/serve_b.log" >/dev/null
cmp "$trace_tmp/serve_a.log" "$trace_tmp/serve_b.log"
# Cell-parallel scaling smoke: a 2-thread cell-parallel run must reproduce
# the serial report byte-for-byte — and, when the host actually has the
# cores, it must not be slower than serial (the cooperative scheduler's
# whole point). Skipped on single-core hosts: time-slicing two pool threads
# on one core measures nothing.
if [ "$(nproc)" -ge 2 ]; then
  serial_start=$(date +%s%N)
  CAE_TRACE=0 CAE_NUM_THREADS=1 CAE_CELL_PARALLEL=0 cargo run --release --offline -- \
    table table02 --budget smoke --out "$trace_tmp/scale_serial" >/dev/null
  serial_ns=$(( $(date +%s%N) - serial_start ))
  par_start=$(date +%s%N)
  CAE_TRACE=0 CAE_NUM_THREADS=2 CAE_CELL_PARALLEL=1 cargo run --release --offline -- \
    table table02 --budget smoke --out "$trace_tmp/scale_2t" >/dev/null
  par_ns=$(( $(date +%s%N) - par_start ))
  cmp "$trace_tmp/scale_serial/table_ii.json" "$trace_tmp/scale_2t/table_ii.json"
  # Sanity, not a benchmark: allow 10% noise headroom, but a 2-thread run
  # that is materially slower than serial means the levels are fighting.
  if [ $((par_ns * 10)) -gt $((serial_ns * 11)) ]; then
    echo "2-thread cell-parallel run slower than serial: ${par_ns}ns vs ${serial_ns}ns" >&2
    exit 1
  fi
else
  echo "scaling smoke skipped: host has $(nproc) core(s)"
fi
cargo clippy --offline --workspace --all-targets -- -D warnings
if [ "$(git status --porcelain)" != "$worktree_before" ]; then
  echo "tier1 changed the worktree (git status --porcelain before/after):" >&2
  diff <(echo "$worktree_before") <(git status --porcelain) >&2 || true
  exit 1
fi
