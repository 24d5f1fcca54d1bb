#!/usr/bin/env bash
# Full local gate: build, tests, lints, formatting.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
# --workspace matters: the root package alone does not cover the
# `rextract` binary the smoke tests below drive.
cargo build --release --workspace

echo "== cargo test (workspace) =="
cargo test -q --workspace

echo "== cargo test (workspace, failpoints) =="
cargo test -q --workspace --features failpoints

echo "== examples =="
# Clippy compiles the examples; this runs them. A step that fails its
# `expect` or `unwrap` exits non-zero and stops the gate.
for example in examples/*.rs; do
  name=$(basename "$example" .rs)
  echo "-- $name"
  cargo run -q --release --offline --example "$name" > /dev/null
done

echo "== perfbench build + test =="
# perfbench is a Cargo workspace of its own, so the steps above never
# compile it; it builds against the crates' public entry points.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy --workspace --all-targets --features failpoints -- -D warnings

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== rustdoc links =="
# Doc links must resolve, and public docs must not link private items.
# The vendored stubs are workspace members despite `exclude`, so they are
# excluded by name; --lib skips the CLI binary, whose docs collide with
# the root `rextract` lib's.
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
  cargo doc --workspace --no-deps --offline --lib \
  --exclude rand --exclude proptest --exclude criterion

echo "== extraction engine smoke (fast profile) =="
# Asserts the one-pass sweep and two-pass (and naive, on small
# documents) agree on every bench corpus document; timings are
# informational here.
EXTRACT_BENCH_FAST=1 BENCH_WARMUP_MS=5 BENCH_MEASURE_MS=40 \
  cargo bench -q -p bench --bench extract_throughput

echo "== corpus pipeline smoke (fast profile) =="
# 2 000-page catalog, every tuple cross-checked against ground truth,
# output bytes asserted identical across the worker sweep.
CORPUS_BENCH_FAST=1 cargo bench -q -p bench --bench corpus_throughput

echo "== daemon smoke test =="
scripts/serve_smoke.sh

echo "== pipeline smoke test =="
scripts/pipeline_smoke.sh

echo "== query smoke test =="
scripts/query_smoke.sh

echo "== chaos smoke test =="
scripts/chaos_smoke.sh

echo "== drift smoke test =="
scripts/drift_smoke.sh

echo "All checks passed."
