#!/usr/bin/env bash
# Builds, tests and smoke-runs the benchmark. Not wired into
# .github/workflows/ci.yml yet: a later change adds one job that calls this.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
cargo build --release --offline --manifest-path "$manifest"
cargo test --release --offline --manifest-path "$manifest"
cargo run --release --offline --quiet --manifest-path "$manifest" -- --quick
