#!/usr/bin/env bash
# The package's own gate (the repository's CI does not cover it): format,
# lints, unit and integration tests, then every workload in smoke mode.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline
cargo run --offline --release --quiet -- --smoke >/dev/null
echo "benchmark: all checks passed" >&2
