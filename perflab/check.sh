#!/bin/sh
# Format, lint and test the benchmark package (not the simulator).
set -eu
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline
