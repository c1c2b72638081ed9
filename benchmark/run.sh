#!/usr/bin/env bash
# Builds the benchmark crate (release, offline — every dependency is a path
# in this repository) and runs one workload in a fresh process:
#
#   bash benchmark/run.sh --workload city_benign --seed 1 --seconds 10 --trace 0
#
# This is the command recorded in /BENCHMARK.json. Run it from anywhere.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Build into the repository's own target/ unless the caller chose a
# directory, so one checkout has one build tree.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/vehigan-benchmark" "$@"
