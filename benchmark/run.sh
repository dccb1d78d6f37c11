#!/usr/bin/env bash
# Build the benchmark package and run it. Arguments go to the binary:
#   --workload NAME --seed N --seconds S --trace 0|1   one run, one JSON line last
#   [--seed N] [--seconds S] [--smoke]                 every workload, both modes
set -euo pipefail
dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$dir/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$dir/target}/release/perflow-benchmark" --dir "$dir" "$@"
