#!/bin/bash
# Builds the benchmark package — `pipeline` and the `calibrate` binary it
# starts — and runs `pipeline` with the given arguments. From the
# repository root:
#
#   bash crates/bench/src/bin/pipeline/run.sh --workload app_scan --seed 0xD514 --seconds 20 --trace 0
set -euo pipefail
manifest="$(dirname "$0")/Cargo.toml"
cargo build --release --offline --quiet --manifest-path "$manifest" --bins
exec cargo run --release --offline --quiet --manifest-path "$manifest" --bin pipeline -- "$@"
