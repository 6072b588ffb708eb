#!/usr/bin/env bash
# Build qelectctl and the benchmark from this checkout, then run one
# workload:
#
#   bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f Cargo.toml ] || [ ! -d crates/bench ]; then
    echo "perfbench: $root is not a qelect checkout (no Cargo.toml or crates/)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p qelect-bench --bin qelectctl >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/qelect-perfbench" \
    --qelectctl "$CARGO_TARGET_DIR/release/qelectctl" \
    --scratch "$CARGO_TARGET_DIR/perfbench" \
    "$@"
