#!/usr/bin/env bash
# A/A check: runs the timed suite twice on the same commit and fails if any end-to-end
# metric of any workload differs between the two by more than its bound in
# BENCHMARK.json. A metric that fails here cannot be used to judge a change: lengthen
# or resize its workload rather than widening its bound.
#
#   benchmark/check.sh [seed]      (default seed 1; try a second seed too)
set -euo pipefail

seed="${1:-1}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
bench() {
    cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
}

bench run --seed "$seed"
mv "$here/out/run-$seed.json" "$here/out/run-$seed.first.json"
bench run --seed "$seed"
bench compare "$here/out/run-$seed.first.json" "$here/out/run-$seed.json"
