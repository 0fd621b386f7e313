#!/usr/bin/env bash
# Build the benchmark offline, compiled like the product (the root
# manifest's release profile is copied into benchmark/Cargo.toml), and
# run it.
#
#   benchmark/run.sh                         every workload: the end-to-end
#                                            metrics, then the traced run's
#                                            per-layer metrics
#   benchmark/run.sh --workload <name> ...   one workload, as the driver of
#                                            BENCHMARK.json calls it
#   benchmark/run.sh all --smoke             a two-second pass per workload
#   benchmark/run.sh aa                      the same-code self-check
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
run=(cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" --)
if [ $# -eq 0 ]; then
    "${run[@]}" all
    exec "${run[@]}" all --traced
fi
exec "${run[@]}" "$@"
