#!/usr/bin/env bash
# The one command. Builds the daemon and the benchmark (release, offline,
# into one shared target directory), then hands its arguments to caskbench:
#
#   bench/run.sh                      all four workloads, untraced -> bench/out/results.json
#   bench/run.sh --seed 7             ... with another seed (default 1)
#   bench/run.sh trace                traced replay + probes       -> bench/out/layers.json
#   bench/run.sh --smoke              checks only, under 15 s (also: trace --smoke)
#   bench/run.sh spread --runs 10     run-to-run spread of every end-to-end metric
#   bench/run.sh compare A.json B.json
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1    (BENCHMARK.json's command)
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
# Build chatter goes to stderr: stdout belongs to the results.
cargo build --release --offline --quiet --manifest-path Cargo.toml -p mlcask_server 1>&2
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/caskbench" "$@"
