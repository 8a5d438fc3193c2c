#!/usr/bin/env bash
# The one command of the perf ledger.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run of one workload; the last stdout line is the result object
#       (end-to-end metrics untraced, per-layer metrics traced).
#   benchmark/run.sh [--seed <n>] [--seconds <s>]
#       a full set: every workload, untraced; appends one line to
#       benchmark/history.jsonl.
#   benchmark/run.sh --trace [...]
#       a full set plus the traced run of every workload: per-layer rows and
#       span files under benchmark/out/.
#   benchmark/run.sh --agree [...]
#       two full sets back to back with the same seed, side by side; fails
#       if any end-to-end metric differs by more than its bound.
#
# Builds `dpq-node` at the repository root (its own Cargo.toml/Cargo.lock,
# the binary users run) and the harness in benchmark/ (a workspace of its
# own), then starts the harness from the root. Offline; nothing is fetched.
set -euo pipefail
cd "$(dirname "$0")/.."

# A relative CARGO_TARGET_DIR means "relative to where cargo starts", which
# differs between the two builds; pin it down once.
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
  case "$CARGO_TARGET_DIR" in
    /*) root_target=$CARGO_TARGET_DIR ;;
    *) root_target=$PWD/$CARGO_TARGET_DIR ;;
  esac
  bench_target=$root_target
else
  root_target=$PWD/target
  bench_target=$PWD/benchmark/target
fi

CARGO_TARGET_DIR=$root_target cargo build --release --offline --locked --quiet \
  -p dpq-net --bin dpq-node
CARGO_TARGET_DIR=$bench_target cargo build --release --offline --locked --quiet \
  --manifest-path benchmark/Cargo.toml

DPQ_NODE_BIN=$root_target/release/dpq-node exec "$bench_target/release/ledger" "$@"
