#!/usr/bin/env bash
# Repo-wide quality gate. Run before pushing; CI runs the same steps.
#
#   ./scripts/check.sh           # fmt + clippy + build + tests + fault smoke
#   ./scripts/check.sh telemetry # the above, plus the telemetry tier
#   ./scripts/check.sh perf      # the above, plus the performance tier
#   ./scripts/check.sh mc        # the above, plus schedule-space model checking
#   ./scripts/check.sh coverage  # the above, plus per-crate coverage floors
#   ./scripts/check.sh net       # the above, plus the wire-conformance smoke
#   ./scripts/check.sh churn     # the above, plus the bounded churn storm
#   ./scripts/check.sh workload  # the above, plus the E19 open-loop smoke
set -euo pipefail
cd "$(dirname "$0")/.."

TIER=${1:-}

cargo fmt --all -- --check

# North-star ratchet, both directions: the crates/*/src + src +
# benchmark/src line count must equal the committed ceiling. A PR that
# legitimately adds code raises the ceiling in the same diff, so growth is a
# reviewed decision; a PR that deletes code lowers it in the same diff, so
# the deletion cannot silently become the next PR's growth budget.
LOC=$(bash scripts/loc.sh)
CEILING=$(cat scripts/loc-ceiling.txt)
if [ "$LOC" -gt "$CEILING" ]; then
  echo "error: $LOC source lines exceed the ceiling of $CEILING (scripts/loc-ceiling.txt)" >&2
  exit 1
fi
if [ "$LOC" -lt "$CEILING" ]; then
  echo "error: $LOC source lines are below the ceiling of $CEILING: lower the ceiling to $LOC to keep the reduction (scripts/loc-ceiling.txt)" >&2
  exit 1
fi
cargo clippy --workspace --all-targets -- -D warnings
cargo build --workspace --release
cargo test --workspace -q

# Proptest regression hygiene: every *committed* seed in
# tests/*.proptest-regressions is replayed by tests/regressions.rs (part of
# the test step above). An *uncommitted* entry means a property failed
# locally and its seed was neither fixed nor committed with a replay —
# refuse to pass until it is dealt with.
if [ -n "$(git status --porcelain -- 'tests/*.proptest-regressions' 'crates/*/tests/*.proptest-regressions')" ]; then
  echo "error: uncommitted proptest regression entries:" >&2
  git status --porcelain -- 'tests/*.proptest-regressions' 'crates/*/tests/*.proptest-regressions' >&2
  echo "fix the failing property, or commit the seed together with a replay" >&2
  echo "arm in tests/regressions.rs" >&2
  exit 1
fi

# Fault-matrix smoke tier: the E16 recovery table driven through a custom
# TOML plan — exercises the --faults parsing and the fault-injection path
# end to end in release mode (the full conformance grid runs in the test
# step above, via tests/faults.rs).
cargo run -q -p dpq-bench --release --bin experiments -- e16 --faults scripts/faults-smoke.toml

# Telemetry tier (opt-in: `./scripts/check.sh telemetry`): re-run the
# dpq-telemetry suite explicitly — histogram merge/quantile proptests, the
# Prometheus exposition golden (byte-for-byte, parse → re-render
# round-trip) — and the instrumented E16 smoke with a metrics stream, so
# the JSONL exporter path is driven end to end in release mode.
if [ "$TIER" = "telemetry" ]; then
  cargo test -q -p dpq-telemetry --test hist_props --test exposition_golden
  MROOT=$(mktemp -d)
  cargo run -q -p dpq-bench --release --bin experiments -- e16 --metrics "$MROOT/metrics.jsonl"
  test -s "$MROOT/metrics.jsonl" || { echo "telemetry tier: empty metrics stream" >&2; exit 1; }
  rm -rf "$MROOT"
fi

# Perf tier (opt-in: `./scripts/check.sh perf`): the criterion smoke benches
# (scheduler stepping under the null and the drop+dup+delay plan, with and
# without a live telemetry hub), then one run of the perf ledger's simulator
# workload, which must exit 0 and report `correct: true` (a single-workload
# run does not append to benchmark/history.jsonl). Whether a change moved a
# number is the ledger's question — paired runs of parent and change with
# their spread (benchmark/README.md) — not a floor against a constant
# measured in another month. The memory floor the tier used to hold is a
# deterministic test now: crates/bench/tests/zero_alloc.rs, in the test
# step above.
if [ "$TIER" = "perf" ]; then
  cargo bench -q -p dpq-bench --bench sched_step
  bash benchmark/run.sh --workload sim_skeap_100k --seed 1 --seconds 20 --trace 0 \
    | tail -n 1 | tee /dev/stderr | grep -q '"correct": true' \
    || { echo "perf tier: sim_skeap_100k did not report correct: true" >&2; exit 1; }
fi

# Model-checking tier (opt-in: `./scripts/check.sh mc`): bounded DFS over
# message-delivery interleavings plus seeded random walks, per scenario.
# The clean scenarios carry the coverage bar — at least 10k distinct
# schedules per protocol, zero violations; the drops scenarios add
# fault-path interleavings at a smaller budget. Then the mutation smoke: a
# seeded witness bug (compiled only under --cfg mc_mutate, in a separate
# target dir so caches stay intact) must be found, shrunk to at most 15
# delivery decisions, and reproduced bit-for-bit from schedule.json.
# Budgets are tuned to keep the whole tier under five minutes in release;
# see docs/TESTING.md for the tier's reproduction recipes.
if [ "$TIER" = "mc" ]; then
  MC=target/release/dpq-mc
  "$MC" explore --scenario skeap_clean \
    --max-depth 26 --max-branch 5 --runs 60000 --walks 5000 --min-distinct 10000
  "$MC" explore --scenario seap_clean \
    --max-depth 22 --max-branch 4 --runs 30000 --walks 3000 --min-distinct 10000
  "$MC" explore --scenario kselect_clean \
    --max-depth 22 --max-branch 4 --runs 30000 --walks 3000 --min-distinct 10000
  "$MC" explore --scenario skeap_drops \
    --max-depth 12 --max-branch 4 --runs 4000 --walks 400
  "$MC" explore --scenario seap_drops \
    --max-depth 12 --max-branch 4 --runs 4000 --walks 400
  "$MC" explore --scenario kselect_drops \
    --max-depth 10 --max-branch 3 --runs 1500 --walks 200
  mkdir -p target/mc-mutate
  CARGO_TARGET_DIR=target/mc-mutate RUSTFLAGS="--cfg mc_mutate" \
    cargo run -q -p dpq-mc --release --bin dpq-mc -- \
    smoke --scenario skeap_clean --max-shrunk 15 --out target/mc-mutate/schedule.json
fi

# Wire-conformance tier (opt-in: `./scripts/check.sh net`): the 3-process
# loopback smoke from crates/net/tests/wire_conformance.rs — real dpq-node
# daemons on Unix sockets, driven through the control plane, traces replayed
# through the sim oracles — plus the two tests that pin the send path: a
# peer that stops reading must never block or tear the sender's stream, and
# a held ack must leave within a tick (no retransmission at --rto 4) — and
# the poll loop's own: misbehaving peer and ctl clients pin no thread and
# stall no one, and only an idle Seap anchor is paced. A hard
# timeout guards against a wedged cluster or a blocked send (a live-locked
# retransmit loop would otherwise hang CI), and the trap reaps any dpq-node
# orphans the timeout may strand: the harness kills its children on drop,
# but a SIGKILLed test binary cannot run destructors.
if [ "$TIER" = "net" ]; then
  cleanup_net() { pkill -f "$PWD/target/[^ ]*/dpq-node" 2>/dev/null || true; }
  trap cleanup_net EXIT
  timeout --signal=KILL 180 \
    cargo test -q -p dpq-net --test wire_conformance smoke_three_process_uds
  timeout --signal=KILL 180 \
    cargo test -q -p dpq-net --test peers_send a_stalled_reader
  timeout --signal=KILL 180 \
    cargo test -q -p dpq-net --test ack_hold
  timeout --signal=KILL 180 \
    cargo test -q -p dpq-net --test reactor
  cleanup_net
  trap - EXIT
fi

# Churn tier (opt-in: `./scripts/check.sh churn`): the bounded membership
# storm from crates/gossip/tests/storm_release.rs — 256 nodes plus 128
# spares, a crash or join every 5 rounds for 1200 scheduled rounds under
# 5% drop, membership driven end to end by the phi-accrual detector, with
# the element-conservation and placement oracles scanned continuously.
# Release-only (about ten seconds in release, minutes in debug); the
# full-scale n=2048 headline storm lives in the same file
# (churn_storm_full_scale) and runs on demand.
if [ "$TIER" = "churn" ]; then
  cargo test --release -q -p dpq-gossip --test storm_release -- --ignored --exact churn_storm_bounded
fi

# Workload tier (opt-in: `./scripts/check.sh workload`): the E19 rank-error
# shootout driven through a custom open-loop spec (n = 32 <= 64) — exercises
# the --workload TOML parsing, the schedule generator, both strict drivers
# and both relaxed executors end to end in release mode. E19 itself asserts
# the headline invariant (strict protocols rank-error 0 in every cell), so
# a nonzero exit here means the semantics regressed, not just the harness.
if [ "$TIER" = "workload" ]; then
  cargo run -q -p dpq-bench --release --bin experiments -- e19 --workload scripts/workload-smoke.toml
fi

# Coverage tier (opt-in: `./scripts/check.sh coverage`): per-crate line
# coverage against the floors committed in scripts/coverage-floors.txt
# (warn-only for dpq-bench), snapshot written to COVERAGE_pr4.json at the
# repository root. Requires cargo-llvm-cov; when it is not installed (e.g.
# offline containers) the tier warns and skips rather than failing.
if [ "$TIER" = "coverage" ]; then
  if command -v cargo-llvm-cov >/dev/null 2>&1; then
    cargo llvm-cov --workspace --json --output-path COVERAGE_pr4.json
    python3 scripts/coverage_floor.py COVERAGE_pr4.json scripts/coverage-floors.txt
  else
    echo "warning: cargo-llvm-cov not installed; skipping the coverage tier" >&2
    echo "         (cargo install cargo-llvm-cov, then re-run)" >&2
  fi
fi
