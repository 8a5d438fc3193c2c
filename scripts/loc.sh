#!/usr/bin/env bash
# The north-star line count: every tracked Rust source under crates/*/src,
# src/ and benchmark/src. scripts/check.sh fails when it differs from
# scripts/loc-ceiling.txt: a PR that legitimately adds code raises the
# ceiling in the same diff, one that deletes code lowers it.
set -euo pipefail
cd "$(dirname "$0")/.."
git ls-files 'crates/*/src/*.rs' 'src/*.rs' 'benchmark/src/*.rs' | xargs wc -l | tail -1 | awk '{print $1}'
