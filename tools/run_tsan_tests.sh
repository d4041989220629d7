#!/usr/bin/env sh
# Builds the ThreadSanitizer configuration and runs the concurrency test
# suite (thread pool, parallel joins, serving layer, network loopback;
# the `tsan` ctest label, whose suites tests/CMakeLists.txt lists once)
# under it. serve_shard_test's concurrency stress runs a durable
# service, whose compactions write and map segment files under
# concurrent readers, so the mapped read path runs under TSan too.
#
#   tools/run_tsan_tests.sh [build-dir]
#
# The TSan build lives in its own directory (default build-tsan) so the
# regular build stays untouched.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build-tsan"}

cmake -B "$build_dir" -S "$repo_root" -DSSJOIN_TSAN=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_dir" -j --target tsan_tests
# The differential harness — including its scripted Delete schedules
# (tombstones riding delta images under concurrent readers) — is
# CPU-heavy under TSan; keep the sweep small here (override by exporting
# SSJOIN_DIFF_SEEDS). The concurrency stress tests, whose writers
# interleave inserts, deletes and compactions, run in full regardless.
SSJOIN_DIFF_SEEDS=${SSJOIN_DIFF_SEEDS:-2}
export SSJOIN_DIFF_SEEDS
ctest --test-dir "$build_dir" -L tsan --output-on-failure
