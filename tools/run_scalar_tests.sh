#!/usr/bin/env sh
# Builds the regular configuration and runs the probe/merge test suites
# (the `scalar` ctest label; tests/CMakeLists.txt lists its suites once)
# with SSJOIN_FORCE_SCALAR=1, pinning the merge backend to the portable
# scalar gallop path. The backend is resolved once per process, so the
# vectorized leg and this scalar leg cannot share a process — this script
# IS the scalar half of the scalar/vector differential: every suite it
# runs asserts the same answers the default (AVX2 where available) leg
# asserts, and MergeLowerBoundTest additionally verifies that the active
# backend really reports "scalar" under the override. parallel_join_test
# checks that serial and parallel probe joins still agree counter for
# counter (gallop counts included) on the scalar backend, and
# arena_equivalence_test's work goldens pin every counter of the shared
# probe-and-verify body's callers against the scalar column. The cross
# join, Probe-Cluster, ClusterMem and serving suites run that body
# through the scalar gallop too, and topk_join_test runs the top-k
# join's floor raises, which move lists into the scalar direct searches
# mid-merge.
#
#   tools/run_scalar_tests.sh [build-dir]
#
# The build lives in its own directory (default build-scalar) so the
# regular build stays untouched. The binaries are identical to the
# regular build's — only the runtime dispatch differs — but a separate
# directory keeps ctest caches and logs from interleaving.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build-scalar"}

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_dir" -j --target scalar_tests
SSJOIN_FORCE_SCALAR=1
export SSJOIN_FORCE_SCALAR
ctest --test-dir "$build_dir" -L scalar --output-on-failure
