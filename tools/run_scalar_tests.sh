#!/usr/bin/env sh
# Builds the regular configuration and runs the probe/merge test suites
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
# join, streaming join, Probe-Cluster and ClusterMem suites run that body
# through the scalar gallop too.
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
cmake --build "$build_dir" -j --target \
      merge_opt_test bitmap_filter_test differential_test \
      arena_equivalence_test join_equivalence_test prefix_filter_test \
      parallel_join_test foreign_join_test streaming_join_test \
      probe_cluster_test cluster_mem_test serve_test serve_shard_test
SSJOIN_FORCE_SCALAR=1
export SSJOIN_FORCE_SCALAR
ctest --test-dir "$build_dir" \
      -R '(merge_opt|bitmap_filter|differential|arena_equivalence|join_equivalence|prefix_filter|parallel_join|foreign_join|streaming_join|probe_cluster|cluster_mem|serve_test|serve_shard_test)' \
      --output-on-failure
