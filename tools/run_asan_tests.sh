#!/usr/bin/env sh
# Builds the AddressSanitizer+UBSan configuration and runs the memory-
# layout test suite under it (the `asan` ctest label; tests/CMakeLists.txt
# lists its suites once): the arena/view/index unit tests (the
# RecordSet arena and its document-frequency counts in record_test, the
# tokenizers, dictionary and borrowed-table TF-IDF weighter in
# text_test) plus the golden-output and join-equivalence suites, which
# together walk every probe loop over the CSR corpus arena and the flat
# postings buffer; Pair-Count's pair aggregation and Word-Groups with
# both itemset miners (pair_count_test, word_groups_test, apriori_test,
# dfs_miner_test), whose record lists, large-list bit vectors and MinHash
# signatures are indexed by token and record id; the suites of every
# caller of the shared probe-and-verify body
# (cross join, Probe-Cluster and ClusterMem member probes, the serving
# tiers in serve_test), whose reused scratch and
# sorted short-pool walk are exactly the buffer reuse ASan watches; the
# top-k join (topk_join_test), the merger's only production RaiseFloor
# caller, whose mid-block floor raises move lists out of the counting
# block (merge_opt_test raises the floor mid-block directly); and
# PrefixFilter's one per-position body at 1 and 4 threads; the
# durability suites (util's durable-file helpers — CRC32, atomic
# write, errno context — plus WAL framing and crash recovery, including
# multi-segment chain restore, orphan segment GC, corrupt and crafted
# files, and the mutation fuzz of the segment-file, manifest and WAL
# frame decoders), whose byte-level decoders parse attacker-shaped torn
# and corrupted files, and the network layer
# (protocol parser + wire framing + the loopback server), whose framers
# chew on byte-split, oversized and mutated input. The
# token-bitmap differential (bitmap_filter_test) rides along:
# PrefixFilter's per-join prefix, bitmap and pmax table reads are
# exactly the pointer arithmetic ASan/UBSan exist to check. Every
# durable service serves its segments from mmap'd, open-time-proven
# segment files, so the recovery suite runs every view-mode accessor
# path over the mapped arenas under ASan too, and its segment-file fuzz
# queries every mutated file the opener accepts.
#
#   tools/run_asan_tests.sh [build-dir]
#
# The ASan build lives in its own directory (default build-asan) so the
# regular build stays untouched.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build-asan"}

cmake -B "$build_dir" -S "$repo_root" -DSSJOIN_ASAN=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_dir" -j --target asan_tests
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
ctest --test-dir "$build_dir" -L asan --output-on-failure
