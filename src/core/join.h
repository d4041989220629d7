#ifndef SSJOIN_CORE_JOIN_H_
#define SSJOIN_CORE_JOIN_H_

#include <string>
#include <utility>
#include <vector>

#include "core/band_partition.h"
#include "core/cluster_mem.h"
#include "core/join_common.h"
#include "core/pair_count.h"
#include "core/predicate.h"
#include "core/prefix_filter_join.h"
#include "core/probe_cluster.h"
#include "core/probe_join.h"
#include "core/word_groups.h"
#include "data/record_set.h"
#include "util/status.h"

namespace ssjoin {

/// Paper-style display name, e.g. "ProbeCount-optMerge".
const char* JoinAlgorithmName(JoinAlgorithm algorithm);

/// Union of per-algorithm knobs; the driver picks the relevant block.
/// The algorithm picks the variant (Probe-Count ladder rung, the §3.1
/// threshold optimization of Pair-Count and Word-Groups); these only set
/// limits and tuning values. The Probe-Count family and PrefixFilter have
/// none besides num_threads.
struct JoinOptions {
  ClusterSetOptions cluster;  // Probe-Cluster
  ClusterMemOptions cluster_mem;
  PairCountOptions pair_count;
  WordGroupsOptions word_groups;

  /// Worker threads for the index-probe algorithms (the Probe-Count
  /// family and PrefixFilter), passed straight to ProbeJoin and
  /// PrefixFilterJoin: each runs one per-position body, inline when this
  /// is <= 1, else with the read-only index built once and record probes
  /// fanned out across this many workers, output merged deterministically
  /// (sorted pairs, partition-summed stats). Pairs are identical to the
  /// serial path at any thread count; each parallel probe sees the index
  /// the serial probe at its position sees, so the counters match too,
  /// except the Probe-Count merge counters under per-record token weights
  /// (see ProbeJoin). Algorithms whose probe loop mutates shared state
  /// (Probe-Cluster, ClusterMem, Pair-Count, Word-Groups) ignore this
  /// and run sequentially; see DESIGN.md "Threading model".
  int num_threads = 1;
};

/// Runs `algorithm` over `records` under `pred`:
///   1. pred.Prepare(records) installs scores and norms;
///   2. the algorithm emits each matching pair once (smaller id first);
///   3. when the predicate declares a short-record bound (edit distance),
///      the degenerate short-short pairs are joined brute-force and
///      deduplicated against the main output.
Result<JoinStats> RunJoin(RecordSet* records, const Predicate& pred,
                          JoinAlgorithm algorithm, const JoinOptions& options,
                          const PairSink& sink);

/// Convenience wrapper collecting the output, sorted ascending.
Result<std::vector<std::pair<RecordId, RecordId>>> JoinToPairs(
    RecordSet* records, const Predicate& pred, JoinAlgorithm algorithm,
    const JoinOptions& options = {});

/// Reference O(n^2) join via Predicate::Matches. `records` must already be
/// Prepare()d.
JoinStats BruteForceJoin(const RecordSet& records, const Predicate& pred,
                         const PairSink& sink);

/// Section 5.3 alternative to inline filter evaluation: band-partition the
/// records on their norm with range `k`, run the Probe-Cluster join inside
/// every partition, and deduplicate the output. Exact for predicates whose
/// filter is |norm_r - norm_s| <= k (edit distance with k = max edits).
/// With num_threads > 1 the partitions run concurrently (each partition's
/// join stays sequential inside); per-partition pair buffers are replayed
/// in partition order through the shared dedup, so output and stats are
/// byte-identical to the serial run.
Result<JoinStats> BandPartitionedJoin(RecordSet* records,
                                      const Predicate& pred, double k,
                                      BandStrategy strategy,
                                      const PairSink& sink,
                                      int num_threads = 1);

}  // namespace ssjoin

#endif  // SSJOIN_CORE_JOIN_H_
