#ifndef SSJOIN_CORE_PARALLEL_PROBE_H_
#define SSJOIN_CORE_PARALLEL_PROBE_H_

#include <cstdint>
#include <functional>

#include "core/join_common.h"

namespace ssjoin {

/// Parallel execution layer for the index-probe join algorithms.
///
/// All of them share one shape: build a read-only index over the corpus,
/// then probe it once per record, where probe `pos` may only pair with
/// entries at earlier positions (each unordered pair is found exactly
/// once, from its later endpoint). The probes are independent, so after
/// the index is frozen they fan out across a ThreadPool.
///
/// Determinism contract: workers accumulate into private JoinStats and
/// private pair buffers; the driver reduces stats with
/// JoinStats::MergePartition (every counter a scheduling-independent sum)
/// and sorts the union of the pair buffers before emitting, so the
/// output pair sequence and the merged stats are byte-identical across
/// runs and thread counts.
///
/// Its two callers, ProbeJoin and PrefixFilterJoin with num_threads > 1,
/// each run their serial per-position probe body here; an online or
/// presorted probe sees only the index prefix below its own position,
/// exactly what the serial loop had indexed when it got there. Algorithms
/// that mutate shared state between probes stay sequential: Probe-Cluster
/// and ClusterMem phase 1 grow the ClusterSet with every record, and
/// Pair-Count / Word-Groups are whole-index aggregations, not probe
/// loops. See DESIGN.md "Threading model".
class ParallelProbeDriver {
 public:
  /// Probes one position. `worker` indexes per-worker scratch owned by
  /// the caller, `stats` is the worker's private counter block and
  /// `emit` its private buffering sink.
  using ProbeFn = std::function<void(uint32_t pos, int worker,
                                     JoinStats* stats, const PairSink& emit)>;

  /// Runs probe(pos) for every pos in [0, n) on up to `num_threads`
  /// workers, then merges per-worker results deterministically and
  /// emits the sorted pairs to `sink` on the calling thread.
  static JoinStats Run(size_t n, int num_threads, const ProbeFn& probe,
                       const PairSink& sink);
};

}  // namespace ssjoin

#endif  // SSJOIN_CORE_PARALLEL_PROBE_H_
