#ifndef SSJOIN_CORE_CLUSTER_MEM_H_
#define SSJOIN_CORE_CLUSTER_MEM_H_

#include <cstdint>
#include <string>

#include "core/join_common.h"
#include "core/predicate.h"
#include "core/probe_cluster.h"
#include "data/record_set.h"
#include "util/status.h"

namespace ssjoin {

/// ClusterMem (Section 4, Algorithm 2): the limited-memory join.
///
/// Phase 1 scans the data once, maintaining only a *compressed* inverted
/// index — one posting per (token, cluster) instead of per (token,
/// record) — capped at the memory budget M. Each record's join targets
/// J(r) and home cluster h(r) are appended to a partition file (pInfo) on
/// disk.
///
/// Phase 2 packs clusters into batches whose full member-level indexes fit
/// in M, splits pInfo by batch, and streams each batch: its records, read
/// from `records` in scan order, probe the member indexes of their
/// J(r) ∩ batch clusters, and are inserted into their home cluster's
/// index when it belongs to the batch. The paper re-fetches them from the
/// database; here the corpus is the in-memory RecordSet the join was
/// given, so phase 2 reads it in place.
///
/// Records are scanned in decreasing norm order. Phase 1 is
/// Probe-Cluster's ClusterSet with M as its creation cap: once the
/// cluster-level index holds M postings (or Ng clusters exist), no cluster
/// is created, and a record with no similar-enough J(r) cluster joins the
/// most similar non-full one, else the smallest cluster.
struct ClusterMemOptions {
  /// M: the memory budget in postings (word occurrences). Must be > 0.
  /// With M >= W (the full index size) the algorithm degenerates to a
  /// single batch, i.e. Probe-Cluster.
  uint64_t memory_budget_postings = 0;

  /// Directory for pInfo and the per-batch spill files, all removed when
  /// the join returns.
  std::string temp_dir = ".";

  /// Clustering knobs. max_clusters / max_cluster_size of 0 are estimated
  /// from the data as in Section 4.1: Ng = clamp(N*M/W, 1, N) and
  /// NR = 2*ceil(N/Ng) (the paper's formulas with a 2x occupancy slack —
  /// the exact estimation procedure is elided in the paper "because of
  /// lack of space").
  ClusterSetOptions cluster;
};

/// Runs ClusterMem. `records` must already be Prepare()d by `pred`.
Result<JoinStats> ClusterMemJoin(const RecordSet& records,
                                 const Predicate& pred,
                                 const ClusterMemOptions& options,
                                 const PairSink& sink);

}  // namespace ssjoin

#endif  // SSJOIN_CORE_CLUSTER_MEM_H_
