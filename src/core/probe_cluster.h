#ifndef SSJOIN_CORE_PROBE_CLUSTER_H_
#define SSJOIN_CORE_PROBE_CLUSTER_H_

#include <cstdint>
#include <vector>

#include "core/join_common.h"
#include "core/predicate.h"
#include "core/probe_common.h"
#include "data/record_set.h"
#include "data/record_view.h"
#include "index/dynamic_index.h"
#include "util/status.h"

namespace ssjoin {

/// Dense cluster identifier (creation order).
using ClusterId = uint32_t;

constexpr ClusterId kNoCluster = UINT32_MAX;

/// Knobs shared by Probe-Cluster (Section 3.4) and ClusterMem phase 1
/// (Section 4.1).
struct ClusterSetOptions {
  /// Whether the home-cluster search may consider clusters below the join
  /// threshold. Section 3.4's full-memory Probe-Cluster assigns a record
  /// only to a cluster from its T-overlap set J(r) (or a new one), so the
  /// probe runs at full MergeOpt strength. ClusterMem (Section 4.1.1)
  /// must assign every record somewhere even without T overlap, so it
  /// starts the merge at a low floor and raises it as candidates appear.
  bool low_floor_home_search = false;

  /// The Section 4.1.1 search starts at this fraction of T(r, I) and is
  /// raised toward it as similar clusters are found. Only used when
  /// low_floor_home_search is true.
  double initial_floor_fraction = 0.2;

  /// A record joins its most similar cluster only when the ratio
  /// similarity overlap/union reaches this; otherwise a new cluster is
  /// created (when allowed).
  double assign_similarity_threshold = 0.3;

  /// NR: maximum records per cluster (0 = unlimited).
  uint32_t max_cluster_size = 0;

  /// Ng: maximum number of clusters (0 = unlimited).
  uint32_t max_clusters = 0;

  /// Hard cap on cluster-level index postings — the M of Section 4
  /// (0 = unlimited). When reached, no new clusters are created.
  uint64_t max_index_postings = 0;
};

/// Online clustering over a stream of records: maintains the cluster-level
/// inverted index (one posting per cluster per token, score(w, C) = max
/// over members, ||C|| = min member norm) and, per record, finds
///
///   * J(r): every cluster whose word-union overlap with r reaches
///     T(r, ||C||) — a superset of the clusters holding true matches;
///   * h(r): the most similar cluster (ratio of overlap to union weight),
///     located with the increasing-threshold MergeOpt adaptation of
///     Section 4.1.1, or a freshly created cluster.
///
/// The cluster-level index is a DynamicIndex: cluster membership is not
/// known up front and an old cluster acquires new tokens whenever a member
/// brings them, so flat CSR extents cannot be pre-carved.
///
/// The caller owns whatever per-cluster structures it needs (member
/// indexes for Probe-Cluster, partition bookkeeping for ClusterMem).
class ClusterSet {
 public:
  struct ProbeResult {
    std::vector<ClusterId> joins;  // J(r), ascending cluster id
    ClusterId home = kNoCluster;
    bool created = false;  // home is a brand-new cluster
  };

  ClusterSet(const Predicate& pred, ClusterSetOptions options);

  ClusterSet(const ClusterSet&) = delete;
  ClusterSet& operator=(const ClusterSet&) = delete;

  /// Probes the current clusters with `record`, then assigns it to a home
  /// cluster (updating the summaries and the cluster-level index).
  ProbeResult ProbeAndAssign(RecordView record, MergeStats* stats);

  size_t num_clusters() const { return clusters_.size(); }
  uint32_t cluster_size(ClusterId c) const { return clusters_[c].size; }
  double cluster_norm(ClusterId c) const { return clusters_[c].norm; }
  /// Total postings the member-level index of cluster `c` would need
  /// (sum of member record sizes) — ClusterMem's batching unit.
  uint64_t cluster_member_postings(ClusterId c) const {
    return clusters_[c].member_postings;
  }
  uint64_t index_postings() const { return index_.total_postings(); }

 private:
  struct Cluster {
    Record summary;        // token union with max scores (Section 5.1.3)
    double norm = 0;       // ||C|| = min member norm
    double total_weight = 0;  // sum of summary score^2 (union weight)
    uint32_t size = 0;     // member count
    uint64_t member_postings = 0;
  };

  ClusterId CreateCluster(RecordView record);
  void AddToCluster(ClusterId c, RecordView record);

  const Predicate& pred_;
  ClusterSetOptions options_;
  DynamicIndex index_;  // cluster-level
  std::vector<Cluster> clusters_;
};

/// Probe-Cluster (Section 3.4): the fully-optimized in-memory algorithm —
/// online build+probe, optional pre-sort, MergeOpt everywhere, and
/// cluster-level indirection so highly overlapping records share index
/// postings.
struct ProbeClusterOptions {
  bool presort = true;
  bool apply_filter = true;
  ClusterSetOptions cluster;
};

/// Runs Probe-Cluster. `records` must already be Prepare()d by `pred`.
Result<JoinStats> ProbeClusterJoin(const RecordSet& records,
                                   const Predicate& pred,
                                   const ProbeClusterOptions& options,
                                   const PairSink& sink);

/// Probes one cluster's member-level index with `record` (RecordId
/// `record_id`) through the shared probe-and-verify body
/// (probe_internal::ProbeMatches) and emits matching pairs. `members` maps
/// the index's local ids back to RecordIds; `scratch` is the caller's,
/// reused across calls. Short pairs are left to the join driver's
/// short-record fallback. Shared by Probe-Cluster and ClusterMem's second
/// phase.
void ProbeMemberIndex(const RecordSet& records, const Predicate& pred,
                      RecordView record, RecordId record_id,
                      const std::vector<RecordId>& members,
                      const DynamicIndex& index, bool apply_filter,
                      probe_internal::ProbeScratch* scratch, JoinStats* stats,
                      const PairSink& sink);

}  // namespace ssjoin

#endif  // SSJOIN_CORE_PROBE_CLUSTER_H_
