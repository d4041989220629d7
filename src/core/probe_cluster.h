#ifndef SSJOIN_CORE_PROBE_CLUSTER_H_
#define SSJOIN_CORE_PROBE_CLUSTER_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/join_common.h"
#include "core/predicate.h"
#include "core/probe_common.h"
#include "data/record_set.h"
#include "data/record_view.h"
#include "index/posting_list.h"
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
/// Both callers are batch joins over one RecordSet, so the cluster-level
/// index is one PostingList per token of that set's vocabulary: an old
/// cluster acquires a new token by a sorted insert into that token's list
/// (PostingList::InsertOrUpdateMax). Every per-record structure is owned
/// here and reused: the probe scratch, the J(r) buffer, and per-cluster
/// columns (the per-candidate bound reads the dense norm column alone).
///
/// The caller owns whatever per-cluster structures it needs (member
/// indexes for Probe-Cluster, partition bookkeeping for ClusterMem).
class ClusterSet {
 public:
  struct ProbeResult {
    /// J(r), ascending cluster id; valid until the next ProbeAndAssign.
    std::span<const ClusterId> joins;
    ClusterId home = kNoCluster;
    bool created = false;  // home is a brand-new cluster
  };

  /// Every probed record's tokens must lie below `vocabulary_size`.
  ClusterSet(const Predicate& pred, ClusterSetOptions options,
             size_t vocabulary_size);

  ClusterSet(const ClusterSet&) = delete;
  ClusterSet& operator=(const ClusterSet&) = delete;

  /// Probes the current clusters with `record`, then assigns it to a home
  /// cluster (updating the summaries and the cluster-level index).
  ProbeResult ProbeAndAssign(RecordView record, MergeStats* stats);

  size_t num_clusters() const { return norms_.size(); }
  uint32_t cluster_size(ClusterId c) const { return clusters_[c].size; }
  double cluster_norm(ClusterId c) const { return norms_[c]; }
  /// Total postings the member-level index of cluster `c` would need
  /// (sum of member record sizes) — ClusterMem's batching unit.
  uint64_t cluster_member_postings(ClusterId c) const {
    return clusters_[c].member_postings;
  }
  uint64_t index_postings() const { return index_postings_; }

  /// Cluster `c`'s summary (Section 5.1.3): the token union of its
  /// members with score(w, C) = max over members, and norm ||C||. Valid
  /// until the next ProbeAndAssign.
  RecordView summary(ClusterId c) const {
    const Cluster& cluster = clusters_[c];
    return RecordView(cluster.tokens.data(), cluster.scores.data(),
                      static_cast<uint32_t>(cluster.tokens.size()), norms_[c],
                      /*text_length=*/0);
  }
  /// The cluster-level posting list of token `t`: one posting per cluster
  /// whose summary holds `t`, scored score(t, C).
  PostingListView list(TokenId t) const { return lists_[t].view(); }
  /// Minimum cluster norm (the minS of Section 5.1.1); +inf when empty.
  double min_norm() const { return min_norm_; }

 private:
  struct Cluster {
    std::vector<TokenId> tokens;  // summary tokens, ascending
    std::vector<double> scores;   // summary scores, max over members
    double total_weight = 0;      // sum of summary score^2 (union weight)
    uint32_t size = 0;            // member count
    uint64_t member_postings = 0;
  };

  ClusterId CreateCluster(RecordView record);
  void AddToCluster(ClusterId c, RecordView record);

  const Predicate& pred_;
  ClusterSetOptions options_;
  std::vector<PostingList> lists_;  // cluster-level index, by token
  uint64_t index_postings_ = 0;
  double min_norm_ = std::numeric_limits<double>::infinity();
  std::vector<double> norms_;       // ||C||, by cluster
  std::vector<Cluster> clusters_;
  probe_internal::ProbeScratch scratch_;
  std::vector<ClusterId> joins_;
};

/// One cluster's member-level inverted index (Probe-Cluster and ClusterMem
/// phase 2). Members get local ids 0, 1, ... in insertion order, so every
/// token's postings stay sorted by id under any processing order.
///
/// Storage is flat: one array of postings sorted by (token, local id), a
/// directory with one run per distinct token (its end in the array and its
/// max score), an open-addressing table from token to run, and the
/// local -> RecordId table. Insert grows the array by an in-place backward
/// merge, O(index postings) — no more than the member probe the same
/// record has just run against the cluster — and rebuilds the table when
/// it adds runs. A probe finds each token's run in O(1), whatever the
/// cluster's size.
class MemberIndex {
 public:
  /// Indexes `record` (RecordId `id`) under the next local id.
  void Insert(RecordId id, RecordView record);

  size_t num_entities() const { return members_.size(); }
  bool empty() const { return members_.empty(); }
  /// Local id -> RecordId.
  const std::vector<RecordId>& members() const { return members_; }
  /// Minimum member norm; +inf when empty.
  double min_norm() const { return min_norm_; }
  uint64_t total_postings() const { return postings_.size(); }

 private:
  friend void CollectProbeLists(const MemberIndex& index, RecordView probe,
                                std::vector<PostingListView>* lists,
                                std::vector<double>* probe_scores);

  struct Run {
    TokenId token;
    uint32_t end;  // one past the run's last posting; begins at the
                   // previous run's end
    double max_score;
  };

  size_t RunBegin(size_t r) const { return r == 0 ? 0 : runs_[r - 1].end; }
  PostingListView RunView(size_t r) const {
    return PostingListView(postings_.data() + RunBegin(r),
                           runs_[r].end - RunBegin(r), runs_[r].max_score);
  }
  static size_t Hash(TokenId t) {
    uint32_t h = t * 0x9E3779B1u;
    return h ^ (h >> 16);
  }
  void RebuildSlots();

  std::vector<Posting> postings_;  // sorted by (token, local id)
  std::vector<Run> runs_;          // ascending token
  std::vector<uint32_t> slots_;    // run index + 1, 0 = empty; <= 1/4 full
  std::vector<RecordId> members_;
  double min_norm_ = std::numeric_limits<double>::infinity();
};

/// The CollectProbeLists overload ProbeOne picks for a MemberIndex: the
/// same lists, in the same probe token order, as a DynamicIndex fed the
/// same records would give.
void CollectProbeLists(const MemberIndex& index, RecordView probe,
                       std::vector<PostingListView>* lists,
                       std::vector<double>* probe_scores);

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
/// (probe_internal::ProbeMatches) and emits matching pairs. `scratch` is
/// the caller's, reused across calls. Short pairs are left to the join
/// driver's short-record fallback. Shared by Probe-Cluster and
/// ClusterMem's second phase.
void ProbeMemberIndex(const RecordSet& records, const Predicate& pred,
                      RecordView record, RecordId record_id,
                      const MemberIndex& index, bool apply_filter,
                      probe_internal::ProbeScratch* scratch, JoinStats* stats,
                      const PairSink& sink);

}  // namespace ssjoin

#endif  // SSJOIN_CORE_PROBE_CLUSTER_H_
