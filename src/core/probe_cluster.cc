#include "core/probe_cluster.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/function_ref.h"
#include "util/logging.h"

namespace ssjoin {

ClusterSet::ClusterSet(const Predicate& pred, ClusterSetOptions options)
    : pred_(pred), options_(options) {
  SSJOIN_CHECK(options_.initial_floor_fraction >= 0 &&
               options_.initial_floor_fraction <= 1);
}

ClusterId ClusterSet::CreateCluster(RecordView record) {
  ClusterId id = static_cast<ClusterId>(clusters_.size());
  Cluster cluster;
  cluster.summary = Record::FromView(record);
  cluster.norm = record.norm();
  cluster.total_weight = 0;
  for (size_t i = 0; i < record.size(); ++i) {
    cluster.total_weight += record.score(i) * record.score(i);
  }
  cluster.size = 1;
  cluster.member_postings = record.size();
  clusters_.push_back(std::move(cluster));
  index_.InsertOrUpdateMax(id, record, record.norm());
  return id;
}

void ClusterSet::AddToCluster(ClusterId c, RecordView record) {
  Cluster& cluster = clusters_[c];
  cluster.summary = Record::UnionMax(cluster.summary.view(), record);
  cluster.norm = std::min(cluster.norm, record.norm());
  cluster.total_weight = 0;
  for (size_t i = 0; i < cluster.summary.size(); ++i) {
    cluster.total_weight +=
        cluster.summary.score(i) * cluster.summary.score(i);
  }
  ++cluster.size;
  cluster.member_postings += record.size();
  index_.InsertOrUpdateMax(c, record, record.norm());
}

ClusterSet::ProbeResult ClusterSet::ProbeAndAssign(RecordView record,
                                                   MergeStats* stats) {
  ProbeResult result;
  double record_weight = 0;
  for (size_t i = 0; i < record.size(); ++i) {
    record_weight += record.score(i) * record.score(i);
  }

  bool can_create =
      (options_.max_clusters == 0 ||
       clusters_.size() < options_.max_clusters) &&
      (options_.max_index_postings == 0 ||
       index_.total_postings() < options_.max_index_postings);
  // Section 4's promise: "when sufficient memory is available, the method
  // just reduces to the Probe Cluster method". While new clusters can
  // still be created, the home search stays at full MergeOpt strength;
  // the expensive below-threshold search only starts once the budget
  // binds and every record must be squeezed into an existing cluster.
  bool low_floor = options_.low_floor_home_search && !can_create;

  double best_similarity = -1;
  ClusterId best_cluster = kNoCluster;

  if (!clusters_.empty()) {
    // T(r, I): the smallest threshold any cluster can demand. In
    // low-floor mode (ClusterMem) the search starts below it and is
    // raised toward it as candidates appear — never beyond, or a J(r)
    // member could be pruned. In full-strength mode (Probe-Cluster) the
    // merge runs directly at the join threshold with per-cluster bounds.
    double t_index =
        pred_.ThresholdForNorms(record.norm(), index_.min_norm());
    double floor = t_index;
    if (low_floor && t_index > 0) {
      // Scaling a negative threshold would move the floor above T(r, I).
      floor = options_.initial_floor_fraction * t_index;
    }
    auto required_fn = [this, &record](RecordId c) {
      return pred_.ThresholdForNorms(record.norm(), clusters_[c].norm);
    };
    FunctionRef<double(RecordId)> required;
    if (!low_floor) {
      required = required_fn;
    }

    std::vector<PostingListView> lists;
    std::vector<double> scores;
    CollectProbeLists(index_, record, &lists, &scores);
    // No pair filter: cluster norms aggregate members, so filters apply
    // at the member level only.
    ListMerger merger(lists, scores, floor, required,
                      /*filter=*/nullptr, MergeOptions{}, stats);

    MergeCandidate candidate;
    while (merger.Next(&candidate)) {
      ClusterId c = candidate.id;
      double overlap = candidate.overlap;
      if (overlap >=
          PruneBound(pred_.ThresholdForNorms(record.norm(),
                                             clusters_[c].norm))) {
        result.joins.push_back(c);
      } else if (!low_floor) {
        continue;  // full-strength mode: only J(r) members are homes
      }
      bool joinable_size =
          options_.max_cluster_size == 0 ||
          clusters_[c].size < options_.max_cluster_size;
      if (joinable_size) {
        // Ratio similarity (overlap over union weight): "prevents large
        // clusters from getting too large too fast".
        double union_weight =
            record_weight + clusters_[c].total_weight - overlap;
        double similarity =
            union_weight > 0 ? overlap / union_weight : 1.0;
        if (similarity > best_similarity) {
          best_similarity = similarity;
          best_cluster = c;
        }
        if (low_floor) {
          // Ratio-similarity update rule (Section 4.1.1): raise the floor
          // toward T(r, I) by averaging in the observed overlap.
          merger.RaiseFloor(std::min(
              t_index,
              0.5 * (merger.floor() + std::min(overlap, t_index))));
        }
      }
    }
  }

  if (best_cluster != kNoCluster &&
      best_similarity >= options_.assign_similarity_threshold) {
    result.home = best_cluster;
    AddToCluster(best_cluster, record);
  } else if (can_create) {
    result.home = CreateCluster(record);
    result.created = true;
  } else if (best_cluster != kNoCluster) {
    // Cluster budget exhausted and nothing similar: fall back to the most
    // similar non-full cluster anyway.
    result.home = best_cluster;
    AddToCluster(best_cluster, record);
  } else {
    // Every probed cluster was full (or none shared a token). Assign to
    // the globally smallest cluster to keep sizes balanced.
    ClusterId smallest = 0;
    for (ClusterId c = 1; c < clusters_.size(); ++c) {
      if (clusters_[c].size < clusters_[smallest].size) smallest = c;
    }
    result.home = smallest;
    AddToCluster(smallest, record);
  }
  return result;
}

void ProbeMemberIndex(const RecordSet& records, const Predicate& pred,
                      RecordView record, RecordId record_id,
                      const std::vector<RecordId>& members,
                      const DynamicIndex& index, bool apply_filter,
                      probe_internal::ProbeScratch* scratch, JoinStats* stats,
                      const PairSink& sink) {
  probe_internal::ProbeMatches(
      pred,
      probe_internal::ProbeTarget<DynamicIndex>{index, records, &members},
      record, records, record_id, apply_filter, MergeOptions{},
      /*skip=*/nullptr, &stats->merge, &stats->candidates_verified, scratch,
      [&](RecordId, RecordId other) {
        ++stats->pairs;
        sink(std::min(other, record_id), std::max(other, record_id));
      });
}

Result<JoinStats> ProbeClusterJoin(const RecordSet& records,
                                   const Predicate& pred,
                                   const ProbeClusterOptions& options,
                                   const PairSink& sink) {
  JoinStats stats;
  const size_t n = records.size();

  std::vector<RecordId> order;
  if (options.presort) {
    order = records.IdsByDecreasingNorm();
  } else {
    order.resize(n);
    std::iota(order.begin(), order.end(), 0);
  }

  ClusterSet cluster_set(pred, options.cluster);
  probe_internal::ProbeScratch scratch;  // reused by every member probe
  // Per-cluster member structures: a local-id -> RecordId map and a
  // member-level inverted index (local ids keep posting ids increasing
  // under any processing order; dynamic because membership grows online).
  std::vector<std::vector<RecordId>> members;
  std::vector<DynamicIndex> member_index;

  for (uint32_t pos = 0; pos < n; ++pos) {
    RecordId id = order[pos];
    const RecordView record = records.record(id);

    ClusterSet::ProbeResult probe =
        cluster_set.ProbeAndAssign(record, &stats.merge);

    // Finer-grained joins against every cluster in J(r) (state excludes
    // the current record: it is added to member structures below).
    for (ClusterId c : probe.joins) {
      if (members[c].size() == 1) {
        // Singleton cluster: its summary IS its one member, so the
        // cluster-level probe already established T-overlap; verify the
        // pair directly instead of a second merge.
        RecordId other = members[c][0];
        ++stats.candidates_verified;
        if (pred.Matches(records, other, id)) {
          ++stats.pairs;
          sink(std::min(other, id), std::max(other, id));
        }
        continue;
      }
      ProbeMemberIndex(records, pred, record, id, members[c],
                       member_index[c], options.apply_filter, &scratch,
                       &stats, sink);
    }

    // Install the record in its home cluster's member structures. The
    // member-level index is built lazily on the second member — singleton
    // clusters are served by the shortcut above and need no index.
    if (probe.created) {
      members.emplace_back();
      member_index.emplace_back();
    }
    ClusterId home = probe.home;
    members[home].push_back(id);
    if (members[home].size() >= 2) {
      DynamicIndex& index = member_index[home];
      for (size_t local = index.num_entities();
           local < members[home].size(); ++local) {
        index.Insert(static_cast<RecordId>(local),
                     records.record(members[home][local]));
      }
    }
  }

  stats.index_postings = cluster_set.index_postings();
  for (const DynamicIndex& index : member_index) {
    stats.index_postings += index.total_postings();
  }
  return stats;
}

}  // namespace ssjoin
