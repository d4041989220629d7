#include "core/probe_cluster.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/function_ref.h"
#include "util/logging.h"

namespace ssjoin {

ClusterSet::ClusterSet(const Predicate& pred, ClusterSetOptions options,
                       size_t vocabulary_size)
    : pred_(pred), options_(options), lists_(vocabulary_size) {
  SSJOIN_CHECK(options_.initial_floor_fraction >= 0 &&
               options_.initial_floor_fraction <= 1);
}

ClusterId ClusterSet::CreateCluster(RecordView record) {
  ClusterId id = static_cast<ClusterId>(clusters_.size());
  Cluster& cluster = clusters_.emplace_back();
  cluster.tokens.assign(record.tokens().begin(), record.tokens().end());
  cluster.scores.assign(record.scores().begin(), record.scores().end());
  for (size_t i = 0; i < record.size(); ++i) {
    cluster.total_weight += record.score(i) * record.score(i);
    lists_[record.token(i)].Append(id, record.score(i));
  }
  cluster.size = 1;
  cluster.member_postings = record.size();
  index_postings_ += record.size();
  norms_.push_back(record.norm());
  min_norm_ = std::min(min_norm_, record.norm());
  return id;
}

void ClusterSet::AddToCluster(ClusterId c, RecordView record) {
  Cluster& cluster = clusters_[c];
  // Pass 1: raise the summary's shared tokens to the record's score and
  // bring the cluster-level lists up to date; count the new tokens.
  const size_t old_size = cluster.tokens.size();
  size_t added = 0;
  bool changed = false;
  for (size_t i = 0, j = 0; j < record.size(); ++j) {
    const TokenId t = record.token(j);
    const double score = record.score(j);
    while (i < old_size && cluster.tokens[i] < t) ++i;
    const bool shared = i < old_size && cluster.tokens[i] == t;
    if (shared && score <= cluster.scores[i]) continue;
    if (shared) {
      cluster.scores[i] = score;
    } else {
      ++added;
    }
    if (lists_[t].InsertOrUpdateMax(c, score)) ++index_postings_;
    changed = true;
  }
  // Pass 2: merge the new tokens into the summary in place, from the back.
  cluster.tokens.resize(old_size + added);
  cluster.scores.resize(old_size + added);
  for (size_t w = old_size + added, i = old_size, j = record.size();
       added > 0;) {
    --w;
    const TokenId t = record.token(j - 1);
    if (i > 0 && cluster.tokens[i - 1] >= t) {
      if (cluster.tokens[i - 1] == t) --j;  // shared: already raised
      --i;
      cluster.tokens[w] = cluster.tokens[i];
      cluster.scores[w] = cluster.scores[i];
    } else {
      --j;
      cluster.tokens[w] = t;
      cluster.scores[w] = record.score(j);
      --added;
    }
  }
  if (changed) {
    // Summed in token order, as a freshly built summary would be.
    cluster.total_weight = 0;
    for (double score : cluster.scores) cluster.total_weight += score * score;
  }
  ++cluster.size;
  cluster.member_postings += record.size();
  norms_[c] = std::min(norms_[c], record.norm());
  min_norm_ = std::min(min_norm_, record.norm());
}

ClusterSet::ProbeResult ClusterSet::ProbeAndAssign(RecordView record,
                                                   MergeStats* stats) {
  SSJOIN_DCHECK(record.empty() ||
                record.token(record.size() - 1) < lists_.size());
  ProbeResult result;
  joins_.clear();
  double record_weight = 0;
  for (size_t i = 0; i < record.size(); ++i) {
    record_weight += record.score(i) * record.score(i);
  }

  bool can_create =
      (options_.max_clusters == 0 ||
       clusters_.size() < options_.max_clusters) &&
      (options_.max_index_postings == 0 ||
       index_postings_ < options_.max_index_postings);
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
    const double norm = record.norm();
    double t_index = pred_.ThresholdForNorms(norm, min_norm_);
    double floor = t_index;
    if (low_floor && t_index > 0) {
      // Scaling a negative threshold would move the floor above T(r, I).
      floor = options_.initial_floor_fraction * t_index;
    }
    auto required_fn = [this, norm](RecordId c) {
      return pred_.ThresholdForNorms(norm, norms_[c]);
    };
    FunctionRef<double(RecordId)> required;
    if (!low_floor) {
      required = required_fn;
    }

    scratch_.lists.clear();
    scratch_.probe_scores.clear();
    for (size_t i = 0; i < record.size(); ++i) {
      const PostingList& list = lists_[record.token(i)];
      if (list.empty()) continue;
      scratch_.lists.push_back(list.view());
      scratch_.probe_scores.push_back(record.score(i));
    }
    // No pair filter: cluster norms aggregate members, so filters apply
    // at the member level only.
    ListMerger& merger = scratch_.merger;
    merger.Reset(scratch_.lists, scratch_.probe_scores, floor, required,
                 /*filter=*/nullptr, MergeOptions{}, stats);

    MergeCandidate candidate;
    while (merger.Next(&candidate)) {
      ClusterId c = candidate.id;
      double overlap = candidate.overlap;
      if (overlap >= PruneBound(pred_.ThresholdForNorms(norm, norms_[c]))) {
        joins_.push_back(c);
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
  result.joins = joins_;

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

void MemberIndex::Insert(RecordId id, RecordView record) {
  const RecordId local = static_cast<RecordId>(members_.size());
  members_.push_back(id);
  min_norm_ = std::min(min_norm_, record.norm());

  // Each record token adds one posting, the last of its token's run (the
  // new local id is the largest). Count the tokens that open a new run.
  size_t new_runs = 0;
  for (size_t r = 0, j = 0; j < record.size(); ++j) {
    while (r < runs_.size() && runs_[r].token < record.token(j)) ++r;
    if (r == runs_.size() || runs_[r].token != record.token(j)) ++new_runs;
  }

  // Backward merge: walk the old runs [0, r) and the unplaced record
  // tokens [0, j) from the back. Every old posting of a run moves right by
  // the number of record tokens below the run's token, which is j once
  // the run's own token (if the record has it) is placed.
  size_t r = runs_.size();
  size_t j = record.size();
  postings_.resize(postings_.size() + j);
  runs_.resize(r + new_runs);
  for (size_t w = runs_.size(); j > 0;) {
    --w;
    const TokenId t = record.token(j - 1);
    if (r > 0 && runs_[r - 1].token >= t) {
      --r;
      Run run = runs_[r];
      const bool grows = run.token == t;
      if (grows) --j;
      const size_t begin = RunBegin(r);
      std::move_backward(postings_.begin() + begin,
                         postings_.begin() + run.end,
                         postings_.begin() + run.end + j);
      run.end += static_cast<uint32_t>(j);
      if (grows) {
        postings_[run.end] = {local, record.score(j)};
        ++run.end;
        run.max_score = std::max(run.max_score, record.score(j));
      }
      runs_[w] = run;
    } else {
      --j;
      const size_t pos = RunBegin(r) + j;
      postings_[pos] = {local, record.score(j)};
      runs_[w] = {t, static_cast<uint32_t>(pos + 1), record.score(j)};
    }
  }
  if (new_runs > 0) RebuildSlots();  // run indices moved
}

void MemberIndex::RebuildSlots() {
  size_t size = 16;
  while (size < 4 * runs_.size()) size *= 2;
  slots_.assign(size, 0);
  const size_t mask = size - 1;
  for (uint32_t r = 0; r < runs_.size(); ++r) {
    size_t s = Hash(runs_[r].token) & mask;
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = r + 1;
  }
}

void CollectProbeLists(const MemberIndex& index, RecordView probe,
                       std::vector<PostingListView>* lists,
                       std::vector<double>* probe_scores) {
  lists->clear();
  probe_scores->clear();
  if (index.slots_.empty()) return;
  const size_t mask = index.slots_.size() - 1;
  for (size_t i = 0; i < probe.size(); ++i) {
    const TokenId t = probe.token(i);
    for (size_t s = MemberIndex::Hash(t) & mask; index.slots_[s] != 0;
         s = (s + 1) & mask) {
      const size_t r = index.slots_[s] - 1;
      if (index.runs_[r].token != t) continue;
      lists->push_back(index.RunView(r));
      probe_scores->push_back(probe.score(i));
      break;
    }
  }
}

void ProbeMemberIndex(const RecordSet& records, const Predicate& pred,
                      RecordView record, RecordId record_id,
                      const MemberIndex& index, bool apply_filter,
                      probe_internal::ProbeScratch* scratch, JoinStats* stats,
                      const PairSink& sink) {
  probe_internal::ProbeMatches(
      pred,
      probe_internal::ProbeTarget<MemberIndex>{index, records,
                                               &index.members()},
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

  ClusterSet cluster_set(pred, options.cluster, records.vocabulary_size());
  probe_internal::ProbeScratch scratch;  // reused by every member probe
  // Per-cluster member indexes. A cluster's index is built on its second
  // member: a singleton cluster keeps its lone member in first_member and
  // is served by the shortcut below.
  std::vector<RecordId> first_member;
  std::vector<MemberIndex> member_index;

  for (uint32_t pos = 0; pos < n; ++pos) {
    RecordId id = order[pos];
    const RecordView record = records.record(id);

    ClusterSet::ProbeResult probe =
        cluster_set.ProbeAndAssign(record, &stats.merge);

    // Finer-grained joins against every cluster in J(r) (state excludes
    // the current record: it is added to member structures below).
    for (ClusterId c : probe.joins) {
      if (member_index[c].empty()) {
        // Singleton cluster: its summary IS its one member, so the
        // cluster-level probe already established T-overlap; verify the
        // pair directly instead of a second merge.
        RecordId other = first_member[c];
        ++stats.candidates_verified;
        if (pred.Matches(records, other, id)) {
          ++stats.pairs;
          sink(std::min(other, id), std::max(other, id));
        }
        continue;
      }
      ProbeMemberIndex(records, pred, record, id, member_index[c],
                       options.apply_filter, &scratch, &stats, sink);
    }

    if (probe.created) {
      first_member.push_back(id);
      member_index.emplace_back();
      continue;
    }
    MemberIndex& index = member_index[probe.home];
    if (index.empty()) {
      const RecordId first = first_member[probe.home];
      index.Insert(first, records.record(first));
    }
    index.Insert(id, record);
  }

  stats.index_postings = cluster_set.index_postings();
  for (const MemberIndex& index : member_index) {
    stats.index_postings += index.total_postings();
  }
  return stats;
}

}  // namespace ssjoin
