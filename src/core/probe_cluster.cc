#include "core/probe_cluster.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace ssjoin {

ClusterSet::ClusterSet(const Predicate& pred, ClusterSetOptions options,
                       size_t vocabulary_size, uint64_t max_index_postings)
    : pred_(pred),
      options_(options),
      max_index_postings_(max_index_postings),
      lists_(vocabulary_size) {}

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

ClusterId ClusterSet::SmallestCluster() {
  // Creation never resumes once it stops (the cluster count and the index
  // only grow), so the clusters are fixed here, and their sizes only grow.
  // A cluster the cursor passed therefore stays above smallest_size_, and
  // the first cluster of that size at or past the cursor is the lowest-id
  // smallest one. A pass that finds none means the minimum grew: recount
  // it and start over. The minimum is at most N / (cluster count), so the
  // passes cost O(N) over a whole join.
  SSJOIN_DCHECK(!clusters_.empty());
  for (;;) {
    for (; smallest_cursor_ < clusters_.size(); ++smallest_cursor_) {
      if (clusters_[smallest_cursor_].size == smallest_size_) {
        return smallest_cursor_;
      }
    }
    smallest_size_ = clusters_[0].size;
    for (const Cluster& cluster : clusters_) {
      smallest_size_ = std::min(smallest_size_, cluster.size);
    }
    smallest_cursor_ = 0;
  }
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

  double best_similarity = -1;
  ClusterId best_cluster = kNoCluster;

  if (!clusters_.empty()) {
    // The merge runs at the join threshold: floor T(r, I), the smallest
    // threshold any cluster can demand, and per-cluster bound T(r, ||C||).
    const double norm = record.norm();
    auto required = [this, norm](RecordId c) {
      return pred_.ThresholdForNorms(norm, norms_[c]);
    };

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
    merger.Reset(scratch_.lists, scratch_.probe_scores,
                 pred_.ThresholdForNorms(norm, min_norm_),
                 /*min_overlap=*/0, required, /*filter=*/nullptr,
                 MergeOptions{}, stats);

    MergeCandidate candidate;
    while (merger.Next(&candidate)) {
      // The merge emitted c against max(T(r, I), T(r, ||C||)) =
      // T(r, ||C||), as min_norm_ <= norms_[c], so c is in J(r).
      const ClusterId c = candidate.id;
      const double overlap = candidate.overlap;
      joins_.push_back(c);
      if (options_.max_cluster_size != 0 &&
          clusters_[c].size >= options_.max_cluster_size) {
        continue;
      }
      // Ratio similarity (overlap over union weight): "prevents large
      // clusters from getting too large too fast".
      double union_weight =
          record_weight + clusters_[c].total_weight - overlap;
      double similarity = union_weight > 0 ? overlap / union_weight : 1.0;
      if (similarity > best_similarity) {
        best_similarity = similarity;
        best_cluster = c;
      }
    }
  }
  result.joins = joins_;

  const bool can_create =
      (options_.max_clusters == 0 ||
       clusters_.size() < options_.max_clusters) &&
      (max_index_postings_ == 0 || index_postings_ < max_index_postings_);
  if (best_cluster != kNoCluster &&
      best_similarity >= options_.assign_similarity_threshold) {
    result.home = best_cluster;
  } else if (can_create) {
    result.home = CreateCluster(record);
    result.created = true;
    return result;
  } else if (best_cluster != kNoCluster) {
    // Creation has stopped and nothing is similar enough: fall back to
    // the most similar non-full J(r) cluster anyway.
    result.home = best_cluster;
  } else {
    // No joinable cluster in J(r): take the smallest, to keep sizes
    // balanced.
    result.home = SmallestCluster();
  }
  AddToCluster(result.home, record);
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
                      const MemberIndex& index,
                      probe_internal::ProbeScratch* scratch, JoinStats* stats,
                      const PairSink& sink) {
  probe_internal::ProbeMatches(
      pred,
      probe_internal::ProbeTarget<MemberIndex>{index, records,
                                               &index.members()},
      record, records, record_id, MergeOptions{},
      /*skip=*/nullptr, &stats->merge, &stats->candidates_verified, scratch,
      [&](RecordId, RecordId other) {
        ++stats->pairs;
        sink(std::min(other, record_id), std::max(other, record_id));
      });
}

Result<JoinStats> ProbeClusterJoin(const RecordSet& records,
                                   const Predicate& pred,
                                   const ClusterSetOptions& options,
                                   const PairSink& sink) {
  JoinStats stats;
  ClusterSet cluster_set(pred, options, records.vocabulary_size());
  probe_internal::ProbeScratch scratch;  // reused by every member probe
  // Per-cluster member indexes. A cluster's index is built on its second
  // member: a singleton cluster keeps its lone member in first_member and
  // is served by the shortcut below.
  std::vector<RecordId> first_member;
  std::vector<MemberIndex> member_index;

  for (RecordId id : records.IdsByDecreasingNorm()) {
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
      ProbeMemberIndex(records, pred, record, id, member_index[c], &scratch,
                       &stats, sink);
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
