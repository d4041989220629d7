#ifndef SSJOIN_CORE_PROBE_COMMON_H_
#define SSJOIN_CORE_PROBE_COMMON_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "core/merge_opt.h"
#include "core/predicate.h"
#include "data/corpus_stats.h"
#include "data/record_set.h"
#include "data/record_view.h"
#include "util/function_ref.h"

namespace ssjoin {
namespace probe_internal {

/// Shared plumbing of the Probe-Count family, used by ProbeJoin (serial
/// and parallel), the streaming join and the serving layer, so the probe
/// paths cannot drift.

struct StopwordPlan {
  std::vector<bool> is_stop;       // per token
  std::vector<double> max_score;   // per token
  double threshold = 0;            // the predicate's constant T
};

/// Picks the maximal prefix of the most document-frequent tokens whose
/// total potential contribution stays below T (the paper's "top T-1
/// highest frequency words" generalized to weighted scores). Reads the
/// per-token maxima and the frequency order from the RecordSet's cached
/// TokenStats instead of rescanning the corpus per join call.
inline StopwordPlan BuildStopwordPlan(const RecordSet& records,
                                      double threshold) {
  const TokenStats& stats = records.token_stats();
  StopwordPlan plan;
  plan.threshold = threshold;
  plan.max_score = stats.max_token_scores;
  plan.is_stop.assign(records.vocabulary_size(), false);
  double sum = 0;
  for (TokenId t : stats.tokens_by_frequency) {
    double contribution = plan.max_score[t] * plan.max_score[t];
    if (sum + contribution >= threshold) break;
    sum += contribution;
    plan.is_stop[t] = true;
  }
  return plan;
}

/// Reduced threshold for probe r: T minus the potential carried by r's own
/// stopwords (Section 3.1).
///
/// Stopword handling never copies records: stop tokens are skipped at
/// index insertion (InvertedIndex::Insert's skip mask), and probing with
/// the FULL record is byte-identical to probing with a stripped copy
/// because every stop token's posting list is empty and CollectProbeLists
/// drops empty lists — same lists, same relative order, same merge.
inline double ReducedThreshold(RecordView r, const StopwordPlan& plan) {
  double reduction = 0;
  for (size_t i = 0; i < r.size(); ++i) {
    TokenId t = r.token(i);
    if (plan.is_stop[t]) reduction += r.score(i) * plan.max_score[t];
  }
  return plan.threshold - reduction;
}

/// Reusable per-probe scratch for ProbeOne: posting-list collection
/// buffers and the merger keep their capacity across probes, so
/// steady-state probing performs no heap allocations. One instance per
/// thread; a probe loop default-constructs it once outside the loop.
struct ProbeScratch {
  std::vector<PostingListView> lists;
  std::vector<double> probe_scores;
  ListMerger merger;
};

/// The single-record probe at the heart of every index-probe algorithm:
/// gathers the posting lists of `probe`'s tokens from `index` (flat
/// InvertedIndex or DynamicIndex — both CollectProbeLists overloads
/// apply), merges them under the emit bound max(floor, required(id)),
/// and streams each surviving candidate (indexed entity id + exact
/// merged overlap) to `emit` in increasing id order.
///
/// `required` and `filter` follow the ListMerger contracts (may be
/// null; non-owning, must outlive the call). `gate` (optional) arms the
/// bitmap prefilter for this probe — it never changes which candidates
/// reach `emit` (see BitmapGate), only how much merge work they cost.
/// The caller verifies candidates — ProbeOne prunes, it does not decide
/// matches.
template <typename IndexT>
inline void ProbeOne(const IndexT& index, RecordView probe, double floor,
                     FunctionRef<double(RecordId)> required,
                     FunctionRef<bool(RecordId)> filter,
                     const MergeOptions& options, MergeStats* stats,
                     ProbeScratch* scratch,
                     FunctionRef<void(const MergeCandidate&)> emit,
                     const BitmapGate* gate = nullptr) {
  CollectProbeLists(index, probe, &scratch->lists, &scratch->probe_scores);
  scratch->merger.Reset(scratch->lists, scratch->probe_scores, floor,
                        required, filter, options, stats, gate);
  MergeCandidate candidate;
  while (scratch->merger.Next(&candidate)) emit(candidate);
}

/// Membership test against a sorted tombstone list (the serving tier's
/// deleted-record sets, global ids). Kept next to ProbeOne because every
/// probe path that serves an LSM tier must apply it to candidates BEFORE
/// verification: a tombstoned record is not a candidate at all, exactly
/// as if compaction had already dropped its postings. The empty-list
/// fast path keeps delete-free probing at its original cost.
inline bool IsTombstoned(const std::vector<RecordId>& tombstones,
                         RecordId global_id) {
  return !tombstones.empty() &&
         std::binary_search(tombstones.begin(), tombstones.end(), global_id);
}

/// Deterministic k-way merge of per-shard probe accumulators. Each part
/// must already be ordered under `less`, and parts must be pairwise
/// disjoint under it — token-range shards partition the record space, so
/// no two shards ever emit the same record. The merged order is then
/// unique regardless of shard count or which thread probed which shard,
/// which is what keeps sharded lookup output byte-identical to the
/// single-shard service. Linear in total results times shard count
/// (shard counts are small; no heap needed).
template <typename T, typename Less>
inline void MergeSortedParts(const std::vector<std::vector<T>>& parts,
                             Less less, std::vector<T>* out) {
  out->clear();
  size_t total = 0;
  for (const std::vector<T>& p : parts) total += p.size();
  out->reserve(total);
  std::vector<size_t> heads(parts.size(), 0);
  while (out->size() < total) {
    size_t best = parts.size();
    for (size_t i = 0; i < parts.size(); ++i) {
      if (heads[i] >= parts[i].size()) continue;
      if (best == parts.size() ||
          less(parts[i][heads[i]], parts[best][heads[best]])) {
        best = i;
      }
    }
    out->push_back(parts[best][heads[best]++]);
  }
}

}  // namespace probe_internal
}  // namespace ssjoin

#endif  // SSJOIN_CORE_PROBE_COMMON_H_
