#ifndef SSJOIN_CORE_PROBE_COMMON_H_
#define SSJOIN_CORE_PROBE_COMMON_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
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

/// Shared plumbing of every record-vs-index probe: ProbeJoin (serial and
/// parallel) runs ProbeOne under its own stopword plan, and the serving
/// top-k sweep runs it unverified; the cross join, Probe-Cluster's member
/// probes and the serving tiers all run ProbeMatches. One body each, so
/// the probe paths cannot drift.

struct StopwordPlan {
  std::vector<bool> is_stop;       // per token
  std::vector<double> max_score;   // per token
  double threshold = 0;            // the predicate's constant T
};

/// Picks the maximal prefix of the most document-frequent tokens whose
/// total potential contribution stays below T (the paper's "top T-1
/// highest frequency words" generalized to weighted scores). Counts the
/// per-token maxima and the frequency order once per join.
inline StopwordPlan BuildStopwordPlan(const RecordSet& records,
                                      double threshold) {
  StopwordPlan plan;
  plan.threshold = threshold;
  plan.max_score = MaxTokenScores(records);
  plan.is_stop.assign(records.vocabulary_size(), false);
  double sum = 0;
  for (TokenId t : TokensByFrequency(records)) {
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

/// Reusable per-probe scratch for ProbeOne and ProbeMatches: posting-list
/// collection buffers, the merger (with its counting block) and the
/// matched-id list keep their capacity across probes, so steady-state
/// probing performs no heap allocations. One instance per thread; a probe
/// loop default-constructs it once outside the loop, and the serving
/// tiers keep one per thread for the thread's lifetime.
struct ProbeScratch {
  std::vector<PostingListView> lists;
  std::vector<double> probe_scores;
  ListMerger merger;
  std::vector<RecordId> matched;  // ProbeMatches: index matches, ascending
};

/// The single-record probe at the heart of every index-probe algorithm:
/// gathers the posting lists of `probe`'s tokens from `index` (flat
/// InvertedIndex or DynamicIndex — both CollectProbeLists overloads
/// apply), merges them under the emit bound max(floor, min_overlap,
/// required(id)) with the L/S split at `floor`, and streams each
/// surviving candidate (indexed entity id + exact merged overlap) to
/// `emit` in increasing id order.
///
/// `min_overlap`, `required` and `filter` follow the ListMerger contracts
/// (the callables may be null; non-owning, must outlive the call). The
/// caller verifies candidates — ProbeOne prunes, it does not decide
/// matches.
template <typename IndexT>
inline void ProbeOne(const IndexT& index, RecordView probe, double floor,
                     double min_overlap,
                     FunctionRef<double(RecordId)> required,
                     FunctionRef<bool(RecordId)> filter,
                     const MergeOptions& options, MergeStats* stats,
                     ProbeScratch* scratch,
                     FunctionRef<void(const MergeCandidate&)> emit) {
  CollectProbeLists(index, probe, &scratch->lists, &scratch->probe_scores);
  scratch->merger.Reset(scratch->lists, scratch->probe_scores, floor,
                        min_overlap, required, filter, options, stats);
  MergeCandidate candidate;
  while (scratch->merger.Next(&candidate)) emit(candidate);
}

/// What ProbeMatches probes: an index whose local ids resolve to records
/// of `records`, through `record_ids` (local -> record id; null when local
/// ids ARE record ids), and the target's short records. `short_ids` holds
/// the sorted local ids whose norm lies below the predicate's
/// ShortRecordNormBound; null when the caller joins short pairs elsewhere
/// (the self-join drivers' ShortRecordFallback).
template <typename IndexT>
struct ProbeTarget {
  const IndexT& index;
  const RecordSet& records;
  const std::vector<RecordId>* record_ids = nullptr;
  const std::vector<RecordId>* short_ids = nullptr;

  RecordId ToRecord(RecordId local) const {
    return record_ids != nullptr ? (*record_ids)[local] : local;
  }
};

/// The record-vs-index probe-and-verify body (Section 5): probes
/// `target` with `probe` (= probes.record(q)) and reports every target
/// record it matches as on_match(local id, record id).
///
///   * The merge splits its lists at the floor T(probe, minS) of the
///     target index and holds each id to max(T(probe, minS),
///     MinMatchOverlap(||probe||)) and T(probe, ||m||), plus the norm
///     filter when the predicate has one. Empty probes and empty indexes
///     skip the merge: they can share no token.
///   * `skip` (may be null) drops a candidate before verification: dead
///     masks and tombstones, which must act as if compaction had already
///     removed the record's postings.
///   * Every other candidate is verified with the predicate's canonical
///     MatchesCross(target record, probe) and counted in `*verified`.
///   * A short probe then verifies every short target record the index
///     probe did not match: such pairs can match with no shared token
///     (edit distance, Hamming). Merge candidates arrive in increasing id
///     order, so the matched ids are sorted and one walk against the
///     sorted short ids finds the rest.
template <typename IndexT>
void ProbeMatches(const Predicate& pred, const ProbeTarget<IndexT>& target,
                  RecordView probe, const RecordSet& probes, RecordId q,
                  const MergeOptions& merge_options,
                  FunctionRef<bool(RecordId)> skip,
                  MergeStats* stats, uint64_t* verified,
                  ProbeScratch* scratch,
                  FunctionRef<void(RecordId local, RecordId id)> on_match) {
  const double norm = probe.norm();
  const bool short_probe =
      target.short_ids != nullptr && norm < pred.ShortRecordNormBound();
  std::vector<RecordId>& matched = scratch->matched;
  matched.clear();
  auto verify = [&](RecordId local) {
    const RecordId id = target.ToRecord(local);
    ++*verified;
    if (!pred.MatchesCross(target.records, id, probes, q)) return false;
    on_match(local, id);
    return true;
  };

  if (target.index.num_entities() > 0 && !probe.empty()) {
    auto norm_of = [&](RecordId m) {
      return target.records.record(target.ToRecord(m)).norm();
    };
    auto required_fn = [&](RecordId m) {
      return pred.ThresholdForNorms(norm, norm_of(m));
    };
    auto filter_fn = [&](RecordId m) {
      return pred.NormFilter(norm, norm_of(m));
    };
    FunctionRef<bool(RecordId)> filter;
    if (pred.has_norm_filter()) filter = filter_fn;
    ProbeOne(
        target.index, probe,
        pred.ThresholdForNorms(norm, target.index.min_norm()),
        pred.MinMatchOverlap(norm), required_fn, filter, merge_options,
        stats, scratch,
        [&](const MergeCandidate& candidate) {
          if (skip != nullptr && skip(candidate.id)) return;
          if (verify(candidate.id) && short_probe) {
            matched.push_back(candidate.id);
          }
        });
  }

  if (!short_probe) return;
  auto next = matched.begin();
  for (RecordId local : *target.short_ids) {
    while (next != matched.end() && *next < local) ++next;
    if (next != matched.end() && *next == local) continue;
    if (skip != nullptr && skip(local)) continue;
    verify(local);
  }
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
