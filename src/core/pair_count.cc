#include "core/pair_count.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "index/inverted_index.h"
#include "util/logging.h"

namespace ssjoin {

Result<JoinStats> PairCountJoin(const RecordSet& records,
                                const Predicate& pred,
                                const PairCountOptions& options,
                                bool threshold_optimized,
                                const PairSink& sink) {
  JoinStats stats;
  InvertedIndex index;
  index.PlanFromRecords(records);
  for (RecordId id = 0; id < records.size(); ++id) {
    index.Insert(id, records.record(id));
  }
  stats.index_postings = index.total_postings();

  // Gather the live lists, largest first (for the L/S split), ties broken
  // by token id (ForEachList already yields ascending tokens, so a stable
  // sort on length alone would do; the explicit tie-break keeps the intent
  // obvious).
  std::vector<std::pair<TokenId, PostingListView>> token_lists;
  index.ForEachList([&token_lists](TokenId t, PostingListView list) {
    token_lists.emplace_back(t, list);
  });
  std::sort(token_lists.begin(), token_lists.end(),
            [](const auto& a, const auto& b) {
              if (a.second.size() != b.second.size()) {
                return a.second.size() > b.second.size();
              }
              return a.first < b.first;
            });
  std::vector<PostingListView> lists;
  lists.reserve(token_lists.size());
  for (const auto& [t, list] : token_lists) lists.push_back(list);

  // Smallest threshold any pair can have: T is non-decreasing in both
  // norms, so evaluate it at the global minimum norm.
  double floor = pred.ThresholdForNorms(index.min_norm(), index.min_norm());

  // cumulative potential of the k largest lists; L = maximal prefix below
  // the floor (excluded from pair generation).
  std::vector<double> cumulative(lists.size(), 0);
  double running = 0;
  for (size_t i = 0; i < lists.size(); ++i) {
    running += lists[i].max_score() * lists[i].max_score();
    cumulative[i] = running;
  }
  size_t split_k = 0;
  if (threshold_optimized) {
    while (split_k < lists.size() &&
           cumulative[split_k] < PruneBound(floor)) {
      ++split_k;
    }
  }
  stats.merge.lists_direct = split_k;
  stats.merge.lists_merged = lists.size() - split_k;

  // Aggregate every pair from the S lists.
  std::unordered_map<uint64_t, double> pair_weight;
  for (size_t i = split_k; i < lists.size(); ++i) {
    const PostingListView list = lists[i];
    for (size_t a = 0; a < list.size(); ++a) {
      for (size_t b = a + 1; b < list.size(); ++b) {
        pair_weight[PairKey(list[a].id, list[b].id)] +=
            list[a].score * list[b].score;
        if (options.max_aggregated_pairs != 0 &&
            pair_weight.size() > options.max_aggregated_pairs) {
          return Status::OutOfRange(
              "Pair-Count aggregation exceeded the configured pair budget");
        }
      }
    }
  }
  stats.aggregated_pairs = pair_weight.size();

  // Complete each surviving pair's count against the L lists and verify.
  std::vector<uint64_t> keys;
  keys.reserve(pair_weight.size());
  for (const auto& [key, weight] : pair_weight) keys.push_back(key);
  std::sort(keys.begin(), keys.end());  // deterministic emission order

  for (uint64_t key : keys) {
    RecordId a = static_cast<RecordId>(key >> 32);
    RecordId b = static_cast<RecordId>(key & 0xFFFFFFFFu);
    double weight = pair_weight[key];
    double required = pred.ThresholdForNorms(records.record(a).norm(),
                                             records.record(b).norm());
    bool viable = true;
    for (size_t i = split_k; i-- > 0;) {
      if (weight + cumulative[i] < PruneBound(required)) {
        viable = false;
        break;
      }
      uint64_t* cost = &stats.merge.gallop_probes;
      size_t pos_a = lists[i].GallopFind(a, 0, cost);
      if (pos_a == SIZE_MAX) continue;
      size_t pos_b = lists[i].GallopFind(b, pos_a + 1, cost);
      if (pos_b == SIZE_MAX) continue;
      weight += lists[i][pos_a].score * lists[i][pos_b].score;
    }
    if (!viable || weight < PruneBound(required)) continue;
    ++stats.candidates_verified;
    if (pred.Matches(records, a, b)) {
      ++stats.pairs;
      sink(a, b);
    }
  }
  return stats;
}

}  // namespace ssjoin
