#include "core/word_groups.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "data/corpus_stats.h"
#include "mining/dfs_miner.h"
#include "util/logging.h"

namespace ssjoin {

Result<JoinStats> WordGroupsJoin(const RecordSet& records,
                                 const Predicate& pred,
                                 const WordGroupsOptions& options,
                                 bool threshold_optimized,
                                 const PairSink& sink) {
  std::optional<double> constant = pred.ConstantThreshold();
  if (!constant.has_value() || !pred.has_static_weights()) {
    return Status::InvalidArgument(
        "Word-Groups requires a constant-threshold predicate with static "
        "token weights; '" +
        pred.name() + "' does not qualify");
  }
  JoinStats stats;
  double threshold = *constant;

  std::vector<double> token_weights(records.vocabulary_size(), 1.0);
  for (TokenId t = 0; t < records.vocabulary_size(); ++t) {
    token_weights[t] = pred.StaticTokenWeight(t);
  }

  std::vector<bool> token_in_large_set;
  if (threshold_optimized) {
    // Global L set: the most frequent tokens whose cumulative weight stays
    // below T; itemsets inside L can never certify a match.
    std::vector<TokenId> by_frequency =
        TopFrequentTokens(records, records.vocabulary_size());
    token_in_large_set.assign(records.vocabulary_size(), false);
    double sum = 0;
    for (TokenId t : by_frequency) {
      if (sum + token_weights[t] >= PruneBound(threshold)) break;
      sum += token_weights[t];
      token_in_large_set[t] = true;
    }
  }

  std::unordered_set<uint64_t> emitted;
  auto handle_group = [&](const MinedGroup& group) {
    ++stats.groups;
    for (size_t i = 0; i < group.rids.size(); ++i) {
      for (size_t j = i + 1; j < group.rids.size(); ++j) {
        RecordId a = group.rids[i];
        RecordId b = group.rids[j];
        if (!emitted.insert(PairKey(a, b)).second) continue;
        // Confirmed groups imply the match analytically, but the final
        // arbiter stays Predicate::Matches so that rounding in the
        // sqrt-factored scores can never disagree with the reference
        // join on borderline pairs.
        ++stats.candidates_verified;
        if (pred.Matches(records, a, b)) {
          ++stats.pairs;
          sink(std::min(a, b), std::max(a, b));
        }
      }
    }
  };

  if (options.miner == WordGroupsMiner::kDepthFirst) {
    DfsMiner miner(records, std::move(token_weights), threshold,
                   std::move(token_in_large_set), options.apriori);
    miner.Mine(handle_group);
  } else {
    AprioriMiner miner(records, std::move(token_weights), threshold,
                       std::move(token_in_large_set), options.apriori);
    miner.Mine(handle_group);
  }
  return stats;
}

}  // namespace ssjoin
