#ifndef SSJOIN_MINING_DFS_MINER_H_
#define SSJOIN_MINING_DFS_MINER_H_

#include <functional>
#include <vector>

#include "data/record_set.h"
#include "mining/apriori.h"

namespace ssjoin {

/// Depth-first vertical itemset miner for Word-Groups — the memory-lean
/// alternative to the level-wise AprioriMiner, standing in for the
/// "FP-growth based implementation [that] took much less memory" the paper
/// mentions in Section 2.4. Instead of materializing whole candidate
/// levels, it keeps only one root-to-leaf chain of record lists
/// (Eclat-style tidlist intersection), so peak memory is
/// O(depth * average list length) rather than O(level width).
///
/// Emission semantics, pruning rules (weight cap, early output below the
/// support threshold, large-list-set skipping) and the completeness
/// invariant are identical to AprioriMiner: every itemset pruned from
/// growth is emitted first, so every matching pair is covered by some
/// emitted group. Constructor arguments are AprioriMiner's; the MinHash
/// compaction knobs are ignored (there is no level to compact — the
/// early-output rule plays that role).
class DfsMiner {
 public:
  DfsMiner(const RecordSet& records, std::vector<double> token_weights,
           double min_weight, std::vector<bool> token_in_large_set,
           AprioriOptions options);

  /// Runs the mining; calls `emit` once per emitted group. Returns the
  /// maximum depth reached.
  size_t Mine(const std::function<void(const MinedGroup&)>& emit);

 private:
  struct Column {
    TokenId token;
    std::vector<RecordId> tids;
    bool in_large_set = false;
  };

  double TokenWeight(TokenId t) const;
  bool InLargeSet(TokenId t) const;

  /// Extends the itemset whose last column index is `col`, with current
  /// record list `tids` and accumulated weight `weight`. Returns false
  /// when a valve fired and mining must unwind.
  bool Grow(size_t col, const std::vector<RecordId>& tids, double weight,
            size_t depth,
            const std::function<void(const MinedGroup&)>& emit);

  const RecordSet& records_;
  std::vector<double> token_weights_;
  double min_weight_;
  std::vector<bool> token_in_large_set_;
  AprioriOptions options_;
  std::vector<Column> columns_;  // singleton record lists, non-L first
  size_t max_depth_seen_ = 0;
  double start_time_ = 0;  // set by Mine
  uint64_t steps_ = 0;
};

}  // namespace ssjoin

#endif  // SSJOIN_MINING_DFS_MINER_H_
