#ifndef SSJOIN_CORE_WORD_GROUPS_H_
#define SSJOIN_CORE_WORD_GROUPS_H_

#include "core/join_common.h"
#include "core/predicate.h"
#include "data/record_set.h"
#include "mining/apriori.h"
#include "util/status.h"

namespace ssjoin {

/// Word-Groups (Section 2.3): cast the join as frequent-itemset mining
/// with tokens as items and records as transactions (minimum support 2,
/// itemset weight capped at T). Every emitted group implies the pairs of
/// records inside it; confirmed groups (weight >= T) emit their pairs
/// outright, candidate groups (early-output, compaction merges) are
/// verified. A global deduplication set removes the cross-group
/// redundancy the paper identifies as this algorithm's weakness.
///
/// Requires a constant-threshold predicate with static token weights
/// (the weighted T-overlap family).

/// Which itemset miner drives Word-Groups.
enum class WordGroupsMiner {
  /// Level-wise Apriori with MinHash compaction (Section 2.3's default).
  kApriori,
  /// Depth-first vertical mining — the memory-lean alternative standing
  /// in for the paper's FP-growth variant (see mining/dfs_miner.h).
  kDepthFirst,
};

struct WordGroupsOptions {
  WordGroupsMiner miner = WordGroupsMiner::kApriori;

  /// Miner tuning values; the miner's threshold is the predicate's
  /// constant threshold T.
  AprioriOptions apriori;
};

/// Runs Word-Groups. `records` must already be Prepare()d by `pred`.
///
/// `threshold_optimized` selects Word-Groups-optMerge, the threshold
/// optimization of Section 3.1: the global large-list set L holds the
/// most frequent tokens whose cumulative weight stays below T, and the
/// miner never generates an itemset whose tokens all come from L.
Result<JoinStats> WordGroupsJoin(const RecordSet& records,
                                 const Predicate& pred,
                                 const WordGroupsOptions& options,
                                 bool threshold_optimized,
                                 const PairSink& sink);

}  // namespace ssjoin

#endif  // SSJOIN_CORE_WORD_GROUPS_H_
