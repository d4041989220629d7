#ifndef SSJOIN_CORE_PAIR_COUNT_H_
#define SSJOIN_CORE_PAIR_COUNT_H_

#include "core/join_common.h"
#include "core/predicate.h"
#include "data/record_set.h"
#include "util/status.h"

namespace ssjoin {

/// Pair-Count (Section 2.2): for every posting list, materialize all
/// record-id pairs in it and aggregate each pair's total overlap in a hash
/// table; pairs that reach the threshold are verified and emitted. Memory
/// grows with the sum of squared list lengths — the paper's reason this
/// algorithm only completes on small inputs — so `max_aggregated_pairs`
/// provides an abort valve for the benchmarks.
struct PairCountOptions {
  /// Abort (OutOfRange) when the aggregation table exceeds this many
  /// pairs; 0 = unlimited.
  uint64_t max_aggregated_pairs = 0;
};

/// Runs Pair-Count. `records` must already be Prepare()d by `pred`.
///
/// `threshold_optimized` selects PairCount-optMerge, the threshold
/// optimization of Section 3.1: the globally largest lists whose total
/// potential stays below the smallest possible pair threshold are
/// excluded from pair generation; surviving pairs binary-search into them
/// (with cumulative-weight early termination) to complete their counts.
Result<JoinStats> PairCountJoin(const RecordSet& records,
                                const Predicate& pred,
                                const PairCountOptions& options,
                                bool threshold_optimized,
                                const PairSink& sink);

}  // namespace ssjoin

#endif  // SSJOIN_CORE_PAIR_COUNT_H_
