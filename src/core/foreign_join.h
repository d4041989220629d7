#ifndef SSJOIN_CORE_FOREIGN_JOIN_H_
#define SSJOIN_CORE_FOREIGN_JOIN_H_

#include <functional>

#include "core/join_common.h"
#include "core/predicate.h"
#include "data/record_set.h"
#include "util/status.h"

namespace ssjoin {

/// Receives one matching cross pair: `left_id` indexes the left set,
/// `right_id` the right set.
using CrossPairSink =
    std::function<void(RecordId left_id, RecordId right_id)>;

/// Non-self similarity join R ⋈ S (the paper presents self-joins and notes
/// "the extension to non-self-joins is obvious"): index the right set once
/// and probe it with every left record, in decreasing norm order (Section
/// 3.3's sort), through the shared probe-and-verify body
/// (probe_internal::ProbeMatches, the one the cluster member probes and
/// the serving tiers run): MergeOpt under T(r, minS) and T(r, m), the
/// norm filter, Predicate::MatchesCross.
///
/// Runs the cross join, preparing both sides via
/// Predicate::PrepareForJoin. Emits each matching (left, right) pair
/// exactly once, left record by left record (in probe order). Predicates
/// whose tiny records can match without shared tokens (edit distance,
/// Hamming) get their short pairs from each short left record's walk over
/// the short right records, emitted right after that record's index
/// matches.
Result<JoinStats> ForeignProbeJoin(RecordSet* left, RecordSet* right,
                                   const Predicate& pred,
                                   const CrossPairSink& sink);

}  // namespace ssjoin

#endif  // SSJOIN_CORE_FOREIGN_JOIN_H_
