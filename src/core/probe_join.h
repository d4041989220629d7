#ifndef SSJOIN_CORE_PROBE_JOIN_H_
#define SSJOIN_CORE_PROBE_JOIN_H_

#include "core/join_common.h"
#include "core/predicate.h"
#include "data/record_set.h"
#include "util/status.h"

namespace ssjoin {

/// Configuration of the Probe-Count family. The paper's named variants
/// are presets over these flags:
///
///   Probe-Count          {optimized_merge=false, online=false, ...}
///   Probe-stopWords      {optimized_merge=false, stopwords=true}
///   Probe-optMerge       {optimized_merge=true,  online=false}
///   ProbeCount-online    {optimized_merge=true,  online=true}
///   ProbeCount-sort      {optimized_merge=true,  online=true, presort=true}
struct ProbeJoinOptions {
  /// Threshold-sensitive MergeOpt (Section 3.1) vs. plain heap merge
  /// over all lists (Section 2.1).
  bool optimized_merge = true;

  /// Single-pass build-and-probe (Section 3.2): each record probes the
  /// partial index of earlier records, then inserts itself. When false,
  /// the full index is built first and every record probes it.
  bool online = true;

  /// Process records in decreasing norm order (Section 3.3 / 5.1.2).
  bool presort = false;

  /// Probe-stopWords (Section 3.1): the most frequent tokens whose total
  /// potential contribution stays below the (constant) threshold are
  /// dropped from the index, and each probe's threshold is reduced by the
  /// potential its own stopwords carried. Requires a predicate with
  /// ConstantThreshold(). Candidates are verified on the full records, so
  /// the join stays exact.
  bool stopwords = false;
};

/// Runs the configured Probe-Count variant. `records` must already be
/// Prepare()d by `pred` (the RunJoin driver does this). Emits each
/// matching pair exactly once with the smaller id first.
///
/// With `num_threads` > 1 the index is built whole before probing and
/// the probes fan out across a ThreadPool (ParallelProbeDriver). Every
/// probe runs the same per-position body as the serial loop and sees the
/// same index: an online/presorted probe only the positions before its
/// own, a two-pass probe all of them. Pairs are identical at every thread
/// count and arrive sorted. Counters match the serial run whenever a
/// token scores the same in every record (overlap, jaccard); otherwise
/// an online probe's lists keep their whole-list max scores, which
/// changes the merge counters but not the candidates verified.
Result<JoinStats> ProbeJoin(const RecordSet& records, const Predicate& pred,
                            const ProbeJoinOptions& options,
                            const PairSink& sink, int num_threads = 1);

}  // namespace ssjoin

#endif  // SSJOIN_CORE_PROBE_JOIN_H_
