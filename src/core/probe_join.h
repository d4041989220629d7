#ifndef SSJOIN_CORE_PROBE_JOIN_H_
#define SSJOIN_CORE_PROBE_JOIN_H_

#include "core/join_common.h"
#include "core/predicate.h"
#include "data/record_set.h"
#include "util/status.h"

namespace ssjoin {

/// Runs one rung of the Probe-Count ladder, the one `algorithm` names:
///
///   kProbeCount      Probe (Section 2.1): plain merge counting every
///                    list, full index built before the first probe
///   kProbeStopwords  Probe-stopWords (Section 3.1): the most frequent
///                    tokens whose total potential stays below the
///                    (constant) threshold are left out of the index, and
///                    each probe's threshold drops by what its own
///                    stopwords could carry; needs ConstantThreshold()
///   kProbeOptMerge   Probe-optMerge (Section 3.1): MergeOpt instead of
///                    the plain merge
///   kProbeOnline     ProbeCount-online (Section 3.2): one pass, each
///                    record probes the records before it, then is indexed
///   kProbeSort       ProbeCount-sort (Section 3.3): the online pass in
///                    decreasing norm order
///
/// Any other algorithm is InvalidArgument. `records` must already be
/// Prepare()d by `pred` (the RunJoin driver does this). Emits each
/// matching pair exactly once with the smaller id first; candidates are
/// verified on the full records, so every rung is exact.
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
                            JoinAlgorithm algorithm, const PairSink& sink,
                            int num_threads = 1);

}  // namespace ssjoin

#endif  // SSJOIN_CORE_PROBE_JOIN_H_
