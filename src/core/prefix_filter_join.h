#ifndef SSJOIN_CORE_PREFIX_FILTER_JOIN_H_
#define SSJOIN_CORE_PREFIX_FILTER_JOIN_H_

#include "core/join_common.h"
#include "core/predicate.h"
#include "data/record_set.h"
#include "util/status.h"

namespace ssjoin {

/// Prefix-filter similarity join — the AllPairs/PPJoin idea that grew out
/// of this paper's line of work, implemented as an extension so the bench
/// suite can compare it against MergeOpt-based probing.
///
/// Principle: order tokens globally by increasing document frequency
/// (rare first) and sort each record's tokens in that order. For a record
/// s, let α(s) = Predicate::MinMatchOverlap(||s||) — the smallest overlap
/// any match of s can have — and define s's *prefix* as the shortest
/// leading token span whose remaining suffix cannot contribute α(s):
///
///   prefix(s) = min p such that  Σ_{i>p} score(w_i, s) · gmax(w_i) < α(s)
///
/// (gmax is the corpus-wide max score of the token). Some common token of
/// any match of s then lies in s's prefix, and since prefixes are leading
/// spans of one global order, the FIRST common token of a matching pair
/// lies in both prefixes. So the join indexes only prefixes and probes
/// with the record's own prefix, not all of its tokens.
///
/// Every distinct candidate that passes the norm filter then meets the
/// token-bitmap bound (data/token_bitmap.h) before exact verification:
/// the parity bound on the pair's common tokens times
/// min(pmax(r), pmax(s)), where pmax(x) = max over x's tokens w of
/// score(w, x) · gmax(w), caps the pair's overlap; a cap below T(r, s)
/// skips the verification. The check is always on and cannot change the
/// pairs; MergeStats::bitmap_checked / bitmap_pruned count it.
///
/// Works for any predicate with MinMatchOverlap > 0 (overlap, Jaccard,
/// Dice, cosine; Hamming degrades gracefully — tiny records index fully
/// and the short-record pool covers zero-overlap pairs). Weighted scores
/// are supported through the gmax bound.
///
/// Runs the prefix-filter self-join. `records` must already be
/// Prepare()d. Emits each matching pair once (smaller id first). Returns
/// InvalidArgument for predicates whose MinMatchOverlap is never
/// positive.
///
/// Records are processed in decreasing norm order. The prefix index (an
/// InvertedIndex) is built whole, keyed by processing position, and every
/// position runs one probe body that reads only the list entries below
/// its own position — what an incremental build would hold there.
/// With `num_threads` <= 1 the positions run in order and pairs are
/// emitted as found; with more, the probes fan out across a ThreadPool
/// (ParallelProbeDriver) and pairs arrive sorted. Pairs and every
/// counter are identical at every thread count.
Result<JoinStats> PrefixFilterJoin(const RecordSet& records,
                                   const Predicate& pred,
                                   const PairSink& sink, int num_threads = 1);

}  // namespace ssjoin

#endif  // SSJOIN_CORE_PREFIX_FILTER_JOIN_H_
