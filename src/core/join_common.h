#ifndef SSJOIN_CORE_JOIN_COMMON_H_
#define SSJOIN_CORE_JOIN_COMMON_H_

#include <cstdint>
#include <functional>

#include "core/merge_opt.h"
#include "data/record.h"

namespace ssjoin {

/// Every algorithm evaluated in the paper, named as in the figures. This
/// enum alone picks a variant: the option structs of the joins hold
/// limits and tuning values, never a switch between variants.
enum class JoinAlgorithm {
  kBruteForce,            // reference nested-loop join (testing)
  kProbeCount,            // Section 2.1
  kProbeStopwords,        // Section 3.1 (Probe-stopWords)
  kProbeOptMerge,         // Section 3.1 (Probe-optMerge)
  kProbeOnline,           // Section 3.2 (ProbeCount-online)
  kProbeSort,             // Section 3.3 (ProbeCount-sort)
  kProbeCluster,          // Section 3.4 (the final Probe Cluster)
  kPairCount,             // Section 2.2
  kPairCountOptMerge,     // Section 3.1 (threshold-optimized Pair-Count)
  kWordGroups,            // Section 2.3
  kWordGroupsOptMerge,    // Section 3.1 (threshold-optimized Word-Groups)
  kClusterMem,            // Section 4 (limited-memory)
  kPrefixFilter,          // extension: AllPairs-style prefix filtering
};

/// Receives each matching pair exactly once, with a < b.
using PairSink = std::function<void(RecordId a, RecordId b)>;

/// Counters reported by every join algorithm. Two kinds of counter live
/// here:
///
///   * flow counters (pairs, candidates_verified, groups, merge.*) count
///     events;
///   * capacity peaks (index_postings, aggregated_pairs) measure the
///     footprint of a structure while it existed.
///
/// The only merge is MergePartition, which combines disjoint partitions
/// (band partitions, parallel workers) and adds both kinds: the
/// per-partition structures coexist, so the total footprint is the sum
/// of the per-partition peaks. There is deliberately no operator+=.
struct JoinStats {
  uint64_t pairs = 0;                 // matches emitted
  uint64_t candidates_verified = 0;   // Predicate::Matches invocations
  uint64_t index_postings = 0;        // peak postings held in indexes
  uint64_t aggregated_pairs = 0;      // Pair-Count hash-table peak size
  uint64_t groups = 0;                // Word-Groups groups emitted
  MergeStats merge;

  /// Folds in a disjoint partition of the same join (band partition,
  /// parallel worker): every counter adds, capacity peaks included.
  JoinStats& MergePartition(const JoinStats& other) {
    pairs += other.pairs;
    candidates_verified += other.candidates_verified;
    index_postings += other.index_postings;
    aggregated_pairs += other.aggregated_pairs;
    groups += other.groups;
    merge += other.merge;
    return *this;
  }
};

/// Canonical 64-bit key of an unordered pair (used for deduplication).
inline uint64_t PairKey(RecordId a, RecordId b) {
  if (a > b) {
    RecordId tmp = a;
    a = b;
    b = tmp;
  }
  return (static_cast<uint64_t>(a) << 32) | b;
}

}  // namespace ssjoin

#endif  // SSJOIN_CORE_JOIN_COMMON_H_
