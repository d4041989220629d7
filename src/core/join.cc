#include "core/join.h"

#include <algorithm>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace ssjoin {

namespace {

/// Joins the records whose norms fall below the predicate's short-record
/// bound by brute force: under the edit-distance q-gram filter such pairs
/// can match while sharing no token, which no inverted-index algorithm can
/// see. `emitted` holds the pairs the main algorithm already produced.
void ShortRecordFallback(const RecordSet& records, const Predicate& pred,
                         const std::unordered_set<uint64_t>& emitted,
                         JoinStats* stats, const PairSink& sink) {
  double bound = pred.ShortRecordNormBound();
  std::vector<RecordId> shorts;
  for (RecordId id = 0; id < records.size(); ++id) {
    if (records.record(id).norm() < bound) shorts.push_back(id);
  }
  for (size_t i = 0; i < shorts.size(); ++i) {
    for (size_t j = i + 1; j < shorts.size(); ++j) {
      RecordId a = shorts[i];
      RecordId b = shorts[j];
      if (emitted.count(PairKey(a, b)) > 0) continue;
      ++stats->candidates_verified;
      if (pred.Matches(records, a, b)) {
        ++stats->pairs;
        sink(std::min(a, b), std::max(a, b));
      }
    }
  }
}

}  // namespace

const char* JoinAlgorithmName(JoinAlgorithm algorithm) {
  switch (algorithm) {
    case JoinAlgorithm::kBruteForce:
      return "BruteForce";
    case JoinAlgorithm::kProbeCount:
      return "Probe";
    case JoinAlgorithm::kProbeStopwords:
      return "Probe-stopWords";
    case JoinAlgorithm::kProbeOptMerge:
      return "Probe-optMerge";
    case JoinAlgorithm::kProbeOnline:
      return "ProbeCount-online";
    case JoinAlgorithm::kProbeSort:
      return "ProbeCount-sort";
    case JoinAlgorithm::kProbeCluster:
      return "Cluster";
    case JoinAlgorithm::kPairCount:
      return "PairCount";
    case JoinAlgorithm::kPairCountOptMerge:
      return "PairCount-optMerge";
    case JoinAlgorithm::kWordGroups:
      return "Word-Groups";
    case JoinAlgorithm::kWordGroupsOptMerge:
      return "Word-Groups-optMerge";
    case JoinAlgorithm::kClusterMem:
      return "ClusterMem";
    case JoinAlgorithm::kPrefixFilter:
      return "PrefixFilter";
  }
  return "unknown";
}

JoinStats BruteForceJoin(const RecordSet& records, const Predicate& pred,
                         const PairSink& sink) {
  JoinStats stats;
  for (RecordId a = 0; a < records.size(); ++a) {
    for (RecordId b = a + 1; b < records.size(); ++b) {
      ++stats.candidates_verified;
      if (pred.Matches(records, a, b)) {
        ++stats.pairs;
        sink(a, b);
      }
    }
  }
  return stats;
}

Result<JoinStats> RunJoin(RecordSet* records, const Predicate& pred,
                          JoinAlgorithm algorithm, const JoinOptions& options,
                          const PairSink& sink) {
  pred.Prepare(records);

  // When the predicate needs the short-record fallback, remember what the
  // main algorithm emitted so the fallback can deduplicate.
  bool track_emitted = pred.ShortRecordNormBound() > 0;
  std::unordered_set<uint64_t> emitted;
  PairSink wrapped_sink = sink;
  if (track_emitted) {
    wrapped_sink = [&emitted, &sink](RecordId a, RecordId b) {
      emitted.insert(PairKey(a, b));
      sink(a, b);
    };
  }

  Result<JoinStats> result = Status::OK();
  switch (algorithm) {
    case JoinAlgorithm::kBruteForce: {
      // BruteForce needs no fallback: it already compares every pair.
      return BruteForceJoin(*records, pred, sink);
    }
    case JoinAlgorithm::kProbeCount:
    case JoinAlgorithm::kProbeStopwords:
    case JoinAlgorithm::kProbeOptMerge:
    case JoinAlgorithm::kProbeOnline:
    case JoinAlgorithm::kProbeSort: {
      result = ProbeJoin(*records, pred, algorithm, wrapped_sink,
                         options.num_threads);
      break;
    }
    case JoinAlgorithm::kProbeCluster: {
      result = ProbeClusterJoin(*records, pred, options.cluster,
                                wrapped_sink);
      break;
    }
    case JoinAlgorithm::kPairCount:
    case JoinAlgorithm::kPairCountOptMerge: {
      result = PairCountJoin(*records, pred, options.pair_count,
                             algorithm == JoinAlgorithm::kPairCountOptMerge,
                             wrapped_sink);
      break;
    }
    case JoinAlgorithm::kWordGroups:
    case JoinAlgorithm::kWordGroupsOptMerge: {
      result = WordGroupsJoin(*records, pred, options.word_groups,
                              algorithm == JoinAlgorithm::kWordGroupsOptMerge,
                              wrapped_sink);
      break;
    }
    case JoinAlgorithm::kClusterMem: {
      result = ClusterMemJoin(*records, pred, options.cluster_mem,
                              wrapped_sink);
      break;
    }
    case JoinAlgorithm::kPrefixFilter: {
      result = PrefixFilterJoin(*records, pred, wrapped_sink,
                                options.num_threads);
      break;
    }
  }
  if (!result.ok()) return result;

  if (track_emitted) {
    JoinStats stats = result.value();
    ShortRecordFallback(*records, pred, emitted, &stats, sink);
    return stats;
  }
  return result;
}

Result<std::vector<std::pair<RecordId, RecordId>>> JoinToPairs(
    RecordSet* records, const Predicate& pred, JoinAlgorithm algorithm,
    const JoinOptions& options) {
  std::vector<std::pair<RecordId, RecordId>> pairs;
  Result<JoinStats> result =
      RunJoin(records, pred, algorithm, options,
              [&pairs](RecordId a, RecordId b) { pairs.emplace_back(a, b); });
  if (!result.ok()) return result.status();
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

Result<JoinStats> BandPartitionedJoin(RecordSet* records,
                                      const Predicate& pred, double k,
                                      BandStrategy strategy,
                                      const PairSink& sink,
                                      int num_threads) {
  pred.Prepare(records);

  std::vector<std::vector<RecordId>> partitions =
      BandPartitionByNorm(*records, k, strategy);

  // Each partition joins into a private buffer (global ids, partition-local
  // emission order preserved), so partitions can run on any thread while
  // the cross-partition dedup below stays strictly in partition order.
  struct PartitionResult {
    std::vector<std::pair<RecordId, RecordId>> pairs;
    JoinStats stats;
    Status status = Status::OK();
  };
  std::vector<PartitionResult> results(partitions.size());

  auto run_partition = [&](size_t p) {
    const std::vector<RecordId>& partition = partitions[p];
    PartitionResult& out = results[p];
    // Materialize the partition as its own (already prepared) record set.
    RecordSet subset;
    for (RecordId id : partition) {
      subset.Add(records->record(id), records->text(id));
    }
    Result<JoinStats> sub = ProbeClusterJoin(
        subset, pred, ClusterSetOptions{},
        [&](RecordId local_a, RecordId local_b) {
          RecordId a = partition[local_a];
          RecordId b = partition[local_b];
          out.pairs.emplace_back(std::min(a, b), std::max(a, b));
        });
    if (!sub.ok()) {
      out.status = sub.status();
      return;
    }
    out.stats = sub.value();
  };

  if (num_threads > 1 && partitions.size() > 1) {
    ThreadPool pool(num_threads);
    pool.ParallelFor(partitions.size(), /*chunk=*/1,
                     [&](size_t begin, size_t end, int /*worker*/) {
                       for (size_t p = begin; p < end; ++p) run_partition(p);
                     });
  } else {
    for (size_t p = 0; p < partitions.size(); ++p) run_partition(p);
  }

  // Partitions are disjoint joins over overlapping record subsets: their
  // counters (including per-partition index peaks) add, while `pairs` is
  // re-counted after cross-partition deduplication.
  JoinStats stats;
  std::unordered_set<uint64_t> emitted;
  for (PartitionResult& result : results) {
    if (!result.status.ok()) return result.status;
    result.stats.pairs = 0;
    stats.MergePartition(result.stats);
    for (const auto& [a, b] : result.pairs) {
      if (!emitted.insert(PairKey(a, b)).second) continue;
      ++stats.pairs;
      sink(a, b);
    }
  }

  ShortRecordFallback(*records, pred, emitted, &stats, sink);
  return stats;
}

}  // namespace ssjoin
