#include "core/parallel_probe.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/thread_pool.h"

namespace ssjoin {

namespace {

/// Positions per work chunk: small enough to balance skewed probe costs,
/// large enough to amortize the chunk-claim atomic.
size_t ChunkSize(size_t n, int threads) {
  size_t chunk = n / (8 * static_cast<size_t>(std::max(1, threads)));
  return std::clamp<size_t>(chunk, 1, 256);
}

}  // namespace

JoinStats ParallelProbeDriver::Run(size_t n, int num_threads,
                                   const ProbeFn& probe,
                                   const PairSink& sink) {
  int requested = std::max(1, num_threads);
  ThreadPool pool(requested);
  const int threads = pool.num_threads();

  std::vector<JoinStats> worker_stats(threads);
  std::vector<std::vector<std::pair<RecordId, RecordId>>> worker_pairs(
      threads);

  pool.ParallelFor(
      n, ChunkSize(n, threads), [&](size_t begin, size_t end, int worker) {
        JoinStats* stats = &worker_stats[worker];
        std::vector<std::pair<RecordId, RecordId>>& buffer =
            worker_pairs[worker];
        PairSink emit = [&buffer](RecordId a, RecordId b) {
          buffer.emplace_back(a, b);
        };
        for (size_t pos = begin; pos < end; ++pos) {
          probe(static_cast<uint32_t>(pos), worker, stats, emit);
        }
      });

  // Deterministic reduction: stats counters are sums over a fixed set of
  // per-position contributions, so worker order does not matter; pairs
  // are globally sorted before emission, erasing scheduling order.
  JoinStats stats;
  size_t total_pairs = 0;
  for (int w = 0; w < threads; ++w) {
    stats.MergePartition(worker_stats[w]);
    total_pairs += worker_pairs[w].size();
  }
  std::vector<std::pair<RecordId, RecordId>> merged;
  merged.reserve(total_pairs);
  for (int w = 0; w < threads; ++w) {
    merged.insert(merged.end(), worker_pairs[w].begin(),
                  worker_pairs[w].end());
  }
  std::sort(merged.begin(), merged.end());
  for (const auto& [a, b] : merged) sink(a, b);
  return stats;
}

}  // namespace ssjoin
