#include "core/parallel_probe.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/merge_opt.h"
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

Result<JoinStats> ParallelPrefixFilterJoin(
    const RecordSet& records, const Predicate& pred,
    const PrefixFilterJoinOptions& options, int num_threads,
    const PairSink& sink) {
  if (pred.MinMatchOverlap(1e18) <= 0) {
    return Status::InvalidArgument(
        "prefix filtering needs a positive MinMatchOverlap bound; '" +
        pred.name() + "' does not provide one");
  }
  const size_t n = records.size();

  // Global token order: increasing document frequency, rare tokens first
  // (identical to the serial PrefixFilterJoin).
  std::vector<uint32_t> rank(records.vocabulary_size());
  {
    std::vector<TokenId> by_df(records.vocabulary_size());
    std::iota(by_df.begin(), by_df.end(), 0);
    std::stable_sort(by_df.begin(), by_df.end(),
                     [&records](TokenId a, TokenId b) {
                       return records.doc_frequency(a) <
                              records.doc_frequency(b);
                     });
    for (uint32_t i = 0; i < by_df.size(); ++i) rank[by_df[i]] = i;
  }

  // Per-token corpus score maxima, from the RecordSet's cached TokenStats
  // (no corpus rescan per join call).
  const std::vector<double>& gmax = records.token_stats().max_token_scores;

  std::vector<RecordId> order;
  if (options.presort) {
    order = records.IdsByDecreasingNorm();
  } else {
    order.resize(n);
    std::iota(order.begin(), order.end(), 0);
  }

  // Freeze the whole prefix index up front, keyed by processing position
  // (lists stay position-sorted because positions are inserted in order).
  // A probe at position p then considers list entries < p — exactly the
  // records that were already indexed when the serial form probed p.
  std::unordered_map<TokenId, std::vector<uint32_t>> prefix_index;
  uint64_t prefix_postings = 0;
  {
    std::vector<std::pair<uint32_t, size_t>> ordered;  // (rank, token pos)
    for (uint32_t pos = 0; pos < n; ++pos) {
      const RecordView r = records.record(order[pos]);
      double alpha = pred.MinMatchOverlap(r.norm());
      ordered.clear();
      for (size_t i = 0; i < r.size(); ++i) {
        ordered.emplace_back(rank[r.token(i)], i);
      }
      std::sort(ordered.begin(), ordered.end());
      size_t prefix_len = ordered.size();
      if (alpha > 0) {
        double suffix_potential = 0;
        while (prefix_len > 0) {
          size_t token_pos = ordered[prefix_len - 1].second;
          double contribution =
              r.score(token_pos) * gmax[r.token(token_pos)];
          if (suffix_potential + contribution >= PruneBound(alpha)) break;
          suffix_potential += contribution;
          --prefix_len;
        }
      }
      for (size_t i = 0; i < prefix_len; ++i) {
        prefix_index[r.token(ordered[i].second)].push_back(pos);
        ++prefix_postings;
      }
    }
  }

  struct Scratch {
    std::vector<uint32_t> candidates;  // candidate positions, probe-local
    std::vector<uint32_t> last_seen;   // per-position dedup stamp
  };
  int requested = std::max(1, num_threads);
  std::vector<Scratch> scratch(requested);
  for (Scratch& s : scratch) s.last_seen.assign(n, UINT32_MAX);

  auto probe_one = [&](uint32_t pos, int worker, JoinStats* stats,
                       const PairSink& emit) {
    RecordId id = order[pos];
    const RecordView r = records.record(id);
    Scratch& s = scratch[worker];
    s.candidates.clear();
    for (size_t i = 0; i < r.size(); ++i) {
      auto it = prefix_index.find(r.token(i));
      if (it == prefix_index.end()) continue;
      for (uint32_t other_pos : it->second) {
        if (other_pos >= pos) break;  // positions ascend within a list
        if (s.last_seen[other_pos] == pos) continue;
        s.last_seen[other_pos] = pos;
        if (options.apply_filter && pred.has_norm_filter() &&
            !pred.NormFilter(r.norm(),
                             records.record(order[other_pos]).norm())) {
          continue;
        }
        s.candidates.push_back(other_pos);
      }
    }
    for (uint32_t other_pos : s.candidates) {
      RecordId other = order[other_pos];
      ++stats->candidates_verified;
      if (pred.Matches(records, other, id)) {
        ++stats->pairs;
        emit(std::min(other, id), std::max(other, id));
      }
    }
  };

  JoinStats stats =
      ParallelProbeDriver::Run(n, num_threads, probe_one, sink);
  stats.index_postings = prefix_postings;
  return stats;
}

}  // namespace ssjoin
