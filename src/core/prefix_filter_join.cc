#include "core/prefix_filter_join.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "core/merge_opt.h"
#include "core/parallel_probe.h"
#include "data/corpus_stats.h"

namespace ssjoin {

Result<JoinStats> PrefixFilterJoin(const RecordSet& records,
                                   const Predicate& pred,
                                   const PrefixFilterJoinOptions& options,
                                   const PairSink& sink, int num_threads) {
  if (pred.MinMatchOverlap(1e18) <= 0) {
    return Status::InvalidArgument(
        "prefix filtering needs a positive MinMatchOverlap bound; '" +
        pred.name() + "' does not provide one");
  }
  const size_t n = records.size();

  // Global token order: increasing document frequency, rare tokens first,
  // so prefixes hold the most selective tokens.
  std::vector<uint32_t> rank(records.vocabulary_size());
  {
    const std::vector<uint64_t> df = records.CountDocumentFrequencies().counts;
    std::vector<TokenId> by_df(df.size());
    std::iota(by_df.begin(), by_df.end(), 0);
    std::stable_sort(by_df.begin(), by_df.end(),
                     [&df](TokenId a, TokenId b) { return df[a] < df[b]; });
    for (uint32_t i = 0; i < by_df.size(); ++i) rank[by_df[i]] = i;
  }

  // Corpus-wide max score per token (the gmax of the suffix bound).
  const std::vector<double> gmax = MaxTokenScores(records);

  std::vector<RecordId> order;
  if (options.presort) {
    order = records.IdsByDecreasingNorm();
  } else {
    order.resize(n);
    std::iota(order.begin(), order.end(), 0);
  }

  // The whole prefix index, built up front and keyed by processing
  // position (lists stay position-sorted because positions are inserted
  // in order). Each record's prefix holds its tokens in rank order minus
  // the longest tail whose total potential stays below α(r). A probe at
  // position p reads only list entries below p — exactly the records an
  // incremental build would have indexed when p probed.
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
  // The per-position probe, shared by the serial loop and the workers:
  // every token of the record against the prefixes of earlier positions,
  // then exact verification of each distinct candidate.
  auto probe_position = [&](uint32_t pos, Scratch* s, JoinStats* stats,
                            const PairSink& emit) {
    const RecordId id = order[pos];
    const RecordView r = records.record(id);
    s->candidates.clear();
    for (size_t i = 0; i < r.size(); ++i) {
      auto it = prefix_index.find(r.token(i));
      if (it == prefix_index.end()) continue;
      for (uint32_t other_pos : it->second) {
        if (other_pos >= pos) break;  // positions ascend within a list
        if (s->last_seen[other_pos] == pos) continue;
        s->last_seen[other_pos] = pos;
        if (options.apply_filter && pred.has_norm_filter() &&
            !pred.NormFilter(r.norm(),
                             records.record(order[other_pos]).norm())) {
          continue;
        }
        s->candidates.push_back(other_pos);
      }
    }
    for (uint32_t other_pos : s->candidates) {
      const RecordId other = order[other_pos];
      ++stats->candidates_verified;
      if (pred.Matches(records, other, id)) {
        ++stats->pairs;
        emit(std::min(other, id), std::max(other, id));
      }
    }
  };

  JoinStats stats;
  if (num_threads <= 1) {
    Scratch scratch;
    scratch.last_seen.assign(n, UINT32_MAX);
    for (uint32_t pos = 0; pos < n; ++pos) {
      probe_position(pos, &scratch, &stats, sink);
    }
  } else {
    std::vector<Scratch> scratch(num_threads);
    for (Scratch& s : scratch) s.last_seen.assign(n, UINT32_MAX);
    stats = ParallelProbeDriver::Run(
        n, num_threads,
        [&](uint32_t pos, int worker, JoinStats* worker_stats,
            const PairSink& emit) {
          probe_position(pos, &scratch[worker], worker_stats, emit);
        },
        sink);
  }
  stats.index_postings = prefix_postings;
  return stats;
}

}  // namespace ssjoin
