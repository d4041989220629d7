#include "core/prefix_filter_join.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/merge_opt.h"
#include "core/parallel_probe.h"
#include "data/corpus_stats.h"
#include "data/token_bitmap.h"
#include "index/inverted_index.h"

namespace ssjoin {

Result<JoinStats> PrefixFilterJoin(const RecordSet& records,
                                   const Predicate& pred,
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

  const std::vector<RecordId> order = records.IdsByDecreasingNorm();

  // What every probe reads and no probe writes, one entry per processing
  // position. A record's prefix holds its tokens in rank order minus the
  // longest tail whose total potential stays below α(r); it is kept as
  // indexes into the record's tokens, position p's in
  // prefix[prefix_begin[p], prefix_begin[p + 1]). pmax is the most one
  // common token can add to the record's overlap with any other:
  // max over its tokens w of score(w, r) · gmax(w).
  std::vector<size_t> prefix_begin(n + 1, 0);
  std::vector<uint32_t> prefix;
  std::vector<TokenBitmapEntry> bitmaps(n);
  std::vector<double> pmax(n, 0);
  std::vector<uint64_t> prefix_counts(records.vocabulary_size(), 0);
  {
    std::vector<std::pair<uint32_t, uint32_t>> ordered;  // (rank, token pos)
    for (uint32_t pos = 0; pos < n; ++pos) {
      const RecordView r = records.record(order[pos]);
      const double alpha = pred.MinMatchOverlap(r.norm());
      ordered.clear();
      for (uint32_t i = 0; i < r.size(); ++i) {
        ordered.emplace_back(rank[r.token(i)], i);
        pmax[pos] = std::max(pmax[pos], r.score(i) * gmax[r.token(i)]);
      }
      std::sort(ordered.begin(), ordered.end());
      size_t prefix_len = ordered.size();
      if (alpha > 0) {
        double suffix_potential = 0;
        while (prefix_len > 0) {
          const uint32_t token_pos = ordered[prefix_len - 1].second;
          const double contribution =
              r.score(token_pos) * gmax[r.token(token_pos)];
          if (suffix_potential + contribution >= PruneBound(alpha)) break;
          suffix_potential += contribution;
          --prefix_len;
        }
      }
      for (size_t i = 0; i < prefix_len; ++i) {
        prefix.push_back(ordered[i].second);
        ++prefix_counts[r.token(ordered[i].second)];
      }
      prefix_begin[pos + 1] = prefix.size();
      bitmaps[pos] = MakeTokenBitmapEntry(r);
    }
  }

  // The prefix index over every position, built whole and keyed by
  // processing position (lists ascend because positions are appended in
  // order). A probe at position p reads only list entries below p —
  // exactly the records an incremental build would have indexed when p
  // probed.
  InvertedIndex index;
  index.Plan(prefix_counts);
  for (uint32_t pos = 0; pos < n; ++pos) {
    const RecordView r = records.record(order[pos]);
    for (size_t k = prefix_begin[pos]; k < prefix_begin[pos + 1]; ++k) {
      index.AppendPosting(r.token(prefix[k]), pos, r.score(prefix[k]));
    }
  }

  // The per-position probe, shared by the serial loop and the workers:
  // the record's prefix against the prefixes of earlier positions. Both
  // sides are prefixes in one global order, so a match's first common
  // token lies in both. Each distinct candidate that passes the norm
  // filter meets the bitmap gate before exact verification: each common
  // token adds at most min(pmax_r, pmax_s), so the parity bound on the
  // common tokens times that caps the pair's overlap, and a cap below
  // T(r, s) means Matches() must fail. `last_seen` is the calling
  // worker's per-position dedup stamp.
  auto probe_position = [&](uint32_t pos, std::vector<uint32_t>* last_seen,
                            JoinStats* stats, const PairSink& emit) {
    const RecordId id = order[pos];
    const RecordView r = records.record(id);
    for (size_t k = prefix_begin[pos]; k < prefix_begin[pos + 1]; ++k) {
      const PostingListView list = index.list(r.token(prefix[k]));
      for (size_t j = 0; j < list.size(); ++j) {
        const uint32_t other_pos = list[j].id;
        if (other_pos >= pos) break;  // positions ascend within a list
        if ((*last_seen)[other_pos] == pos) continue;
        (*last_seen)[other_pos] = pos;
        const RecordId other = order[other_pos];
        const double other_norm = records.record(other).norm();
        if (pred.has_norm_filter() && !pred.NormFilter(r.norm(), other_norm)) {
          continue;
        }
        ++stats->merge.bitmap_checked;
        const double overlap_cap =
            TokenBitmapOverlapBound(bitmaps[pos], bitmaps[other_pos]) *
            std::min(pmax[pos], pmax[other_pos]);
        if (overlap_cap <
            PruneBound(pred.ThresholdForNorms(r.norm(), other_norm))) {
          ++stats->merge.bitmap_pruned;
          continue;
        }
        ++stats->candidates_verified;
        if (pred.Matches(records, other, id)) {
          ++stats->pairs;
          emit(std::min(other, id), std::max(other, id));
        }
      }
    }
  };

  JoinStats stats;
  if (num_threads <= 1) {
    std::vector<uint32_t> last_seen(n, UINT32_MAX);
    for (uint32_t pos = 0; pos < n; ++pos) {
      probe_position(pos, &last_seen, &stats, sink);
    }
  } else {
    std::vector<std::vector<uint32_t>> last_seen(
        num_threads, std::vector<uint32_t>(n, UINT32_MAX));
    stats = ParallelProbeDriver::Run(
        n, num_threads,
        [&](uint32_t pos, int worker, JoinStats* worker_stats,
            const PairSink& emit) {
          probe_position(pos, &last_seen[worker], worker_stats, emit);
        },
        sink);
  }
  stats.index_postings = index.total_postings();
  return stats;
}

}  // namespace ssjoin
