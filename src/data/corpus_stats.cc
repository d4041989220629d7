#include "data/corpus_stats.h"

#include <algorithm>
#include <numeric>
#include <sstream>

namespace ssjoin {

namespace {

/// Document frequencies sorted descending.
std::vector<uint64_t> SortedDocFrequencies(const RecordSet& records) {
  std::vector<uint64_t> freqs = records.CountDocumentFrequencies().counts;
  std::sort(freqs.begin(), freqs.end(), std::greater<uint64_t>());
  return freqs;
}

}  // namespace

std::string CorpusStats::ToString() const {
  std::ostringstream out;
  out << "records=" << num_records << " avg_set_size=" << average_set_size
      << " distinct_elements=" << num_distinct_elements
      << " total_occurrences=" << total_occurrences
      << " set_size=[" << min_set_size << "," << max_set_size << "]"
      << " max_df=" << max_doc_frequency
      << " top1pct_share=" << top1pct_occurrence_share;
  return out.str();
}

CorpusStats ComputeCorpusStats(const RecordSet& records) {
  CorpusStats stats;
  stats.num_records = records.size();
  stats.total_occurrences = records.total_token_occurrences();
  stats.average_set_size = records.average_record_size();

  uint64_t min_size = UINT64_MAX;
  uint64_t max_size = 0;
  for (RecordId id = 0; id < records.size(); ++id) {
    uint64_t size = records.record_size(id);
    min_size = std::min(min_size, size);
    max_size = std::max(max_size, size);
  }
  stats.min_set_size = records.empty() ? 0 : min_size;
  stats.max_set_size = max_size;

  std::vector<uint64_t> freqs = SortedDocFrequencies(records);
  stats.num_distinct_elements =
      static_cast<uint64_t>(std::count_if(freqs.begin(), freqs.end(),
                                          [](uint64_t f) { return f > 0; }));
  stats.max_doc_frequency = freqs.empty() ? 0 : freqs.front();

  if (stats.total_occurrences > 0 && !freqs.empty()) {
    size_t top = std::max<size_t>(1, stats.num_distinct_elements / 100);
    uint64_t top_sum = std::accumulate(
        freqs.begin(), freqs.begin() + std::min(top, freqs.size()),
        uint64_t{0});
    stats.top1pct_occurrence_share =
        static_cast<double>(top_sum) /
        static_cast<double>(stats.total_occurrences);
  }
  return stats;
}

std::vector<double> MaxTokenScores(const RecordSet& records) {
  std::vector<double> max_scores(records.vocabulary_size(), 0.0);
  for (RecordId id = 0; id < records.size(); ++id) {
    const RecordView r = records.record(id);
    for (size_t i = 0; i < r.size(); ++i) {
      double& slot = max_scores[r.token(i)];
      slot = std::max(slot, r.score(i));
    }
  }
  return max_scores;
}

std::vector<TokenId> TokensByFrequency(const RecordSet& records) {
  const std::vector<uint64_t> df = records.CountDocumentFrequencies().counts;
  std::vector<TokenId> order(df.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&df](TokenId a, TokenId b) { return df[a] > df[b]; });
  return order;
}

std::vector<TokenId> TopFrequentTokens(const RecordSet& records,
                                       size_t count) {
  std::vector<TokenId> by_frequency = TokensByFrequency(records);
  if (by_frequency.size() > count) by_frequency.resize(count);
  return by_frequency;
}

}  // namespace ssjoin
