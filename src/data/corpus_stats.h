#ifndef SSJOIN_DATA_CORPUS_STATS_H_
#define SSJOIN_DATA_CORPUS_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/record_set.h"

namespace ssjoin {

/// Summary statistics over a RecordSet: the quantities Table 1 reports per
/// similarity function, plus skew diagnostics used to validate that the
/// synthetic corpora reproduce the paper's frequency distributions.
struct CorpusStats {
  uint64_t num_records = 0;
  /// Average number of distinct elements per set (Table 1 column 2).
  double average_set_size = 0;
  /// Number of distinct elements over all sets (Table 1 column 3).
  uint64_t num_distinct_elements = 0;
  /// Total word occurrences W (Section 4's index-size unit).
  uint64_t total_occurrences = 0;
  uint64_t max_set_size = 0;
  uint64_t min_set_size = 0;
  /// Document frequency of the most frequent element.
  uint64_t max_doc_frequency = 0;
  /// Fraction of total occurrences contributed by the 1% most frequent
  /// elements; close to 1 for highly skewed (Zipfian) corpora.
  double top1pct_occurrence_share = 0;

  std::string ToString() const;
};

/// Computes CorpusStats in one pass over `records`.
CorpusStats ComputeCorpusStats(const RecordSet& records);

/// Join-planning statistics, each counted from the arena per call: take
/// them once per join.
///
/// max_token_scores[t] = max over records r of score(t, r); 0 for tokens
/// absent from the corpus. Sized vocabulary_size().
std::vector<double> MaxTokenScores(const RecordSet& records);

/// All token ids ordered by decreasing document frequency, ties broken by
/// increasing token id.
std::vector<TokenId> TokensByFrequency(const RecordSet& records);

/// Returns the ids of the `count` most document-frequent tokens
/// (ties broken by token id). Used by Word-Groups (Sections 2.3, 3.1).
std::vector<TokenId> TopFrequentTokens(const RecordSet& records, size_t count);

}  // namespace ssjoin

#endif  // SSJOIN_DATA_CORPUS_STATS_H_
