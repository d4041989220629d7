#ifndef SSJOIN_TEXT_TFIDF_H_
#define SSJOIN_TEXT_TFIDF_H_

#include <cstdint>
#include <vector>

#include "text/token_dictionary.h"

namespace ssjoin {

/// TF-IDF weighting used by the cosine predicate (Section 5.2.2):
///
///   TF-IDF(w, r) = (1 + log fr(w, r)) * log(1 + N / fr(w))
///
/// where fr(w, r) is the within-record frequency, fr(w) is the frequency
/// of w over the corpus, and N is the number of records. Records are
/// sets, so fr(w) is w's document frequency.
///
/// The weighter BORROWS its frequency table: a serving request weighs its
/// staged records against the front segment's table, counted once when
/// that segment was built or reopened, without copying it.
class TfIdfWeighter {
 public:
  /// `token_frequency[t]` must hold fr(t) over a corpus of `num_records`
  /// records; tokens past its end count as unseen. The table must outlive
  /// the weighter.
  TfIdfWeighter(const std::vector<uint64_t>& token_frequency,
                uint64_t num_records);
  /// A temporary table would dangle.
  TfIdfWeighter(std::vector<uint64_t>&& token_frequency,
                uint64_t num_records) = delete;

  /// Raw TF-IDF score of token `t` appearing `tf` times in a record.
  double Weight(TokenId t, uint32_t tf) const;

  uint64_t num_records() const { return num_records_; }

 private:
  const std::vector<uint64_t>* token_frequency_;
  uint64_t num_records_;
};

}  // namespace ssjoin

#endif  // SSJOIN_TEXT_TFIDF_H_
