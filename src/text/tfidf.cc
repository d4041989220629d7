#include "text/tfidf.h"

#include <cmath>

#include "util/logging.h"

namespace ssjoin {

TfIdfWeighter::TfIdfWeighter(const std::vector<uint64_t>& token_frequency,
                             uint64_t num_records)
    : token_frequency_(&token_frequency), num_records_(num_records) {}

double TfIdfWeighter::Weight(TokenId t, uint32_t tf) const {
  SSJOIN_DCHECK(tf > 0);
  uint64_t corpus_freq =
      t < token_frequency_->size() ? (*token_frequency_)[t] : 0;
  // Unseen tokens get the maximum IDF, matching fr(w) -> 0.
  double idf = std::log(
      1.0 + static_cast<double>(num_records_) /
                (corpus_freq > 0 ? static_cast<double>(corpus_freq) : 1.0));
  double tf_part = 1.0 + std::log(static_cast<double>(tf));
  return tf_part * idf;
}

}  // namespace ssjoin
