#include "core/jaccard_predicate.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/string_util.h"

namespace ssjoin {

JaccardPredicate::JaccardPredicate(double fraction) : fraction_(fraction) {
  SSJOIN_CHECK(fraction > 0 && fraction <= 1);
}

JaccardPredicate::JaccardPredicate(double fraction,
                                   std::vector<double> token_weights)
    : fraction_(fraction), token_weights_(std::move(token_weights)) {
  SSJOIN_CHECK(fraction > 0 && fraction <= 1);
  for (double w : token_weights_) SSJOIN_CHECK(w > 0);
}

std::string JaccardPredicate::name() const {
  return weighted() ? "weighted-jaccard" : "jaccard";
}

std::string JaccardPredicate::fingerprint() const {
  return name() + " threshold=" + FormatDoubleExact(fraction_);
}

double JaccardPredicate::TokenWeight(TokenId t) const {
  return t < token_weights_.size() ? token_weights_[t] : 1.0;
}

void JaccardPredicate::Prepare(RecordSet* records) const {
  for (RecordId id = 0; id < records->size(); ++id) {
    const RecordView r = records->record(id);
    double norm = 0;
    for (size_t i = 0; i < r.size(); ++i) {
      double weight = TokenWeight(r.token(i));
      records->set_score(id, i, std::sqrt(weight));
      norm += weight;
    }
    records->set_norm(id, norm);
  }
}

double JaccardPredicate::ThresholdForNorms(double norm_r,
                                           double norm_s) const {
  return fraction_ / (1.0 + fraction_) * (norm_r + norm_s);
}

bool JaccardPredicate::NormFilter(double norm_r, double norm_s) const {
  return std::min(norm_r, norm_s) >= fraction_ * std::max(norm_r, norm_s);
}

}  // namespace ssjoin
