#include "core/overlap_predicate.h"

#include "util/logging.h"
#include "util/string_util.h"

namespace ssjoin {

OverlapPredicate::OverlapPredicate(double threshold)
    : threshold_(threshold) {
  SSJOIN_CHECK(threshold > 0);
}

OverlapPredicate::OverlapPredicate(double threshold,
                                   std::vector<double> token_weights)
    : threshold_(threshold), token_weights_(std::move(token_weights)) {
  SSJOIN_CHECK(threshold > 0);
  for (double w : token_weights_) SSJOIN_CHECK(w > 0);
}

std::string OverlapPredicate::name() const {
  return weighted() ? "weighted-overlap" : "overlap";
}

std::string OverlapPredicate::fingerprint() const {
  return name() + " threshold=" + FormatDoubleExact(threshold_);
}

void OverlapPredicate::Prepare(RecordSet* records) const {
  for (RecordId id = 0; id < records->size(); ++id) {
    const RecordView r = records->record(id);
    double norm = 0;
    for (size_t i = 0; i < r.size(); ++i) {
      double weight = StaticTokenWeight(r.token(i));
      records->set_score(id, i, std::sqrt(weight));
      norm += weight;
    }
    records->set_norm(id, norm);
  }
}

double OverlapPredicate::ThresholdForNorms(double /*norm_r*/,
                                           double /*norm_s*/) const {
  return threshold_;
}

double OverlapPredicate::StaticTokenWeight(TokenId t) const {
  return t < token_weights_.size() ? token_weights_[t] : 1.0;
}

}  // namespace ssjoin
