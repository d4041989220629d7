#include "core/hamming_predicate.h"

#include <cmath>

#include "util/logging.h"
#include "util/string_util.h"

namespace ssjoin {

HammingPredicate::HammingPredicate(double k) : k_(k) {
  SSJOIN_CHECK(k >= 0);
}

std::string HammingPredicate::fingerprint() const {
  return name() + " threshold=" + FormatDoubleExact(k_);
}

void HammingPredicate::Prepare(RecordSet* records) const {
  for (RecordId id = 0; id < records->size(); ++id) {
    size_t size = records->record_size(id);
    for (size_t i = 0; i < size; ++i) records->set_score(id, i, 1.0);
    records->set_norm(id, static_cast<double>(size));
  }
}

double HammingPredicate::ThresholdForNorms(double norm_r,
                                           double norm_s) const {
  return (norm_r + norm_s - k_) / 2.0;
}

bool HammingPredicate::NormFilter(double norm_r, double norm_s) const {
  return std::abs(norm_r - norm_s) <= k_;
}

}  // namespace ssjoin
