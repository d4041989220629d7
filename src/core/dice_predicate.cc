#include "core/dice_predicate.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"

namespace ssjoin {

DicePredicate::DicePredicate(double fraction) : fraction_(fraction) {
  SSJOIN_CHECK(fraction > 0 && fraction <= 1);
}

std::string DicePredicate::fingerprint() const {
  return name() + " threshold=" + FormatDoubleExact(fraction_);
}

void DicePredicate::Prepare(RecordSet* records) const {
  for (RecordId id = 0; id < records->size(); ++id) {
    size_t size = records->record_size(id);
    for (size_t i = 0; i < size; ++i) records->set_score(id, i, 1.0);
    records->set_norm(id, static_cast<double>(size));
  }
}

double DicePredicate::ThresholdForNorms(double norm_r, double norm_s) const {
  return fraction_ / 2.0 * (norm_r + norm_s);
}

bool DicePredicate::NormFilter(double norm_r, double norm_s) const {
  // Best case: the smaller set is contained in the larger, giving
  // Dice = 2 min / (min + max) >= f  <=>  min/max >= f / (2 - f).
  double lo = std::min(norm_r, norm_s);
  double hi = std::max(norm_r, norm_s);
  return lo >= fraction_ / (2.0 - fraction_) * hi;
}

}  // namespace ssjoin
