#include "core/overlap_coefficient_predicate.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"

namespace ssjoin {

OverlapCoefficientPredicate::OverlapCoefficientPredicate(double fraction)
    : fraction_(fraction) {
  SSJOIN_CHECK(fraction > 0 && fraction <= 1);
}

std::string OverlapCoefficientPredicate::fingerprint() const {
  return name() + " threshold=" + FormatDoubleExact(fraction_);
}

void OverlapCoefficientPredicate::Prepare(RecordSet* records) const {
  for (RecordId id = 0; id < records->size(); ++id) {
    size_t size = records->record_size(id);
    for (size_t i = 0; i < size; ++i) records->set_score(id, i, 1.0);
    records->set_norm(id, static_cast<double>(size));
  }
}

double OverlapCoefficientPredicate::ThresholdForNorms(double norm_r,
                                                      double norm_s) const {
  return fraction_ * std::min(norm_r, norm_s);
}

bool OverlapCoefficientPredicate::MatchesCross(const RecordSet& set_a,
                                               RecordId a,
                                               const RecordSet& set_b,
                                               RecordId b) const {
  const RecordView ra = set_a.record(a);
  const RecordView rb = set_b.record(b);
  // 0/0 guard: an empty record matches nothing. Without this, the default
  // overlap >= T comparison would accept 0 >= 0 — a pair the index-based
  // algorithms can never surface (no shared token).
  if (ra.empty() || rb.empty()) return false;
  return ra.OverlapWith(rb) >= ThresholdForNorms(ra.norm(), rb.norm());
}

}  // namespace ssjoin
