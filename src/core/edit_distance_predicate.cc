#include "core/edit_distance_predicate.h"

#include <algorithm>
#include <cmath>

#include "text/edit_distance.h"
#include "util/logging.h"

namespace ssjoin {

EditDistancePredicate::EditDistancePredicate(int k, int q) : k_(k), q_(q) {
  SSJOIN_CHECK(k >= 0);
  SSJOIN_CHECK(q >= 1);
}

std::string EditDistancePredicate::fingerprint() const {
  return name() + " k=" + std::to_string(k_) + " q=" + std::to_string(q_);
}

void EditDistancePredicate::Prepare(RecordSet* records) const {
  for (RecordId id = 0; id < records->size(); ++id) {
    const RecordView r = records->record(id);
    for (size_t i = 0; i < r.size(); ++i) records->set_score(id, i, 1.0);
    records->set_norm(id, static_cast<double>(r.text_length()));
  }
}

double EditDistancePredicate::ThresholdForNorms(double norm_r,
                                                double norm_s) const {
  return std::max(norm_r, norm_s) - 1.0 - static_cast<double>(q_) * (k_ - 1);
}

bool EditDistancePredicate::NormFilter(double norm_r, double norm_s) const {
  return std::abs(norm_r - norm_s) <= static_cast<double>(k_);
}

bool EditDistancePredicate::MatchesCross(const RecordSet& set_a, RecordId a,
                                         const RecordSet& set_b,
                                         RecordId b) const {
  // text_view: either side may be a mapped (view-mode) segment arena.
  const std::string_view text_a = set_a.text_view(a);
  const std::string_view text_b = set_b.text_view(b);
  if (!NormFilter(static_cast<double>(text_a.size()),
                  static_cast<double>(text_b.size()))) {
    return false;
  }
  return EditDistanceAtMost(text_a, text_b, static_cast<size_t>(k_));
}

double EditDistancePredicate::ShortRecordNormBound() const {
  // T(r, s) >= 1 requires max(len) >= 2 + q(k-1); pairs where both strings
  // are shorter can share zero q-grams yet be within distance k.
  return 2.0 + static_cast<double>(q_) * (k_ - 1);
}

}  // namespace ssjoin
