#include "core/predicate.h"

namespace ssjoin {

bool Predicate::NormFilter(double /*norm_r*/, double /*norm_s*/) const {
  return true;
}

void Predicate::PrepareForJoin(RecordSet* left, RecordSet* right) const {
  Prepare(left);
  Prepare(right);
}

void Predicate::PrepareIncremental(const DocumentFrequencies& /*reference*/,
                                   RecordSet* staging) const {
  Prepare(staging);
}

bool Predicate::MatchesCross(const RecordSet& set_a, RecordId a,
                             const RecordSet& set_b, RecordId b) const {
  const RecordView ra = set_a.record(a);
  const RecordView rb = set_b.record(b);
  if (!NormFilter(ra.norm(), rb.norm())) return false;
  return ra.OverlapWith(rb) >= ThresholdForNorms(ra.norm(), rb.norm());
}

double Predicate::StaticTokenWeight(TokenId /*t*/) const { return 1.0; }

double Predicate::MinMatchOverlap(double /*norm_r*/) const { return 0; }

}  // namespace ssjoin
