#ifndef SSJOIN_CORE_OVERLAP_COEFFICIENT_PREDICATE_H_
#define SSJOIN_CORE_OVERLAP_COEFFICIENT_PREDICATE_H_

#include <string>

#include "core/predicate.h"

namespace ssjoin {

/// Overlap (Szymkiewicz–Simpson) coefficient join: match iff
///
///   |r ∩ s| / min(|r|, |s|) >= f,
///
/// i.e. a fraction-f containment of the smaller set — the fuzzy relaxation
/// of the set-containment joins the paper cites as prior work ([21], [18]).
/// In the Section 5 framework: T(r, s) = f * min(|r|, |s|), non-decreasing
/// in both sizes. There is no useful size-ratio filter (a tiny set may be
/// contained in an arbitrarily large one).
///
/// Empty records are defined to match nothing (the coefficient is 0/0).
class OverlapCoefficientPredicate : public Predicate {
 public:
  /// Requires 0 < fraction <= 1.
  explicit OverlapCoefficientPredicate(double fraction);

  std::string name() const override { return "overlap-coefficient"; }
  std::string fingerprint() const override;
  void Prepare(RecordSet* records) const override;
  double ThresholdForNorms(double norm_r, double norm_s) const override;
  bool MatchesCross(const RecordSet& set_a, RecordId a,
                    const RecordSet& set_b, RecordId b) const override;

  double fraction() const { return fraction_; }

 private:
  double fraction_;
};

}  // namespace ssjoin

#endif  // SSJOIN_CORE_OVERLAP_COEFFICIENT_PREDICATE_H_
