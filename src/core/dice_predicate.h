#ifndef SSJOIN_CORE_DICE_PREDICATE_H_
#define SSJOIN_CORE_DICE_PREDICATE_H_

#include <string>

#include "core/predicate.h"

namespace ssjoin {

/// Dice (Sørensen) coefficient join: match iff
///
///   2 |r ∩ s| / (|r| + |s|) >= f.
///
/// Not evaluated in the paper, but it drops straight out of the Section 5
/// framework: rewriting gives the overlap threshold
///
///   |r ∩ s| >= f/2 (|r| + |s|) = T(r, s),
///
/// non-decreasing in both set sizes (norm = set size), with the size-ratio
/// filter min/max >= f / (2 - f) (attained when the smaller set is fully
/// contained in the larger).
class DicePredicate : public Predicate {
 public:
  /// Requires 0 < fraction <= 1.
  explicit DicePredicate(double fraction);

  std::string name() const override { return "dice"; }
  std::string fingerprint() const override;
  void Prepare(RecordSet* records) const override;
  double ThresholdForNorms(double norm_r, double norm_s) const override;
  bool NormFilter(double norm_r, double norm_s) const override;
  bool has_norm_filter() const override { return true; }
  /// A partner has norm >= f/(2-f) norm_r, so the threshold is at least
  /// f/2 (norm_r + f/(2-f) norm_r) = f norm_r / (2 - f).
  double MinMatchOverlap(double norm_r) const override {
    return fraction_ * norm_r / (2.0 - fraction_);
  }

  double fraction() const { return fraction_; }

 private:
  double fraction_;
};

}  // namespace ssjoin

#endif  // SSJOIN_CORE_DICE_PREDICATE_H_
