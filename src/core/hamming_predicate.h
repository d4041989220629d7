#ifndef SSJOIN_CORE_HAMMING_PREDICATE_H_
#define SSJOIN_CORE_HAMMING_PREDICATE_H_

#include <string>

#include "core/predicate.h"

namespace ssjoin {

/// Set-Hamming join: match iff the symmetric difference is small,
///
///   |r Δ s| = |r| + |s| - 2 |r ∩ s| <= k.
///
/// In the Section 5 framework this is the overlap threshold
///
///   |r ∩ s| >= (|r| + |s| - k) / 2 = T(r, s),
///
/// non-decreasing in both set sizes, with the range filter
/// | |r| - |s| | <= k (each differing element contributes at least one to
/// the symmetric difference).
class HammingPredicate : public Predicate {
 public:
  /// Requires k >= 0.
  explicit HammingPredicate(double k);

  std::string name() const override { return "hamming"; }
  std::string fingerprint() const override;
  void Prepare(RecordSet* records) const override;
  double ThresholdForNorms(double norm_r, double norm_s) const override;
  bool NormFilter(double norm_r, double norm_s) const override;
  bool has_norm_filter() const override { return true; }

  /// Two sets with |r| + |s| <= k match while sharing nothing, invisible
  /// to any inverted-index algorithm; the join driver brute-forces records
  /// below this bound (both endpoints of such a pair are below k + 1).
  double ShortRecordNormBound() const override { return k_ + 1.0; }
  /// A partner has norm >= norm_r - k, so the threshold is at least
  /// (norm_r + norm_r - k - k) / 2 = norm_r - k.
  double MinMatchOverlap(double norm_r) const override {
    return norm_r - k_;
  }

  double k() const { return k_; }

 private:
  double k_;
};

}  // namespace ssjoin

#endif  // SSJOIN_CORE_HAMMING_PREDICATE_H_
