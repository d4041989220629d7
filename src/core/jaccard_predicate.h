#ifndef SSJOIN_CORE_JACCARD_PREDICATE_H_
#define SSJOIN_CORE_JACCARD_PREDICATE_H_

#include <string>
#include <vector>

#include "core/predicate.h"

namespace ssjoin {

/// The Jaccard-coefficient join of Section 5.2.1: match iff
/// |r ∩ s| / |r ∪ s| >= f. Rewritten as an overlap threshold,
///
///   |r ∩ s| >= f / (1 + f) * (|r| + |s|) = T(r, s),
///
/// which is non-decreasing in both set sizes, so the norm is the set
/// size. The additional filter is the size-ratio condition
/// min(|r|/|s|, |s|/|r|) >= f.
///
/// The weighted extension (paper: "intersection and union on the weighted
/// words") replaces set sizes by total token weight; pass per-token
/// weights to enable it.
class JaccardPredicate : public Predicate {
 public:
  /// Requires 0 < fraction <= 1.
  explicit JaccardPredicate(double fraction);
  JaccardPredicate(double fraction, std::vector<double> token_weights);

  std::string name() const override;
  std::string fingerprint() const override;
  void Prepare(RecordSet* records) const override;
  double ThresholdForNorms(double norm_r, double norm_s) const override;
  bool NormFilter(double norm_r, double norm_s) const override;
  bool has_norm_filter() const override { return true; }
  /// A partner has norm >= f * norm_r (size-ratio filter), so the
  /// threshold is at least f/(1+f) (norm_r + f norm_r) = f * norm_r.
  double MinMatchOverlap(double norm_r) const override {
    return fraction_ * norm_r;
  }

  double fraction() const { return fraction_; }
  bool weighted() const { return !token_weights_.empty(); }

 private:
  double TokenWeight(TokenId t) const;

  double fraction_;
  std::vector<double> token_weights_;
};

}  // namespace ssjoin

#endif  // SSJOIN_CORE_JACCARD_PREDICATE_H_
