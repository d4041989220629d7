#ifndef SSJOIN_CORE_OVERLAP_PREDICATE_H_
#define SSJOIN_CORE_OVERLAP_PREDICATE_H_

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "core/predicate.h"

namespace ssjoin {

/// The (weighted) T-overlap join of Section 2: match iff the total weight
/// of common tokens is >= T. In the framework's product form the match
/// contribution of token w must equal weight(w), so Prepare installs
/// score(w, r) = sqrt(weight(w)). The record norm is then the total
/// weight of the record's tokens (Equation 1).
class OverlapPredicate : public Predicate {
 public:
  /// Unweighted T-overlap: weight(w) = 1, i.e. |r ∩ s| >= T.
  explicit OverlapPredicate(double threshold);

  /// Weighted T-overlap: `token_weights[t]` is weight(t) (> 0); tokens
  /// beyond the vector default to 1.
  OverlapPredicate(double threshold, std::vector<double> token_weights);

  std::string name() const override;
  std::string fingerprint() const override;
  void Prepare(RecordSet* records) const override;
  double ThresholdForNorms(double norm_r, double norm_s) const override;
  std::optional<double> ConstantThreshold() const override {
    return threshold_;
  }
  bool has_static_weights() const override { return true; }
  double StaticTokenWeight(TokenId t) const override;
  /// Every match overlaps by at least T.
  double MinMatchOverlap(double /*norm_r*/) const override {
    return threshold_;
  }

  double threshold() const { return threshold_; }
  bool weighted() const { return !token_weights_.empty(); }

 private:
  double threshold_;
  std::vector<double> token_weights_;
};

}  // namespace ssjoin

#endif  // SSJOIN_CORE_OVERLAP_PREDICATE_H_
