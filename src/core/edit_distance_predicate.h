#ifndef SSJOIN_CORE_EDIT_DISTANCE_PREDICATE_H_
#define SSJOIN_CORE_EDIT_DISTANCE_PREDICATE_H_

#include <string>

#include "core/predicate.h"

namespace ssjoin {

/// The edit-distance join of Section 5.2.3: match iff the Levenshtein
/// distance between the two original strings is <= k. Operates on a
/// q-gram corpus (BuildQGramCorpus with the same q). The framework's
/// pieces are:
///
///   * score(w, r) = 1 (match amount = number of shared q-grams);
///   * threshold T(r, s) = max(len(r), len(s)) - 1 - q(k - 1), the q-gram
///     count filter, non-decreasing in the string lengths, so the norm is
///     text_length;
///   * filter |len(r) - len(s)| <= k;
///   * Matches additionally runs the banded edit-distance verifier, making
///     the join exact rather than a candidate filter.
///
/// Caveat handled by the join driver: when both strings are shorter than
/// ShortRecordNormBound() the q-gram threshold is vacuous and a matching
/// pair may share no q-gram at all; such records are cross-checked
/// brute-force.
class EditDistancePredicate : public Predicate {
 public:
  /// Requires k >= 0 and q >= 1. `q` must match the corpus tokenization.
  EditDistancePredicate(int k, int q);

  std::string name() const override { return "edit-distance"; }
  std::string fingerprint() const override;
  void Prepare(RecordSet* records) const override;
  double ThresholdForNorms(double norm_r, double norm_s) const override;
  bool NormFilter(double norm_r, double norm_s) const override;
  bool has_norm_filter() const override { return true; }
  bool MatchesCross(const RecordSet& set_a, RecordId a,
                    const RecordSet& set_b, RecordId b) const override;
  bool has_static_weights() const override { return true; }
  double ShortRecordNormBound() const override;

  int k() const { return k_; }
  int q() const { return q_; }

 private:
  int k_;
  int q_;
};

}  // namespace ssjoin

#endif  // SSJOIN_CORE_EDIT_DISTANCE_PREDICATE_H_
