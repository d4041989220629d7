#ifndef SSJOIN_CORE_COSINE_PREDICATE_H_
#define SSJOIN_CORE_COSINE_PREDICATE_H_

#include <optional>
#include <string>

#include "core/predicate.h"

namespace ssjoin {

/// The cosine-similarity join on TF-IDF scores of Section 5.2.2: match iff
///
///   sum_w TF-IDF(w, r) * TF-IDF(w, s) / (||r||_2 ||s||_2) >= f.
///
/// Prepare installs score(w, r) = TF-IDF(w, r) / ||r||_2 (unit-normalized
/// vectors), making the match amount the cosine itself and the threshold
/// the constant f. Because IDF scores are inversely related to list
/// length, the large-and-low-weight lists land in MergeOpt's L set — the
/// paper notes the optimization is *more* effective here than for
/// unweighted overlap.
///
/// Records are sets, so the within-record term frequency is 1 and
/// TF-IDF(w, r) reduces to the IDF factor log(1 + N / fr(w)), with fr(w)
/// the document frequency counted once per Prepare over the corpus being
/// prepared.
class CosinePredicate : public Predicate {
 public:
  /// Requires 0 < fraction <= 1.
  explicit CosinePredicate(double fraction);

  std::string name() const override { return "cosine"; }
  std::string fingerprint() const override;
  void Prepare(RecordSet* records) const override;
  /// Non-self joins weight both sides against the combined corpus so a
  /// token's IDF is the same on the left and the right.
  void PrepareForJoin(RecordSet* left, RecordSet* right) const override;
  /// Serving/incremental use: weights `staging` with the reference
  /// corpus's document frequencies frozen in place (tokens unseen there
  /// get the maximum IDF), reading the table in place — nothing sized by
  /// the vocabulary is copied or allocated per call. Re-scoring a record
  /// that is *in* the reference corpus reproduces its in-corpus scores
  /// exactly.
  void PrepareIncremental(const DocumentFrequencies& reference,
                          RecordSet* staging) const override;
  double ThresholdForNorms(double norm_r, double norm_s) const override;
  std::optional<double> ConstantThreshold() const override {
    return fraction_;
  }
  bool corpus_independent_scores() const override { return false; }
  /// Unit vectors: every match has dot product >= f.
  double MinMatchOverlap(double /*norm_r*/) const override {
    return fraction_;
  }

  double fraction() const { return fraction_; }

 private:
  double fraction_;
};

}  // namespace ssjoin

#endif  // SSJOIN_CORE_COSINE_PREDICATE_H_
