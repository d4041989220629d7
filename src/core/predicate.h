#ifndef SSJOIN_CORE_PREDICATE_H_
#define SSJOIN_CORE_PREDICATE_H_

#include <optional>
#include <string>
#include <vector>

#include "data/record.h"
#include "data/record_set.h"

namespace ssjoin {

/// The general similarity-join framework of Section 5, defined by three
/// subroutines:
///
///   * a word match score score(w, r), installed on the records by
///     Prepare(); a pair's match amount is the sum over common tokens of
///     score(w, r) * score(w, s) (Record::OverlapWith);
///   * a threshold T(r, s) that is a non-decreasing function of the record
///     scores ||r||, ||s|| (Equation 1), exposed here through
///     ThresholdForNorms so the same code computes T(r, s), the index
///     lower bound T(r, I) = T(r, minS) and the per-candidate bound
///     T(r, m);
///   * an optional pair filter, which Section 5.3 observes is always a
///     range condition on an ordered record property — here, the norm.
///
/// A predicate is also the final arbiter of matches (Matches recomputes
/// the overlap in canonical token order so that every algorithm and the
/// brute-force reference agree bit-for-bit on borderline pairs).
class Predicate {
 public:
  virtual ~Predicate() = default;

  virtual std::string name() const = 0;

  /// name() plus every parameter that decides answers or what a serving
  /// segment stores: the threshold, and for edit distance k and q. Values
  /// print in a form that parses back exactly, e.g. "jaccard
  /// threshold=0.5" or "edit-distance k=1 q=3". A service's data dir
  /// reopens only under the fingerprint it was written with.
  virtual std::string fingerprint() const = 0;

  /// Installs score(w, r) and norm ||r|| on every record. Idempotent.
  virtual void Prepare(RecordSet* records) const = 0;

  /// Prepares both sides of a non-self join consistently. The default
  /// prepares each side independently, which is correct for predicates
  /// whose scores depend only on the record itself; corpus-statistics
  /// predicates (TF-IDF cosine) override it to weight both sides against
  /// the combined corpus.
  virtual void PrepareForJoin(RecordSet* left, RecordSet* right) const;

  /// Prepares `staging` (new or query records) for comparison against an
  /// already-prepared corpus whose document frequencies are `reference`.
  /// The default forwards to Prepare(staging), which is exact whenever
  /// scores depend only on the record itself. Corpus-statistics
  /// predicates (TF-IDF cosine) override it to weight the staging
  /// records with the reference corpus's statistics frozen in place —
  /// exact for records drawn from the reference corpus, and the standard
  /// serving-time approximation for genuinely new records until the next
  /// full Prepare over the grown corpus. Reads `reference` only, so
  /// concurrent requests may stage against one shared table. The serving
  /// layer's base/delta scoring (src/serve/) is built on this hook.
  virtual void PrepareIncremental(const DocumentFrequencies& reference,
                                  RecordSet* staging) const;

  /// T as a function of the two record norms. Must be non-decreasing in
  /// both arguments. May return a value <= 0, meaning any shared token
  /// makes a pair a candidate.
  virtual double ThresholdForNorms(double norm_r, double norm_s) const = 0;

  /// The "additional filter" of the framework. Pairs failing it can be
  /// skipped before any token matching. Default: pass.
  virtual bool NormFilter(double norm_r, double norm_s) const;

  /// True when NormFilter is not vacuous (lets the merge skip per-posting
  /// filter calls otherwise).
  virtual bool has_norm_filter() const { return false; }

  /// Exact decision for a pair, recomputing the overlap canonically.
  /// Self-join form; forwards to MatchesCross with both sides equal.
  bool Matches(const RecordSet& records, RecordId a, RecordId b) const {
    return MatchesCross(records, a, records, b);
  }

  /// Exact decision for a pair drawn from two (possibly equal) record
  /// sets. Subclasses add verification beyond the overlap test (edit
  /// distance) by overriding this.
  virtual bool MatchesCross(const RecordSet& set_a, RecordId a,
                            const RecordSet& set_b, RecordId b) const;

  /// The threshold when it does not depend on the pair (T-overlap, cosine);
  /// enables the stopword, Pair-Count and Word-Groups optimizations.
  virtual std::optional<double> ConstantThreshold() const {
    return std::nullopt;
  }

  /// True when score(w, r) does not depend on r, i.e. tokens have static
  /// weights (required by Word-Groups' itemset weights).
  virtual bool has_static_weights() const { return false; }

  /// The pair-match contribution of token t when weights are static:
  /// score(t, r) * score(t, s) for any r, s containing t.
  virtual double StaticTokenWeight(TokenId t) const;

  /// Records with norm strictly below this bound can match records that
  /// share no token at all (tiny strings under the edit-distance q-gram
  /// filter); the join driver handles such pairs with a brute-force side
  /// pool. 0 disables the fallback.
  virtual double ShortRecordNormBound() const { return 0; }

  /// True when Prepare's scores depend only on the record itself (not on
  /// corpus statistics), which streaming/incremental use requires.
  /// TF-IDF cosine returns false.
  virtual bool corpus_independent_scores() const { return true; }

  /// The smallest overlap any matching pair involving a record of norm
  /// `norm_r` can have — the α(r) bound that powers prefix filtering
  /// (the AllPairs/PPJoin line this paper seeded). Derived per predicate
  /// from the threshold and the range filter; must be a valid lower
  /// bound. A return value <= 0 disables prefix filtering for the
  /// predicate (the default).
  virtual double MinMatchOverlap(double norm_r) const;
};

}  // namespace ssjoin

#endif  // SSJOIN_CORE_PREDICATE_H_
