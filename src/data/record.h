#ifndef SSJOIN_DATA_RECORD_H_
#define SSJOIN_DATA_RECORD_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "data/record_view.h"
#include "text/token_dictionary.h"

namespace ssjoin {

/// Builder for one set-valued attribute value: the sorted set of its
/// tokens, each with a score. Scores are what the general framework of
/// Section 5 calls score(w, r); they default to 1. `norm` caches the
/// predicate-defined record score ||r|| (Equation 1) and `text_length`
/// carries the original string length used by the edit-distance threshold.
///
/// Records only exist at corpus-construction and deserialization
/// boundaries; once Add()ed to a RecordSet the tokens and scores live in
/// the set's columnar arena, and all hot paths operate on RecordView.
class Record {
 public:
  Record() = default;

  /// Builds a record from possibly-unsorted, possibly-duplicated tokens;
  /// duplicates are collapsed (set semantics) with unit scores.
  static Record FromTokens(std::vector<TokenId> tokens);

  /// Builds a record from (token, score) pairs; tokens must be distinct.
  static Record FromWeightedTokens(
      std::vector<std::pair<TokenId, double>> weighted);

  /// Deep-copies a view back into an owning builder.
  static Record FromView(RecordView view);

  /// Non-owning view over the builder's storage; valid while the Record
  /// is alive and unmodified.
  RecordView view() const {
    return RecordView(tokens_.data(), scores_.data(),
                      static_cast<uint32_t>(tokens_.size()), norm_,
                      text_length_);
  }

  /// Implicit view conversion (std::string -> std::string_view style), so
  /// builders flow into RecordView-taking APIs without boilerplate.
  operator RecordView() const { return view(); }  // NOLINT

  /// Number of distinct tokens.
  size_t size() const { return tokens_.size(); }
  bool empty() const { return tokens_.empty(); }

  /// Tokens in strictly increasing order.
  const std::vector<TokenId>& tokens() const { return tokens_; }
  /// scores()[i] is the score of tokens()[i].
  const std::vector<double>& scores() const { return scores_; }

  TokenId token(size_t i) const { return tokens_[i]; }
  double score(size_t i) const { return scores_[i]; }

  /// Binary-searches for `t`; returns its position or SIZE_MAX.
  size_t Find(TokenId t) const { return view().Find(t); }
  bool Contains(TokenId t) const { return view().Contains(t); }

  /// Rewrites the score of tokens()[i].
  void set_score(size_t i, double score) { scores_[i] = score; }

  double norm() const { return norm_; }
  void set_norm(double norm) { norm_ = norm; }

  uint32_t text_length() const { return text_length_; }
  void set_text_length(uint32_t len) { text_length_ = len; }

  /// Sum over common tokens of score(w, r) * score(w, s).
  double OverlapWith(const Record& other) const {
    return view().OverlapWith(other.view());
  }

  /// Number of common tokens, ignoring scores.
  size_t IntersectionSize(const Record& other) const {
    return view().IntersectionSize(other.view());
  }

 private:
  std::vector<TokenId> tokens_;
  std::vector<double> scores_;
  double norm_ = 0;
  uint32_t text_length_ = 0;
};

}  // namespace ssjoin

#endif  // SSJOIN_DATA_RECORD_H_
