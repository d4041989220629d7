#ifndef SSJOIN_TEXT_TOKENIZER_H_
#define SSJOIN_TEXT_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

#include "text/token_dictionary.h"

namespace ssjoin {

/// Converts text into the *set* of its words (Table 1's "All-words"
/// similarity function). Duplicate words within one record are kept as a
/// single set element; the multiplicity is reported separately so TF-IDF
/// weighting can use term frequency.
class WordTokenizer {
 public:
  /// Interns the words of `text` into `dict` in text order and returns
  /// (token, within-record frequency) pairs, distinct and in increasing
  /// token order.
  std::vector<std::pair<TokenId, uint32_t>> Tokenize(
      std::string_view text, TokenDictionary* dict) const;
};

/// Converts text into the set of its q-grams (Table 1's "All-3grams").
/// The string is padded with q-1 copies of `pad` on both ends, the standard
/// construction that makes the edit-distance q-gram count filter
/// (Section 5.2.3) valid at string boundaries.
///
/// With `tag_occurrences`, the i-th repetition of a gram within one record
/// is interned as a distinct token ("gram", "gram\x01 1", "gram\x01 2", ...),
/// so that the *set* intersection of two tokenized records equals their
/// q-gram *multiset* intersection — the quantity the edit-distance count
/// filter bounds. Records become exact multiset representations while the
/// join algorithms keep set semantics.
class QGramTokenizer {
 public:
  explicit QGramTokenizer(int q, char pad = '$', bool tag_occurrences = false);

  int q() const { return q_; }

  std::vector<std::pair<TokenId, uint32_t>> Tokenize(
      std::string_view text, TokenDictionary* dict) const;

 private:
  int q_;
  char pad_;
  bool tag_occurrences_;
};

}  // namespace ssjoin

#endif  // SSJOIN_TEXT_TOKENIZER_H_
