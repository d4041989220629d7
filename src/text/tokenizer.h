#ifndef SSJOIN_TEXT_TOKENIZER_H_
#define SSJOIN_TEXT_TOKENIZER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "text/token_dictionary.h"

namespace ssjoin {

// The tokenizing kernels, one per token mode. Each makes one pass over a
// line's bytes through a 256-entry byte table and interns its tokens in
// text order, so a dictionary's ids stay dense and first-seen. Scratch
// buffers live in the tokenizer and are reused from line to line, so a
// tokenizer is not thread-safe (nor is the dictionary it grows).
//
// With `normalize`, text is canonicalized the way the paper cleans
// citations and addresses before segmenting them, in the same pass:
// ASCII letters are lowercased, digits kept, and every other byte --
// punctuation, whitespace, control bytes and every byte >= 0x80, exactly
// the bytes the C locale's isalnum rejects -- separates words; runs of
// separators become one space and the ends are trimmed.
//
// Tokenize returns the text the tokens were taken from: the normalized
// text (valid until the next call), or `text` itself.

/// Table 1's "All-words": a text's tokens are its words. Without
/// normalization the text is kept as given and words split on space,
/// tab, CR and LF.
class WordTokenizer {
 public:
  explicit WordTokenizer(bool normalize = false) : normalize_(normalize) {}

  /// Interns the words of `text` into `dict` and replaces `*ids` with
  /// their ids in text order, repeats included.
  std::string_view Tokenize(std::string_view text, TokenDictionary* dict,
                            std::vector<TokenId>* ids);

 private:
  bool normalize_;
  std::string normalized_;
};

/// Table 1's "All-3grams" with configurable q: a text's tokens are the
/// q-grams of the text padded with q-1 '$' on both ends, the construction
/// that makes the edit-distance q-gram count filter (Section 5.2.3) valid
/// at string boundaries.
///
/// With `tag_occurrences`, the k-th repeat of a gram within one text is
/// interned as a distinct token "gram\x01k" (k = 1, 2, ...), so that the
/// *set* intersection of two tokenized records equals their q-gram
/// *multiset* intersection -- the quantity the edit-distance count filter
/// bounds. Records become exact multiset representations while the join
/// algorithms keep set semantics.
class QGramTokenizer {
 public:
  explicit QGramTokenizer(int q, bool tag_occurrences = false,
                          bool normalize = false);

  int q() const { return q_; }

  /// Interns the grams of `text` into `dict` and replaces `*ids` with
  /// their ids in window order (untagged repeats included).
  std::string_view Tokenize(std::string_view text, TokenDictionary* dict,
                            std::vector<TokenId>* ids);

 private:
  /// `gram_id` itself for the first window of its gram in this text,
  /// else the id of its tagged repeat name.
  TokenId TagRepeat(TokenId gram_id, std::string_view gram,
                    TokenDictionary* dict);

  int q_;
  bool tag_occurrences_;
  bool normalize_;
  std::string padded_;
  std::string tagged_;
  // Tag mode: repeats_[gram id] counts the gram's windows so far in the
  // current text; zeroed again before Tokenize returns.
  std::vector<uint32_t> repeats_;
};

}  // namespace ssjoin

#endif  // SSJOIN_TEXT_TOKENIZER_H_
