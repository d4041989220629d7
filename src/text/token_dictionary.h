#ifndef SSJOIN_TEXT_TOKEN_DICTIONARY_H_
#define SSJOIN_TEXT_TOKEN_DICTIONARY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ssjoin {

/// Dense token identifier. Tokens are words or q-grams depending on the
/// tokenizer in use; the join algorithms only ever see TokenIds.
using TokenId = uint32_t;

constexpr TokenId kInvalidToken = UINT32_MAX;

/// Bidirectional string <-> TokenId mapping with interned storage.
/// Ids are assigned densely in first-seen order, which the inverted index
/// exploits to use vectors instead of hash maps keyed on tokens, and
/// which every golden over tokenized corpora rests on. The strings live
/// once, in id order; the string -> id side is a flat linear-probing
/// table of ids with cached hashes that compares keys through the owned
/// strings, so it holds no views that move when the strings do, and
/// finding a known token builds no std::string.
class TokenDictionary {
 public:
  TokenDictionary() = default;

  TokenDictionary(const TokenDictionary&) = delete;
  TokenDictionary& operator=(const TokenDictionary&) = delete;
  TokenDictionary(TokenDictionary&&) = default;
  TokenDictionary& operator=(TokenDictionary&&) = default;

  /// Returns the id for `token`, creating one if unseen.
  TokenId Intern(std::string_view token);

  /// Returns the id for `token` or kInvalidToken if never interned.
  TokenId Lookup(std::string_view token) const;

  /// Returns the string for `id`. Requires id < size().
  const std::string& ToString(TokenId id) const;

  /// Number of distinct tokens interned so far.
  size_t size() const { return tokens_.size(); }

 private:
  /// One table slot: a token's id (kInvalidToken when empty) and the low
  /// 32 bits of its std::hash<std::string_view>, which place it and
  /// screen string comparisons.
  struct Slot {
    TokenId id = kInvalidToken;
    uint32_t hash = 0;
  };

  /// The slot holding `token`, or the empty slot that ends its probe.
  /// Requires a non-empty table.
  size_t FindSlot(std::string_view token, uint32_t hash) const;

  /// Doubles the table (16 slots at first) and re-places every id.
  void Grow();

  std::vector<Slot> slots_;  // empty or a power of two, at most half full
  std::vector<std::string> tokens_;  // owned strings, indexed by id
};

}  // namespace ssjoin

#endif  // SSJOIN_TEXT_TOKEN_DICTIONARY_H_
