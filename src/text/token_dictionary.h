#ifndef SSJOIN_TEXT_TOKEN_DICTIONARY_H_
#define SSJOIN_TEXT_TOKEN_DICTIONARY_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace ssjoin {

/// Dense token identifier. Tokens are words or q-grams depending on the
/// tokenizer in use; the join algorithms only ever see TokenIds.
using TokenId = uint32_t;

constexpr TokenId kInvalidToken = UINT32_MAX;

/// Bidirectional string <-> TokenId mapping with interned storage.
/// Ids are assigned densely in first-seen order, which the inverted index
/// exploits to use vectors instead of hash maps keyed on tokens. Lookups
/// hash the string_view directly, so finding a known token builds no
/// std::string.
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
  struct ViewHash {
    using is_transparent = void;
    size_t operator()(std::string_view token) const noexcept {
      return std::hash<std::string_view>{}(token);
    }
  };
  std::unordered_map<std::string, TokenId, ViewHash, std::equal_to<>> ids_;
  std::vector<std::string> tokens_;  // owned copies, indexed by id
};

}  // namespace ssjoin

#endif  // SSJOIN_TEXT_TOKEN_DICTIONARY_H_
