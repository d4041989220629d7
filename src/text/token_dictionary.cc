#include "text/token_dictionary.h"

#include "util/logging.h"

namespace ssjoin {

TokenId TokenDictionary::Intern(std::string_view token) {
  auto it = ids_.find(token);
  if (it != ids_.end()) return it->second;
  TokenId id = static_cast<TokenId>(tokens_.size());
  tokens_.emplace_back(token);
  ids_.emplace(tokens_.back(), id);
  return id;
}

TokenId TokenDictionary::Lookup(std::string_view token) const {
  auto it = ids_.find(token);
  return it == ids_.end() ? kInvalidToken : it->second;
}

const std::string& TokenDictionary::ToString(TokenId id) const {
  SSJOIN_DCHECK(id < tokens_.size());
  return tokens_[id];
}

}  // namespace ssjoin
