#include "text/token_dictionary.h"

#include <algorithm>
#include <functional>

#include "util/logging.h"

namespace ssjoin {

namespace {

uint32_t HashOf(std::string_view token) {
  return static_cast<uint32_t>(std::hash<std::string_view>{}(token));
}

}  // namespace

size_t TokenDictionary::FindSlot(std::string_view token,
                                 uint32_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.id == kInvalidToken ||
        (slot.hash == hash && tokens_[slot.id] == token)) {
      return i;
    }
  }
}

void TokenDictionary::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(std::max<size_t>(16, 2 * old.size()), Slot{});
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.id == kInvalidToken) continue;
    size_t i = slot.hash & mask;
    while (slots_[i].id != kInvalidToken) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

TokenId TokenDictionary::Intern(std::string_view token) {
  if (2 * (tokens_.size() + 1) > slots_.size()) Grow();
  const uint32_t hash = HashOf(token);
  Slot& slot = slots_[FindSlot(token, hash)];
  if (slot.id == kInvalidToken) {
    slot = Slot{static_cast<TokenId>(tokens_.size()), hash};
    tokens_.emplace_back(token);
  }
  return slot.id;
}

TokenId TokenDictionary::Lookup(std::string_view token) const {
  if (slots_.empty()) return kInvalidToken;
  return slots_[FindSlot(token, HashOf(token))].id;
}

const std::string& TokenDictionary::ToString(TokenId id) const {
  SSJOIN_DCHECK(id < tokens_.size());
  return tokens_[id];
}

}  // namespace ssjoin
