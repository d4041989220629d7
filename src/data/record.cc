#include "data/record.h"

#include <algorithm>

#include "util/logging.h"

namespace ssjoin {

Record Record::FromTokens(std::vector<TokenId> tokens) {
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  Record r;
  r.tokens_ = std::move(tokens);
  r.scores_.assign(r.tokens_.size(), 1.0);
  return r;
}

Record Record::FromWeightedTokens(
    std::vector<std::pair<TokenId, double>> weighted) {
  std::sort(weighted.begin(), weighted.end());
  Record r;
  r.tokens_.reserve(weighted.size());
  r.scores_.reserve(weighted.size());
  for (const auto& [token, score] : weighted) {
    SSJOIN_DCHECK(r.tokens_.empty() || r.tokens_.back() != token);
    r.tokens_.push_back(token);
    r.scores_.push_back(score);
  }
  return r;
}

Record Record::FromView(RecordView view) {
  Record r;
  r.tokens_.assign(view.tokens().begin(), view.tokens().end());
  r.scores_.assign(view.scores().begin(), view.scores().end());
  r.norm_ = view.norm();
  r.text_length_ = view.text_length();
  return r;
}

}  // namespace ssjoin
