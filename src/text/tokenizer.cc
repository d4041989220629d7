#include "text/tokenizer.h"

#include <algorithm>
#include <unordered_map>

#include "util/logging.h"
#include "util/string_util.h"

namespace ssjoin {

namespace {

/// (token, count) pairs in increasing token order, from the ids a record
/// interned in text order: sort, then count runs.
std::vector<std::pair<TokenId, uint32_t>> RunLengthCounts(
    std::vector<TokenId> ids) {
  std::sort(ids.begin(), ids.end());
  std::vector<std::pair<TokenId, uint32_t>> out;
  for (TokenId id : ids) {
    if (!out.empty() && out.back().first == id) {
      ++out.back().second;
    } else {
      out.emplace_back(id, 1);
    }
  }
  return out;
}

}  // namespace

std::vector<std::pair<TokenId, uint32_t>> WordTokenizer::Tokenize(
    std::string_view text, TokenDictionary* dict) const {
  std::vector<TokenId> ids;
  for (std::string_view word : SplitAndTrim(text)) {
    ids.push_back(dict->Intern(word));
  }
  return RunLengthCounts(std::move(ids));
}

QGramTokenizer::QGramTokenizer(int q, char pad, bool tag_occurrences)
    : q_(q), pad_(pad), tag_occurrences_(tag_occurrences) {
  SSJOIN_CHECK(q >= 1);
}

std::vector<std::pair<TokenId, uint32_t>> QGramTokenizer::Tokenize(
    std::string_view text, TokenDictionary* dict) const {
  std::string padded;
  padded.reserve(text.size() + 2 * (q_ - 1));
  padded.append(q_ - 1, pad_);
  padded.append(text);
  padded.append(q_ - 1, pad_);

  std::vector<TokenId> ids;
  // Tag mode: repetitions so far per gram, keyed by views into `padded`.
  std::unordered_map<std::string_view, uint32_t> occurrence;
  if (padded.size() >= static_cast<size_t>(q_)) {
    for (size_t i = 0; i + q_ <= padded.size(); ++i) {
      std::string_view gram(padded.data() + i, q_);
      if (!tag_occurrences_) {
        ids.push_back(dict->Intern(gram));
        continue;
      }
      uint32_t seen = occurrence[gram]++;
      if (seen == 0) {
        ids.push_back(dict->Intern(gram));
      } else {
        // '\x01' cannot occur in text, so tagged names never collide with
        // real grams.
        std::string tagged(gram);
        tagged.push_back('\x01');
        tagged.append(std::to_string(seen));
        ids.push_back(dict->Intern(tagged));
      }
    }
  }
  return RunLengthCounts(std::move(ids));
}

}  // namespace ssjoin
