#include "data/corpus_builder.h"

#include "text/normalizer.h"
#include "text/tokenizer.h"

namespace ssjoin {

namespace {

Record RecordFromPairs(std::vector<std::pair<TokenId, uint32_t>> pairs) {
  // Set semantics: multiplicity collapses to presence with unit score;
  // TF-IDF weighting counts document frequency from the corpus later, and
  // within-record multiplicity is folded into text_length for q-gram
  // corpora.
  std::vector<TokenId> tokens;
  tokens.reserve(pairs.size());
  for (const auto& [token, count] : pairs) tokens.push_back(token);
  return Record::FromTokens(std::move(tokens));
}

}  // namespace

RecordSet BuildWordCorpus(const std::vector<std::string>& texts,
                          TokenDictionary* dict,
                          const CorpusBuilderOptions& options) {
  Normalizer normalizer;
  WordTokenizer tokenizer;
  RecordSet set;
  for (const std::string& raw : texts) {
    std::string text = options.normalize ? normalizer.Normalize(raw) : raw;
    Record record = RecordFromPairs(tokenizer.Tokenize(text, dict));
    record.set_text_length(static_cast<uint32_t>(text.size()));
    set.Add(std::move(record), options.keep_text ? text : std::string());
  }
  return set;
}

RecordSet BuildQGramCorpus(const std::vector<std::string>& texts, int q,
                           TokenDictionary* dict,
                           const CorpusBuilderOptions& options) {
  Normalizer normalizer;
  // Occurrence tagging makes set intersection equal multiset q-gram
  // intersection, which the edit-distance count filter requires.
  QGramTokenizer tokenizer(q, '$', /*tag_occurrences=*/true);
  RecordSet set;
  for (const std::string& raw : texts) {
    std::string text = options.normalize ? normalizer.Normalize(raw) : raw;
    Record record = RecordFromPairs(tokenizer.Tokenize(text, dict));
    record.set_text_length(static_cast<uint32_t>(text.size()));
    set.Add(std::move(record), options.keep_text ? text : std::string());
  }
  return set;
}

}  // namespace ssjoin
