#include "data/corpus_builder.h"

#include <algorithm>

namespace ssjoin {

CorpusBuilder CorpusBuilder::Words(const CorpusBuilderOptions& options) {
  return CorpusBuilder(WordTokenizer(options.normalize));
}

CorpusBuilder CorpusBuilder::QGrams(int q,
                                    const CorpusBuilderOptions& options) {
  return CorpusBuilder(
      QGramTokenizer(q, /*tag_occurrences=*/true, options.normalize));
}

RecordId CorpusBuilder::Append(std::string_view text, TokenDictionary* dict,
                               RecordSet* set) {
  const std::string_view kept = std::visit(
      [&](auto& kernel) { return kernel.Tokenize(text, dict, &ids_); },
      kernel_);
  std::sort(ids_.begin(), ids_.end());
  ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
  if (ones_.size() < ids_.size()) ones_.resize(ids_.size(), 1.0);
  const RecordView record(ids_.data(), ones_.data(),
                          static_cast<uint32_t>(ids_.size()), /*norm=*/0,
                          static_cast<uint32_t>(kept.size()));
  return set->Add(record, std::string(kept));
}

RecordSet CorpusBuilder::Build(const std::vector<std::string>& texts,
                               TokenDictionary* dict) {
  RecordSet set;
  for (const std::string& text : texts) Append(text, dict, &set);
  return set;
}

RecordSet BuildWordCorpus(const std::vector<std::string>& texts,
                          TokenDictionary* dict,
                          const CorpusBuilderOptions& options) {
  return CorpusBuilder::Words(options).Build(texts, dict);
}

RecordSet BuildQGramCorpus(const std::vector<std::string>& texts, int q,
                           TokenDictionary* dict,
                           const CorpusBuilderOptions& options) {
  return CorpusBuilder::QGrams(q, options).Build(texts, dict);
}

}  // namespace ssjoin
