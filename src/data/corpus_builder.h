#ifndef SSJOIN_DATA_CORPUS_BUILDER_H_
#define SSJOIN_DATA_CORPUS_BUILDER_H_

#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "data/record_set.h"
#include "text/token_dictionary.h"
#include "text/tokenizer.h"

namespace ssjoin {

/// Options for turning raw text records into a RecordSet.
struct CorpusBuilderOptions {
  /// Normalize the text first (lowercase, punctuation to separators; see
  /// text/tokenizer.h). Each record keeps the text it was tokenized from.
  bool normalize = true;
};

/// Stages text lines into RecordSets through one tokenizing kernel whose
/// scratch is reused from line to line: each line's token ids are
/// sorted and de-duplicated in place and appended straight to the
/// set's arena with unit scores (TF-IDF weighting counts document
/// frequency from the corpus later) and the text they came from, whose
/// length is the record's text_length. Not thread-safe.
class CorpusBuilder {
 public:
  /// Table 1's "All-words": each record is the set of words in its text.
  static CorpusBuilder Words(const CorpusBuilderOptions& options = {});

  /// Table 1's "All-3grams" style with configurable q: each record is the
  /// set of occurrence-tagged q-grams of its padded text, so set overlap
  /// is q-gram multiset overlap, as the edit-distance predicate needs.
  static CorpusBuilder QGrams(int q, const CorpusBuilderOptions& options = {});

  /// Appends the record of `text` to `set`, interning into `dict`, and
  /// returns its id.
  RecordId Append(std::string_view text, TokenDictionary* dict,
                  RecordSet* set);

  /// One record per text, in order.
  RecordSet Build(const std::vector<std::string>& texts,
                  TokenDictionary* dict);

 private:
  explicit CorpusBuilder(std::variant<WordTokenizer, QGramTokenizer> kernel)
      : kernel_(std::move(kernel)) {}

  std::variant<WordTokenizer, QGramTokenizer> kernel_;
  std::vector<TokenId> ids_;
  std::vector<double> ones_;  // unit scores, at least as long as ids_
};

/// `texts` as an "All-words" corpus. `dict` accumulates the token
/// vocabulary and may be shared across corpora.
RecordSet BuildWordCorpus(const std::vector<std::string>& texts,
                          TokenDictionary* dict,
                          const CorpusBuilderOptions& options = {});

/// `texts` as a tagged q-gram corpus.
RecordSet BuildQGramCorpus(const std::vector<std::string>& texts, int q,
                           TokenDictionary* dict,
                           const CorpusBuilderOptions& options = {});

}  // namespace ssjoin

#endif  // SSJOIN_DATA_CORPUS_BUILDER_H_
