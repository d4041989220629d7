#include <string>

#include <gtest/gtest.h>

#include "data/record_set.h"
#include "text/normalizer.h"
#include "text/tfidf.h"
#include "text/token_dictionary.h"
#include "text/tokenizer.h"

namespace ssjoin {
namespace {

TEST(TokenDictionaryTest, InternIsStable) {
  TokenDictionary dict;
  TokenId a = dict.Intern("hello");
  TokenId b = dict.Intern("world");
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.Intern("hello"), a);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.ToString(a), "hello");
  EXPECT_EQ(dict.ToString(b), "world");
}

TEST(TokenDictionaryTest, LookupMissing) {
  TokenDictionary dict;
  dict.Intern("x");
  EXPECT_EQ(dict.Lookup("x"), 0u);
  EXPECT_EQ(dict.Lookup("y"), kInvalidToken);
}

TEST(TokenDictionaryTest, DenseIds) {
  TokenDictionary dict;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(dict.Intern("tok" + std::to_string(i)),
              static_cast<TokenId>(i));
  }
}

TEST(NormalizerTest, DefaultPipeline) {
  Normalizer norm;
  EXPECT_EQ(norm.Normalize("  Hello,   World!  "), "hello world");
  EXPECT_EQ(norm.Normalize("A.B-C"), "a b c");
  EXPECT_EQ(norm.Normalize(""), "");
  EXPECT_EQ(norm.Normalize("...!!!"), "");
}

TEST(NormalizerTest, OptionsAreHonored) {
  NormalizerOptions opts;
  opts.lowercase = false;
  opts.strip_punctuation = false;
  opts.collapse_whitespace = false;
  Normalizer norm(opts);
  EXPECT_EQ(norm.Normalize("A.B  C"), "A.B  C");
}

TEST(WordTokenizerTest, DistinctTokensWithCounts) {
  TokenDictionary dict;
  WordTokenizer tok;
  auto pairs = tok.Tokenize("a b a c a", &dict);
  ASSERT_EQ(pairs.size(), 3u);
  // sorted by token id; "a" was interned first
  EXPECT_EQ(pairs[0].second, 3u);  // a appears 3 times
  EXPECT_EQ(pairs[1].second, 1u);
  EXPECT_EQ(pairs[2].second, 1u);
}

TEST(WordTokenizerTest, EmptyText) {
  TokenDictionary dict;
  WordTokenizer tok;
  EXPECT_TRUE(tok.Tokenize("", &dict).empty());
  EXPECT_TRUE(tok.Tokenize("   ", &dict).empty());
}

TEST(QGramTokenizerTest, PaddedGramCount) {
  TokenDictionary dict;
  QGramTokenizer tok(3);
  // "ab" padded to "$$ab$$": grams $$a $ab ab$ b$$ -> 4 distinct.
  auto pairs = tok.Tokenize("ab", &dict);
  size_t total = 0;
  for (const auto& [t, c] : pairs) total += c;
  EXPECT_EQ(total, 4u);  // len + q - 1 = 2 + 2
}

TEST(QGramTokenizerTest, RepeatedGramsCounted) {
  TokenDictionary dict;
  QGramTokenizer tok(2);
  // "aaa" padded "$aaa$": $a aa aa a$ -> "aa" has count 2.
  auto pairs = tok.Tokenize("aaa", &dict);
  uint32_t max_count = 0;
  size_t total = 0;
  for (const auto& [t, c] : pairs) {
    max_count = std::max(max_count, c);
    total += c;
  }
  EXPECT_EQ(total, 4u);
  EXPECT_EQ(max_count, 2u);
}

TEST(QGramTokenizerTest, EmptyString) {
  TokenDictionary dict;
  QGramTokenizer tok(3);
  // "" padded to "$$$$": grams $$$ $$$ -> one distinct gram, count 2.
  auto pairs = tok.Tokenize("", &dict);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].second, 2u);
}

TEST(QGramTokenizerTest, Q1HasNoPadding) {
  TokenDictionary dict;
  QGramTokenizer tok(1);
  auto pairs = tok.Tokenize("abca", &dict);
  EXPECT_EQ(pairs.size(), 3u);  // a, b, c
}

TEST(TfIdfTest, RareTokensWeighMore) {
  // 10 records; token 0 in all, token 1 in one.
  std::vector<uint64_t> freq = {10, 1};
  TfIdfWeighter weighter(freq, 10);
  EXPECT_GT(weighter.Weight(1, 1), weighter.Weight(0, 1));
}

TEST(TfIdfTest, TermFrequencyIncreasesWeight) {
  const std::vector<uint64_t> freq = {5};
  TfIdfWeighter weighter(freq, 10);
  EXPECT_GT(weighter.Weight(0, 4), weighter.Weight(0, 1));
}

TEST(TfIdfTest, UnseenTokenGetsMaxIdf) {
  const std::vector<uint64_t> freq = {5};
  TfIdfWeighter weighter(freq, 10);
  EXPECT_GT(weighter.Weight(42, 1), weighter.Weight(0, 1));
}

TEST(TfIdfTest, FromDocumentFrequencies) {
  RecordSet set;
  set.Add(Record::FromTokens({0, 1}));
  set.Add(Record::FromTokens({0}));
  const DocumentFrequencies df = set.CountDocumentFrequencies();
  EXPECT_EQ(df.counts, (std::vector<uint64_t>{2, 1}));
  TfIdfWeighter weighter(df.counts, df.num_records);
  EXPECT_EQ(weighter.num_records(), 2u);
  EXPECT_GT(weighter.Weight(1, 1), weighter.Weight(0, 1));
}

TEST(TfIdfTest, ReadsTheTableInPlace) {
  // The weighter borrows its table: a serving segment's frequencies are
  // read where they live, and a later edit is visible.
  std::vector<uint64_t> freq = {10, 10};
  TfIdfWeighter weighter(freq, 10);
  EXPECT_DOUBLE_EQ(weighter.Weight(0, 1), weighter.Weight(1, 1));
  freq[1] = 1;
  EXPECT_GT(weighter.Weight(1, 1), weighter.Weight(0, 1));
}

}  // namespace
}  // namespace ssjoin
