#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/record_set.h"
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

TEST(TokenDictionaryTest, GrowthKeepsFirstIdsThroughRehashes) {
  // 200k distinct tokens, most of them short enough to live in
  // std::string's inline buffer, which moves whenever the token vector
  // reallocates: the table must reach keys through the strings, never
  // through views taken before a move. The table doubles from 16 slots,
  // so this crosses about fourteen rehashes.
  constexpr TokenId kTokens = 200000;
  std::vector<std::string> tokens;
  tokens.reserve(kTokens);
  for (TokenId i = 0; i < kTokens; ++i) {
    tokens.push_back(i % 64 == 0 ? "a-token-past-the-inline-buffer-" +
                                       std::to_string(i)
                                 : "w" + std::to_string(i));
  }
  TokenDictionary dict;
  for (TokenId i = 0; i < kTokens; ++i) {
    ASSERT_EQ(dict.Intern(tokens[i]), i);
    if (i % 1024 == 0) {
      ASSERT_EQ(dict.Intern(tokens[i / 2]), i / 2);
    }
  }
  ASSERT_EQ(dict.size(), kTokens);
  for (TokenId i = 0; i < kTokens; ++i) {
    ASSERT_EQ(dict.Intern(tokens[i]), i);
    ASSERT_EQ(dict.Lookup(tokens[i]), i);
    ASSERT_EQ(dict.ToString(i), tokens[i]);
  }
  EXPECT_EQ(dict.Lookup("never-interned"), kInvalidToken);
  EXPECT_EQ(dict.Lookup(""), kInvalidToken);
  EXPECT_EQ(dict.size(), kTokens);

  // A moved dictionary resolves every token in its new home.
  TokenDictionary moved(std::move(dict));
  TokenDictionary assigned;
  assigned.Intern("replaced");
  assigned = std::move(moved);
  for (TokenId i = 0; i < kTokens; ++i) {
    ASSERT_EQ(assigned.Lookup(tokens[i]), i);
  }
  EXPECT_EQ(assigned.Lookup("replaced"), kInvalidToken);
  EXPECT_EQ(assigned.Intern("new"), kTokens);
}

TEST(NormalizerTest, DefaultPipeline) {
  TokenDictionary dict;
  WordTokenizer tok(/*normalize=*/true);
  std::vector<TokenId> ids;
  EXPECT_EQ(tok.Tokenize("  Hello,   World!  ", &dict, &ids), "hello world");
  EXPECT_EQ(ids, (std::vector<TokenId>{0, 1}));
  EXPECT_EQ(tok.Tokenize("A.B-C", &dict, &ids), "a b c");
  EXPECT_EQ(tok.Tokenize("", &dict, &ids), "");
  EXPECT_EQ(tok.Tokenize("...!!!", &dict, &ids), "");
  EXPECT_TRUE(ids.empty());
  // Every byte >= 0x80 separates, as under the C locale's isalnum.
  EXPECT_EQ(tok.Tokenize("Caf\xc3\xa9\tNa\xefve", &dict, &ids),
            "caf na ve");
  QGramTokenizer grams(2, /*tag_occurrences=*/false, /*normalize=*/true);
  EXPECT_EQ(grams.Tokenize(" Ab, ", &dict, &ids), "ab");
  EXPECT_EQ(ids.size(), 3u);  // $a ab b$
}

TEST(WordTokenizerTest, IdsInTextOrder) {
  TokenDictionary dict;
  WordTokenizer tok;
  std::vector<TokenId> ids;
  EXPECT_EQ(tok.Tokenize("a b a c a", &dict, &ids), "a b a c a");
  // "a" was interned first; repeats keep their places.
  EXPECT_EQ(ids, (std::vector<TokenId>{0, 1, 0, 2, 0}));
}

TEST(WordTokenizerTest, EmptyText) {
  TokenDictionary dict;
  WordTokenizer tok;
  std::vector<TokenId> ids = {7};
  tok.Tokenize("", &dict, &ids);
  EXPECT_TRUE(ids.empty());
  tok.Tokenize(" \t\r\n ", &dict, &ids);
  EXPECT_TRUE(ids.empty());
  EXPECT_EQ(dict.size(), 0u);
}

TEST(QGramTokenizerTest, PaddedGramCount) {
  TokenDictionary dict;
  QGramTokenizer tok(3);
  std::vector<TokenId> ids;
  // "ab" padded to "$$ab$$": grams $$a $ab ab$ b$$ -> 4 distinct.
  EXPECT_EQ(tok.Tokenize("ab", &dict, &ids), "ab");
  EXPECT_EQ(ids, (std::vector<TokenId>{0, 1, 2, 3}));  // len + q - 1
}

TEST(QGramTokenizerTest, RepeatedGramsCounted) {
  TokenDictionary dict;
  QGramTokenizer tok(2);
  std::vector<TokenId> ids;
  // "aaa" padded "$aaa$": $a aa aa a$ -> "aa" twice.
  tok.Tokenize("aaa", &dict, &ids);
  EXPECT_EQ(ids, (std::vector<TokenId>{0, 1, 1, 2}));
}

TEST(QGramTokenizerTest, EmptyString) {
  TokenDictionary dict;
  QGramTokenizer tok(3);
  std::vector<TokenId> ids;
  // "" padded to "$$$$": grams $$$ $$$ -> one distinct gram, twice.
  tok.Tokenize("", &dict, &ids);
  EXPECT_EQ(ids, (std::vector<TokenId>{0, 0}));
}

TEST(QGramTokenizerTest, Q1HasNoPadding) {
  TokenDictionary dict;
  QGramTokenizer tok(1);
  std::vector<TokenId> ids;
  tok.Tokenize("abca", &dict, &ids);
  EXPECT_EQ(ids, (std::vector<TokenId>{0, 1, 2, 0}));  // a, b, c
  EXPECT_EQ(dict.size(), 3u);
}

TEST(QGramTokenizerTest, TaggedRepeatsAreFirstSeen) {
  // The k-th repeat of a gram is interned as gram\x01k where it occurs,
  // and the repeat counts restart with every text.
  TokenDictionary dict;
  QGramTokenizer tok(2, /*tag_occurrences=*/true);
  std::vector<TokenId> ids;
  tok.Tokenize("aaab", &dict, &ids);  // $a aa aa ab b$
  EXPECT_EQ(ids, (std::vector<TokenId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(dict.ToString(2), std::string("aa\x01" "1"));
  tok.Tokenize("aaa", &dict, &ids);  // $a aa aa a$
  EXPECT_EQ(ids, (std::vector<TokenId>{0, 1, 2, 5}));
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
