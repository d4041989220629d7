#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "data/address_generator.h"
#include "data/citation_generator.h"
#include "data/corpus_builder.h"
#include "data/corpus_stats.h"
#include "text/token_dictionary.h"

namespace ssjoin {
namespace {

TEST(CitationGeneratorTest, DeterministicGivenSeed) {
  CitationGeneratorOptions opts;
  opts.num_records = 200;
  EXPECT_EQ(CitationGenerator(opts).Generate(),
            CitationGenerator(opts).Generate());
}

TEST(CitationGeneratorTest, SeedsProduceDifferentData) {
  CitationGeneratorOptions a, b;
  a.num_records = b.num_records = 50;
  a.seed = 1;
  b.seed = 2;
  EXPECT_NE(CitationGenerator(a).Generate(), CitationGenerator(b).Generate());
}

TEST(CitationGeneratorTest, ShapeMatchesPaperTable1) {
  CitationGeneratorOptions opts;
  opts.num_records = 4000;
  std::vector<std::string> texts = CitationGenerator(opts).Generate();
  ASSERT_EQ(texts.size(), opts.num_records);

  TokenDictionary dict;
  RecordSet words = BuildWordCorpus(texts, &dict);
  CorpusStats stats = ComputeCorpusStats(words);
  // Paper: All-words averages ~24 words per citation. Allow a wide band.
  EXPECT_GT(stats.average_set_size, 10);
  EXPECT_LT(stats.average_set_size, 40);
  // Skewed frequencies: top 1% of words carries a large share.
  EXPECT_GT(stats.top1pct_occurrence_share, 0.1);
}

TEST(CitationGeneratorTest, DuplicatesCreateHighOverlapPairs) {
  CitationGeneratorOptions opts;
  opts.num_records = 300;
  opts.duplicate_fraction = 0.6;
  std::vector<std::string> texts = CitationGenerator(opts).Generate();
  TokenDictionary dict;
  RecordSet set = BuildWordCorpus(texts, &dict);
  // Count pairs sharing at least 70% of the smaller record.
  int high_overlap = 0;
  for (RecordId a = 0; a < set.size() && high_overlap < 5; ++a) {
    for (RecordId b = a + 1; b < set.size(); ++b) {
      size_t shared = set.record(a).IntersectionSize(set.record(b));
      size_t smaller = std::min(set.record(a).size(), set.record(b).size());
      if (smaller > 0 && shared >= 0.7 * smaller) {
        ++high_overlap;
        break;
      }
    }
  }
  EXPECT_GE(high_overlap, 5);
}

TEST(CitationGeneratorTest, ProvenanceLabelsDuplicates) {
  CitationGeneratorOptions opts;
  opts.num_records = 400;
  opts.duplicate_fraction = 0.5;
  GeneratedCitations corpus =
      CitationGenerator(opts).GenerateWithProvenance();
  ASSERT_EQ(corpus.texts.size(), corpus.paper_id.size());
  // Texts must match the plain Generate() stream.
  EXPECT_EQ(corpus.texts, CitationGenerator(opts).Generate());
  // With 50% duplication some papers must be cited more than once, and
  // same-paper records should share far more words than random pairs.
  std::map<uint32_t, std::vector<size_t>> by_paper;
  for (size_t i = 0; i < corpus.paper_id.size(); ++i) {
    by_paper[corpus.paper_id[i]].push_back(i);
  }
  EXPECT_LT(by_paper.size(), corpus.texts.size());
  TokenDictionary dict;
  RecordSet set = BuildWordCorpus(corpus.texts, &dict);
  int checked = 0;
  for (const auto& [paper, ids] : by_paper) {
    if (ids.size() < 2 || checked >= 20) continue;
    ++checked;
    size_t shared = set.record(static_cast<RecordId>(ids[0]))
                        .IntersectionSize(
                            set.record(static_cast<RecordId>(ids[1])));
    size_t smaller = std::min(set.record(ids[0]).size(),
                              set.record(ids[1]).size());
    EXPECT_GE(shared * 2, smaller)
        << "same-paper records share too little (paper " << paper << ")";
  }
  EXPECT_GE(checked, 10);
}

TEST(AddressGeneratorTest, Deterministic) {
  AddressGeneratorOptions opts;
  opts.num_records = 100;
  std::vector<AddressRecord> a = AddressGenerator(opts).Generate();
  std::vector<AddressRecord> b = AddressGenerator(opts).Generate();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].FullText(), b[i].FullText());
  }
}

TEST(AddressGeneratorTest, ThreeGramShapeMatchesPaperTable1) {
  AddressGeneratorOptions opts;
  opts.num_records = 3000;
  std::vector<std::string> texts = AddressGenerator(opts).GenerateFullTexts();
  TokenDictionary dict;
  RecordSet grams = BuildQGramCorpus(texts, 3, &dict);
  CorpusStats stats = ComputeCorpusStats(grams);
  // Paper: All-3grams averages ~47 grams per address record.
  EXPECT_GT(stats.average_set_size, 25);
  EXPECT_LT(stats.average_set_size, 75);
}

TEST(AddressGeneratorTest, NamePartIsShort) {
  AddressGeneratorOptions opts;
  opts.num_records = 500;
  std::vector<AddressRecord> records = AddressGenerator(opts).Generate();
  double total = 0;
  for (const AddressRecord& r : records) total += r.name.size();
  double avg = total / records.size();
  // Paper's Name-3grams averages ~16 grams => names around 14 chars.
  EXPECT_GT(avg, 8);
  EXPECT_LT(avg, 30);
}

TEST(CorpusBuilderTest, WordCorpusKeepsNormalizedText) {
  TokenDictionary dict;
  RecordSet set = BuildWordCorpus({"Hello, World!"}, &dict);
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.text(0), "hello world");
  EXPECT_EQ(set.record(0).size(), 2u);
  EXPECT_EQ(set.record(0).text_length(), 11u);
}

TEST(CorpusBuilderTest, QGramCorpusSetsTextLength) {
  TokenDictionary dict;
  RecordSet set = BuildQGramCorpus({"abcd"}, 3, &dict);
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.record(0).text_length(), 4u);
  // Padded "$$abcd$$": 6 grams, all distinct.
  EXPECT_EQ(set.record(0).size(), 6u);
}

TEST(CorpusBuilderTest, TaggedGramsMakeSetIntersectionMultiset) {
  TokenDictionary dict;
  // "aaaa" has repeated "aaa" grams; tagging must keep them distinct so
  // the record size equals len + q - 1.
  RecordSet set = BuildQGramCorpus({"aaaa", "aaa"}, 3, &dict);
  EXPECT_EQ(set.record(0).size(), 6u);  // 4 + 3 - 1
  EXPECT_EQ(set.record(1).size(), 5u);  // 3 + 3 - 1
  // Multiset intersection of the padded gram bags ($$a, $aa, aaa, aa$,
  // a$$) is 5; the second "aaa" of record 0 is tagged and unshared.
  EXPECT_EQ(set.record(0).IntersectionSize(set.record(1)), 5u);
}

// ---------------------------------------------------------------------
// Ingestion goldens: every (dictionary, RecordSet) a build produces is
// pinned byte for byte, so a rewrite of the text -> RecordSet path must
// reproduce the same token strings, the same first-seen ids and the same
// records, texts and lengths.

/// 64-bit FNV-1a over the bytes fed to it.
class Fnv1a {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash_ = (hash_ ^ bytes[i]) * 1099511628211ull;
    }
  }
  template <typename T>
  void Value(T value) {
    Bytes(&value, sizeof(value));
  }
  void String(std::string_view s) {
    Value<uint64_t>(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t digest() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

/// The dictionary strings in id order, then every record's tokens,
/// scores, norm, text length and text.
void HashIngestion(const TokenDictionary& dict, const RecordSet& set,
                   Fnv1a* hash) {
  hash->Value<uint64_t>(dict.size());
  for (TokenId id = 0; id < dict.size(); ++id) {
    hash->String(dict.ToString(id));
  }
  hash->Value<uint64_t>(set.size());
  for (RecordId id = 0; id < set.size(); ++id) {
    const RecordView record = set.record(id);
    hash->Value<uint64_t>(record.size());
    for (TokenId t : record.tokens()) hash->Value(t);
    for (double s : record.scores()) hash->Value(s);
    hash->Value(record.norm());
    hash->Value(record.text_length());
    hash->String(set.text(id));
  }
}

/// Lines that stress the byte classes: empty, whitespace-only and
/// punctuation-only lines, tabs, CR and LF, vertical tab and form feed,
/// bytes >= 0x80, control bytes, leading and trailing separators, mixed
/// case and repeated words and grams.
std::vector<std::string> EdgeRows() {
  return {"",
          "   ",
          "\t \t",
          "...!!!",
          ",;:-()[]{}<>/\\|@#$%^&*~`'\"",
          "a\tb\r\nc",
          "line\rwith\ncontrol\x0b" "vt\x0c" "ff",
          "caf\xc3\xa9 na\xc3\xafve \xff\x80 end",
          "  ,leading and trailing,  ",
          "the The THE cat the",
          "aaaa",
          "abab abab",
          "x",
          "\x01\x7f\x01",
          "MiXeD CaSe 123abc 0xFF",
          "tab\tseparated\tvalues",
          "trailing space ",
          " leading space",
          "$$ pad $$"};
}

std::vector<std::string> GoldenTexts(const std::string& source) {
  if (source == "citations") {
    CitationGeneratorOptions options;
    options.num_records = 2000;
    return CitationGenerator(options).Generate();
  }
  if (source == "addresses") {
    AddressGeneratorOptions options;
    options.num_records = 2000;
    return AddressGenerator(options).GenerateFullTexts();
  }
  return EdgeRows();
}

/// q == 0 builds words, q >= 1 tagged q-grams.
RecordSet BuildGolden(const std::vector<std::string>& texts, int q,
                      bool normalize, TokenDictionary* dict) {
  CorpusBuilderOptions options;
  options.normalize = normalize;
  return q == 0 ? BuildWordCorpus(texts, dict, options)
                : BuildQGramCorpus(texts, q, dict, options);
}

struct IngestionGolden {
  const char* source;
  int q;
  bool normalize;
  uint64_t expected;
};

constexpr IngestionGolden kIngestionGoldens[] = {
    {"citations", 0, true, 0xdb848698c43570d8ull},
    {"citations", 0, false, 0x6c71c99e14356f5eull},
    {"citations", 2, true, 0xa9a0aa54b528e3acull},
    {"citations", 2, false, 0x48c5b88d4ecf1bull},
    {"citations", 3, true, 0x1c2108b16ab4799bull},
    {"citations", 3, false, 0x3f14e839eeaac334ull},
    {"citations", 4, true, 0x945d84b24bff7e80ull},
    {"citations", 4, false, 0x11bbf4b0672f5b9full},
    {"addresses", 0, true, 0x3e4f8be4c5e69abdull},
    {"addresses", 0, false, 0x992be8ea89a8c45bull},
    {"addresses", 2, true, 0x9fa4e8db1c8ecbb9ull},
    {"addresses", 2, false, 0x2243faf2fe306dabull},
    {"addresses", 3, true, 0x6bfe260bf5d36082ull},
    {"addresses", 3, false, 0x167f13d3c8281ee1ull},
    {"addresses", 4, true, 0x6b9d20398ae64541ull},
    {"addresses", 4, false, 0x1bd2db869843b44bull},
    {"edge", 0, true, 0xa70b20a739159d6dull},
    {"edge", 0, false, 0xf12efdc574e6dd5dull},
    {"edge", 1, true, 0xfe7ff468d2cb632dull},
    {"edge", 1, false, 0x8925a3617807e4a0ull},
    {"edge", 2, true, 0xc76cabee4a21267aull},
    {"edge", 2, false, 0x923932332bb62220ull},
    {"edge", 3, true, 0xabf7c3c0abaf1a24ull},
    {"edge", 3, false, 0xf90a78b2c7ff171dull},
    {"edge", 4, true, 0xa491d525abf9fc67ull},
    {"edge", 4, false, 0x4004bdf0792d6d60ull},
};

TEST(CorpusGoldenTest, IngestionIsByteIdentical) {
  for (const IngestionGolden& golden : kIngestionGoldens) {
    TokenDictionary dict;
    const RecordSet set = BuildGolden(GoldenTexts(golden.source), golden.q,
                                      golden.normalize, &dict);
    Fnv1a hash;
    HashIngestion(dict, set, &hash);
    EXPECT_EQ(hash.digest(), golden.expected)
        << golden.source << " q=" << golden.q
        << " normalize=" << golden.normalize << ": 0x" << std::hex
        << hash.digest();
  }
}

TEST(CorpusGoldenTest, SharedDictionaryAcrossBuilds) {
  // One dictionary through consecutive builds of different modes: later
  // builds reuse earlier ids and append new tokens in first-seen order.
  TokenDictionary dict;
  Fnv1a hash;
  const std::vector<std::string> edge = EdgeRows();
  std::vector<std::string> citations = GoldenTexts("citations");
  citations.resize(300);
  HashIngestion(dict, BuildGolden(edge, 0, true, &dict), &hash);
  HashIngestion(dict, BuildGolden(edge, 3, false, &dict), &hash);
  HashIngestion(dict, BuildGolden(citations, 0, true, &dict), &hash);
  HashIngestion(dict, BuildGolden(citations, 2, true, &dict), &hash);
  HashIngestion(dict, BuildGolden(edge, 0, true, &dict), &hash);
  EXPECT_EQ(hash.digest(), 0x8f80d9aef4af97b0ull)
      << "0x" << std::hex << hash.digest();
}

TEST(CorpusGoldenTest, EdgeRowsTokenizeAsDocumented) {
  TokenDictionary dict;
  const RecordSet words = BuildWordCorpus(
      {"", " \t ", "...!!!", "  ,Caf\xc3\xa9 au\tLAIT,  ", "the The THE"},
      &dict);
  ASSERT_EQ(words.size(), 5u);
  for (RecordId id = 0; id < 3; ++id) {
    EXPECT_TRUE(words.record(id).empty()) << id;
    EXPECT_EQ(words.text(id), "") << id;
  }
  // Bytes >= 0x80 are separators under normalization (the C locale).
  EXPECT_EQ(words.text(3), "caf au lait");
  EXPECT_EQ(words.record(3).text_length(), 11u);
  EXPECT_EQ(words.text(4), "the the the");
  ASSERT_EQ(words.record(4).size(), 1u);
  EXPECT_EQ(dict.ToString(words.record(4).token(0)), "the");

  // Without normalization words split on space, tab, CR and LF only and
  // the text is kept as given.
  CorpusBuilderOptions raw;
  raw.normalize = false;
  TokenDictionary raw_dict;
  const RecordSet raw_words =
      BuildWordCorpus({" A,b\tA,b\x0b" "c\r\n"}, &raw_dict, raw);
  EXPECT_EQ(raw_words.text(0), " A,b\tA,b\x0b" "c\r\n");
  ASSERT_EQ(raw_dict.size(), 2u);
  EXPECT_EQ(raw_dict.ToString(0), "A,b");
  EXPECT_EQ(raw_dict.ToString(1), "A,b\x0b" "c");
}

TEST(CorpusStatsTest, BasicCounts) {
  RecordSet set;
  set.Add(Record::FromTokens({0, 1, 2}));
  set.Add(Record::FromTokens({0}));
  CorpusStats stats = ComputeCorpusStats(set);
  EXPECT_EQ(stats.num_records, 2u);
  EXPECT_EQ(stats.num_distinct_elements, 3u);
  EXPECT_EQ(stats.total_occurrences, 4u);
  EXPECT_EQ(stats.max_set_size, 3u);
  EXPECT_EQ(stats.min_set_size, 1u);
  EXPECT_EQ(stats.max_doc_frequency, 2u);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(CorpusStatsTest, TopFrequentTokens) {
  RecordSet set;
  set.Add(Record::FromTokens({0, 1}));
  set.Add(Record::FromTokens({1, 2}));
  set.Add(Record::FromTokens({1}));
  std::vector<TokenId> top = TopFrequentTokens(set, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 1u);  // df 3
}

}  // namespace
}  // namespace ssjoin
