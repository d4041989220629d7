#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cosine_predicate.h"
#include "core/jaccard_predicate.h"
#include "data/record.h"
#include "data/record_set.h"
#include "serve/similarity_service.h"
#include "test_util.h"

namespace ssjoin {
namespace {

TEST(RecordTest, FromTokensSortsAndDedups) {
  Record r = Record::FromTokens({5, 1, 3, 1, 5, 5});
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r.token(0), 1u);
  EXPECT_EQ(r.token(1), 3u);
  EXPECT_EQ(r.token(2), 5u);
  for (size_t i = 0; i < r.size(); ++i) EXPECT_EQ(r.score(i), 1.0);
}

TEST(RecordTest, FromWeightedTokensSorts) {
  Record r = Record::FromWeightedTokens({{9, 0.5}, {2, 2.0}, {4, 1.5}});
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r.token(0), 2u);
  EXPECT_EQ(r.score(0), 2.0);
  EXPECT_EQ(r.token(2), 9u);
  EXPECT_EQ(r.score(2), 0.5);
}

TEST(RecordTest, FindAndContains) {
  Record r = Record::FromTokens({2, 4, 8});
  EXPECT_EQ(r.Find(4), 1u);
  EXPECT_EQ(r.Find(5), SIZE_MAX);
  EXPECT_TRUE(r.Contains(8));
  EXPECT_FALSE(r.Contains(1));
  EXPECT_FALSE(r.Contains(100));
}

TEST(RecordTest, OverlapWithSumsProducts) {
  Record a = Record::FromWeightedTokens({{1, 2.0}, {2, 3.0}, {5, 1.0}});
  Record b = Record::FromWeightedTokens({{2, 4.0}, {5, 2.0}, {7, 9.0}});
  EXPECT_DOUBLE_EQ(a.OverlapWith(b), 3.0 * 4.0 + 1.0 * 2.0);
  EXPECT_DOUBLE_EQ(b.OverlapWith(a), a.OverlapWith(b));
}

TEST(RecordTest, OverlapWithDisjoint) {
  Record a = Record::FromTokens({1, 2});
  Record b = Record::FromTokens({3, 4});
  EXPECT_DOUBLE_EQ(a.OverlapWith(b), 0.0);
  Record empty;
  EXPECT_DOUBLE_EQ(a.OverlapWith(empty), 0.0);
}

TEST(RecordTest, IntersectionSize) {
  Record a = Record::FromTokens({1, 2, 3, 4});
  Record b = Record::FromTokens({2, 4, 6});
  EXPECT_EQ(a.IntersectionSize(b), 2u);
  EXPECT_EQ(a.IntersectionSize(a), 4u);
}

TEST(RecordSetTest, TracksFrequencies) {
  RecordSet set;
  set.Add(Record::FromTokens({1, 2}));
  set.Add(Record::FromTokens({2, 3}));
  set.Add(Record::FromTokens({2}));
  EXPECT_EQ(set.size(), 3u);
  const DocumentFrequencies df = set.CountDocumentFrequencies();
  EXPECT_EQ(df.counts, (std::vector<uint64_t>{0, 1, 3, 1}));
  EXPECT_EQ(df.num_records, 3u);
  EXPECT_EQ(set.total_token_occurrences(), 5u);
  EXPECT_DOUBLE_EQ(set.average_record_size(), 5.0 / 3.0);
  EXPECT_EQ(set.vocabulary_size(), 4u);  // ids 0..3
}

// Staging a record costs its own size, whatever its token ids: a set
// holds nothing sized by the vocabulary, so one record with a large
// token id stays a few hundred bytes, and a service query with it
// answers like the brute-force reference.
TEST(RecordSetTest, LargeTokenIdAllocatesNothingVocabularySized) {
  const TokenId large = TokenId{1} << 24;
  RecordSet query;
  query.Add(Record::FromTokens({3, large}));
  EXPECT_EQ(query.vocabulary_size(), size_t{large} + 1);
  EXPECT_LT(query.ApproxMemoryBytes(), 4096u);

  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 60, .vocabulary = 40}, 5);
  for (const std::vector<TokenId>& tokens :
       std::vector<std::vector<TokenId>>{{3}, {3, 7}, {1, 3}, {7}}) {
    corpus.Add(Record::FromTokens(tokens));
  }
  JaccardPredicate jaccard(0.3);
  CosinePredicate cosine(0.2);
  for (const Predicate* pred :
       std::initializer_list<const Predicate*>{&jaccard, &cosine}) {
    RecordSet prepared = corpus;
    pred->Prepare(&prepared);
    RecordSet staged = query;
    pred->PrepareIncremental(prepared.CountDocumentFrequencies(), &staged);
    std::vector<QueryMatch> expected;
    for (RecordId r = 0; r < prepared.size(); ++r) {
      if (pred->MatchesCross(staged, 0, prepared, r)) {
        expected.push_back(
            {r, prepared.record(r).OverlapWith(staged.record(0))});
      }
    }
    ASSERT_FALSE(expected.empty()) << pred->name();

    ServiceOptions options;
    options.num_threads = 1;
    options.num_shards = 2;
    SimilarityService service(corpus, *pred, options);
    const std::vector<QueryMatch> answered = service.Query(query.record(0));
    ASSERT_EQ(answered.size(), expected.size()) << pred->name();
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(answered[i].id, expected[i].id) << pred->name();
      EXPECT_EQ(answered[i].score, expected[i].score) << pred->name();
    }
  }
}

// ApproxMemoryBytes counts the CSR arena and the per-record tables
// (offsets, norms, text lengths, texts), and nothing else: a set carries
// no per-record side column.
TEST(RecordSetTest, ApproxMemoryBytesIsArenaPlusPerRecordTables) {
  RecordSet set;
  set.Add(Record::FromTokens({1, 2, 3}), "abc");
  set.Add(Record::FromTokens({2}));
  set.Add(Record::FromTokens({4, 9}), "hello world");
  const uint64_t n = set.size();
  const uint64_t arena =
      set.total_token_occurrences() * (sizeof(TokenId) + sizeof(double));
  const uint64_t tables =
      (n + 1) * sizeof(size_t) + n * (sizeof(double) + sizeof(uint32_t));
  const uint64_t texts = n * sizeof(std::string) + 3 + 11;
  EXPECT_EQ(set.ApproxMemoryBytes(), arena + tables + texts);
}

TEST(RecordSetTest, KeepsText) {
  RecordSet set;
  RecordId id = set.Add(Record::FromTokens({1}), "hello world");
  EXPECT_EQ(set.text(id), "hello world");
}

TEST(RecordSetTest, IdsByDecreasingNormStableOnTies) {
  RecordSet set;
  for (int i = 0; i < 4; ++i) {
    Record r = Record::FromTokens({static_cast<TokenId>(i)});
    r.set_norm(1.0);
    set.Add(std::move(r));
  }
  std::vector<RecordId> order = set.IdsByDecreasingNorm();
  EXPECT_EQ(order, (std::vector<RecordId>{0, 1, 2, 3}));
}

TEST(RecordSetTest, EmptySet) {
  RecordSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_DOUBLE_EQ(set.average_record_size(), 0.0);
  EXPECT_TRUE(set.IdsByDecreasingNorm().empty());
}

}  // namespace
}  // namespace ssjoin
