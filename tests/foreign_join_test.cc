#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cosine_predicate.h"
#include "core/edit_distance_predicate.h"
#include "core/foreign_join.h"
#include "core/hamming_predicate.h"
#include "core/jaccard_predicate.h"
#include "core/overlap_predicate.h"
#include "data/corpus_builder.h"
#include "test_util.h"
#include "util/rng.h"

namespace ssjoin {
namespace {

using PairVector = std::vector<std::pair<RecordId, RecordId>>;

PairVector BruteForceCross(const RecordSet& left, const RecordSet& right,
                           const Predicate& pred) {
  PairVector pairs;
  for (RecordId a = 0; a < left.size(); ++a) {
    for (RecordId b = 0; b < right.size(); ++b) {
      if (pred.MatchesCross(left, a, right, b)) pairs.emplace_back(a, b);
    }
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

PairVector RunForeign(RecordSet left, RecordSet right, const Predicate& pred) {
  PairVector pairs;
  Result<JoinStats> stats = ForeignProbeJoin(
      &left, &right, pred,
      [&pairs](RecordId a, RecordId b) { pairs.emplace_back(a, b); });
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

template <typename Pred>
void ExpectCrossEquivalence(RecordSet left, RecordSet right,
                            const Pred& pred) {
  RecordSet ref_left = left;
  RecordSet ref_right = right;
  pred.PrepareForJoin(&ref_left, &ref_right);
  PairVector expected = BruteForceCross(ref_left, ref_right, pred);
  EXPECT_EQ(RunForeign(left, right, pred), expected) << pred.name();
}

TEST(ForeignJoinTest, OverlapMatchesBruteForce) {
  RecordSet left = testing_util::MakeRandomRecordSet(
      {.num_records = 90, .vocabulary = 60}, 1);
  RecordSet right = testing_util::MakeRandomRecordSet(
      {.num_records = 110, .vocabulary = 60}, 2);
  ExpectCrossEquivalence(left, right, OverlapPredicate(3));
}

TEST(ForeignJoinTest, JaccardMatchesBruteForce) {
  RecordSet left = testing_util::MakeRandomRecordSet(
      {.num_records = 80, .vocabulary = 50}, 3);
  RecordSet right = testing_util::MakeRandomRecordSet(
      {.num_records = 70, .vocabulary = 50}, 4);
  ExpectCrossEquivalence(left, right, JaccardPredicate(0.5));
}

TEST(ForeignJoinTest, CosineUsesCombinedCorpusWeights) {
  RecordSet left = testing_util::MakeRandomRecordSet(
      {.num_records = 60, .vocabulary = 40}, 5);
  RecordSet right = testing_util::MakeRandomRecordSet(
      {.num_records = 60, .vocabulary = 40}, 6);
  ExpectCrossEquivalence(left, right, CosinePredicate(0.6));

  // PrepareForJoin must weight both sides identically: a token's score in
  // equal-sized records must agree across sides.
  RecordSet a, b;
  a.Add(Record::FromTokens({1, 2}));
  b.Add(Record::FromTokens({1, 2}));
  CosinePredicate pred(0.5);
  pred.PrepareForJoin(&a, &b);
  EXPECT_DOUBLE_EQ(a.record(0).score(0), b.record(0).score(0));
  EXPECT_DOUBLE_EQ(a.record(0).score(1), b.record(0).score(1));
}

TEST(ForeignJoinTest, EditDistanceIncludingShortStrings) {
  Rng rng(7);
  auto make_texts = [&rng](int n) {
    std::vector<std::string> texts;
    for (int i = 0; i < n; ++i) {
      // Mix tiny strings (exercising the cross short-record fallback)
      // with normal ones.
      texts.push_back(testing_util::RandomAsciiString(rng, 0, 14));
    }
    return texts;
  };
  TokenDictionary dict;
  CorpusBuilderOptions copts;
  copts.normalize = false;
  RecordSet left = BuildQGramCorpus(make_texts(70), 3, &dict, copts);
  RecordSet right = BuildQGramCorpus(make_texts(80), 3, &dict, copts);
  ExpectCrossEquivalence(left, right, EditDistancePredicate(2, 3));
}

TEST(ForeignJoinTest, HammingIncludingTinySets) {
  Rng rng(8);
  auto make_set = [&rng](int n, uint64_t seed) {
    RecordSet set = testing_util::MakeRandomRecordSet(
        {.num_records = static_cast<uint32_t>(n),
         .vocabulary = 40,
         .min_tokens = 1,
         .max_tokens = 6},
        seed);
    return set;
  };
  ExpectCrossEquivalence(make_set(60, 9), make_set(60, 10),
                         HammingPredicate(4));
}

TEST(ForeignJoinTest, DisjointVocabulariesYieldNothing) {
  RecordSet left, right;
  left.Add(Record::FromTokens({1, 2, 3}));
  right.Add(Record::FromTokens({10, 11, 12}));
  OverlapPredicate pred(1);
  EXPECT_TRUE(RunForeign(left, right, pred).empty());
}

TEST(ForeignJoinTest, EmptySides) {
  RecordSet empty;
  RecordSet nonempty;
  nonempty.Add(Record::FromTokens({1, 2}));
  OverlapPredicate pred(1);
  EXPECT_TRUE(RunForeign(empty, nonempty, pred).empty());
  EXPECT_TRUE(RunForeign(nonempty, empty, pred).empty());
  EXPECT_TRUE(RunForeign(empty, empty, pred).empty());
}

TEST(ForeignJoinTest, AsymmetricSidesEmitLeftRightIds) {
  RecordSet left, right;
  left.Add(Record::FromTokens({1, 2, 3}));   // left 0
  right.Add(Record::FromTokens({7}));        // right 0: no match
  right.Add(Record::FromTokens({1, 2, 3}));  // right 1: match
  OverlapPredicate pred(3);
  PairVector pairs = RunForeign(left, right, pred);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].first, 0u);   // left id
  EXPECT_EQ(pairs[0].second, 1u);  // right id
}

}  // namespace
}  // namespace ssjoin
