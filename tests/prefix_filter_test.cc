#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cosine_predicate.h"
#include "core/dice_predicate.h"
#include "core/edit_distance_predicate.h"
#include "core/hamming_predicate.h"
#include "core/jaccard_predicate.h"
#include "core/join.h"
#include "core/overlap_predicate.h"
#include "core/prefix_filter_join.h"
#include "test_util.h"
#include "util/rng.h"

namespace ssjoin {
namespace {

using PairVector = std::vector<std::pair<RecordId, RecordId>>;

void ExpectMatchesBruteForce(const RecordSet& base, const Predicate& pred) {
  RecordSet reference = base;
  pred.Prepare(&reference);
  PairVector expected;
  BruteForceJoin(reference, pred, [&expected](RecordId a, RecordId b) {
    expected.emplace_back(a, b);
  });
  std::sort(expected.begin(), expected.end());

  RecordSet working = base;
  Result<PairVector> actual =
      JoinToPairs(&working, pred, JoinAlgorithm::kPrefixFilter);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  EXPECT_EQ(actual.value(), expected) << pred.name();
}

TEST(PrefixFilterTest, OverlapExact) {
  RecordSet base = testing_util::MakeRandomRecordSet(
      {.num_records = 160, .vocabulary = 70}, 51);
  for (double t : {2.0, 5.0, 9.0}) {
    ExpectMatchesBruteForce(base, OverlapPredicate(t));
  }
}

TEST(PrefixFilterTest, WeightedOverlapExact) {
  RecordSet base = testing_util::MakeRandomRecordSet(
      {.num_records = 120, .vocabulary = 50}, 52);
  Rng rng(520);
  std::vector<double> weights(base.vocabulary_size());
  for (double& w : weights) w = 0.25 + rng.NextDouble() * 3;
  ExpectMatchesBruteForce(base, OverlapPredicate(4.0, weights));
}

TEST(PrefixFilterTest, JaccardExact) {
  RecordSet base = testing_util::MakeRandomRecordSet(
      {.num_records = 150, .vocabulary = 60}, 53);
  for (double f : {0.4, 0.7, 0.9}) {
    ExpectMatchesBruteForce(base, JaccardPredicate(f));
  }
}

TEST(PrefixFilterTest, DiceExact) {
  RecordSet base = testing_util::MakeRandomRecordSet(
      {.num_records = 140, .vocabulary = 60}, 54);
  ExpectMatchesBruteForce(base, DicePredicate(0.6));
}

TEST(PrefixFilterTest, CosineExact) {
  RecordSet base = testing_util::MakeRandomRecordSet(
      {.num_records = 130, .vocabulary = 60}, 55);
  ExpectMatchesBruteForce(base, CosinePredicate(0.6));
}

TEST(PrefixFilterTest, HammingExactIncludingTinyRecords) {
  RecordSet base = testing_util::MakeRandomRecordSet(
      {.num_records = 120, .vocabulary = 40, .min_tokens = 1,
       .max_tokens = 6},
      56);
  ExpectMatchesBruteForce(base, HammingPredicate(4));
}

TEST(PrefixFilterTest, RejectsPredicatesWithoutBound) {
  RecordSet base = testing_util::MakeRandomRecordSet({.num_records = 20}, 57);
  // Edit distance: T(r, s) can be <= 0, MinMatchOverlap stays 0.
  EditDistancePredicate pred(2, 3);
  pred.Prepare(&base);
  Result<JoinStats> result =
      PrefixFilterJoin(base, pred, [](RecordId, RecordId) {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(PrefixFilterTest, PrefixIndexSmallerThanFullIndex) {
  // The point of the filter: at high thresholds only a sliver of each
  // record is indexed.
  RecordSet base = testing_util::MakeRandomRecordSet(
      {.num_records = 200, .vocabulary = 90}, 58);
  JaccardPredicate pred(0.9);
  pred.Prepare(&base);
  JoinStats stats;
  Result<JoinStats> result =
      PrefixFilterJoin(base, pred, [](RecordId, RecordId) {});
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result.value().index_postings,
            base.total_token_occurrences() / 3);
}

TEST(PrefixFilterTest, EmptyAndDegenerateInputs) {
  OverlapPredicate pred(2);
  RecordSet empty;
  ExpectMatchesBruteForce(empty, pred);

  RecordSet identical;
  for (int i = 0; i < 6; ++i) {
    identical.Add(Record::FromTokens({3, 4, 5}), "");
  }
  ExpectMatchesBruteForce(identical, pred);
}

}  // namespace
}  // namespace ssjoin
