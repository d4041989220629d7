#include <gtest/gtest.h>

#include "core/jaccard_predicate.h"
#include "core/join.h"
#include "core/overlap_predicate.h"
#include "test_util.h"

namespace ssjoin {
namespace {

TEST(WordGroupsTest, RejectsPairDependentThresholds) {
  RecordSet set = testing_util::MakeRandomRecordSet({.num_records = 20}, 1);
  JaccardPredicate pred(0.5);
  pred.Prepare(&set);
  Result<JoinStats> result = WordGroupsJoin(
      set, pred, {}, /*threshold_optimized=*/true, [](RecordId, RecordId) {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(WordGroupsTest, NoDuplicatePairsDespiteOverlappingGroups) {
  // Records sharing 2T tokens appear in C(2T, T) itemsets; the join layer
  // must still emit each pair once.
  RecordSet set;
  set.Add(Record::FromTokens({0, 1, 2, 3, 4, 5}));
  set.Add(Record::FromTokens({0, 1, 2, 3, 4, 5}));
  set.Add(Record::FromTokens({10, 11}));
  OverlapPredicate pred(3);
  pred.Prepare(&set);
  int emissions = 0;
  Result<JoinStats> result = WordGroupsJoin(
      set, pred, {}, /*threshold_optimized=*/true,
      [&emissions](RecordId a, RecordId b) {
        EXPECT_EQ(a, 0u);
        EXPECT_EQ(b, 1u);
        ++emissions;
      });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(emissions, 1);
  EXPECT_GE(result.value().groups, 1u);
}

TEST(WordGroupsTest, ThresholdOptimizationPreservesOutput) {
  RecordSet set = testing_util::MakeRandomRecordSet(
      {.num_records = 100, .vocabulary = 40, .zipf_exponent = 1.3}, 5);
  OverlapPredicate pred(4);
  pred.Prepare(&set);

  auto run = [&](bool optimized) {
    std::vector<std::pair<RecordId, RecordId>> pairs;
    Result<JoinStats> result = WordGroupsJoin(
        set, pred, {}, optimized,
        [&pairs](RecordId a, RecordId b) { pairs.emplace_back(a, b); });
    EXPECT_TRUE(result.ok());
    std::sort(pairs.begin(), pairs.end());
    return pairs;
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(WordGroupsTest, DepthFirstMinerSameOutput) {
  RecordSet set = testing_util::MakeRandomRecordSet(
      {.num_records = 90, .vocabulary = 45}, 6);
  OverlapPredicate pred(3);
  pred.Prepare(&set);
  auto run = [&](WordGroupsMiner miner) {
    WordGroupsOptions options;
    options.miner = miner;
    std::vector<std::pair<RecordId, RecordId>> pairs;
    Result<JoinStats> result = WordGroupsJoin(
        set, pred, options, /*threshold_optimized=*/true,
        [&pairs](RecordId a, RecordId b) { pairs.emplace_back(a, b); });
    EXPECT_TRUE(result.ok());
    std::sort(pairs.begin(), pairs.end());
    return pairs;
  };
  EXPECT_EQ(run(WordGroupsMiner::kApriori),
            run(WordGroupsMiner::kDepthFirst));
}

TEST(WordGroupsTest, WeightedOverlapSupported) {
  RecordSet set;
  set.Add(Record::FromTokens({0, 1}));
  set.Add(Record::FromTokens({0, 2}));
  std::vector<double> weights = {5.0, 1.0, 1.0};
  OverlapPredicate pred(4, weights);
  pred.Prepare(&set);
  int emissions = 0;
  Result<JoinStats> result =
      WordGroupsJoin(set, pred, {}, /*threshold_optimized=*/true,
                     [&emissions](RecordId, RecordId) { ++emissions; });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(emissions, 1);  // shared token 0 weighs 5 >= 4
}

}  // namespace
}  // namespace ssjoin
