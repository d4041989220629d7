#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/join.h"
#include "core/overlap_predicate.h"
#include "test_util.h"

namespace ssjoin {
namespace {

TEST(PairCountTest, AggregationBudgetAborts) {
  RecordSet set = testing_util::MakeRandomRecordSet(
      {.num_records = 100, .vocabulary = 20}, 3);
  OverlapPredicate pred(2);
  pred.Prepare(&set);
  PairCountOptions options;
  options.max_aggregated_pairs = 10;  // absurdly small on purpose
  Result<JoinStats> result =
      PairCountJoin(set, pred, options, /*threshold_optimized=*/false,
                    [](RecordId, RecordId) {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(PairCountTest, OptimizedAggregatesFewerPairs) {
  // Skewed data: the hottest lists dominate pair generation; the
  // optimized variant must exclude them.
  RecordSet set = testing_util::MakeRandomRecordSet(
      {.num_records = 150, .vocabulary = 60, .zipf_exponent = 1.5}, 7);
  OverlapPredicate pred(4);
  pred.Prepare(&set);

  auto run = [&](bool optimized) {
    Result<JoinStats> result =
        PairCountJoin(set, pred, {}, optimized, [](RecordId, RecordId) {});
    EXPECT_TRUE(result.ok());
    return result.value();
  };
  JoinStats optimized = run(true);
  JoinStats baseline = run(false);
  EXPECT_EQ(optimized.pairs, baseline.pairs);
  EXPECT_LT(optimized.aggregated_pairs, baseline.aggregated_pairs);
}

TEST(PairCountTest, EmitsPairsSortedWithSmallerIdFirst) {
  RecordSet set = testing_util::MakeRandomRecordSet(
      {.num_records = 60, .vocabulary = 30}, 11);
  OverlapPredicate pred(3);
  pred.Prepare(&set);
  std::vector<std::pair<RecordId, RecordId>> pairs;
  Result<JoinStats> result = PairCountJoin(
      set, pred, {}, /*threshold_optimized=*/true,
      [&pairs](RecordId a, RecordId b) { pairs.emplace_back(a, b); });
  ASSERT_TRUE(result.ok());
  for (const auto& [a, b] : pairs) EXPECT_LT(a, b);
  // No duplicates.
  auto sorted = pairs;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end());
}

TEST(PairCountTest, EmptyInput) {
  RecordSet set;
  OverlapPredicate pred(2);
  pred.Prepare(&set);
  Result<JoinStats> result = PairCountJoin(
      set, pred, {}, /*threshold_optimized=*/true, [](RecordId, RecordId) {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().pairs, 0u);
}

}  // namespace
}  // namespace ssjoin
