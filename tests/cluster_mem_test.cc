#include <filesystem>
#include <fstream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cluster_mem.h"
#include "core/join.h"
#include "core/overlap_predicate.h"
#include "test_util.h"

namespace ssjoin {
namespace {

std::vector<std::pair<RecordId, RecordId>> Reference(RecordSet set,
                                                     const Predicate& pred) {
  pred.Prepare(&set);
  std::vector<std::pair<RecordId, RecordId>> pairs;
  BruteForceJoin(set, pred, [&pairs](RecordId a, RecordId b) {
    pairs.emplace_back(a, b);
  });
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

TEST(ClusterMemTest, RequiresMemoryBudget) {
  RecordSet set = testing_util::MakeRandomRecordSet({.num_records = 10}, 1);
  OverlapPredicate pred(2);
  pred.Prepare(&set);
  ClusterMemOptions options;  // budget left at 0
  Result<JoinStats> result =
      ClusterMemJoin(set, pred, options, [](RecordId, RecordId) {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ClusterMemTest, TinyBudgetStillExact) {
  RecordSet base = testing_util::MakeRandomRecordSet(
      {.num_records = 120, .vocabulary = 60}, 2);
  OverlapPredicate pred(3);
  auto expected = Reference(base, pred);

  RecordSet working = base;
  pred.Prepare(&working);
  ClusterMemOptions options;
  options.memory_budget_postings = 25;  // far below the full index
  options.temp_dir = ::testing::TempDir();
  std::vector<std::pair<RecordId, RecordId>> actual;
  Result<JoinStats> result = ClusterMemJoin(
      working, pred, options,
      [&actual](RecordId a, RecordId b) { actual.emplace_back(a, b); });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::sort(actual.begin(), actual.end());
  EXPECT_EQ(actual, expected);
}

TEST(ClusterMemTest, Phase1IndexCompressesUnderTightBudget) {
  // Heavily duplicated data (the regime the paper targets): the cluster-
  // level index merges near-duplicates into shared postings, so it stays
  // well below one-posting-per-occurrence. The budget also caps cluster
  // creation, forcing the compression.
  RecordSet set = testing_util::MakeRandomRecordSet(
      {.num_records = 300, .vocabulary = 200, .duplicate_fraction = 0.7}, 3);
  OverlapPredicate pred(3);
  pred.Prepare(&set);
  uint64_t full_index = set.total_token_occurrences();
  ClusterMemOptions options;
  options.memory_budget_postings = full_index / 10;
  options.temp_dir = ::testing::TempDir();
  Result<JoinStats> result =
      ClusterMemJoin(set, pred, options, [](RecordId, RecordId) {});
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result.value().index_postings, full_index / 2);
}

TEST(ClusterMemTest, CleansUpTempFilesByDefault) {
  namespace fs = std::filesystem;
  std::string dir = ::testing::TempDir() + "/ssjoin_cleanup_test";
  fs::create_directories(dir);
  RecordSet set = testing_util::MakeRandomRecordSet({.num_records = 50}, 4);
  OverlapPredicate pred(2);
  pred.Prepare(&set);
  ClusterMemOptions options;
  options.memory_budget_postings = 50;
  options.temp_dir = dir;
  Result<JoinStats> result =
      ClusterMemJoin(set, pred, options, [](RecordId, RecordId) {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(fs::is_empty(dir));
}

TEST(ClusterMemTest, CleanErrorWhenTempDirIsNotADirectory) {
  namespace fs = std::filesystem;
  // temp_dir names a regular file: every spill-file open fails with a
  // clean Status (never a crash), and the RAII guards fire on the early
  // return without having anything to delete.
  std::string bogus = ::testing::TempDir() + "/ssjoin_not_a_dir";
  { std::ofstream(bogus) << "x"; }
  RecordSet set = testing_util::MakeRandomRecordSet({.num_records = 20}, 7);
  OverlapPredicate pred(2);
  pred.Prepare(&set);
  ClusterMemOptions options;
  options.memory_budget_postings = 50;
  options.temp_dir = bogus;
  Result<JoinStats> result =
      ClusterMemJoin(set, pred, options, [](RecordId, RecordId) {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  EXPECT_TRUE(fs::is_regular_file(bogus));  // untouched by the guards
  fs::remove(bogus);
}

TEST(ClusterMemTest, ExplicitClusterOverridesRespected) {
  RecordSet base = testing_util::MakeRandomRecordSet(
      {.num_records = 100, .vocabulary = 50}, 6);
  OverlapPredicate pred(3);
  auto expected = Reference(base, pred);

  RecordSet working = base;
  pred.Prepare(&working);
  ClusterMemOptions options;
  options.memory_budget_postings = 200;
  options.temp_dir = ::testing::TempDir();
  options.cluster.max_clusters = 5;
  options.cluster.max_cluster_size = 40;
  std::vector<std::pair<RecordId, RecordId>> actual;
  Result<JoinStats> result = ClusterMemJoin(
      working, pred, options,
      [&actual](RecordId a, RecordId b) { actual.emplace_back(a, b); });
  ASSERT_TRUE(result.ok());
  std::sort(actual.begin(), actual.end());
  EXPECT_EQ(actual, expected);
}

}  // namespace
}  // namespace ssjoin
