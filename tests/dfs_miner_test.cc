#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/join_common.h"
#include "mining/dfs_miner.h"
#include "test_util.h"

namespace ssjoin {
namespace {

using PairSet = std::set<uint64_t>;

PairSet CoveredPairs(const RecordSet& records, double min_weight,
                     const AprioriOptions& options = {},
                     std::vector<bool> token_in_large_set = {}) {
  std::vector<double> weights(records.vocabulary_size(), 1.0);
  DfsMiner miner(records, std::move(weights), min_weight,
                 std::move(token_in_large_set), options);
  PairSet covered;
  miner.Mine([&covered](const MinedGroup& group) {
    for (size_t i = 0; i < group.rids.size(); ++i) {
      for (size_t j = i + 1; j < group.rids.size(); ++j) {
        covered.insert(PairKey(group.rids[i], group.rids[j]));
      }
    }
  });
  return covered;
}

void ExpectCoversAllMatches(const RecordSet& records, double threshold,
                            const AprioriOptions& options = {},
                            std::vector<bool> token_in_large_set = {}) {
  PairSet covered = CoveredPairs(records, threshold, options,
                                 std::move(token_in_large_set));
  for (RecordId a = 0; a < records.size(); ++a) {
    for (RecordId b = a + 1; b < records.size(); ++b) {
      if (records.record(a).IntersectionSize(records.record(b)) >=
          threshold) {
        EXPECT_TRUE(covered.count(PairKey(a, b)) > 0)
            << "pair (" << a << "," << b << ") not covered";
      }
    }
  }
}

TEST(DfsMinerTest, ConfirmedGroupsAreRealMatches) {
  RecordSet records;
  records.Add(Record::FromTokens({1, 2, 3, 4}));
  records.Add(Record::FromTokens({1, 2, 3, 5}));
  records.Add(Record::FromTokens({7, 8}));
  AprioriOptions options;
  options.early_output_support = 2;
  std::vector<double> weights(10, 1.0);
  DfsMiner miner(records, weights, /*min_weight=*/3, {}, options);
  bool found_confirmed = false;
  miner.Mine([&](const MinedGroup& group) {
    if (!group.confirmed) return;
    found_confirmed = true;
    for (size_t i = 0; i < group.rids.size(); ++i) {
      for (size_t j = i + 1; j < group.rids.size(); ++j) {
        EXPECT_GE(records.record(group.rids[i])
                      .IntersectionSize(records.record(group.rids[j])),
                  3u);
      }
    }
  });
  EXPECT_TRUE(found_confirmed);
}

TEST(DfsMinerTest, CoversAllMatchesOnRandomData) {
  for (uint64_t seed : {21u, 22u, 23u}) {
    RecordSet records = testing_util::MakeRandomRecordSet(
        {.num_records = 80, .vocabulary = 40}, seed);
    for (double threshold : {2.0, 4.0}) {
      ExpectCoversAllMatches(records, threshold);
    }
  }
}

TEST(DfsMinerTest, CoversWithLargeListPruning) {
  RecordSet records = testing_util::MakeRandomRecordSet(
      {.num_records = 70, .vocabulary = 25, .zipf_exponent = 1.3}, 24);
  std::vector<bool> token_in_large_set(records.vocabulary_size(), false);
  // Hottest two tokens (weight 2 < T = 3) form L.
  const std::vector<uint64_t> df = records.CountDocumentFrequencies().counts;
  std::vector<std::pair<uint64_t, TokenId>> by_df;
  for (TokenId t = 0; t < df.size(); ++t) by_df.push_back({df[t], t});
  std::sort(by_df.rbegin(), by_df.rend());
  token_in_large_set[by_df[0].second] = true;
  token_in_large_set[by_df[1].second] = true;
  ExpectCoversAllMatches(records, 3, {}, std::move(token_in_large_set));
}

TEST(DfsMinerTest, CoversWithDepthCutoff) {
  RecordSet records = testing_util::MakeRandomRecordSet(
      {.num_records = 60, .vocabulary = 30}, 25);
  AprioriOptions options;
  options.max_level = 2;
  ExpectCoversAllMatches(records, 5, options);
}

TEST(DfsMinerTest, CoversWithImmediateDeadline) {
  // A deadline that fires instantly degrades to "emit every root", which
  // must still cover all matches.
  RecordSet records = testing_util::MakeRandomRecordSet(
      {.num_records = 60, .vocabulary = 30}, 26);
  AprioriOptions options;
  options.deadline_seconds = 1e-9;
  ExpectCoversAllMatches(records, 4, options);
}

TEST(DfsMinerTest, AgreesWithAprioriOnCoverage) {
  // Both miners must cover the same ground truth; their group sets may
  // differ, but neither may miss a matching pair the other covers.
  RecordSet records = testing_util::MakeRandomRecordSet(
      {.num_records = 70, .vocabulary = 35}, 27);
  double threshold = 3;

  PairSet dfs = CoveredPairs(records, threshold);
  std::vector<double> weights(records.vocabulary_size(), 1.0);
  AprioriMiner apriori(records, weights, threshold, {}, {});
  PairSet apriori_covered;
  apriori.Mine([&apriori_covered](const MinedGroup& group) {
    for (size_t i = 0; i < group.rids.size(); ++i) {
      for (size_t j = i + 1; j < group.rids.size(); ++j) {
        apriori_covered.insert(PairKey(group.rids[i], group.rids[j]));
      }
    }
  });
  for (RecordId a = 0; a < records.size(); ++a) {
    for (RecordId b = a + 1; b < records.size(); ++b) {
      if (records.record(a).IntersectionSize(records.record(b)) >=
          threshold) {
        uint64_t key = PairKey(a, b);
        EXPECT_TRUE(dfs.count(key) > 0);
        EXPECT_TRUE(apriori_covered.count(key) > 0);
      }
    }
  }
}

TEST(DfsMinerTest, EmptyAndTrivialInputs) {
  RecordSet empty;
  EXPECT_TRUE(CoveredPairs(empty, /*min_weight=*/2).empty());

  RecordSet no_repeats;
  no_repeats.Add(Record::FromTokens({0, 1}));
  no_repeats.Add(Record::FromTokens({2, 3}));
  EXPECT_TRUE(CoveredPairs(no_repeats, /*min_weight=*/2).empty());
}

}  // namespace
}  // namespace ssjoin
