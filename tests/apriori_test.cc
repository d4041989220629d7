#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/join_common.h"
#include "mining/apriori.h"
#include "test_util.h"

namespace ssjoin {
namespace {

using PairSet = std::set<uint64_t>;

/// All record pairs implied by the emitted groups.
PairSet CoveredPairs(const RecordSet& records, double min_weight,
                     const AprioriOptions& options = {},
                     std::vector<double> weights = {},
                     std::vector<bool> token_in_large_set = {}) {
  if (weights.empty()) weights.assign(records.vocabulary_size(), 1.0);
  AprioriMiner miner(records, std::move(weights), min_weight,
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

/// Pairs whose unweighted overlap reaches `threshold` (ground truth).
PairSet MatchingPairs(const RecordSet& records, double threshold) {
  PairSet matches;
  for (RecordId a = 0; a < records.size(); ++a) {
    for (RecordId b = a + 1; b < records.size(); ++b) {
      if (records.record(a).IntersectionSize(records.record(b)) >=
          threshold) {
        matches.insert(PairKey(a, b));
      }
    }
  }
  return matches;
}

void ExpectCoversAllMatches(const RecordSet& records, double threshold,
                            const AprioriOptions& options = {},
                            std::vector<bool> token_in_large_set = {}) {
  PairSet covered = CoveredPairs(records, threshold, options, {},
                                 std::move(token_in_large_set));
  for (uint64_t key : MatchingPairs(records, threshold)) {
    EXPECT_TRUE(covered.count(key) > 0)
        << "pair (" << (key >> 32) << "," << (key & 0xFFFFFFFF)
        << ") with overlap >= " << threshold << " not covered";
  }
}

TEST(AprioriTest, ConfirmedGroupsCarryRealMatches) {
  RecordSet records;
  records.Add(Record::FromTokens({1, 2, 3, 4}));
  records.Add(Record::FromTokens({1, 2, 3, 5}));
  records.Add(Record::FromTokens({7, 8}));
  AprioriOptions options;
  options.minhash_compaction = false;
  // Disable early output (support threshold 2 = minimum support) so the
  // itemset chain reaches the confirmed weight-3 group.
  options.early_output_support = 2;
  std::vector<double> weights(10, 1.0);
  AprioriMiner miner(records, weights, /*min_weight=*/3, {}, options);
  bool found_confirmed = false;
  miner.Mine([&](const MinedGroup& group) {
    if (group.confirmed) {
      found_confirmed = true;
      EXPECT_GE(group.weight, 3.0 - 1e-6);
      // Every pair in a confirmed group genuinely overlaps >= T.
      for (size_t i = 0; i < group.rids.size(); ++i) {
        for (size_t j = i + 1; j < group.rids.size(); ++j) {
          EXPECT_GE(records.record(group.rids[i])
                        .IntersectionSize(records.record(group.rids[j])),
                    3u);
        }
      }
    }
  });
  EXPECT_TRUE(found_confirmed);
}

TEST(AprioriTest, CoversAllMatchesOnRandomData) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    RecordSet records = testing_util::MakeRandomRecordSet(
        {.num_records = 80, .vocabulary = 40}, seed);
    for (double threshold : {2.0, 4.0}) {
      ExpectCoversAllMatches(records, threshold);
    }
  }
}

TEST(AprioriTest, CoversWithCompactionDisabled) {
  RecordSet records = testing_util::MakeRandomRecordSet(
      {.num_records = 60, .vocabulary = 30}, 9);
  AprioriOptions options;
  options.minhash_compaction = false;
  ExpectCoversAllMatches(records, 3, options);
}

TEST(AprioriTest, CoversWithAggressiveEarlyOutput) {
  RecordSet records = testing_util::MakeRandomRecordSet(
      {.num_records = 60, .vocabulary = 30}, 10);
  AprioriOptions options;
  options.early_output_support = 20;  // almost everything leaves early
  ExpectCoversAllMatches(records, 3, options);
}

TEST(AprioriTest, CoversWithMaxLevelCutoff) {
  RecordSet records = testing_util::MakeRandomRecordSet(
      {.num_records = 60, .vocabulary = 30}, 11);
  AprioriOptions options;
  options.max_level = 2;  // stop early; open itemsets must still be emitted
  ExpectCoversAllMatches(records, 5, options);
}

TEST(AprioriTest, CoversWithLargeListPruning) {
  RecordSet records = testing_util::MakeRandomRecordSet(
      {.num_records = 70, .vocabulary = 25, .zipf_exponent = 1.3}, 12);
  // Mark the two hottest tokens as the L set (total weight 2 < T = 3).
  std::vector<bool> token_in_large_set(records.vocabulary_size(), false);
  const std::vector<uint64_t> df = records.CountDocumentFrequencies().counts;
  std::vector<std::pair<uint64_t, TokenId>> by_df;
  for (TokenId t = 0; t < df.size(); ++t) by_df.push_back({df[t], t});
  std::sort(by_df.rbegin(), by_df.rend());
  token_in_large_set[by_df[0].second] = true;
  token_in_large_set[by_df[1].second] = true;
  ExpectCoversAllMatches(records, 3, {}, std::move(token_in_large_set));
}

TEST(AprioriTest, WeightedItemsets) {
  RecordSet records;
  records.Add(Record::FromTokens({0, 1}));
  records.Add(Record::FromTokens({0, 1}));
  records.Add(Record::FromTokens({2}));
  std::vector<double> weights = {2.5, 1.0, 1.0};
  // Tokens {0,1} together weigh 3.5 >= 3.
  PairSet covered = CoveredPairs(records, /*min_weight=*/3.0, {}, weights);
  EXPECT_TRUE(covered.count(PairKey(0, 1)) > 0);
}

TEST(AprioriTest, NoGroupsWhenNothingRepeats) {
  RecordSet records;
  records.Add(Record::FromTokens({0, 1}));
  records.Add(Record::FromTokens({2, 3}));
  EXPECT_TRUE(CoveredPairs(records, /*min_weight=*/1).empty());
}

TEST(AprioriTest, EmptyInput) {
  RecordSet records;
  EXPECT_TRUE(CoveredPairs(records, /*min_weight=*/2).empty());
}

}  // namespace
}  // namespace ssjoin
