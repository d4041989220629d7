// Differential lockdown of the token-bitmap bound:
//
//   * the XOR-parity overlap bound is a true upper bound for every
//     random pair, including adversarial shapes (all tokens colliding on
//     one bit, empty/single-token records, saturated bitmaps), and times
//     min(pmax(r), pmax(s)) it bounds the weighted (TF-IDF) overlap;
//   * PrefixFilterJoin, whose verifications the bound gates, emits the
//     brute-force join's pairs under every predicate it supports, at 1
//     and 4 threads, and every candidate it checks is either pruned or
//     verified.
//
// The randomized sweeps honor SSJOIN_DIFF_SEEDS like the other
// differential suites.

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cosine_predicate.h"
#include "core/dice_predicate.h"
#include "core/hamming_predicate.h"
#include "core/jaccard_predicate.h"
#include "core/join.h"
#include "core/overlap_predicate.h"
#include "core/prefix_filter_join.h"
#include "data/corpus_stats.h"
#include "data/token_bitmap.h"
#include "test_util.h"
#include "util/rng.h"

namespace ssjoin {
namespace {

int SeedCount() {
  const char* env = std::getenv("SSJOIN_DIFF_SEEDS");
  if (env == nullptr) return 10;
  int n = std::atoi(env);
  return n > 0 ? n : 10;
}

// ---------------------------------------------------------------------
// The bound itself.

/// Exact number of distinct common tokens of two sorted token sets.
uint32_t ExactCommonTokens(RecordView a, RecordView b) {
  uint32_t common = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a.token(i) < b.token(j)) {
      ++i;
    } else if (b.token(j) < a.token(i)) {
      ++j;
    } else {
      ++common;
      ++i;
      ++j;
    }
  }
  return common;
}

TEST(TokenBitmapTest, OverlapBoundDominatesExactCommonForRandomPairs) {
  for (int seed = 0; seed < SeedCount(); ++seed) {
    RecordSet set = testing_util::MakeRandomRecordSet(
        {.num_records = 120, .vocabulary = 90}, 1000 + seed);
    Rng rng(seed);
    for (int trial = 0; trial < 400; ++trial) {
      RecordId a = rng.UniformU32(static_cast<uint32_t>(set.size()));
      RecordId b = rng.UniformU32(static_cast<uint32_t>(set.size()));
      const uint32_t exact = ExactCommonTokens(set.record(a), set.record(b));
      const uint32_t bound =
          TokenBitmapOverlapBound(MakeTokenBitmapEntry(set.record(a)),
                                  MakeTokenBitmapEntry(set.record(b)));
      EXPECT_GE(bound, exact)
          << "seed " << seed << " pair (" << a << "," << b << ")";
      // Never looser than the vacuous bound (|a| + |b|) / 2.
      EXPECT_LE(bound, (set.record_size(a) + set.record_size(b)) / 2);
    }
  }
}

TEST(TokenBitmapTest, AllTokensCollidingOnOneBitStaysSound) {
  // Gather token ids that all hash to the SAME bit position: the
  // degenerate case where the bitmap carries a single parity bit of
  // information. The bound must degrade to (|a|+|b|)/2-ish, never below
  // the exact overlap.
  const uint32_t target_bit = TokenBitmapBit(0);
  std::vector<TokenId> colliders;
  for (TokenId t = 0; colliders.size() < 12 && t < 2000000; ++t) {
    if (TokenBitmapBit(t) == target_bit) colliders.push_back(t);
  }
  ASSERT_GE(colliders.size(), 12u) << "hash never revisits bit "
                                   << target_bit;
  // a: first 8 colliders; b: colliders 4..11 (exact overlap 4, every
  // token on one bit).
  const Record a = Record::FromTokens(
      std::vector<TokenId>(colliders.begin(), colliders.begin() + 8));
  const Record b = Record::FromTokens(
      std::vector<TokenId>(colliders.begin() + 4, colliders.begin() + 12));
  const uint32_t exact = ExactCommonTokens(a, b);
  EXPECT_EQ(exact, 4u);
  // Both records have an even number of tokens on the bit, so both
  // bitmaps are all-zero: XOR popcount 0, bound = (8+8)/2 = 8 >= exact.
  EXPECT_EQ(TokenBitmapOverlapBound(MakeTokenBitmapEntry(a),
                                    MakeTokenBitmapEntry(b)),
            8u);
}

TEST(TokenBitmapTest, EmptyAndSingleTokenRecords) {
  const TokenBitmapEntry empty =
      MakeTokenBitmapEntry(Record::FromTokens(std::vector<TokenId>{}));
  const TokenBitmapEntry single = MakeTokenBitmapEntry(Record::FromTokens({7}));
  const TokenBitmapEntry three =
      MakeTokenBitmapEntry(Record::FromTokens({7, 9, 12}));
  EXPECT_EQ(empty.tokens, 0u);
  EXPECT_EQ(three.tokens, 3u);
  // Empty vs anything: bound (0 + n - pop(B))/2 with pop(B) <= n.
  EXPECT_EQ(TokenBitmapOverlapBound(empty, empty), 0u);
  EXPECT_GE(TokenBitmapOverlapBound(single, three), 1u);  // 7 is common
  // (0 + 3 - 3)/2 = 0 when no bits collide, <= 1 anyway.
  EXPECT_LE(TokenBitmapOverlapBound(empty, three), 1u);
  // Identical single-token records: XOR cancels, bound = 1 exactly.
  const TokenBitmapEntry twin = MakeTokenBitmapEntry(Record::FromTokens({42}));
  EXPECT_EQ(TokenBitmapOverlapBound(twin, twin), 1u);
}

TEST(TokenBitmapTest, SaturatedBitmapsDegradeGracefully) {
  // Records with far more distinct tokens than bits: the XOR popcount
  // carries little signal, but the bound must still dominate the exact
  // overlap.
  Rng rng(77);
  std::vector<TokenId> big_a;
  std::vector<TokenId> big_b;
  for (TokenId t = 0; t < 5000; ++t) {
    if (rng.Bernoulli(0.12)) big_a.push_back(t);
    if (rng.Bernoulli(0.12)) big_b.push_back(t);
  }
  ASSERT_GT(big_a.size(), kTokenBitmapBits);
  ASSERT_GT(big_b.size(), kTokenBitmapBits);
  const Record a = Record::FromTokens(big_a);
  const Record b = Record::FromTokens(big_b);
  EXPECT_GE(TokenBitmapOverlapBound(MakeTokenBitmapEntry(a),
                                    MakeTokenBitmapEntry(b)),
            ExactCommonTokens(a, b));
}

/// The most one common token can add to `r`'s overlap with any record of
/// its corpus: max over r's tokens w of score(w, r) * gmax(w).
double MaxTokenContribution(RecordView r, const std::vector<double>& gmax) {
  double pmax = 0;
  for (size_t i = 0; i < r.size(); ++i) {
    pmax = std::max(pmax, r.score(i) * gmax[r.token(i)]);
  }
  return pmax;
}

TEST(TokenBitmapTest, WeightedBoundDominatesTfIdfOverlap) {
  // PrefixFilter's gate scales the parity bound by min(pmax(r), pmax(s)):
  // under TF-IDF weights that product must still cap the exact overlap.
  CosinePredicate pred(0.5);
  for (int seed = 0; seed < SeedCount(); ++seed) {
    RecordSet set = testing_util::MakeRandomRecordSet(
        {.num_records = 120, .vocabulary = 90}, 3000 + seed);
    pred.Prepare(&set);
    const std::vector<double> gmax = MaxTokenScores(set);
    Rng rng(seed);
    for (int trial = 0; trial < 400; ++trial) {
      const RecordView a =
          set.record(rng.UniformU32(static_cast<uint32_t>(set.size())));
      const RecordView b =
          set.record(rng.UniformU32(static_cast<uint32_t>(set.size())));
      const double pmax = std::min(MaxTokenContribution(a, gmax),
                                   MaxTokenContribution(b, gmax));
      const double cap = TokenBitmapOverlapBound(MakeTokenBitmapEntry(a),
                                                 MakeTokenBitmapEntry(b)) *
                         pmax;
      EXPECT_GE(cap, a.OverlapWith(b)) << "seed " << seed << " trial " << trial;
    }
  }
}

// ---------------------------------------------------------------------
// Join level: PrefixFilter gates every distinct candidate that passes the
// norm filter with the bound before verifying it. Its pairs must equal
// the brute-force join's at every thread count, and every checked
// candidate is either pruned or verified.

using PairVector = std::vector<std::pair<RecordId, RecordId>>;

/// Runs PrefixFilterJoin (sorted pairs) and checks the gate's accounting.
PairVector RunPrefixFilter(const RecordSet& prepared, const Predicate& pred,
                           int threads, const std::string& tag,
                           JoinStats* stats) {
  PairVector pairs;
  Result<JoinStats> result = PrefixFilterJoin(
      prepared, pred,
      [&](RecordId a, RecordId b) { pairs.emplace_back(a, b); }, threads);
  EXPECT_TRUE(result.ok()) << tag << ": " << result.status().ToString();
  if (!result.ok()) return pairs;
  *stats = result.value();
  EXPECT_EQ(stats->merge.bitmap_checked,
            stats->candidates_verified + stats->merge.bitmap_pruned)
      << tag;
  EXPECT_EQ(stats->pairs, pairs.size()) << tag;
  return testing_util::SortedPairs(std::move(pairs));
}

/// Sweeps seeds and thread counts for `pred` and returns the candidates
/// the gate pruned over the whole sweep.
uint64_t RunGateDifferential(const Predicate& pred) {
  uint64_t pruned = 0;
  for (int seed = 0; seed < SeedCount(); ++seed) {
    RecordSet records = testing_util::MakeRandomRecordSet(
        {.num_records = 130, .vocabulary = 60, .min_tokens = 1}, 9000 + seed);
    pred.Prepare(&records);
    // The prefix probe finds the matches that share a token; the join
    // driver's short-record fallback adds the zero-overlap Hamming
    // matches of tiny records.
    PairVector expected;
    PairVector sharing;
    BruteForceJoin(records, pred, [&](RecordId a, RecordId b) {
      expected.emplace_back(a, b);
      if (records.record(a).IntersectionSize(records.record(b)) > 0) {
        sharing.emplace_back(a, b);
      }
    });
    std::sort(expected.begin(), expected.end());
    std::sort(sharing.begin(), sharing.end());
    JoinStats stats[2];
    for (int t = 0; t < 2; ++t) {
      const int threads = t == 0 ? 1 : 4;
      const std::string tag = pred.name() + " seed=" + std::to_string(seed) +
                              " threads=" + std::to_string(threads);
      EXPECT_EQ(RunPrefixFilter(records, pred, threads, tag, &stats[t]),
                sharing)
          << tag;
      RecordSet working = records;
      JoinOptions options;
      options.num_threads = threads;
      Result<PairVector> joined =
          JoinToPairs(&working, pred, JoinAlgorithm::kPrefixFilter, options);
      EXPECT_TRUE(joined.ok()) << tag << ": " << joined.status().ToString();
      if (joined.ok()) {
        EXPECT_EQ(joined.value(), expected) << tag;
      }
    }
    EXPECT_EQ(stats[1].candidates_verified, stats[0].candidates_verified)
        << pred.name() << " seed=" << seed;
    EXPECT_EQ(stats[1].merge.bitmap_checked, stats[0].merge.bitmap_checked)
        << pred.name() << " seed=" << seed;
    EXPECT_EQ(stats[1].merge.bitmap_pruned, stats[0].merge.bitmap_pruned)
        << pred.name() << " seed=" << seed;
    pruned += stats[0].merge.bitmap_pruned;
  }
  return pruned;
}

TEST(BitmapJoinDifferentialTest, Overlap) {
  RunGateDifferential(OverlapPredicate(4));
}

TEST(BitmapJoinDifferentialTest, WeightedOverlap) {
  Rng rng(520);
  std::vector<double> weights(60);
  for (double& w : weights) w = 0.25 + rng.NextDouble() * 3;
  RunGateDifferential(OverlapPredicate(4.0, weights));
}

TEST(BitmapJoinDifferentialTest, Jaccard) {
  EXPECT_GT(RunGateDifferential(JaccardPredicate(0.5)), 0u);
}

TEST(BitmapJoinDifferentialTest, Dice) {
  RunGateDifferential(DicePredicate(0.6));
}

TEST(BitmapJoinDifferentialTest, Cosine) {
  EXPECT_GT(RunGateDifferential(CosinePredicate(0.6)), 0u);
}

TEST(BitmapJoinDifferentialTest, Hamming) {
  RunGateDifferential(HammingPredicate(4));
}

}  // namespace
}  // namespace ssjoin
