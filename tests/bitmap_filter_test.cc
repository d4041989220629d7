// Differential lockdown of the bitmap emit gate and the SIMD lower-bound
// search:
//
//   * the XOR-parity overlap bound is a true upper bound for every
//     random pair, including adversarial shapes (all tokens colliding on
//     one bit, empty/single-token records, saturated bitmaps);
//   * ProbeJoin with bitmap_filter on emits byte-identical pairs to the
//     ungated join across probe modes (online/two-pass/presort/
//     stopwords), and only the stopword modes consult the gate;
//   * MergeLowerBound — whatever backend runtime dispatch resolved
//     (AVX2 or scalar, see ActiveMergeBackend) — returns positions
//     identical to the scalar galloping primitive on randomized lists;
//     running the suite under SSJOIN_FORCE_SCALAR=1 (tools/
//     run_scalar_tests.sh) pins the scalar backend, so both paths stay
//     covered.
//
// The randomized sweeps honor SSJOIN_DIFF_SEEDS like the other
// differential suites.

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cosine_predicate.h"
#include "core/dice_predicate.h"
#include "core/jaccard_predicate.h"
#include "core/merge_opt.h"
#include "core/overlap_predicate.h"
#include "core/probe_join.h"
#include "data/token_bitmap.h"
#include "index/posting_list.h"
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

// ---------------------------------------------------------------------
// Join-level byte-identity: ProbeJoin pairs with the filter on equal the
// ungated join across probe modes and predicates. The gate sits at emit
// time in stopword mode only; elsewhere the option changes nothing.

std::vector<std::pair<RecordId, RecordId>> RunProbeJoin(
    const RecordSet& prepared, const Predicate& pred,
    ProbeJoinOptions options, JoinStats* stats) {
  std::vector<std::pair<RecordId, RecordId>> pairs;
  Result<JoinStats> result =
      ProbeJoin(prepared, pred, options,
                [&](RecordId a, RecordId b) { pairs.emplace_back(a, b); });
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (result.ok() && stats != nullptr) *stats = result.value();
  return testing_util::SortedPairs(std::move(pairs));
}

void RunJoinDifferential(const Predicate& pred, const std::string& name,
                         bool try_stopwords) {
  struct Mode {
    const char* tag;
    ProbeJoinOptions options;
  };
  std::vector<Mode> modes = {
      {"online", {}},
      {"two-pass", {.online = false}},
      {"presort", {.presort = true}},
  };
  if (try_stopwords) {
    modes.push_back({"stopwords", {.stopwords = true}});
    modes.push_back({"stopwords-presort", {.presort = true,
                                           .stopwords = true}});
  }
  for (int seed = 0; seed < SeedCount(); ++seed) {
    RecordSet records = testing_util::MakeRandomRecordSet(
        {.num_records = 130, .vocabulary = 60}, 9000 + seed);
    pred.Prepare(&records);
    for (const Mode& mode : modes) {
      const std::string tag = name + " seed=" + std::to_string(seed) +
                              " mode=" + mode.tag;
      JoinStats baseline_stats;
      std::vector<std::pair<RecordId, RecordId>> baseline =
          RunProbeJoin(records, pred, mode.options, &baseline_stats);
      ProbeJoinOptions gated = mode.options;
      gated.bitmap_filter = true;
      JoinStats gated_stats;
      EXPECT_EQ(baseline, RunProbeJoin(records, pred, gated, &gated_stats))
          << tag;
      EXPECT_EQ(gated_stats.pairs, baseline_stats.pairs) << tag;
      // The emit-level gate can only ever shrink the verified set.
      EXPECT_LE(gated_stats.candidates_verified,
                baseline_stats.candidates_verified)
          << tag;
      EXPECT_EQ(baseline_stats.merge.bitmap_checked, 0u) << tag;
      if (!mode.options.stopwords) {
        EXPECT_EQ(gated_stats.merge.bitmap_checked, 0u) << tag;
        EXPECT_EQ(gated_stats.candidates_verified,
                  baseline_stats.candidates_verified)
            << tag;
      }
    }
  }
}

TEST(BitmapJoinDifferentialTest, Overlap) {
  OverlapPredicate pred(4);
  RunJoinDifferential(pred, "overlap", /*try_stopwords=*/true);
}

TEST(BitmapJoinDifferentialTest, Jaccard) {
  JaccardPredicate pred(0.5);
  RunJoinDifferential(pred, "jaccard", /*try_stopwords=*/false);
}

TEST(BitmapJoinDifferentialTest, Dice) {
  DicePredicate pred(0.6);
  RunJoinDifferential(pred, "dice", /*try_stopwords=*/false);
}

TEST(BitmapJoinDifferentialTest, Cosine) {
  CosinePredicate pred(0.6);
  RunJoinDifferential(pred, "cosine", /*try_stopwords=*/true);
}

// ---------------------------------------------------------------------
// SIMD lower-bound parity: whatever backend dispatch picked, positions
// must equal the scalar galloping primitive's on randomized lists and
// adversarial starts. Under SSJOIN_FORCE_SCALAR=1 ActiveMergeBackend()
// must report "scalar".

TEST(MergeLowerBoundTest, BackendMatchesScalarPositions) {
  const char* forced = std::getenv("SSJOIN_FORCE_SCALAR");
  if (forced != nullptr && forced[0] != '\0' &&
      !(forced[0] == '0' && forced[1] == '\0')) {
    EXPECT_STREQ(ActiveMergeBackend(), "scalar");
  }
  for (int seed = 0; seed < SeedCount(); ++seed) {
    Rng rng(31 + seed);
    for (int trial = 0; trial < 60; ++trial) {
      PostingList list;
      uint32_t id = rng.UniformU32(4);
      const int n = rng.UniformInt(0, 400);
      for (int i = 0; i < n; ++i) {
        id += 1 + rng.UniformU32(5);
        list.Append(id, 0.25 + rng.NextDouble());
      }
      const PostingListView view = list.view();
      for (int probe = 0; probe < 80; ++probe) {
        const RecordId target = rng.UniformU32(id + 10);
        const size_t start =
            rng.UniformU32(static_cast<uint32_t>(view.size()) + 2);
        uint64_t unused = 0;
        EXPECT_EQ(MergeLowerBound(view, target, start, &unused),
                  view.GallopLowerBound(target, start))
            << "seed " << seed << " trial " << trial << " target " << target
            << " start " << start << " backend " << ActiveMergeBackend();
      }
      // Large-id regression: ids above INT32_MAX exercise the unsigned-
      // compare bias of the vector path.
      PostingList big;
      big.Append(5, 1.0);
      big.Append(0x7FFFFFFFu, 1.0);
      big.Append(0x80000001u, 1.0);
      big.Append(0xFFFFFFF0u, 1.0);
      for (RecordId t : {RecordId{0}, RecordId{6}, RecordId{0x7FFFFFFFu},
                         RecordId{0x80000000u}, RecordId{0x80000001u},
                         RecordId{0xFFFFFFF0u}, RecordId{0xFFFFFFFFu}}) {
        uint64_t unused = 0;
        EXPECT_EQ(MergeLowerBound(big.view(), t, 0, &unused),
                  big.view().GallopLowerBound(t, 0))
            << "big-id target " << t;
      }
    }
  }
}

}  // namespace
}  // namespace ssjoin
