#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/edit_distance_predicate.h"
#include "test_util.h"
#include "text/edit_distance.h"
#include "text/token_dictionary.h"
#include "text/tokenizer.h"
#include "util/rng.h"

namespace ssjoin {
namespace {

TEST(EditDistanceTest, KnownValues) {
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("abc", "abc"), 0u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  EXPECT_EQ(EditDistance("", "abc"), 3u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("flaw", "lawn"), 2u);
  EXPECT_EQ(EditDistance("abc", "abd"), 1u);
  EXPECT_EQ(EditDistance("abc", "acb"), 2u);  // unit-cost (no transpose)
}

TEST(EditDistanceTest, Symmetric) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    std::string a = testing_util::RandomAsciiString(rng, 0, 15);
    std::string b = testing_util::RandomAsciiString(rng, 0, 15);
    EXPECT_EQ(EditDistance(a, b), EditDistance(b, a));
  }
}

TEST(EditDistanceTest, TriangleInequality) {
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    std::string a = testing_util::RandomAsciiString(rng, 0, 10);
    std::string b = testing_util::RandomAsciiString(rng, 0, 10);
    std::string c = testing_util::RandomAsciiString(rng, 0, 10);
    EXPECT_LE(EditDistance(a, c), EditDistance(a, b) + EditDistance(b, c));
  }
}

class BandedEditDistanceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BandedEditDistanceTest, AgreesWithFullDp) {
  size_t k = GetParam();
  Rng rng(100 + k);
  for (int i = 0; i < 400; ++i) {
    std::string a = testing_util::RandomAsciiString(rng, 0, 20);
    std::string b;
    if (rng.Bernoulli(0.5)) {
      // Derive b from a with a few edits so distances near k are common.
      b = a;
      int edits = rng.UniformInt(0, static_cast<int>(k) + 2);
      for (int e = 0; e < edits; ++e) {
        if (b.empty() || rng.Bernoulli(0.3)) {
          b.insert(b.begin() + rng.UniformU32(b.size() + 1),
                   static_cast<char>('a' + rng.UniformU32(4)));
        } else if (rng.Bernoulli(0.5)) {
          b[rng.UniformU32(b.size())] =
              static_cast<char>('a' + rng.UniformU32(4));
        } else {
          b.erase(rng.UniformU32(b.size()), 1);
        }
      }
    } else {
      b = testing_util::RandomAsciiString(rng, 0, 20);
    }
    bool expected = EditDistance(a, b) <= k;
    EXPECT_EQ(EditDistanceAtMost(a, b, k), expected)
        << "a=" << a << " b=" << b << " k=" << k
        << " dist=" << EditDistance(a, b);
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, BandedEditDistanceTest,
                         ::testing::Values(0, 1, 2, 3, 5, 10));

TEST(EditDistanceAtMostTest, LengthGapShortCircuits) {
  EXPECT_FALSE(EditDistanceAtMost("abcdefgh", "a", 3));
  EXPECT_TRUE(EditDistanceAtMost("abcd", "a", 3));
}

TEST(QGramBoundTest, TheoremHoldsOnRandomPairs) {
  // If edit-distance(a, b) <= k then the padded q-gram multisets share at
  // least max(|a|,|b|) - 1 - q(k-1) grams (Section 5.2.3): the threshold
  // the edit-distance joins probe with. Verify it against actual
  // shared-gram counts.
  Rng rng(55);
  const int q = 3;
  QGramTokenizer tok(q);
  for (int i = 0; i < 300; ++i) {
    std::string a = testing_util::RandomAsciiString(rng, 4, 20);
    std::string b = a;
    int k = rng.UniformInt(1, 3);
    for (int e = 0; e < k; ++e) {
      if (!b.empty()) {
        b[rng.UniformU32(b.size())] =
            static_cast<char>('a' + rng.UniformU32(26));
      }
    }
    ASSERT_LE(EditDistance(a, b), static_cast<size_t>(k));

    TokenDictionary dict;
    std::vector<TokenId> grams_a, grams_b;
    tok.Tokenize(a, &dict, &grams_a);
    tok.Tokenize(b, &dict, &grams_b);
    // Count shared grams with multiplicity: merge the sorted bags.
    std::sort(grams_a.begin(), grams_a.end());
    std::sort(grams_b.begin(), grams_b.end());
    long shared = 0;
    size_t ia = 0, ib = 0;
    while (ia < grams_a.size() && ib < grams_b.size()) {
      if (grams_a[ia] < grams_b[ib]) {
        ++ia;
      } else if (grams_a[ia] > grams_b[ib]) {
        ++ib;
      } else {
        ++shared;
        ++ia;
        ++ib;
      }
    }
    const double bound = EditDistancePredicate(k, q).ThresholdForNorms(
        static_cast<double>(a.size()), static_cast<double>(b.size()));
    EXPECT_GE(static_cast<double>(shared), bound)
        << "a=" << a << " b=" << b << " k=" << k;
  }
}

TEST(QGramBoundTest, VacuousForTinyStrings) {
  const EditDistancePredicate pred(/*k=*/2, /*q=*/3);
  EXPECT_LE(pred.ThresholdForNorms(2, 2), 0);
  EXPECT_GT(pred.ThresholdForNorms(20, 20), 0);
}

}  // namespace
}  // namespace ssjoin
