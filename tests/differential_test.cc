// Randomized differential testing: every iteration draws a corpus shape,
// a predicate, an algorithm and a random knob assignment, then checks the
// join output against brute force. The option space here is deliberately
// wider than the structured equivalence suite (extreme cluster limits,
// tiny miner valves, odd memory budgets) — the places where pruning bugs
// hide.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cosine_predicate.h"
#include "core/dice_predicate.h"
#include "core/hamming_predicate.h"
#include "core/jaccard_predicate.h"
#include "core/join.h"
#include "core/overlap_coefficient_predicate.h"
#include "core/overlap_predicate.h"
#include "test_util.h"
#include "util/rng.h"

namespace ssjoin {
namespace {

using PairVector = std::vector<std::pair<RecordId, RecordId>>;

std::unique_ptr<Predicate> RandomPredicate(Rng& rng, std::string* label) {
  switch (rng.UniformU32(6)) {
    case 0: {
      double t = 1 + rng.UniformU32(8);
      *label = "overlap(" + std::to_string(t) + ")";
      return std::make_unique<OverlapPredicate>(t);
    }
    case 1: {
      double t = 2 + rng.UniformU32(5);
      std::vector<double> weights(200);
      for (double& w : weights) w = 0.2 + rng.NextDouble() * 3;
      *label = "weighted-overlap(" + std::to_string(t) + ")";
      return std::make_unique<OverlapPredicate>(t, std::move(weights));
    }
    case 2: {
      double f = 0.2 + rng.NextDouble() * 0.75;
      *label = "jaccard(" + std::to_string(f) + ")";
      return std::make_unique<JaccardPredicate>(f);
    }
    case 3: {
      double f = 0.25 + rng.NextDouble() * 0.7;
      *label = "cosine(" + std::to_string(f) + ")";
      return std::make_unique<CosinePredicate>(f);
    }
    case 4: {
      double f = 0.3 + rng.NextDouble() * 0.65;
      *label = "dice(" + std::to_string(f) + ")";
      return std::make_unique<DicePredicate>(f);
    }
    default: {
      double k = rng.UniformU32(9);
      *label = "hamming(" + std::to_string(k) + ")";
      return std::make_unique<HammingPredicate>(k);
    }
  }
}

JoinAlgorithm RandomAlgorithm(Rng& rng, bool constant_threshold) {
  const JoinAlgorithm general[] = {
      JoinAlgorithm::kProbeCount,        JoinAlgorithm::kProbeOptMerge,
      JoinAlgorithm::kProbeOnline,       JoinAlgorithm::kProbeSort,
      JoinAlgorithm::kProbeCluster,      JoinAlgorithm::kPairCount,
      JoinAlgorithm::kPairCountOptMerge, JoinAlgorithm::kClusterMem,
  };
  const JoinAlgorithm constant_only[] = {
      JoinAlgorithm::kProbeStopwords,
      JoinAlgorithm::kWordGroups,
      JoinAlgorithm::kWordGroupsOptMerge,
  };
  if (constant_threshold && rng.Bernoulli(0.3)) {
    return constant_only[rng.UniformU32(std::size(constant_only))];
  }
  return general[rng.UniformU32(std::size(general))];
}

JoinOptions RandomOptions(Rng& rng) {
  JoinOptions options;
  options.cluster.assign_similarity_threshold = rng.NextDouble() * 0.9;
  if (rng.Bernoulli(0.3)) {
    options.cluster.max_cluster_size = 2 + rng.UniformU32(20);
  }
  if (rng.Bernoulli(0.3)) {
    options.cluster.max_clusters = 1 + rng.UniformU32(30);
  }

  options.cluster_mem.memory_budget_postings = 10 + rng.UniformU32(2000);
  options.cluster_mem.temp_dir = ::testing::TempDir();

  options.word_groups.miner = rng.Bernoulli(0.5)
                                  ? WordGroupsMiner::kApriori
                                  : WordGroupsMiner::kDepthFirst;
  options.word_groups.apriori.early_output_support = 2 + rng.UniformU32(10);
  options.word_groups.apriori.minhash_compaction = rng.Bernoulli(0.7);
  options.word_groups.apriori.compaction_threshold =
      0.4 + rng.NextDouble() * 0.6;
  if (rng.Bernoulli(0.3)) {
    options.word_groups.apriori.max_level = 1 + rng.UniformU32(5);
  }
  if (rng.Bernoulli(0.2)) {
    options.word_groups.apriori.max_open_itemsets = 1 + rng.UniformU32(50);
  }
  return options;
}

TEST(DifferentialTest, RandomizedOptionSweep) {
  Rng rng(20260707);
  for (int iteration = 0; iteration < 60; ++iteration) {
    testing_util::RandomSetOptions shape;
    shape.num_records = 40 + rng.UniformU32(100);
    shape.vocabulary = 20 + rng.UniformU32(120);
    shape.min_tokens = 1 + rng.UniformU32(3);
    shape.max_tokens = shape.min_tokens + 2 + rng.UniformU32(12);
    shape.zipf_exponent = 0.5 + rng.NextDouble();
    shape.duplicate_fraction = rng.NextDouble() * 0.7;
    RecordSet base =
        testing_util::MakeRandomRecordSet(shape, 9000 + iteration);

    std::string label;
    std::unique_ptr<Predicate> pred = RandomPredicate(rng, &label);
    JoinAlgorithm algorithm = RandomAlgorithm(
        rng, pred->ConstantThreshold().has_value() &&
                 pred->has_static_weights());
    JoinOptions options = RandomOptions(rng);

    SCOPED_TRACE("iteration " + std::to_string(iteration) + ": " + label +
                 " via " + JoinAlgorithmName(algorithm));

    RecordSet reference_set = base;
    pred->Prepare(&reference_set);
    PairVector expected;
    BruteForceJoin(reference_set, *pred,
                   [&expected](RecordId a, RecordId b) {
                     expected.emplace_back(a, b);
                   });
    std::sort(expected.begin(), expected.end());

    RecordSet working = base;
    Result<PairVector> actual =
        JoinToPairs(&working, *pred, algorithm, options);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    EXPECT_EQ(actual.value(), expected);
  }
}

TEST(DifferentialTest, PrefixFilterRandomized) {
  Rng rng(777);
  for (int iteration = 0; iteration < 25; ++iteration) {
    testing_util::RandomSetOptions shape;
    shape.num_records = 50 + rng.UniformU32(100);
    shape.vocabulary = 30 + rng.UniformU32(80);
    RecordSet base =
        testing_util::MakeRandomRecordSet(shape, 7000 + iteration);

    std::string label;
    std::unique_ptr<Predicate> pred;
    switch (rng.UniformU32(4)) {
      case 0:
        pred = std::make_unique<OverlapPredicate>(2.0 + rng.UniformU32(6));
        break;
      case 1:
        pred = std::make_unique<JaccardPredicate>(0.3 + rng.NextDouble() * 0.6);
        break;
      case 2:
        pred = std::make_unique<DicePredicate>(0.3 + rng.NextDouble() * 0.6);
        break;
      default:
        pred = std::make_unique<CosinePredicate>(0.3 + rng.NextDouble() * 0.6);
        break;
    }
    SCOPED_TRACE("iteration " + std::to_string(iteration) + ": " +
                 pred->name());

    RecordSet reference_set = base;
    pred->Prepare(&reference_set);
    PairVector expected;
    BruteForceJoin(reference_set, *pred,
                   [&expected](RecordId a, RecordId b) {
                     expected.emplace_back(a, b);
                   });
    std::sort(expected.begin(), expected.end());

    RecordSet working = base;
    Result<PairVector> actual =
        JoinToPairs(&working, *pred, JoinAlgorithm::kPrefixFilter);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    EXPECT_EQ(actual.value(), expected);
  }
}

}  // namespace
}  // namespace ssjoin
