// Parallel-vs-serial equivalence: with JoinOptions::num_threads > 1 the
// probe-family and prefix-filter joins fan record probes across a thread
// pool, and BandPartitionedJoin joins partitions concurrently. Every
// parallel run must produce exactly the serial pair set, and the merged
// stats must not depend on scheduling.

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cosine_predicate.h"
#include "core/edit_distance_predicate.h"
#include "core/jaccard_predicate.h"
#include "core/join.h"
#include "core/overlap_predicate.h"
#include "data/corpus_builder.h"
#include "test_util.h"
#include "text/token_dictionary.h"
#include "util/rng.h"

namespace ssjoin {
namespace {

using testing_util::MakeRandomRecordSet;
using testing_util::RandomSetOptions;

using PairVector = std::vector<std::pair<RecordId, RecordId>>;

struct RunResult {
  PairVector emitted;  // raw emission order, not sorted
  JoinStats stats;
};

RunResult RunWithThreads(const RecordSet& base, const Predicate& pred,
                         JoinAlgorithm algorithm, int num_threads,
                         JoinOptions options = {}) {
  RecordSet working = base;
  options.num_threads = num_threads;
  RunResult out;
  Result<JoinStats> result = RunJoin(
      &working, pred, algorithm, options,
      [&out](RecordId a, RecordId b) { out.emitted.emplace_back(a, b); });
  EXPECT_TRUE(result.ok()) << JoinAlgorithmName(algorithm) << ": "
                           << result.status().ToString();
  if (result.ok()) out.stats = result.value();
  return out;
}

void ExpectStatsEq(const JoinStats& a, const JoinStats& b,
                   const std::string& label) {
  EXPECT_EQ(a.pairs, b.pairs) << label;
  EXPECT_EQ(a.candidates_verified, b.candidates_verified) << label;
  EXPECT_EQ(a.index_postings, b.index_postings) << label;
  EXPECT_EQ(a.aggregated_pairs, b.aggregated_pairs) << label;
  EXPECT_EQ(a.groups, b.groups) << label;
  EXPECT_EQ(a.merge.merges, b.merge.merges) << label;
  EXPECT_EQ(a.merge.heap_pops, b.merge.heap_pops) << label;
  EXPECT_EQ(a.merge.gallop_probes, b.merge.gallop_probes) << label;
  EXPECT_EQ(a.merge.candidates, b.merge.candidates) << label;
  EXPECT_EQ(a.merge.bitmap_checked, b.merge.bitmap_checked) << label;
  EXPECT_EQ(a.merge.bitmap_pruned, b.merge.bitmap_pruned) << label;
  EXPECT_EQ(a.merge.lists_direct, b.merge.lists_direct) << label;
  EXPECT_EQ(a.merge.lists_merged, b.merge.lists_merged) << label;
}

RecordSet MakeCorpus(uint64_t seed) {
  RandomSetOptions shape;
  shape.num_records = 220;
  shape.vocabulary = 90;
  shape.duplicate_fraction = 0.35;
  return MakeRandomRecordSet(shape, seed);
}

// Offline (two-pass) probe variants build the full index before probing,
// so the parallel run sees exactly the serial per-probe work: pairs AND
// every counter must match the serial run bit for bit.
TEST(ParallelProbeTest, OfflineVariantsMatchSerialExactly) {
  RecordSet base = MakeCorpus(501);
  OverlapPredicate overlap(3.0);
  JaccardPredicate jaccard(0.6);
  CosinePredicate cosine(0.5);
  const Predicate* predicates[] = {&overlap, &jaccard, &cosine};
  for (JoinAlgorithm algorithm :
       {JoinAlgorithm::kProbeCount, JoinAlgorithm::kProbeOptMerge}) {
    for (const Predicate* pred : predicates) {
      RunResult serial = RunWithThreads(base, *pred, algorithm, 1);
      for (int threads : {2, 8}) {
        RunResult parallel = RunWithThreads(base, *pred, algorithm, threads);
        std::string label = std::string(JoinAlgorithmName(algorithm)) + "/" +
                            pred->name() + "/t" + std::to_string(threads);
        EXPECT_EQ(testing_util::SortedPairs(parallel.emitted),
                  testing_util::SortedPairs(serial.emitted))
            << label;
        ExpectStatsEq(parallel.stats, serial.stats, label);
      }
      // Determinism across thread counts: the merged emission order is
      // globally sorted, so 2- and 8-thread runs are byte-identical.
      RunResult two = RunWithThreads(base, *pred, algorithm, 2);
      RunResult eight = RunWithThreads(base, *pred, algorithm, 8);
      EXPECT_EQ(two.emitted, eight.emitted) << pred->name();
    }
  }
}

// Online and presorted variants probe the index of the records before
// them. A parallel probe sees the frozen index clipped to exactly that
// prefix, under the prefix's minimum norm, so with token-uniform scores
// (overlap, jaccard) the merge work is the serial run's, counter for
// counter. Cosine weights differ per record: a clipped list keeps its
// whole-list max score, which moves the L/S split (merge counters) but
// never the candidates verified.
TEST(ParallelProbeTest, OnlineVariantsMatchSerial) {
  RecordSet base = MakeCorpus(502);
  JaccardPredicate jaccard(0.55);
  OverlapPredicate overlap(3.0);
  CosinePredicate cosine(0.5);
  for (JoinAlgorithm algorithm :
       {JoinAlgorithm::kProbeOnline, JoinAlgorithm::kProbeSort}) {
    for (const Predicate* pred :
         {static_cast<const Predicate*>(&jaccard),
          static_cast<const Predicate*>(&overlap),
          static_cast<const Predicate*>(&cosine)}) {
      RunResult serial = RunWithThreads(base, *pred, algorithm, 1);
      for (int threads : {2, 8}) {
        RunResult parallel = RunWithThreads(base, *pred, algorithm, threads);
        std::string label = std::string(JoinAlgorithmName(algorithm)) + "/" +
                            pred->name() + "/t" + std::to_string(threads);
        EXPECT_EQ(testing_util::SortedPairs(parallel.emitted),
                  testing_util::SortedPairs(serial.emitted))
            << label;
        if (pred == &cosine) {
          EXPECT_EQ(parallel.stats.pairs, serial.stats.pairs) << label;
          EXPECT_EQ(parallel.stats.candidates_verified,
                    serial.stats.candidates_verified)
              << label;
        } else {
          ExpectStatsEq(parallel.stats, serial.stats, label);
        }
      }
      RunResult two = RunWithThreads(base, *pred, algorithm, 2);
      RunResult eight = RunWithThreads(base, *pred, algorithm, 8);
      EXPECT_EQ(two.emitted, eight.emitted) << JoinAlgorithmName(algorithm);
      ExpectStatsEq(two.stats, eight.stats, JoinAlgorithmName(algorithm));
    }
  }
}

TEST(ParallelProbeTest, StopwordsVariantMatchesSerial) {
  RecordSet base = MakeCorpus(503);
  OverlapPredicate pred(4.0);  // constant threshold, as stopwords requires
  RunResult serial =
      RunWithThreads(base, pred, JoinAlgorithm::kProbeStopwords, 1);
  for (int threads : {2, 8}) {
    RunResult parallel =
        RunWithThreads(base, pred, JoinAlgorithm::kProbeStopwords, threads);
    EXPECT_EQ(testing_util::SortedPairs(parallel.emitted),
              testing_util::SortedPairs(serial.emitted));
    ExpectStatsEq(parallel.stats, serial.stats,
                  "stopwords/t" + std::to_string(threads));
  }
}

// The stopwords variant rejects predicates without a constant threshold;
// the parallel path must report the identical error, not crash or join.
TEST(ParallelProbeTest, StopwordsRejectionMatchesSerial) {
  RecordSet base = MakeCorpus(504);
  JaccardPredicate pred(0.6);
  JoinOptions serial_options;
  JoinOptions parallel_options;
  parallel_options.num_threads = 4;
  RecordSet s = base;
  RecordSet p = base;
  PairSink ignore = [](RecordId, RecordId) {};
  Result<JoinStats> serial =
      RunJoin(&s, pred, JoinAlgorithm::kProbeStopwords, serial_options,
              ignore);
  Result<JoinStats> parallel =
      RunJoin(&p, pred, JoinAlgorithm::kProbeStopwords, parallel_options,
              ignore);
  ASSERT_FALSE(serial.ok());
  ASSERT_FALSE(parallel.ok());
  EXPECT_EQ(parallel.status().ToString(), serial.status().ToString());
}

TEST(ParallelPrefixFilterTest, MatchesSerial) {
  RecordSet base = MakeCorpus(505);
  OverlapPredicate overlap(3.0);
  JaccardPredicate jaccard(0.6);
  CosinePredicate cosine(0.45);
  const Predicate* predicates[] = {&overlap, &jaccard, &cosine};
  for (const Predicate* pred : predicates) {
    RunResult serial =
        RunWithThreads(base, *pred, JoinAlgorithm::kPrefixFilter, 1);
    RunResult two =
        RunWithThreads(base, *pred, JoinAlgorithm::kPrefixFilter, 2);
    RunResult eight =
        RunWithThreads(base, *pred, JoinAlgorithm::kPrefixFilter, 8);
    EXPECT_EQ(testing_util::SortedPairs(two.emitted),
              testing_util::SortedPairs(serial.emitted))
        << pred->name();
    EXPECT_EQ(two.emitted, eight.emitted) << pred->name();
    ExpectStatsEq(two.stats, eight.stats, pred->name());
    ExpectStatsEq(two.stats, serial.stats, pred->name());
  }
}

// PrefixFilter's bitmap gate runs in the shared per-position probe, so a
// parallel run checks and prunes exactly the candidates the serial run
// does: every counter, the bitmap counters included, matches.
TEST(ParallelPrefixFilterTest, BitmapGateMatchesSerial) {
  RecordSet base = MakeCorpus(510);
  JaccardPredicate jaccard(0.5);
  CosinePredicate cosine(0.6);
  for (const Predicate* pred :
       {static_cast<const Predicate*>(&jaccard),
        static_cast<const Predicate*>(&cosine)}) {
    RunResult serial =
        RunWithThreads(base, *pred, JoinAlgorithm::kPrefixFilter, 1);
    ASSERT_GT(serial.stats.merge.bitmap_pruned, 0u) << pred->name();
    RunResult parallel =
        RunWithThreads(base, *pred, JoinAlgorithm::kPrefixFilter, 4);
    const std::string label = pred->name() + "/t4";
    EXPECT_EQ(testing_util::SortedPairs(parallel.emitted),
              testing_util::SortedPairs(serial.emitted))
        << label;
    ExpectStatsEq(parallel.stats, serial.stats, label);
  }
}

RecordSet MakeQGramCorpus(uint64_t seed, TokenDictionary* dict) {
  Rng rng(seed);
  std::vector<std::string> texts;
  for (int i = 0; i < 110; ++i) {
    if (!texts.empty() && rng.Bernoulli(0.45)) {
      std::string base = texts[rng.UniformU32(texts.size())];
      if (!base.empty()) {
        base[rng.UniformU32(static_cast<uint32_t>(base.size()))] =
            static_cast<char>('a' + rng.UniformU32(26));
      }
      texts.push_back(base);
    } else {
      texts.push_back(testing_util::RandomAsciiString(rng, 2, 20));
    }
  }
  CorpusBuilderOptions copts;
  copts.normalize = false;
  return BuildQGramCorpus(texts, /*q=*/3, dict, copts);
}

// Edit distance exercises the short-record fallback after the parallel
// phase: fallback pairs must still appear exactly once.
TEST(ParallelProbeTest, EditDistanceQGramsMatchSerial) {
  TokenDictionary dict;
  RecordSet base = MakeQGramCorpus(506, &dict);
  EditDistancePredicate pred(2, 3);
  for (JoinAlgorithm algorithm :
       {JoinAlgorithm::kProbeCount, JoinAlgorithm::kProbeOptMerge}) {
    RunResult serial = RunWithThreads(base, pred, algorithm, 1);
    for (int threads : {2, 8}) {
      RunResult parallel = RunWithThreads(base, pred, algorithm, threads);
      EXPECT_EQ(testing_util::SortedPairs(parallel.emitted),
                testing_util::SortedPairs(serial.emitted))
          << JoinAlgorithmName(algorithm) << "/t" << threads;
      ExpectStatsEq(parallel.stats, serial.stats,
                    JoinAlgorithmName(algorithm));
    }
  }
}

TEST(ParallelBandPartitionTest, MatchesSerialAcrossThreadCounts) {
  TokenDictionary dict;
  RecordSet base = MakeQGramCorpus(507, &dict);
  const double k = 2;
  EditDistancePredicate pred(static_cast<int>(k), 3);
  for (BandStrategy strategy : {BandStrategy::kSimple, BandStrategy::kGreedy,
                                BandStrategy::kOptimal}) {
    PairVector serial_pairs;
    RecordSet serial_set = base;
    Result<JoinStats> serial = BandPartitionedJoin(
        &serial_set, pred, k, strategy,
        [&serial_pairs](RecordId a, RecordId b) {
          serial_pairs.emplace_back(a, b);
        });
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    for (int threads : {2, 8}) {
      PairVector parallel_pairs;
      RecordSet parallel_set = base;
      Result<JoinStats> parallel = BandPartitionedJoin(
          &parallel_set, pred, k, strategy,
          [&parallel_pairs](RecordId a, RecordId b) {
            parallel_pairs.emplace_back(a, b);
          },
          threads);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      // Partition buffers replay in partition order: the emission
      // sequence is identical to serial, not merely the same set.
      EXPECT_EQ(parallel_pairs, serial_pairs)
          << "strategy=" << static_cast<int>(strategy)
          << " threads=" << threads;
      ExpectStatsEq(parallel.value(), serial.value(),
                    "band/t" + std::to_string(threads));
    }
  }
}

TEST(ParallelJoinEdgeCaseTest, EmptyCorpus) {
  RecordSet base;
  JaccardPredicate pred(0.5);
  for (JoinAlgorithm algorithm :
       {JoinAlgorithm::kProbeCount, JoinAlgorithm::kProbeOptMerge,
        JoinAlgorithm::kPrefixFilter}) {
    RunResult result = RunWithThreads(base, pred, algorithm, 8);
    EXPECT_TRUE(result.emitted.empty()) << JoinAlgorithmName(algorithm);
    EXPECT_EQ(result.stats.pairs, 0u);
  }
}

TEST(ParallelJoinEdgeCaseTest, SingleRecordCorpus) {
  RandomSetOptions shape;
  shape.num_records = 1;
  shape.duplicate_fraction = 0;
  RecordSet base = MakeRandomRecordSet(shape, 508);
  JaccardPredicate pred(0.5);
  for (JoinAlgorithm algorithm :
       {JoinAlgorithm::kProbeCount, JoinAlgorithm::kProbeOptMerge,
        JoinAlgorithm::kPrefixFilter}) {
    RunResult result = RunWithThreads(base, pred, algorithm, 8);
    EXPECT_TRUE(result.emitted.empty()) << JoinAlgorithmName(algorithm);
  }
}

TEST(ParallelJoinEdgeCaseTest, MoreThreadsThanRecords) {
  RandomSetOptions shape;
  shape.num_records = 5;
  RecordSet base = MakeRandomRecordSet(shape, 509);
  OverlapPredicate pred(2.0);
  RunResult serial = RunWithThreads(base, pred, JoinAlgorithm::kProbeCount, 1);
  RunResult parallel =
      RunWithThreads(base, pred, JoinAlgorithm::kProbeCount, 16);
  EXPECT_EQ(testing_util::SortedPairs(parallel.emitted),
            testing_util::SortedPairs(serial.emitted));
}

}  // namespace
}  // namespace ssjoin
