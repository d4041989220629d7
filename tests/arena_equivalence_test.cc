// Arena-layout equivalence suite: every join algorithm, across predicates
// and thread counts, must produce byte-identical output to the seed-era
// implementation (golden FNV-1a hashes captured from the pre-arena build).
// This pins the columnar CSR refactor to the exact pre-refactor behavior:
// any change in pair content *or order-sensitive dedup behavior* shifts
// the hash.
//
// Regenerating goldens (only legitimate after an intentional semantic
// change): run with SSJOIN_PRINT_GOLDENS=1 and paste the printed table.

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cosine_predicate.h"
#include "core/dice_predicate.h"
#include "core/edit_distance_predicate.h"
#include "core/foreign_join.h"
#include "core/hamming_predicate.h"
#include "core/jaccard_predicate.h"
#include "core/join.h"
#include "core/overlap_coefficient_predicate.h"
#include "core/overlap_predicate.h"
#include "data/corpus_builder.h"
#include "test_util.h"
#include "util/rng.h"

namespace ssjoin {
namespace {

using testing_util::MakeRandomRecordSet;
using testing_util::RandomSetOptions;

using PairVector = std::vector<std::pair<RecordId, RecordId>>;

uint64_t HashPairs(const PairVector& pairs) {
  // FNV-1a over the sorted (a, b) stream: stable across platforms.
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  for (const auto& [a, b] : pairs) {
    mix(a);
    mix(b);
  }
  return h;
}

struct GoldenCase {
  const char* label;
  uint64_t hash;
};

// Captured from the seed-era (pre-arena) build; see file comment.
const GoldenCase kGoldens[] = {
    {"dense/overlap/brute", 10388405375568447476ull},
    {"dense/overlap/probe", 10388405375568447476ull},
    {"dense/overlap/probe/t4", 10388405375568447476ull},
    {"dense/overlap/probe-optmerge", 10388405375568447476ull},
    {"dense/overlap/probe-optmerge/t4", 10388405375568447476ull},
    {"dense/overlap/probe-online", 10388405375568447476ull},
    {"dense/overlap/probe-sort", 10388405375568447476ull},
    {"dense/overlap/probe-cluster", 10388405375568447476ull},
    {"dense/overlap/pair-count", 10388405375568447476ull},
    {"dense/overlap/pair-count-optmerge", 10388405375568447476ull},
    {"dense/overlap/cluster-mem", 10388405375568447476ull},
    {"dense/overlap/probe-stopwords", 10388405375568447476ull},
    {"dense/overlap/probe-stopwords/t4", 10388405375568447476ull},
    {"dense/overlap/word-groups", 10388405375568447476ull},
    {"dense/overlap/word-groups-optmerge", 10388405375568447476ull},
    {"dense/overlap/prefix-filter", 10388405375568447476ull},
    {"dense/overlap/prefix-filter/t4", 10388405375568447476ull},
    {"dense/jaccard/brute", 15267942115989793231ull},
    {"dense/jaccard/probe", 15267942115989793231ull},
    {"dense/jaccard/probe/t4", 15267942115989793231ull},
    {"dense/jaccard/probe-optmerge", 15267942115989793231ull},
    {"dense/jaccard/probe-optmerge/t4", 15267942115989793231ull},
    {"dense/jaccard/probe-online", 15267942115989793231ull},
    {"dense/jaccard/probe-sort", 15267942115989793231ull},
    {"dense/jaccard/probe-cluster", 15267942115989793231ull},
    {"dense/jaccard/pair-count", 15267942115989793231ull},
    {"dense/jaccard/pair-count-optmerge", 15267942115989793231ull},
    {"dense/jaccard/cluster-mem", 15267942115989793231ull},
    {"dense/jaccard/prefix-filter", 15267942115989793231ull},
    {"dense/jaccard/prefix-filter/t4", 15267942115989793231ull},
    {"dense/cosine/brute", 14618095315970372102ull},
    {"dense/cosine/probe", 14618095315970372102ull},
    {"dense/cosine/probe/t4", 14618095315970372102ull},
    {"dense/cosine/probe-optmerge", 14618095315970372102ull},
    {"dense/cosine/probe-optmerge/t4", 14618095315970372102ull},
    {"dense/cosine/probe-online", 14618095315970372102ull},
    {"dense/cosine/probe-sort", 14618095315970372102ull},
    {"dense/cosine/probe-cluster", 14618095315970372102ull},
    {"dense/cosine/pair-count", 14618095315970372102ull},
    {"dense/cosine/pair-count-optmerge", 14618095315970372102ull},
    {"dense/cosine/cluster-mem", 14618095315970372102ull},
    {"dense/cosine/probe-stopwords", 14618095315970372102ull},
    {"dense/cosine/probe-stopwords/t4", 14618095315970372102ull},
    {"dense/cosine/prefix-filter", 14618095315970372102ull},
    {"dense/cosine/prefix-filter/t4", 14618095315970372102ull},
    {"skewed/overlap/brute", 16066056405829026878ull},
    {"skewed/overlap/probe", 16066056405829026878ull},
    {"skewed/overlap/probe/t4", 16066056405829026878ull},
    {"skewed/overlap/probe-optmerge", 16066056405829026878ull},
    {"skewed/overlap/probe-optmerge/t4", 16066056405829026878ull},
    {"skewed/overlap/probe-online", 16066056405829026878ull},
    {"skewed/overlap/probe-sort", 16066056405829026878ull},
    {"skewed/overlap/probe-cluster", 16066056405829026878ull},
    {"skewed/overlap/pair-count", 16066056405829026878ull},
    {"skewed/overlap/pair-count-optmerge", 16066056405829026878ull},
    {"skewed/overlap/cluster-mem", 16066056405829026878ull},
    {"skewed/overlap/probe-stopwords", 16066056405829026878ull},
    {"skewed/overlap/probe-stopwords/t4", 16066056405829026878ull},
    {"skewed/overlap/word-groups", 16066056405829026878ull},
    {"skewed/overlap/word-groups-optmerge", 16066056405829026878ull},
    {"skewed/overlap/prefix-filter", 16066056405829026878ull},
    {"skewed/overlap/prefix-filter/t4", 16066056405829026878ull},
    {"skewed/dice/brute", 15189134890236523082ull},
    {"skewed/dice/probe", 15189134890236523082ull},
    {"skewed/dice/probe/t4", 15189134890236523082ull},
    {"skewed/dice/probe-optmerge", 15189134890236523082ull},
    {"skewed/dice/probe-optmerge/t4", 15189134890236523082ull},
    {"skewed/dice/probe-online", 15189134890236523082ull},
    {"skewed/dice/probe-sort", 15189134890236523082ull},
    {"skewed/dice/probe-cluster", 15189134890236523082ull},
    {"skewed/dice/pair-count", 15189134890236523082ull},
    {"skewed/dice/pair-count-optmerge", 15189134890236523082ull},
    {"skewed/dice/cluster-mem", 15189134890236523082ull},
    {"skewed/dice/prefix-filter", 15189134890236523082ull},
    {"skewed/dice/prefix-filter/t4", 15189134890236523082ull},
    {"skewed/overlap-coefficient/brute", 14277149952392889830ull},
    {"skewed/overlap-coefficient/probe", 14277149952392889830ull},
    {"skewed/overlap-coefficient/probe/t4", 14277149952392889830ull},
    {"skewed/overlap-coefficient/probe-optmerge", 14277149952392889830ull},
    {"skewed/overlap-coefficient/probe-optmerge/t4", 14277149952392889830ull},
    {"skewed/overlap-coefficient/probe-online", 14277149952392889830ull},
    {"skewed/overlap-coefficient/probe-sort", 14277149952392889830ull},
    {"skewed/overlap-coefficient/probe-cluster", 14277149952392889830ull},
    {"skewed/overlap-coefficient/pair-count", 14277149952392889830ull},
    {"skewed/overlap-coefficient/pair-count-optmerge", 14277149952392889830ull},
    {"skewed/overlap-coefficient/cluster-mem", 14277149952392889830ull},
    {"skewed/hamming/brute", 17022430018312793733ull},
    {"skewed/hamming/probe", 17022430018312793733ull},
    {"skewed/hamming/probe/t4", 17022430018312793733ull},
    {"skewed/hamming/probe-optmerge", 17022430018312793733ull},
    {"skewed/hamming/probe-optmerge/t4", 17022430018312793733ull},
    {"skewed/hamming/probe-online", 17022430018312793733ull},
    {"skewed/hamming/probe-sort", 17022430018312793733ull},
    {"skewed/hamming/probe-cluster", 17022430018312793733ull},
    {"skewed/hamming/pair-count", 17022430018312793733ull},
    {"skewed/hamming/pair-count-optmerge", 17022430018312793733ull},
    {"skewed/hamming/cluster-mem", 17022430018312793733ull},
    {"skewed/hamming/prefix-filter", 17022430018312793733ull},
    {"skewed/hamming/prefix-filter/t4", 17022430018312793733ull},
    {"qgram/edit-distance/brute", 2522082964145004146ull},
    {"qgram/edit-distance/probe", 2522082964145004146ull},
    {"qgram/edit-distance/probe/t4", 2522082964145004146ull},
    {"qgram/edit-distance/probe-optmerge", 2522082964145004146ull},
    {"qgram/edit-distance/probe-optmerge/t4", 2522082964145004146ull},
    {"qgram/edit-distance/probe-online", 2522082964145004146ull},
    {"qgram/edit-distance/probe-sort", 2522082964145004146ull},
    {"qgram/edit-distance/probe-cluster", 2522082964145004146ull},
    {"qgram/edit-distance/pair-count", 2522082964145004146ull},
    {"qgram/edit-distance/pair-count-optmerge", 2522082964145004146ull},
    {"qgram/edit-distance/cluster-mem", 2522082964145004146ull},
};

bool PrintGoldens() {
  const char* env = std::getenv("SSJOIN_PRINT_GOLDENS");
  return env != nullptr && env[0] == '1';
}

class GoldenRecorder {
 public:
  void Check(const std::string& label, const PairVector& pairs) {
    uint64_t h = HashPairs(pairs);
    if (PrintGoldens()) {
      std::printf("    {\"%s\", %lluull},\n", label.c_str(),
                  static_cast<unsigned long long>(h));
      return;
    }
    bool found = false;
    for (const GoldenCase& g : kGoldens) {
      if (label == g.label) {
        found = true;
        EXPECT_EQ(h, g.hash)
            << label << ": output diverged from the seed-era golden ("
            << pairs.size() << " pairs)";
        break;
      }
    }
    EXPECT_TRUE(found) << "no golden recorded for case: " << label;
  }
};

JoinOptions BaseOptions() {
  JoinOptions options;
  options.cluster_mem.memory_budget_postings = 300;
  options.cluster_mem.temp_dir = ::testing::TempDir();
  return options;
}

struct AlgorithmSpec {
  JoinAlgorithm algorithm;
  const char* name;
  bool threaded;  // also run with num_threads = 4
};

const AlgorithmSpec kAlgorithms[] = {
    {JoinAlgorithm::kBruteForce, "brute", false},
    {JoinAlgorithm::kProbeCount, "probe", true},
    {JoinAlgorithm::kProbeOptMerge, "probe-optmerge", true},
    {JoinAlgorithm::kProbeOnline, "probe-online", false},
    {JoinAlgorithm::kProbeSort, "probe-sort", false},
    {JoinAlgorithm::kProbeCluster, "probe-cluster", false},
    {JoinAlgorithm::kPairCount, "pair-count", false},
    {JoinAlgorithm::kPairCountOptMerge, "pair-count-optmerge", false},
    {JoinAlgorithm::kClusterMem, "cluster-mem", false},
};

void RunSuite(GoldenRecorder* recorder, const std::string& corpus_label,
              const RecordSet& base, const Predicate& pred,
              bool prefix_filter) {
  auto run_one = [&](const AlgorithmSpec& spec) {
    for (int threads : {1, 4}) {
      if (threads > 1 && !spec.threaded) continue;
      JoinOptions options = BaseOptions();
      options.num_threads = threads;
      RecordSet working = base;
      Result<PairVector> actual =
          JoinToPairs(&working, pred, spec.algorithm, options);
      ASSERT_TRUE(actual.ok()) << spec.name << ": "
                               << actual.status().ToString();
      std::string label = corpus_label + "/" + pred.name() + "/" + spec.name;
      if (threads > 1) label += "/t4";
      recorder->Check(label, actual.value());
    }
  };
  for (const AlgorithmSpec& spec : kAlgorithms) run_one(spec);
  // Probe-stopWords needs a constant threshold; Word-Groups additionally
  // needs static token weights (only overlap qualifies).
  if (pred.ConstantThreshold().has_value()) {
    run_one({JoinAlgorithm::kProbeStopwords, "probe-stopwords", true});
    if (pred.has_static_weights()) {
      run_one({JoinAlgorithm::kWordGroups, "word-groups", false});
      run_one({JoinAlgorithm::kWordGroupsOptMerge, "word-groups-optmerge",
               false});
    }
  }
  if (prefix_filter) {
    run_one({JoinAlgorithm::kPrefixFilter, "prefix-filter", true});
  }
}

RecordSet DenseSet() {
  RandomSetOptions dense;
  dense.num_records = 150;
  dense.vocabulary = 60;
  return MakeRandomRecordSet(dense, 4711);
}

RecordSet SkewedSet() {
  RandomSetOptions skewed;
  skewed.num_records = 160;
  skewed.vocabulary = 200;
  skewed.zipf_exponent = 1.4;
  skewed.duplicate_fraction = 0.5;
  return MakeRandomRecordSet(skewed, 4712);
}

/// Near-duplicate q-gram strings, many of them short enough for the
/// edit-distance short-record pool.
RecordSet QGramSet() {
  Rng rng(515);
  std::vector<std::string> texts;
  for (int i = 0; i < 110; ++i) {
    if (!texts.empty() && rng.Bernoulli(0.5)) {
      std::string base = texts[rng.UniformU32(texts.size())];
      int edits = rng.UniformInt(0, 3);
      for (int e = 0; e < edits && !base.empty(); ++e) {
        uint32_t pos = rng.UniformU32(static_cast<uint32_t>(base.size()));
        base[pos] = static_cast<char>('a' + rng.UniformU32(26));
      }
      texts.push_back(base);
    } else {
      texts.push_back(testing_util::RandomAsciiString(rng, 1, 22));
    }
  }
  TokenDictionary dict;
  CorpusBuilderOptions copts;
  copts.normalize = false;
  return BuildQGramCorpus(texts, /*q=*/3, &dict, copts);
}

TEST(ArenaEquivalence, GoldenOutputsAcrossAlgorithms) {
  GoldenRecorder recorder;
  const RecordSet dense_set = DenseSet();
  const RecordSet skewed_set = SkewedSet();

  RunSuite(&recorder, "dense", dense_set, OverlapPredicate(3.0),
           /*prefix_filter=*/true);
  RunSuite(&recorder, "dense", dense_set, JaccardPredicate(0.5),
           /*prefix_filter=*/true);
  RunSuite(&recorder, "dense", dense_set, CosinePredicate(0.5),
           /*prefix_filter=*/true);
  RunSuite(&recorder, "skewed", skewed_set, OverlapPredicate(4.0),
           /*prefix_filter=*/true);
  RunSuite(&recorder, "skewed", skewed_set, DicePredicate(0.6),
           /*prefix_filter=*/true);
  RunSuite(&recorder, "skewed", skewed_set,
           OverlapCoefficientPredicate(0.7),
           /*prefix_filter=*/false);
  RunSuite(&recorder, "skewed", skewed_set, HammingPredicate(4.0),
           /*prefix_filter=*/true);
}

TEST(ArenaEquivalence, GoldenOutputsEditDistance) {
  GoldenRecorder recorder;
  RunSuite(&recorder, "qgram", QGramSet(), EditDistancePredicate(2, 3),
           /*prefix_filter=*/false);
}

// Work goldens: the pair set plus every JoinStats counter of the joins
// that probe a record against an index and verify its candidates —
// Probe-Cluster, ClusterMem, PrefixFilter (serial and 4 threads) and the
// cross join. Equal pairs alone would not show
// that these paths still prune, merge and verify exactly as before;
// equal counters do.
//
// Regenerate with SSJOIN_PRINT_GOLDENS=1.

constexpr size_t kWorkCounters = 10;

struct WorkGolden {
  const char* label;
  uint64_t hash;
  // pairs, candidates_verified, index_postings, then MergeStats merges,
  // heap_pops, candidates, bitmap_checked, bitmap_pruned, lists_direct,
  // lists_merged.
  std::array<uint64_t, kWorkCounters> counters;
  uint64_t gallop_probes;
};

const WorkGolden kWorkGoldens[] = {
    {"work/dense/overlap/probe-cluster", 10388405375568447476ull,
     {4108, 4108, 1687, 1400, 12964, 5359, 0, 0, 2794, 4279}, 10809},
    {"work/dense/overlap/cluster-mem", 10388405375568447476ull,
     {4108, 4108, 410, 1586, 13479, 5545, 0, 0, 3166, 4767}, 10873},
    {"work/dense/overlap/prefix-filter", 10388405375568447476ull,
     {4108, 4108, 922, 0, 0, 0, 5470, 1362, 0, 0}, 0},
    {"work/dense/overlap/prefix-filter/t4", 10388405375568447476ull,
     {4108, 4108, 922, 0, 0, 0, 5470, 1362, 0, 0}, 0},
    {"work/dense/overlap/foreign", 1625824576597524418ull,
     {2069, 2069, 619, 75, 6117, 2069, 0, 0, 148, 449}, 5755},
    {"work/dense/jaccard/probe-cluster", 15267942115989793231ull,
     {100, 100, 1481, 242, 3287, 193, 0, 0, 1129, 601}, 3637},
    {"work/dense/jaccard/cluster-mem", 15267942115989793231ull,
     {100, 100, 482, 526, 3194, 477, 0, 0, 2151, 1010}, 4585},
    {"work/dense/jaccard/prefix-filter", 15267942115989793231ull,
     {100, 100, 720, 0, 0, 0, 3175, 3075, 0, 0}, 0},
    {"work/dense/jaccard/prefix-filter/t4", 15267942115989793231ull,
     {100, 100, 720, 0, 0, 0, 3175, 3075, 0, 0}, 0},
    {"work/dense/jaccard/foreign", 17818566169546503509ull,
     {36, 36, 619, 75, 5305, 36, 0, 0, 178, 419}, 1590},
    {"work/dense/cosine/probe-cluster", 14618095315970372102ull,
     {181, 181, 1683, 277, 2344, 309, 0, 0, 1274, 570}, 6099},
    {"work/dense/cosine/cluster-mem", 14618095315970372102ull,
     {181, 181, 481, 447, 2372, 479, 0, 0, 2028, 811}, 6330},
    {"work/dense/cosine/prefix-filter", 14618095315970372102ull,
     {181, 4386, 817, 0, 0, 0, 4823, 437, 0, 0}, 0},
    {"work/dense/cosine/prefix-filter/t4", 14618095315970372102ull,
     {181, 4386, 817, 0, 0, 0, 4823, 437, 0, 0}, 0},
    {"work/dense/cosine/foreign", 17353743904922788193ull,
     {80, 80, 619, 75, 4222, 80, 0, 0, 223, 374}, 4905},
    {"work/skewed/overlap/probe-cluster", 16066056405829026878ull,
     {2506, 2506, 1243, 883, 5575, 3230, 0, 0, 2631, 1706}, 10978},
    {"work/skewed/overlap/cluster-mem", 16066056405829026878ull,
     {2506, 2506, 356, 980, 5713, 3327, 0, 0, 2922, 1862}, 11302},
    {"work/skewed/overlap/prefix-filter", 16066056405829026878ull,
     {2506, 2546, 524, 0, 0, 0, 3393, 847, 0, 0}, 0},
    {"work/skewed/overlap/prefix-filter/t4", 16066056405829026878ull,
     {2506, 2546, 524, 0, 0, 0, 3393, 847, 0, 0}, 0},
    {"work/skewed/overlap/foreign", 12968886164391366775ull,
     {1217, 1217, 495, 80, 3221, 1217, 0, 0, 225, 244}, 9109},
    {"work/skewed/dice/probe-cluster", 15189134890236523082ull,
     {1211, 1211, 1266, 723, 5055, 1775, 0, 0, 2093, 1194}, 9880},
    {"work/skewed/dice/cluster-mem", 15189134890236523082ull,
     {1211, 1211, 333, 852, 5347, 1904, 0, 0, 2390, 1396}, 10248},
    {"work/skewed/dice/prefix-filter", 15189134890236523082ull,
     {1211, 1321, 652, 0, 0, 0, 5265, 3944, 0, 0}, 0},
    {"work/skewed/dice/prefix-filter/t4", 15189134890236523082ull,
     {1211, 1321, 652, 0, 0, 0, 5265, 3944, 0, 0}, 0},
    {"work/skewed/dice/foreign", 8841834680040183975ull,
     {573, 573, 495, 80, 5516, 573, 0, 0, 156, 313}, 5894},
    {"work/skewed/overlap-coefficient/probe-cluster", 14277149952392889830ull,
     {2378, 2378, 1305, 882, 4328, 3101, 0, 0, 2248, 1173}, 9593},
    {"work/skewed/overlap-coefficient/cluster-mem", 14277149952392889830ull,
     {2378, 2378, 336, 981, 4472, 3200, 0, 0, 2616, 1310}, 9679},
    {"work/skewed/overlap-coefficient/foreign", 10368379174138491742ull,
     {1143, 1143, 495, 80, 9533, 1143, 0, 0, 75, 394}, 3759},
    {"work/skewed/hamming/probe-cluster", 17022430018312793733ull,
     {1595, 1867, 1273, 892, 8323, 2249, 0, 0, 1532, 1397}, 8113},
    {"work/skewed/hamming/cluster-mem", 17022430018312793733ull,
     {1595, 1867, 383, 965, 7700, 2322, 0, 0, 1970, 1564}, 8288},
    {"work/skewed/hamming/prefix-filter", 17022430018312793733ull,
     {1595, 1886, 719, 0, 0, 0, 6296, 4761, 0, 0}, 0},
    {"work/skewed/hamming/prefix-filter/t4", 17022430018312793733ull,
     {1595, 1886, 719, 0, 0, 0, 6296, 4761, 0, 0}, 0},
    {"work/skewed/hamming/foreign", 9834587799572333019ull,
     {787, 923, 495, 80, 7783, 745, 0, 0, 120, 349}, 2809},
    {"work/qgram/edit-distance/probe-cluster", 2522082964145004146ull,
     {72, 224, 1838, 130, 525, 130, 0, 0, 435, 306}, 158},
    {"work/qgram/edit-distance/cluster-mem", 2522082964145004146ull,
     {72, 222, 1007, 196, 698, 194, 0, 0, 609, 462}, 155},
    {"work/qgram/edit-distance/foreign", 14831784346469832657ull,
     {34, 96, 803, 55, 220, 44, 0, 0, 159, 120}, 87},
};

std::array<uint64_t, kWorkCounters> WorkCounters(const JoinStats& s) {
  return {s.pairs,
          s.candidates_verified,
          s.index_postings,
          s.merge.merges,
          s.merge.heap_pops,
          s.merge.candidates,
          s.merge.bitmap_checked,
          s.merge.bitmap_pruned,
          s.merge.lists_direct,
          s.merge.lists_merged};
}

void CheckWork(const std::string& label, PairVector pairs,
               const JoinStats& stats) {
  std::sort(pairs.begin(), pairs.end());
  const uint64_t h = HashPairs(pairs);
  const std::array<uint64_t, kWorkCounters> counters = WorkCounters(stats);
  if (PrintGoldens()) {
    std::printf("    {\"%s\", %lluull, {", label.c_str(),
                static_cast<unsigned long long>(h));
    for (size_t i = 0; i < kWorkCounters; ++i) {
      std::printf("%s%llu", i == 0 ? "" : ", ",
                  static_cast<unsigned long long>(counters[i]));
    }
    std::printf("}, %llu},\n",
                static_cast<unsigned long long>(stats.merge.gallop_probes));
    return;
  }
  for (const WorkGolden& g : kWorkGoldens) {
    if (label != g.label) continue;
    EXPECT_EQ(h, g.hash) << label << ": pair set diverged (" << pairs.size()
                         << " pairs)";
    EXPECT_EQ(counters, g.counters) << label << ": join work diverged";
    EXPECT_EQ(stats.merge.gallop_probes, g.gallop_probes)
        << label << ": gallop probes diverged";
    return;
  }
  ADD_FAILURE() << "no work golden recorded for case: " << label;
}

void RunWorkSuite(const std::string& corpus_label, const RecordSet& base,
                  const Predicate& pred, bool prefix_filter) {
  const std::string prefix = "work/" + corpus_label + "/" + pred.name() + "/";
  auto run_join = [&](JoinAlgorithm algorithm, const std::string& name,
                      int threads) {
    JoinOptions options = BaseOptions();
    options.num_threads = threads;
    RecordSet working = base;
    PairVector pairs;
    Result<JoinStats> stats = RunJoin(
        &working, pred, algorithm, options,
        [&pairs](RecordId a, RecordId b) { pairs.emplace_back(a, b); });
    ASSERT_TRUE(stats.ok()) << name << ": " << stats.status().ToString();
    CheckWork(prefix + name, std::move(pairs), stats.value());
  };
  run_join(JoinAlgorithm::kProbeCluster, "probe-cluster", 1);
  run_join(JoinAlgorithm::kClusterMem, "cluster-mem", 1);
  if (prefix_filter) {
    run_join(JoinAlgorithm::kPrefixFilter, "prefix-filter", 1);
    run_join(JoinAlgorithm::kPrefixFilter, "prefix-filter/t4", 4);
  }

  // Cross join: the first half of the corpus probes an index over the
  // second half.
  {
    const RecordId half = static_cast<RecordId>(base.size() / 2);
    RecordSet left;
    RecordSet right;
    for (RecordId id = 0; id < base.size(); ++id) {
      (id < half ? left : right).Add(base.record(id), base.text(id));
    }
    PairVector pairs;
    Result<JoinStats> stats = ForeignProbeJoin(
        &left, &right, pred,
        [&pairs](RecordId a, RecordId b) { pairs.emplace_back(a, b); });
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    CheckWork(prefix + "foreign", std::move(pairs), stats.value());
  }
}

TEST(ArenaEquivalence, WorkGoldensAcrossProbeBodies) {
  const RecordSet dense_set = DenseSet();
  const RecordSet skewed_set = SkewedSet();
  RunWorkSuite("dense", dense_set, OverlapPredicate(3.0),
               /*prefix_filter=*/true);
  RunWorkSuite("dense", dense_set, JaccardPredicate(0.5),
               /*prefix_filter=*/true);
  RunWorkSuite("dense", dense_set, CosinePredicate(0.5),
               /*prefix_filter=*/true);
  RunWorkSuite("skewed", skewed_set, OverlapPredicate(4.0),
               /*prefix_filter=*/true);
  RunWorkSuite("skewed", skewed_set, DicePredicate(0.6),
               /*prefix_filter=*/true);
  RunWorkSuite("skewed", skewed_set, OverlapCoefficientPredicate(0.7),
               /*prefix_filter=*/false);
  RunWorkSuite("skewed", skewed_set, HammingPredicate(4.0),
               /*prefix_filter=*/true);
  RunWorkSuite("qgram", QGramSet(), EditDistancePredicate(2, 3),
               /*prefix_filter=*/false);
}

}  // namespace
}  // namespace ssjoin
