// ssjoin_cli — run a similarity self-join or cross-join over text files
// from the command line. One record per line.
//
//   ssjoin_cli --input=records.txt --predicate=jaccard --threshold=0.8
//   ssjoin_cli --input=a.txt --right=b.txt --predicate=edit-distance
//              --threshold=2 --tokens=3gram
//   ssjoin_cli --input=records.txt --topk=20 --predicate=cosine

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cosine_predicate.h"
#include "core/dice_predicate.h"
#include "core/edit_distance_predicate.h"
#include "core/foreign_join.h"
#include "core/hamming_predicate.h"
#include "core/jaccard_predicate.h"
#include "core/join.h"
#include "core/overlap_coefficient_predicate.h"
#include "core/overlap_predicate.h"
#include "core/topk_join.h"
#include "data/corpus_builder.h"
#include "serve_common.h"
#include "text/token_dictionary.h"
#include "util/timer.h"

namespace {

using namespace ssjoin;
using namespace ssjoin::tools;

constexpr const char kUsage[] =
    "usage: ssjoin_cli --input=FILE [flags]\n"
    "  --input=FILE        left (or only) input file, one record per line\n"
    "  --right=FILE        optional right side: cross join instead of self\n"
    "  --predicate=NAME    overlap | jaccard | cosine | dice | hamming |\n"
    "                      overlap-coefficient | edit-distance\n"
    "  --threshold=X       predicate threshold (T, f or k); must be > 0,\n"
    "                      at most 1 for a fraction f, whole for k\n"
    "  --tokens=MODE       words (default) | 2gram | 3gram | 4gram\n"
    "  --algorithm=NAME    cluster (default) | optmerge | online | sort |\n"
    "                      probe | stopwords | paircount | wordgroups |\n"
    "                      clustermem | prefix\n"
    "  --threads=N         probe with N worker threads (default 1; output\n"
    "                      is identical to the serial join)\n"
    "  --memory=N          ClusterMem posting budget (implies clustermem)\n"
    "  --topk=K            rank the K most similar pairs instead of\n"
    "                      thresholding (predicate must be overlap,\n"
    "                      jaccard, cosine or dice; self-join only)\n"
    "  --show-text         print record texts instead of line numbers\n"
    "  --stats             print join statistics to stderr\n";

struct CliOptions {
  std::string input;
  std::string right;
  std::string predicate = "jaccard";
  double threshold = 0.8;
  std::string tokens = "words";
  std::string algorithm = "cluster";
  int threads = 1;
  uint64_t memory = 0;
  uint64_t topk = 0;
  bool show_text = false;
  bool show_stats = false;
};

bool KnownPredicate(const std::string& name) {
  return name == "overlap" || name == "jaccard" || name == "cosine" ||
         name == "dice" || name == "hamming" ||
         name == "overlap-coefficient" || name == "edit-distance";
}

bool KnownTokens(const std::string& mode) {
  return mode == "words" || mode == "2gram" || mode == "3gram" ||
         mode == "4gram";
}

std::optional<JoinAlgorithm> AlgorithmByName(const std::string& name) {
  if (name == "cluster") return JoinAlgorithm::kProbeCluster;
  if (name == "optmerge") return JoinAlgorithm::kProbeOptMerge;
  if (name == "online") return JoinAlgorithm::kProbeOnline;
  if (name == "sort") return JoinAlgorithm::kProbeSort;
  if (name == "probe") return JoinAlgorithm::kProbeCount;
  if (name == "stopwords") return JoinAlgorithm::kProbeStopwords;
  if (name == "paircount") return JoinAlgorithm::kPairCountOptMerge;
  if (name == "wordgroups") return JoinAlgorithm::kWordGroupsOptMerge;
  if (name == "clustermem") return JoinAlgorithm::kClusterMem;
  if (name == "prefix") return JoinAlgorithm::kPrefixFilter;
  return std::nullopt;
}

/// Parses and validates every flag before any file is opened. Returns
/// nullopt after printing a specific error; main adds the usage text.
std::optional<CliOptions> ParseArgs(int argc, char** argv) {
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--input", &value)) {
      options.input = value;
    } else if (ParseFlag(argv[i], "--right", &value)) {
      options.right = value;
    } else if (ParseFlag(argv[i], "--predicate", &value)) {
      options.predicate = value;
    } else if (ParseFlag(argv[i], "--threshold", &value)) {
      if (!ParseDouble(value, &options.threshold) ||
          options.threshold <= 0) {
        std::fprintf(stderr, "invalid --threshold=%s (need a number > 0)\n",
                     value.c_str());
        return std::nullopt;
      }
    } else if (ParseFlag(argv[i], "--tokens", &value)) {
      options.tokens = value;
    } else if (ParseFlag(argv[i], "--algorithm", &value)) {
      options.algorithm = value;
    } else if (ParseFlag(argv[i], "--threads", &value)) {
      uint64_t threads = 0;
      if (!ParseUint64(value, &threads) || threads == 0 ||
          threads > 1024) {
        std::fprintf(stderr, "invalid --threads=%s (need 1..1024)\n",
                     value.c_str());
        return std::nullopt;
      }
      options.threads = static_cast<int>(threads);
    } else if (ParseFlag(argv[i], "--memory", &value)) {
      if (!ParseUint64(value, &options.memory) || options.memory == 0) {
        std::fprintf(stderr, "invalid --memory=%s (need an integer > 0)\n",
                     value.c_str());
        return std::nullopt;
      }
      options.algorithm = "clustermem";
    } else if (ParseFlag(argv[i], "--topk", &value)) {
      if (!ParseUint64(value, &options.topk) || options.topk == 0) {
        std::fprintf(stderr, "invalid --topk=%s (need an integer > 0)\n",
                     value.c_str());
        return std::nullopt;
      }
    } else if (std::strcmp(argv[i], "--show-text") == 0) {
      options.show_text = true;
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      options.show_stats = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return std::nullopt;
    }
  }
  if (options.input.empty()) {
    std::fprintf(stderr, "--input=FILE is required\n");
    return std::nullopt;
  }
  if (!KnownPredicate(options.predicate)) {
    std::fprintf(stderr, "unknown predicate: %s\n",
                 options.predicate.c_str());
    return std::nullopt;
  }
  if (!ValidateThreshold(options.predicate, options.threshold)) {
    return std::nullopt;
  }
  if (!KnownTokens(options.tokens)) {
    std::fprintf(stderr, "unknown tokens mode: %s\n",
                 options.tokens.c_str());
    return std::nullopt;
  }
  if (!AlgorithmByName(options.algorithm).has_value()) {
    std::fprintf(stderr, "unknown algorithm: %s\n",
                 options.algorithm.c_str());
    return std::nullopt;
  }
  return options;
}

std::unique_ptr<Predicate> MakePredicate(const CliOptions& options, int q) {
  const std::string& name = options.predicate;
  double t = options.threshold;
  if (name == "overlap") return std::make_unique<OverlapPredicate>(t);
  if (name == "jaccard") return std::make_unique<JaccardPredicate>(t);
  if (name == "cosine") return std::make_unique<CosinePredicate>(t);
  if (name == "dice") return std::make_unique<DicePredicate>(t);
  if (name == "hamming") return std::make_unique<HammingPredicate>(t);
  if (name == "overlap-coefficient") {
    return std::make_unique<OverlapCoefficientPredicate>(t);
  }
  return std::make_unique<EditDistancePredicate>(static_cast<int>(t), q);
}

RecordSet BuildCorpus(const std::vector<std::string>& lines,
                      const std::string& mode, int* q_out,
                      TokenDictionary* dict) {
  if (mode == "2gram" || mode == "3gram" || mode == "4gram") {
    *q_out = mode[0] - '0';
    return BuildQGramCorpus(lines, *q_out, dict);
  }
  *q_out = 3;  // default q if edit-distance is used with word tokens
  return BuildWordCorpus(lines, dict);
}

void PrintPair(const CliOptions& options, const RecordSet& left,
               const RecordSet& right, RecordId a, RecordId b) {
  if (options.show_text) {
    std::printf("%s\t%s\n", left.text(a).c_str(), right.text(b).c_str());
  } else {
    std::printf("%u\t%u\n", a, b);
  }
}

void PrintStats(const CliOptions& options, const JoinStats& stats,
                double seconds) {
  if (!options.show_stats) return;
  std::fprintf(stderr,
               "pairs=%llu candidates=%llu heap_pops=%llu gallops=%llu "
               "index_postings=%llu time=%.3fs\n",
               static_cast<unsigned long long>(stats.pairs),
               static_cast<unsigned long long>(stats.candidates_verified),
               static_cast<unsigned long long>(stats.merge.heap_pops),
               static_cast<unsigned long long>(stats.merge.gallop_probes),
               static_cast<unsigned long long>(stats.index_postings),
               seconds);
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<CliOptions> options = ParseArgs(argc, argv);
  if (!options.has_value()) {
    std::fputs(kUsage, stderr);
    return 2;
  }

  std::optional<std::vector<std::string>> left_lines =
      ReadLines(options->input);
  if (!left_lines.has_value()) return 1;

  TokenDictionary dict;
  int q = 3;
  RecordSet left = BuildCorpus(*left_lines, options->tokens, &q, &dict);

  if (options->topk > 0) {
    if (!options->right.empty()) {
      std::fprintf(stderr, "--topk supports self-joins only\n");
      return 2;
    }
    TopKMetric metric;
    if (options->predicate == "overlap") {
      metric = TopKMetric::kOverlap;
    } else if (options->predicate == "jaccard") {
      metric = TopKMetric::kJaccard;
    } else if (options->predicate == "cosine") {
      metric = TopKMetric::kCosine;
    } else if (options->predicate == "dice") {
      metric = TopKMetric::kDice;
    } else {
      std::fprintf(stderr, "--topk needs overlap/jaccard/cosine/dice\n");
      return 2;
    }
    JoinStats stats;
    Timer timer;
    Result<std::vector<TopKMatch>> result =
        TopKJoin(&left, metric, options->topk, &stats);
    double seconds = timer.ElapsedSeconds();
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    for (const TopKMatch& match : result.value()) {
      std::printf("%.6f\t", match.score);
      PrintPair(*options, left, left, match.a, match.b);
    }
    PrintStats(*options, stats, seconds);
    return 0;
  }

  std::unique_ptr<Predicate> pred = MakePredicate(*options, q);

  if (!options->right.empty()) {
    std::optional<std::vector<std::string>> right_lines =
        ReadLines(options->right);
    if (!right_lines.has_value()) return 1;
    RecordSet right = BuildCorpus(*right_lines, options->tokens, &q, &dict);
    Timer timer;
    Result<JoinStats> stats = ForeignProbeJoin(
        &left, &right, *pred, {},
        [&](RecordId a, RecordId b) { PrintPair(*options, left, right, a, b); });
    if (!stats.ok()) {
      std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
      return 1;
    }
    PrintStats(*options, stats.value(), timer.ElapsedSeconds());
    return 0;
  }

  JoinAlgorithm algorithm = *AlgorithmByName(options->algorithm);
  JoinOptions join_options;
  join_options.num_threads = options->threads;
  join_options.cluster_mem.memory_budget_postings =
      options->memory > 0 ? options->memory : 100000;
  join_options.cluster_mem.temp_dir = "/tmp";

  Timer timer;
  Result<JoinStats> stats = RunJoin(
      &left, *pred, algorithm, join_options,
      [&](RecordId a, RecordId b) { PrintPair(*options, left, left, a, b); });
  if (!stats.ok()) {
    std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
    return 1;
  }
  PrintStats(*options, stats.value(), timer.ElapsedSeconds());
  return 0;
}
