#ifndef SSJOIN_BENCH_BENCH_UTIL_H_
#define SSJOIN_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/join.h"
#include "data/address_generator.h"
#include "data/citation_generator.h"
#include "data/corpus_builder.h"
#include "text/token_dictionary.h"
#include "util/timer.h"

namespace ssjoin {
namespace bench {

/// Raw texts for the two evaluation corpora. Generated once at the
/// largest size a bench needs; prefixes give smaller corpora with
/// identical records (the generators are sequential), matching how the
/// paper sweeps dataset size.
inline std::vector<std::string> CitationTexts(uint32_t max_records,
                                              uint64_t seed = 42) {
  CitationGeneratorOptions options;
  options.num_records = max_records;
  options.seed = seed;
  return CitationGenerator(options).Generate();
}

inline std::vector<std::string> AddressTexts(uint32_t max_records,
                                             uint64_t seed = 1234) {
  AddressGeneratorOptions options;
  options.num_records = max_records;
  options.seed = seed;
  return AddressGenerator(options).GenerateFullTexts();
}

/// The paper's "All-words" corpus over the first `n` texts.
inline RecordSet WordCorpusPrefix(const std::vector<std::string>& texts,
                                  size_t n, TokenDictionary* dict) {
  std::vector<std::string> slice(texts.begin(),
                                 texts.begin() + std::min(n, texts.size()));
  return BuildWordCorpus(slice, dict);
}

/// The paper's "All-3grams" corpus over the first `n` texts.
inline RecordSet QGramCorpusPrefix(const std::vector<std::string>& texts,
                                   size_t n, TokenDictionary* dict) {
  std::vector<std::string> slice(texts.begin(),
                                 texts.begin() + std::min(n, texts.size()));
  return BuildQGramCorpus(slice, 3, dict);
}

using Pairs = std::vector<std::pair<RecordId, RecordId>>;

struct RunResult {
  bool completed = false;  // false: aborted (e.g. Pair-Count memory blowup)
  double seconds = 0;
  uint64_t pairs = 0;
  JoinStats stats;
};

/// Copies the corpus (outside the timed region), runs the join and times
/// it end to end (Prepare + algorithm), like the paper's wall-clock
/// measurements. When `pairs` is given, the emitted pairs land there in
/// emission order.
inline RunResult TimeJoin(
    const RecordSet& base, const Predicate& pred, JoinAlgorithm algorithm,
    JoinOptions options = {}, Pairs* pairs = nullptr) {
  RecordSet working = base;
  RunResult result;
  Timer timer;
  Result<JoinStats> stats =
      RunJoin(&working, pred, algorithm, options,
              [&result, pairs](RecordId a, RecordId b) {
                ++result.pairs;
                if (pairs != nullptr) pairs->emplace_back(a, b);
              });
  result.seconds = timer.ElapsedSeconds();
  if (!stats.ok()) return result;  // completed stays false
  result.completed = true;
  result.stats = stats.value();
  return result;
}

/// Exits 1 unless `pairs` holds the same pairs as `reference` (both are
/// sorted in place): the benches' guard that an algorithm's answer did not
/// drift from a reference algorithm's on a `records`-record corpus.
inline void ExitOnPairMismatch(Pairs* pairs, const char* name,
                               Pairs* reference, const char* reference_name,
                               size_t records, double threshold) {
  std::sort(pairs->begin(), pairs->end());
  std::sort(reference->begin(), reference->end());
  if (*pairs == *reference) return;
  std::fprintf(stderr,
               "pair mismatch: %s found %zu pairs, %s %zu (%zu records, "
               "threshold %g)\n",
               name, pairs->size(), reference_name, reference->size(),
               records, threshold);
  std::exit(1);
}

/// Formats a run for a series cell: seconds, or "dnf" for aborted runs
/// (the paper plots these algorithms as missing points).
inline std::string Cell(const RunResult& result) {
  if (!result.completed) return "dnf";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", result.seconds);
  return buf;
}

/// --scale=<float> multiplies every dataset size in a bench; --quick
/// is shorthand for --scale=0.25.
inline double ParseScale(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      double scale = std::atof(argv[i] + 8);
      if (scale > 0) return scale;
    }
    if (std::strcmp(argv[i], "--quick") == 0) return 0.25;
  }
  return 1.0;
}

inline uint32_t Scaled(uint32_t n, double scale) {
  return static_cast<uint32_t>(std::max(1.0, n * scale));
}

/// --threads=<N> sets JoinOptions::num_threads for benches that support
/// parallel probing (default 1 = serial, matching the paper's setup).
inline int ParseThreads(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      int threads = std::atoi(argv[i] + 10);
      if (threads >= 1) return threads;
      std::fprintf(stderr, "ignoring invalid %s\n", argv[i]);
    }
  }
  return 1;
}

/// Prints a CSV header + rows helper.
inline void PrintRow(const std::vector<std::string>& cells) {
  for (size_t i = 0; i < cells.size(); ++i) {
    std::printf("%s%s", i ? "," : "", cells[i].c_str());
  }
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace bench
}  // namespace ssjoin

#endif  // SSJOIN_BENCH_BENCH_UTIL_H_
