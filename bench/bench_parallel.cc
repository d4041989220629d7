// Parallel probe scaling: serial vs multi-threaded wall clock for the
// probe-family and prefix-filter joins on the citation corpus. Not a
// paper figure (the paper's experiments are single-threaded); this
// validates that ParallelProbeDriver turns cores into speedup while the
// output stays identical to serial: every run's sorted pair list, its
// verification count and its merge counters must equal the run at the
// first thread count, or the bench exits 1. (Both predicates score a
// token the same in every record, so even the online variants' merge
// counters must match.)
//
//   bench_parallel [--scale=X] [--threads=N ...]
//
// With no --threads flags, measures 1, 2, 4 and the hardware default.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/jaccard_predicate.h"
#include "core/overlap_predicate.h"
#include "util/thread_pool.h"

namespace {

using namespace ssjoin;
using namespace ssjoin::bench;

/// One timed run plus its sorted pairs, for the identity check.
struct PairRun {
  RunResult result;
  std::vector<std::pair<RecordId, RecordId>> pairs;
};

PairRun TimePairs(const RecordSet& base, const Predicate& pred,
                  JoinAlgorithm algorithm, int threads) {
  JoinOptions options;
  options.num_threads = threads;
  PairRun run;
  run.result = TimeJoin(base, pred, algorithm, options, &run.pairs);
  std::sort(run.pairs.begin(), run.pairs.end());
  return run;
}

/// The counters a parallel run must reproduce exactly.
std::vector<std::pair<const char*, uint64_t>> CheckedCounters(
    const JoinStats& s) {
  return {{"candidates_verified", s.candidates_verified},
          {"merges", s.merge.merges},
          {"heap_pops", s.merge.heap_pops},
          {"gallop_probes", s.merge.gallop_probes},
          {"candidates", s.merge.candidates},
          {"bitmap_checked", s.merge.bitmap_checked},
          {"bitmap_pruned", s.merge.bitmap_pruned},
          {"lists_direct", s.merge.lists_direct},
          {"lists_merged", s.merge.lists_merged}};
}

/// Prints every difference between `run` and the reference run and
/// returns whether there was any.
bool ReportMismatch(const char* label, const Predicate& pred, int threads,
                    const PairRun& run, const PairRun& reference) {
  bool mismatch = false;
  if (run.pairs != reference.pairs) {
    std::fprintf(stderr,
                 "MISMATCH: %s/%s at %d threads emitted a different pair "
                 "list (%zu pairs, reference %zu)\n",
                 label, pred.name().c_str(), threads, run.pairs.size(),
                 reference.pairs.size());
    mismatch = true;
  }
  const auto counters = CheckedCounters(run.result.stats);
  const auto expected = CheckedCounters(reference.result.stats);
  for (size_t i = 0; i < counters.size(); ++i) {
    if (counters[i].second == expected[i].second) continue;
    std::fprintf(stderr, "MISMATCH: %s/%s at %d threads: %s %llu, "
                 "reference %llu\n",
                 label, pred.name().c_str(), threads, counters[i].first,
                 static_cast<unsigned long long>(counters[i].second),
                 static_cast<unsigned long long>(expected[i].second));
    mismatch = true;
  }
  return mismatch;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = ParseScale(argc, argv);
  std::vector<int> thread_counts;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      int threads = std::atoi(argv[i] + 10);
      if (threads >= 1) thread_counts.push_back(threads);
    }
  }
  if (thread_counts.empty()) {
    thread_counts = {1, 2, 4};
    int hw = ThreadPool::DefaultNumThreads();
    if (std::find(thread_counts.begin(), thread_counts.end(), hw) ==
        thread_counts.end()) {
      thread_counts.push_back(hw);
    }
  }

  uint32_t n = Scaled(12000, scale);
  std::vector<std::string> texts = CitationTexts(n);
  TokenDictionary dict;
  RecordSet corpus = WordCorpusPrefix(texts, n, &dict);

  struct Case {
    const char* label;
    JoinAlgorithm algorithm;
  };
  const Case cases[] = {
      {"Probe-optMerge", JoinAlgorithm::kProbeOptMerge},
      {"Probe", JoinAlgorithm::kProbeCount},
      {"ProbeCount-online", JoinAlgorithm::kProbeOnline},
      {"ProbeCount-sort", JoinAlgorithm::kProbeSort},
      {"PrefixFilter", JoinAlgorithm::kPrefixFilter},
  };

  std::printf("# Parallel probe scaling, %u records (citation All-words), "
              "overlap T=9 / jaccard f=0.6\n",
              n);
  PrintRow({"algorithm", "predicate", "threads", "seconds", "speedup",
            "pairs"});
  bool mismatch = false;
  for (const Case& c : cases) {
    OverlapPredicate overlap(9);
    JaccardPredicate jaccard(0.6);
    const Predicate* predicates[] = {
        static_cast<const Predicate*>(&overlap),
        static_cast<const Predicate*>(&jaccard)};
    for (const Predicate* pred : predicates) {
      PairRun reference;
      for (int threads : thread_counts) {
        PairRun run = TimePairs(corpus, *pred, c.algorithm, threads);
        if (!run.result.completed) {
          PrintRow({c.label, pred->name(), std::to_string(threads), "dnf",
                    "-", "-"});
          continue;
        }
        if (threads == thread_counts.front()) {
          reference = run;
        } else if (ReportMismatch(c.label, *pred, threads, run, reference)) {
          mismatch = true;
        }
        char seconds_buf[32], speedup_buf[32];
        std::snprintf(seconds_buf, sizeof(seconds_buf), "%.3f",
                      run.result.seconds);
        std::snprintf(speedup_buf, sizeof(speedup_buf), "%.2fx",
                      reference.result.seconds /
                          std::max(run.result.seconds, 1e-9));
        PrintRow({c.label, pred->name(), std::to_string(threads),
                  seconds_buf, speedup_buf, std::to_string(run.pairs.size())});
      }
    }
  }
  return mismatch ? 1 : 0;
}
