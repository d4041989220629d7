// Figures 7 & 9: the cumulative Probe-Count optimization ladder on
// citation words — optMerge -> online -> sort -> Cluster.
//
//   Fig 7: running time vs dataset size (averaged over thresholds).
//   Fig 9: running time vs threshold at fixed size (log axis in the
//          paper; we print raw seconds).
//
// Paper shape: online is 2-3x faster than optMerge, sort up to another
// 2x, and clustering helps most on the duplicate-heavy citation data;
// the full ladder is ~2 orders of magnitude below the original Probe.
//
// Every rung must find ProbeCount-sort's pairs at every size and
// threshold; the bench exits 1 on the first mismatch (ctest runs it small
// as bench_fig7_9_smoke).

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/overlap_predicate.h"

namespace {

using namespace ssjoin;
using namespace ssjoin::bench;

const JoinAlgorithm kLadder[] = {
    JoinAlgorithm::kProbeOptMerge,
    JoinAlgorithm::kProbeOnline,
    JoinAlgorithm::kProbeSort,
    JoinAlgorithm::kProbeCluster,
};

using Pairs = std::vector<std::pair<RecordId, RecordId>>;

/// Runs every ladder rung on `corpus` under `pred`, returning their times
/// in kLadder order, or exits 1 when a rung's sorted pairs differ from
/// ProbeCount-sort's.
std::vector<RunResult> RunLadder(const RecordSet& corpus,
                                 const OverlapPredicate& pred) {
  std::vector<RunResult> runs;
  std::vector<Pairs> pairs(std::size(kLadder));
  for (size_t i = 0; i < std::size(kLadder); ++i) {
    runs.push_back(TimeJoin(corpus, pred, kLadder[i], {}, &pairs[i]));
    std::sort(pairs[i].begin(), pairs[i].end());
  }
  const size_t sort =
      std::find(std::begin(kLadder), std::end(kLadder),
                JoinAlgorithm::kProbeSort) -
      std::begin(kLadder);
  for (size_t i = 0; i < std::size(kLadder); ++i) {
    if (pairs[i] != pairs[sort]) {
      std::fprintf(stderr,
                   "pair mismatch: %s found %zu pairs, ProbeCount-sort %zu "
                   "(%zu records, T=%g)\n",
                   JoinAlgorithmName(kLadder[i]), pairs[i].size(),
                   pairs[sort].size(), corpus.size(), pred.threshold());
      std::exit(1);
    }
  }
  return runs;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = ParseScale(argc, argv);
  std::vector<uint32_t> sizes;
  for (uint32_t n : {5000, 10000, 20000, 30000}) {
    sizes.push_back(Scaled(n, scale));
  }
  std::vector<double> thresholds = {9, 13, 17, 21};
  uint32_t fixed_size = Scaled(10000, scale);

  std::vector<std::string> texts = CitationTexts(sizes.back());

  std::printf("# Figure 7: running time (s) vs dataset size, averaged over "
              "thresholds {9,13,17,21} (citation All-words)\n");
  PrintRow({"records", "ProbeCount-optMerge", "ProbeCount-online",
            "ProbeCount-sort", "Cluster"});
  for (uint32_t n : sizes) {
    TokenDictionary dict;
    RecordSet corpus = WordCorpusPrefix(texts, n, &dict);
    std::vector<double> total(std::size(kLadder), 0);
    for (double t : thresholds) {
      std::vector<RunResult> runs = RunLadder(corpus, OverlapPredicate(t));
      for (size_t i = 0; i < runs.size(); ++i) total[i] += runs[i].seconds;
    }
    std::vector<std::string> row = {std::to_string(n)};
    for (double seconds : total) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.3f", seconds / thresholds.size());
      row.push_back(buf);
    }
    PrintRow(row);
  }

  std::printf("\n# Figure 9: running time (s) vs threshold, %u records "
              "(citation All-words; paper plots log scale)\n",
              fixed_size);
  PrintRow({"threshold", "ProbeCount-optMerge", "ProbeCount-online",
            "ProbeCount-sort", "Cluster"});
  {
    TokenDictionary dict;
    RecordSet corpus = WordCorpusPrefix(texts, fixed_size, &dict);
    for (double t : thresholds) {
      std::vector<std::string> row = {std::to_string((int)t)};
      for (const RunResult& run : RunLadder(corpus, OverlapPredicate(t))) {
        row.push_back(Cell(run));
      }
      PrintRow(row);
    }
  }
  return 0;
}
