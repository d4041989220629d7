// Extension benchmarks (beyond the paper's figures):
//
//   (a) prefix filtering (AllPairs-style) vs the paper's MergeOpt ladder
//       on a Jaccard join — the successor idea against the original;
//   (b) Word-Groups miners: level-wise Apriori vs depth-first vertical
//       (the FP-growth stand-in), each under a 20 s mining deadline;
//   (c) top-k join scaling in k.
//
// PrefixFilter and Cluster must find ProbeCount-sort's pairs at every
// threshold of (a), and the depth-first miner Apriori's at every
// threshold of (b); the bench exits 1 on the first mismatch (ctest runs
// it small as bench_extensions_smoke).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/jaccard_predicate.h"
#include "core/overlap_predicate.h"
#include "core/topk_join.h"
#include "util/timer.h"

namespace {

using namespace ssjoin;
using namespace ssjoin::bench;

void PrefixVsMergeOpt(double scale) {
  uint32_t n = Scaled(15000, scale);
  std::vector<std::string> texts = CitationTexts(n);
  TokenDictionary dict;
  RecordSet corpus = WordCorpusPrefix(texts, n, &dict);

  std::printf("# Extension (a): prefix filter vs the MergeOpt ladder, "
              "Jaccard join, %u citations\n",
              n);
  PrintRow({"jaccard_f", "ProbeCount-sort", "Cluster", "PrefixFilter",
            "prefix_index_postings", "pairs"});
  for (double f : {0.5, 0.6, 0.7, 0.8, 0.9}) {
    JaccardPredicate pred(f);
    Pairs sort_pairs, cluster_pairs, prefix_pairs;
    RunResult sort =
        TimeJoin(corpus, pred, JoinAlgorithm::kProbeSort, {}, &sort_pairs);
    RunResult cluster = TimeJoin(corpus, pred, JoinAlgorithm::kProbeCluster,
                                 {}, &cluster_pairs);
    RunResult prefix = TimeJoin(corpus, pred, JoinAlgorithm::kPrefixFilter,
                                {}, &prefix_pairs);
    ExitOnPairMismatch(&cluster_pairs, "Cluster", &sort_pairs,
                       "ProbeCount-sort", n, f);
    ExitOnPairMismatch(&prefix_pairs, "PrefixFilter", &sort_pairs,
                       "ProbeCount-sort", n, f);
    char f_buf[16], postings[32], pairs[32];
    std::snprintf(f_buf, sizeof(f_buf), "%.1f", f);
    std::snprintf(postings, sizeof(postings), "%llu",
                  static_cast<unsigned long long>(
                      prefix.stats.index_postings));
    std::snprintf(pairs, sizeof(pairs), "%llu",
                  static_cast<unsigned long long>(prefix.pairs));
    PrintRow({f_buf, Cell(sort), Cell(cluster), Cell(prefix), postings,
              pairs});
  }
}

/// A miner cell: the join's seconds, or ">=N s deadline" when the join ran
/// at least its N-second mining deadline. From there on the time valve
/// flushes every open itemset for verification, so the time measures the
/// valve and the flush, not how long the miner needs.
std::string MinerCell(const RunResult& result, double deadline_seconds) {
  if (!result.completed || result.seconds < deadline_seconds) {
    return Cell(result);
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), ">=%g s deadline", deadline_seconds);
  return buf;
}

void MinerComparison(double scale) {
  uint32_t n = Scaled(3000, scale);
  std::vector<std::string> texts = CitationTexts(n);
  TokenDictionary dict;
  RecordSet corpus = WordCorpusPrefix(texts, n, &dict);

  // Paper, Section 2.4: "An FP-growth based implementation took much less
  // memory but did not complete in two hours". The DFS miner shares no
  // work across siblings while holding only one root-to-leaf chain in
  // memory. A deadline bounds each cell; a cell that reaches it is marked
  // as such, not timed.
  const double deadline_seconds = 20;
  std::printf("\n# Extension (b): Word-Groups miners, %u citations\n", n);
  PrintRow({"threshold", "apriori_seconds", "dfs_seconds", "pairs"});
  for (double t : {9, 13, 17}) {
    OverlapPredicate pred(t);
    JoinOptions apriori_options;
    apriori_options.word_groups.miner = WordGroupsMiner::kApriori;
    apriori_options.word_groups.apriori.deadline_seconds = deadline_seconds;
    JoinOptions dfs_options;
    dfs_options.word_groups.miner = WordGroupsMiner::kDepthFirst;
    dfs_options.word_groups.apriori.deadline_seconds = deadline_seconds;
    Pairs apriori_pairs, dfs_pairs;
    RunResult apriori = TimeJoin(corpus, pred,
                                 JoinAlgorithm::kWordGroupsOptMerge,
                                 apriori_options, &apriori_pairs);
    RunResult dfs = TimeJoin(corpus, pred,
                             JoinAlgorithm::kWordGroupsOptMerge,
                             dfs_options, &dfs_pairs);
    ExitOnPairMismatch(&dfs_pairs, "DFS miner", &apriori_pairs, "Apriori", n,
                       t);
    char pairs[32];
    std::snprintf(pairs, sizeof(pairs), "%llu",
                  static_cast<unsigned long long>(dfs.pairs));
    PrintRow({std::to_string((int)t), MinerCell(apriori, deadline_seconds),
              MinerCell(dfs, deadline_seconds), pairs});
  }
}

void TopKScaling(double scale) {
  uint32_t n = Scaled(15000, scale);
  std::vector<std::string> texts = CitationTexts(n);
  TokenDictionary dict;
  RecordSet base = WordCorpusPrefix(texts, n, &dict);

  std::printf("\n# Extension (c): top-k Jaccard join scaling in k, "
              "%u citations\n",
              n);
  PrintRow({"k", "seconds", "kth_score"});
  for (size_t k : {1u, 10u, 100u, 1000u, 10000u}) {
    RecordSet working = base;
    JoinStats stats;
    Timer timer;
    Result<std::vector<TopKMatch>> result =
        TopKJoin(&working, TopKMetric::kJaccard, k, &stats);
    double seconds = timer.ElapsedSeconds();
    if (!result.ok()) continue;
    char secs[32], kth[32];
    std::snprintf(secs, sizeof(secs), "%.3f", seconds);
    std::snprintf(kth, sizeof(kth), "%.4f",
                  result.value().empty() ? 0.0
                                         : result.value().back().score);
    PrintRow({std::to_string(k), secs, kth});
  }
}

}  // namespace

int main(int argc, char** argv) {
  double scale = ParseScale(argc, argv);
  PrefixVsMergeOpt(scale);
  MinerComparison(scale);
  TopKScaling(scale);
  return 0;
}
