// Ablations over the design choices DESIGN.md calls out:
//
//   (a) band-partition strategies (Section 5.3): Simple vs Greedy vs
//       Optimal partition cost and end-to-end edit-distance join time,
//       vs the default inline filter;
//   (b) stopword budget sweep for Probe-stopWords;
//   (c) Probe-Cluster assignment-similarity knob (cluster count vs time);
//   (d) posting-list compression ratio on both corpora (the Section 4
//       "orthogonal IR compression" headroom).
//
// Each row of (a)-(c) compares exact joins, so its columns must find the
// same pairs: every band strategy the inline filter's, Probe-stopWords
// and Probe-optMerge Probe's, and every assignment threshold the first
// one's. The bench exits 1 on the first row that differs (ctest runs it
// small as bench_ablation_smoke).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/band_partition.h"
#include "core/edit_distance_predicate.h"
#include "core/overlap_predicate.h"
#include "index/compressed_postings.h"
#include "util/timer.h"

namespace {

using namespace ssjoin;
using namespace ssjoin::bench;

void BandPartitionAblation(double scale) {
  uint32_t n = Scaled(3000, scale);
  std::vector<std::string> texts = AddressTexts(n);
  TokenDictionary dict;
  RecordSet base = QGramCorpusPrefix(texts, n, &dict);
  const int k = 2;
  EditDistancePredicate pred(k, 3);

  std::printf("# Ablation (a): Section 5.3 filter evaluation strategies, "
              "edit distance <= %d, %u addresses\n",
              k, n);
  PrintRow({"strategy", "partitions", "partition_cost", "seconds", "pairs"});

  Pairs inline_pairs;
  {
    RunResult inline_run = TimeJoin(base, pred, JoinAlgorithm::kProbeCluster,
                                    {}, &inline_pairs);
    char secs[32], pairs[32];
    std::snprintf(secs, sizeof(secs), "%.3f", inline_run.seconds);
    std::snprintf(pairs, sizeof(pairs), "%llu",
                  static_cast<unsigned long long>(inline_run.pairs));
    PrintRow({"inline-filter", "1", "-", secs, pairs});
  }
  for (BandStrategy strategy : {BandStrategy::kSimple, BandStrategy::kGreedy,
                                BandStrategy::kOptimal}) {
    const char* name = strategy == BandStrategy::kSimple   ? "simple"
                       : strategy == BandStrategy::kGreedy ? "greedy"
                                                           : "optimal";
    RecordSet working = base;
    pred.Prepare(&working);
    // Partition cost (the DP objective).
    auto partitions = BandPartitionByNorm(working, k, strategy);
    uint64_t cost = 0;
    for (const auto& p : partitions) cost += p.size() * p.size();

    RecordSet timed = base;
    Pairs band_pairs;
    Timer timer;
    Result<JoinStats> stats = BandPartitionedJoin(
        &timed, pred, k, strategy, [&band_pairs](RecordId a, RecordId b) {
          band_pairs.emplace_back(a, b);
        });
    double seconds = timer.ElapsedSeconds();
    if (!stats.ok()) {
      std::fprintf(stderr, "%s band join failed: %s\n", name,
                   stats.status().ToString().c_str());
      std::exit(1);
    }
    char cost_buf[32], secs[32], pairs[32];
    std::snprintf(cost_buf, sizeof(cost_buf), "%llu",
                  static_cast<unsigned long long>(cost));
    std::snprintf(secs, sizeof(secs), "%.3f", seconds);
    std::snprintf(pairs, sizeof(pairs), "%zu", band_pairs.size());
    PrintRow({name, std::to_string(partitions.size()), cost_buf, secs,
              pairs});
    ExitOnPairMismatch(&band_pairs, name, &inline_pairs, "inline-filter", n,
                       k);
  }
}

void StopwordAblation(double scale) {
  uint32_t n = Scaled(6000, scale);
  std::vector<std::string> texts = CitationTexts(n);
  TokenDictionary dict;
  RecordSet corpus = WordCorpusPrefix(texts, n, &dict);

  std::printf("\n# Ablation (b): Probe vs Probe-stopWords vs Probe-optMerge "
              "across thresholds, %u citations\n",
              n);
  PrintRow({"threshold", "Probe", "Probe-stopWords", "Probe-optMerge",
            "pairs"});
  for (double t : {9, 13, 17, 21}) {
    OverlapPredicate pred(t);
    Pairs plain_pairs, stop_pairs, opt_pairs;
    RunResult plain = TimeJoin(corpus, pred, JoinAlgorithm::kProbeCount, {},
                               &plain_pairs);
    RunResult stop = TimeJoin(corpus, pred, JoinAlgorithm::kProbeStopwords,
                              {}, &stop_pairs);
    RunResult opt = TimeJoin(corpus, pred, JoinAlgorithm::kProbeOptMerge, {},
                             &opt_pairs);
    char pairs[32];
    std::snprintf(pairs, sizeof(pairs), "%llu",
                  static_cast<unsigned long long>(opt.pairs));
    PrintRow({std::to_string((int)t), Cell(plain), Cell(stop), Cell(opt),
              pairs});
    ExitOnPairMismatch(&stop_pairs, "Probe-stopWords", &plain_pairs, "Probe",
                       n, t);
    ExitOnPairMismatch(&opt_pairs, "Probe-optMerge", &plain_pairs, "Probe", n,
                       t);
  }
}

void ClusterKnobAblation(double scale) {
  uint32_t n = Scaled(10000, scale);
  std::vector<std::string> texts = CitationTexts(n);
  TokenDictionary dict;
  RecordSet corpus = WordCorpusPrefix(texts, n, &dict);
  OverlapPredicate pred(17);

  std::printf("\n# Ablation (c): Probe-Cluster assignment-similarity "
              "threshold, %u citations, T=17\n",
              n);
  PrintRow({"assign_similarity", "seconds", "index_postings", "pairs"});
  const double kSimilarities[] = {0.1, 0.3, 0.5, 0.7, 0.9};
  Pairs first_pairs;
  for (double sim : kSimilarities) {
    JoinOptions options;
    options.cluster.assign_similarity_threshold = sim;
    Pairs sim_pairs;
    RunResult r = TimeJoin(corpus, pred, JoinAlgorithm::kProbeCluster,
                           options, &sim_pairs);
    char sim_buf[32], postings[32], pairs[32];
    std::snprintf(sim_buf, sizeof(sim_buf), "%.1f", sim);
    std::snprintf(postings, sizeof(postings), "%llu",
                  static_cast<unsigned long long>(r.stats.index_postings));
    std::snprintf(pairs, sizeof(pairs), "%llu",
                  static_cast<unsigned long long>(r.pairs));
    PrintRow({sim_buf, Cell(r), postings, pairs});
    if (sim == kSimilarities[0]) first_pairs = sim_pairs;
    const std::string name = std::string("assign_similarity=") + sim_buf;
    ExitOnPairMismatch(&sim_pairs, name.c_str(), &first_pairs,
                       "assign_similarity=0.1", n, pred.threshold());
  }
}

void CompressionAblation(double scale) {
  std::printf("\n# Ablation (d): varint-delta posting compression "
              "(Section 4's orthogonal IR-compression headroom)\n");
  PrintRow({"corpus", "postings", "raw_bytes", "compressed_bytes", "ratio"});
  auto report = [](const char* name, const RecordSet& corpus) {
    InvertedIndex index;
    index.PlanFromRecords(corpus);
    for (RecordId id = 0; id < corpus.size(); ++id) {
      index.Insert(id, corpus.record(id));
    }
    IndexCompressionStats stats = CompressIndex(index);
    char postings[32], raw[32], compressed[32], ratio[32];
    std::snprintf(postings, sizeof(postings), "%llu",
                  static_cast<unsigned long long>(stats.total_postings));
    std::snprintf(raw, sizeof(raw), "%llu",
                  static_cast<unsigned long long>(stats.uncompressed_bytes));
    std::snprintf(compressed, sizeof(compressed), "%llu",
                  static_cast<unsigned long long>(stats.compressed_bytes));
    std::snprintf(ratio, sizeof(ratio), "%.3f", stats.ratio());
    PrintRow({name, postings, raw, compressed, ratio});
  };
  {
    uint32_t n = Scaled(10000, scale);
    std::vector<std::string> texts = CitationTexts(n);
    TokenDictionary dict;
    report("citation-words", WordCorpusPrefix(texts, n, &dict));
  }
  {
    uint32_t n = Scaled(10000, scale);
    std::vector<std::string> texts = AddressTexts(n);
    TokenDictionary dict;
    report("address-3grams", QGramCorpusPrefix(texts, n, &dict));
  }
}

}  // namespace

int main(int argc, char** argv) {
  double scale = ParseScale(argc, argv);
  BandPartitionAblation(scale);
  StopwordAblation(scale);
  ClusterKnobAblation(scale);
  CompressionAblation(scale);
  return 0;
}
