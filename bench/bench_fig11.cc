// Figure 11: ClusterMem under shrinking memory budgets. Three panels:
//
//   (a) citation data, several dataset sizes, fixed threshold;
//   (b) citation data, several thresholds, fixed size;
//   (c) address data, several dataset sizes, fixed threshold.
//
// Each series reports running time normalized to the full-memory run
// (index fraction 1.0), exactly as the paper's y-axis. Every fraction,
// full memory included, is timed in kRounds alternating rounds, and each
// cell is its median over the full-memory median, so one noisy
// denominator cannot move a whole column. Beside each ratio, the
// `postings` column is the run's JoinStats::index_postings: the larger
// of the phase-1 cluster-level index and the biggest phase-2 batch of
// member indexes. Paper shape: memory / 5 => time x ~1.5; memory / 50 =>
// time x <= ~2.5.
//
// Every run must find the full-memory run's pairs; the bench exits 1 on
// the first mismatch (ctest runs it small as bench_fig11_smoke).

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/overlap_predicate.h"

namespace {

using namespace ssjoin;
using namespace ssjoin::bench;

const double kFractions[] = {1.0, 0.5, 0.2, 0.1, 0.05, 0.02};
constexpr int kRounds = 3;

/// One point of a series: the normalized time and the index postings at
/// one fraction.
struct SeriesPoint {
  double ratio = 0;
  uint64_t index_postings = 0;
};

/// One series: a point per index-size fraction. Exits 1 when a run fails
/// or its sorted pairs differ from the first full-memory run's.
std::vector<SeriesPoint> Series(const RecordSet& corpus, double threshold) {
  OverlapPredicate pred(threshold);
  uint64_t full_index = corpus.total_token_occurrences();
  std::vector<std::vector<double>> times(std::size(kFractions));
  std::vector<SeriesPoint> points(std::size(kFractions));
  Pairs full_pairs;
  for (int round = 0; round < kRounds; ++round) {
    for (size_t f = 0; f < std::size(kFractions); ++f) {
      JoinOptions options;
      options.cluster_mem.memory_budget_postings = std::max<uint64_t>(
          1, static_cast<uint64_t>(kFractions[f] * full_index));
      options.cluster_mem.temp_dir = "/tmp";
      Pairs pairs;
      RunResult run = TimeJoin(corpus, pred, JoinAlgorithm::kClusterMem,
                               options, &pairs);
      if (!run.completed) {
        std::fprintf(stderr, "ClusterMem failed at index fraction %.2f\n",
                     kFractions[f]);
        std::exit(1);
      }
      times[f].push_back(run.seconds);
      points[f].index_postings = run.stats.index_postings;
      if (round == 0 && f == 0) {
        full_pairs = std::move(pairs);
        continue;
      }
      char name[48];
      std::snprintf(name, sizeof(name), "ClusterMem at %.2f",
                    kFractions[f]);
      ExitOnPairMismatch(&pairs, name, &full_pairs, "full memory",
                         corpus.size(), threshold);
    }
  }
  std::vector<double> medians;
  for (std::vector<double>& t : times) {
    std::sort(t.begin(), t.end());
    medians.push_back(t[kRounds / 2]);
  }
  double base = medians[0] > 0 ? medians[0] : 1e-9;
  for (size_t f = 0; f < points.size(); ++f) {
    points[f].ratio = medians[f] / base;
  }
  return points;
}

void PrintPanel(const char* title, const std::vector<std::string>& labels,
                const std::vector<std::vector<SeriesPoint>>& series) {
  std::printf("%s\n", title);
  std::vector<std::string> header = {"index_fraction"};
  for (const std::string& label : labels) {
    header.push_back(label);
    header.push_back(label + " postings");
  }
  PrintRow(header);
  for (size_t f = 0; f < std::size(kFractions); ++f) {
    std::vector<std::string> row;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", kFractions[f]);
    row.push_back(buf);
    for (const std::vector<SeriesPoint>& s : series) {
      std::snprintf(buf, sizeof(buf), "%.2f", s[f].ratio);
      row.push_back(buf);
      row.push_back(std::to_string(s[f].index_postings));
    }
    PrintRow(row);
  }
}

}  // namespace

int main(int argc, char** argv) {
  double scale = ParseScale(argc, argv);
  std::vector<uint32_t> citation_sizes = {Scaled(4000, scale),
                                          Scaled(8000, scale),
                                          Scaled(16000, scale)};
  std::vector<double> citation_thresholds = {9, 13, 17};
  std::vector<uint32_t> address_sizes = {Scaled(4000, scale),
                                         Scaled(8000, scale),
                                         Scaled(16000, scale)};

  std::vector<std::string> citation_texts = CitationTexts(
      citation_sizes.back());
  std::vector<std::string> address_texts = AddressTexts(address_sizes.back());

  {
    std::vector<std::string> labels;
    std::vector<std::vector<SeriesPoint>> series;
    for (uint32_t n : citation_sizes) {
      TokenDictionary dict;
      RecordSet corpus = WordCorpusPrefix(citation_texts, n, &dict);
      labels.push_back("Datasize=" + std::to_string(n));
      series.push_back(Series(corpus, 17));
    }
    PrintPanel("# Figure 11a: normalized time vs index-size fraction "
               "(citation, T=17)",
               labels, series);
  }
  {
    TokenDictionary dict;
    RecordSet corpus =
        WordCorpusPrefix(citation_texts, citation_sizes[1], &dict);
    std::vector<std::string> labels;
    std::vector<std::vector<SeriesPoint>> series;
    for (double t : citation_thresholds) {
      labels.push_back("T=" + std::to_string((int)t));
      series.push_back(Series(corpus, t));
    }
    std::printf("\n");
    PrintPanel("# Figure 11b: normalized time vs index-size fraction "
               "(citation, varying T)",
               labels, series);
  }
  {
    std::vector<std::string> labels;
    std::vector<std::vector<SeriesPoint>> series;
    for (uint32_t n : address_sizes) {
      TokenDictionary dict;
      RecordSet corpus = QGramCorpusPrefix(address_texts, n, &dict);
      labels.push_back("Datasize=" + std::to_string(n));
      series.push_back(Series(corpus, 40));
    }
    std::printf("\n");
    PrintPanel("# Figure 11c: normalized time vs index-size fraction "
               "(address, T=40)",
               labels, series);
  }
  return 0;
}
