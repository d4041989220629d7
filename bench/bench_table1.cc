// Table 1: similarity functions with the average set size and the number
// of distinct elements, for the four corpus/tokenization combinations the
// paper evaluates (citation All-words / All-3grams, address All-3grams /
// Name-3grams), plus what building each corpus from its text costs
// (microseconds per record, median of 3 builds, each into a fresh
// dictionary).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "data/corpus_stats.h"

namespace {

using namespace ssjoin;
using namespace ssjoin::bench;

constexpr int kBuilds = 3;

/// Builds `texts` as words (q == 0) or 3-grams kBuilds times and reports
/// the corpus's shape with the median build time per record.
void Report(const char* function, const std::vector<std::string>& texts,
            int q) {
  std::vector<double> seconds;
  RecordSet records;
  for (int i = 0; i < kBuilds; ++i) {
    TokenDictionary dict;
    Timer timer;
    records = q == 0 ? BuildWordCorpus(texts, &dict)
                     : BuildQGramCorpus(texts, q, &dict);
    seconds.push_back(timer.ElapsedSeconds());
  }
  std::sort(seconds.begin(), seconds.end());
  const double build_us =
      texts.empty() ? 0 : seconds[kBuilds / 2] * 1e6 / texts.size();
  CorpusStats stats = ComputeCorpusStats(records);
  std::printf("%-24s %16.0f %20llu %18.2f\n", function,
              stats.average_set_size,
              static_cast<unsigned long long>(stats.num_distinct_elements),
              build_us);
}

}  // namespace

int main(int argc, char** argv) {
  double scale = ParseScale(argc, argv);
  uint32_t citation_n = Scaled(20000, scale);
  uint32_t address_n = Scaled(40000, scale);

  std::printf("Table 1: similarity functions (scaled: %u citations, "
              "%u addresses; paper used 250k / 500k)\n\n",
              citation_n, address_n);
  std::printf("%-24s %16s %20s %18s\n", "Function", "Average set size",
              "Number of elements", "Build us/record");

  std::vector<std::string> citations = CitationTexts(citation_n);
  Report("Citation All-words", citations, 0);
  Report("Citation All-3grams", citations, 3);

  AddressGeneratorOptions address_options;
  address_options.num_records = address_n;
  std::vector<AddressRecord> addresses =
      AddressGenerator(address_options).Generate();
  std::vector<std::string> full;
  std::vector<std::string> names;
  full.reserve(addresses.size());
  names.reserve(addresses.size());
  for (const AddressRecord& a : addresses) {
    full.push_back(a.FullText());
    names.push_back(a.name);
  }
  Report("Address All-3grams", full, 3);
  Report("Address Name-3grams", names, 3);
  std::printf(
      "\npaper (Table 1): All-words 24 / 70000; Citation All-3grams 127 / "
      "29000; Address All-3grams 47 / 37000; Name-3grams 16 / 14000\n");
  return 0;
}
