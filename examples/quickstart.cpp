// Quickstart: build a small set-valued corpus, run the Probe-Cluster
// similarity join under three predicates, and print the matching pairs.
//
//   $ ./quickstart
//
// This walks the minimal public API surface: tokenize text into a
// RecordSet (data/corpus_builder.h), pick a Predicate (core/*_predicate.h)
// and call RunJoin (core/join.h).

#include <cstdio>
#include <string>
#include <vector>

#include "core/jaccard_predicate.h"
#include "core/join.h"
#include "core/overlap_predicate.h"
#include "data/corpus_builder.h"
#include "text/token_dictionary.h"

namespace {

void PrintPairs(const char* title, ssjoin::RecordSet* records,
                const ssjoin::Predicate& pred) {
  std::printf("\n== %s ==\n", title);
  ssjoin::JoinOptions options;
  ssjoin::Result<ssjoin::JoinStats> stats = ssjoin::RunJoin(
      records, pred, ssjoin::JoinAlgorithm::kProbeCluster, options,
      [records](ssjoin::RecordId a, ssjoin::RecordId b) {
        std::printf("  [%u] %-42s ~ [%u] %s\n", a,
                    records->text(a).c_str(), b, records->text(b).c_str());
      });
  if (!stats.ok()) {
    std::printf("join failed: %s\n", stats.status().ToString().c_str());
    return;
  }
  std::printf("  (%llu pairs, %llu candidates verified)\n",
              static_cast<unsigned long long>(stats.value().pairs),
              static_cast<unsigned long long>(
                  stats.value().candidates_verified));
}

}  // namespace

int main() {
  // A tiny bibliography with near-duplicate citations of the same papers.
  std::vector<std::string> citations = {
      "J Gray, The transaction concept: virtues and limitations, VLDB 1981",
      "Gray J. The Transaction Concept - Virtues and Limitations. In VLDB, 1981",
      "E Codd, A relational model of data for large shared data banks, CACM 1970",
      "Codd, E.F. A Relational Model of Data for Large Shared Data Banks. CACM, 1970",
      "M Stonebraker, The design of POSTGRES, SIGMOD 1986",
      "S Sarawagi and A Kirpal, Efficient set joins on similarity predicates, SIGMOD 2004",
      "Completely unrelated entry about cooking recipes and gardening tips",
  };

  ssjoin::TokenDictionary dict;
  ssjoin::RecordSet records = ssjoin::BuildWordCorpus(citations, &dict);
  std::printf("corpus: %zu records, %zu distinct words\n", records.size(),
              dict.size());

  // T-overlap: pairs sharing at least 6 words.
  {
    ssjoin::RecordSet working = records;
    PrintPairs("overlap >= 6 words", &working, ssjoin::OverlapPredicate(6));
  }

  // Jaccard: pairs whose word sets agree on 50%+ of their union.
  {
    ssjoin::RecordSet working = records;
    PrintPairs("Jaccard >= 0.5", &working, ssjoin::JaccardPredicate(0.5));
  }

  // Weighted overlap: down-weight the words that appear everywhere.
  {
    ssjoin::RecordSet working = records;
    const std::vector<uint64_t> df = records.CountDocumentFrequencies().counts;
    std::vector<double> weights(df.size());
    for (ssjoin::TokenId t = 0; t < weights.size(); ++t) {
      weights[t] = 1.0 / static_cast<double>(df[t]);
    }
    PrintPairs("weighted overlap >= 1.5", &working,
               ssjoin::OverlapPredicate(1.5, weights));
  }
  return 0;
}
