// Streaming deduplication: records arrive one at a time (think a data-
// entry feed or CDC stream) and each new record is checked against
// everything ingested so far — the Section 3.2 single-pass build-and-
// probe loop, run on a SimilarityService: Query probes the corpus as it
// stands, then Insert makes the record visible to every later arrival.
//
//   $ ./streaming_dedup [num_records]

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/jaccard_predicate.h"
#include "data/address_generator.h"
#include "data/corpus_builder.h"
#include "serve/similarity_service.h"
#include "text/token_dictionary.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  uint32_t num_records = argc > 1 ? std::atoi(argv[1]) : 6000;

  ssjoin::AddressGeneratorOptions gen_options;
  gen_options.num_records = num_records;
  gen_options.duplicate_fraction = 0.3;
  std::vector<std::string> addresses =
      ssjoin::AddressGenerator(gen_options).GenerateFullTexts();

  // Tokenize up front (in a real feed this happens per record).
  ssjoin::TokenDictionary dict;
  ssjoin::RecordSet staged = ssjoin::BuildWordCorpus(addresses, &dict);

  // The stream starts from an empty corpus; inserted ids are arrival
  // positions. Each insert republishes its shard's memtable image, whose
  // cost grows with the memtable, so a small memtable_limit keeps every
  // arrival cheap; compaction folds the memtable into the segment chain.
  ssjoin::JaccardPredicate pred(0.8);
  ssjoin::ServiceOptions options;
  options.num_threads = 1;
  options.memtable_limit = 32;
  ssjoin::SimilarityService service(ssjoin::RecordSet(), pred, options);

  uint64_t duplicates_flagged = 0;
  uint64_t records_with_duplicate = 0;
  ssjoin::Timer timer;
  for (ssjoin::RecordId id = 0; id < staged.size(); ++id) {
    const std::vector<ssjoin::QueryMatch> matches =
        service.Query(staged.record(id), staged.text(id));
    for (const ssjoin::QueryMatch& earlier : matches) {
      ++duplicates_flagged;
      if (duplicates_flagged <= 3) {
        std::printf("record %u duplicates record %u:\n  %s\n  %s\n", id,
                    earlier.id, staged.text(id).c_str(),
                    staged.text(earlier.id).c_str());
      }
    }
    if (!matches.empty()) ++records_with_duplicate;
    service.Insert(staged.record(id), staged.text(id));
  }
  double elapsed = timer.ElapsedSeconds();

  const ssjoin::ServiceStats stats = service.stats();
  std::printf(
      "\nstreamed %zu records in %.2fs (%.0f records/s): %llu duplicate "
      "pairs, %llu records flagged at arrival\n",
      staged.size(), elapsed, staged.size() / elapsed,
      static_cast<unsigned long long>(duplicates_flagged),
      static_cast<unsigned long long>(records_with_duplicate));
  std::printf("service: %llu candidates verified; %llu compactions left %llu "
              "segment(s)\n",
              static_cast<unsigned long long>(stats.candidates),
              static_cast<unsigned long long>(stats.compactions),
              static_cast<unsigned long long>(stats.segments));
  return 0;
}
