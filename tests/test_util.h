#ifndef SSJOIN_TESTS_TEST_UTIL_H_
#define SSJOIN_TESTS_TEST_UTIL_H_

#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/record_set.h"
#include "serve/checkpoint.h"
#include "util/logging.h"
#include "util/rng.h"

namespace ssjoin {
namespace testing_util {

/// This test process's private temporary directory, created by mkdtemp
/// under ::testing::TempDir() on first use and removed at exit. ctest -j
/// runs suites as concurrent processes, and a suite may run in two of
/// them at once (two build trees, or CI legs sharing a runner); with
/// fixed paths under the shared temp dir, one would delete the other's
/// files mid-test.
inline const std::string& ProcessTempDir() {
  struct Root {
    std::string path = ::testing::TempDir() + "/ssjoin_test_XXXXXX";
    Root() {
      SSJOIN_CHECK(::mkdtemp(path.data()) != nullptr)
          << "cannot create a test directory from " << path;
    }
    ~Root() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
    Root(const Root&) = delete;
    Root& operator=(const Root&) = delete;
  };
  static const Root root;
  return root.path;
}

/// Shape knobs for random synthetic record sets used across tests.
struct RandomSetOptions {
  uint32_t num_records = 200;
  uint32_t vocabulary = 120;   // small vocab => plenty of overlap
  int min_tokens = 3;
  int max_tokens = 18;
  double zipf_exponent = 0.9;  // skewed token frequencies like real text
  /// Fraction of records cloned from an earlier record with a few token
  /// edits (creates guaranteed high-overlap pairs).
  double duplicate_fraction = 0.3;
  int max_duplicate_edits = 3;
};

/// Deterministic random lowercase ASCII string.
inline std::string RandomAsciiString(Rng& rng, int min_len, int max_len) {
  int len = rng.UniformInt(min_len, max_len);
  std::string s(len, 'a');
  for (char& c : s) c = static_cast<char>('a' + rng.UniformU32(26));
  return s;
}

/// Deterministic random RecordSet (unit scores; Prepare installs real
/// scores later). Texts are synthesized as space-joined token names so
/// predicates needing text still work; text_length is set from the text.
inline RecordSet MakeRandomRecordSet(const RandomSetOptions& options,
                                     uint64_t seed) {
  Rng rng(seed);
  ZipfTable zipf(options.vocabulary, options.zipf_exponent);
  RecordSet set;
  std::vector<std::vector<TokenId>> raw;
  for (uint32_t i = 0; i < options.num_records; ++i) {
    std::vector<TokenId> tokens;
    if (!raw.empty() && rng.Bernoulli(options.duplicate_fraction)) {
      tokens = raw[rng.UniformU32(static_cast<uint32_t>(raw.size()))];
      int edits = rng.UniformInt(0, options.max_duplicate_edits);
      for (int e = 0; e < edits && !tokens.empty(); ++e) {
        uint32_t pos = rng.UniformU32(static_cast<uint32_t>(tokens.size()));
        if (rng.Bernoulli(0.5)) {
          tokens[pos] = zipf.Sample(rng);
        } else {
          tokens.erase(tokens.begin() + pos);
        }
      }
      if (tokens.empty()) tokens.push_back(zipf.Sample(rng));
    } else {
      int count = rng.UniformInt(options.min_tokens, options.max_tokens);
      for (int t = 0; t < count; ++t) tokens.push_back(zipf.Sample(rng));
    }
    raw.push_back(tokens);
    Record record = Record::FromTokens(tokens);
    std::string text;
    for (size_t t = 0; t < record.size(); ++t) {
      if (t > 0) text += ' ';
      text += 'w' + std::to_string(record.token(t));
    }
    record.set_text_length(static_cast<uint32_t>(text.size()));
    set.Add(std::move(record), std::move(text));
  }
  return set;
}

/// Records [begin, end) of `corpus`, texts included, as a new set.
inline RecordSet Slice(const RecordSet& corpus, RecordId begin,
                       RecordId end) {
  RecordSet out;
  for (RecordId id = begin; id < end; ++id) {
    out.Add(corpus.record(id), corpus.text(id));
  }
  return out;
}

/// A scrubbed service data directory under ProcessTempDir() (stale files
/// from an earlier test in this process, e.g. under --gtest_repeat,
/// would otherwise restore into the new service or leak into its GC).
inline std::string FreshDataDir(const std::string& name) {
  std::string dir = ProcessTempDir() + "/" + name;
  EXPECT_TRUE(EnsureDataDir(dir).ok());
  for (const std::string& file :
       {CheckpointFilePath(dir), CheckpointFilePath(dir) + ".tmp",
        WalFilePath(dir), WalFilePath(dir) + ".tmp"}) {
    ::unlink(file.c_str());
  }
  for (uint64_t id : ListSegmentFiles(dir)) {
    ::unlink(SegmentFilePath(dir, id).c_str());
  }
  return dir;
}

/// Pairs as a sorted vector for set comparison in EXPECT_EQ.
inline std::vector<std::pair<RecordId, RecordId>> SortedPairs(
    std::vector<std::pair<RecordId, RecordId>> pairs) {
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

}  // namespace testing_util
}  // namespace ssjoin

#endif  // SSJOIN_TESTS_TEST_UTIL_H_
