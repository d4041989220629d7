// Durability & restart recovery tests for the serving tier.
//
// The central harness is differential, mirroring serve_shard_test: a
// durable SimilarityService and a never-crashed memory-only twin are fed
// the identical Insert/Delete/Query/Compact schedule; at random points
// the durable service is destroyed mid-cycle (no flush, no final
// compaction — the file-state equivalent of kill -9, since every op's
// WAL frame is written before the op returns) and reopened from its
// data_dir. The reopened service must resume at the exact pre-crash
// epoch and answer Query/BatchQuery/QueryTopK byte-identically to the
// twin — and, at the end, to a fresh batch self-join over the
// survivors. SSJOIN_RECOVERY_SEEDS widens the sweep in nightly CI;
// SSJOIN_DIFF_PREDICATES filters predicates for matrix jobs.
//
// Around the harness: checkpoint round-trip property tests (zero-record,
// single-token, all-tombstoned, post-compaction states), WAL torn-tail
// truncation at every byte boundary of the final frame, checkpoint
// atomicity under injected write failure, corrupted / crafted /
// mismatched checkpoint rejection, replay under a different restart
// memtable_limit, and a deterministic mutation fuzz of the segment-file,
// manifest and WAL-frame decoders.

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cosine_predicate.h"
#include "core/edit_distance_predicate.h"
#include "core/jaccard_predicate.h"
#include "core/join.h"
#include "core/overlap_predicate.h"
#include "data/corpus_builder.h"
#include "serve/checkpoint.h"
#include "serve/similarity_service.h"
#include "serve/wal.h"
#include "test_util.h"
#include "util/file_io.h"
#include "util/rng.h"
#include "util/varint.h"

namespace ssjoin {
namespace {

std::string TempPath(const std::string& name) {
  return testing_util::ProcessTempDir() + "/" + name;
}

using testing_util::FreshDataDir;
using testing_util::Slice;

/// Every segment of a durable service serves from its mapped file.
void ExpectAllMapped(const SimilarityService& service,
                     const std::string& context) {
  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.segments, 0u) << context;
  EXPECT_EQ(stats.mapped_segments, stats.segments) << context;
}

size_t FileSize(const std::string& path) {
  struct stat st;
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return static_cast<size_t>(st.st_size);
}

std::string ReadAll(const std::string& path) {
  Result<std::string> read = ReadFileToString(path);
  EXPECT_TRUE(read.ok()) << read.status().ToString();
  return std::move(read).value();
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// Returns `bytes` with a freshly computed trailing CRC (segment files and
// manifests both end in a CRC32 of everything before it), so tests can
// tamper with specific fields and still reach the checks BEHIND the
// whole-file checksum.
std::string Reseal(std::string bytes) {
  const uint32_t crc =
      Crc32(bytes.data(), bytes.size() - sizeof(uint32_t));
  std::memcpy(bytes.data() + bytes.size() - sizeof(uint32_t), &crc,
              sizeof(crc));
  return bytes;
}

void ExpectSameMatches(const std::vector<QueryMatch>& expected,
                       const std::vector<QueryMatch>& actual,
                       const std::string& context) {
  ASSERT_EQ(expected.size(), actual.size()) << context;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].id, actual[i].id) << context << " position " << i;
    EXPECT_EQ(expected[i].score, actual[i].score)
        << context << " position " << i << " id " << actual[i].id;
  }
}

std::pair<Record, std::string> MakeRandomRecord(Rng& rng, ZipfTable& zipf) {
  int count = rng.UniformInt(1, 14);
  std::vector<TokenId> tokens;
  for (int t = 0; t < count; ++t) tokens.push_back(zipf.Sample(rng));
  Record record = Record::FromTokens(tokens);
  std::string text;
  for (size_t t = 0; t < record.size(); ++t) {
    if (t > 0) text += ' ';
    text += 'w' + std::to_string(record.token(t));
  }
  record.set_text_length(static_cast<uint32_t>(text.size()));
  return {std::move(record), std::move(text)};
}

std::map<RecordId, std::set<RecordId>> JoinPartners(const RecordSet& corpus,
                                                    const Predicate& pred) {
  RecordSet prepared = corpus;
  Result<std::vector<std::pair<RecordId, RecordId>>> pairs =
      JoinToPairs(&prepared, pred, JoinAlgorithm::kProbeOptMerge);
  EXPECT_TRUE(pairs.ok()) << pairs.status().ToString();
  std::map<RecordId, std::set<RecordId>> partners;
  for (const auto& [a, b] : pairs.value()) {
    partners[a].insert(b);
    partners[b].insert(a);
  }
  return partners;
}

int RecoverySeedCount() {
  const char* env = std::getenv("SSJOIN_RECOVERY_SEEDS");
  if (env == nullptr) return 4;
  int n = std::atoi(env);
  return n > 0 ? n : 4;
}

bool PredicateEnabled(const std::string& name) {
  const char* env = std::getenv("SSJOIN_DIFF_PREDICATES");
  if (env == nullptr) return true;
  return std::string(env).find(name) != std::string::npos;
}

// ---------------------------------------------------------------------
// Service checkpoint round trip across corpus states.

/// Full byte-compare of `restored` against `expected` over every corpus
/// record's content plus a few random probes.
void ExpectSameService(SimilarityService& expected,
                       SimilarityService& restored, const RecordSet& corpus,
                       uint64_t probe_seed, const std::string& context) {
  ASSERT_EQ(expected.epoch(), restored.epoch()) << context;
  ASSERT_EQ(expected.size(), restored.size()) << context;
  ASSERT_EQ(expected.memtable_size(), restored.memtable_size()) << context;
  ASSERT_EQ(expected.tombstone_count(), restored.tombstone_count()) << context;
  ASSERT_EQ(expected.num_shards(), restored.num_shards()) << context;
  for (RecordId r = 0; r < corpus.size(); ++r) {
    const std::string tag = context + " record " + std::to_string(r);
    ExpectSameMatches(expected.Query(corpus.record(r), corpus.text(r)),
                      restored.Query(corpus.record(r), corpus.text(r)),
                      tag + " query");
    ExpectSameMatches(expected.QueryTopK(corpus.record(r), 6, corpus.text(r)),
                      restored.QueryTopK(corpus.record(r), 6, corpus.text(r)),
                      tag + " topk");
  }
  Rng rng(probe_seed);
  ZipfTable zipf(50, 0.9);
  for (int i = 0; i < 10; ++i) {
    auto [record, text] = MakeRandomRecord(rng, zipf);
    ExpectSameMatches(expected.Query(record.view(), text),
                      restored.Query(record.view(), text),
                      context + " probe " + std::to_string(i));
  }
  if (!corpus.empty()) {
    std::vector<std::vector<QueryMatch>> batch_expected =
        expected.BatchQuery(corpus);
    std::vector<std::vector<QueryMatch>> batch_restored =
        restored.BatchQuery(corpus);
    ASSERT_EQ(batch_expected.size(), batch_restored.size()) << context;
    for (size_t i = 0; i < batch_expected.size(); ++i) {
      ExpectSameMatches(batch_expected[i], batch_restored[i],
                        context + " batch " + std::to_string(i));
    }
  }
}

void RunCheckpointRoundTrip(const Predicate& pred, const std::string& name) {
  struct Case {
    std::string tag;
    RecordSet corpus;
  };
  std::vector<Case> cases;
  cases.push_back({"zero-record", RecordSet()});
  {
    RecordSet single;
    for (TokenId t = 0; t < 12; ++t) {
      single.Add(Record::FromTokens({t % 5}), "w" + std::to_string(t % 5));
    }
    cases.push_back({"single-token", std::move(single)});
  }
  cases.push_back({"random", testing_util::MakeRandomRecordSet(
                                 {.num_records = 50, .vocabulary = 40}, 77)});

  for (Case& c : cases) {
    for (size_t shards : {size_t{1}, size_t{3}}) {
      const std::string context =
          name + " " + c.tag + " shards=" + std::to_string(shards);
      ServiceOptions options;
      options.num_shards = shards;
      options.memtable_limit = 0;  // compactions only where scripted
      options.data_dir = FreshDataDir("cp_roundtrip_" + name + "_" + c.tag +
                                      "_" + std::to_string(shards));
      options.wal_sync = WalSyncPolicy::kNever;
      SimilarityService service(c.corpus, pred, options);
      ASSERT_TRUE(service.durability_status().ok())
          << context << " " << service.durability_status().ToString();

      // Fresh-construction checkpoint (epoch 0, empty WAL).
      {
        Result<std::unique_ptr<SimilarityService>> restored =
            SimilarityService::Open(pred, options);
        ASSERT_TRUE(restored.ok()) << context << " "
                                   << restored.status().ToString();
        ExpectSameService(service, *restored.value(), c.corpus, 5,
                          context + " initial");
      }

      // Post-compaction state with inserts and deletes folded in.
      Rng rng(31);
      ZipfTable zipf(40, 0.9);
      RecordSet contents = c.corpus;
      for (int i = 0; i < 8; ++i) {
        auto [record, text] = MakeRandomRecord(rng, zipf);
        contents.Add(record, text);
        service.Insert(record.view(), text);
      }
      if (!c.corpus.empty()) service.Delete(0);
      service.Compact();
      {
        Result<std::unique_ptr<SimilarityService>> restored =
            SimilarityService::Open(pred, options);
        ASSERT_TRUE(restored.ok()) << context << " "
                                   << restored.status().ToString();
        ExpectSameService(service, *restored.value(), contents, 6,
                          context + " post-compaction");
      }

      // All-tombstoned: delete every record, compact, reopen.
      for (RecordId id = 0; id < contents.size(); ++id) service.Delete(id);
      service.Compact();
      ASSERT_EQ(service.size(), 0u) << context;
      {
        Result<std::unique_ptr<SimilarityService>> restored =
            SimilarityService::Open(pred, options);
        ASSERT_TRUE(restored.ok()) << context << " "
                                   << restored.status().ToString();
        EXPECT_EQ(restored.value()->size(), 0u) << context;
        ExpectSameService(service, *restored.value(), contents, 7,
                          context + " all-tombstoned");
      }
    }
  }
}

TEST(CheckpointRoundTripTest, Overlap) {
  if (!PredicateEnabled("overlap")) GTEST_SKIP();
  OverlapPredicate pred(3);
  RunCheckpointRoundTrip(pred, "overlap");
}

TEST(CheckpointRoundTripTest, Jaccard) {
  if (!PredicateEnabled("jaccard")) GTEST_SKIP();
  JaccardPredicate pred(0.5);
  RunCheckpointRoundTrip(pred, "jaccard");
}

TEST(CheckpointRoundTripTest, Cosine) {
  if (!PredicateEnabled("cosine")) GTEST_SKIP();
  CosinePredicate pred(0.6);
  RunCheckpointRoundTrip(pred, "cosine");
}

// ---------------------------------------------------------------------
// Kill-at-random-op crash differential.

void RunCrashDifferential(const Predicate& pred, const std::string& name,
                          uint64_t seed) {
  constexpr uint32_t kVocabulary = 50;
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 60, .vocabulary = kVocabulary}, seed * 5 + 3);
  ServiceOptions durable_options;
  durable_options.num_shards = seed % 2 == 0 ? 1 : 3;
  durable_options.memtable_limit = 16;  // auto-compactions -> checkpoints
  durable_options.data_dir =
      FreshDataDir("crash_" + name + "_" + std::to_string(seed));
  durable_options.wal_sync =
      seed % 2 == 0 ? WalSyncPolicy::kAlways : WalSyncPolicy::kNever;
  ServiceOptions reference_options = durable_options;
  reference_options.data_dir.clear();

  auto durable =
      std::make_unique<SimilarityService>(corpus, pred, durable_options);
  ASSERT_TRUE(durable->durability_status().ok())
      << durable->durability_status().ToString();
  ExpectAllMapped(*durable, name + " construction");
  SimilarityService reference(corpus, pred, reference_options);

  RecordSet contents = corpus;  // every record's content, dead or alive
  std::vector<bool> alive(corpus.size(), true);
  Rng rng(seed * 977 + 41);
  ZipfTable zipf(kVocabulary, 0.9);
  const std::string tag = name + " seed=" + std::to_string(seed);

  auto crash_and_reopen = [&](const std::string& context) {
    // Abrupt destruction mid-cycle: nothing is flushed or compacted on
    // the way down, so the reopened service sees exactly the files a
    // kill -9 would have left.
    durable.reset();
    Result<std::unique_ptr<SimilarityService>> reopened =
        SimilarityService::Open(pred, durable_options);
    ASSERT_TRUE(reopened.ok()) << context << " "
                               << reopened.status().ToString();
    durable = std::move(reopened).value();
    ASSERT_TRUE(durable->durability_status().ok()) << context;
    ExpectAllMapped(*durable, context);
    ASSERT_EQ(durable->epoch(), reference.epoch()) << context;
    ASSERT_EQ(durable->size(), reference.size()) << context;
    ASSERT_EQ(durable->memtable_size(), reference.memtable_size()) << context;
    ASSERT_EQ(durable->tombstone_count(), reference.tombstone_count())
        << context;
  };

  for (int step = 0; step < 60; ++step) {
    const std::string context = tag + " step=" + std::to_string(step);
    uint32_t u = rng.UniformU32(100);
    if (u < 30) {
      auto [record, text] = MakeRandomRecord(rng, zipf);
      contents.Add(record, text);
      alive.push_back(true);
      RecordId expected_id = reference.Insert(record.view(), text);
      EXPECT_EQ(durable->Insert(record.view(), text), expected_id) << context;
    } else if (u < 50) {
      RecordId victim = rng.UniformU32(static_cast<uint32_t>(contents.size()));
      RecordId tried = 0;
      while (!alive[victim] && tried < contents.size()) {
        victim = (victim + 1) % static_cast<RecordId>(contents.size());
        ++tried;
      }
      bool expect_hit = alive[victim];
      EXPECT_EQ(reference.Delete(victim), expect_hit) << context;
      EXPECT_EQ(durable->Delete(victim), expect_hit) << context;
      if (expect_hit) alive[victim] = false;
    } else if (u < 70) {
      auto [record, text] = MakeRandomRecord(rng, zipf);
      ExpectSameMatches(reference.Query(record.view(), text),
                        durable->Query(record.view(), text),
                        context + " query");
      ExpectSameMatches(reference.QueryTopK(record.view(), 5, text),
                        durable->QueryTopK(record.view(), 5, text),
                        context + " topk");
    } else if (u < 82) {
      reference.Compact();
      durable->Compact();
      EXPECT_EQ(durable->epoch(), reference.epoch()) << context;
    } else {
      crash_and_reopen(context + " crash");
    }
    // Inserts and deletes may have compacted too (memtable_limit).
    ExpectAllMapped(*durable, context);
  }

  // Final crash mid-cycle (memtables possibly non-empty), then the full
  // differential sweep against the never-crashed twin.
  crash_and_reopen(tag + " final-crash");
  ExpectSameService(reference, *durable, contents, seed * 3 + 9,
                    tag + " final");

  // Ground truth: compact both and hold the recovered service to a fresh
  // batch self-join over the survivors.
  reference.Compact();
  durable->Compact();
  ASSERT_EQ(durable->epoch(), reference.epoch()) << tag;
  ExpectAllMapped(*durable, tag + " final compaction");
  RecordSet survivors;
  std::vector<RecordId> gids;
  std::vector<RecordId> locals(contents.size(), 0);
  for (RecordId id = 0; id < contents.size(); ++id) {
    if (alive[id]) {
      locals[id] = static_cast<RecordId>(gids.size());
      survivors.Add(contents.record(id), contents.text(id));
      gids.push_back(id);
    }
  }
  std::map<RecordId, std::set<RecordId>> partners =
      JoinPartners(survivors, pred);
  for (RecordId r = 0; r < contents.size(); ++r) {
    std::vector<QueryMatch> answers =
        durable->Query(contents.record(r), contents.text(r));
    for (const QueryMatch& m : answers) {
      EXPECT_TRUE(alive[m.id]) << tag << " deleted id " << m.id << " answered";
    }
    if (!alive[r]) continue;
    std::set<RecordId> expected;
    for (RecordId p : partners[locals[r]]) expected.insert(gids[p]);
    std::set<RecordId> answered;
    for (const QueryMatch& m : answers) {
      if (m.id != r) answered.insert(m.id);
    }
    EXPECT_EQ(answered, expected)
        << tag << " survivor-join mismatch, record " << r;
  }
}

TEST(CrashRecoveryDifferentialTest, Overlap) {
  if (!PredicateEnabled("overlap")) GTEST_SKIP();
  OverlapPredicate pred(3);
  for (int seed = 0; seed < RecoverySeedCount(); ++seed) {
    RunCrashDifferential(pred, "overlap", static_cast<uint64_t>(seed));
  }
}

TEST(CrashRecoveryDifferentialTest, Jaccard) {
  if (!PredicateEnabled("jaccard")) GTEST_SKIP();
  JaccardPredicate pred(0.5);
  for (int seed = 0; seed < RecoverySeedCount(); ++seed) {
    RunCrashDifferential(pred, "jaccard", static_cast<uint64_t>(seed));
  }
}

TEST(CrashRecoveryDifferentialTest, Cosine) {
  if (!PredicateEnabled("cosine")) GTEST_SKIP();
  CosinePredicate pred(0.6);
  for (int seed = 0; seed < RecoverySeedCount(); ++seed) {
    RunCrashDifferential(pred, "cosine", static_cast<uint64_t>(seed));
  }
}

// ---------------------------------------------------------------------
// Residency advice: a durable service serves every segment from its
// mapped file whatever its resident budget, and must answer exactly like
// a memory-only twin holding the same history on the heap.

TEST(OutOfCoreTest, MappedAndHeapServicesAnswerIdentically) {
  OverlapPredicate pred(3);
  for (size_t shards : {size_t{1}, size_t{3}}) {
    for (size_t merge_ratio : {size_t{0}, size_t{2}}) {
      const std::string context = "shards=" + std::to_string(shards) +
                                  " ratio=" + std::to_string(merge_ratio);
      RecordSet corpus = testing_util::MakeRandomRecordSet(
          {.num_records = 60, .vocabulary = 40}, 211 + shards);
      ServiceOptions options;
      options.num_shards = shards;
      options.segment_merge_ratio = merge_ratio;
      options.memtable_limit = 12;  // several compactions -> several segments
      options.data_dir = FreshDataDir(
          "ooc_diff_" + std::to_string(shards) + "_" +
          std::to_string(merge_ratio));
      options.wal_sync = WalSyncPolicy::kNever;
      ServiceOptions heap_options = options;
      heap_options.data_dir.clear();
      SimilarityService heap(corpus, pred, heap_options);
      RecordSet contents = corpus;
      {
        SimilarityService service(corpus, pred, options);
        Rng rng(97);
        ZipfTable zipf(40, 0.9);
        for (int i = 0; i < 30; ++i) {
          auto [record, text] = MakeRandomRecord(rng, zipf);
          contents.Add(record, text);
          service.Insert(record.view(), text);
          heap.Insert(record.view(), text);
          if (i % 7 == 3) {
            service.Delete(static_cast<RecordId>(i));
            heap.Delete(static_cast<RecordId>(i));
          }
        }
        ASSERT_TRUE(service.durability_status().ok()) << context;
        ExpectAllMapped(service, context);
      }

      // No cap, then a tiny budget that pushes all but the newest segment
      // onto the MADV_RANDOM/DONTNEED side of the advice split: answers
      // must not care. Each reopen also writes through the mapped
      // service, compacting so it writes fresh segments and maps them
      // back, which the next reopen proves whole.
      uint64_t probe_seed = 13 + shards;
      for (const uint64_t budget : {uint64_t{0}, uint64_t{4096}}) {
        const std::string tag =
            context + " budget=" + std::to_string(budget);
        ServiceOptions mapped_options = options;
        mapped_options.resident_budget_bytes = budget;
        Result<std::unique_ptr<SimilarityService>> mapped =
            SimilarityService::Open(pred, mapped_options);
        ASSERT_TRUE(mapped.ok()) << tag << " " << mapped.status().ToString();
        ExpectAllMapped(*mapped.value(), tag);
        EXPECT_GT(mapped.value()->stats().mapped_bytes, 0u) << tag;
        ExpectSameService(heap, *mapped.value(), contents, probe_seed++,
                          "ooc " + tag);

        Rng rng(181 + budget);
        ZipfTable zipf(40, 0.9);
        for (int i = 0; i < 8; ++i) {
          auto [record, text] = MakeRandomRecord(rng, zipf);
          contents.Add(record, text);
          mapped.value()->Insert(record.view(), text);
          heap.Insert(record.view(), text);
        }
        mapped.value()->Compact();
        heap.Compact();
        ASSERT_TRUE(mapped.value()->durability_status().ok()) << tag;
        ExpectAllMapped(*mapped.value(), tag + " post-compaction");
        ExpectSameService(heap, *mapped.value(), contents, probe_seed++,
                          "ooc post-insert " + tag);
      }
    }
  }
}

// ---------------------------------------------------------------------
// WAL framing: torn tails are detected by CRC, truncated, and never
// propagated; everything before the tear survives.

TEST(WalTest, TornTailTruncatedAtEveryByteBoundary) {
  const std::string path = TempPath("wal_torn.log");
  ::unlink(path.c_str());
  std::vector<size_t> sizes;  // after header, then after each append
  Record insert_record = Record::FromTokens({1, 4, 9});
  insert_record.set_text_length(5);
  {
    Result<WriteAheadLog> wal =
        WriteAheadLog::Open(path, WalSyncPolicy::kNever, nullptr);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    sizes.push_back(FileSize(path));
    ASSERT_TRUE(
        wal.value().AppendInsert(1, insert_record.view(), "a b c").ok());
    sizes.push_back(FileSize(path));
    ASSERT_TRUE(wal.value().AppendDelete(2, 17).ok());
    sizes.push_back(FileSize(path));
    ASSERT_TRUE(wal.value().AppendCompact(3).ok());
    sizes.push_back(FileSize(path));
  }
  const std::string bytes = ReadAll(path);
  ASSERT_EQ(bytes.size(), sizes.back());

  // A pristine log replays all three records with exact payloads.
  {
    std::vector<WalRecord> replay;
    Result<WriteAheadLog> wal =
        WriteAheadLog::Open(path, WalSyncPolicy::kNever, &replay);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    ASSERT_EQ(replay.size(), 3u);
    EXPECT_EQ(replay[0].kind, WalRecord::kInsert);
    EXPECT_EQ(replay[0].seq, 1u);
    EXPECT_EQ(replay[0].tokens, (std::vector<TokenId>{1, 4, 9}));
    EXPECT_EQ(replay[0].text, "a b c");
    EXPECT_EQ(replay[0].text_length, 5u);
    EXPECT_EQ(replay[0].norm, insert_record.view().norm());
    EXPECT_EQ(replay[1].kind, WalRecord::kDelete);
    EXPECT_EQ(replay[1].id, 17u);
    EXPECT_EQ(replay[2].kind, WalRecord::kCompact);
    EXPECT_EQ(wal.value().last_seq(), 3u);
  }

  // Truncate at EVERY byte boundary inside the last frame: the first two
  // records must survive, the torn third must be dropped and physically
  // truncated away, and the log must accept appends again.
  const size_t last_good = sizes[sizes.size() - 2];
  for (size_t cut = last_good; cut < bytes.size(); ++cut) {
    const std::string torn = TempPath("wal_torn_cut.log");
    WriteAll(torn, bytes.substr(0, cut));
    std::vector<WalRecord> replay;
    Result<WriteAheadLog> wal =
        WriteAheadLog::Open(torn, WalSyncPolicy::kNever, &replay);
    ASSERT_TRUE(wal.ok()) << "cut=" << cut << " "
                          << wal.status().ToString();
    ASSERT_EQ(replay.size(), 2u) << "cut=" << cut;
    EXPECT_EQ(replay[1].kind, WalRecord::kDelete) << "cut=" << cut;
    EXPECT_EQ(FileSize(torn), last_good) << "cut=" << cut;
    ASSERT_TRUE(wal.value().AppendCompact(4).ok()) << "cut=" << cut;
  }

  // Torn FIRST frame: tears are handled at every depth, not just the
  // tail-most frame.
  for (size_t cut = sizes[0]; cut < sizes[1]; ++cut) {
    const std::string torn = TempPath("wal_torn_first.log");
    WriteAll(torn, bytes.substr(0, cut));
    std::vector<WalRecord> replay;
    Result<WriteAheadLog> wal =
        WriteAheadLog::Open(torn, WalSyncPolicy::kNever, &replay);
    ASSERT_TRUE(wal.ok()) << "cut=" << cut;
    EXPECT_TRUE(replay.empty()) << "cut=" << cut;
    EXPECT_EQ(FileSize(torn), sizes[0]) << "cut=" << cut;
  }
}

TEST(WalTest, CorruptMiddleFrameDropsEverythingAfterIt) {
  const std::string path = TempPath("wal_corrupt.log");
  ::unlink(path.c_str());
  std::vector<size_t> sizes;
  {
    Result<WriteAheadLog> wal =
        WriteAheadLog::Open(path, WalSyncPolicy::kNever, nullptr);
    ASSERT_TRUE(wal.ok());
    sizes.push_back(FileSize(path));
    for (uint64_t seq = 1; seq <= 3; ++seq) {
      ASSERT_TRUE(
          wal.value().AppendDelete(seq, static_cast<RecordId>(seq)).ok());
      sizes.push_back(FileSize(path));
    }
  }
  std::string bytes = ReadAll(path);
  // Flip one payload byte of the second frame: its CRC fails, so frames
  // two AND three are discarded (a frame behind a tear can never be
  // trusted — appends after a crash would have overwritten that space).
  bytes[sizes[1] + 2 * sizeof(uint32_t)] ^= 0x40;
  WriteAll(path, bytes);
  std::vector<WalRecord> replay;
  Result<WriteAheadLog> wal =
      WriteAheadLog::Open(path, WalSyncPolicy::kNever, &replay);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ASSERT_EQ(replay.size(), 1u);
  EXPECT_EQ(replay[0].id, 1u);
  EXPECT_EQ(FileSize(path), sizes[1]);
}

TEST(WalTest, ResetEmptiesTheLog) {
  const std::string path = TempPath("wal_reset.log");
  ::unlink(path.c_str());
  Result<WriteAheadLog> wal =
      WriteAheadLog::Open(path, WalSyncPolicy::kAlways, nullptr);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal.value().AppendDelete(1, 5).ok());
  ASSERT_TRUE(wal.value().Reset().ok());
  ASSERT_TRUE(wal.value().AppendDelete(2, 6).ok());
  std::vector<WalRecord> replay;
  Result<WriteAheadLog> reopened =
      WriteAheadLog::Open(path, WalSyncPolicy::kAlways, &replay);
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(replay.size(), 1u);
  EXPECT_EQ(replay[0].seq, 2u);
  EXPECT_EQ(replay[0].id, 6u);
}

TEST(WalTest, CraftedTokenCountIsRejected) {
  // One insert frame with a valid CRC whose token count (2^32 - 1) far
  // exceeds its payload: the decoder must refuse it before sizing the
  // token and score vectors, not abort on the allocation.
  std::string payload;
  PutVarint64(&payload, 1);  // seq
  payload.push_back(static_cast<char>(WalRecord::kInsert));
  PutVarint32(&payload, 0xFFFFFFFFu);  // num_tokens
  std::string bytes("SSWL", 4);
  PutFixed32(&bytes, 1);  // wal version
  PutFixed32(&bytes, static_cast<uint32_t>(payload.size()));
  PutFixed32(&bytes, Crc32(payload.data(), payload.size()));
  bytes += payload;
  ASSERT_EQ(bytes.size(), 23u);
  const std::string path = TempPath("wal_crafted_tokens.log");
  WriteAll(path, bytes);
  std::vector<WalRecord> replay;
  Result<WriteAheadLog> wal =
      WriteAheadLog::Open(path, WalSyncPolicy::kNever, &replay);
  ASSERT_FALSE(wal.ok());
  EXPECT_NE(wal.status().message().find("undecodable wal record"),
            std::string::npos)
      << wal.status().ToString();
}

// ---------------------------------------------------------------------
// Double-apply guard: a crash between checkpoint rename and WAL reset
// leaves frames the checkpoint already covers; their seqs are at or
// below the checkpoint's wal_seq, so replay must skip them.

TEST(CrashRecoveryTest, StaleWalFramesAreNotDoubleApplied) {
  OverlapPredicate pred(3);
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 30, .vocabulary = 25}, 91);
  ServiceOptions options;
  options.memtable_limit = 0;
  options.data_dir = FreshDataDir("stale_wal");
  options.wal_sync = WalSyncPolicy::kNever;
  SimilarityService service(corpus, pred, options);
  Rng rng(17);
  ZipfTable zipf(25, 0.9);
  RecordSet contents = corpus;
  for (int i = 0; i < 6; ++i) {
    auto [record, text] = MakeRandomRecord(rng, zipf);
    contents.Add(record, text);
    service.Insert(record.view(), text);
  }
  // Snapshot the WAL with the six insert frames, compact (checkpoint +
  // WAL reset), then plant the stale WAL back — the state a crash
  // between the two steps leaves behind.
  const std::string stale = ReadAll(WalFilePath(options.data_dir));
  service.Compact();
  ASSERT_TRUE(service.durability_status().ok());
  WriteAll(WalFilePath(options.data_dir), stale);

  Result<std::unique_ptr<SimilarityService>> restored =
      SimilarityService::Open(pred, options);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  // Replaying the stale frames would double-insert all six records.
  ASSERT_EQ(restored.value()->size(), service.size());
  ASSERT_EQ(restored.value()->epoch(), service.epoch());
  ExpectSameService(service, *restored.value(), contents, 23, "stale-wal");
}

// ---------------------------------------------------------------------
// Replay compacts only at logged markers: every compaction with work
// pending, memtable_limit-triggered or explicit, logs one first, so a
// restart under another memtable_limit resumes at the same epoch with
// the same answers.

TEST(CrashRecoveryTest, ReplayIgnoresRestartMemtableLimit) {
  CosinePredicate cosine(0.6);
  JaccardPredicate jaccard(0.5);
  for (const Predicate* pred :
       std::initializer_list<const Predicate*>{&jaccard, &cosine}) {
    if (!PredicateEnabled(pred->name())) continue;
    // The first 60 records seed the service, the next 10 are inserted,
    // and the last 10 only ever probe.
    RecordSet records = testing_util::MakeRandomRecordSet(
        {.num_records = 80, .vocabulary = 40}, 139);
    ServiceOptions options;
    options.num_shards = 2;
    options.memtable_limit = 16;
    options.num_threads = 2;
    options.data_dir = FreshDataDir("replay_limit_" + pred->name());
    options.wal_sync = WalSyncPolicy::kNever;
    uint64_t epoch = 0;
    std::vector<std::vector<QueryMatch>> expected;
    {
      SimilarityService service(Slice(records, 0, 60), *pred, options);
      for (RecordId id = 60; id < 70; ++id) {
        service.Insert(records.record(id), records.text(id));
      }
      ASSERT_EQ(service.memtable_size(), 10u) << pred->name();
      epoch = service.epoch();
      expected = service.BatchQuery(records);
    }
    options.memtable_limit = 4;
    Result<std::unique_ptr<SimilarityService>> restored =
        SimilarityService::Open(*pred, options);
    ASSERT_TRUE(restored.ok())
        << pred->name() << ": " << restored.status().ToString();
    EXPECT_EQ(restored.value()->epoch(), epoch) << pred->name();
    const std::vector<std::vector<QueryMatch>> actual =
        restored.value()->BatchQuery(records);
    ASSERT_EQ(actual.size(), expected.size()) << pred->name();
    for (size_t i = 0; i < expected.size(); ++i) {
      ExpectSameMatches(expected[i], actual[i],
                        pred->name() + " query " + std::to_string(i));
    }
  }
}

// ---------------------------------------------------------------------
// Checkpoint atomicity and rejection.

TEST(CrashRecoveryTest, FailedCheckpointLeavesOldOneRestorable) {
  OverlapPredicate pred(3);
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 25, .vocabulary = 20}, 92);
  ServiceOptions options;
  options.memtable_limit = 0;
  options.data_dir = FreshDataDir("cp_atomic");
  options.wal_sync = WalSyncPolicy::kNever;
  SimilarityService service(corpus, pred, options);
  ASSERT_TRUE(service.durability_status().ok());

  // Block the checkpoint's tmp path with a directory, then force a
  // compaction: the checkpoint write fails, serving continues, the
  // durability error latches, and the OLD checkpoint (plus the WAL tail,
  // which must NOT be truncated on a failed checkpoint) still restores
  // the full state.
  const std::string blocker = CheckpointFilePath(options.data_dir) + ".tmp";
  ASSERT_EQ(::mkdir(blocker.c_str(), 0755), 0);
  Record record = Record::FromTokens({1, 2, 3});
  RecordSet contents = corpus;
  contents.Add(record, "w1 w2 w3");
  service.Insert(record.view(), "w1 w2 w3");
  service.Compact();
  ASSERT_FALSE(service.durability_status().ok());
  EXPECT_NE(service.durability_status().message().find(
                std::strerror(EISDIR)),
            std::string::npos)
      << service.durability_status().ToString();
  {
    Result<std::unique_ptr<SimilarityService>> restored =
        SimilarityService::Open(pred, options);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    ExpectSameService(service, *restored.value(), contents, 29,
                      "failed-checkpoint");
  }

  // Unblock and compact with fresh work pending: the next checkpoint
  // repairs durability end to end.
  ASSERT_EQ(::rmdir(blocker.c_str()), 0);
  Record more = Record::FromTokens({2, 3, 4});
  contents.Add(more, "w2 w3 w4");
  service.Insert(more.view(), "w2 w3 w4");
  service.Compact();
  ASSERT_TRUE(service.durability_status().ok())
      << service.durability_status().ToString();
  Result<std::unique_ptr<SimilarityService>> restored =
      SimilarityService::Open(pred, options);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectSameService(service, *restored.value(), contents, 37, "repaired");
}

TEST(CrashRecoveryTest, CorruptedCheckpointIsRejected) {
  OverlapPredicate pred(3);
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 20, .vocabulary = 15}, 93);
  ServiceOptions options;
  options.data_dir = FreshDataDir("cp_corrupt");
  options.wal_sync = WalSyncPolicy::kNever;
  { SimilarityService service(corpus, pred, options); }

  const std::string path = CheckpointFilePath(options.data_dir);
  const std::string bytes = ReadAll(path);
  // Flip one byte at several depths: header, body, trailing CRC.
  for (size_t pos : {size_t{1}, bytes.size() / 2, bytes.size() - 2}) {
    std::string corrupted = bytes;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x20);
    WriteAll(path, corrupted);
    Result<std::unique_ptr<SimilarityService>> restored =
        SimilarityService::Open(pred, options);
    ASSERT_FALSE(restored.ok()) << "pos=" << pos;
    EXPECT_NE(restored.status().message().find("corrupt checkpoint"),
              std::string::npos)
        << restored.status().ToString();
  }
  // And a truncation sweep: every prefix must be rejected, never partially
  // restored.
  for (size_t cut = 1; cut < bytes.size(); cut += 97) {
    WriteAll(path, bytes.substr(0, bytes.size() - cut));
    EXPECT_FALSE(SimilarityService::Open(pred, options).ok()) << "cut=" << cut;
  }
  // The pristine bytes still restore — the loader rejects corruption, not
  // the format.
  WriteAll(path, bytes);
  EXPECT_TRUE(SimilarityService::Open(pred, options).ok());
}

/// Rewrites the checkpoint in `data_dir` through SaveCheckpoint with its
/// shard bounds replaced by `bounds`; segment files are kept as they are.
void RewriteShardBounds(const std::string& data_dir,
                        std::vector<TokenId> bounds) {
  Result<Checkpoint> loaded = LoadCheckpoint(data_dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Checkpoint checkpoint = std::move(loaded).value();
  checkpoint.shard_bounds = std::move(bounds);
  std::set<uint64_t> persisted;
  for (const SegmentChainEntry& entry : *checkpoint.chain) {
    persisted.insert(entry.segment->id);
  }
  Status saved = SaveCheckpoint(data_dir, checkpoint, &persisted);
  ASSERT_TRUE(saved.ok()) << saved.ToString();
}

TEST(CrashRecoveryTest, ManifestBoundsSteerOnlyNewInserts) {
  // A manifest's shard bounds need not match the shard parts its segments
  // were built with. A delete finds its record's shard by membership, so
  // it hides the record at once and folds at compaction; the bounds only
  // route inserts made after the reopen.
  JaccardPredicate pred(0.5);
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 90, .vocabulary = 40}, 131);
  ServiceOptions options;
  options.num_shards = 3;
  options.memtable_limit = 0;
  options.num_threads = 1;
  options.data_dir = FreshDataDir("cp_rewritten_bounds");
  options.wal_sync = WalSyncPolicy::kNever;
  { SimilarityService service(Slice(corpus, 0, 80), pred, options); }

  // Bounds that are not non-decreasing are refused as a Status.
  const std::string manifest = CheckpointFilePath(options.data_dir);
  const std::string pristine = ReadAll(manifest);
  RewriteShardBounds(options.data_dir, {5, 2});
  Result<std::unique_ptr<SimilarityService>> unsorted =
      SimilarityService::Open(pred, options);
  ASSERT_FALSE(unsorted.ok());
  EXPECT_NE(unsorted.status().message().find("bad shard bounds"),
            std::string::npos)
      << unsorted.status().ToString();
  WriteAll(manifest, pristine);

  // {0, 1} sends every record whose largest token is >= 1 to shard 2.
  RewriteShardBounds(options.data_dir, {0, 1});
  Result<Checkpoint> loaded = LoadCheckpoint(options.data_dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const CorpusSegment& segment = *loaded.value().chain->front().segment;
  RecordId misrouted = kInvalidToken;
  for (size_t s = 0; s < 2 && misrouted == kInvalidToken; ++s) {
    for (RecordId local : segment.shards[s].member_ids) {
      const RecordView record = segment.records->record(local);
      if (RouteToShard(record, {0, 1}) != s) {
        misrouted = segment.global_ids[local];
        break;
      }
    }
  }
  ASSERT_NE(misrouted, kInvalidToken);

  Result<std::unique_ptr<SimilarityService>> opened =
      SimilarityService::Open(pred, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  SimilarityService& service = *opened.value();
  std::vector<bool> deleted(corpus.size(), false);
  for (RecordId id = 80; id < corpus.size(); ++id) {
    ASSERT_EQ(service.Insert(corpus.record(id), corpus.text(id)), id);
  }
  for (RecordId id : {misrouted, RecordId{85}}) {
    ASSERT_TRUE(service.Delete(id));
    deleted[id] = true;
    for (const QueryMatch& m :
         service.Query(corpus.record(id), corpus.text(id))) {
      EXPECT_NE(m.id, id) << "deleted record " << id << " still answers";
    }
  }
  service.Compact();

  RecordSet survivors;
  std::vector<RecordId> gids;
  for (RecordId id = 0; id < corpus.size(); ++id) {
    if (deleted[id]) continue;
    survivors.Add(corpus.record(id), corpus.text(id));
    gids.push_back(id);
  }
  ServiceOptions fresh_options;
  fresh_options.num_shards = 3;
  fresh_options.num_threads = 1;
  SimilarityService fresh(survivors, pred, fresh_options);
  for (RecordId r = 0; r < survivors.size(); ++r) {
    std::vector<QueryMatch> expected =
        fresh.Query(survivors.record(r), survivors.text(r));
    for (QueryMatch& m : expected) m.id = gids[m.id];
    ExpectSameMatches(expected,
                      service.Query(survivors.record(r), survivors.text(r)),
                      "record " + std::to_string(gids[r]));
  }
}

TEST(CrashRecoveryTest, OldVersionManifestIsRejectedWithClearError) {
  OverlapPredicate pred(3);
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 20, .vocabulary = 15}, 109);
  ServiceOptions options;
  options.data_dir = FreshDataDir("cp_old_version");
  options.wal_sync = WalSyncPolicy::kNever;
  { SimilarityService service(corpus, pred, options); }
  const std::string path = CheckpointFilePath(options.data_dir);
  const std::string bytes = ReadAll(path);

  // v4 manifests carried a per-id deleted bitmap beside the dead masks.
  // Rewind the version field (fixed32 right after the 4-byte magic) and
  // reseal: the rejection must name the version, not report generic
  // corruption.
  std::string old_version = bytes;
  const uint32_t version = 4;
  std::memcpy(old_version.data() + 4, &version, sizeof(version));
  WriteAll(path, Reseal(std::move(old_version)));
  Result<std::unique_ptr<SimilarityService>> restored =
      SimilarityService::Open(pred, options);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(
      restored.status().message().find("unsupported checkpoint version"),
      std::string::npos)
      << restored.status().ToString();

  WriteAll(path, bytes);
  EXPECT_TRUE(SimilarityService::Open(pred, options).ok());
}

TEST(CrashRecoveryTest, CosineCheckpointCarriesNoRawCorpus) {
  // TF-IDF weights depend only on token sets and document frequencies,
  // which the prepared segments hold, so the same history checkpoints
  // no bigger under cosine than under jaccard (the predicate names in
  // the manifest differ by one byte). Cosine serves its segments mapped
  // like every predicate: it counts document frequencies over the mapped
  // arena.
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 200, .vocabulary = 80}, 113);
  CosinePredicate cosine(0.6);
  JaccardPredicate jaccard(0.5);
  std::map<std::string, size_t> manifest_bytes;
  for (const Predicate* pred :
       std::initializer_list<const Predicate*>{&cosine, &jaccard}) {
    ServiceOptions options;
    options.num_shards = 3;
    options.memtable_limit = 0;
    options.data_dir = FreshDataDir("cp_no_raw_" + pred->name());
    options.wal_sync = WalSyncPolicy::kNever;
    SimilarityService service(Slice(corpus, 0, 180), *pred, options);
    for (RecordId id = 180; id < 200; ++id) {
      service.Insert(corpus.record(id), corpus.text(id));
    }
    for (RecordId id = 0; id < 200; id += 17) ASSERT_TRUE(service.Delete(id));
    service.Compact();
    ASSERT_TRUE(service.durability_status().ok())
        << service.durability_status().ToString();
    manifest_bytes[pred->name()] =
        FileSize(CheckpointFilePath(options.data_dir));
    if (pred != &cosine) continue;
    ExpectAllMapped(service, "cosine");
    Result<std::unique_ptr<SimilarityService>> restored =
        SimilarityService::Open(cosine, options);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    ExpectAllMapped(*restored.value(), "cosine restored");
  }
  EXPECT_LE(manifest_bytes["cosine"], manifest_bytes["jaccard"] + 8);
}

// ---------------------------------------------------------------------
// Segment files: the incremental-checkpoint half of the segmented
// corpus. Multi-segment chains must round-trip through kill -9, orphans
// left by a crash between segment write and manifest rename must be
// garbage-collected (never loaded), and a damaged segment file must
// fail the whole restore rather than serve partial state.

TEST(SegmentFileTest, MultiSegmentChainSurvivesCrashAndReopen) {
  JaccardPredicate pred(0.5);
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 134, .vocabulary = 50}, 98);
  ServiceOptions options;
  options.num_shards = 3;
  options.memtable_limit = 0;
  options.data_dir = FreshDataDir("seg_chain_crash");
  options.wal_sync = WalSyncPolicy::kNever;
  ServiceOptions twin_options = options;
  twin_options.data_dir.clear();

  auto durable = std::make_unique<SimilarityService>(Slice(corpus, 0, 90),
                                                     pred, options);
  ASSERT_TRUE(durable->durability_status().ok())
      << durable->durability_status().ToString();
  SimilarityService twin(Slice(corpus, 0, 90), pred, twin_options);

  auto crash_and_reopen = [&](const std::string& context) {
    durable.reset();
    Result<std::unique_ptr<SimilarityService>> reopened =
        SimilarityService::Open(pred, options);
    ASSERT_TRUE(reopened.ok()) << context << " "
                               << reopened.status().ToString();
    durable = std::move(reopened).value();
  };

  // Geometric descending deltas (30/10/4) deepen the chain to four
  // segments; a kill -9 after every compaction must bring the whole
  // chain back from its segment files.
  RecordId next = 90;
  for (size_t batch : {size_t{30}, size_t{10}, size_t{4}}) {
    const std::string context = "batch=" + std::to_string(batch);
    for (size_t i = 0; i < batch; ++i, ++next) {
      ASSERT_EQ(durable->Insert(corpus.record(next), corpus.text(next)), next)
          << context;
      ASSERT_EQ(twin.Insert(corpus.record(next), corpus.text(next)), next)
          << context;
    }
    durable->Compact();
    twin.Compact();
    crash_and_reopen(context);
    ASSERT_EQ(durable->stats().segments, twin.stats().segments) << context;
  }
  ASSERT_EQ(twin.stats().segments, 4u);
  ASSERT_EQ(ListSegmentFiles(options.data_dir).size(), 4u);

  // Deletes across three different segments, crashed over while still
  // tombstones (WAL-only), then folded into dead masks after reopen.
  for (RecordId victim : {RecordId{5}, RecordId{100}, RecordId{131}}) {
    ASSERT_TRUE(durable->Delete(victim));
    ASSERT_TRUE(twin.Delete(victim));
  }
  crash_and_reopen("post-delete");
  ASSERT_EQ(durable->tombstone_count(), 3u);
  durable->Compact();
  twin.Compact();
  ASSERT_EQ(durable->stats().segments, 4u);
  crash_and_reopen("post-mask-fold");
  ASSERT_EQ(durable->stats().segments, 4u);
  ExpectSameService(twin, *durable, corpus, 67, "chain-crash");
}

TEST(SegmentFileTest, OrphanSegmentFilesAreCollectedAtOpen) {
  OverlapPredicate pred(3);
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 25, .vocabulary = 20}, 95);
  ServiceOptions options;
  options.data_dir = FreshDataDir("seg_orphan");
  options.wal_sync = WalSyncPolicy::kNever;
  { SimilarityService service(corpus, pred, options); }
  const std::set<uint64_t> referenced = ListSegmentFiles(options.data_dir);
  ASSERT_FALSE(referenced.empty());

  // Plant an orphan with an id the manifest does not reference and a
  // garbage payload: GC must unlink it by name, never parse it.
  const uint64_t orphan_id = 999;
  ASSERT_EQ(referenced.count(orphan_id), 0u);
  WriteAll(SegmentFilePath(options.data_dir, orphan_id), "not a segment");
  Result<std::unique_ptr<SimilarityService>> restored =
      SimilarityService::Open(pred, options);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(ListSegmentFiles(options.data_dir), referenced);

  ServiceOptions twin_options = options;
  twin_options.data_dir.clear();
  SimilarityService twin(corpus, pred, twin_options);
  ExpectSameService(twin, *restored.value(), corpus, 43, "orphan-gc");
}

TEST(SegmentFileTest, SegmentsWrittenBeforeManifestRenameAreOrphansOnReopen) {
  JaccardPredicate pred(0.5);
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 40, .vocabulary = 30}, 97);
  ServiceOptions options;
  options.memtable_limit = 0;
  options.data_dir = FreshDataDir("seg_rename_crash");
  options.wal_sync = WalSyncPolicy::kNever;
  ServiceOptions twin_options = options;
  twin_options.data_dir.clear();

  SimilarityService service(corpus, pred, options);
  SimilarityService twin(corpus, pred, twin_options);
  Rng rng(53);
  ZipfTable zipf(30, 0.9);
  RecordSet contents = corpus;
  for (int i = 0; i < 5; ++i) {
    auto [record, text] = MakeRandomRecord(rng, zipf);
    contents.Add(record, text);
    service.Insert(record.view(), text);
    twin.Insert(record.view(), text);
  }
  service.Compact();
  twin.Compact();
  ASSERT_TRUE(service.durability_status().ok())
      << service.durability_status().ToString();

  // Snapshot checkpoint A in full: manifest, WAL and segment files.
  std::map<std::string, std::string> state_a;
  state_a[CheckpointFilePath(options.data_dir)] =
      ReadAll(CheckpointFilePath(options.data_dir));
  const std::set<uint64_t> files_a = ListSegmentFiles(options.data_dir);
  for (uint64_t id : files_a) {
    const std::string path = SegmentFilePath(options.data_dir, id);
    state_a[path] = ReadAll(path);
  }

  // Six more inserts, WAL snapshot, then checkpoint B (which writes new
  // segment files, renames the manifest, GCs merged-away files of A and
  // resets the WAL).
  for (int i = 0; i < 6; ++i) {
    auto [record, text] = MakeRandomRecord(rng, zipf);
    contents.Add(record, text);
    service.Insert(record.view(), text);
    twin.Insert(record.view(), text);
  }
  const std::string wal_b = ReadAll(WalFilePath(options.data_dir));
  service.Compact();
  ASSERT_TRUE(service.durability_status().ok())
      << service.durability_status().ToString();
  ASSERT_NE(ListSegmentFiles(options.data_dir), files_a);

  // Reconstruct the exact on-disk state of a crash between B's segment
  // writes and B's manifest rename: A's manifest and segment files
  // intact, the WAL still holding the six insert frames, and B's fresh
  // segment files sitting unreferenced.
  for (const auto& [path, bytes] : state_a) WriteAll(path, bytes);
  WriteAll(WalFilePath(options.data_dir), wal_b);

  Result<std::unique_ptr<SimilarityService>> restored =
      SimilarityService::Open(pred, options);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  // B's segments were GCed; exactly A's files remain.
  EXPECT_EQ(ListSegmentFiles(options.data_dir), files_a);
  // Checkpoint A + WAL replay of the six inserts = the twin's state
  // (those inserts sit in the memtable on both sides).
  EXPECT_EQ(restored.value()->memtable_size(), 6u);
  ExpectSameService(twin, *restored.value(), contents, 61, "rename-crash");
}

TEST(SegmentFileTest, CorruptSegmentFileIsRejected) {
  OverlapPredicate pred(3);
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 20, .vocabulary = 15}, 96);
  ServiceOptions options;
  options.data_dir = FreshDataDir("seg_corrupt");
  options.wal_sync = WalSyncPolicy::kNever;
  { SimilarityService service(corpus, pred, options); }
  const std::set<uint64_t> files = ListSegmentFiles(options.data_dir);
  ASSERT_FALSE(files.empty());
  const std::string path = SegmentFilePath(options.data_dir, *files.begin());
  const std::string bytes = ReadAll(path);

  // One flipped byte at several depths: magic, body, trailing CRC.
  for (size_t pos : {size_t{1}, bytes.size() / 2, bytes.size() - 2}) {
    std::string corrupted = bytes;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x20);
    WriteAll(path, corrupted);
    Result<std::unique_ptr<SimilarityService>> restored =
        SimilarityService::Open(pred, options);
    ASSERT_FALSE(restored.ok()) << "pos=" << pos;
    EXPECT_NE(restored.status().message().find("corrupt checkpoint"),
              std::string::npos)
        << restored.status().ToString();
  }
  // Truncations and outright absence fail too.
  for (size_t cut = 1; cut < bytes.size(); cut += 131) {
    WriteAll(path, bytes.substr(0, bytes.size() - cut));
    EXPECT_FALSE(SimilarityService::Open(pred, options).ok()) << "cut=" << cut;
  }
  ::unlink(path.c_str());
  EXPECT_FALSE(SimilarityService::Open(pred, options).ok());
  // The pristine bytes still restore.
  WriteAll(path, bytes);
  EXPECT_TRUE(SimilarityService::Open(pred, options).ok());
}

TEST(SegmentFileTest, OldVersionSegmentIsRejectedWithClearError) {
  OverlapPredicate pred(3);
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 20, .vocabulary = 15}, 99);
  ServiceOptions options;
  options.data_dir = FreshDataDir("seg_old_version");
  options.wal_sync = WalSyncPolicy::kNever;
  { SimilarityService service(corpus, pred, options); }
  const std::set<uint64_t> files = ListSegmentFiles(options.data_dir);
  ASSERT_FALSE(files.empty());
  const std::string path = SegmentFilePath(options.data_dir, *files.begin());
  const std::string bytes = ReadAll(path);

  // Rewind the version field (fixed32 right after the 4-byte magic) to
  // each superseded layout — v1 (pre-bitmap), v2 (varint-packed, the
  // pre-out-of-core layout) and v3 (with the token-bitmap block) — and
  // reseal the CRC: the file is structurally intact, so the rejection
  // must come from the version gate with an error an operator can act
  // on — not a generic corruption message.
  for (const uint32_t version : {uint32_t{1}, uint32_t{2}, uint32_t{3}}) {
    std::string old_version = bytes;
    std::memcpy(old_version.data() + 4, &version, sizeof(version));
    WriteAll(path, Reseal(std::move(old_version)));
    Result<std::unique_ptr<SimilarityService>> restored =
        SimilarityService::Open(pred, options);
    ASSERT_FALSE(restored.ok()) << "version=" << version;
    EXPECT_NE(
        restored.status().message().find("unsupported segment version"),
        std::string::npos)
        << restored.status().ToString();
  }

  // The pristine (current-version) bytes still restore.
  WriteAll(path, bytes);
  EXPECT_TRUE(SimilarityService::Open(pred, options).ok());
}

TEST(SegmentFileTest, TruncatedSegmentMapFailsAsStatus) {
  // A segment file cut short must surface as a clean Status from the
  // opener — never a SIGBUS from dereferencing a mapping past EOF. The
  // header records the file size, so every truncation (even mid-header)
  // is caught before any section pointer is formed.
  OverlapPredicate pred(3);
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 20, .vocabulary = 15}, 103);
  ServiceOptions options;
  options.data_dir = FreshDataDir("seg_truncated_map");
  options.wal_sync = WalSyncPolicy::kNever;
  { SimilarityService service(corpus, pred, options); }
  const std::set<uint64_t> files = ListSegmentFiles(options.data_dir);
  ASSERT_FALSE(files.empty());
  const std::string path = SegmentFilePath(options.data_dir, *files.begin());
  const std::string bytes = ReadAll(path);

  for (size_t keep : {bytes.size() - 1, bytes.size() / 2, bytes.size() / 8,
                      size_t{70}, size_t{12}, size_t{3}, size_t{0}}) {
    WriteAll(path, bytes.substr(0, keep));
    Result<std::unique_ptr<SimilarityService>> restored =
        SimilarityService::Open(pred, options);
    ASSERT_FALSE(restored.ok()) << "keep=" << keep;
    EXPECT_NE(restored.status().message().find("corrupt checkpoint"),
              std::string::npos)
        << "keep=" << keep << ": " << restored.status().ToString();
  }

  WriteAll(path, bytes);
  EXPECT_TRUE(SimilarityService::Open(pred, options).ok());
}

TEST(SegmentFileTest, MutatedPostingIdsAreRejectedAtEveryBudget) {
  // Posting ids the part cannot hold, behind a resealed whole-file CRC:
  // every open proves the postings in place, so at every resident budget
  // the open is refused with the shard-index error, instead of serving
  // probes that index past the member tables (every id 0x7FFFFFF0) or
  // answer from the wrong members (the first 32 ids set to 63, past the
  // part's 60 members).
  JaccardPredicate pred(0.5);
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 60, .vocabulary = 40}, 137);
  ServiceOptions options;
  options.data_dir = FreshDataDir("seg_posting_ids");
  options.wal_sync = WalSyncPolicy::kNever;
  { SimilarityService service(corpus, pred, options); }
  const std::set<uint64_t> files = ListSegmentFiles(options.data_dir);
  ASSERT_EQ(files.size(), 1u);
  const std::string path = SegmentFilePath(options.data_dir, *files.begin());
  const std::string bytes = ReadAll(path);

  // The one shard's header entry starts at byte 64 (members, shorts,
  // postings_cap as fixed64s), and its postings are the file's last
  // section: postings_cap 16-byte slots (u32 id, 4 padding bytes, double
  // score), 64-byte-aligned, just before the trailing CRC.
  uint64_t members = 0;
  uint64_t postings_cap = 0;
  std::memcpy(&members, bytes.data() + 64, sizeof(members));
  std::memcpy(&postings_cap, bytes.data() + 80, sizeof(postings_cap));
  ASSERT_EQ(members, 60u);
  ASSERT_GE(postings_cap, 32u);
  constexpr size_t kSlot = 16;
  const size_t postings_off = bytes.size() - sizeof(uint32_t) -
                              (postings_cap * kSlot + 63) / 64 * 64;
  auto with_ids = [&](size_t slots, uint32_t id) {
    std::string mutated = bytes;
    for (size_t i = 0; i < slots; ++i) {
      std::memcpy(mutated.data() + postings_off + i * kSlot, &id, sizeof(id));
    }
    return Reseal(std::move(mutated));
  };
  const std::vector<std::pair<std::string, std::string>> mutations = {
      {"every id 0x7FFFFFF0", with_ids(postings_cap, 0x7FFFFFF0u)},
      {"first 32 ids 63", with_ids(32, 63)}};
  for (const auto& [tag, mutated] : mutations) {
    WriteAll(path, mutated);
    for (const uint64_t budget : {uint64_t{0}, uint64_t{1}}) {
      ServiceOptions budgeted = options;
      budgeted.resident_budget_bytes = budget;
      Result<std::unique_ptr<SimilarityService>> restored =
          SimilarityService::Open(pred, budgeted);
      ASSERT_FALSE(restored.ok()) << tag << " budget=" << budget;
      EXPECT_NE(restored.status().message().find("bad segment shard index"),
                std::string::npos)
          << tag << " budget=" << budget << ": "
          << restored.status().ToString();
    }
  }

  WriteAll(path, bytes);
  EXPECT_TRUE(SimilarityService::Open(pred, options).ok());
}

TEST(CrashRecoveryTest, PredicateMismatchIsRejected) {
  JaccardPredicate jaccard(0.5);
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 15, .vocabulary = 12}, 94);
  ServiceOptions options;
  options.data_dir = FreshDataDir("cp_pred_mismatch");
  options.wal_sync = WalSyncPolicy::kNever;
  { SimilarityService service(corpus, jaccard, options); }

  OverlapPredicate overlap(3);
  Result<std::unique_ptr<SimilarityService>> restored =
      SimilarityService::Open(overlap, options);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(restored.status().message().find("jaccard"), std::string::npos)
      << restored.status().ToString();

  Result<std::unique_ptr<SimilarityService>> correct =
      SimilarityService::Open(jaccard, options);
  EXPECT_TRUE(correct.ok()) << correct.status().ToString();
}

// The fingerprint carries the predicate's parameters, not only its name.
// A data dir written under jaccard 0.5 must not reopen as jaccard 0.7,
// and one written under edit distance k = 1 must not reopen under k = 2,
// whose short-record pools (sized by q(k - 1)) its segments do not hold.
TEST(CrashRecoveryTest, ParameterMismatchIsRejected) {
  auto expect_rejected = [](const std::string& name, RecordSet corpus,
                            const Predicate& written,
                            const Predicate& reopened) {
    ServiceOptions options;
    options.data_dir = FreshDataDir(name);
    options.wal_sync = WalSyncPolicy::kNever;
    { SimilarityService service(std::move(corpus), written, options); }
    Result<std::unique_ptr<SimilarityService>> restored =
        SimilarityService::Open(reopened, options);
    ASSERT_FALSE(restored.ok()) << name;
    EXPECT_EQ(restored.status().code(), StatusCode::kFailedPrecondition)
        << restored.status().ToString();
    EXPECT_NE(restored.status().message().find(written.fingerprint()),
              std::string::npos)
        << restored.status().ToString();
    Result<std::unique_ptr<SimilarityService>> correct =
        SimilarityService::Open(written, options);
    EXPECT_TRUE(correct.ok()) << name << ": " << correct.status().ToString();
  };

  expect_rejected("cp_param_jaccard",
                  testing_util::MakeRandomRecordSet(
                      {.num_records = 15, .vocabulary = 12}, 95),
                  JaccardPredicate(0.5), JaccardPredicate(0.7));

  TokenDictionary dict;
  RecordSet grams = BuildQGramCorpus(
      {"main street", "main streat", "elm road", "elm rd", "oak", "oaks"},
      /*q=*/3, &dict);
  expect_rejected("cp_param_edit_distance", std::move(grams),
                  EditDistancePredicate(1, 3), EditDistancePredicate(2, 3));
}

TEST(CrashRecoveryTest, OpenWithoutDataDirOrCheckpointFails) {
  OverlapPredicate pred(3);
  EXPECT_FALSE(SimilarityService::Open(pred, ServiceOptions{}).ok());
  ServiceOptions options;
  options.data_dir = FreshDataDir("cp_missing");
  Result<std::unique_ptr<SimilarityService>> restored =
      SimilarityService::Open(pred, options);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kIOError);
}

// ---------------------------------------------------------------------
// Mutation fuzz of the segment-file and manifest decoders. Each input
// overwrites 1-4 bytes (deterministic PCG32 draws) and reseals the
// trailing CRC, so the structural checks behind the checksum are what
// must reject it. Every input must give a Status or a service that
// answers queries — never a crash (this suite runs under ASan/UBSan).

/// Overwrites 1-4 bytes before the trailing CRC with different values,
/// then reseals the CRC.
std::string Mutate(std::string bytes, Rng& rng) {
  const int count = rng.UniformInt(1, 4);
  for (int i = 0; i < count; ++i) {
    const size_t pos = rng.UniformU32(
        static_cast<uint32_t>(bytes.size() - sizeof(uint32_t)));
    bytes[pos] = static_cast<char>(bytes[pos] ^ (1 + rng.UniformU32(255)));
  }
  return Reseal(std::move(bytes));
}

/// Runs every record of `corpus` as a thresholded and a top-k lookup.
void QueryAll(const SimilarityService& service, const RecordSet& corpus) {
  for (RecordId r = 0; r < corpus.size(); ++r) {
    service.Query(corpus.record(r), corpus.text(r));
    service.QueryTopK(corpus.record(r), 5, corpus.text(r));
  }
}

TEST(DecoderFuzzTest, MutatedSegmentFileGivesStatusOrWorkingService) {
  JaccardPredicate pred(0.5);
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 60, .vocabulary = 40}, 127);
  ServiceOptions options;
  options.num_shards = 3;
  options.data_dir = FreshDataDir("fuzz_segment");
  options.wal_sync = WalSyncPolicy::kNever;
  { SimilarityService service(corpus, pred, options); }
  const std::set<uint64_t> files = ListSegmentFiles(options.data_dir);
  ASSERT_EQ(files.size(), 1u);
  const std::string path = SegmentFilePath(options.data_dir, *files.begin());
  const std::string bytes = ReadAll(path);

  Rng rng(0x5e6f);
  int accepted = 0;
  for (int i = 0; i < 400; ++i) {
    WriteAll(path, Mutate(bytes, rng));
    // Open proves the whole mapped file, so whatever it accepts must be
    // safe to query.
    Result<std::unique_ptr<SimilarityService>> opened =
        SimilarityService::Open(pred, options);
    if (opened.ok()) {
      ++accepted;
      QueryAll(*opened.value(), corpus);
    } else {
      EXPECT_EQ(opened.status().code(), StatusCode::kIOError)
          << "mutation " << i << ": " << opened.status().ToString();
    }
  }
  // Some mutations land where nothing can check them (scores, texts,
  // padding); most must be caught.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, 200);
  WriteAll(path, bytes);
  EXPECT_TRUE(SimilarityService::Open(pred, options).ok());
}

TEST(DecoderFuzzTest, MutatedManifestGivesStatusOrWorkingService) {
  JaccardPredicate pred(0.5);
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 78, .vocabulary = 40}, 131);
  ServiceOptions options;
  options.num_shards = 3;
  options.memtable_limit = 0;
  options.data_dir = FreshDataDir("fuzz_manifest");
  options.wal_sync = WalSyncPolicy::kNever;
  {
    // Descending batches stack a four-segment chain; the deletes then
    // fold into dead masks across it.
    SimilarityService service(Slice(corpus, 0, 50), pred, options);
    RecordId next = 50;
    for (size_t batch : {size_t{20}, size_t{6}, size_t{2}}) {
      for (size_t i = 0; i < batch; ++i, ++next) {
        service.Insert(corpus.record(next), corpus.text(next));
      }
      service.Compact();
    }
    for (RecordId id = 3; id < corpus.size(); id += 11) {
      ASSERT_TRUE(service.Delete(id));
    }
    service.Compact();
    ASSERT_TRUE(service.durability_status().ok())
        << service.durability_status().ToString();
    ASSERT_EQ(service.stats().segments, 4u);
  }
  const std::string manifest = CheckpointFilePath(options.data_dir);
  std::map<std::string, std::string> pristine;
  pristine[manifest] = ReadAll(manifest);
  pristine[WalFilePath(options.data_dir)] =
      ReadAll(WalFilePath(options.data_dir));
  for (uint64_t id : ListSegmentFiles(options.data_dir)) {
    const std::string path = SegmentFilePath(options.data_dir, id);
    pristine[path] = ReadAll(path);
  }

  Rng rng(0x3a11);
  int accepted = 0;
  for (int i = 0; i < 400; ++i) {
    for (const auto& [path, bytes] : pristine) WriteAll(path, bytes);
    WriteAll(manifest, Mutate(pristine[manifest], rng));
    {
      Result<std::unique_ptr<SimilarityService>> opened =
          SimilarityService::Open(pred, options);
      if (!opened.ok()) continue;
      ++accepted;
      SimilarityService& service = *opened.value();
      QueryAll(service, corpus);
      // Whatever deletion state an accepted manifest decodes to must hold
      // together: once every corpus id is deleted nothing answers, and
      // the compaction that folds those deletes leaves a data dir that
      // reopens.
      for (RecordId id = 0; id < corpus.size(); ++id) service.Delete(id);
      size_t answering = 0;
      for (RecordId r = 0; r < corpus.size(); ++r) {
        if (!service.Query(corpus.record(r), corpus.text(r)).empty()) {
          ++answering;
        }
      }
      EXPECT_EQ(answering, 0u) << "mutation " << i;
      service.Compact();
      EXPECT_TRUE(service.durability_status().ok())
          << "mutation " << i << ": "
          << service.durability_status().ToString();
    }
    Result<std::unique_ptr<SimilarityService>> reopened =
        SimilarityService::Open(pred, options);
    EXPECT_TRUE(reopened.ok())
        << "mutation " << i << ": " << reopened.status().ToString();
    if (reopened.ok()) {
      EXPECT_EQ(reopened.value()->size(), 0u) << "mutation " << i;
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, 200);
  for (const auto& [path, bytes] : pristine) WriteAll(path, bytes);
  EXPECT_TRUE(SimilarityService::Open(pred, options).ok());
}

/// Byte extents [begin, end) of every frame payload in a WAL file: the
/// 8-byte header, then per frame a fixed32 length, a fixed32 CRC and the
/// payload.
std::vector<std::pair<size_t, size_t>> WalPayloads(const std::string& wal) {
  std::vector<std::pair<size_t, size_t>> payloads;
  size_t offset = 8;
  uint32_t length = 0;
  while (GetFixed32(wal, &offset, &length)) {
    const size_t begin = offset + sizeof(uint32_t);
    payloads.emplace_back(begin, begin + length);
    offset = begin + length;
  }
  return payloads;
}

// WAL frames: the CRC guards against torn writes, not against a frame
// that checks out and still says nonsense. Each input overwrites 1-4
// bytes inside one frame's payload and reseals that frame's CRC, so the
// payload decoder and the replay behind it are what must cope.
TEST(DecoderFuzzTest, MutatedWalFrameGivesStatusOrWorkingService) {
  JaccardPredicate pred(0.5);
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 60, .vocabulary = 40}, 137);
  ServiceOptions options;
  options.num_shards = 3;
  options.memtable_limit = 0;
  options.data_dir = FreshDataDir("fuzz_wal");
  options.wal_sync = WalSyncPolicy::kNever;
  {
    // Every op after the constructor's checkpoint stays in the WAL tail.
    SimilarityService service(Slice(corpus, 0, 40), pred, options);
    for (RecordId id = 40; id < 52; ++id) {
      service.Insert(corpus.record(id), corpus.text(id));
    }
    for (RecordId id = 5; id < 52; id += 9) ASSERT_TRUE(service.Delete(id));
    ASSERT_TRUE(service.durability_status().ok())
        << service.durability_status().ToString();
  }
  {
    // A compact marker (what a compaction whose checkpoint failed leaves
    // behind) with more inserts and a delete after it.
    const std::string path = WalFilePath(options.data_dir);
    Result<WriteAheadLog> wal =
        WriteAheadLog::Open(path, WalSyncPolicy::kNever, nullptr);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    uint64_t seq = wal.value().last_seq();
    ASSERT_TRUE(wal.value().AppendCompact(++seq).ok());
    for (RecordId id = 52; id < 60; ++id) {
      ASSERT_TRUE(
          wal.value().AppendInsert(++seq, corpus.record(id), corpus.text(id))
              .ok());
    }
    ASSERT_TRUE(wal.value().AppendDelete(++seq, 42).ok());
  }
  std::map<std::string, std::string> pristine;
  pristine[CheckpointFilePath(options.data_dir)] =
      ReadAll(CheckpointFilePath(options.data_dir));
  for (uint64_t id : ListSegmentFiles(options.data_dir)) {
    const std::string path = SegmentFilePath(options.data_dir, id);
    pristine[path] = ReadAll(path);
  }
  const std::string wal_path = WalFilePath(options.data_dir);
  const std::string wal = ReadAll(wal_path);
  const std::vector<std::pair<size_t, size_t>> payloads = WalPayloads(wal);
  ASSERT_EQ(payloads.size(), 12u + 6u + 1u + 8u + 1u);
  {
    Result<std::unique_ptr<SimilarityService>> opened =
        SimilarityService::Open(pred, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ASSERT_EQ(opened.value()->size(), 60u - 6u - 1u);
  }

  Rng rng(0x3a1f);
  int accepted = 0;
  for (int i = 0; i < 400; ++i) {
    for (const auto& [path, bytes] : pristine) WriteAll(path, bytes);
    std::string mutated = wal;
    const auto [begin, end] =
        payloads[rng.UniformU32(static_cast<uint32_t>(payloads.size()))];
    const int count = rng.UniformInt(1, 4);
    for (int m = 0; m < count; ++m) {
      const size_t pos =
          begin + rng.UniformU32(static_cast<uint32_t>(end - begin));
      mutated[pos] = static_cast<char>(mutated[pos] ^ (1 + rng.UniformU32(255)));
    }
    const uint32_t crc = Crc32(mutated.data() + begin, end - begin);
    std::memcpy(mutated.data() + begin - sizeof(uint32_t), &crc, sizeof(crc));
    WriteAll(wal_path, mutated);
    Result<std::unique_ptr<SimilarityService>> opened =
        SimilarityService::Open(pred, options);
    if (opened.ok()) {
      ++accepted;
      QueryAll(*opened.value(), corpus);
    }
  }
  // Scores, texts and many ids decode to other valid operations; kinds,
  // lengths and varint structure mostly do not.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, 400);
  for (const auto& [path, bytes] : pristine) WriteAll(path, bytes);
  WriteAll(wal_path, wal);
  EXPECT_TRUE(SimilarityService::Open(pred, options).ok());
}

}  // namespace
}  // namespace ssjoin
