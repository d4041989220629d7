// Differential tests for the sharded serving tier: a SimilarityService
// with ANY shard count must answer Query/BatchQuery/QueryTopK
// byte-identically to the 1-shard service, and — at every compaction
// point — identically to a fresh batch self-join over the SURVIVING
// records (deletes are tombstoned, then physically dropped).
//
// The main harness is randomized: a PCG32-scripted schedule of
// Insert/Query/Delete/Compact steps — including delete-then-reinsert
// and delete-of-unknown-id probes — driven across shard counts
// {1, 2, 7} simultaneously, for several seeds and predicates. Nightly
// CI widens the sweep via SSJOIN_DIFF_SEEDS (and
// SSJOIN_DIFF_PREDICATES filters by predicate name for matrix jobs).

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cosine_predicate.h"
#include "core/jaccard_predicate.h"
#include "core/join.h"
#include "core/overlap_predicate.h"
#include "serve/similarity_service.h"
#include "serve/snapshot.h"
#include "test_util.h"
#include "util/rng.h"

namespace ssjoin {
namespace {

using testing_util::FreshDataDir;
using testing_util::Slice;

constexpr size_t kShardCounts[] = {1, 2, 7};

ServiceOptions ShardOptions(size_t num_shards, size_t memtable_limit = 0) {
  ServiceOptions options;
  options.num_shards = num_shards;
  options.memtable_limit = memtable_limit;
  return options;
}

/// Byte-identity over QueryMatch lists: same ids, bit-equal scores.
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

/// Random record in the harness vocabulary, text synthesized the same
/// way test_util does so text-based predicates stay usable.
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

/// Partner sets of a fresh batch self-join (the ground truth the
/// 1-shard service is held to at compaction points).
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

/// Full differential sweep: every corpus record's CONTENT queried
/// against every service (deleted records become out-of-corpus probes).
/// The 1-shard reference must reproduce the partner sets of a fresh
/// batch self-join over the survivors only — the ground truth for
/// tombstoned deletes — and every other shard count must be
/// byte-identical to the reference, for Query and for QueryTopK.
void SweepAllRecords(
    const std::vector<std::unique_ptr<SimilarityService>>& services,
    const RecordSet& corpus, const std::vector<bool>& alive,
    const Predicate& pred, const std::string& context) {
  RecordSet survivors;
  std::vector<RecordId> gids;          // survivor local id -> global id
  std::vector<RecordId> locals(corpus.size(), 0);  // global -> local
  for (RecordId id = 0; id < corpus.size(); ++id) {
    if (alive[id]) {
      locals[id] = static_cast<RecordId>(gids.size());
      survivors.Add(corpus.record(id), corpus.text(id));
      gids.push_back(id);
    }
  }
  std::map<RecordId, std::set<RecordId>> partners =
      JoinPartners(survivors, pred);
  for (RecordId r = 0; r < corpus.size(); ++r) {
    std::vector<QueryMatch> reference =
        services[0]->Query(corpus.record(r), corpus.text(r));
    for (const QueryMatch& m : reference) {
      EXPECT_TRUE(alive[m.id])
          << context << " deleted id " << m.id << " answered";
    }
    if (alive[r]) {
      std::set<RecordId> expected;
      for (RecordId p : partners[locals[r]]) expected.insert(gids[p]);
      std::set<RecordId> answered;
      for (const QueryMatch& m : reference) {
        if (m.id != r) answered.insert(m.id);
      }
      EXPECT_EQ(answered, expected)
          << context << " survivor-join mismatch, record " << r;
    }
    std::vector<QueryMatch> topk_reference =
        services[0]->QueryTopK(corpus.record(r), 8, corpus.text(r));
    for (const QueryMatch& m : topk_reference) {
      EXPECT_TRUE(alive[m.id])
          << context << " deleted id " << m.id << " in topk";
    }
    for (size_t i = 1; i < services.size(); ++i) {
      ExpectSameMatches(
          reference, services[i]->Query(corpus.record(r), corpus.text(r)),
          context + " query shards=" +
              std::to_string(services[i]->num_shards()));
      ExpectSameMatches(
          topk_reference,
          services[i]->QueryTopK(corpus.record(r), 8, corpus.text(r)),
          context + " topk shards=" +
              std::to_string(services[i]->num_shards()));
    }
  }
}

/// One scripted run: services at every shard count fed the identical
/// schedule of queries, inserts, deletes (of live, already-deleted and
/// unknown ids, plus delete-then-reinserts) and compactions.
void RunDifferential(const Predicate& pred, const std::string& pred_name,
                     uint64_t seed) {
  constexpr uint32_t kVocabulary = 60;
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 90, .vocabulary = kVocabulary}, seed * 3 + 1);
  std::vector<std::unique_ptr<SimilarityService>> services;
  for (size_t shards : kShardCounts) {
    services.push_back(std::make_unique<SimilarityService>(
        corpus, pred, ShardOptions(shards)));
  }
  // A collapsed-chain rider (segment_merge_ratio = 0 folds the whole
  // chain on every compaction — the pre-segmented behaviour): the
  // scripted schedule thereby bit-compares the segment-chained services
  // against a single-segment one at every step.
  {
    ServiceOptions collapsed = ShardOptions(2);
    collapsed.segment_merge_ratio = 0;
    services.push_back(
        std::make_unique<SimilarityService>(corpus, pred, collapsed));
  }
  // Out-of-core rider: a durable twin, which serves every segment from
  // its mapped `.sseg` file, under a tiny resident budget that advises
  // all but the newest segment out of memory; bit-compared against the
  // in-heap reference at every step, and checked to stay fully mapped
  // after construction and after every compaction.
  SimilarityService* mapped_rider = nullptr;
  {
    ServiceOptions rider = ShardOptions(2);
    rider.data_dir =
        FreshDataDir("shard_ooc_" + pred_name + "_" + std::to_string(seed));
    rider.wal_sync = WalSyncPolicy::kNever;
    rider.resident_budget_bytes = 1;
    services.push_back(
        std::make_unique<SimilarityService>(corpus, pred, rider));
    mapped_rider = services.back().get();
  }
  auto expect_rider_mapped = [&](const std::string& context) {
    const ServiceStats stats = mapped_rider->stats();
    EXPECT_GT(stats.segments, 0u) << context;
    EXPECT_EQ(stats.mapped_segments, stats.segments) << context;
  };
  expect_rider_mapped(pred_name + " construction");
  std::vector<bool> alive(corpus.size(), true);
  std::vector<RecordId> dead;  // ids whose deletes succeeded
  Rng rng(seed * 977 + 13);
  ZipfTable zipf(kVocabulary, 0.9);
  const std::string tag = pred_name + " seed=" + std::to_string(seed);
  // Every service must agree with the reference on a Delete's outcome.
  auto delete_everywhere = [&](RecordId id, bool expect_hit,
                               const std::string& context) {
    EXPECT_EQ(services[0]->Delete(id), expect_hit) << context;
    for (size_t i = 1; i < services.size(); ++i) {
      EXPECT_EQ(services[i]->Delete(id), expect_hit) << context;
    }
  };
  for (int step = 0; step < 70; ++step) {
    const std::string context = tag + " step=" + std::to_string(step);
    uint32_t u = rng.UniformU32(100);
    if (u < 45) {
      // Point query (random probe, in- or out-of-corpus) + top-k,
      // byte-compared across all shard counts.
      auto [record, text] = MakeRandomRecord(rng, zipf);
      std::vector<QueryMatch> reference =
          services[0]->Query(record.view(), text);
      std::vector<QueryMatch> topk_reference =
          services[0]->QueryTopK(record.view(), 5, text);
      for (size_t i = 1; i < services.size(); ++i) {
        ExpectSameMatches(reference, services[i]->Query(record.view(), text),
                          context + " query");
        ExpectSameMatches(topk_reference,
                          services[i]->QueryTopK(record.view(), 5, text),
                          context + " topk");
      }
    } else if (u < 70) {
      // Insert the same record everywhere; ids must agree.
      auto [record, text] = MakeRandomRecord(rng, zipf);
      corpus.Add(record, text);
      alive.push_back(true);
      RecordId expected_id = services[0]->Insert(record.view(), text);
      EXPECT_EQ(expected_id, corpus.size() - 1) << context;
      for (size_t i = 1; i < services.size(); ++i) {
        EXPECT_EQ(expected_id, services[i]->Insert(record.view(), text))
            << context;
      }
    } else if (u < 82) {
      // Delete: a live id, an already-deleted id, or an unknown id —
      // all three outcomes must agree across shard counts.
      uint32_t mode = rng.UniformU32(4);
      if (mode == 0) {
        delete_everywhere(static_cast<RecordId>(corpus.size()) + 7, false,
                          context + " delete-unknown");
      } else if (mode == 1 && !dead.empty()) {
        delete_everywhere(dead[rng.UniformU32(
                              static_cast<uint32_t>(dead.size()))],
                          false, context + " delete-dead");
      } else {
        // Linear-probe from a random start for a live victim.
        RecordId victim =
            rng.UniformU32(static_cast<uint32_t>(corpus.size()));
        RecordId tried = 0;
        while (!alive[victim] && tried < corpus.size()) {
          victim = (victim + 1) % static_cast<RecordId>(corpus.size());
          ++tried;
        }
        if (alive[victim]) {
          delete_everywhere(victim, true, context + " delete-live");
          alive[victim] = false;
          dead.push_back(victim);
        }
      }
    } else if (u < 88) {
      // Delete-then-reinsert: resurrect a dead record's CONTENT under a
      // fresh id; the old id must stay dead.
      if (!dead.empty()) {
        RecordId old =
            dead[rng.UniformU32(static_cast<uint32_t>(dead.size()))];
        // Deep-copy before the self-append: Add may grow the arena the
        // view points into.
        Record revived = Record::FromView(corpus.record(old));
        std::string text = corpus.text(old);
        corpus.Add(revived.view(), text);
        alive.push_back(true);
        RecordId fresh = services[0]->Insert(revived.view(), text);
        EXPECT_EQ(fresh, corpus.size() - 1) << context;
        for (size_t i = 1; i < services.size(); ++i) {
          EXPECT_EQ(fresh, services[i]->Insert(revived.view(), text))
              << context;
        }
      }
    } else {
      // Compaction point: fold memtables and drop tombstones everywhere,
      // then the full differential sweep against the survivor join.
      for (auto& service : services) {
        service->Compact();
        EXPECT_EQ(service->tombstone_count(), 0u) << context;
        EXPECT_EQ(service->memtable_size(), 0u) << context;
      }
      SweepAllRecords(services, corpus, alive, pred,
                      context + " post-compact");
    }
    // Inserts and deletes may have compacted too (memtable_limit).
    expect_rider_mapped(context);
  }
  for (auto& service : services) service->Compact();
  expect_rider_mapped(tag + " final compaction");
  SweepAllRecords(services, corpus, alive, pred, tag + " final");
  // BatchQuery over the whole corpus must equal per-record Query.
  std::vector<std::vector<std::vector<QueryMatch>>> batched;
  for (auto& service : services) batched.push_back(service->BatchQuery(corpus));
  for (RecordId r = 0; r < corpus.size(); ++r) {
    std::vector<QueryMatch> reference =
        services[0]->Query(corpus.record(r), corpus.text(r));
    for (size_t i = 0; i < services.size(); ++i) {
      ExpectSameMatches(reference, batched[i][r],
                        tag + " batch shards=" +
                            std::to_string(services[i]->num_shards()));
    }
  }
}

int SeedCount() {
  const char* env = std::getenv("SSJOIN_DIFF_SEEDS");
  if (env == nullptr) return 10;
  int n = std::atoi(env);
  return n > 0 ? n : 10;
}

bool PredicateEnabled(const std::string& name) {
  const char* env = std::getenv("SSJOIN_DIFF_PREDICATES");
  if (env == nullptr) return true;
  return std::string(env).find(name) != std::string::npos;
}

TEST(ServeShardDifferentialTest, OverlapScriptedSchedule) {
  if (!PredicateEnabled("overlap")) GTEST_SKIP();
  OverlapPredicate pred(3);
  for (int seed = 0; seed < SeedCount(); ++seed) {
    RunDifferential(pred, "overlap", static_cast<uint64_t>(seed));
  }
}

TEST(ServeShardDifferentialTest, JaccardScriptedSchedule) {
  if (!PredicateEnabled("jaccard")) GTEST_SKIP();
  JaccardPredicate pred(0.5);
  for (int seed = 0; seed < SeedCount(); ++seed) {
    RunDifferential(pred, "jaccard", static_cast<uint64_t>(seed));
  }
}

TEST(ServeShardDifferentialTest, CosineScriptedSchedule) {
  if (!PredicateEnabled("cosine")) GTEST_SKIP();
  CosinePredicate pred(0.6);
  for (int seed = 0; seed < SeedCount(); ++seed) {
    RunDifferential(pred, "cosine", static_cast<uint64_t>(seed));
  }
}

// ---------------------------------------------------------------------
// Shard routing plumbing.

TEST(ShardBoundsTest, PartitionsVocabularyByPostingMass) {
  // Heavy mass on low token ids: bounds must still produce num_shards
  // ranges covering the whole vocabulary.
  std::vector<uint64_t> df = {100, 80, 60, 5, 5, 5, 5, 5, 5, 5};
  std::vector<TokenId> bounds = ComputeShardBounds(df, 4);
  ASSERT_EQ(bounds.size(), 3u);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LE(bounds[i - 1], bounds[i]);
  }
  EXPECT_LE(bounds.back(), df.size());
  // Every token routes to a shard in range.
  for (TokenId t = 0; t < df.size(); ++t) {
    Record r = Record::FromTokens({t});
    EXPECT_LT(RouteToShard(r.view(), bounds), 4u);
  }
}

TEST(ShardBoundsTest, DegenerateCases) {
  EXPECT_TRUE(ComputeShardBounds({5, 5, 5}, 1).empty());
  EXPECT_TRUE(ComputeShardBounds({5, 5, 5}, 0).empty());
  // More shards than vocabulary: pads, never crashes, routing stays in
  // range.
  std::vector<TokenId> bounds = ComputeShardBounds({7}, 5);
  EXPECT_EQ(bounds.size(), 4u);
  Record r = Record::FromTokens({0});
  EXPECT_LT(RouteToShard(r.view(), bounds), 5u);
  // Empty corpus.
  bounds = ComputeShardBounds({}, 3);
  EXPECT_EQ(bounds.size(), 2u);
  EXPECT_EQ(RouteToShard(RecordView(), bounds), 0u);
}

// ---------------------------------------------------------------------
// Compaction cost: only dirty shards rebuild.

TEST(ShardCompactionTest, CompactRebuildsOnlyDirtyShards) {
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 120, .vocabulary = 100}, 21);
  OverlapPredicate pred(3);
  SimilarityService service(corpus, pred, ShardOptions(4));
  ServiceStats initial = service.stats();
  ASSERT_EQ(initial.shards.size(), 4u);
  for (const ShardStats& s : initial.shards) {
    EXPECT_EQ(s.rebuilds, 1u);  // the construction-time build
  }

  Record record = Record::FromTokens({1, 2, 3, 4});
  service.Insert(record.view());
  ServiceStats after_insert = service.stats();
  size_t routed = 4;
  for (size_t s = 0; s < 4; ++s) {
    if (after_insert.shards[s].inserts == 1) {
      ASSERT_EQ(routed, 4u) << "insert routed to more than one shard";
      routed = s;
    }
  }
  ASSERT_LT(routed, 4u) << "insert routed to no shard";

  service.Compact();
  ServiceStats after_compact = service.stats();
  EXPECT_EQ(after_compact.compactions, 1u);
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(after_compact.shards[s].rebuilds, s == routed ? 2u : 1u)
        << "shard " << s;
  }

  // A corpus-statistics predicate (TF-IDF cosine) cannot compact
  // incrementally: every shard rebuilds.
  CosinePredicate cosine(0.6);
  SimilarityService cosine_service(corpus, cosine, ShardOptions(4));
  cosine_service.Insert(record.view());
  cosine_service.Compact();
  ServiceStats cosine_stats = cosine_service.stats();
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(cosine_stats.shards[s].rebuilds, 2u) << "shard " << s;
  }
}

// ---------------------------------------------------------------------
// Segment chains: geometric descending deltas grow the chain to 4+
// segments (the default size-tiered ratio 2 never fires on 90/30/10/4),
// and every answer must stay byte-identical to the collapsed
// single-segment service (segment_merge_ratio = 0) at every shard
// count — then one larger delta cascades the whole chain back into one
// segment and answers still must not move. This is the acceptance bar
// of the segmented-compaction refactor, checked deterministically (the
// randomized RunDifferential schedules also carry a collapsed rider).

TEST(ServeSegmentChainTest, DeepChainMatchesCollapsedServiceAcrossShards) {
  constexpr uint32_t kVocabulary = 60;
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 146, .vocabulary = kVocabulary}, 123);
  JaccardPredicate pred(0.5);

  std::vector<std::unique_ptr<SimilarityService>> services;
  {
    ServiceOptions collapsed = ShardOptions(1);
    collapsed.segment_merge_ratio = 0;
    services.push_back(std::make_unique<SimilarityService>(
        Slice(corpus, 0, 90), pred, collapsed));
  }
  for (size_t shards : kShardCounts) {
    services.push_back(std::make_unique<SimilarityService>(
        Slice(corpus, 0, 90), pred, ShardOptions(shards)));
  }
  std::vector<bool> alive(corpus.size(), true);
  // Records 90.. are inserted batch by batch below; mark the not-yet-
  // inserted tail dead so SweepAllRecords joins only what is served.
  for (RecordId id = 90; id < corpus.size(); ++id) alive[id] = false;

  RecordId next = 90;
  auto insert_batch = [&](size_t count, const std::string& context) {
    for (size_t i = 0; i < count; ++i, ++next) {
      alive[next] = true;
      RecordId expected =
          services[0]->Insert(corpus.record(next), corpus.text(next));
      ASSERT_EQ(expected, next) << context;
      for (size_t s = 1; s < services.size(); ++s) {
        ASSERT_EQ(services[s]->Insert(corpus.record(next), corpus.text(next)),
                  next)
            << context;
      }
    }
    for (auto& service : services) service->Compact();
    SweepAllRecords(services, corpus, alive, pred, context);
  };

  insert_batch(30, "chain batch=30");
  insert_batch(10, "chain batch=10");
  insert_batch(4, "chain batch=4");
  EXPECT_EQ(services[0]->stats().segments, 1u);
  for (size_t s = 1; s < services.size(); ++s) {
    EXPECT_EQ(services[s]->stats().segments, 4u)
        << "shards=" << services[s]->num_shards();
  }

  // Deletes spread over three different segments, then a tombstone-only
  // compaction: dead masks fold in place (live counts 89/29/10/3 trip no
  // merge), the chain stays 4 deep, answers stay identical.
  for (RecordId victim : {RecordId{5}, RecordId{100}, RecordId{131}}) {
    for (auto& service : services) {
      EXPECT_TRUE(service->Delete(victim)) << "victim " << victim;
    }
    alive[victim] = false;
  }
  for (auto& service : services) service->Compact();
  for (size_t s = 1; s < services.size(); ++s) {
    EXPECT_EQ(services[s]->stats().segments, 4u)
        << "shards=" << services[s]->num_shards();
  }
  SweepAllRecords(services, corpus, alive, pred, "chain post-delete");

  // A 12-record delta triggers the full cascade — (3,12), (10,15),
  // (29,25), (89,54) — collapsing everything into one merged segment;
  // byte-identity must survive the merges too.
  insert_batch(12, "chain cascade");
  for (size_t s = 1; s < services.size(); ++s) {
    EXPECT_EQ(services[s]->stats().segments, 1u)
        << "shards=" << services[s]->num_shards();
    EXPECT_EQ(services[s]->stats().segments_merged, 8u)
        << "shards=" << services[s]->num_shards();
  }
}

// ---------------------------------------------------------------------
// Top-k ties: duplicate records produce equal scores; the (score desc,
// id asc) order — and therefore the truncated result — must not depend
// on the shard count.

TEST(ShardTopKTest, TieBreaksByIdAcrossShardCounts) {
  RecordSet corpus;
  std::vector<TokenId> base_tokens = {2, 5, 9, 14};
  for (int copy = 0; copy < 6; ++copy) {
    corpus.Add(Record::FromTokens(base_tokens), {});
  }
  // Partial overlappers at distinct scores, plus noise sharing nothing.
  corpus.Add(Record::FromTokens({2, 5, 9, 30}), {});
  corpus.Add(Record::FromTokens({2, 5, 31, 32}), {});
  corpus.Add(Record::FromTokens({40, 41, 42}), {});
  OverlapPredicate pred(2);
  Record probe = Record::FromTokens(base_tokens);

  std::vector<QueryMatch> reference;
  for (size_t shards : kShardCounts) {
    SimilarityService service(corpus, pred, ShardOptions(shards));
    std::vector<QueryMatch> got = service.QueryTopK(probe.view(), 4);
    ASSERT_EQ(got.size(), 4u) << "shards=" << shards;
    // The six exact duplicates tie at the top; ids 0..3 win the k=4 cut.
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, static_cast<RecordId>(i)) << "shards=" << shards;
    }
    if (shards == 1) {
      reference = got;
    } else {
      ExpectSameMatches(reference, got,
                        "topk ties shards=" + std::to_string(shards));
    }
  }
}

TEST(ShardTopKTest, RanksAboveThresholdlessTruncationAcrossShardCounts) {
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 80, .vocabulary = 50}, 33);
  JaccardPredicate pred(0.5);
  SimilarityService reference(corpus, pred, ShardOptions(1));
  SimilarityService sharded(corpus, pred, ShardOptions(7));
  for (RecordId r = 0; r < corpus.size(); ++r) {
    for (size_t k : {1u, 3u, 100u}) {
      ExpectSameMatches(
          reference.QueryTopK(corpus.record(r), k, corpus.text(r)),
          sharded.QueryTopK(corpus.record(r), k, corpus.text(r)),
          "topk record " + std::to_string(r) + " k=" + std::to_string(k));
    }
  }
}

// ---------------------------------------------------------------------
// Concurrency stress for the sharded service: exercised under TSan by
// tools/run_tsan_tests.sh. Readers (point, batch and top-k) race a
// writer thread that interleaves inserts and deletes with explicit
// compactions; auto-compaction is enabled too, so snapshot publication
// churns and tombstones ride delta images under load. The service is
// durable, so every compaction writes and maps a segment file under the
// readers, and a one-byte budget advises all but the newest segment out.

TEST(ShardConcurrencyTest, ConcurrentShardedReadersAndWriter) {
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 150, .vocabulary = 80}, 44);
  JaccardPredicate pred(0.5);
  ServiceOptions options = ShardOptions(5, /*memtable_limit=*/16);
  options.data_dir = FreshDataDir("shard_concurrency");
  options.wal_sync = WalSyncPolicy::kNever;
  options.resident_budget_bytes = 1;
  SimilarityService service(corpus, pred, options);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> answered{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (; !stop.load(std::memory_order_relaxed); ++requests) {
        RecordId r = rng.UniformU32(static_cast<uint32_t>(corpus.size()));
        uint32_t mode = rng.UniformU32(3);
        if (mode == 0) {
          answered += service.Query(corpus.record(r), corpus.text(r)).size();
        } else if (mode == 1) {
          answered +=
              service.QueryTopK(corpus.record(r), 5, corpus.text(r)).size();
        } else {
          RecordSet batch;
          for (int i = 0; i < 4; ++i) {
            RecordId id =
                rng.UniformU32(static_cast<uint32_t>(corpus.size()));
            batch.Add(corpus.record(id), corpus.text(id));
          }
          for (const auto& matches : service.BatchQuery(batch)) {
            answered += matches.size();
          }
        }
      }
    });
  }

  // The writer's schedule is deterministic, so the survivor set is too:
  // every 9th iteration deletes a pseudo-random id from the INITIAL
  // corpus (some repeat — those must miss), interleaved with inserts.
  std::vector<std::pair<Record, std::string>> inserted;
  std::set<RecordId> writer_deleted;
  std::thread writer([&] {
    Rng rng(99);
    ZipfTable zipf(80, 0.9);
    for (int i = 0; i < 120; ++i) {
      auto [record, text] = MakeRandomRecord(rng, zipf);
      inserted.emplace_back(record, text);
      service.Insert(record.view(), std::move(text));
      if (i % 9 == 4) {
        RecordId victim = static_cast<RecordId>(
            (static_cast<size_t>(i) * 13) % corpus.size());
        if (service.Delete(victim)) writer_deleted.insert(victim);
      }
      if (i % 37 == 36) service.Compact();
    }
    service.Compact();
  });

  writer.join();
  // Let the readers query the final state too: on a loaded machine the
  // writer can finish before a reader has run at all.
  const uint64_t before_stop = requests.load();
  while (requests.load(std::memory_order_relaxed) < before_stop + 30) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(service.size(),
            corpus.size() + 120 - writer_deleted.size());
  EXPECT_GT(writer_deleted.size(), 0u);
  EXPECT_EQ(service.memtable_size(), 0u);
  EXPECT_EQ(service.tombstone_count(), 0u);
  EXPECT_GT(answered.load(), 0u);
  ASSERT_TRUE(service.durability_status().ok())
      << service.durability_status().ToString();
  EXPECT_EQ(service.stats().mapped_segments, service.stats().segments);

  // After the dust settles the sharded service still answers exactly
  // like a fresh 1-shard service over the SURVIVORS (reference ids are
  // dense, so expectations map through the survivors' global ids).
  RecordSet survivors;
  std::vector<RecordId> gids;
  for (RecordId id = 0; id < corpus.size(); ++id) {
    if (writer_deleted.count(id) == 0) {
      survivors.Add(corpus.record(id), corpus.text(id));
      gids.push_back(id);
    }
  }
  for (size_t j = 0; j < inserted.size(); ++j) {
    survivors.Add(inserted[j].first.view(), inserted[j].second);
    gids.push_back(static_cast<RecordId>(corpus.size() + j));
  }
  SimilarityService reference(survivors, pred, ShardOptions(1));
  Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    RecordId r =
        rng.UniformU32(static_cast<uint32_t>(survivors.size()));
    std::vector<QueryMatch> expected =
        reference.Query(survivors.record(r), survivors.text(r));
    for (QueryMatch& m : expected) m.id = gids[m.id];
    ExpectSameMatches(
        expected,
        service.Query(survivors.record(r), survivors.text(r)),
        "post-stress record " + std::to_string(r));
  }
}

}  // namespace
}  // namespace ssjoin
