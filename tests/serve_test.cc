#include "serve/similarity_service.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "core/cosine_predicate.h"
#include "core/edit_distance_predicate.h"
#include "core/jaccard_predicate.h"
#include "core/join.h"
#include "core/overlap_predicate.h"
#include "data/citation_generator.h"
#include "data/corpus_builder.h"
#include "test_util.h"
#include "text/token_dictionary.h"

namespace ssjoin {
namespace {

ServiceOptions MakeOptions(size_t memtable_limit, int num_threads = 0) {
  ServiceOptions options;
  options.memtable_limit = memtable_limit;
  options.num_threads = num_threads;
  return options;
}

/// Per-record partner sets of a fresh batch self-join over `corpus`
/// (prepared copy; the input stays raw, exactly like the service's own
/// corpus handling).
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

/// Queries the service with every corpus record and checks the answers
/// against the join partner sets (ignoring the self match, which a pair
/// join never emits).
void ExpectQueriesMatchJoin(const SimilarityService& service,
                            const RecordSet& corpus, const Predicate& pred) {
  std::map<RecordId, std::set<RecordId>> partners =
      JoinPartners(corpus, pred);
  for (RecordId r = 0; r < corpus.size(); ++r) {
    std::set<RecordId> answered;
    for (const QueryMatch& m :
         service.Query(corpus.record(r), corpus.text(r))) {
      if (m.id != r) answered.insert(m.id);
    }
    EXPECT_EQ(answered, partners[r]) << "record " << r;
  }
}

using testing_util::Slice;

/// Queries the service with every SURVIVING record and checks the
/// answers against a fresh batch self-join over the survivors only —
/// the acceptance bar for deletes: a tombstoned (or compacted-away)
/// record must influence nothing, not even corpus statistics. The
/// survivor join speaks dense local ids, so expectations are mapped
/// back through the survivors' global ids.
void ExpectQueriesMatchSurvivorJoin(const SimilarityService& service,
                                    const RecordSet& corpus,
                                    const std::vector<bool>& deleted,
                                    const Predicate& pred) {
  RecordSet survivors;
  std::vector<RecordId> gids;
  for (RecordId id = 0; id < corpus.size(); ++id) {
    if (!deleted[id]) {
      survivors.Add(corpus.record(id), corpus.text(id));
      gids.push_back(id);
    }
  }
  std::map<RecordId, std::set<RecordId>> partners =
      JoinPartners(survivors, pred);
  for (RecordId local = 0; local < survivors.size(); ++local) {
    std::set<RecordId> expected;
    for (RecordId p : partners[local]) expected.insert(gids[p]);
    std::set<RecordId> answered;
    for (const QueryMatch& m :
         service.Query(survivors.record(local), survivors.text(local))) {
      EXPECT_FALSE(deleted[m.id]) << "deleted id " << m.id << " answered";
      if (m.id != gids[local]) answered.insert(m.id);
    }
    EXPECT_EQ(answered, expected) << "record " << gids[local];
  }
}

TEST(SimilarityServiceTest, MatchesBatchJoinOverlap) {
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 150, .vocabulary = 80}, 11);
  OverlapPredicate pred(3);
  SimilarityService service(corpus, pred);
  ExpectQueriesMatchJoin(service, corpus, pred);
}

TEST(SimilarityServiceTest, MatchesBatchJoinJaccard) {
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 150, .vocabulary = 80}, 12);
  JaccardPredicate pred(0.5);
  SimilarityService service(corpus, pred);
  ExpectQueriesMatchJoin(service, corpus, pred);
}

TEST(SimilarityServiceTest, MatchesBatchJoinCosine) {
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 150, .vocabulary = 80}, 13);
  CosinePredicate pred(0.6);
  SimilarityService service(corpus, pred);
  ExpectQueriesMatchJoin(service, corpus, pred);
}

// The before-and-after-growth acceptance check: construct the service on
// a prefix of the corpus, Insert() the rest, Compact(), and require
// query answers identical to a fresh batch join over the full corpus.
// For the corpus-independent predicates the equivalence must also hold
// BEFORE compaction, straight off the memtable.
TEST(SimilarityServiceTest, InsertThenCompactMatchesBatchJoinAllPredicates) {
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 160, .vocabulary = 80}, 14);
  const RecordId split = 110;
  OverlapPredicate overlap(3);
  JaccardPredicate jaccard(0.5);
  CosinePredicate cosine(0.6);
  struct Case {
    const Predicate* pred;
    bool exact_before_compaction;
  };
  const Case cases[] = {
      {&overlap, true}, {&jaccard, true}, {&cosine, false}};
  for (const Case& c : cases) {
    SimilarityService service(Slice(corpus, 0, split), *c.pred);
    for (RecordId id = split; id < corpus.size(); ++id) {
      EXPECT_EQ(service.Insert(corpus.record(id)), id);
    }
    EXPECT_EQ(service.size(), corpus.size());
    EXPECT_GT(service.memtable_size(), 0u);
    if (c.exact_before_compaction) {
      // Per-record scores do not depend on corpus statistics, so the
      // two-tier answer is already exact with a populated memtable.
      ExpectQueriesMatchJoin(service, corpus, *c.pred);
    }
    service.Compact();
    EXPECT_EQ(service.memtable_size(), 0u);
    // After compaction the base holds the full corpus with Prepare()
    // re-run from scratch, so even TF-IDF cosine is exact.
    ExpectQueriesMatchJoin(service, corpus, *c.pred);
  }
}

TEST(SimilarityServiceTest, InsertIsVisibleImmediately) {
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 40, .vocabulary = 30}, 15);
  JaccardPredicate pred(0.8);
  SimilarityService service(Slice(corpus, 0, 39), pred);
  const RecordView newcomer = corpus.record(39);
  RecordId id = service.Insert(newcomer);
  EXPECT_EQ(id, 39u);
  // An exact duplicate always passes Jaccard: the new record must be in
  // its own answer set without any compaction.
  std::vector<QueryMatch> matches = service.Query(newcomer);
  EXPECT_TRUE(std::any_of(
      matches.begin(), matches.end(),
      [id](const QueryMatch& m) { return m.id == id; }));
}

TEST(SimilarityServiceTest, CompactionPreservesAnswersAndBumpsEpoch) {
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 120, .vocabulary = 60}, 16);
  OverlapPredicate pred(3);
  SimilarityService service(Slice(corpus, 0, 100), pred,
                            MakeOptions(0));
  for (RecordId id = 100; id < corpus.size(); ++id) {
    service.Insert(corpus.record(id));
  }
  std::vector<std::vector<QueryMatch>> before;
  for (RecordId r = 0; r < corpus.size(); ++r) {
    before.push_back(service.Query(corpus.record(r)));
  }
  uint64_t epoch_before = service.epoch();
  service.Compact();
  EXPECT_GT(service.epoch(), epoch_before);
  EXPECT_EQ(service.memtable_size(), 0u);
  EXPECT_EQ(service.size(), corpus.size());
  for (RecordId r = 0; r < corpus.size(); ++r) {
    std::vector<QueryMatch> after = service.Query(corpus.record(r));
    ASSERT_EQ(after.size(), before[r].size()) << "record " << r;
    for (size_t i = 0; i < after.size(); ++i) {
      EXPECT_EQ(after[i].id, before[r][i].id);
      EXPECT_DOUBLE_EQ(after[i].score, before[r][i].score);
    }
  }
}

TEST(SimilarityServiceTest, MemtableLimitTriggersAutoCompaction) {
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 20, .vocabulary = 30}, 17);
  OverlapPredicate pred(2);
  SimilarityService service(Slice(corpus, 0, 10), pred,
                            MakeOptions(4));
  for (RecordId id = 10; id < 18; ++id) service.Insert(corpus.record(id));
  // 8 inserts with limit 4: two automatic compactions, memtable drained.
  EXPECT_EQ(service.memtable_size(), 0u);
  EXPECT_EQ(service.stats().compactions, 2u);
  EXPECT_EQ(service.size(), 18u);
}

TEST(SimilarityServiceTest, BatchQueryEqualsPointQueries) {
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 130, .vocabulary = 70}, 18);
  JaccardPredicate pred(0.5);
  SimilarityService service(corpus, pred, MakeOptions(256, 4));
  RecordSet queries = testing_util::MakeRandomRecordSet(
      {.num_records = 60, .vocabulary = 70}, 19);
  std::vector<std::vector<QueryMatch>> batched = service.BatchQuery(queries);
  ASSERT_EQ(batched.size(), queries.size());
  for (RecordId q = 0; q < queries.size(); ++q) {
    std::vector<QueryMatch> point = service.Query(queries.record(q));
    ASSERT_EQ(batched[q].size(), point.size()) << "query " << q;
    for (size_t i = 0; i < point.size(); ++i) {
      EXPECT_EQ(batched[q][i].id, point[i].id);
      EXPECT_DOUBLE_EQ(batched[q][i].score, point[i].score);
    }
  }
}

TEST(SimilarityServiceTest, TopKRanksByScoreAndTruncates) {
  // Hand-built corpus with a known overlap ranking against {0, 1, 2}:
  // r0 and r2 share 3 tokens (tie, id order), r1 shares 2, r4 shares 1,
  // r3 shares none and must never appear.
  RecordSet corpus;
  corpus.Add(Record::FromTokens({0, 1, 2}));
  corpus.Add(Record::FromTokens({0, 1}));
  corpus.Add(Record::FromTokens({0, 1, 2, 3}));
  corpus.Add(Record::FromTokens({7, 8}));
  corpus.Add(Record::FromTokens({0, 9}));
  OverlapPredicate pred(2);  // the threshold is irrelevant to top-k
  SimilarityService service(corpus, pred);

  const RecordView query = corpus.record(0);
  std::vector<QueryMatch> top = service.QueryTopK(query, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].id, 0u);
  EXPECT_DOUBLE_EQ(top[0].score, 3.0);
  EXPECT_EQ(top[1].id, 2u);
  EXPECT_DOUBLE_EQ(top[1].score, 3.0);
  EXPECT_EQ(top[2].id, 1u);
  EXPECT_DOUBLE_EQ(top[2].score, 2.0);

  // k beyond the candidate pool: everything sharing a token, nothing else.
  std::vector<QueryMatch> all = service.QueryTopK(query, 10);
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[3].id, 4u);
  EXPECT_DOUBLE_EQ(all[3].score, 1.0);

  // Top-k sees the memtable too: a new duplicate of the query ties the
  // leaders and slots by id.
  service.Insert(Record::FromTokens({0, 1, 2}));
  std::vector<QueryMatch> grown = service.QueryTopK(query, 10);
  ASSERT_EQ(grown.size(), 5u);
  EXPECT_EQ(grown[2].id, 5u);
  EXPECT_DOUBLE_EQ(grown[2].score, 3.0);
}

TEST(SimilarityServiceTest, ShortRecordFallbackServesEditDistance) {
  // Tiny strings can be within edit distance k while sharing no q-gram;
  // the per-tier short pools must surface them just like the batch join.
  std::vector<std::string> texts = {"ab",   "ac",    "a",
                                    "xyzw", "abcdefg", "b"};
  TokenDictionary dict;
  RecordSet corpus = BuildQGramCorpus(texts, 3, &dict);
  EditDistancePredicate pred(1, 3);
  SimilarityService service(corpus, pred);
  ExpectQueriesMatchJoin(service, corpus, pred);

  // Grown corpus, short record arriving through the memtable path.
  RecordSet more = BuildQGramCorpus({"abc", "c"}, 3, &dict);
  RecordSet full = corpus;
  for (RecordId id = 0; id < more.size(); ++id) {
    full.Add(more.record(id), more.text(id));
    service.Insert(more.record(id), more.text(id));
  }
  ExpectQueriesMatchJoin(service, full, pred);
  // The verification count pins the pool walk's work, not just its
  // answers: every short tier record the index probe did not accept is
  // verified once per short query, and nothing else is.
  EXPECT_EQ(service.stats().candidates, 44u);
}

// The tombstone acceptance check, corpus-independent predicates: deletes
// are visible immediately (base and memtable residents alike), answers
// equal a fresh self-join over the survivors both BEFORE and after
// compaction, and compaction physically drains the tombstones.
TEST(SimilarityServiceTest, DeleteMatchesSurvivorJoinJaccard) {
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 150, .vocabulary = 80}, 31);
  JaccardPredicate pred(0.5);
  SimilarityService service(Slice(corpus, 0, 120), pred, MakeOptions(0));
  for (RecordId id = 120; id < corpus.size(); ++id) {
    service.Insert(corpus.record(id));
  }
  std::vector<bool> deleted(corpus.size(), false);
  // Mixed kill set: base residents and memtable residents.
  for (RecordId id : {3u, 40u, 77u, 119u, 125u, 149u}) {
    EXPECT_TRUE(service.Delete(id));
    deleted[id] = true;
  }
  EXPECT_EQ(service.size(), corpus.size() - 6);
  EXPECT_EQ(service.tombstone_count(), 6u);
  ExpectQueriesMatchSurvivorJoin(service, corpus, deleted, pred);

  service.Compact();
  EXPECT_EQ(service.tombstone_count(), 0u);
  EXPECT_EQ(service.memtable_size(), 0u);
  EXPECT_EQ(service.size(), corpus.size() - 6);
  ExpectQueriesMatchSurvivorJoin(service, corpus, deleted, pred);

  // Ids are never reused: re-inserting deleted content mints a fresh id,
  // and the resurrected content is live under the NEW id only.
  EXPECT_EQ(service.Insert(corpus.record(3)), corpus.size());
  RecordSet extended = corpus;
  extended.Add(corpus.record(3), corpus.text(3));
  deleted.push_back(false);
  ExpectQueriesMatchSurvivorJoin(service, extended, deleted, pred);
}

// Same bar for TF-IDF cosine, where deletes also shift the corpus
// statistics: after Compact() the re-Prepare must run over survivors
// only, so IDF — and hence every score and the answer set — coincides
// with a fresh batch self-join over the survivors.
TEST(SimilarityServiceTest, DeleteThenCompactExactForCosine) {
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 150, .vocabulary = 80}, 32);
  CosinePredicate pred(0.6);
  SimilarityService service(corpus, pred, MakeOptions(0));
  std::vector<bool> deleted(corpus.size(), false);
  for (RecordId id : {0u, 10u, 60u, 61u, 148u}) {
    EXPECT_TRUE(service.Delete(id));
    deleted[id] = true;
  }
  // Pre-compaction: scores still use the stale full-corpus IDF (the
  // serving-time approximation), but tombstoned records must already be
  // hidden from every answer.
  for (RecordId r = 0; r < corpus.size(); ++r) {
    for (const QueryMatch& m : service.Query(corpus.record(r))) {
      EXPECT_FALSE(deleted[m.id]);
    }
  }
  service.Compact();
  ExpectQueriesMatchSurvivorJoin(service, corpus, deleted, pred);
}

TEST(SimilarityServiceTest, DeleteMissesAndDoubleDeletes) {
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 30, .vocabulary = 30}, 33);
  JaccardPredicate pred(0.5);
  SimilarityService service(corpus, pred);
  uint64_t epoch = service.epoch();
  EXPECT_FALSE(service.Delete(30));      // out of range
  EXPECT_FALSE(service.Delete(100000));  // far out of range
  EXPECT_TRUE(service.Delete(7));
  EXPECT_FALSE(service.Delete(7));  // double delete
  service.Compact();
  EXPECT_FALSE(service.Delete(7));  // still dead after the physical drop
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.deletes, 1u);
  EXPECT_EQ(stats.delete_misses, 4u);
  // Only the successful delete and the compaction published.
  EXPECT_EQ(service.epoch(), epoch + 2);
}

// Token-less records are legal corpus members: they route to shard 0 on
// Insert AND Delete (no largest token to route by), survive compaction,
// and never crash the probe paths.
TEST(SimilarityServiceTest, EmptyRecordsInsertDeleteAndCompact) {
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 40, .vocabulary = 30}, 34);
  JaccardPredicate pred(0.5);
  ServiceOptions options = MakeOptions(0);
  options.num_shards = 7;
  SimilarityService service(corpus, pred, options);
  const RecordId empty_id = service.Insert(Record::FromTokens({}));
  EXPECT_EQ(empty_id, corpus.size());
  EXPECT_EQ(service.stats().shards[0].inserts, 1u);
  // An empty probe matches nothing under a token-overlap predicate.
  EXPECT_TRUE(service.Query(Record::FromTokens({})).empty());
  service.Compact();
  EXPECT_EQ(service.size(), corpus.size() + 1);
  EXPECT_TRUE(service.Delete(empty_id));
  EXPECT_EQ(service.stats().shards[0].deletes, 1u);
  service.Compact();
  EXPECT_EQ(service.size(), corpus.size());
  EXPECT_FALSE(service.Delete(empty_id));
}

// Deleting a record that only ever lived in the memtable: the delta
// image must hide it immediately and compaction must not resurrect it.
TEST(SimilarityServiceTest, DeleteOfMemtableResident) {
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 50, .vocabulary = 40}, 35);
  JaccardPredicate pred(0.5);
  SimilarityService service(Slice(corpus, 0, 49), pred, MakeOptions(0));
  const RecordView newcomer = corpus.record(49);
  const RecordId id = service.Insert(newcomer);
  EXPECT_TRUE(service.Delete(id));
  auto self = service.Query(newcomer);
  for (const QueryMatch& m : self) EXPECT_NE(m.id, id);
  service.Compact();
  self = service.Query(newcomer);
  for (const QueryMatch& m : self) EXPECT_NE(m.id, id);
  EXPECT_EQ(service.size(), 49u);
}

// A compaction with nothing pending must not rebuild any shard — in
// particular cosine must skip its full re-Prepare — and must not
// publish a new snapshot.
TEST(SimilarityServiceTest, NoOpCompactSkipsRebuilds) {
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 60, .vocabulary = 40}, 36);
  JaccardPredicate jaccard(0.5);
  CosinePredicate cosine(0.6);
  for (const Predicate* pred :
       std::initializer_list<const Predicate*>{&jaccard, &cosine}) {
    ServiceOptions options = MakeOptions(0);
    options.num_shards = 3;
    SimilarityService service(corpus, *pred, options);
    auto rebuilds = [&] {
      uint64_t n = 0;
      for (const ShardStats& s : service.stats().shards) n += s.rebuilds;
      return n;
    };
    const uint64_t built = rebuilds();  // the initial build
    EXPECT_EQ(built, 3u);
    const uint64_t epoch = service.epoch();
    service.Compact();
    service.Compact();
    EXPECT_EQ(rebuilds(), built);
    EXPECT_EQ(service.epoch(), epoch);
    EXPECT_EQ(service.stats().compactions, 2u);
    // A real delete dirties exactly the owning shard (jaccard) or all
    // shards (cosine's statistics rebuild).
    service.Delete(0);
    service.Compact();
    EXPECT_EQ(rebuilds(),
              built + (pred == &cosine ? 3u : 1u));
  }
}

// Top-k must backfill to k SURVIVORS: a deleted record never occupies a
// slot, before or after compaction, and id tie-breaks are preserved.
TEST(SimilarityServiceTest, TopKBackfillsAcrossDeletes) {
  RecordSet corpus;
  corpus.Add(Record::FromTokens({0, 1, 2}));
  corpus.Add(Record::FromTokens({0, 1}));
  corpus.Add(Record::FromTokens({0, 1, 2, 3}));
  corpus.Add(Record::FromTokens({7, 8}));
  corpus.Add(Record::FromTokens({0, 9}));
  OverlapPredicate pred(2);
  SimilarityService service(corpus, pred, MakeOptions(0));

  const RecordView query = corpus.record(0);
  ASSERT_TRUE(service.Delete(2));  // the score-3 runner-up
  std::vector<QueryMatch> top = service.QueryTopK(query, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].id, 0u);
  EXPECT_DOUBLE_EQ(top[0].score, 3.0);
  EXPECT_EQ(top[1].id, 1u);  // backfilled into the freed slot
  EXPECT_DOUBLE_EQ(top[1].score, 2.0);
  EXPECT_EQ(top[2].id, 4u);
  EXPECT_DOUBLE_EQ(top[2].score, 1.0);
  service.Compact();
  std::vector<QueryMatch> after = service.QueryTopK(query, 3);
  ASSERT_EQ(after.size(), top.size());
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(after[i].id, top[i].id);
    EXPECT_DOUBLE_EQ(after[i].score, top[i].score);
  }
}

// Deletes hide short-pool records too (edit distance): tombstoned tiny
// strings must leave both the q-gram index and the brute-force pool.
TEST(SimilarityServiceTest, DeleteHidesShortRecords) {
  std::vector<std::string> texts = {"ab", "ac", "a", "xyzw", "abcdefg", "b"};
  TokenDictionary dict;
  RecordSet corpus = BuildQGramCorpus(texts, 3, &dict);
  EditDistancePredicate pred(1, 3);
  SimilarityService service(corpus, pred, MakeOptions(0));
  std::vector<bool> deleted(corpus.size(), false);
  ASSERT_TRUE(service.Delete(2));  // "a", inside everyone's short pool
  deleted[2] = true;
  ExpectQueriesMatchSurvivorJoin(service, corpus, deleted, pred);
  service.Compact();
  ExpectQueriesMatchSurvivorJoin(service, corpus, deleted, pred);
}

TEST(SimilarityServiceTest, StatsCountersAndJson) {
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 60, .vocabulary = 40}, 21);
  JaccardPredicate pred(0.5);
  SimilarityService service(Slice(corpus, 0, 50), pred);
  for (RecordId r = 0; r < 10; ++r) service.Query(corpus.record(r));
  service.QueryTopK(corpus.record(0), 3);
  service.BatchQuery(Slice(corpus, 0, 5));
  for (RecordId id = 50; id < 55; ++id) service.Insert(corpus.record(id));
  service.Delete(0);
  service.Delete(0);  // a miss
  service.Compact();

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.point_queries, 10u);
  EXPECT_EQ(stats.topk_queries, 1u);
  EXPECT_EQ(stats.batch_queries, 1u);
  EXPECT_EQ(stats.batched_records, 5u);
  EXPECT_EQ(stats.inserts, 5u);
  EXPECT_EQ(stats.deletes, 1u);
  EXPECT_EQ(stats.delete_misses, 1u);
  EXPECT_EQ(stats.compactions, 1u);
  EXPECT_GE(stats.results, 10u);  // every query matches itself at least
  EXPECT_GE(stats.candidates, stats.results);
  EXPECT_EQ(stats.query_latency_us.count(), 11u);
  EXPECT_EQ(stats.batch_latency_us.count(), 1u);

  std::string json = service.StatsJson();
  for (const char* key :
       {"\"epoch\"", "\"base_records\"", "\"memtable_records\"",
        "\"live_records\"", "\"tombstones\"", "\"deletes\"",
        "\"delete_misses\"", "\"point_queries\"", "\"compactions\"",
        "\"segments\"", "\"segment_bytes\"", "\"segments_merged\"",
        "\"last_compact_delta_records\"",
        "\"query_latency_us\"", "\"p99\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
  // Balanced braces as a cheap well-formedness check.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

// The segment gauges/counters must move in lockstep with the chain:
// construction folds the corpus into one segment, every compaction with
// pending inserts appends exactly one delta segment, the size-tiered
// trigger (segment_merge_ratio) merges trailing segments, tombstone-only
// compactions mask without appending, and ratio 0 collapses the chain
// back to one segment every time (the pre-segmented baseline).
TEST(SimilarityServiceTest, SegmentCountersTrackChainAndMerges) {
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 160, .vocabulary = 80}, 37);
  JaccardPredicate pred(0.5);
  ServiceOptions options = MakeOptions(0);
  options.segment_merge_ratio = 2;
  SimilarityService service(Slice(corpus, 0, 100), pred, options);

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.segments, 1u);
  EXPECT_GT(stats.segment_bytes, 0u);
  EXPECT_EQ(stats.segments_merged, 0u);
  EXPECT_EQ(stats.last_compact_delta_records, 0u);

  // Geometric descending deltas stack segments without tripping the
  // size-tiered trigger: 100 > 2*30 and 30 > 2*10.
  RecordId next = 100;
  auto insert_batch = [&](size_t n) {
    for (size_t i = 0; i < n; ++i) service.Insert(corpus.record(next++));
    service.Compact();
  };
  insert_batch(30);
  stats = service.stats();
  EXPECT_EQ(stats.segments, 2u);
  EXPECT_EQ(stats.segments_merged, 0u);
  EXPECT_EQ(stats.last_compact_delta_records, 30u);

  insert_batch(10);
  stats = service.stats();
  EXPECT_EQ(stats.segments, 3u);
  EXPECT_EQ(stats.segments_merged, 0u);
  EXPECT_EQ(stats.last_compact_delta_records, 10u);

  // A 6-record delta trips the trigger twice — (10, 6) -> 16, then
  // (30, 16) -> 46 — and stops against the 100-record base segment
  // (100 > 2*46): four segments retired, two survive.
  insert_batch(6);
  stats = service.stats();
  EXPECT_EQ(stats.segments, 2u);
  EXPECT_EQ(stats.segments_merged, 4u);
  EXPECT_EQ(stats.last_compact_delta_records, 6u);

  // A tombstone-only compaction folds a dead mask in place: no segment
  // appended, no merge (99 live > 2*46), delta volume = the 1 tombstone.
  ASSERT_TRUE(service.Delete(0));
  service.Compact();
  stats = service.stats();
  EXPECT_EQ(stats.segments, 2u);
  EXPECT_EQ(stats.segments_merged, 4u);
  EXPECT_EQ(stats.last_compact_delta_records, 1u);

  // Ratio 0 is the pre-segmented baseline: every compaction collapses
  // the whole chain back into one segment.
  ServiceOptions baseline = MakeOptions(0);
  baseline.segment_merge_ratio = 0;
  SimilarityService collapsed(Slice(corpus, 0, 100), pred, baseline);
  EXPECT_EQ(collapsed.stats().segments, 1u);
  for (RecordId id = 100; id < 110; ++id) {
    collapsed.Insert(corpus.record(id));
  }
  collapsed.Compact();
  stats = collapsed.stats();
  EXPECT_EQ(stats.segments, 1u);
  EXPECT_EQ(stats.segments_merged, 2u);
  EXPECT_EQ(stats.last_compact_delta_records, 10u);
}

// Each segment is merged on its own: a candidate lives in exactly one
// segment, so no merge may take more than one posting list per probe
// token. (Feeding every segment's copy of a token's list into one merge
// spends the MergeOpt direct-search budget on duplicates.)
TEST(SimilarityServiceTest, SegmentsAreMergedSeparately) {
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 160, .vocabulary = 80}, 37);
  JaccardPredicate pred(0.5);
  ServiceOptions options = MakeOptions(0);
  options.segment_merge_ratio = 2;
  SimilarityService service(Slice(corpus, 0, 100), pred, options);
  RecordId next = 100;
  for (size_t n : {30, 10}) {
    for (size_t i = 0; i < n; ++i) service.Insert(corpus.record(next++));
    service.Compact();
  }
  ASSERT_EQ(service.stats().segments, 3u);

  for (RecordId r = 0; r < corpus.size(); ++r) {
    const MergeStats before = service.stats().merge;
    service.Query(corpus.record(r), corpus.text(r));
    const MergeStats after = service.stats().merge;
    const uint64_t lists = (after.lists_direct + after.lists_merged) -
                           (before.lists_direct + before.lists_merged);
    EXPECT_LE(lists, corpus.record(r).size() * (after.merges - before.merges))
        << "record " << r;
  }
}

// Every thread that probes a shard keeps one warm probe scratch (merge
// buffers and counting block), so a steady-state point query allocates
// only its staging record, per-shard counters and result vectors.
// Counts every operator new overload, over-aligned included.
TEST(SimilarityServiceTest, SteadyStateQueryAllocationsStayBounded) {
  CitationGeneratorOptions generator;
  generator.num_records = 5000;
  TokenDictionary dict;
  const RecordSet all =
      BuildWordCorpus(CitationGenerator(generator).Generate(), &dict);
  const RecordId num_corpus = 4000;
  const RecordSet queries = Slice(all, num_corpus, all.size());
  JaccardPredicate pred(0.6);
  ServiceOptions options = MakeOptions(/*memtable_limit=*/0,
                                       /*num_threads=*/2);
  options.num_shards = 4;
  SimilarityService service(Slice(all, 0, num_corpus), pred, options);
  auto run_queries = [&] {
    uint64_t results = 0;
    for (RecordId q = 0; q < queries.size(); ++q) {
      results +=
          service.Query(queries.record(q), std::string(queries.text(q)))
              .size();
    }
    return results;
  };

  const uint64_t warm_results = run_queries();  // warms every scratch
  const uint64_t before = testing_util::AllocationCalls();
  const uint64_t results = run_queries();
  const uint64_t allocs = testing_util::AllocationCalls() - before;
  EXPECT_GT(results, 0u);
  EXPECT_EQ(results, warm_results);
  const double per_query = static_cast<double>(allocs) / queries.size();
  EXPECT_LE(per_query, 13.0)
      << allocs << " allocations for " << queries.size() << " queries";
}

TEST(SimilarityServiceTest, LatencyHistogramQuantiles) {
  LatencyHistogram h;
  EXPECT_EQ(h.QuantileUpperBound(0.5), 0u);
  for (uint64_t us : {1u, 2u, 3u, 100u, 200u, 5000u}) h.Record(us);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.max_micros(), 5000u);
  EXPECT_LE(h.QuantileUpperBound(0.5), 255u);   // 3rd sample's bucket
  EXPECT_EQ(h.QuantileUpperBound(1.0), 5000u);  // clamped to the max
  EXPECT_GE(h.QuantileUpperBound(0.99), 4096u);
}

// Regression: sub-microsecond samples truncate to 0 micros, which must
// land in bucket 0 (a log2 bucket index computed with __builtin_clzll
// would be undefined at 0). All-zero histograms report zero quantiles.
TEST(SimilarityServiceTest, LatencyHistogramZeroSamples) {
  LatencyHistogram h;
  h.Record(0);
  h.Record(0);
  h.Record(0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.max_micros(), 0u);
  EXPECT_EQ(h.QuantileUpperBound(0.0), 0u);
  EXPECT_EQ(h.QuantileUpperBound(0.5), 0u);
  EXPECT_EQ(h.QuantileUpperBound(1.0), 0u);
  h.Record(1);
  EXPECT_EQ(h.QuantileUpperBound(0.5), 0u);  // 3 of 4 samples are 0
  EXPECT_EQ(h.QuantileUpperBound(1.0), 1u);
}

// Regression alongside the bucket-0 guard: a histogram that never saw a
// sample must summarize to 0 for EVERY quantile, including the ones an
// unchecked rank walk would mangle — out-of-range and NaN inputs clamp
// instead of reading uninitialized bucket state.
TEST(SimilarityServiceTest, LatencyHistogramNoSamplesReportsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max_micros(), 0u);
  for (double q : {0.0, 0.5, 0.99, 1.0, -3.0, 42.0}) {
    EXPECT_EQ(h.QuantileUpperBound(q), 0u) << "q=" << q;
  }
  EXPECT_EQ(h.QuantileUpperBound(std::nan("")), 0u);
  // With samples, out-of-range quantiles clamp to the endpoints.
  h.Record(8);
  EXPECT_EQ(h.QuantileUpperBound(-1.0), h.QuantileUpperBound(0.0));
  EXPECT_EQ(h.QuantileUpperBound(2.0), h.QuantileUpperBound(1.0));
  EXPECT_EQ(h.QuantileUpperBound(std::nan("")), h.QuantileUpperBound(0.0));
}

// The TSan acceptance test: concurrent point, top-k and batch queries
// and an inserting/compacting writer over the same service. Exercises the
// snapshot swap, the copy-on-write delta rebuild and the stats mutex.
// Under cosine every request also stages against the front segment's
// document frequencies (IndexSnapshot::stats_reference) while each
// compaction publishes a segment with a freshly counted table.
class ServiceConcurrencyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ServiceConcurrencyTest, ConcurrentReadersAndWriter) {
  RecordSet corpus = testing_util::MakeRandomRecordSet(
      {.num_records = 120, .vocabulary = 60}, 22);
  RecordSet extra = testing_util::MakeRandomRecordSet(
      {.num_records = 60, .vocabulary = 60}, 23);
  JaccardPredicate jaccard(0.5);
  CosinePredicate cosine(0.5);
  const Predicate& pred =
      GetParam() == "cosine" ? static_cast<const Predicate&>(cosine) : jaccard;
  SimilarityService service(corpus, pred,
                            MakeOptions(16, 2));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> answered{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      uint64_t local_epoch = 0;
      for (RecordId r = 0; !stop.load(std::memory_order_relaxed);
           r = (r + 7 + static_cast<RecordId>(t)) %
               static_cast<RecordId>(corpus.size())) {
        std::vector<QueryMatch> matches = service.Query(corpus.record(r));
        // Answers are id-sorted and epochs only move forward.
        for (size_t i = 1; i < matches.size(); ++i) {
          ASSERT_LT(matches[i - 1].id, matches[i].id);
        }
        if (t == 0) {
          ASSERT_LE(service.QueryTopK(corpus.record(r), 5).size(), 5u);
        }
        uint64_t epoch = service.epoch();
        ASSERT_GE(epoch, local_epoch);
        local_epoch = epoch;
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread batcher([&] {
    RecordSet queries = Slice(corpus, 0, 20);
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<std::vector<QueryMatch>> results =
          service.BatchQuery(queries);
      ASSERT_EQ(results.size(), queries.size());
    }
  });

  for (RecordId id = 0; id < extra.size(); ++id) {
    service.Insert(extra.record(id));
    if (id % 25 == 24) service.Compact();
  }
  // Let the readers observe the final state for a few rounds.
  while (answered.load(std::memory_order_relaxed) < 200) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  batcher.join();

  EXPECT_EQ(service.size(), corpus.size() + extra.size());
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.inserts, extra.size());
  EXPECT_GE(stats.point_queries, 200u);
}

INSTANTIATE_TEST_SUITE_P(Predicates, ServiceConcurrencyTest,
                         ::testing::Values("jaccard", "cosine"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace ssjoin
