#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "core/cluster_mem.h"
#include "core/cosine_predicate.h"
#include "core/jaccard_predicate.h"
#include "core/join.h"
#include "core/overlap_predicate.h"
#include "core/probe_cluster.h"
#include "data/citation_generator.h"
#include "data/corpus_builder.h"
#include "index/dynamic_index.h"
#include "test_util.h"
#include "util/rng.h"

// Global allocation counter for AllocationsPerRecordStayBounded: every
// operator new in the process, plain, over-aligned and nothrow, bumps it.
// The nothrow forms are replaced too so that every block reaching the
// replaced deletes came from malloc (AddressSanitizer checks the pairing).
static std::atomic<uint64_t> g_alloc_calls{0};

static void* CountedAlloc(std::size_t size, std::size_t align) noexcept {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size == 0 ? 1 : size);
  } else if (posix_memalign(&p, align, size == 0 ? 1 : size) != 0) {
    p = nullptr;
  }
  return p;
}

static void* CountedAllocOrThrow(std::size_t size, std::size_t align) {
  if (void* p = CountedAlloc(size, align)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size) { return CountedAllocOrThrow(size, 0); }
void* operator new[](std::size_t size) {
  return CountedAllocOrThrow(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAllocOrThrow(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAllocOrThrow(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace ssjoin {
namespace {

RecordSet PreparedRandomSet(uint64_t seed, const OverlapPredicate& pred,
                            uint32_t num_records = 120) {
  RecordSet set = testing_util::MakeRandomRecordSet(
      {.num_records = num_records, .vocabulary = 50}, seed);
  pred.Prepare(&set);
  return set;
}

TEST(ClusterSetTest, FirstRecordCreatesCluster) {
  OverlapPredicate pred(3);
  RecordSet set = PreparedRandomSet(1, pred, 5);
  ClusterSet clusters(pred, {}, set.vocabulary_size());
  MergeStats stats;
  ClusterSet::ProbeResult result =
      clusters.ProbeAndAssign(set.record(0), &stats);
  EXPECT_TRUE(result.created);
  EXPECT_EQ(result.home, 0u);
  EXPECT_TRUE(result.joins.empty());
  EXPECT_EQ(clusters.num_clusters(), 1u);
  EXPECT_EQ(clusters.cluster_size(0), 1u);
}

TEST(ClusterSetTest, IdenticalRecordsShareCluster) {
  OverlapPredicate pred(2);
  RecordSet set;
  for (int i = 0; i < 6; ++i) set.Add(Record::FromTokens({1, 2, 3, 4}));
  pred.Prepare(&set);
  ClusterSet clusters(pred, {}, set.vocabulary_size());
  MergeStats stats;
  for (RecordId id = 0; id < set.size(); ++id) {
    clusters.ProbeAndAssign(set.record(id), &stats);
  }
  EXPECT_EQ(clusters.num_clusters(), 1u);
  EXPECT_EQ(clusters.cluster_size(0), 6u);
}

TEST(ClusterSetTest, DisjointRecordsSplitClusters) {
  OverlapPredicate pred(2);
  RecordSet set;
  set.Add(Record::FromTokens({1, 2, 3}));
  set.Add(Record::FromTokens({10, 11, 12}));
  pred.Prepare(&set);
  ClusterSet clusters(pred, {}, set.vocabulary_size());
  MergeStats stats;
  clusters.ProbeAndAssign(set.record(0), &stats);
  ClusterSet::ProbeResult second =
      clusters.ProbeAndAssign(set.record(1), &stats);
  EXPECT_TRUE(second.created);
  EXPECT_EQ(clusters.num_clusters(), 2u);
}

TEST(ClusterSetTest, JoinsReportClustersAboveThreshold) {
  OverlapPredicate pred(3);
  RecordSet set;
  set.Add(Record::FromTokens({1, 2, 3, 4}));  // cluster 0
  set.Add(Record::FromTokens({1, 2, 3, 9}));  // overlaps 3 with cluster 0
  pred.Prepare(&set);
  ClusterSet clusters(pred, {}, set.vocabulary_size());
  MergeStats stats;
  clusters.ProbeAndAssign(set.record(0), &stats);
  ClusterSet::ProbeResult result =
      clusters.ProbeAndAssign(set.record(1), &stats);
  ASSERT_EQ(result.joins.size(), 1u);
  EXPECT_EQ(result.joins[0], 0u);
}

TEST(ClusterSetTest, MaxClustersForcesFallbackAssignment) {
  OverlapPredicate pred(2);
  RecordSet set;
  set.Add(Record::FromTokens({1, 2}));
  set.Add(Record::FromTokens({10, 11}));
  set.Add(Record::FromTokens({20, 21}));  // disjoint from both clusters
  pred.Prepare(&set);
  ClusterSetOptions options;
  options.max_clusters = 2;
  ClusterSet clusters(pred, options, set.vocabulary_size());
  MergeStats stats;
  clusters.ProbeAndAssign(set.record(0), &stats);
  clusters.ProbeAndAssign(set.record(1), &stats);
  ClusterSet::ProbeResult third =
      clusters.ProbeAndAssign(set.record(2), &stats);
  EXPECT_FALSE(third.created);
  EXPECT_LT(third.home, 2u);
  EXPECT_EQ(clusters.num_clusters(), 2u);
}

TEST(ClusterSetTest, MaxClusterSizeSpillsToNewCluster) {
  OverlapPredicate pred(2);
  RecordSet set;
  for (int i = 0; i < 5; ++i) set.Add(Record::FromTokens({1, 2, 3}));
  pred.Prepare(&set);
  ClusterSetOptions options;
  options.max_cluster_size = 2;
  ClusterSet clusters(pred, options, set.vocabulary_size());
  MergeStats stats;
  for (RecordId id = 0; id < set.size(); ++id) {
    clusters.ProbeAndAssign(set.record(id), &stats);
  }
  EXPECT_GE(clusters.num_clusters(), 2u);
  for (ClusterId c = 0; c < clusters.num_clusters(); ++c) {
    EXPECT_LE(clusters.cluster_size(c), 2u);
  }
}

TEST(ClusterSetTest, MemberPostingsTracksInsertedSizes) {
  OverlapPredicate pred(2);
  RecordSet set;
  set.Add(Record::FromTokens({1, 2, 3}));
  set.Add(Record::FromTokens({1, 2, 3, 4}));
  pred.Prepare(&set);
  ClusterSet clusters(pred, {}, set.vocabulary_size());
  MergeStats stats;
  clusters.ProbeAndAssign(set.record(0), &stats);
  clusters.ProbeAndAssign(set.record(1), &stats);
  ASSERT_EQ(clusters.num_clusters(), 1u);
  EXPECT_EQ(clusters.cluster_member_postings(0), 7u);
}

// A second member of a cluster raises the shared token's posting in
// place and adds a posting only for its new token: one posting per
// (token, cluster), scored max over members, under ||C|| = min norm.
TEST(ClusterSetTest, ClusterListsUpdateInPlace) {
  OverlapPredicate pred(1);
  Record a = Record::FromWeightedTokens({{1, 1.0}});
  a.set_norm(10.0);
  Record b = Record::FromWeightedTokens({{1, 3.0}, {2, 1.0}});
  b.set_norm(4.0);
  ClusterSet clusters(pred, {}, /*vocabulary_size=*/3);
  MergeStats stats;
  clusters.ProbeAndAssign(a, &stats);
  ClusterSet::ProbeResult second = clusters.ProbeAndAssign(b, &stats);
  ASSERT_FALSE(second.created);
  EXPECT_EQ(clusters.num_clusters(), 1u);
  EXPECT_EQ(clusters.index_postings(), 2u);  // token 1 updated, 2 added
  ASSERT_EQ(clusters.list(1).size(), 1u);
  EXPECT_DOUBLE_EQ(clusters.list(1)[0].score, 3.0);
  EXPECT_DOUBLE_EQ(clusters.list(1).max_score(), 3.0);
  EXPECT_EQ(clusters.list(2).size(), 1u);
  EXPECT_DOUBLE_EQ(clusters.min_norm(), 4.0);
  EXPECT_DOUBLE_EQ(clusters.cluster_norm(0), 4.0);
}

// Puts `a` and then `b` into one cluster; the callers set the loosest
// assignment rule, so any J(r) member is a home.
void JoinOneCluster(ClusterSet* clusters, RecordView a, RecordView b) {
  MergeStats stats;
  clusters->ProbeAndAssign(a, &stats);
  ClusterSet::ProbeResult second = clusters->ProbeAndAssign(b, &stats);
  ASSERT_FALSE(second.created);
  ASSERT_EQ(clusters->num_clusters(), 1u);
}

TEST(ClusterSetTest, SummaryGrowsInPlaceToMaxScores) {
  OverlapPredicate pred(1);
  Record a = Record::FromWeightedTokens({{1, 2.0}, {3, 1.0}});
  a.set_norm(5.0);
  Record b = Record::FromWeightedTokens({{1, 1.0}, {2, 4.0}, {3, 3.0}});
  b.set_norm(3.0);
  ClusterSet clusters(pred, {.assign_similarity_threshold = 0},
                      /*vocabulary_size=*/4);
  JoinOneCluster(&clusters, a, b);
  RecordView u = clusters.summary(0);
  ASSERT_EQ(u.size(), 3u);
  EXPECT_EQ(u.token(0), 1u);
  EXPECT_DOUBLE_EQ(u.score(0), 2.0);  // max(2, 1)
  EXPECT_EQ(u.token(1), 2u);
  EXPECT_DOUBLE_EQ(u.score(1), 4.0);
  EXPECT_EQ(u.token(2), 3u);
  EXPECT_DOUBLE_EQ(u.score(2), 3.0);  // max(1, 3)
  EXPECT_DOUBLE_EQ(u.norm(), 3.0);    // min member norm
}

TEST(ClusterSetTest, SummarySupersetInvariant) {
  // overlap(probe, summary) >= overlap(probe, m) for every member m — the
  // property that makes J(r) a safe superset.
  OverlapPredicate pred(1);
  Record a = Record::FromWeightedTokens({{1, 2.0}, {4, 1.0}, {6, 3.0}});
  Record b = Record::FromWeightedTokens({{2, 5.0}, {4, 2.0}});
  Record probe = Record::FromWeightedTokens({{1, 1.0}, {2, 1.0}, {4, 1.0}});
  ClusterSet clusters(pred, {.assign_similarity_threshold = 0},
                      /*vocabulary_size=*/7);
  JoinOneCluster(&clusters, a, b);
  RecordView u = clusters.summary(0);
  EXPECT_GE(probe.view().OverlapWith(u), probe.OverlapWith(a));
  EXPECT_GE(probe.view().OverlapWith(u), probe.OverlapWith(b));
}

// The flat member index must hand ProbeMatches exactly the lists a
// DynamicIndex fed the same records gives: same ids, scores, max score
// and probe-token order, after every insert.
TEST(MemberIndexTest, ListsMatchDynamicIndex) {
  for (uint64_t seed : {3, 4, 5}) {
    RecordSet set = testing_util::MakeRandomRecordSet(
        {.num_records = 150, .vocabulary = 70}, seed);
    CosinePredicate(0.5).Prepare(&set);  // varied real-valued scores
    MemberIndex flat;
    DynamicIndex dynamic;
    std::vector<PostingListView> flat_lists, dynamic_lists;
    std::vector<double> flat_scores, dynamic_scores;
    Rng rng(seed);
    for (RecordId id = 0; id < set.size(); ++id) {
      flat.Insert(id + 1000, set.record(id));
      dynamic.Insert(id, set.record(id));
      ASSERT_EQ(flat.num_entities(), dynamic.num_entities());
      ASSERT_EQ(flat.total_postings(), dynamic.total_postings());
      ASSERT_EQ(flat.min_norm(), dynamic.min_norm());
      ASSERT_EQ(flat.members()[id], id + 1000);
      for (int p = 0; p < 3; ++p) {
        RecordView probe = set.record(rng.UniformU32(set.size()));
        CollectProbeLists(flat, probe, &flat_lists, &flat_scores);
        CollectProbeLists(dynamic, probe, &dynamic_lists, &dynamic_scores);
        ASSERT_EQ(flat_scores, dynamic_scores);
        ASSERT_EQ(flat_lists.size(), dynamic_lists.size());
        for (size_t l = 0; l < flat_lists.size(); ++l) {
          const PostingListView& x = flat_lists[l];
          const PostingListView& y = dynamic_lists[l];
          ASSERT_EQ(x.max_score(), y.max_score());
          ASSERT_EQ(x.size(), y.size());
          for (size_t i = 0; i < x.size(); ++i) {
            ASSERT_EQ(x[i].id, y[i].id);
            ASSERT_EQ(x[i].score, y[i].score);
          }
        }
      }
    }
  }
}

TEST(ProbeClusterJoinTest, FewerIndexPostingsOnDuplicateHeavyData) {
  // Probe-Cluster's point: highly overlapping records share cluster-level
  // postings, shrinking the top index relative to one posting per record.
  OverlapPredicate pred(4);
  RecordSet set = testing_util::MakeRandomRecordSet(
      {.num_records = 200, .vocabulary = 80, .duplicate_fraction = 0.7}, 31);
  pred.Prepare(&set);

  uint64_t record_level_postings = set.total_token_occurrences();
  Result<JoinStats> result =
      ProbeClusterJoin(set, pred, {}, [](RecordId, RecordId) {});
  ASSERT_TRUE(result.ok());
  // Total = cluster-level + member-level; the cluster level must compress.
  EXPECT_LT(result.value().index_postings, 2 * record_level_postings);
  EXPECT_GT(result.value().pairs, 0u);
}

TEST(ProbeClusterJoinTest, PresortOffStillExact) {
  OverlapPredicate pred(3);
  RecordSet set = PreparedRandomSet(17, pred);
  std::vector<std::pair<RecordId, RecordId>> expected;
  BruteForceJoin(set, pred, [&expected](RecordId a, RecordId b) {
    expected.emplace_back(a, b);
  });
  std::sort(expected.begin(), expected.end());

  ProbeClusterOptions options;
  options.presort = false;
  std::vector<std::pair<RecordId, RecordId>> actual;
  Result<JoinStats> result = ProbeClusterJoin(
      set, pred, options,
      [&actual](RecordId a, RecordId b) { actual.emplace_back(a, b); });
  ASSERT_TRUE(result.ok());
  std::sort(actual.begin(), actual.end());
  EXPECT_EQ(actual, expected);
}

TEST(ProbeClusterJoinTest, TightSimilarityThresholdStillExact) {
  OverlapPredicate pred(3);
  RecordSet set = PreparedRandomSet(18, pred);
  std::vector<std::pair<RecordId, RecordId>> expected;
  BruteForceJoin(set, pred, [&expected](RecordId a, RecordId b) {
    expected.emplace_back(a, b);
  });
  std::sort(expected.begin(), expected.end());

  for (double assign : {0.05, 0.9}) {
    ProbeClusterOptions options;
    options.cluster.assign_similarity_threshold = assign;
    std::vector<std::pair<RecordId, RecordId>> actual;
    Result<JoinStats> result = ProbeClusterJoin(
        set, pred, options,
        [&actual](RecordId a, RecordId b) { actual.emplace_back(a, b); });
    ASSERT_TRUE(result.ok());
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected) << "assign_similarity=" << assign;
  }
}


// Near-duplicates of a few seed records, each edited from a small pool
// of variant tokens, so clusters keep absorbing members and their flat
// member indexes grow to hundreds of records.
RecordSet NearDuplicateSet(uint32_t num_records, uint64_t seed) {
  constexpr uint32_t kSeeds = 3;
  constexpr uint32_t kSeedTokens = 14;
  constexpr uint32_t kVariantsPerSeed = 12;
  Rng rng(seed);
  std::vector<std::vector<TokenId>> seeds(kSeeds);
  for (uint32_t s = 0; s < kSeeds; ++s) {
    for (uint32_t t = 0; t < kSeedTokens; ++t) {
      seeds[s].push_back(s * 100 + t);
    }
  }
  RecordSet set;
  for (uint32_t i = 0; i < num_records; ++i) {
    const uint32_t s = i % kSeeds;
    std::vector<TokenId> tokens = seeds[s];
    int edits = rng.UniformInt(0, 2);
    for (int e = 0; e < edits; ++e) {
      uint32_t pos = rng.UniformU32(static_cast<uint32_t>(tokens.size()));
      tokens[pos] = s * 100 + 50 + rng.UniformU32(kVariantsPerSeed);
    }
    set.Add(Record::FromTokens(tokens), "r" + std::to_string(i));
  }
  return set;
}

TEST(ProbeClusterJoinTest, HundredMemberClustersMatchBruteForceAndClusterMem) {
  JaccardPredicate pred(0.7);
  RecordSet set = NearDuplicateSet(900, 11);
  pred.Prepare(&set);

  // The premise: clusters really grow to hundreds of members.
  ClusterSet clusters(pred, {}, set.vocabulary_size());
  MergeStats merge;
  for (RecordId id : set.IdsByDecreasingNorm()) {
    clusters.ProbeAndAssign(set.record(id), &merge);
  }
  uint32_t largest = 0;
  for (ClusterId c = 0; c < clusters.num_clusters(); ++c) {
    largest = std::max(largest, clusters.cluster_size(c));
  }
  ASSERT_GE(largest, 100u);

  std::vector<std::pair<RecordId, RecordId>> expected;
  BruteForceJoin(set, pred, [&expected](RecordId a, RecordId b) {
    expected.emplace_back(a, b);
  });
  std::sort(expected.begin(), expected.end());
  ASSERT_FALSE(expected.empty());

  std::vector<std::pair<RecordId, RecordId>> cluster_pairs;
  Result<JoinStats> cluster = ProbeClusterJoin(
      set, pred, {}, [&cluster_pairs](RecordId a, RecordId b) {
        cluster_pairs.emplace_back(a, b);
      });
  ASSERT_TRUE(cluster.ok());
  std::sort(cluster_pairs.begin(), cluster_pairs.end());
  EXPECT_EQ(cluster_pairs, expected);

  ClusterMemOptions mem_options;
  mem_options.memory_budget_postings = set.total_token_occurrences() / 4;
  mem_options.temp_dir = ::testing::TempDir();
  std::vector<std::pair<RecordId, RecordId>> mem_pairs;
  Result<JoinStats> mem = ClusterMemJoin(
      set, pred, mem_options, [&mem_pairs](RecordId a, RecordId b) {
        mem_pairs.emplace_back(a, b);
      });
  ASSERT_TRUE(mem.ok());
  std::sort(mem_pairs.begin(), mem_pairs.end());
  EXPECT_EQ(mem_pairs, expected);
}

// Probe-Cluster keeps every per-record structure in a long-lived home
// (probe scratch, J(r) buffer, flat member indexes, token-indexed cluster
// lists), so what remains is amortized growth of those homes.
TEST(ProbeClusterJoinTest, AllocationsPerRecordStayBounded) {
  CitationGeneratorOptions generator;
  generator.num_records = 5000;
  TokenDictionary dict;
  RecordSet set = BuildWordCorpus(CitationGenerator(generator).Generate(),
                                  &dict);
  JaccardPredicate pred(0.6);
  pred.Prepare(&set);

  uint64_t pairs = 0;
  const uint64_t before = g_alloc_calls.load(std::memory_order_relaxed);
  Result<JoinStats> result =
      ProbeClusterJoin(set, pred, {}, [&pairs](RecordId, RecordId) {
        ++pairs;
      });
  const uint64_t allocs =
      g_alloc_calls.load(std::memory_order_relaxed) - before;
  ASSERT_TRUE(result.ok());
  EXPECT_GT(pairs, 0u);
  const double per_record = static_cast<double>(allocs) / set.size();
  EXPECT_LE(per_record, 8.0) << allocs << " allocations for " << set.size()
                             << " records";
}

}  // namespace
}  // namespace ssjoin
