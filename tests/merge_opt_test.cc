#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/merge_opt.h"
#include "util/rng.h"

namespace ssjoin {
namespace {

/// Random posting lists with controllable density.
std::vector<PostingList> MakeLists(Rng& rng, int num_lists, uint32_t universe,
                                   double density, bool unit_scores) {
  std::vector<PostingList> lists(num_lists);
  for (PostingList& list : lists) {
    for (uint32_t id = 0; id < universe; ++id) {
      if (rng.Bernoulli(density)) {
        list.Append(id, unit_scores ? 1.0 : 0.25 + rng.NextDouble() * 2);
      }
    }
  }
  return lists;
}

/// Ground truth: per-id total overlap across all lists.
std::map<RecordId, double> NaiveOverlaps(
    const std::vector<PostingList>& lists,
    const std::vector<double>& probe_scores) {
  std::map<RecordId, double> overlap;
  for (size_t i = 0; i < lists.size(); ++i) {
    for (size_t p = 0; p < lists[i].size(); ++p) {
      overlap[lists[i][p].id] += probe_scores[i] * lists[i][p].score;
    }
  }
  return overlap;
}

std::vector<PostingListView> Views(const std::vector<PostingList>& lists) {
  std::vector<PostingListView> out;
  for (const PostingList& list : lists) out.push_back(list.view());
  return out;
}

/// Lists over an explicit id universe (sorted, distinct): each list holds
/// each id with probability `density`.
std::vector<PostingList> ListsOver(Rng& rng, int num_lists,
                                   const std::vector<RecordId>& universe,
                                   double density, bool unit_scores) {
  std::vector<PostingList> lists(num_lists);
  for (PostingList& list : lists) {
    for (RecordId id : universe) {
      if (rng.Bernoulli(density)) {
        list.Append(id, unit_scores ? 1.0 : 0.25 + rng.NextDouble() * 2);
      }
    }
  }
  return lists;
}

/// Runs `merger` to the end and checks its output against the naive
/// overlaps: ids ascend, every id reaching `threshold` is emitted with its
/// exact overlap, and no emitted id falls below the pruned bound.
void ExpectExactMerge(ListMerger* merger,
                      const std::map<RecordId, double>& expected,
                      double threshold) {
  std::map<RecordId, double> got;
  MergeCandidate candidate;
  bool first = true;
  RecordId last = 0;
  while (merger->Next(&candidate)) {
    EXPECT_TRUE(first || candidate.id > last) << "ids must ascend";
    first = false;
    last = candidate.id;
    got[candidate.id] = candidate.overlap;
  }
  for (const auto& [id, overlap] : expected) {
    if (overlap < threshold) continue;
    ASSERT_TRUE(got.count(id) > 0)
        << "missed id " << id << " overlap " << overlap << " threshold "
        << threshold;
    EXPECT_NEAR(got[id], overlap, 1e-9) << "id " << id;
  }
  for (const auto& [id, overlap] : got) {
    ASSERT_TRUE(expected.count(id) > 0) << "id " << id << " is in no list";
    EXPECT_GE(overlap, PruneBound(threshold)) << "id " << id;
    EXPECT_NEAR(overlap, expected.at(id), 1e-9) << "id " << id;
  }
}

/// Ids on both sides of every counting-block edge a merge starting at 0
/// meets, dense runs, sparse ids past 65,536, and ids at the top of the
/// id space.
std::vector<RecordId> BlockEdgeUniverse(Rng& rng) {
  constexpr RecordId kBlock = ListMerger::kBlockIds;
  std::set<RecordId> ids;
  for (RecordId id = 0; id < 300; ++id) ids.insert(id);  // dense head
  for (RecordId edge : {kBlock, 2 * kBlock, 3 * kBlock, 16 * kBlock,
                        RecordId{65536}, RecordId{65536} + kBlock}) {
    for (RecordId d = 0; d < 4; ++d) {
      ids.insert(edge - 1 - d);
      ids.insert(edge + d);
    }
  }
  for (RecordId id = 2 * kBlock - 200; id < 2 * kBlock + 200; ++id) {
    ids.insert(id);  // a dense run straddling an edge
  }
  for (int i = 0; i < 400; ++i) {
    ids.insert(static_cast<RecordId>(rng.UniformInt(0, 1 << 20)));
  }
  for (RecordId d = 0; d < 6; ++d) {
    ids.insert(UINT32_MAX - d);
    ids.insert(UINT32_MAX - kBlock + 1 - d);
    ids.insert(UINT32_MAX - kBlock + 1 + d);
  }
  return {ids.begin(), ids.end()};
}

class MergerThresholdTest
    : public ::testing::TestWithParam<std::tuple<double, bool, bool>> {};

TEST_P(MergerThresholdTest, FindsExactlyTheIdsAboveThreshold) {
  auto [threshold, split, unit_scores] = GetParam();
  Rng rng(static_cast<uint64_t>(threshold * 10) + split);
  for (int trial = 0; trial < 20; ++trial) {
    int num_lists = rng.UniformInt(1, 12);
    std::vector<PostingList> lists =
        MakeLists(rng, num_lists, 300, 0.15, unit_scores);
    std::vector<double> probe_scores(num_lists);
    for (double& s : probe_scores) {
      s = unit_scores ? 1.0 : 0.25 + rng.NextDouble();
    }
    std::map<RecordId, double> expected_overlap =
        NaiveOverlaps(lists, probe_scores);

    MergeOptions options;
    options.split_lists = split;
    MergeStats stats;
    ListMerger merger(Views(lists), probe_scores, threshold,
                      /*min_overlap=*/0, /*required=*/nullptr,
                      /*filter=*/nullptr, options, &stats);
    std::map<RecordId, double> got;
    MergeCandidate candidate;
    RecordId last = 0;
    bool first = true;
    while (merger.Next(&candidate)) {
      EXPECT_TRUE(first || candidate.id > last) << "ids must ascend";
      first = false;
      last = candidate.id;
      got[candidate.id] = candidate.overlap;
    }

    for (const auto& [id, overlap] : expected_overlap) {
      if (overlap >= threshold) {
        ASSERT_TRUE(got.count(id) > 0)
            << "missed id " << id << " overlap " << overlap
            << " threshold " << threshold << " split " << split;
        EXPECT_NEAR(got[id], overlap, 1e-9);
      }
    }
    // No id below the pruned bound may be emitted.
    for (const auto& [id, overlap] : got) {
      EXPECT_GE(overlap, PruneBound(threshold));
      EXPECT_NEAR(overlap, expected_overlap[id], 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MergerThresholdTest,
    ::testing::Combine(::testing::Values(1.0, 2.0, 3.0, 5.0, 8.0),
                       ::testing::Bool(), ::testing::Bool()));

TEST(ListMergerTest, PerCandidateRequiredBound) {
  // required() demands more from even ids; odd ids keep the floor.
  Rng rng(42);
  std::vector<PostingList> lists = MakeLists(rng, 6, 200, 0.3, true);
  std::vector<double> scores(6, 1.0);
  std::map<RecordId, double> expected = NaiveOverlaps(lists, scores);

  auto required = [](RecordId id) { return id % 2 == 0 ? 4.0 : 2.0; };
  MergeStats stats;
  ListMerger merger(Views(lists), scores, /*floor=*/2.0, /*min_overlap=*/0,
                    required, nullptr, {}, &stats);
  MergeCandidate candidate;
  std::map<RecordId, double> got;
  while (merger.Next(&candidate)) got[candidate.id] = candidate.overlap;

  for (const auto& [id, overlap] : expected) {
    bool should_emit = overlap >= required(id);
    EXPECT_EQ(got.count(id) > 0, should_emit)
        << "id=" << id << " overlap=" << overlap;
  }
}

TEST(ListMergerTest, FilterSkipsIds) {
  Rng rng(43);
  std::vector<PostingList> lists = MakeLists(rng, 5, 150, 0.3, true);
  std::vector<double> scores(5, 1.0);
  std::map<RecordId, double> expected = NaiveOverlaps(lists, scores);

  auto filter = [](RecordId id) { return id % 3 != 0; };
  MergeStats stats;
  ListMerger merger(Views(lists), scores, 2.0, 0, nullptr, filter, {},
                    &stats);
  MergeCandidate candidate;
  while (merger.Next(&candidate)) {
    EXPECT_NE(candidate.id % 3, 0u) << "filtered id leaked through";
  }
}

TEST(ListMergerTest, RaiseFloorNeverLosesAboveNewFloor) {
  // Raising the floor mid-merge may drop ids below it but must keep every
  // id at or above it, with exact overlaps.
  Rng rng(44);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<PostingList> lists = MakeLists(rng, 8, 250, 0.25, true);
    std::vector<double> scores(8, 1.0);
    std::map<RecordId, double> expected = NaiveOverlaps(lists, scores);

    MergeStats stats;
    ListMerger merger(Views(lists), scores, 1.0, 0, nullptr, nullptr, {},
                      &stats);
    const double final_floor = 4.0;
    std::map<RecordId, double> got;
    MergeCandidate candidate;
    int step = 0;
    while (merger.Next(&candidate)) {
      got[candidate.id] = candidate.overlap;
      if (++step == 5) merger.RaiseFloor(2.5);
      if (step == 10) merger.RaiseFloor(final_floor);
    }
    // After the merge, every id with overlap >= final_floor must have been
    // seen (it was above every intermediate floor too).
    for (const auto& [id, overlap] : expected) {
      if (overlap >= final_floor) {
        ASSERT_TRUE(got.count(id) > 0) << "id=" << id;
        EXPECT_NEAR(got[id], overlap, 1e-9);
      }
    }
  }
}

TEST(ListMergerTest, EmptyInputs) {
  MergeStats stats;
  ListMerger empty({}, {}, 1.0, 0, nullptr, nullptr, {}, &stats);
  MergeCandidate candidate;
  EXPECT_FALSE(empty.Next(&candidate));

  PostingList list;  // empty list
  ListMerger with_empty({list.view()}, {1.0}, 1.0, 0, nullptr, nullptr, {},
                        &stats);
  EXPECT_FALSE(with_empty.Next(&candidate));
}

TEST(ListMergerTest, NegativeFloorEmitsEverything) {
  Rng rng(45);
  std::vector<PostingList> lists = MakeLists(rng, 4, 100, 0.2, true);
  std::vector<double> scores(4, 1.0);
  std::map<RecordId, double> expected = NaiveOverlaps(lists, scores);
  MergeStats stats;
  ListMerger merger(Views(lists), scores, -3.0, 0, nullptr, nullptr, {},
                    &stats);
  size_t count = 0;
  MergeCandidate candidate;
  while (merger.Next(&candidate)) ++count;
  EXPECT_EQ(count, expected.size());
}

TEST(ListMergerTest, SplitReducesHeapWork) {
  // One huge list + several small ones: with the L/S split the huge list
  // must not be counted.
  PostingList huge;
  for (uint32_t id = 0; id < 5000; ++id) huge.Append(id, 1.0);
  PostingList small1, small2, small3;
  for (uint32_t id = 0; id < 5000; id += 100) {
    small1.Append(id, 1.0);
    small2.Append(id, 1.0);
    small3.Append(id, 1.0);
  }
  std::vector<PostingListView> lists = {huge.view(), small1.view(),
                                        small2.view(), small3.view()};
  std::vector<double> scores(4, 1.0);

  MergeStats split_stats;
  {
    ListMerger merger(lists, scores, /*floor=*/2.0, 0, nullptr, nullptr,
                      {.split_lists = true}, &split_stats);
    MergeCandidate c;
    while (merger.Next(&c)) {
    }
  }
  MergeStats plain_stats;
  {
    ListMerger merger(lists, scores, /*floor=*/2.0, 0, nullptr, nullptr,
                      {.split_lists = false}, &plain_stats);
    MergeCandidate c;
    while (merger.Next(&c)) {
    }
  }
  EXPECT_LT(split_stats.heap_pops, plain_stats.heap_pops / 5);
  EXPECT_EQ(split_stats.lists_direct, 1u);
}

TEST(ListMergerTest, ExactAcrossCountingBlocks) {
  // Universes spanning many counting blocks, up to the top of the id
  // space, with sparse and dense lists, under every threshold and both
  // list splits.
  Rng rng(46);
  for (int trial = 0; trial < 12; ++trial) {
    const std::vector<RecordId> universe = BlockEdgeUniverse(rng);
    const bool unit_scores = trial % 2 == 0;
    const int num_lists = rng.UniformInt(2, 10);
    std::vector<PostingList> lists;
    for (int i = 0; i < num_lists; ++i) {
      const double density = i % 3 == 0 ? 0.9 : (i % 3 == 1 ? 0.3 : 0.05);
      std::vector<PostingList> one =
          ListsOver(rng, 1, universe, density, unit_scores);
      lists.push_back(std::move(one[0]));
    }
    std::vector<double> probe_scores(num_lists);
    for (double& s : probe_scores) {
      s = unit_scores ? 1.0 : 0.25 + rng.NextDouble();
    }
    const std::map<RecordId, double> expected =
        NaiveOverlaps(lists, probe_scores);
    for (double threshold : {-1.0, 1.0, 2.0, 3.5}) {
      for (bool split : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "trial " << trial
                                          << " threshold " << threshold
                                          << " split " << split);
        ListMerger merger(Views(lists), probe_scores, threshold,
                          /*min_overlap=*/0, nullptr, nullptr,
                          {.split_lists = split}, nullptr);
        ExpectExactMerge(&merger, expected, threshold);
      }
    }
  }
}

TEST(ListMergerTest, MinOverlapHoldsCandidatesWithoutMovingTheSplit) {
  // min_overlap raises every candidate's bound, but the split stays at
  // the floor: the same lists go direct as without it.
  Rng rng(47);
  std::vector<PostingList> lists =
      ListsOver(rng, 8, BlockEdgeUniverse(rng), 0.4, true);
  std::vector<double> scores(8, 1.0);
  const std::map<RecordId, double> expected = NaiveOverlaps(lists, scores);
  MergeStats plain;
  MergeStats raised;
  {
    ListMerger merger(Views(lists), scores, /*floor=*/2.0, /*min_overlap=*/0,
                      nullptr, nullptr, {}, &plain);
    ExpectExactMerge(&merger, expected, 2.0);
  }
  {
    ListMerger merger(Views(lists), scores, /*floor=*/2.0,
                      /*min_overlap=*/4.0, nullptr, nullptr, {}, &raised);
    ExpectExactMerge(&merger, expected, 4.0);
  }
  EXPECT_EQ(raised.lists_direct, plain.lists_direct);
  EXPECT_EQ(raised.heap_pops, plain.heap_pops);
  EXPECT_LT(raised.candidates, plain.candidates);
}

TEST(ListMergerTest, ResetAfterAbandonedMergeLeaksNoCounts) {
  // A merge abandoned mid-block leaves counts for the ids it has not
  // handed out. A merge over other lists after Reset must not see them.
  constexpr RecordId kBlock = ListMerger::kBlockIds;
  PostingList dense;  // ids 0 .. 2 blocks, every id
  for (RecordId id = 0; id < 2 * kBlock + 100; ++id) dense.Append(id, 1.0);
  std::vector<PostingListView> first(5, dense.view());
  std::vector<double> first_scores(5, 1.0);

  Rng rng(48);
  std::vector<RecordId> universe;
  for (RecordId id = 0; id < 2 * kBlock + 100; ++id) universe.push_back(id);
  const std::vector<PostingList> second =
      ListsOver(rng, 4, universe, 0.3, false);
  std::vector<double> second_scores = {1.0, 0.5, 2.0, 0.75};
  const std::map<RecordId, double> expected =
      NaiveOverlaps(second, second_scores);

  ListMerger merger;
  for (RecordId taken : {RecordId{3}, kBlock - 1, kBlock + 7, RecordId{0}}) {
    SCOPED_TRACE(::testing::Message() << "abandoned after " << taken);
    merger.Reset(first, first_scores, /*floor=*/1.0, /*min_overlap=*/0,
                 nullptr, nullptr, {}, nullptr);
    MergeCandidate candidate;
    for (RecordId i = 0; i < taken; ++i) {
      ASSERT_TRUE(merger.Next(&candidate));
    }
    for (double threshold : {-1.0, 1.0, 2.5}) {
      merger.Reset(Views(second), second_scores, threshold,
                   /*min_overlap=*/0, nullptr, nullptr, {}, nullptr);
      ExpectExactMerge(&merger, expected, threshold);
    }
  }
}

TEST(ListMergerTest, RaiseFloorMidBlockKeepsExactOverlaps) {
  // Raising the floor mid-block moves lists whose block postings are
  // already counted into L. Every later candidate must still carry its
  // exact overlap: counted once, never again by a direct search.
  Rng rng(49);
  std::vector<RecordId> universe;
  for (RecordId id = 0; id < 3 * ListMerger::kBlockIds; ++id) {
    universe.push_back(id);
  }
  for (int trial = 0; trial < 6; ++trial) {
    const bool unit_scores = trial % 2 == 0;
    std::vector<PostingList> lists;
    for (double density : {0.9, 0.8, 0.5, 0.4, 0.3, 0.2, 0.1, 0.1}) {
      std::vector<PostingList> one =
          ListsOver(rng, 1, universe, density, unit_scores);
      lists.push_back(std::move(one[0]));
    }
    std::vector<double> scores(lists.size(), 1.0);
    const std::map<RecordId, double> expected = NaiveOverlaps(lists, scores);

    MergeStats stats;
    ListMerger merger(Views(lists), scores, /*floor=*/0.5, /*min_overlap=*/0,
                      nullptr, nullptr, {}, &stats);
    // One raise early in the first block, one in the middle of the second.
    const int first_raise = 5 + 40 * trial;
    const RecordId second_raise = ListMerger::kBlockIds + 100 + 50 * trial;
    const double final_floor = unit_scores ? 4.0 : 5.0;
    std::map<RecordId, double> got;
    MergeCandidate candidate;
    int step = 0;
    bool raised_twice = false;
    while (merger.Next(&candidate)) {
      EXPECT_NEAR(candidate.overlap, expected.at(candidate.id), 1e-9)
          << "id " << candidate.id << " after " << step << " candidates";
      got[candidate.id] = candidate.overlap;
      if (++step == first_raise) merger.RaiseFloor(unit_scores ? 2.5 : 3.0);
      if (!raised_twice && candidate.id >= second_raise) {
        merger.RaiseFloor(final_floor);
        raised_twice = true;
      }
    }
    EXPECT_TRUE(raised_twice);
    EXPECT_GT(stats.lists_direct, 0u) << "no list migrated";
    for (const auto& [id, overlap] : expected) {
      if (overlap >= final_floor) {
        ASSERT_TRUE(got.count(id) > 0) << "id=" << id;
      }
    }
  }
}

}  // namespace
}  // namespace ssjoin
