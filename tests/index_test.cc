#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "index/compressed_postings.h"
#include "index/dynamic_index.h"
#include "index/inverted_index.h"
#include "index/posting_list.h"
#include "util/rng.h"

namespace ssjoin {
namespace {

TEST(PostingListTest, AppendMaintainsMaxScore) {
  PostingList list;
  list.Append(1, 0.5);
  list.Append(5, 2.0);
  list.Append(9, 1.0);
  EXPECT_EQ(list.size(), 3u);
  EXPECT_DOUBLE_EQ(list.max_score(), 2.0);
  EXPECT_EQ(list[1].id, 5u);
}

TEST(PostingListTest, InsertOrUpdateMaxInsertsSorted) {
  PostingList list;
  EXPECT_TRUE(list.InsertOrUpdateMax(5, 1.0));
  EXPECT_TRUE(list.InsertOrUpdateMax(2, 1.0));
  EXPECT_TRUE(list.InsertOrUpdateMax(9, 1.0));
  EXPECT_TRUE(list.InsertOrUpdateMax(4, 1.0));
  ASSERT_EQ(list.size(), 4u);
  for (size_t i = 1; i < list.size(); ++i) {
    EXPECT_LT(list[i - 1].id, list[i].id);
  }
}

TEST(PostingListTest, InsertOrUpdateMaxTakesMax) {
  PostingList list;
  EXPECT_TRUE(list.InsertOrUpdateMax(3, 2.0));
  EXPECT_FALSE(list.InsertOrUpdateMax(3, 1.0));  // update, score stays 2
  EXPECT_DOUBLE_EQ(list[0].score, 2.0);
  EXPECT_FALSE(list.InsertOrUpdateMax(3, 5.0));
  EXPECT_DOUBLE_EQ(list[0].score, 5.0);
  EXPECT_DOUBLE_EQ(list.max_score(), 5.0);
}

TEST(PostingListTest, GallopFindLocatesIds) {
  PostingList list;
  for (uint32_t id = 0; id < 200; id += 3) list.Append(id, 1.0);
  for (uint32_t id = 0; id < 200; ++id) {
    size_t pos = list.GallopFind(id);
    if (id % 3 == 0) {
      ASSERT_NE(pos, SIZE_MAX) << id;
      EXPECT_EQ(list[pos].id, id);
    } else {
      EXPECT_EQ(pos, SIZE_MAX) << id;
    }
  }
}

TEST(PostingListTest, GallopFindHonorsStart) {
  PostingList list;
  for (uint32_t id = 0; id < 50; ++id) list.Append(id, 1.0);
  EXPECT_EQ(list.GallopFind(10, 20), SIZE_MAX);  // behind the start hint
  EXPECT_EQ(list.GallopFind(30, 20), 30u);
}

TEST(PostingListTest, GallopLowerBoundMatchesStdLowerBound) {
  Rng rng(17);
  PostingList list;
  uint32_t id = 0;
  std::vector<uint32_t> ids;
  for (int i = 0; i < 500; ++i) {
    id += 1 + rng.UniformU32(7);
    list.Append(id, 1.0);
    ids.push_back(id);
  }
  for (int trial = 0; trial < 2000; ++trial) {
    uint32_t target = rng.UniformU32(id + 10);
    size_t start = rng.UniformU32(static_cast<uint32_t>(ids.size()));
    size_t expected =
        std::lower_bound(ids.begin() + start, ids.end(), target) -
        ids.begin();
    EXPECT_EQ(list.GallopLowerBound(target, start), expected)
        << "target=" << target << " start=" << start;
  }
}

TEST(PostingListTest, GallopCountsProbes) {
  PostingList list;
  for (uint32_t id = 0; id < 1000; ++id) list.Append(id, 1.0);
  uint64_t cost = 0;
  list.GallopFind(999, 0, &cost);
  EXPECT_GT(cost, 0u);
  EXPECT_LT(cost, 40u);  // logarithmic, not linear
}

TEST(InvertedIndexTest, InsertBuildsLists) {
  InvertedIndex index;
  Record r0 = Record::FromWeightedTokens({{1, 1.0}, {3, 2.0}});
  r0.set_norm(3.0);
  Record r1 = Record::FromWeightedTokens({{3, 5.0}});
  r1.set_norm(5.0);
  index.Plan({0, 1, 0, 2});  // df per token: 1 once, 3 twice
  index.Insert(0, r0);
  index.Insert(1, r1);

  EXPECT_EQ(index.num_entities(), 2u);
  EXPECT_EQ(index.total_postings(), 3u);
  EXPECT_DOUBLE_EQ(index.min_norm(), 3.0);
  ASSERT_FALSE(index.list(3).empty());
  EXPECT_EQ(index.list(3).size(), 2u);
  EXPECT_DOUBLE_EQ(index.list(3).max_score(), 5.0);
  EXPECT_TRUE(index.list(2).empty());
  EXPECT_TRUE(index.list(1000).empty());
}

TEST(InvertedIndexTest, ForEachListAscendingTokens) {
  InvertedIndex index;
  index.Plan({1, 0, 2, 1});
  index.Insert(0, Record::FromTokens({0, 2}));
  index.Insert(1, Record::FromTokens({2, 3}));
  std::vector<TokenId> seen;
  index.ForEachList([&seen](TokenId t, PostingListView list) {
    EXPECT_GT(list.size(), 0u);
    seen.push_back(t);
  });
  EXPECT_EQ(seen, (std::vector<TokenId>{0, 2, 3}));
  EXPECT_EQ(index.num_tokens(), 3u);
}

TEST(InvertedIndexTest, EmptyIndex) {
  InvertedIndex index;
  EXPECT_EQ(index.num_entities(), 0u);
  EXPECT_EQ(index.total_postings(), 0u);
  EXPECT_TRUE(std::isinf(index.min_norm()));
  EXPECT_TRUE(index.list(0).empty());
}

TEST(DynamicIndexTest, EmptyIndex) {
  DynamicIndex index;
  EXPECT_EQ(index.num_entities(), 0u);
  EXPECT_EQ(index.total_postings(), 0u);
  EXPECT_TRUE(std::isinf(index.min_norm()));
  EXPECT_EQ(index.list(0), nullptr);
}

TEST(CompressedPostingsTest, RoundTrip) {
  PostingList list;
  Rng rng(23);
  uint32_t id = 0;
  for (int i = 0; i < 300; ++i) {
    id += 1 + rng.UniformU32(100);
    list.Append(id, rng.NextDouble() * 4);
  }
  CompressedPostingList compressed =
      CompressedPostingList::FromPostingList(list.view());
  EXPECT_EQ(compressed.num_postings(), list.size());
  PostingList decoded = compressed.Decode();
  ASSERT_EQ(decoded.size(), list.size());
  for (size_t i = 0; i < list.size(); ++i) {
    EXPECT_EQ(decoded[i].id, list[i].id);
    EXPECT_FLOAT_EQ(static_cast<float>(decoded[i].score),
                    static_cast<float>(list[i].score));
  }
}

TEST(CompressedPostingsTest, DenseListsCompressWell) {
  PostingList list;
  for (uint32_t id = 0; id < 10000; ++id) list.Append(id, 1.0);
  CompressedPostingList compressed =
      CompressedPostingList::FromPostingList(list.view());
  // Dense deltas are all 1 => 1 byte id + 4 byte score vs 12 bytes raw.
  EXPECT_LT(compressed.byte_size(), compressed.uncompressed_byte_size() / 2);
}

TEST(CompressedPostingsTest, IndexCompressionStats) {
  std::vector<Record> records;
  std::vector<uint64_t> counts(8, 0);
  for (RecordId id = 0; id < 100; ++id) {
    records.push_back(Record::FromTokens({0, 1, id % 7}));
    for (TokenId t : records.back().tokens()) ++counts[t];
  }
  InvertedIndex index;
  index.Plan(counts);
  for (RecordId id = 0; id < 100; ++id) index.Insert(id, records[id]);
  IndexCompressionStats stats = CompressIndex(index);
  EXPECT_EQ(stats.total_postings, index.total_postings());
  EXPECT_GT(stats.compressed_bytes, 0u);
  EXPECT_LT(stats.ratio(), 1.0);
}

TEST(CompressedPostingsTest, EmptyList) {
  PostingList empty;
  CompressedPostingList compressed =
      CompressedPostingList::FromPostingList(empty.view());
  EXPECT_EQ(compressed.num_postings(), 0u);
  EXPECT_EQ(compressed.Decode().size(), 0u);
}

}  // namespace
}  // namespace ssjoin
