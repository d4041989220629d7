#ifndef SSJOIN_INDEX_COMPRESSED_POSTINGS_H_
#define SSJOIN_INDEX_COMPRESSED_POSTINGS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "index/inverted_index.h"
#include "index/posting_list.h"

namespace ssjoin {

/// Immutable delta+varint compressed posting list. Section 4 notes that
/// standard IR index compression "would contribute to pushing the limit
/// up to which we can hold the index in memory" and is orthogonal to the
/// partitioning strategy; this codec quantifies that headroom. Only the
/// measurements use it: bench_micro, bench_ablation's compression table
/// and index_test. ClusterMem sizes its batches in postings and never
/// compresses an index.
class CompressedPostingList {
 public:
  CompressedPostingList() = default;

  /// Compresses `list`. Scores are quantized to float32.
  static CompressedPostingList FromPostingList(PostingListView list);
  static CompressedPostingList FromPostingList(const PostingList& list) {
    return FromPostingList(list.view());
  }

  /// Decompresses into a PostingList (scores widened back to double).
  PostingList Decode() const;

  size_t num_postings() const { return num_postings_; }

  /// Compressed footprint in bytes.
  size_t byte_size() const { return ids_.size() + scores_.size() * 4; }

  /// Uncompressed footprint (id + double score per posting).
  size_t uncompressed_byte_size() const {
    return num_postings_ * (sizeof(RecordId) + sizeof(double));
  }

 private:
  std::string ids_;            // delta+varint coded record ids
  std::vector<float> scores_;  // parallel quantized scores
  size_t num_postings_ = 0;
};

/// Whole-index compression statistics, reported by bench_micro.
struct IndexCompressionStats {
  uint64_t total_postings = 0;
  uint64_t compressed_bytes = 0;
  uint64_t uncompressed_bytes = 0;
  double ratio() const {
    return uncompressed_bytes == 0
               ? 1.0
               : static_cast<double>(compressed_bytes) /
                     static_cast<double>(uncompressed_bytes);
  }
};

/// Compresses every list of `index` and accumulates footprint statistics.
IndexCompressionStats CompressIndex(const InvertedIndex& index);

}  // namespace ssjoin

#endif  // SSJOIN_INDEX_COMPRESSED_POSTINGS_H_
