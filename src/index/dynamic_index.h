#ifndef SSJOIN_INDEX_DYNAMIC_INDEX_H_
#define SSJOIN_INDEX_DYNAMIC_INDEX_H_

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "data/record_view.h"
#include "index/posting_list.h"
#include "text/token_dictionary.h"

namespace ssjoin {

/// Token -> posting-list index for the serving memtable, where records
/// arrive one at a time and the flat CSR InvertedIndex cannot pre-carve
/// extents. Storage is sparse (hash map of growable lists): a memtable
/// holds few records over a large shared token space, where dense
/// per-token arrays would cost O(vocabulary) memory per image.
class DynamicIndex {
 public:
  DynamicIndex() = default;

  DynamicIndex(const DynamicIndex&) = delete;
  DynamicIndex& operator=(const DynamicIndex&) = delete;
  DynamicIndex(DynamicIndex&&) = default;
  DynamicIndex& operator=(DynamicIndex&&) = default;

  /// Appends all postings of `record` under id `id`. Requires `id` to be
  /// strictly greater than any previously inserted id (ids may gap).
  void Insert(RecordId id, RecordView record);

  /// The posting list of token `t`, or nullptr if no record contains it.
  const PostingList* list(TokenId t) const {
    auto it = lists_.find(t);
    return it == lists_.end() ? nullptr : &it->second;
  }

  /// One past the largest inserted id; 0 when empty.
  size_t num_entities() const { return num_entities_; }

  /// Minimum norm over all inserted records; +inf when empty. This is the
  /// minS of Section 5.1.1.
  double min_norm() const { return min_norm_; }

  /// Total postings currently stored (index size in word occurrences).
  uint64_t total_postings() const { return total_postings_; }

 private:
  std::unordered_map<TokenId, PostingList> lists_;
  size_t num_entities_ = 0;
  double min_norm_ = std::numeric_limits<double>::infinity();
  uint64_t total_postings_ = 0;
};

}  // namespace ssjoin

#endif  // SSJOIN_INDEX_DYNAMIC_INDEX_H_
