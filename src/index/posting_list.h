#ifndef SSJOIN_INDEX_POSTING_LIST_H_
#define SSJOIN_INDEX_POSTING_LIST_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "data/record_view.h"

namespace ssjoin {

/// One entry of a posting list: a record (or cluster) id and the score of
/// the list's token in that record, i.e. the framework's score(w, s).
struct Posting {
  RecordId id;
  double score;
};

/// A non-owning, trivially-copyable view of a sorted-by-id posting run —
/// either one token's extent inside the flat InvertedIndex buffer or a
/// whole dynamic PostingList — together with the per-list statistics
/// MergeOptGen needs (length and max score, Equation 3's score(w, I)).
/// This is what the merge machinery consumes, so flat and dynamic indexes
/// share one probe path.
class PostingListView {
 public:
  constexpr PostingListView() = default;
  constexpr PostingListView(const Posting* data, size_t size,
                            double max_score)
      : data_(data), size_(size), max_score_(max_score) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Posting& operator[](size_t i) const { return data_[i]; }

  /// Max score over postings; 0 when empty.
  double max_score() const { return max_score_; }

  /// Doubling (galloping) binary search for `id` starting at position
  /// `start`: the search primitive of MergeOpt step 10. Returns the
  /// posting's position, or SIZE_MAX if absent. `probe_cost` (optional)
  /// is incremented by the number of comparisons, for instrumentation.
  size_t GallopFind(RecordId id, size_t start = 0,
                    uint64_t* probe_cost = nullptr) const;

  /// Doubling search for the first position at or after `start` whose
  /// posting id is >= `id`. Returns size() when no such posting exists.
  /// This is the primitive MergeOpt uses so the caller can both test
  /// membership and carry the position forward as the next search hint
  /// (candidates arrive in increasing id order).
  size_t GallopLowerBound(RecordId id, size_t start = 0,
                          uint64_t* probe_cost = nullptr) const;

  /// First position with posting id >= `id` (classic lower bound), used by
  /// merge frontiers.
  size_t LowerBound(RecordId id) const;

 private:
  const Posting* data_ = nullptr;
  size_t size_ = 0;
  double max_score_ = 0;
};

static_assert(std::is_trivially_copyable_v<PostingListView>);

/// An owning, dynamically growing posting list, used where membership is
/// not known up front (the cluster-level index of Probe-Cluster /
/// ClusterMem, the serving memtable's DynamicIndex). Batch algorithms use
/// the flat buffer inside InvertedIndex instead.
class PostingList {
 public:
  PostingList() = default;

  /// Appends a posting with id strictly greater than all existing ids
  /// (the common case: records are inserted in scan order).
  void Append(RecordId id, double score);

  /// Inserts in sorted position, or raises an existing posting's score to
  /// max(old, score). Used by the cluster-level index, where an old
  /// cluster can acquire a new token after younger clusters already
  /// appear in the list. O(size) worst case, O(1) when appending.
  /// Returns true if a new posting was inserted (vs. updated in place).
  bool InsertOrUpdateMax(RecordId id, double score);

  size_t size() const { return postings_.size(); }
  bool empty() const { return postings_.empty(); }
  const Posting& operator[](size_t i) const { return postings_[i]; }
  const std::vector<Posting>& postings() const { return postings_; }

  /// Max score over postings; 0 when empty.
  double max_score() const { return max_score_; }

  /// View over the current contents; valid until the next mutation.
  PostingListView view() const {
    return PostingListView(postings_.data(), postings_.size(), max_score_);
  }

  size_t GallopFind(RecordId id, size_t start = 0,
                    uint64_t* probe_cost = nullptr) const {
    return view().GallopFind(id, start, probe_cost);
  }
  size_t GallopLowerBound(RecordId id, size_t start = 0,
                          uint64_t* probe_cost = nullptr) const {
    return view().GallopLowerBound(id, start, probe_cost);
  }
  size_t LowerBound(RecordId id) const { return view().LowerBound(id); }

 private:
  std::vector<Posting> postings_;
  double max_score_ = 0;
};

}  // namespace ssjoin

#endif  // SSJOIN_INDEX_POSTING_LIST_H_
