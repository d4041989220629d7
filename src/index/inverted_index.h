#ifndef SSJOIN_INDEX_INVERTED_INDEX_H_
#define SSJOIN_INDEX_INVERTED_INDEX_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "data/record_set.h"
#include "data/record_view.h"
#include "index/posting_list.h"
#include "text/token_dictionary.h"

namespace ssjoin {

/// Token -> posting-list inverted index over a known record population,
/// the central data structure of every batch algorithm in the paper
/// (Section 2.1). Postings live in ONE contiguous buffer with per-token
/// extents (a CSR layout over tokens), so whole-index scans and probe
/// loops stream flat memory instead of chasing a hash map of vectors.
///
/// Usage protocol:
///   1. Plan() once with per-token posting counts (usually the corpus
///      document frequencies via PlanFromRecords) — this carves the
///      extents. Counts may overestimate (e.g. stopword-skipped inserts);
///      unfilled capacity is wasted space, never an error.
///   2. Insert() each record with strictly increasing entity id. Both
///      two-pass (index everything, then probe) and online (probe, then
///      insert) construction work, because every record is known up
///      front even when insertion is interleaved with probing.
///
/// It also maintains the aggregate statistics the generalized MergeOpt
/// needs: the minimum record norm in the index (for T(r, I)) and the
/// total number of postings (the W of Section 4's memory model).
///
/// Indexes whose membership is NOT known up front live elsewhere: the
/// serving memtable in DynamicIndex, Probe-Cluster's cluster-level lists
/// and per-cluster member indexes in core/probe_cluster.h.
///
/// Like RecordSet, two storage modes share this one type (see DESIGN.md
/// "Out-of-core segments"): OWNED (default, built via Plan/Insert) and
/// VIEW (MakeView), where the begin/size/max_score extent tables and the
/// flat posting buffer are BORROWED pointers into an immutable mapped
/// `.sseg` body. View indexes are frozen — Plan/Insert/AppendPosting are
/// illegal — and list()/ForEachList behave identically in both modes.
class InvertedIndex {
 public:
  InvertedIndex() = default;

  InvertedIndex(const InvertedIndex&) = delete;
  InvertedIndex& operator=(const InvertedIndex&) = delete;
  InvertedIndex(InvertedIndex&&) = default;
  InvertedIndex& operator=(InvertedIndex&&) = default;

  /// Carves the per-token extents: token t gets counts[t] posting slots.
  /// Must be called exactly once, before any insertion.
  void Plan(const std::vector<uint64_t>& counts);

  /// Plans from the document frequencies of `records`, counted from its
  /// arena — exact when every record is inserted exactly once (any
  /// order), an upper bound when some tokens are skipped (stopword mode).
  void PlanFromRecords(const RecordSet& records) {
    Plan(records.CountDocumentFrequencies().counts);
  }

  /// Plans extents for the subset `member_ids` of `records` — the shard
  /// carving of the serving layer, where each token-range shard indexes
  /// only the records routed to it under local ids. Extents span the full
  /// vocabulary of `records` (tokens absent from the subset get empty
  /// extents, which list() and probes already treat as "no postings"),
  /// and counts are exact when every member is inserted exactly once.
  void PlanFromRecordsSubset(const RecordSet& records,
                             const std::vector<RecordId>& member_ids);

  /// Appends all postings of `record` under id `id`. Requires `id` to be
  /// strictly greater than any previously inserted id. When `skip_token`
  /// is non-null, tokens with skip_token[t] set are not indexed (the
  /// stopword filter applied at insertion instead of record copies).
  void Insert(RecordId id, RecordView record,
              const std::vector<bool>* skip_token = nullptr);

  /// Appends one posting to token `t`'s extent (ids strictly increasing
  /// within the extent). Low-level primitive for Insert and restoration.
  void AppendPosting(TokenId t, RecordId id, double score);

  /// Borrowed state of a view-mode index; see MakeView.
  struct ViewSpec {
    const Posting* postings = nullptr;   // borrowed; begin[vocab] slots
    const uint64_t* begin = nullptr;     // borrowed; vocab + 1 extents
    const uint32_t* size = nullptr;      // borrowed; live count per token
    const double* max_score = nullptr;   // borrowed; per-token max score
    uint64_t vocabulary_size = 0;
    uint64_t num_nonempty_tokens = 0;
    uint64_t num_entities = 0;
    double min_norm = std::numeric_limits<double>::infinity();
    uint64_t total_postings = 0;
    std::shared_ptr<const void> backing;  // keeps borrowed memory alive
  };

  /// Builds a frozen view-mode index over extent tables and a posting
  /// buffer the caller borrowed (typically a mapped segment file, kept
  /// alive by `spec.backing`). Plan/Insert/AppendPosting are illegal on
  /// the result; list()/ForEachList work unchanged.
  static InvertedIndex MakeView(ViewSpec spec);

  /// Whether this index borrows its extents (MakeView) instead of owning
  /// them.
  bool is_view() const { return view_begin_ != nullptr; }

  /// The posting run of token `t`; empty view when no record contains it.
  PostingListView list(TokenId t) const {
    if (view_begin_ != nullptr) {
      if (t >= view_vocabulary_size_ || view_size_[t] == 0) {
        return PostingListView();
      }
      return PostingListView(view_postings_ + view_begin_[t], view_size_[t],
                             view_max_score_[t]);
    }
    if (t >= size_.size() || size_[t] == 0) return PostingListView();
    return PostingListView(postings_.data() + begin_[t], size_[t],
                           max_score_[t]);
  }

  /// Invokes `fn(token, list)` for every non-empty list, in increasing
  /// token order (the natural order of the flat layout). Used by
  /// whole-index consumers (Pair-Count, compression, serialization).
  template <typename Fn>
  void ForEachList(Fn&& fn) const {
    const size_t vocab = token_capacity();
    for (TokenId t = 0; t < vocab; ++t) {
      PostingListView view = list(t);
      if (!view.empty()) fn(t, view);
    }
  }

  /// Number of distinct tokens with a non-empty posting list.
  size_t num_tokens() const { return num_nonempty_tokens_; }

  /// Number of tokens with planned extents (the planning vocabulary).
  size_t token_capacity() const {
    return view_begin_ != nullptr
               ? static_cast<size_t>(view_vocabulary_size_)
               : size_.size();
  }

  /// Extent-table accessors for the segment writer (valid in both modes):
  /// begin is the planned-capacity offset of token `t`'s extent in the
  /// flat posting buffer, size the live posting count within it.
  uint64_t extent_begin(TokenId t) const {
    return view_begin_ != nullptr ? view_begin_[t]
                                  : static_cast<uint64_t>(begin_[t]);
  }
  uint32_t extent_size(TokenId t) const {
    return view_begin_ != nullptr ? view_size_[t] : size_[t];
  }
  double extent_max_score(TokenId t) const {
    return view_begin_ != nullptr ? view_max_score_[t] : max_score_[t];
  }
  /// The flat posting buffer (extent_begin(vocab) slots, unfilled slots
  /// zeroed in owned mode by Plan's value-initializing resize).
  const Posting* postings_buffer() const {
    return view_begin_ != nullptr ? view_postings_ : postings_.data();
  }
  /// Total planned posting capacity == extent_begin(token_capacity()).
  uint64_t postings_capacity() const {
    return view_begin_ != nullptr ? view_begin_[view_vocabulary_size_]
                                  : static_cast<uint64_t>(postings_.size());
  }

  /// Number of Insert target entities seen (records or positions).
  size_t num_entities() const { return num_entities_; }

  /// Minimum norm over all inserted records; +inf when empty. This is the
  /// minS of Section 5.1.1.
  double min_norm() const { return min_norm_; }

  /// Total postings currently stored (index size in word occurrences).
  uint64_t total_postings() const { return total_postings_; }

 private:
  void TrackEntity(RecordId id, double norm);

  std::vector<Posting> postings_;   // one flat buffer, CSR over tokens
  std::vector<size_t> begin_;      // extent start per token (size vocab+1)
  std::vector<uint32_t> size_;     // live postings per token
  std::vector<double> max_score_;  // per-token max posting score

  // View mode (MakeView): borrowed extent tables, non-null iff is_view().
  // The vectors above stay empty; backing_ pins the borrowed memory.
  const Posting* view_postings_ = nullptr;
  const uint64_t* view_begin_ = nullptr;
  const uint32_t* view_size_ = nullptr;
  const double* view_max_score_ = nullptr;
  uint64_t view_vocabulary_size_ = 0;
  std::shared_ptr<const void> backing_;

  size_t num_nonempty_tokens_ = 0;
  size_t num_entities_ = 0;
  RecordId max_entity_id_ = std::numeric_limits<RecordId>::max();  // none yet
  double min_norm_ = std::numeric_limits<double>::infinity();
  uint64_t total_postings_ = 0;
  bool planned_ = false;
};

}  // namespace ssjoin

#endif  // SSJOIN_INDEX_INVERTED_INDEX_H_
