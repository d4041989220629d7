#ifndef SSJOIN_CORE_MERGE_OPT_H_
#define SSJOIN_CORE_MERGE_OPT_H_

#include <cstdint>
#include <vector>

#include "data/record_view.h"
#include "index/dynamic_index.h"
#include "index/inverted_index.h"
#include "index/posting_list.h"
#include "util/function_ref.h"

namespace ssjoin {

/// Instrumentation counters for one or many merges.
struct MergeStats {
  uint64_t merges = 0;          // probe-merge invocations
  // S postings counted into the block; the stats JSON and perfbench read
  // it under this name.
  uint64_t heap_pops = 0;
  uint64_t gallop_probes = 0;   // comparisons in direct (L) searches
  uint64_t candidates = 0;      // candidates emitted
  uint64_t bitmap_checked = 0;  // candidates PrefixFilter's bitmap gate read
  uint64_t bitmap_pruned = 0;   // candidates it dropped before verification
  uint64_t lists_direct = 0;    // lists placed in L across merges
  uint64_t lists_merged = 0;    // lists placed in S across merges

  MergeStats& operator+=(const MergeStats& other);
};

/// A candidate produced by a merge: an indexed entity id and its exact
/// total overlap with the probe record (S-side accumulation plus all
/// direct-search contributions).
struct MergeCandidate {
  RecordId id;
  double overlap;
};

struct MergeOptions {
  /// Enables the threshold-sensitive L/S split of Section 3.1 (MergeOpt).
  /// False counts every list (Probe-Count).
  bool split_lists = true;
};

/// Relative slack used whenever a float comparison prunes work: borderline
/// candidates survive to exact verification instead of being lost to
/// accumulation-order rounding.
double PruneBound(double bound);

/// Threshold-sensitive multi-way posting-list merge: Algorithm 1
/// (MergeOpt) and its generalized form Algorithm 3 (MergeOptGen), plus the
/// dynamic floor raises of Section 4.1.1.
///
/// Given the posting lists of a probe record's tokens, emits every indexed
/// id whose total overlap with the probe reaches the per-candidate bound
/// max(floor, min_overlap, required(id)). Lists are split into L (largest
/// lists whose cumulative potential stays below the floor, consulted only
/// by doubling binary search) and S. Where the paper merges S through a
/// heap, the merger counts: it adds every S posting of the next block of
/// kBlockIds ids into a block-sized overlap array, then walks the block's
/// touched ids in increasing order and tests each id once — floor plus L
/// potential, then the pair filter, then required(id), then the L
/// gallops. Candidates stream out of Next() in increasing id order.
///
/// The merger is reusable: default-construct it once outside the probe
/// loop and Reset() it per probe — the block arrays are allocated by the
/// first Reset and every buffer keeps its capacity, so steady-state probes
/// perform no heap allocations.
///
/// Contracts:
///   * `min_overlap` is a lower bound every wanted candidate meets
///     (Predicate::MinMatchOverlap of the probe, or 0). It joins the floor
///     in the per-id tests only: the L/S split stays at the floor.
///   * `required` may be null; candidates are then held only to the floor.
///     When supplied it must satisfy required(id) >= any floor ever set
///     (join mode: required = T(r, m) and floor = T(r, I) <= T(r, m)).
///   * `filter` may be null; when supplied, the pair filter runs once per
///     id that survives the floor test (Section 5's filter, applied per
///     candidate id instead of per posting).
///   * `required` and `filter` are non-owning references; the underlying
///     callables must outlive every Next() call of the current merge.
///   * RaiseFloor only increases the floor, and the caller must keep it
///     <= min over ids of the emit bound it still cares about (top-k
///     raises it to the k-th best score's overlap at the index's minS).
class ListMerger {
 public:
  /// Ids per counting block: a fixed size, so the merger's memory does not
  /// grow with the id space it probes.
  static constexpr uint32_t kBlockIds = 4096;

  ListMerger() = default;

  /// Convenience for one-shot merges (tests, benches).
  ListMerger(const std::vector<PostingListView>& lists,
             const std::vector<double>& probe_scores, double floor,
             double min_overlap, FunctionRef<double(RecordId)> required,
             FunctionRef<bool(RecordId)> filter, MergeOptions options,
             MergeStats* stats) {
    Reset(lists, probe_scores, floor, min_overlap, required, filter, options,
          stats);
  }

  ListMerger(const ListMerger&) = delete;
  ListMerger& operator=(const ListMerger&) = delete;

  /// Re-arms the merger for a new probe, reusing internal buffer capacity.
  /// A merge abandoned mid-block leaves nothing behind.
  void Reset(const std::vector<PostingListView>& lists,
             const std::vector<double>& probe_scores, double floor,
             double min_overlap, FunctionRef<double(RecordId)> required,
             FunctionRef<bool(RecordId)> filter, MergeOptions options,
             MergeStats* stats);

  /// Produces the next candidate; returns false when the merge is done.
  bool Next(MergeCandidate* out);

  /// Raises the emit floor, migrating newly prunable lists from S to the
  /// direct-search set L (Section 4.1.1).
  void RaiseFloor(double floor);

 private:
  static constexpr uint32_t kBlockWords = kBlockIds / 64;

  /// Counts the S postings of the block that opens at the smallest
  /// unconsumed S id; false when every S list is consumed.
  bool FillBlock();
  /// Zeroes the counts the current block has not handed out yet.
  void ClearBlock();
  void RecomputeSplit();

  std::vector<PostingListView> lists_;      // decreasing length order
  std::vector<double> probe_scores_;        // parallel to lists_
  std::vector<uint32_t> order_;             // sort scratch (reused)
  std::vector<double> cumulative_weight_;   // prefix sums of potential
  std::vector<size_t> frontier_;            // next uncounted posting (S)
  std::vector<size_t> search_pos_;          // rolling gallop hint (L)
  size_t split_k_ = 0;  // |L| under the current floor: L = lists_[0, k)
  double floor_ = 0;
  double min_overlap_ = 0;
  FunctionRef<double(RecordId)> required_;
  FunctionRef<bool(RecordId)> filter_;
  MergeOptions options_;
  MergeStats* stats_ = nullptr;

  // The counting block: ids [block_base_, block_base_ + kBlockIds). A
  // touched bit marks an id some S posting reached; Next() clears the bit
  // and zeroes the count as it hands the id out.
  std::vector<double> block_overlap_;  // kBlockIds, allocated once
  uint64_t touched_[kBlockWords] = {};
  RecordId block_base_ = 0;
  uint32_t word_ = 0;         // next touched word to walk
  uint32_t block_words_ = 0;  // words the current block touched
};

/// Gathers the posting lists for `probe`'s tokens from `index`, paired
/// with the probe-side scores, in probe token order (ListMerger re-sorts
/// by decreasing list length as MergeOpt requires). Tokens with empty or
/// absent lists are skipped. Overloads cover the flat batch index and the
/// dynamic (cluster/streaming) index so both share one probe path.
void CollectProbeLists(const InvertedIndex& index, RecordView probe,
                       std::vector<PostingListView>* lists,
                       std::vector<double>* probe_scores);
void CollectProbeLists(const DynamicIndex& index, RecordView probe,
                       std::vector<PostingListView>* lists,
                       std::vector<double>* probe_scores);

}  // namespace ssjoin

#endif  // SSJOIN_CORE_MERGE_OPT_H_
