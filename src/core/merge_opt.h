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
  uint64_t heap_pops = 0;       // postings consumed through the heap
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
  /// False gives the plain heap merge over all lists (Probe-Count).
  bool split_lists = true;
};

/// Relative slack used whenever a float comparison prunes work: borderline
/// candidates survive to exact verification instead of being lost to
/// accumulation-order rounding.
double PruneBound(double bound);

/// The lower-bound search backend the direct (L) searches use:
/// "avx2" when the CPU supports it and SSJOIN_FORCE_SCALAR is unset (or
/// "0"), "scalar" otherwise. Resolved once per process; both backends
/// return identical positions for identical inputs (only the
/// `gallop_probes` comparison accounting differs), which the differential
/// suite enforces.
const char* ActiveMergeBackend();

/// Dispatched first-position-with-id->=target search over a posting run,
/// starting at `start`: the scalar path is PostingListView::
/// GallopLowerBound; the AVX2 path gallops, narrows by binary search and
/// finishes with 8-lane gathered id compares. Exposed for the
/// differential tests.
size_t MergeLowerBound(const PostingListView& list, RecordId id, size_t start,
                       uint64_t* probe_cost);

/// Threshold-sensitive multi-way posting-list merge: Algorithm 1
/// (MergeOpt) and its generalized form Algorithm 3 (MergeOptGen), plus the
/// dynamic floor raises of Section 4.1.1.
///
/// Given the posting lists of a probe record's tokens, emits every indexed
/// id whose total overlap with the probe reaches the per-candidate bound
/// max(floor, required(id)). Lists are split into L (largest lists whose
/// cumulative potential stays below the floor, consulted only by doubling
/// binary search) and S (heap-merged). Candidates stream out of Next() in
/// increasing id order.
///
/// The merger is reusable: default-construct it once outside the probe
/// loop and Reset() it per probe — internal buffers keep their capacity,
/// so steady-state probes perform no heap allocations.
///
/// Contracts:
///   * `required` may be null; candidates are then held only to the floor.
///     When supplied it must satisfy required(id) >= any floor ever set
///     (join mode: required = T(r, m) and floor = T(r, I) <= T(r, m)).
///   * `filter` may be null; when supplied, the pair filter runs on every
///     posting as it enters the heap (Section 5's simplest placement).
///   * `required` and `filter` are non-owning references; the underlying
///     callables must outlive every Next() call of the current merge.
///   * RaiseFloor only increases the floor, and the caller must keep it
///     <= min over ids of the emit bound it still cares about (cluster
///     mode caps raises at T(r, I)).
class ListMerger {
 public:
  ListMerger() = default;

  /// Convenience for one-shot merges (tests, benches).
  ListMerger(const std::vector<PostingListView>& lists,
             const std::vector<double>& probe_scores, double floor,
             FunctionRef<double(RecordId)> required,
             FunctionRef<bool(RecordId)> filter, MergeOptions options,
             MergeStats* stats) {
    Reset(lists, probe_scores, floor, required, filter, options, stats);
  }

  ListMerger(const ListMerger&) = delete;
  ListMerger& operator=(const ListMerger&) = delete;

  /// Re-arms the merger for a new probe, reusing internal buffer capacity.
  void Reset(const std::vector<PostingListView>& lists,
             const std::vector<double>& probe_scores, double floor,
             FunctionRef<double(RecordId)> required,
             FunctionRef<bool(RecordId)> filter, MergeOptions options,
             MergeStats* stats);

  /// Produces the next candidate; returns false when the merge is done.
  bool Next(MergeCandidate* out);

  /// Raises the emit floor, migrating newly prunable lists from the heap
  /// to the direct-search set (Section 4.1.1).
  void RaiseFloor(double floor);

  double floor() const { return floor_; }

 private:
  struct HeapEntry {
    RecordId id;
    uint32_t list;
    bool operator>(const HeapEntry& other) const { return id > other.id; }
  };

  /// Pushes list `i`'s frontier posting (after filtering) into the heap.
  void PushFrontier(uint32_t i);
  void RecomputeSplit();

  std::vector<PostingListView> lists_;      // decreasing length order
  std::vector<double> probe_scores_;        // parallel to lists_
  std::vector<uint32_t> order_;             // sort scratch (reused)
  std::vector<double> cumulative_weight_;   // prefix sums of potential
  std::vector<size_t> frontier_;            // next unconsumed posting (S)
  std::vector<size_t> search_pos_;          // rolling gallop hint (L)
  std::vector<bool> direct_;                // list is in L
  size_t split_k_ = 0;                      // |L| under the current floor
  double floor_ = 0;
  FunctionRef<double(RecordId)> required_;
  FunctionRef<bool(RecordId)> filter_;
  MergeOptions options_;
  MergeStats* stats_ = nullptr;
  std::vector<HeapEntry> heap_;  // min-heap on id via std::*_heap
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
