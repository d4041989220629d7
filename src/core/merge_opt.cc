#include "core/merge_opt.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdlib>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "util/logging.h"

namespace ssjoin {

MergeStats& MergeStats::operator+=(const MergeStats& other) {
  merges += other.merges;
  heap_pops += other.heap_pops;
  gallop_probes += other.gallop_probes;
  candidates += other.candidates;
  bitmap_checked += other.bitmap_checked;
  bitmap_pruned += other.bitmap_pruned;
  lists_direct += other.lists_direct;
  lists_merged += other.lists_merged;
  return *this;
}

double PruneBound(double bound) {
  return bound - 1e-7 * std::max(1.0, std::fabs(bound));
}

void ListMerger::Reset(const std::vector<PostingListView>& lists,
                       const std::vector<double>& probe_scores, double floor,
                       FunctionRef<double(RecordId)> required,
                       FunctionRef<bool(RecordId)> filter,
                       MergeOptions options, MergeStats* stats) {
  SSJOIN_CHECK(lists.size() == probe_scores.size());
  floor_ = floor;
  required_ = required;
  filter_ = filter;
  options_ = options;
  stats_ = stats;
  split_k_ = 0;
  heap_.clear();
  if (stats_ != nullptr) ++stats_->merges;

  // Order lists by decreasing length (step 1 of Algorithm 1), ties broken
  // by input position: deterministic without stable_sort's buffer
  // allocation (this runs once per probe).
  order_.resize(lists.size());
  for (uint32_t i = 0; i < order_.size(); ++i) order_[i] = i;
  std::sort(order_.begin(), order_.end(), [&lists](uint32_t a, uint32_t b) {
    if (lists[a].size() != lists[b].size()) {
      return lists[a].size() > lists[b].size();
    }
    return a < b;
  });
  lists_.resize(lists.size());
  probe_scores_.resize(lists.size());
  for (uint32_t i = 0; i < order_.size(); ++i) {
    lists_[i] = lists[order_[i]];
    probe_scores_[i] = probe_scores[order_[i]];
  }

  // cumulativeWt(l_i) = sum_{j<=i} score(w_j, r) * score(w_j, I): the
  // maximum overlap obtainable from lists l_1..l_i (step 2).
  cumulative_weight_.resize(lists_.size());
  double running = 0;
  for (size_t i = 0; i < lists_.size(); ++i) {
    running += probe_scores_[i] * lists_[i].max_score();
    cumulative_weight_[i] = running;
  }

  frontier_.assign(lists_.size(), 0);
  search_pos_.assign(lists_.size(), 0);
  direct_.assign(lists_.size(), false);
  RecomputeSplit();
  for (uint32_t i = 0; i < lists_.size(); ++i) {
    if (!direct_[i]) {
      if (stats_ != nullptr) ++stats_->lists_merged;
      PushFrontier(i);
    }
  }
}

void ListMerger::RecomputeSplit() {
  if (!options_.split_lists) {
    split_k_ = 0;
    return;
  }
  // L = l_1..l_k with the largest k whose cumulative potential stays below
  // the floor (step 3). Monotone in the floor, so raising the floor only
  // grows k.
  size_t k = split_k_;
  while (k < lists_.size() && cumulative_weight_[k] < PruneBound(floor_)) {
    direct_[k] = true;
    // A list moving out of the heap mid-merge keeps its frontier as the
    // direct-search start: everything before it was already consumed
    // through the heap.
    search_pos_[k] = frontier_[k];
    if (stats_ != nullptr) ++stats_->lists_direct;
    ++k;
  }
  split_k_ = k;
}

void ListMerger::RaiseFloor(double floor) {
  if (floor <= floor_) return;
  floor_ = floor;
  RecomputeSplit();
}

void ListMerger::PushFrontier(uint32_t i) {
  const PostingListView& list = lists_[i];
  size_t& pos = frontier_[i];
  const bool filtering = filter_ != nullptr;
  while (pos < list.size()) {
    const Posting& p = list[pos];
    if (filtering && !filter_(p.id)) {
      ++pos;  // step 7: apply filter(r, n) before pushing
      continue;
    }
    heap_.push_back({p.id, i});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    return;
  }
}

bool ListMerger::Next(MergeCandidate* out) {
  while (!heap_.empty()) {
    // Pop every entry for the minimum id, accumulating the S-side overlap
    // (step 6). Entries of lists that migrated to L are skipped without
    // advancing their frontier: the direct search covers them.
    RecordId id = heap_.front().id;
    double overlap = 0;
    uint32_t s_matched = 0;  // distinct probe tokens matched via the heap
    while (!heap_.empty() && heap_.front().id == id) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      uint32_t i = heap_.back().list;
      heap_.pop_back();
      if (direct_[i]) continue;  // migrated by RaiseFloor; frontier kept
      const Posting& p = lists_[i][frontier_[i]];
      SSJOIN_DCHECK(p.id == id);
      overlap += probe_scores_[i] * p.score;
      ++frontier_[i];
      if (stats_ != nullptr) ++stats_->heap_pops;
      PushFrontier(i);
      // Each live pop is one distinct common token: every list belongs
      // to a different probe token (tokens are strictly increasing).
      ++s_matched;
    }
    if (s_matched == 0) continue;

    // Floor-based viability, BEFORE the per-candidate required_() call:
    // the emit bound is at least the floor, so a candidate that cannot
    // reach the floor even with full membership in every L list is
    // discarded without paying required_'s indirect call and norm
    // lookup. (The descent's own first check repeats this against the
    // tighter bound.)
    const double l_potential =
        split_k_ > 0 ? cumulative_weight_[split_k_ - 1] : 0.0;
    if (overlap + l_potential < PruneBound(floor_)) continue;

    double bound = floor_;
    if (required_ != nullptr) bound = std::max(bound, required_(id));

    // Steps 8-11: direct search of the L lists from the smallest
    // cumulative potential upwards, abandoning the candidate as soon as
    // even full membership in the remaining lists cannot reach the bound.
    bool viable = true;
    for (size_t i = split_k_; i-- > 0;) {
      if (overlap + cumulative_weight_[i] < PruneBound(bound)) {
        viable = false;
        break;
      }
      uint64_t* cost = stats_ != nullptr ? &stats_->gallop_probes : nullptr;
      size_t pos = MergeLowerBound(lists_[i], id, search_pos_[i], cost);
      search_pos_[i] = pos;  // candidates arrive in increasing id order
      if (pos < lists_[i].size() && lists_[i][pos].id == id) {
        overlap += probe_scores_[i] * lists_[i][pos].score;
      }
    }
    if (!viable) continue;
    if (overlap < PruneBound(bound)) continue;

    if (stats_ != nullptr) ++stats_->candidates;
    out->id = id;
    out->overlap = overlap;
    return true;
  }
  return false;
}

namespace {

size_t ScalarLowerBound(const PostingListView& list, RecordId id, size_t start,
                        uint64_t* probe_cost) {
  return list.GallopLowerBound(id, start, probe_cost);
}

#if defined(__x86_64__)

// Same contract as GallopLowerBound, compiled for AVX2 without requiring a
// global -mavx2: gallop exactly like the scalar primitive, binary-search
// the window down to a few vector strides, then compare 8 gathered ids per
// step. The returned position is the unique lower bound, so it is
// identical to the scalar path by construction; only the probe_cost
// comparison accounting differs (one increment per 8-lane compare).
__attribute__((target("avx2"))) size_t Avx2LowerBound(
    const PostingListView& list, RecordId id, size_t start,
    uint64_t* probe_cost) {
  const size_t n = list.size();
  if (start >= n) return n;
  const Posting* data = &list[0];
  size_t lo = start;
  size_t step = 1;
  size_t hi = start;
  while (hi < n && data[hi].id < id) {
    if (probe_cost != nullptr) ++*probe_cost;
    lo = hi + 1;
    hi = start + step;
    step *= 2;
  }
  hi = std::min(hi, n);
  while (hi - lo > 32) {
    size_t mid = lo + (hi - lo) / 2;
    if (probe_cost != nullptr) ++*probe_cost;
    if (data[mid].id < id) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  // Posting is 16 bytes with the id at offset 0 (checked at dispatch), so
  // ids sit at every 4th int32; unsigned compares via the INT32_MIN bias.
  const __m256i offsets = _mm256_setr_epi32(0, 4, 8, 12, 16, 20, 24, 28);
  const __m256i bias = _mm256_set1_epi32(INT32_MIN);
  const __m256i target =
      _mm256_xor_si256(_mm256_set1_epi32(static_cast<int32_t>(id)), bias);
  while (lo + 8 <= hi) {
    const int* base = reinterpret_cast<const int*>(data + lo);
    __m256i ids = _mm256_i32gather_epi32(base, offsets, 4);
    ids = _mm256_xor_si256(ids, bias);
    // Lane k set when data[lo + k].id < id.
    const __m256i lt = _mm256_cmpgt_epi32(target, ids);
    const int mask = _mm256_movemask_ps(_mm256_castsi256_ps(lt));
    if (probe_cost != nullptr) ++*probe_cost;
    if (mask != 0xFF) {
      return lo + static_cast<size_t>(__builtin_ctz(~mask & 0xFF));
    }
    lo += 8;
  }
  while (lo < hi) {
    if (probe_cost != nullptr) ++*probe_cost;
    if (data[lo].id >= id) break;
    ++lo;
  }
  return lo;
}

#endif  // defined(__x86_64__)

using LowerBoundFn = size_t (*)(const PostingListView&, RecordId, size_t,
                                uint64_t*);

bool ForceScalarEnv() {
  const char* v = std::getenv("SSJOIN_FORCE_SCALAR");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

LowerBoundFn ResolveLowerBound() {
#if defined(__x86_64__)
  if (!ForceScalarEnv() && __builtin_cpu_supports("avx2") &&
      sizeof(Posting) == 16 && offsetof(Posting, id) == 0) {
    return &Avx2LowerBound;
  }
#endif
  return &ScalarLowerBound;
}

LowerBoundFn ActiveLowerBound() {
  // Resolved once per process: env + CPUID are stable for its lifetime.
  static const LowerBoundFn fn = ResolveLowerBound();
  return fn;
}

}  // namespace

const char* ActiveMergeBackend() {
#if defined(__x86_64__)
  if (ActiveLowerBound() == &Avx2LowerBound) return "avx2";
#endif
  return "scalar";
}

size_t MergeLowerBound(const PostingListView& list, RecordId id, size_t start,
                       uint64_t* probe_cost) {
  return ActiveLowerBound()(list, id, start, probe_cost);
}

void CollectProbeLists(const InvertedIndex& index, RecordView probe,
                       std::vector<PostingListView>* lists,
                       std::vector<double>* probe_scores) {
  lists->clear();
  probe_scores->clear();
  for (size_t i = 0; i < probe.size(); ++i) {
    PostingListView list = index.list(probe.token(i));
    if (list.empty()) continue;
    lists->push_back(list);
    probe_scores->push_back(probe.score(i));
  }
}

void CollectProbeLists(const DynamicIndex& index, RecordView probe,
                       std::vector<PostingListView>* lists,
                       std::vector<double>* probe_scores) {
  lists->clear();
  probe_scores->clear();
  for (size_t i = 0; i < probe.size(); ++i) {
    const PostingList* list = index.list(probe.token(i));
    if (list == nullptr || list->empty()) continue;
    lists->push_back(list->view());
    probe_scores->push_back(probe.score(i));
  }
}

}  // namespace ssjoin
