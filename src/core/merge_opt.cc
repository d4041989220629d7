#include "core/merge_opt.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

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
                       double min_overlap,
                       FunctionRef<double(RecordId)> required,
                       FunctionRef<bool(RecordId)> filter,
                       MergeOptions options, MergeStats* stats) {
  SSJOIN_CHECK(lists.size() == probe_scores.size());
  floor_ = floor;
  min_overlap_ = min_overlap;
  required_ = required;
  filter_ = filter;
  options_ = options;
  stats_ = stats;
  split_k_ = 0;
  if (block_overlap_.empty()) {
    block_overlap_.assign(kBlockIds, 0.0);
  } else {
    ClearBlock();
  }
  word_ = 0;
  block_words_ = 0;
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
  RecomputeSplit();
  if (stats_ != nullptr) stats_->lists_merged += lists_.size() - split_k_;
}

void ListMerger::ClearBlock() {
  for (uint32_t w = word_; w < block_words_; ++w) {
    for (uint64_t bits = touched_[w]; bits != 0; bits &= bits - 1) {
      block_overlap_[w * 64 + static_cast<uint32_t>(__builtin_ctzll(bits))] =
          0;
    }
    touched_[w] = 0;
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
    // A list moving out of S mid-merge starts its direct searches at its
    // frontier: everything before it, the current block included, is
    // already counted.
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

bool ListMerger::FillBlock() {
  // The block opens at the smallest uncounted S posting, so it is never
  // empty and blocks arrive in increasing id order.
  const size_t n = lists_.size();
  bool any = false;
  RecordId base = 0;
  for (size_t i = split_k_; i < n; ++i) {
    if (frontier_[i] == lists_[i].size()) continue;
    const RecordId id = lists_[i][frontier_[i]].id;
    if (!any || id < base) base = id;
    any = true;
  }
  if (!any) return false;

  // Step 6 for a whole block at once: every S posting of the block adds
  // its contribution to its id's count, list by list.
  double* counts = block_overlap_.data();
  uint32_t last_slot = 0;
  uint64_t counted = 0;
  for (size_t i = split_k_; i < n; ++i) {
    const size_t size = lists_[i].size();
    const size_t begin = frontier_[i];
    if (begin == size) continue;
    const Posting* postings = &lists_[i][0];
    const double weight = probe_scores_[i];
    size_t pos = begin;
    for (; pos < size; ++pos) {
      // Every uncounted id is >= base, so the unsigned difference cannot
      // wrap, even for ids near UINT32_MAX.
      const uint32_t slot = postings[pos].id - base;
      if (slot >= kBlockIds) break;
      counts[slot] += weight * postings[pos].score;
      touched_[slot / 64] |= uint64_t{1} << (slot % 64);
    }
    if (pos == begin) continue;
    last_slot = std::max(last_slot, postings[pos - 1].id - base);
    counted += pos - begin;
    frontier_[i] = pos;
  }
  if (stats_ != nullptr) stats_->heap_pops += counted;
  block_base_ = base;
  word_ = 0;
  block_words_ = last_slot / 64 + 1;
  return true;
}

bool ListMerger::Next(MergeCandidate* out) {
  // The floor and the split move only through RaiseFloor, between calls.
  const double l_potential =
      split_k_ > 0 ? cumulative_weight_[split_k_ - 1] : 0.0;
  const double id_floor = std::max(floor_, min_overlap_);
  const double floor_bound = PruneBound(id_floor);
  for (;;) {
    while (word_ < block_words_) {
      uint64_t& bits = touched_[word_];
      if (bits == 0) {
        ++word_;
        continue;
      }
      const uint32_t slot =
          word_ * 64 + static_cast<uint32_t>(__builtin_ctzll(bits));
      bits &= bits - 1;
      double overlap = block_overlap_[slot];
      block_overlap_[slot] = 0;
      const RecordId id = block_base_ + slot;

      // Each distinct id is tested once, cheapest test first. A candidate
      // that cannot reach the floor even with full membership in every L
      // list is discarded before the filter and required_() pay their
      // indirect calls and norm lookups.
      if (overlap + l_potential < floor_bound) continue;
      if (filter_ != nullptr && !filter_(id)) continue;
      double bound = id_floor;
      if (required_ != nullptr) bound = std::max(bound, required_(id));

      // Steps 8-11: direct search of the L lists from the smallest
      // cumulative potential upwards, abandoning the candidate as soon as
      // even full membership in the remaining lists cannot reach the
      // bound.
      bool viable = true;
      for (size_t i = split_k_; i-- > 0;) {
        if (overlap + cumulative_weight_[i] < PruneBound(bound)) {
          viable = false;
          break;
        }
        uint64_t* cost = stats_ != nullptr ? &stats_->gallop_probes : nullptr;
        size_t pos = lists_[i].GallopLowerBound(id, search_pos_[i], cost);
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
    if (!FillBlock()) return false;
  }
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
