#include "mining/dfs_miner.h"

#include <algorithm>
#include <unordered_map>

#include "util/logging.h"
#include "util/timer.h"

namespace ssjoin {

namespace {

/// Shared valve-check cadence: wall-clock reads are amortized over steps.
constexpr uint64_t kDeadlineProbeMask = 1023;

Timer& MinerTimer() {
  static Timer timer;
  return timer;
}

}  // namespace

DfsMiner::DfsMiner(const RecordSet& records,
                   std::vector<double> token_weights, double min_weight,
                   std::vector<bool> token_in_large_set,
                   AprioriOptions options)
    : records_(records),
      token_weights_(std::move(token_weights)),
      min_weight_(min_weight),
      token_in_large_set_(std::move(token_in_large_set)),
      options_(std::move(options)) {
  SSJOIN_CHECK(options_.early_output_support >= 2);
  SSJOIN_CHECK(min_weight_ > 0);
}

double DfsMiner::TokenWeight(TokenId t) const {
  return t < token_weights_.size() ? token_weights_[t] : 1.0;
}

bool DfsMiner::InLargeSet(TokenId t) const {
  return t < token_in_large_set_.size() && token_in_large_set_[t];
}

size_t DfsMiner::Mine(const std::function<void(const MinedGroup&)>& emit) {
  // Build the vertical database (token -> record list, support >= 2),
  // ordered with non-L tokens first so every viable prefix chain starts
  // outside L (same completeness argument as AprioriMiner).
  std::unordered_map<TokenId, std::vector<RecordId>> tidlists;
  for (RecordId id = 0; id < records_.size(); ++id) {
    for (TokenId t : records_.record(id).tokens()) {
      tidlists[t].push_back(id);
    }
  }
  columns_.clear();
  for (auto& [token, tids] : tidlists) {
    if (tids.size() < 2) continue;
    columns_.push_back({token, std::move(tids), InLargeSet(token)});
  }
  // Non-L first (completeness), then by increasing support: rare tokens
  // early makes intersections shrink fast and the early-output rule fire
  // sooner. Any fixed order is valid; this one is just fastest.
  std::sort(columns_.begin(), columns_.end(),
            [](const Column& a, const Column& b) {
              if (a.in_large_set != b.in_large_set) return !a.in_large_set;
              if (a.tids.size() != b.tids.size()) {
                return a.tids.size() < b.tids.size();
              }
              return a.token < b.token;
            });

  start_time_ = MinerTimer().ElapsedSeconds();
  steps_ = 0;
  max_depth_seen_ = columns_.empty() ? 0 : 1;

  double cap = min_weight_ - 1e-7 * std::max(1.0, min_weight_);
  for (size_t i = 0; i < columns_.size(); ++i) {
    const Column& root = columns_[i];
    if (root.in_large_set) break;  // L columns are extensions only
    double weight = TokenWeight(root.token);
    if (weight >= cap) {
      emit({root.tids, weight, /*confirmed=*/true});
      continue;
    }
    if (root.tids.size() < options_.early_output_support) {
      emit({root.tids, weight, /*confirmed=*/false});
      continue;
    }
    if (!Grow(i, root.tids, weight, /*depth=*/1, emit)) {
      // A valve fired inside this chain. The chain nodes (including this
      // root) emitted themselves on unwind; the untouched roots must be
      // emitted too, since their descendants will never be explored.
      for (size_t j = i + 1; j < columns_.size(); ++j) {
        if (columns_[j].in_large_set) break;
        emit({columns_[j].tids, TokenWeight(columns_[j].token),
              /*confirmed=*/false});
      }
      break;
    }
  }
  return max_depth_seen_;
}

bool DfsMiner::Grow(size_t col, const std::vector<RecordId>& tids,
                    double weight, size_t depth,
                    const std::function<void(const MinedGroup&)>& emit) {
  max_depth_seen_ = std::max(max_depth_seen_, depth);
  double cap = min_weight_ - 1e-7 * std::max(1.0, min_weight_);
  for (size_t j = col + 1; j < columns_.size(); ++j) {
    bool over_deadline =
        options_.deadline_seconds > 0 &&
        (++steps_ & kDeadlineProbeMask) == 0 &&
        MinerTimer().ElapsedSeconds() - start_time_ >
            options_.deadline_seconds;
    if (over_deadline) {
      // Cover everything this subtree (and unexplored siblings) could
      // certify, then unwind; ancestors emit themselves the same way.
      emit({tids, weight, /*confirmed=*/false});
      return false;
    }
    const Column& extension = columns_[j];
    std::vector<RecordId> extended;
    std::set_intersection(tids.begin(), tids.end(), extension.tids.begin(),
                          extension.tids.end(), std::back_inserter(extended));
    if (extended.size() < 2) continue;
    double extended_weight = weight + TokenWeight(extension.token);
    if (extended_weight >= cap) {
      emit({std::move(extended), extended_weight, /*confirmed=*/true});
      continue;
    }
    if (extended.size() < options_.early_output_support) {
      emit({std::move(extended), extended_weight, /*confirmed=*/false});
      continue;
    }
    if (options_.max_level != 0 && depth + 1 >= options_.max_level) {
      emit({std::move(extended), extended_weight, /*confirmed=*/false});
      continue;
    }
    if (!Grow(j, extended, extended_weight, depth + 1, emit)) {
      emit({tids, weight, /*confirmed=*/false});
      return false;
    }
  }
  return true;
}

}  // namespace ssjoin
