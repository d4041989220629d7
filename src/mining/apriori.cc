#include "mining/apriori.h"

// Completeness argument (why the miner finds every matching pair even with
// aggressive pruning): let records r, s share common-word set C with
// weight(C) >= T. Every subset of C has support >= 2 (both r and s contain
// it), and r, s appear in the record list of every subset of C. Consider
// the growth chain of prefixes of C under the global item order. At each
// level the prefix is either (a) emitted (confirmed if its weight reached
// T, or as a candidate when pruned for small support / compaction /
// max_level), in which case the pair {r, s} is inside the emitted group and
// downstream verification finds it; or (b) kept, and the chain continues.
// The chain cannot stall: candidate generation joins two kept (k-1)-sets,
// and if the sibling prefix needed for the join was pruned it was emitted
// first, covering the pair. The L-optimization never drops a viable prefix
// because items are ordered with non-L tokens first and C must contain a
// non-L token (weight(L) < T <= weight(C)). Finally the full prefix C has
// weight >= T and is emitted as confirmed.

#include <algorithm>
#include <unordered_map>

#include "minhash/minhash.h"
#include "util/logging.h"
#include "util/timer.h"

namespace ssjoin {

namespace {

/// Signature length and hash seed of the MinHash compaction step.
constexpr int kMinHashComponents = 16;
constexpr uint64_t kMinHashSeed = 7;

}  // namespace

AprioriMiner::AprioriMiner(const RecordSet& records,
                           std::vector<double> token_weights,
                           double min_weight,
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

double AprioriMiner::TokenWeight(TokenId t) const {
  return t < token_weights_.size() ? token_weights_[t] : 1.0;
}

bool AprioriMiner::InLargeSet(TokenId t) const {
  return t < token_in_large_set_.size() && token_in_large_set_[t];
}

uint64_t AprioriMiner::OrderKey(TokenId t) const {
  // Non-L tokens sort strictly before L tokens; ties by token id.
  return (static_cast<uint64_t>(InLargeSet(t) ? 1 : 0) << 32) | t;
}

std::vector<AprioriMiner::Itemset> AprioriMiner::BuildLevel1() const {
  // Gather the record list of each token in one pass over the data.
  std::unordered_map<TokenId, std::vector<RecordId>> tidlists;
  for (RecordId id = 0; id < records_.size(); ++id) {
    for (TokenId t : records_.record(id).tokens()) {
      tidlists[t].push_back(id);
    }
  }
  std::vector<Itemset> level;
  level.reserve(tidlists.size());
  for (auto& [token, tids] : tidlists) {
    if (tids.size() < 2) continue;  // minimum support 2
    Itemset itemset;
    itemset.items = {token};
    itemset.tids = std::move(tids);  // already sorted (scan order)
    itemset.weight = TokenWeight(token);
    // L singletons are kept purely as join partners (see Itemset::l_only).
    itemset.l_only = InLargeSet(token);
    level.push_back(std::move(itemset));
  }
  std::sort(level.begin(), level.end(),
            [this](const Itemset& a, const Itemset& b) {
              return OrderKey(a.items[0]) < OrderKey(b.items[0]);
            });
  return level;
}

bool AprioriMiner::Classify(
    Itemset&& itemset, std::vector<Itemset>* keep,
    const std::function<void(const MinedGroup&)>& emit) const {
  if (itemset.tids.size() < 2) return false;  // below minimum support
  // Relative slack so float rounding on borderline weights errs toward
  // emitting (downstream verification keeps the join exact).
  double cap = min_weight_ - 1e-7 * std::max(1.0, min_weight_);
  if (itemset.weight >= cap) {
    // Reached the weight cap: all contained pairs are genuine matches.
    emit({std::move(itemset.tids), itemset.weight, /*confirmed=*/true});
    return false;
  }
  if (itemset.tids.size() < options_.early_output_support) {
    // Small group: output early and stop growing it (candidate pairs).
    emit({std::move(itemset.tids), itemset.weight, /*confirmed=*/false});
    return false;
  }
  keep->push_back(std::move(itemset));
  return true;
}

void AprioriMiner::CompactLevel(
    std::vector<Itemset>* level,
    const std::function<void(const MinedGroup&)>& emit) const {
  if (!options_.minhash_compaction || level->size() < 2) return;
  MinHasher hasher(kMinHashComponents, kMinHashSeed);

  // Bucket by the first signature component; estimate resemblance within a
  // bucket and greedily merge chains of similar groups.
  std::vector<std::vector<uint64_t>> signatures(level->size());
  std::unordered_map<uint64_t, std::vector<size_t>> buckets;
  for (size_t i = 0; i < level->size(); ++i) {
    if ((*level)[i].l_only) continue;  // join partners only; never merged
    signatures[i] = hasher.Signature((*level)[i].tids);
    buckets[signatures[i][0]].push_back(i);
  }

  std::vector<bool> dead(level->size(), false);
  for (const auto& [component, members] : buckets) {
    if (members.size() < 2) continue;
    size_t head = members[0];
    for (size_t j = 1; j < members.size(); ++j) {
      size_t other = members[j];
      if (dead[other] || dead[head]) continue;
      double sim = MinHasher::EstimateResemblance(signatures[head],
                                                  signatures[other]);
      if (sim < options_.compaction_threshold) continue;
      // Merge `other` into `head`: emit the union as a candidate group so
      // every pair coverable by `other`'s descendants stays covered, then
      // prune `other` from growth.
      std::vector<RecordId> merged;
      std::set_union((*level)[head].tids.begin(), (*level)[head].tids.end(),
                     (*level)[other].tids.begin(), (*level)[other].tids.end(),
                     std::back_inserter(merged));
      emit({std::move(merged),
            std::min((*level)[head].weight, (*level)[other].weight),
            /*confirmed=*/false});
      dead[other] = true;
    }
  }
  size_t write = 0;
  for (size_t i = 0; i < level->size(); ++i) {
    if (!dead[i]) {
      if (write != i) (*level)[write] = std::move((*level)[i]);
      ++write;
    }
  }
  level->resize(write);
}

size_t AprioriMiner::Mine(
    const std::function<void(const MinedGroup&)>& emit) {
  std::vector<Itemset> raw_level1 = BuildLevel1();
  std::vector<Itemset> level;
  level.reserve(raw_level1.size());
  for (Itemset& itemset : raw_level1) {
    if (itemset.l_only) {
      level.push_back(std::move(itemset));  // join partner; never emitted
    } else {
      Classify(std::move(itemset), &level, emit);
    }
  }
  CompactLevel(&level, emit);

  // Emits every non-partner open itemset in `open` as a candidate group.
  auto flush_open = [&emit](std::vector<Itemset>* open) {
    for (Itemset& itemset : *open) {
      if (itemset.l_only) continue;
      emit({std::move(itemset.tids), itemset.weight, /*confirmed=*/false});
    }
    open->clear();
  };

  Timer timer;
  uint64_t deadline_probe = 0;
  size_t level_number = 1;
  while (level.size() >= 2) {
    if (options_.max_level != 0 && level_number >= options_.max_level) {
      // Emit every open itemset as a candidate so exactness survives the
      // early stop (all-L itemsets cannot carry matches and are skipped).
      flush_open(&level);
      break;
    }
    ++level_number;
    std::vector<Itemset> next;
    // F_{k-1} x F_{k-1} join: extend itemsets sharing the first k-2 items.
    for (size_t i = 0; i < level.size(); ++i) {
      for (size_t j = i + 1; j < level.size(); ++j) {
        const Itemset& a = level[i];
        const Itemset& b = level[j];
        if (!std::equal(a.items.begin(), a.items.end() - 1,
                        b.items.begin(), b.items.end() - 1)) {
          // Level-1 lists are sorted by OrderKey, and the candidate
          // construction below preserves that order, so once prefixes
          // diverge no later j can match.
          break;
        }
        TokenId extra_a = a.items.back();
        TokenId extra_b = b.items.back();
        if (a.l_only && b.l_only) continue;  // all-L: never viable
        Itemset candidate;
        candidate.items = a.items;
        if (OrderKey(extra_a) < OrderKey(extra_b)) {
          candidate.items.push_back(extra_b);
        } else {
          candidate.items.back() = extra_b;
          candidate.items.push_back(extra_a);
        }
        // weight(prefix + extra_a + extra_b) regardless of item order.
        candidate.weight = a.weight + TokenWeight(extra_b);
        std::set_intersection(a.tids.begin(), a.tids.end(), b.tids.begin(),
                              b.tids.end(),
                              std::back_inserter(candidate.tids));
        Classify(std::move(candidate), &next, emit);
        bool over_memory = options_.max_open_itemsets != 0 &&
                           next.size() > options_.max_open_itemsets;
        bool over_deadline = options_.deadline_seconds > 0 &&
                             (++deadline_probe & 1023) == 0 &&
                             timer.ElapsedSeconds() >
                                 options_.deadline_seconds;
        if (over_memory || over_deadline) {
          // Memory/time valve: abandon level-wise growth; everything
          // still open covers its descendants' pairs (see flush_open).
          flush_open(&next);
          flush_open(&level);
          return level_number;
        }
      }
    }
    CompactLevel(&next, emit);
    level = std::move(next);
  }
  return level_number;
}

}  // namespace ssjoin
