#ifndef SSJOIN_MINING_APRIORI_H_
#define SSJOIN_MINING_APRIORI_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "data/record_set.h"

namespace ssjoin {

/// Tuning values for the Word-Groups itemset miners (Section 2.3). The
/// join's threshold and the §3.1 large-list set are constructor arguments
/// of the miners, since Word-Groups derives them from the predicate.
struct AprioriOptions {
  /// The paper's M: itemsets whose support (record-list length) drops
  /// below this are emitted early as candidate groups and pruned from
  /// further growth ("output small groups early"). Must be >= 2.
  uint32_t early_output_support = 5;

  /// Enables the MinHash group-compaction step run after each level.
  bool minhash_compaction = true;
  /// The p of Section 2.3: groups agreeing on >= p fraction of MinHash
  /// components are merged.
  double compaction_threshold = 0.7;

  /// Safety valve against exponential blowup on adversarial inputs: when
  /// non-zero, mining stops after this level, emitting every still-open
  /// itemset as a candidate group (exactness is preserved because open
  /// groups are verified downstream).
  size_t max_level = 0;

  /// Memory valve: when candidate generation accumulates more than this
  /// many open itemsets in one level, mining stops immediately and every
  /// open itemset (current and next level) is emitted as a candidate
  /// group. Exactness is preserved for the same reason as max_level: an
  /// itemset's record list covers every pair any of its descendants could
  /// certify. 0 disables the valve.
  size_t max_open_itemsets = 500000;

  /// Time valve with the same flush-open semantics: stop growing itemsets
  /// once this much wall-clock time has elapsed inside Mine (the paper's
  /// Word-Groups runs took hours on the 3-gram corpora; the join stays
  /// exact, degrading toward verify-all-candidates). 0 disables it.
  double deadline_seconds = 0;
};

/// A group of records emitted by the miner. Every pair of records inside a
/// confirmed group shares the group's defining itemset, whose weight is
/// >= min_weight, so the pair satisfies the T-overlap predicate outright.
/// Pairs inside an unconfirmed (candidate) group must be verified.
struct MinedGroup {
  std::vector<RecordId> rids;  // sorted
  double weight = 0;           // total weight of the defining itemset
  bool confirmed = false;
};

/// Level-wise Apriori miner specialized for Word-Groups: items are tokens,
/// transactions are records, minimum support is 2, and itemset growth is
/// capped by min_weight. Completeness invariant: every itemset that is
/// pruned from growth for any reason is first emitted as a group, so every
/// matching record pair appears together in at least one emitted group.
class AprioriMiner {
 public:
  /// `token_weights[t]` is the weight of token t (the word match score);
  /// tokens beyond the vector get weight 1. `min_weight` is the T of the
  /// T-overlap join (> 0): itemsets stop growing and are emitted as
  /// confirmed once their total item weight reaches it.
  /// `token_in_large_set[t]` is true for tokens in the global large-list
  /// set L of the Section 3.1 threshold optimization (cumulative weight
  /// < min_weight): itemsets contained entirely in L are never generated.
  /// Empty turns the optimization off.
  AprioriMiner(const RecordSet& records, std::vector<double> token_weights,
               double min_weight, std::vector<bool> token_in_large_set,
               AprioriOptions options);

  /// Runs the mining; calls `emit` once per emitted group. Also returns
  /// the number of levels processed (for instrumentation).
  size_t Mine(const std::function<void(const MinedGroup&)>& emit);

 private:
  struct Itemset {
    std::vector<TokenId> items;  // sorted by OrderKey
    std::vector<RecordId> tids;  // sorted record list
    double weight = 0;
    /// All items are in the large-list set L. Such itemsets can never
    /// certify a match and are never emitted, but L *singletons* must stay
    /// available as join partners: the growth chain of a viable common
    /// word set {c1 (non-L), c2, ...} extends {c1} with {c2} even when c2
    /// is in L. Larger all-L itemsets are never generated.
    bool l_only = false;
  };

  double TokenWeight(TokenId t) const;
  bool InLargeSet(TokenId t) const;
  /// Items are globally ordered with non-L tokens first so that every
  /// prefix of a viable common-word set contains a non-L token (see
  /// header comment in apriori.cc for the completeness argument).
  uint64_t OrderKey(TokenId t) const;

  std::vector<Itemset> BuildLevel1() const;
  /// Emits and/or keeps `itemset` according to weight/support; returns
  /// true if it should be kept for extension.
  bool Classify(Itemset&& itemset, std::vector<Itemset>* keep,
                const std::function<void(const MinedGroup&)>& emit) const;
  void CompactLevel(std::vector<Itemset>* level,
                    const std::function<void(const MinedGroup&)>& emit) const;

  const RecordSet& records_;
  std::vector<double> token_weights_;
  double min_weight_;
  std::vector<bool> token_in_large_set_;
  AprioriOptions options_;
};

}  // namespace ssjoin

#endif  // SSJOIN_MINING_APRIORI_H_
