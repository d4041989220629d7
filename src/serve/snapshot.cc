#include "serve/snapshot.h"

#include <algorithm>
#include <utility>

#include "core/predicate.h"

namespace ssjoin {

std::vector<TokenId> ComputeShardBounds(const std::vector<uint64_t>& mass,
                                        size_t num_shards) {
  std::vector<TokenId> bounds;
  if (num_shards <= 1) return bounds;
  uint64_t total = 0;
  for (uint64_t m : mass) total += m;
  // Walk tokens in id order and cut whenever the cumulative mass crosses
  // the next 1/num_shards fraction — the CSR analogue of range
  // partitioning by key with a known histogram.
  uint64_t cumulative = 0;
  size_t next_cut = 1;
  for (TokenId t = 0; t < mass.size() && next_cut < num_shards; ++t) {
    cumulative += mass[t];
    if (total > 0 && cumulative * num_shards >= next_cut * total) {
      bounds.push_back(t + 1);
      ++next_cut;
    }
  }
  // Degenerate vocabularies (fewer mass steps than shards, or an empty
  // corpus) pad with the vocabulary end: trailing shards own no initial
  // tokens but still receive future out-of-vocabulary inserts' overflow
  // through the "last shard" rule in RouteToShard.
  while (bounds.size() + 1 < num_shards) {
    bounds.push_back(static_cast<TokenId>(mass.size()));
  }
  return bounds;
}

std::vector<uint64_t> RoutingMassHistogram(const RecordSet& records) {
  std::vector<uint64_t> mass(records.vocabulary_size(), 0);
  for (RecordId id = 0; id < records.size(); ++id) {
    const RecordView r = records.record(id);
    if (r.empty()) continue;
    mass[r.token(r.size() - 1)] += r.size();
  }
  return mass;
}

size_t RouteToShard(RecordView record, const std::vector<TokenId>& bounds) {
  if (bounds.empty() || record.empty()) return 0;
  TokenId key = record.token(record.size() - 1);
  return static_cast<size_t>(
      std::upper_bound(bounds.begin(), bounds.end(), key) - bounds.begin());
}

std::shared_ptr<const CorpusSegment> BuildCorpusSegment(
    uint64_t id, RecordSet records, std::vector<RecordId> global_ids,
    const std::vector<TokenId>& shard_bounds, size_t num_shards,
    const Predicate& pred) {
  const double short_norm_bound = pred.ShortRecordNormBound();
  auto segment = std::make_shared<CorpusSegment>();
  segment->id = id;
  auto owned = std::make_shared<RecordSet>(std::move(records));
  const RecordSet& arena = *owned;
  segment->records = owned;
  segment->global_ids = std::move(global_ids);
  segment->shards.resize(num_shards);
  for (RecordId local = 0; local < arena.size(); ++local) {
    SegmentShardPart& part =
        segment->shards[RouteToShard(arena.record(local), shard_bounds)];
    part.member_ids.push_back(local);
  }
  for (SegmentShardPart& part : segment->shards) {
    part.index.PlanFromRecordsSubset(arena, part.member_ids);
    for (size_t local = 0; local < part.member_ids.size(); ++local) {
      part.index.Insert(static_cast<RecordId>(local),
                        arena.record(part.member_ids[local]));
    }
    if (short_norm_bound > 0) {
      for (size_t local = 0; local < part.member_ids.size(); ++local) {
        if (arena.record(part.member_ids[local]).norm() < short_norm_bound) {
          part.short_ids.push_back(static_cast<RecordId>(local));
        }
      }
    }
  }
  if (!pred.corpus_independent_scores()) {
    segment->frequencies = arena.CountDocumentFrequencies();
  }
  segment->approx_bytes = ComputeSegmentApproxBytes(*segment);
  return segment;
}

uint64_t ComputeSegmentApproxBytes(const CorpusSegment& segment) {
  // A view-mode records/index reports only its heap-resident tables —
  // the mapped body is page cache, not service heap, and is accounted
  // separately via CorpusSegment::mapped_bytes.
  uint64_t bytes = segment.records->ApproxMemoryBytes();
  bytes += segment.global_ids.size() * sizeof(RecordId);
  bytes += segment.frequencies.counts.size() * sizeof(uint64_t);
  for (const SegmentShardPart& part : segment.shards) {
    bytes += (part.member_ids.size() + part.short_ids.size()) *
             sizeof(RecordId);
    if (!part.index.is_view()) {
      bytes += part.index.total_postings() * sizeof(Posting);
    }
  }
  return bytes;
}

std::optional<ChainPosition> LocateInChain(const SegmentChain& chain,
                                           RecordId id) {
  for (size_t e = 0; e < chain.size(); ++e) {
    const CorpusSegment& segment = *chain[e].segment;
    const std::vector<RecordId>& gids = segment.global_ids;
    if (gids.empty() || gids.front() > id || gids.back() < id) continue;
    auto it = std::lower_bound(gids.begin(), gids.end(), id);
    if (*it != id) return std::nullopt;  // ranges are disjoint
    const RecordId local = static_cast<RecordId>(it - gids.begin());
    for (size_t s = 0; s < segment.shards.size(); ++s) {
      const std::vector<RecordId>& members = segment.shards[s].member_ids;
      auto mit = std::lower_bound(members.begin(), members.end(), local);
      if (mit != members.end() && *mit == local) {
        return ChainPosition{
            e, s, static_cast<RecordId>(mit - members.begin())};
      }
    }
    return std::nullopt;
  }
  return std::nullopt;
}

std::optional<size_t> IndexSnapshot::LiveShardOf(RecordId id) const {
  auto lists = [](const std::vector<RecordId>& sorted, RecordId x) {
    return std::binary_search(sorted.begin(), sorted.end(), x);
  };
  for (size_t s = 0; s < delta.size(); ++s) {
    if (lists(delta[s]->global_ids, id)) {
      if (lists(delta[s]->tombstones, id)) return std::nullopt;
      return s;
    }
  }
  const std::optional<ChainPosition> pos = LocateInChain(*chain, id);
  if (!pos) return std::nullopt;
  const std::shared_ptr<const std::vector<RecordId>>& dead =
      (*chain)[pos->entry].dead[pos->shard];
  if ((dead != nullptr && lists(*dead, pos->part_local)) ||
      lists(delta[pos->shard]->tombstones, id)) {
    return std::nullopt;
  }
  return pos->shard;
}

std::shared_ptr<const DeltaShard> BuildDeltaShard(
    RecordSet records, std::vector<RecordId> global_ids,
    double short_norm_bound, std::vector<RecordId> tombstones) {
  auto shard = std::make_shared<DeltaShard>();
  shard->records = std::move(records);
  shard->global_ids = std::move(global_ids);
  shard->tombstones = std::move(tombstones);
  auto is_tombstoned = [&shard](RecordId local) {
    return std::binary_search(shard->tombstones.begin(),
                              shard->tombstones.end(),
                              shard->global_ids[local]);
  };
  // Tombstoned memtable records are dropped from the index outright (ids
  // may gap — DynamicIndex only requires them increasing), so delta
  // probes never surface them; only base members need probe-time
  // filtering against the tombstone list.
  for (RecordId id = 0; id < shard->records.size(); ++id) {
    if (shard->tombstones.empty() || !is_tombstoned(id)) {
      shard->index.Insert(id, shard->records.record(id));
    }
  }
  if (short_norm_bound > 0) {
    for (RecordId id = 0; id < shard->records.size(); ++id) {
      if (shard->records.record(id).norm() < short_norm_bound &&
          (shard->tombstones.empty() || !is_tombstoned(id))) {
        shard->short_ids.push_back(id);
      }
    }
  }
  return shard;
}

}  // namespace ssjoin
