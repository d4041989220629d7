#include "serve/similarity_service.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <optional>
#include <utility>

#include "core/probe_common.h"
#include "util/function_ref.h"
#include "util/logging.h"
#include "util/timer.h"

namespace ssjoin {

namespace {

/// What probing one shard adds to ServiceStats: a call keeps one per
/// shard (per shard and worker in batch mode) and folds them in once.
struct ShardCounters {
  MergeStats merge;
  uint64_t candidates = 0;  // verified candidates
  uint64_t results = 0;
};

/// The calling thread's probe scratch, warm across every request the
/// thread serves. Call it on the thread that probes: a thread_local named
/// inside a lambda that another thread runs would resolve to that
/// thread's copy, which its declaration never constructed.
probe_internal::ProbeScratch& ThreadProbeScratch() {
  thread_local probe_internal::ProbeScratch scratch;
  return scratch;
}

/// Folds per-shard counters into `stats`; entry i belongs to shard
/// i % num_shards.
void FoldShardCounters(const std::vector<ShardCounters>& counters,
                       size_t num_shards, ServiceStats* stats) {
  stats->EnsureShards(num_shards);
  for (size_t i = 0; i < counters.size(); ++i) {
    const ShardCounters& c = counters[i];
    ShardStats& shard = stats->shards[i % num_shards];
    stats->merge += c.merge;
    stats->candidates += c.candidates;
    shard.candidates += c.candidates;
    shard.results += c.results;
  }
}

bool IdLess(const QueryMatch& a, const QueryMatch& b) { return a.id < b.id; }

/// One probe target inside a shard: one segment's part, or the shard's
/// delta image. `target` is what the shared probe body probes (the
/// index, the backing records its local ids resolve to, and the short
/// pool); `global_ids` maps backing record ids to corpus ids. A candidate
/// is dropped before verification when its local id is in `dead` (the
/// segment's mask of members deleted after it was built) or its global id
/// is in `tombstones` (the shard's pending deletes) — exactly as if
/// compaction had already removed its postings. Both lists are sorted and
/// may be null; delta images need neither, they exclude tombstoned
/// records at build time.
template <typename IndexT>
struct ShardTier {
  probe_internal::ProbeTarget<IndexT> target;
  const std::vector<RecordId>& global_ids;
  const std::vector<RecordId>* dead;
  const std::vector<RecordId>* tombstones;

  bool Dropped(RecordId local) const {
    return (dead != nullptr &&
            std::binary_search(dead->begin(), dead->end(), local)) ||
           (tombstones != nullptr &&
            probe_internal::IsTombstoned(
                *tombstones, global_ids[target.ToRecord(local)]));
  }
};

/// Shard `shard`'s part of one segment. The shard's pending tombstones
/// ride on its delta image.
ShardTier<InvertedIndex> SegmentTier(const SegmentChainEntry& entry,
                                     size_t shard, const DeltaShard& delta) {
  const CorpusSegment& segment = *entry.segment;
  const SegmentShardPart& part = segment.shards[shard];
  return {{part.index, *segment.records, &part.member_ids, &part.short_ids},
          segment.global_ids,
          entry.dead[shard].get(),
          delta.tombstones.empty() ? nullptr : &delta.tombstones};
}

ShardTier<DynamicIndex> DeltaTier(const DeltaShard& delta) {
  return {{delta.index, delta.records, /*record_ids=*/nullptr,
           &delta.short_ids},
          delta.global_ids,
          /*dead=*/nullptr,
          /*tombstones=*/nullptr};
}

/// Full thresholded lookup of staged.record(q) against ONE shard of the
/// snapshot: each segment's part of the shard, then its delta tier, then
/// id-sorted. Every tier runs the shared probe-and-verify body
/// (probe_internal::ProbeMatches) on its own — floor T(probe, minS of the
/// tier), per-candidate bound, norm filter, the predicate's
/// canonical MatchesCross and the tier's short pool — so a sharded,
/// segmented query accepts a pair exactly when the batch join (and the
/// 1-shard, 1-segment service) would. A record lives in exactly one shard
/// and one tier, so the per-tier outputs are disjoint and the
/// deterministic cross-shard merge reconstructs the single-index answer
/// byte for byte.
std::vector<QueryMatch> LookupShard(const Predicate& pred,
                                    const IndexSnapshot& snap, size_t shard,
                                    const RecordSet& staged, RecordId q,
                                    ShardCounters* counters) {
  probe_internal::ProbeScratch& scratch = ThreadProbeScratch();
  std::vector<QueryMatch> out;
  const RecordView probe = staged.record(q);
  auto probe_tier = [&](const auto& tier) {
    probe_internal::ProbeMatches(
        pred, tier.target, probe, staged, q, MergeOptions{},
        [&tier](RecordId local) { return tier.Dropped(local); },
        &counters->merge, &counters->candidates, &scratch,
        [&](RecordId, RecordId id) {
          out.push_back({tier.global_ids[id],
                         tier.target.records.record(id).OverlapWith(probe)});
        });
  };
  const DeltaShard& delta = *snap.delta[shard];
  for (const SegmentChainEntry& entry : *snap.chain) {
    probe_tier(SegmentTier(entry, shard, delta));
  }
  probe_tier(DeltaTier(delta));
  std::sort(out.begin(), out.end(), IdLess);
  counters->results += out.size();
  return out;
}

/// Serial all-shard lookup used by batch workers (the pool is already
/// fanned out over queries, so shards are swept in-line). Identical
/// output to the point-query shard fan-out: per-shard parts are sorted
/// and disjoint, and the merge order is unique. `counters` holds one
/// entry per shard.
std::vector<QueryMatch> LookupAllShards(const Predicate& pred,
                                        const IndexSnapshot& snap,
                                        const RecordSet& staged, RecordId q,
                                        ShardCounters* counters) {
  std::vector<std::vector<QueryMatch>> parts(snap.num_shards());
  for (size_t s = 0; s < snap.num_shards(); ++s) {
    parts[s] = LookupShard(pred, snap, s, staged, q, &counters[s]);
  }
  std::vector<QueryMatch> out;
  probe_internal::MergeSortedParts(parts, IdLess, &out);
  return out;
}

/// Unthresholded overlap sweep of one shard for top-k: floor 0, no
/// per-candidate bound, no filter — every shard record sharing a token
/// surfaces with its canonical match amount. Masked-dead and tombstoned
/// base members are dropped before ranking, so top-k backfills to k
/// SURVIVORS (a deleted record never displaces a live one from the
/// truncated list).
void SweepShardOverlaps(const IndexSnapshot& snap, size_t shard,
                        RecordView probe, ShardCounters* counters,
                        std::vector<QueryMatch>* out) {
  if (probe.empty()) return;
  probe_internal::ProbeScratch& scratch = ThreadProbeScratch();
  auto sweep_tier = [&](const auto& tier) {
    if (tier.target.index.num_entities() == 0) return;
    probe_internal::ProbeOne(
        tier.target.index, probe, /*floor=*/0, /*min_overlap=*/0,
        /*required=*/{}, /*filter=*/{}, MergeOptions{}, &counters->merge,
        &scratch, [&](const MergeCandidate& candidate) {
          if (tier.Dropped(candidate.id)) return;
          ++counters->candidates;
          const RecordId id = tier.target.ToRecord(candidate.id);
          out->push_back({tier.global_ids[id],
                          tier.target.records.record(id).OverlapWith(probe)});
        });
  };
  const DeltaShard& delta = *snap.delta[shard];
  for (const SegmentChainEntry& entry : *snap.chain) {
    sweep_tier(SegmentTier(entry, shard, delta));
  }
  sweep_tier(DeltaTier(delta));
}

uint64_t ElapsedMicros(const Timer& timer) {
  return static_cast<uint64_t>(timer.ElapsedSeconds() * 1e6);
}

/// Refreshes the chain-shape gauges (segment count and approximate bytes).
void SetChainGauges(const SegmentChain& chain, ServiceStats* stats) {
  stats->segments = chain.size();
  uint64_t bytes = 0;
  for (const SegmentChainEntry& entry : chain) {
    bytes += entry.segment->approx_bytes;
  }
  stats->segment_bytes = bytes;
}

/// The snapshot of a compaction point over `chain`: every delta image
/// empty (one shared empty image), no pending tombstones, and the chain's
/// live total as the live count. The caller sets the epoch.
IndexSnapshot CompactionPoint(std::shared_ptr<const SegmentChain> chain,
                              size_t num_shards) {
  IndexSnapshot snap;
  for (const SegmentChainEntry& entry : *chain) {
    snap.live_records += entry.live;
  }
  snap.chain = std::move(chain);
  snap.delta.assign(num_shards, std::make_shared<const DeltaShard>());
  return snap;
}

}  // namespace

SimilarityService::SimilarityService(RecordSet corpus, const Predicate& pred,
                                     ServiceOptions options)
    : pred_(pred),
      options_(options),
      num_shards_(options.num_shards > 1 ? options.num_shards : 1),
      pool_(std::make_unique<ThreadPool>(
          options.num_threads > 0 ? options.num_threads
                                  : ThreadPool::DefaultNumThreads())) {
  std::lock_guard<std::mutex> lock(write_mutex_);
  shard_bounds_ = ComputeShardBounds(RoutingMassHistogram(corpus), num_shards_);
  next_id_ = corpus.size();
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    stats_.EnsureShards(num_shards_);
  }
  // The data dir and an empty WAL come first, so segment 0 is written,
  // mapped and checkpointed by the same compaction-point step as every
  // later segment.
  if (!options_.data_dir.empty()) InitDurabilityLocked();
  // Segment 0 is the corpus itself, prepared in place; every shard counts
  // it as one rebuild.
  pred_.Prepare(&corpus);
  std::vector<RecordId> gids(corpus.size());
  std::iota(gids.begin(), gids.end(), RecordId{0});
  SegmentChain chain;
  AppendSegmentLocked(&chain, std::move(corpus), std::move(gids));
  FinishCompactionLocked(std::move(chain),
                         std::vector<bool>(num_shards_, true),
                         /*merged_count=*/0, /*delta_records=*/0,
                         /*count_compaction=*/false);
}

SimilarityService::SimilarityService(Checkpoint checkpoint,
                                     const GcStats& load_gc,
                                     std::vector<WalRecord> tail,
                                     WriteAheadLog wal, const Predicate& pred,
                                     ServiceOptions options)
    : pred_(pred),
      options_(std::move(options)),
      num_shards_(checkpoint.num_shards),
      pool_(std::make_unique<ThreadPool>(
          options_.num_threads > 0 ? options_.num_threads
                                   : ThreadPool::DefaultNumThreads())) {
  std::lock_guard<std::mutex> lock(write_mutex_);
  shard_bounds_ = std::move(checkpoint.shard_bounds);
  next_id_ = checkpoint.next_id;
  next_segment_id_ = checkpoint.next_segment_id;
  // The checkpointed segments are already durable: seed the persisted set
  // so the next checkpoint writes only genuinely new ones.
  for (const SegmentChainEntry& entry : *checkpoint.chain) {
    persisted_segments_.insert(entry.segment->id);
  }
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    stats_.EnsureShards(num_shards_);
    SetChainGauges(*checkpoint.chain, &stats_);
    stats_.gc_unlinked_segments += load_gc.unlinked_segments;
    stats_.gc_unlink_failures += load_gc.unlink_failures;
  }
  // Re-publish the checkpointed chain as is, at its recorded epoch.
  IndexSnapshot restored =
      CompactionPoint(std::move(checkpoint.chain), num_shards_);
  restored.epoch = checkpoint.epoch;
  Publish(std::move(restored), /*bump_epoch=*/false);

  wal_ = std::make_unique<WriteAheadLog>(std::move(wal));
  // last_seq() covers frames a crash left from before the checkpoint
  // (checkpoint renamed, WAL reset pending): seq assignment must not
  // collide with them even though replay skips them.
  wal_next_seq_ = std::max(checkpoint.wal_seq, wal_->last_seq()) + 1;

  // Replay the tail through the normal op paths: the checkpoint is a
  // compaction point, so starting from identical base statistics each
  // replayed op stages, routes and publishes exactly as the original
  // did, epoch for epoch. Every compaction the original ran with work
  // pending left a kCompact marker, and replay compacts there and only
  // there, so the restart's own memtable_limit cannot move an epoch.
  // Frames at or below the checkpoint's seq are the double-apply guard,
  // not part of the tail.
  replaying_ = true;
  for (WalRecord& op : tail) {
    if (op.seq <= checkpoint.wal_seq) continue;
    switch (op.kind) {
      case WalRecord::kInsert:
        InsertLocked(op.record_view(), std::move(op.text));
        break;
      case WalRecord::kDelete:
        DeleteLocked(op.id);
        break;
      case WalRecord::kCompact:
        CompactLocked();
        break;
    }
  }
  replaying_ = false;
  // Checkpointed segments arrive mapped and proven (LoadCheckpoint), and
  // replay compactions map their own output: advise the chain once.
  ApplyResidencyAdviceLocked(*snapshot()->chain);
}

Result<std::unique_ptr<SimilarityService>> SimilarityService::Open(
    const Predicate& pred, ServiceOptions options) {
  if (options.data_dir.empty()) {
    return Status::InvalidArgument("Open requires ServiceOptions::data_dir");
  }
  GcStats gc;
  Result<Checkpoint> loaded = LoadCheckpoint(
      options.data_dir,
      /*count_frequencies=*/!pred.corpus_independent_scores(), &gc);
  if (!loaded.ok()) return loaded.status();
  Checkpoint checkpoint = std::move(loaded).value();
  if (checkpoint.predicate != pred.fingerprint()) {
    return Status::FailedPrecondition(
        "checkpoint in " + options.data_dir + " was written under predicate " +
        checkpoint.predicate + ", not " + pred.fingerprint());
  }
  std::vector<WalRecord> tail;
  Result<WriteAheadLog> wal = WriteAheadLog::Open(
      WalFilePath(options.data_dir), options.wal_sync, &tail);
  if (!wal.ok()) return wal.status();
  return std::unique_ptr<SimilarityService>(new SimilarityService(
      std::move(checkpoint), gc, std::move(tail), std::move(wal).value(),
      pred, std::move(options)));
}

void SimilarityService::InitDurabilityLocked() {
  Status status = EnsureDataDir(options_.data_dir);
  if (status.ok()) {
    Result<WriteAheadLog> wal = WriteAheadLog::Open(
        WalFilePath(options_.data_dir), options_.wal_sync, nullptr);
    if (wal.ok()) {
      wal_ = std::make_unique<WriteAheadLog>(std::move(wal).value());
      // Empty the log BEFORE the initial checkpoint: a crash in between
      // must never pair the new checkpoint with a previous incarnation's
      // tail (its seqs would replay as if they followed this corpus).
      status = wal_->Reset();
    } else {
      status = wal.status();
    }
  }
  if (!status.ok()) SetDurabilityErrorLocked(std::move(status));
}

void SimilarityService::ApplyResidencyAdviceLocked(const SegmentChain& chain) {
  const uint64_t budget = options_.resident_budget_bytes;
  uint64_t mapped_segments = 0;
  uint64_t mapped_bytes = 0;
  uint64_t resident = 0;
  // Newest first: recent segments hold the hottest data (merges fold the
  // old tail, inserts land at the head), so they get the budget. The
  // advice is a hint either way — over-budget segments stay correct,
  // they just refault from disk.
  for (size_t i = chain.size(); i-- > 0;) {
    const CorpusSegment& seg = *chain[i].segment;
    if (seg.mapping == nullptr) continue;
    ++mapped_segments;
    mapped_bytes += seg.mapped_bytes;
    if (budget == 0 || resident + seg.mapped_bytes <= budget) {
      resident += seg.mapped_bytes;
      seg.mapping->Advise(MappedFile::Advice::kWillNeed);
    } else {
      seg.mapping->Advise(MappedFile::Advice::kRandom);
      seg.mapping->Advise(MappedFile::Advice::kDontNeed);
    }
  }
  std::lock_guard<std::mutex> stats_lock(stats_mutex_);
  stats_.mapped_segments = mapped_segments;
  stats_.mapped_bytes = mapped_bytes;
}

void SimilarityService::ApplyResidencyAdvice() {
  std::lock_guard<std::mutex> lock(write_mutex_);
  ApplyResidencyAdviceLocked(*snapshot()->chain);
}

Status SimilarityService::SaveCheckpointLocked() {
  // The manifest carries no memtable records and no tombstones: a
  // checkpoint is only ever taken at a compaction point, whose chain is
  // the whole state.
  std::shared_ptr<const IndexSnapshot> snap = snapshot();
  SSJOIN_CHECK(snap->pending_writes() == 0);
  Checkpoint checkpoint;
  checkpoint.epoch = snap->epoch;
  checkpoint.wal_seq = wal_next_seq_ - 1;
  checkpoint.predicate = pred_.fingerprint();
  checkpoint.num_shards = num_shards_;
  checkpoint.shard_bounds = shard_bounds_;
  checkpoint.next_id = next_id_;
  checkpoint.next_segment_id = next_segment_id_;
  checkpoint.chain = snap->chain;
  GcStats gc;
  Status status = ssjoin::SaveCheckpoint(options_.data_dir, checkpoint,
                                         &persisted_segments_, &gc);
  if (gc.unlinked_segments > 0 || gc.unlink_failures > 0) {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    stats_.gc_unlinked_segments += gc.unlinked_segments;
    stats_.gc_unlink_failures += gc.unlink_failures;
  }
  return status;
}

void SimilarityService::MaybeCheckpointLocked() {
  Status status = SaveCheckpointLocked();
  if (status.ok()) status = wal_->Reset();
  if (status.ok()) {
    // Every op up to here is covered by the checkpoint — including any
    // that a failed append left out of the log — so a latched durability
    // error is fully repaired.
    wal_failed_ = false;
    std::lock_guard<std::mutex> lock(durability_mutex_);
    durability_status_ = Status::OK();
  } else {
    SetDurabilityErrorLocked(std::move(status));
  }
}

void SimilarityService::SetDurabilityErrorLocked(Status status) {
  wal_failed_ = true;
  std::lock_guard<std::mutex> lock(durability_mutex_);
  durability_status_ = std::move(status);
}

Status SimilarityService::durability_status() const {
  std::lock_guard<std::mutex> lock(durability_mutex_);
  return durability_status_;
}

uint64_t SimilarityService::wal_sequence() {
  std::lock_guard<std::mutex> lock(write_mutex_);
  return wal_ ? wal_next_seq_ : 0;
}

void SimilarityService::AppendSegmentLocked(SegmentChain* chain,
                                            RecordSet records,
                                            std::vector<RecordId> global_ids) {
  SegmentChainEntry entry;
  entry.segment =
      BuildCorpusSegment(next_segment_id_++, std::move(records),
                         std::move(global_ids), shard_bounds_, num_shards_,
                         pred_);
  entry.dead.assign(num_shards_, nullptr);
  entry.live = entry.segment->records->size();
  chain->push_back(std::move(entry));
}

void SimilarityService::CompactLocked() {
  std::shared_ptr<const IndexSnapshot> snap = snapshot();
  // A compaction with nothing pending — no memtable records, no
  // tombstones — is a counted no-op: the published snapshot already IS
  // the compacted state, so no shard is rebuilt, no snapshot is
  // published (in particular, cosine skips its re-Prepare) and no marker
  // is logged.
  if (snap->pending_writes() == 0) {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.compactions;
    return;
  }
  // Log the marker BEFORE compacting, whether Compact() or the
  // memtable_limit trigger asked: replay compacts at markers only, so it
  // reproduces every epoch whatever limit the restart runs with, and if
  // the checkpoint that normally follows fails, the marker still stands
  // in the log. (On success the checkpoint resets the WAL and the marker
  // simply vanishes, already covered.)
  if (wal_ != nullptr && !replaying_ && !wal_failed_) {
    Status status = wal_->AppendCompact(wal_next_seq_);
    if (status.ok()) {
      ++wal_next_seq_;
    } else {
      SetDurabilityErrorLocked(std::move(status));
    }
  }
  // Corpus-statistics predicates (TF-IDF cosine): every record's scores
  // change when the statistics do, so every shard is rebuilt and the
  // whole chain collapses below.
  const bool corpus_stats = !pred_.corpus_independent_scores();
  const uint64_t delta_records = static_cast<uint64_t>(snap->pending_writes());
  std::vector<bool> dirty(num_shards_, corpus_stats);
  for (size_t s = 0; s < num_shards_; ++s) {
    const DeltaShard& delta = *snap->delta[s];
    if (!delta.records.empty() || !delta.tombstones.empty()) dirty[s] = true;
  }
  SegmentChain chain = *snap->chain;
  uint64_t merged_count = 0;

  // Replaces the `count` newest chain entries with ONE freshly built
  // segment over their surviving records, in chain (= global id) order.
  // Dead masks fold away physically; the merged segment starts clean.
  // Retired segments become garbage as readers drain their snapshots,
  // and the next checkpoint unlinks their files.
  auto merge_trailing = [&](size_t count) {
    RecordSet merged;
    std::vector<RecordId> gids;
    for (size_t i = chain.size() - count; i < chain.size(); ++i) {
      const SegmentChainEntry& entry = chain[i];
      const CorpusSegment& seg = *entry.segment;
      std::vector<bool> dead_local(seg.records->size(), false);
      for (size_t s = 0; s < num_shards_; ++s) {
        if (entry.dead[s] == nullptr) continue;
        for (RecordId part_local : *entry.dead[s]) {
          dead_local[seg.shards[s].member_ids[part_local]] = true;
        }
      }
      for (RecordId local = 0; local < seg.records->size(); ++local) {
        if (dead_local[local]) continue;
        // text_view, not text: merge inputs may be mapped segments whose
        // text blob lives in the mapping, not in owned strings.
        merged.Add(seg.records->record(local),
                   std::string(seg.records->text_view(local)));
        gids.push_back(seg.global_ids[local]);
      }
    }
    // Re-weigh the survivors against their own statistics, so IDF
    // excludes deleted records and the answers coincide with a fresh
    // batch self-join over the survivors. Preparation reads only token
    // sets and document frequencies (tf = 1), never the old scores, so
    // prepared records are as good an input as raw ones.
    if (corpus_stats) pred_.Prepare(&merged);
    if (count > 1) merged_count += count;
    chain.resize(chain.size() - count);
    AppendSegmentLocked(&chain, std::move(merged), std::move(gids));
  };

  // (a) Fold tombstones into per-segment copy-on-write dead masks. A
  // tombstoned gid is either chain-resident — its segment part holds it
  // (the part of the shard whose image lists the tombstone) — or still
  // memtable-resident, in which case the survivor fold below drops it.
  std::vector<std::vector<std::vector<RecordId>>> fold(
      chain.size(), std::vector<std::vector<RecordId>>(num_shards_));
  for (size_t s = 0; s < num_shards_; ++s) {
    for (RecordId gid : snap->delta[s]->tombstones) {
      const std::optional<ChainPosition> pos = LocateInChain(chain, gid);
      if (!pos) continue;  // memtable-resident
      SSJOIN_CHECK(pos->shard == s);
      fold[pos->entry][s].push_back(pos->part_local);
    }
  }
  for (size_t i = 0; i < chain.size(); ++i) {
    for (size_t s = 0; s < num_shards_; ++s) {
      std::vector<RecordId>& add = fold[i][s];
      if (add.empty()) continue;
      // A shard's tombstones are gid-sorted and gid order within one
      // segment implies part-local order, so `add` is already sorted.
      auto mask = std::make_shared<std::vector<RecordId>>();
      if (chain[i].dead[s] != nullptr) {
        const std::vector<RecordId>& old = *chain[i].dead[s];
        mask->resize(old.size() + add.size());
        std::merge(old.begin(), old.end(), add.begin(), add.end(),
                   mask->begin());
      } else {
        *mask = add;
      }
      chain[i].dead[s] = std::move(mask);
      chain[i].live -= add.size();
    }
  }

  // (b) Fold the memtable survivors — across all shards, in global id
  // order, preserving the chain's disjoint increasing gid ranges — into
  // ONE new delta-sized segment.
  struct Pending {
    RecordId id;
    const DeltaShard* delta;
    RecordId local;
  };
  std::vector<Pending> pending;
  pending.reserve(snap->delta_size());
  for (size_t s = 0; s < num_shards_; ++s) {
    const DeltaShard& delta = *snap->delta[s];
    for (RecordId local = 0; local < delta.records.size(); ++local) {
      const RecordId id = delta.global_ids[local];
      if (!std::binary_search(delta.tombstones.begin(),
                              delta.tombstones.end(), id)) {
        pending.push_back({id, &delta, local});
      }
    }
  }
  std::sort(pending.begin(), pending.end(),
            [](const Pending& a, const Pending& b) { return a.id < b.id; });
  if (!pending.empty()) {
    RecordSet folded;
    std::vector<RecordId> gids;
    gids.reserve(pending.size());
    for (const Pending& p : pending) {
      folded.Add(p.delta->records.record(p.local),
                 p.delta->records.text(p.local));
      gids.push_back(p.id);
    }
    AppendSegmentLocked(&chain, std::move(folded), std::move(gids));
  }

  // (c) Size-tiered merge cascade: merge the two newest segments while
  // the older one is no bigger than ratio times the newer, so chains
  // stay logarithmic in corpus size and merge cost amortizes to
  // O(corpus / ratio^depth). Ratio 0 — and every corpus-statistics
  // predicate — collapses the whole chain to one segment and purges
  // masked-dead bytes at every compaction: the pre-segmented baseline.
  if (options_.segment_merge_ratio == 0 || corpus_stats) {
    bool masked = false;
    for (const SegmentChainEntry& e : chain) {
      for (const std::shared_ptr<const std::vector<RecordId>>& d : e.dead) {
        masked = masked || d != nullptr;
      }
    }
    if (chain.size() > 1 || masked) merge_trailing(chain.size());
  } else {
    while (chain.size() >= 2 &&
           chain[chain.size() - 2].live <=
               options_.segment_merge_ratio * chain.back().live) {
      merge_trailing(2);
    }
  }
  FinishCompactionLocked(std::move(chain), dirty, merged_count,
                         delta_records, /*count_compaction=*/true);
}

void SimilarityService::FinishCompactionLocked(SegmentChain chain,
                                               const std::vector<bool>& dirty,
                                               uint64_t merged_count,
                                               uint64_t delta_records,
                                               bool count_compaction) {
  // Durable services write the segments this compaction built and map
  // them straight back, so their arenas leave the heap before the
  // snapshot is published: peak RSS stays O(delta) plus what the page
  // cache keeps, never O(merged corpus). The files are recorded as
  // persisted at once (the upcoming checkpoint references them without
  // rewriting; a crash before it leaves orphans the next load GCs).
  // Either step failing keeps the owned segment serving, and the next
  // compaction retries it.
  if (wal_ != nullptr) {
    for (SegmentChainEntry& entry : chain) {
      if (entry.segment->mapping != nullptr) continue;
      const uint64_t segment_id = entry.segment->id;
      if (persisted_segments_.count(segment_id) == 0) {
        Status status = WriteSegmentFile(options_.data_dir, *entry.segment);
        if (!status.ok()) {
          SSJOIN_LOG_WARNING << "cannot write segment " << segment_id
                             << ", serving from heap: " << status.message();
          continue;
        }
        persisted_segments_.insert(segment_id);
      }
      Result<std::shared_ptr<const CorpusSegment>> mapped = OpenSegmentFile(
          options_.data_dir, segment_id, num_shards_,
          /*count_frequencies=*/!pred_.corpus_independent_scores());
      if (!mapped.ok()) {
        SSJOIN_LOG_WARNING << "cannot map segment " << segment_id
                           << ", serving from heap: "
                           << mapped.status().message();
        continue;
      }
      entry.segment = std::move(mapped).value();
    }
    // Replay advises once, when the restore finishes.
    if (!replaying_) ApplyResidencyAdviceLocked(chain);
  }

  // Publish the new chain (cheap — one entry per segment) with empty
  // delta images as one snapshot. Merges do NOT publish intermediates,
  // so a compaction bumps the epoch exactly once regardless of how far
  // the cascade ran.
  auto published = std::make_shared<const SegmentChain>(std::move(chain));
  Publish(CompactionPoint(published, num_shards_));
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    if (count_compaction) ++stats_.compactions;
    for (size_t s = 0; s < num_shards_; ++s) {
      if (dirty[s]) ++stats_.shards[s].rebuilds;
    }
    SetChainGauges(*published, &stats_);
    stats_.segments_merged += merged_count;
    stats_.last_compact_delta_records = delta_records;
  }
  // The new snapshot is a compaction point — delta images empty — which
  // is the only state a checkpoint is taken in: WAL replay from it
  // through the normal op paths is then deterministic. Suppressed during
  // replay (the WAL being replayed must not be reset under our feet) and
  // while construction runs before the durability layer exists.
  if (wal_ != nullptr && !replaying_) MaybeCheckpointLocked();
}

void SimilarityService::Publish(IndexSnapshot next, bool bump_epoch) {
  auto snap = std::make_shared<IndexSnapshot>(std::move(next));
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  if (bump_epoch) {
    snap->epoch = snapshot_ == nullptr ? 0 : snapshot_->epoch + 1;
  }
  snapshot_ = std::move(snap);
}

std::shared_ptr<const IndexSnapshot> SimilarityService::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_;
}

void SimilarityService::RunOverShards(size_t num_shards,
                                      FunctionRef<void(size_t)> fn) const {
  // Fan out only when it can help AND the pool is free: ParallelFor is
  // not reentrant, and a point query must never wait behind a batch —
  // the serial sweep produces the identical answer.
  if (num_shards > 1 && pool_->num_threads() > 1 && pool_mutex_.try_lock()) {
    std::lock_guard<std::mutex> lock(pool_mutex_, std::adopt_lock);
    pool_->ParallelFor(num_shards, /*chunk=*/1,
                       [&](size_t begin, size_t end, int /*worker*/) {
                         for (size_t s = begin; s < end; ++s) fn(s);
                       });
  } else {
    for (size_t s = 0; s < num_shards; ++s) fn(s);
  }
}

RecordId SimilarityService::Insert(RecordView record, std::string text) {
  std::lock_guard<std::mutex> lock(write_mutex_);
  return InsertLocked(record, std::move(text));
}

RecordId SimilarityService::InsertLocked(RecordView record, std::string text) {
  // WAL-first, and before `text` is moved anywhere: the logged payload is
  // the exact call input, so replay re-runs this function. After an
  // append failure the log is suspended (a torn frame must not get good
  // frames appended behind it) until a checkpoint repairs it.
  if (wal_ != nullptr && !replaying_ && !wal_failed_) {
    Status status = wal_->AppendInsert(wal_next_seq_, record, text);
    if (status.ok()) {
      ++wal_next_seq_;
    } else {
      SetDurabilityErrorLocked(std::move(status));
    }
  }
  std::shared_ptr<const IndexSnapshot> snap = snapshot();

  // Score the newcomer against the published base statistics, then
  // publish the routed shard's memtable image grown by it. The segment
  // chain and the other shards' images are shared, not copied.
  RecordSet staging;
  staging.Add(record, std::move(text));
  pred_.PrepareIncremental(snap->stats_reference(), &staging);
  const RecordId id = static_cast<RecordId>(next_id_++);
  const size_t shard = RouteToShard(staging.record(0), shard_bounds_);
  const DeltaShard& memtable = *snap->delta[shard];
  RecordSet records = memtable.records;
  records.Add(staging.record(0), staging.text(0));
  std::vector<RecordId> gids = memtable.global_ids;
  gids.push_back(id);
  IndexSnapshot next = *snap;
  // The shard's pending tombstones ride on its image — carry them over so
  // earlier deletes stay visible.
  next.delta[shard] =
      BuildDeltaShard(std::move(records), std::move(gids),
                      pred_.ShortRecordNormBound(), memtable.tombstones);
  ++next.live_records;
  Publish(std::move(next));
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.inserts;
    ++stats_.shards[shard].inserts;
  }
  MaybeAutoCompactLocked();
  return id;
}

bool SimilarityService::Delete(RecordId id) {
  std::lock_guard<std::mutex> lock(write_mutex_);
  return DeleteLocked(id);
}

bool SimilarityService::DeleteLocked(RecordId id) {
  std::shared_ptr<const IndexSnapshot> snap = snapshot();
  const std::optional<size_t> shard = snap->LiveShardOf(id);
  if (!shard) {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.delete_misses;
    return false;
  }
  // Logged after the miss check (a miss mutates nothing, so replay needs
  // nothing) but before any mutation, same WAL-first rule as Insert.
  if (wal_ != nullptr && !replaying_ && !wal_failed_) {
    Status status = wal_->AppendDelete(wal_next_seq_, id);
    if (status.ok()) {
      ++wal_next_seq_;
    } else {
      SetDurabilityErrorLocked(std::move(status));
    }
  }
  // Publish the owning shard's image with the grown tombstone list; the
  // segment chain and other images are shared untouched.
  const DeltaShard& memtable = *snap->delta[*shard];
  std::vector<RecordId> tombstones = memtable.tombstones;
  tombstones.insert(
      std::upper_bound(tombstones.begin(), tombstones.end(), id), id);
  IndexSnapshot next = *snap;
  next.delta[*shard] =
      BuildDeltaShard(memtable.records, memtable.global_ids,
                      pred_.ShortRecordNormBound(), std::move(tombstones));
  --next.live_records;
  ++next.pending_tombstones;
  Publish(std::move(next));
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.deletes;
    ++stats_.shards[*shard].deletes;
  }
  MaybeAutoCompactLocked();
  return true;
}

void SimilarityService::MaybeAutoCompactLocked() {
  if (replaying_ || options_.memtable_limit == 0) return;
  if (snapshot()->pending_writes() >= options_.memtable_limit) {
    CompactLocked();
  }
}

void SimilarityService::Compact() {
  std::lock_guard<std::mutex> lock(write_mutex_);
  CompactLocked();
}

std::vector<QueryMatch> SimilarityService::Query(RecordView query,
                                                 std::string text) const {
  Timer timer;
  std::shared_ptr<const IndexSnapshot> snap = snapshot();
  RecordSet staged;
  staged.Add(query, std::move(text));
  pred_.PrepareIncremental(snap->stats_reference(), &staged);

  // One counter set and one result slot per shard: scheduling cannot
  // change the output or the stats attribution.
  std::vector<ShardCounters> counters(num_shards_);
  std::vector<std::vector<QueryMatch>> parts(num_shards_);
  RunOverShards(num_shards_, [&](size_t s) {
    parts[s] = LookupShard(pred_, *snap, s, staged, 0, &counters[s]);
  });
  std::vector<QueryMatch> out;
  probe_internal::MergeSortedParts(parts, IdLess, &out);
  uint64_t micros = ElapsedMicros(timer);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.point_queries;
    stats_.results += out.size();
    FoldShardCounters(counters, num_shards_, &stats_);
    stats_.query_latency_us.Record(micros);
  }
  return out;
}

std::vector<std::vector<QueryMatch>> SimilarityService::BatchQuery(
    const RecordSet& queries) const {
  Timer timer;
  std::shared_ptr<const IndexSnapshot> snap = snapshot();
  RecordSet staged = queries;
  pred_.PrepareIncremental(snap->stats_reference(), &staged);

  // Slot vector indexed by query id: scheduling order cannot change the
  // output. Each worker adds into its own row of per-shard counters.
  std::vector<std::vector<QueryMatch>> results(staged.size());
  std::vector<ShardCounters> counters(
      static_cast<size_t>(pool_->num_threads()) * num_shards_);
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    pool_->ParallelFor(
        staged.size(), /*chunk=*/1, [&](size_t begin, size_t end, int worker) {
          for (size_t i = begin; i < end; ++i) {
            results[i] = LookupAllShards(
                pred_, *snap, staged, static_cast<RecordId>(i),
                &counters[static_cast<size_t>(worker) * num_shards_]);
          }
        });
  }
  uint64_t micros = ElapsedMicros(timer);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.batch_queries;
    stats_.batched_records += staged.size();
    FoldShardCounters(counters, num_shards_, &stats_);
    for (const std::vector<QueryMatch>& r : results) {
      stats_.results += r.size();
    }
    stats_.batch_latency_us.Record(micros);
  }
  return results;
}

std::vector<QueryMatch> SimilarityService::QueryTopK(RecordView query,
                                                     size_t k,
                                                     std::string text) const {
  Timer timer;
  std::shared_ptr<const IndexSnapshot> snap = snapshot();
  RecordSet staged;
  staged.Add(query, std::move(text));
  pred_.PrepareIncremental(snap->stats_reference(), &staged);
  const RecordView probe = staged.record(0);

  std::vector<ShardCounters> counters(num_shards_);
  std::vector<std::vector<QueryMatch>> parts(num_shards_);
  RunOverShards(num_shards_, [&](size_t s) {
    SweepShardOverlaps(*snap, s, probe, &counters[s], &parts[s]);
  });
  std::vector<QueryMatch> out;
  for (const std::vector<QueryMatch>& part : parts) {
    out.insert(out.end(), part.begin(), part.end());
  }
  // Shards partition the record space, so ids are unique and the
  // (score desc, id asc) order — hence the truncated top-k — is
  // identical for every shard count.
  std::sort(out.begin(), out.end(),
            [](const QueryMatch& a, const QueryMatch& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.id < b.id;
            });
  if (out.size() > k) out.resize(k);
  uint64_t micros = ElapsedMicros(timer);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.topk_queries;
    stats_.results += out.size();
    FoldShardCounters(counters, num_shards_, &stats_);
    stats_.query_latency_us.Record(micros);
  }
  return out;
}

ServiceStats SimilarityService::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

std::string SimilarityService::StatsJson() const {
  std::shared_ptr<const IndexSnapshot> snap = snapshot();
  ServiceStats copy = stats();
  char header[256];
  std::snprintf(header, sizeof(header),
                "{\"epoch\": %llu, \"num_shards\": %llu, "
                "\"live_records\": %llu, \"base_records\": %llu, "
                "\"memtable_records\": %llu, \"tombstones\": %llu, "
                "\"stats\": ",
                static_cast<unsigned long long>(snap->epoch),
                static_cast<unsigned long long>(snap->num_shards()),
                static_cast<unsigned long long>(snap->size()),
                static_cast<unsigned long long>(snap->base_size()),
                static_cast<unsigned long long>(snap->delta_size()),
                static_cast<unsigned long long>(snap->pending_tombstones));
  return std::string(header) + copy.ToJson() + "}";
}

}  // namespace ssjoin
