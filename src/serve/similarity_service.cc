#include "serve/similarity_service.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <utility>

#include "core/probe_common.h"
#include "util/function_ref.h"
#include "util/logging.h"
#include "util/timer.h"

namespace ssjoin {

namespace {

/// Per-query mutable context: scratch buffers plus the counters folded
/// into ServiceStats afterwards. One per worker in batch mode, one per
/// shard in the point-query fan-out.
struct QueryContext {
  probe_internal::ProbeScratch scratch;
  MergeStats merge;
  // Per-shard attribution; sized lazily on first use.
  std::vector<uint64_t> shard_candidates;
  std::vector<uint64_t> shard_results;

  void EnsureShards(size_t num_shards) {
    if (shard_candidates.size() < num_shards) {
      shard_candidates.resize(num_shards, 0);
      shard_results.resize(num_shards, 0);
    }
  }
};

bool IdLess(const QueryMatch& a, const QueryMatch& b) { return a.id < b.id; }

/// Bitmap-gate width in words for this service configuration: 0 (off)
/// unless the predicate opted in, otherwise bitmap_bits rounded down to
/// whole words and clamped to the stored width. Thresholded lookups gate
/// with this; the top-k sweep never gates (its floor is 0 — nothing to
/// prune against).
size_t BitmapGateWords(const ServiceOptions& options, const Predicate& pred) {
  if (!pred.supports_bitmap_pruning()) return 0;
  return std::min(options.bitmap_bits / 64, kTokenBitmapWords);
}

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
/// tier), per-candidate bound, norm filter, bitmap gate, the predicate's
/// canonical MatchesCross and the tier's short pool — so a sharded,
/// segmented query accepts a pair exactly when the batch join (and the
/// 1-shard, 1-segment service) would. A record lives in exactly one shard
/// and one tier, so the per-tier outputs are disjoint and the
/// deterministic cross-shard merge reconstructs the single-index answer
/// byte for byte.
std::vector<QueryMatch> LookupShard(const Predicate& pred,
                                    const ServiceOptions& options,
                                    const IndexSnapshot& snap, size_t shard,
                                    const RecordSet& staged, RecordId q,
                                    QueryContext* ctx) {
  ctx->EnsureShards(snap.num_shards());
  std::vector<QueryMatch> out;
  const RecordView probe = staged.record(q);
  const size_t gate_words = BitmapGateWords(options, pred);
  auto probe_tier = [&](const auto& tier) {
    probe_internal::ProbeMatches(
        pred, tier.target, probe, staged, q, /*apply_filter=*/true,
        MergeOptions{}, gate_words,
        [&tier](RecordId local) { return tier.Dropped(local); }, &ctx->merge,
        &ctx->shard_candidates[shard], &ctx->scratch,
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
  ctx->shard_results[shard] += out.size();
  return out;
}

/// Serial all-shard lookup used by batch workers (the pool is already
/// fanned out over queries, so shards are swept in-line). Identical
/// output to the point-query shard fan-out: per-shard parts are sorted
/// and disjoint, and the merge order is unique.
std::vector<QueryMatch> LookupAllShards(const Predicate& pred,
                                        const ServiceOptions& options,
                                        const IndexSnapshot& snap,
                                        const RecordSet& staged, RecordId q,
                                        QueryContext* ctx) {
  std::vector<std::vector<QueryMatch>> parts(snap.num_shards());
  for (size_t s = 0; s < snap.num_shards(); ++s) {
    parts[s] = LookupShard(pred, options, snap, s, staged, q, ctx);
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
                        RecordView probe, QueryContext* ctx,
                        std::vector<QueryMatch>* out) {
  ctx->EnsureShards(snap.num_shards());
  if (probe.empty()) return;
  auto sweep_tier = [&](const auto& tier) {
    if (tier.target.index.num_entities() == 0) return;
    probe_internal::ProbeOne(
        tier.target.index, probe, /*floor=*/0, /*required=*/{},
        /*filter=*/{}, MergeOptions{}, &ctx->merge, &ctx->scratch,
        [&](const MergeCandidate& candidate) {
          if (tier.Dropped(candidate.id)) return;
          ++ctx->shard_candidates[shard];
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

/// The out-of-core budget a service runs with: the option, or the
/// SSJOIN_RESIDENT_BUDGET environment variable when the option is 0 (the
/// test/CI hook — lets existing harnesses exercise the mapped path
/// without plumbing a flag everywhere). Unparsable values read as 0.
/// Always 0 for corpus-statistics predicates (TF-IDF cosine): staging
/// weighs records against the front segment's document frequencies
/// (IndexSnapshot::stats_reference), counted from its arena at build or
/// reopen, and every compaction re-Prepares the whole corpus.
uint64_t EffectiveResidentBudget(const ServiceOptions& options,
                                 const Predicate& pred) {
  if (!pred.corpus_independent_scores()) return 0;
  if (options.resident_budget_bytes > 0) return options.resident_budget_bytes;
  const char* env = std::getenv("SSJOIN_RESIDENT_BUDGET");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  unsigned long long value = std::strtoull(env, &end, 10);
  return end != nullptr && *end == '\0' ? static_cast<uint64_t>(value) : 0;
}

}  // namespace

SimilarityService::SimilarityService(RecordSet corpus, const Predicate& pred,
                                     ServiceOptions options)
    : pred_(pred),
      options_(options),
      num_shards_(options.num_shards > 1 ? options.num_shards : 1),
      resident_budget_(EffectiveResidentBudget(options_, pred)),
      pool_(std::make_unique<ThreadPool>(
          options.num_threads > 0 ? options.num_threads
                                  : ThreadPool::DefaultNumThreads())) {
  std::lock_guard<std::mutex> lock(write_mutex_);
  shard_bounds_ = ComputeShardBounds(RoutingMassHistogram(corpus), num_shards_);
  next_id_ = corpus.size();
  deleted_.assign(corpus.size(), false);
  memtables_.resize(num_shards_);
  memtable_ids_.resize(num_shards_);
  tombstones_.resize(num_shards_);
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    stats_.EnsureShards(num_shards_);
  }
  // Segment 0 is the corpus itself, prepared in place; every shard counts
  // it as one rebuild.
  pred_.Prepare(&corpus);
  std::vector<RecordId> gids(corpus.size());
  std::iota(gids.begin(), gids.end(), RecordId{0});
  AppendSegmentLocked(std::move(corpus), std::move(gids));
  FinishCompactionLocked(std::vector<bool>(num_shards_, true),
                         /*merged_count=*/0, /*delta_records=*/0,
                         /*count_compaction=*/false);
  if (!options_.data_dir.empty()) InitDurabilityLocked();
  // The initial checkpoint just wrote segment 0; in out-of-core mode,
  // serve it mapped from the start instead of keeping the heap copy.
  AdoptMappedSegmentsLocked();
}

SimilarityService::SimilarityService(ServiceCheckpoint checkpoint,
                                     std::vector<WalRecord> tail,
                                     WriteAheadLog wal, const Predicate& pred,
                                     ServiceOptions options)
    : pred_(pred),
      options_(std::move(options)),
      num_shards_(checkpoint.num_shards),
      resident_budget_(EffectiveResidentBudget(options_, pred)),
      pool_(std::make_unique<ThreadPool>(
          options_.num_threads > 0 ? options_.num_threads
                                   : ThreadPool::DefaultNumThreads())) {
  std::lock_guard<std::mutex> lock(write_mutex_);
  shard_bounds_ = std::move(checkpoint.shard_bounds);
  next_id_ = checkpoint.next_id;
  next_segment_id_ = checkpoint.next_segment_id;
  deleted_ = std::move(checkpoint.deleted);
  for (size_t i = 0; i < deleted_.size(); ++i) {
    if (deleted_[i]) ++deleted_total_;
  }
  memtables_.resize(num_shards_);
  memtable_ids_.resize(num_shards_);
  tombstones_.resize(num_shards_);

  // Rebuild the chain exactly as checkpointed: segments shared straight
  // off disk (and already durable — seed the persisted set so the next
  // checkpoint writes only genuinely new ones), dead masks rewrapped
  // copy-on-write with empty lists collapsing to "none".
  chain_.reserve(checkpoint.segments.size());
  for (ServiceCheckpoint::Segment& seg : checkpoint.segments) {
    SegmentChainEntry entry;
    entry.segment = std::move(seg.segment);
    entry.dead.resize(num_shards_);
    for (size_t s = 0; s < num_shards_; ++s) {
      if (!seg.dead[s].empty()) {
        entry.dead[s] = std::make_shared<std::vector<RecordId>>(
            std::move(seg.dead[s]));
      }
    }
    entry.live = static_cast<size_t>(seg.live);
    persisted_segments_.insert(entry.segment->id);
    chain_.push_back(std::move(entry));
  }
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    stats_.EnsureShards(num_shards_);
    stats_.segments = chain_.size();
    uint64_t bytes = 0;
    for (const SegmentChainEntry& e : chain_) bytes += e.segment->approx_bytes;
    stats_.segment_bytes = bytes;
    stats_.gc_unlinked_segments += checkpoint.gc.unlinked_segments;
    stats_.gc_unlink_failures += checkpoint.gc.unlink_failures;
  }

  // Re-publish the checkpointed snapshot at its recorded epoch: the
  // restored chain as is, deltas empty (checkpoints are written at
  // compaction points, so no memtable records and no tombstones).
  auto snap = std::make_shared<IndexSnapshot>();
  snap->chain = std::make_shared<const SegmentChain>(chain_);
  snap->delta.resize(num_shards_);
  for (size_t s = 0; s < num_shards_; ++s) {
    snap->delta[s] =
        BuildDeltaShard(RecordSet(), {}, pred_.ShortRecordNormBound());
  }
  snap->epoch = checkpoint.epoch;
  snap->live_records = static_cast<size_t>(next_id_) - deleted_total_;
  {
    std::lock_guard<std::mutex> snapshot_lock(snapshot_mutex_);
    snapshot_ = std::move(snap);
  }

  wal_ = std::make_unique<WriteAheadLog>(std::move(wal));
  // last_seq() covers frames a crash left from before the checkpoint
  // (checkpoint renamed, WAL reset pending): seq assignment must not
  // collide with them even though replay skips them.
  wal_next_seq_ = std::max(checkpoint.wal_seq, wal_->last_seq()) + 1;

  // Replay the tail through the normal op paths: the checkpoint is a
  // compaction point, so starting from identical base statistics each
  // replayed op stages, routes, publishes — and auto-compacts — exactly
  // as the original did, epoch for epoch. Frames at or below the
  // checkpoint's seq are the double-apply guard, not part of the tail.
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
        CompactLocked(/*count_compaction=*/true);
        break;
    }
  }
  replaying_ = false;
  // Checkpointed segments arrive mapped (LoadCheckpoint) and replay
  // compactions map their own output; this covers any that fell back to
  // heap, then applies the budget's residency advice across the chain.
  AdoptMappedSegmentsLocked();
}

Result<std::unique_ptr<SimilarityService>> SimilarityService::Open(
    const Predicate& pred, ServiceOptions options) {
  if (options.data_dir.empty()) {
    return Status::InvalidArgument("Open requires ServiceOptions::data_dir");
  }
  CheckpointLoadOptions load_options;
  load_options.resident_budget_bytes = EffectiveResidentBudget(options, pred);
  load_options.count_frequencies = !pred.corpus_independent_scores();
  Result<ServiceCheckpoint> loaded =
      LoadCheckpoint(options.data_dir, load_options);
  if (!loaded.ok()) return loaded.status();
  ServiceCheckpoint checkpoint = std::move(loaded).value();
  if (checkpoint.predicate != pred.name()) {
    return Status::FailedPrecondition(
        "checkpoint in " + options.data_dir + " was written under predicate " +
        checkpoint.predicate + ", not " + pred.name());
  }
  std::vector<WalRecord> tail;
  Result<WriteAheadLog> wal = WriteAheadLog::Open(
      WalFilePath(options.data_dir), options.wal_sync, &tail);
  if (!wal.ok()) return wal.status();
  return std::unique_ptr<SimilarityService>(new SimilarityService(
      std::move(checkpoint), std::move(tail), std::move(wal).value(), pred,
      std::move(options)));
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
  if (status.ok()) status = SaveCheckpointLocked();
  if (!status.ok()) SetDurabilityErrorLocked(std::move(status));
}

void SimilarityService::AdoptMappedSegmentsLocked() {
  if (wal_ == nullptr || resident_budget_ == 0) return;
  bool swapped = false;
  for (SegmentChainEntry& entry : chain_) {
    if (entry.segment->mapping != nullptr) continue;
    if (persisted_segments_.count(entry.segment->id) == 0) continue;
    Result<std::shared_ptr<const CorpusSegment>> mapped = OpenSegmentFile(
        options_.data_dir, entry.segment->id, num_shards_,
        /*materialize=*/false);
    if (!mapped.ok()) {
      // Mapping is an optimization: the owned segment keeps serving.
      SSJOIN_LOG_WARNING << "cannot map segment " << entry.segment->id
                         << ", serving from heap: "
                         << mapped.status().message();
      continue;
    }
    entry.segment = std::move(mapped).value();
    swapped = true;
  }
  if (swapped) {
    // Republish in place at the CURRENT epoch: the mapped views answer
    // byte-identically, so the swap must be invisible to readers — no
    // epoch bump, delta images and counts carried over unchanged.
    auto snap = std::make_shared<IndexSnapshot>(*snapshot());
    snap->chain = std::make_shared<const SegmentChain>(chain_);
    {
      std::lock_guard<std::mutex> snapshot_lock(snapshot_mutex_);
      snapshot_ = std::move(snap);
    }
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    uint64_t bytes = 0;
    for (const SegmentChainEntry& e : chain_) bytes += e.segment->approx_bytes;
    stats_.segment_bytes = bytes;
  }
  ApplyResidencyAdviceLocked();
}

void SimilarityService::ApplyResidencyAdviceLocked() {
  uint64_t mapped_segments = 0;
  uint64_t mapped_bytes = 0;
  uint64_t resident = 0;
  // Newest first: recent segments hold the hottest data (merges fold the
  // old tail, inserts land at the head), so they get the budget. The
  // advice is a hint either way — over-budget segments stay correct,
  // they just refault from disk.
  for (size_t i = chain_.size(); i-- > 0;) {
    const CorpusSegment& seg = *chain_[i].segment;
    if (seg.mapping == nullptr) continue;
    ++mapped_segments;
    mapped_bytes += seg.mapped_bytes;
    if (resident + seg.mapped_bytes <= resident_budget_) {
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
  ApplyResidencyAdviceLocked();
}

Status SimilarityService::SaveCheckpointLocked() {
  // The manifest carries no memtable records and no tombstones: a
  // checkpoint is only ever taken at a compaction point.
  SSJOIN_CHECK(memtable_total_ == 0 && tombstone_total_ == 0);
  std::shared_ptr<const IndexSnapshot> snap = snapshot();
  CheckpointState state;
  state.epoch = snap->epoch;
  state.wal_seq = wal_next_seq_ - 1;
  state.predicate = pred_.name();
  state.num_shards = num_shards_;
  state.shard_bounds = shard_bounds_;
  state.next_id = next_id_;
  state.next_segment_id = next_segment_id_;
  state.deleted = &deleted_;
  state.segments.reserve(chain_.size());
  for (const SegmentChainEntry& entry : chain_) {
    CheckpointState::SegmentRef ref;
    ref.segment = entry.segment.get();
    ref.dead.reserve(num_shards_);
    for (size_t s = 0; s < num_shards_; ++s) {
      ref.dead.push_back(entry.dead[s] != nullptr ? entry.dead[s].get()
                                                  : nullptr);
    }
    ref.live = entry.live;
    state.segments.push_back(std::move(ref));
  }
  GcStats gc;
  Status status = ssjoin::SaveCheckpoint(options_.data_dir, state,
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

void SimilarityService::AppendSegmentLocked(RecordSet records,
                                            std::vector<RecordId> global_ids) {
  SegmentChainEntry entry;
  entry.segment =
      BuildCorpusSegment(next_segment_id_++, std::move(records),
                         std::move(global_ids), shard_bounds_, num_shards_,
                         pred_);
  entry.dead.assign(num_shards_, nullptr);
  entry.live = entry.segment->records->size();
  chain_.push_back(std::move(entry));
}

bool SimilarityService::CompactLocked(bool count_compaction) {
  // A compaction with nothing pending — no memtable records, no
  // tombstones — is a counted no-op: the published snapshot already IS
  // the compacted state, so no shard is rebuilt and no snapshot is
  // published (in particular, cosine skips its re-Prepare).
  if (memtable_total_ == 0 && tombstone_total_ == 0) {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    if (count_compaction) ++stats_.compactions;
    return false;
  }
  // Corpus-statistics predicates (TF-IDF cosine): every record's scores
  // change when the statistics do, so every shard is rebuilt and the
  // whole chain collapses below.
  const bool corpus_stats = !pred_.corpus_independent_scores();
  const uint64_t delta_records =
      static_cast<uint64_t>(memtable_total_ + tombstone_total_);
  std::vector<bool> dirty(num_shards_, corpus_stats);
  for (size_t s = 0; s < num_shards_; ++s) {
    if (!memtable_ids_[s].empty() || !tombstones_[s].empty()) dirty[s] = true;
  }
  uint64_t merged_count = 0;

  // Replaces the `count` newest chain entries with ONE freshly built
  // segment over their surviving records, in chain (= global id) order.
  // Dead masks fold away physically; the merged segment starts clean.
  // Retired segments become garbage as readers drain their snapshots,
  // and the next checkpoint unlinks their files.
  auto merge_trailing = [&](size_t count) {
    RecordSet merged;
    std::vector<RecordId> gids;
    for (size_t i = chain_.size() - count; i < chain_.size(); ++i) {
      const SegmentChainEntry& entry = chain_[i];
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
    chain_.resize(chain_.size() - count);
    AppendSegmentLocked(std::move(merged), std::move(gids));
  };

  // (a) Fold tombstones into per-segment copy-on-write dead masks. A
  // tombstoned gid is either chain-resident — locate its segment by gid
  // range (ranges are disjoint), its arena slot by gid, its part slot by
  // shard membership — or still memtable-resident, in which case the
  // survivor fold below simply drops it.
  std::vector<std::vector<std::vector<RecordId>>> fold(
      chain_.size(), std::vector<std::vector<RecordId>>(num_shards_));
  for (size_t s = 0; s < num_shards_; ++s) {
    for (RecordId gid : tombstones_[s]) {
      size_t ci = chain_.size();
      for (size_t i = 0; i < chain_.size(); ++i) {
        const std::vector<RecordId>& sgids = chain_[i].segment->global_ids;
        if (!sgids.empty() && sgids.front() <= gid && gid <= sgids.back()) {
          ci = i;
          break;
        }
      }
      if (ci == chain_.size()) continue;  // memtable-resident
      const CorpusSegment& seg = *chain_[ci].segment;
      auto git = std::lower_bound(seg.global_ids.begin(),
                                  seg.global_ids.end(), gid);
      SSJOIN_CHECK(git != seg.global_ids.end() && *git == gid);
      const RecordId local =
          static_cast<RecordId>(git - seg.global_ids.begin());
      const SegmentShardPart& part = seg.shards[s];
      auto mit = std::lower_bound(part.member_ids.begin(),
                                  part.member_ids.end(), local);
      SSJOIN_CHECK(mit != part.member_ids.end() && *mit == local);
      fold[ci][s].push_back(
          static_cast<RecordId>(mit - part.member_ids.begin()));
    }
  }
  for (size_t i = 0; i < chain_.size(); ++i) {
    for (size_t s = 0; s < num_shards_; ++s) {
      std::vector<RecordId>& add = fold[i][s];
      if (add.empty()) continue;
      // tombstones_[s] is gid-sorted and gid order within one segment
      // implies part-local order, so `add` is already sorted.
      auto mask = std::make_shared<std::vector<RecordId>>();
      if (chain_[i].dead[s] != nullptr) {
        const std::vector<RecordId>& old = *chain_[i].dead[s];
        mask->resize(old.size() + add.size());
        std::merge(old.begin(), old.end(), add.begin(), add.end(),
                   mask->begin());
      } else {
        *mask = add;
      }
      chain_[i].dead[s] = std::move(mask);
      chain_[i].live -= add.size();
    }
  }

  // (b) Fold the memtable survivors — across all shards, in global id
  // order, preserving the chain's disjoint increasing gid ranges — into
  // ONE new delta-sized segment.
  struct Pending {
    RecordId id;
    size_t shard;
    size_t local;
  };
  std::vector<Pending> pending;
  pending.reserve(memtable_total_);
  for (size_t s = 0; s < num_shards_; ++s) {
    for (size_t j = 0; j < memtable_ids_[s].size(); ++j) {
      if (!deleted_[memtable_ids_[s][j]]) {
        pending.push_back({memtable_ids_[s][j], s, j});
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
      folded.Add(memtables_[p.shard].record(static_cast<RecordId>(p.local)),
                 memtables_[p.shard].text(static_cast<RecordId>(p.local)));
      gids.push_back(p.id);
    }
    AppendSegmentLocked(std::move(folded), std::move(gids));
  }

  // (c) Size-tiered merge cascade: merge the two newest segments while
  // the older one is no bigger than ratio times the newer, so chains
  // stay logarithmic in corpus size and merge cost amortizes to
  // O(corpus / ratio^depth). Ratio 0 — and every corpus-statistics
  // predicate — collapses the whole chain to one segment and purges
  // masked-dead bytes at every compaction: the pre-segmented baseline.
  if (options_.segment_merge_ratio == 0 || corpus_stats) {
    bool masked = false;
    for (const SegmentChainEntry& e : chain_) {
      for (const std::shared_ptr<const std::vector<RecordId>>& d : e.dead) {
        masked = masked || d != nullptr;
      }
    }
    if (chain_.size() > 1 || masked) merge_trailing(chain_.size());
  } else {
    while (chain_.size() >= 2 &&
           chain_[chain_.size() - 2].live <=
               options_.segment_merge_ratio * chain_.back().live) {
      merge_trailing(2);
    }
  }
  FinishCompactionLocked(dirty, merged_count, delta_records,
                         count_compaction);
  return true;
}

void SimilarityService::FinishCompactionLocked(const std::vector<bool>& dirty,
                                               uint64_t merged_count,
                                               uint64_t delta_records,
                                               bool count_compaction) {
  // Out-of-core mode: spill the segments this compaction built to disk
  // and map them straight back, so the merged arenas leave the heap
  // before the snapshot is published — peak RSS stays O(delta) plus the
  // budget, never O(merged corpus). The files are recorded as persisted
  // immediately (the upcoming checkpoint references them without
  // rewriting; a crash before it leaves orphans the next load GCs).
  // Either step failing just keeps the owned segment serving.
  if (wal_ != nullptr && resident_budget_ > 0) {
    for (SegmentChainEntry& entry : chain_) {
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
          options_.data_dir, segment_id, num_shards_, /*materialize=*/false);
      if (!mapped.ok()) {
        SSJOIN_LOG_WARNING << "cannot map segment " << segment_id
                           << ", serving from heap: "
                           << mapped.status().message();
        continue;
      }
      entry.segment = std::move(mapped).value();
    }
    ApplyResidencyAdviceLocked();
  }

  // Publish the new chain (cheap — one entry per segment) with fresh
  // empty deltas as one snapshot. Merges do NOT publish intermediates,
  // so a compaction bumps the epoch exactly once regardless of how far
  // the cascade ran.
  const double short_bound = pred_.ShortRecordNormBound();
  std::vector<std::shared_ptr<const DeltaShard>> delta(num_shards_);
  for (size_t s = 0; s < num_shards_; ++s) {
    memtables_[s] = RecordSet();
    memtable_ids_[s].clear();
    tombstones_[s].clear();
    delta[s] = BuildDeltaShard(RecordSet(), {}, short_bound);
  }
  memtable_total_ = 0;
  tombstone_total_ = 0;
  Publish(std::make_shared<const SegmentChain>(chain_), std::move(delta));
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    if (count_compaction) ++stats_.compactions;
    for (size_t s = 0; s < num_shards_; ++s) {
      if (dirty[s]) ++stats_.shards[s].rebuilds;
    }
    stats_.segments = chain_.size();
    uint64_t bytes = 0;
    for (const SegmentChainEntry& e : chain_) bytes += e.segment->approx_bytes;
    stats_.segment_bytes = bytes;
    stats_.segments_merged += merged_count;
    stats_.last_compact_delta_records = delta_records;
  }
  // The new snapshot is a compaction point — memtables and tombstones
  // are empty — which is the only state a checkpoint is taken in: WAL
  // replay from it through the normal op paths is then deterministic.
  // Suppressed during replay (the WAL being replayed must not be reset
  // under our feet) and while construction runs before the durability
  // layer exists.
  if (wal_ != nullptr && !replaying_) MaybeCheckpointLocked();
}

void SimilarityService::Publish(
    std::shared_ptr<const SegmentChain> chain,
    std::vector<std::shared_ptr<const DeltaShard>> delta) {
  auto snap = std::make_shared<IndexSnapshot>();
  snap->chain = std::move(chain);
  snap->delta = std::move(delta);
  snap->live_records = static_cast<size_t>(next_id_) - deleted_total_;
  snap->pending_tombstones = tombstone_total_;
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  snap->epoch = snapshot_ == nullptr ? 0 : snapshot_->epoch + 1;
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

  // Score the newcomer against the published base statistics, then grow
  // ONLY the routed shard's memtable and republish that one delta image.
  // The segment chain and the other shards' deltas are shared, not
  // copied.
  RecordSet staging;
  staging.Add(record, std::move(text));
  pred_.PrepareIncremental(snap->stats_reference(), &staging);
  const RecordId id = static_cast<RecordId>(next_id_++);
  deleted_.push_back(false);
  const size_t shard = RouteToShard(staging.record(0), shard_bounds_);
  memtables_[shard].Add(staging.record(0), staging.text(0));
  memtable_ids_[shard].push_back(id);
  ++memtable_total_;
  std::vector<std::shared_ptr<const DeltaShard>> delta = snap->delta;
  // The shard's pending tombstones ride on its delta image — republish
  // them with the grown memtable so earlier deletes stay visible.
  delta[shard] = BuildDeltaShard(memtables_[shard], memtable_ids_[shard],
                                 pred_.ShortRecordNormBound(),
                                 tombstones_[shard]);
  Publish(snap->chain, std::move(delta));
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.inserts;
    ++stats_.shards[shard].inserts;
  }
  if (options_.memtable_limit > 0 &&
      memtable_total_ + tombstone_total_ >= options_.memtable_limit) {
    CompactLocked(/*count_compaction=*/true);
  }
  return id;
}

bool SimilarityService::Delete(RecordId id) {
  std::lock_guard<std::mutex> lock(write_mutex_);
  return DeleteLocked(id);
}

bool SimilarityService::DeleteLocked(RecordId id) {
  if (static_cast<uint64_t>(id) >= next_id_ || deleted_[id]) {
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
  deleted_[id] = true;
  ++deleted_total_;
  const size_t shard = RouteOfRecordLocked(id);
  std::vector<RecordId>& ts = tombstones_[shard];
  ts.insert(std::upper_bound(ts.begin(), ts.end(), id), id);
  ++tombstone_total_;
  std::shared_ptr<const IndexSnapshot> snap = snapshot();
  // Republish only the owning shard's delta image with the grown
  // tombstone list; the segment chain and other deltas are shared
  // untouched.
  std::vector<std::shared_ptr<const DeltaShard>> delta = snap->delta;
  delta[shard] = BuildDeltaShard(memtables_[shard], memtable_ids_[shard],
                                 pred_.ShortRecordNormBound(), ts);
  Publish(snap->chain, std::move(delta));
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.deletes;
    ++stats_.shards[shard].deletes;
  }
  if (options_.memtable_limit > 0 &&
      memtable_total_ + tombstone_total_ >= options_.memtable_limit) {
    CompactLocked(/*count_compaction=*/true);
  }
  return true;
}

size_t SimilarityService::RouteOfRecordLocked(RecordId id) const {
  // Membership, not the bounds: a segment reopened under different
  // (non-decreasing) manifest bounds still holds each record in the part
  // it was built into, and the tombstone must land in that shard for
  // probes to drop the record and for compaction to fold it.
  for (size_t s = 0; s < num_shards_; ++s) {
    const std::vector<RecordId>& ids = memtable_ids_[s];
    if (std::binary_search(ids.begin(), ids.end(), id)) return s;
  }
  for (const SegmentChainEntry& entry : chain_) {
    const CorpusSegment& segment = *entry.segment;
    const std::vector<RecordId>& gids = segment.global_ids;
    if (gids.empty() || gids.front() > id || gids.back() < id) continue;
    auto it = std::lower_bound(gids.begin(), gids.end(), id);
    if (it == gids.end() || *it != id) continue;
    const RecordId local = static_cast<RecordId>(it - gids.begin());
    for (size_t s = 0; s < num_shards_; ++s) {
      const std::vector<RecordId>& members = segment.shards[s].member_ids;
      if (std::binary_search(members.begin(), members.end(), local)) {
        return s;
      }
    }
  }
  // Unreachable for live ids: every live record is memtable- or
  // chain-resident.
  SSJOIN_DCHECK(false);
  return 0;
}

void SimilarityService::Compact() {
  std::lock_guard<std::mutex> lock(write_mutex_);
  // An explicit compaction with work pending bumps the epoch, and —
  // unlike the memtable-limit auto-compacts, which replay re-triggers by
  // itself — nothing in the insert/delete stream implies it. Log it
  // BEFORE compacting: if the checkpoint that normally follows fails,
  // replay still reproduces the epoch. (On success the checkpoint resets
  // the WAL and the frame simply vanishes, already covered.)
  if (wal_ != nullptr && !replaying_ && !wal_failed_ &&
      (memtable_total_ > 0 || tombstone_total_ > 0)) {
    Status status = wal_->AppendCompact(wal_next_seq_);
    if (status.ok()) {
      ++wal_next_seq_;
    } else {
      SetDurabilityErrorLocked(std::move(status));
    }
  }
  CompactLocked(/*count_compaction=*/true);
}

std::vector<QueryMatch> SimilarityService::Query(RecordView query,
                                                 std::string text) const {
  Timer timer;
  std::shared_ptr<const IndexSnapshot> snap = snapshot();
  RecordSet staged;
  staged.Add(query, std::move(text));
  pred_.PrepareIncremental(snap->stats_reference(), &staged);

  // One context and one result slot per shard: scheduling cannot change
  // the output or the stats attribution.
  std::vector<QueryContext> contexts(num_shards_);
  std::vector<std::vector<QueryMatch>> parts(num_shards_);
  RunOverShards(num_shards_, [&](size_t s) {
    parts[s] = LookupShard(pred_, options_, *snap, s, staged, 0, &contexts[s]);
  });
  std::vector<QueryMatch> out;
  probe_internal::MergeSortedParts(parts, IdLess, &out);
  uint64_t micros = ElapsedMicros(timer);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.point_queries;
    stats_.results += out.size();
    stats_.EnsureShards(num_shards_);
    for (size_t s = 0; s < num_shards_; ++s) {
      const QueryContext& ctx = contexts[s];
      stats_.merge += ctx.merge;
      for (size_t i = 0; i < ctx.shard_candidates.size(); ++i) {
        stats_.candidates += ctx.shard_candidates[i];
        stats_.shards[i].candidates += ctx.shard_candidates[i];
        stats_.shards[i].results += ctx.shard_results[i];
      }
    }
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
  // output, and per-worker contexts keep the hot path allocation-free.
  std::vector<std::vector<QueryMatch>> results(staged.size());
  std::vector<QueryContext> contexts(
      static_cast<size_t>(pool_->num_threads()));
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    pool_->ParallelFor(
        staged.size(), /*chunk=*/1, [&](size_t begin, size_t end, int worker) {
          for (size_t i = begin; i < end; ++i) {
            results[i] = LookupAllShards(pred_, options_, *snap, staged,
                                         static_cast<RecordId>(i),
                                         &contexts[worker]);
          }
        });
  }
  uint64_t micros = ElapsedMicros(timer);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.batch_queries;
    stats_.batched_records += staged.size();
    stats_.EnsureShards(num_shards_);
    for (const QueryContext& ctx : contexts) {
      stats_.merge += ctx.merge;
      for (size_t i = 0; i < ctx.shard_candidates.size(); ++i) {
        stats_.candidates += ctx.shard_candidates[i];
        stats_.shards[i].candidates += ctx.shard_candidates[i];
        stats_.shards[i].results += ctx.shard_results[i];
      }
    }
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

  std::vector<QueryContext> contexts(num_shards_);
  std::vector<std::vector<QueryMatch>> parts(num_shards_);
  RunOverShards(num_shards_, [&](size_t s) {
    SweepShardOverlaps(*snap, s, probe, &contexts[s], &parts[s]);
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
    stats_.EnsureShards(num_shards_);
    for (size_t s = 0; s < num_shards_; ++s) {
      const QueryContext& ctx = contexts[s];
      stats_.merge += ctx.merge;
      for (size_t i = 0; i < ctx.shard_candidates.size(); ++i) {
        stats_.candidates += ctx.shard_candidates[i];
        stats_.shards[i].candidates += ctx.shard_candidates[i];
      }
    }
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
