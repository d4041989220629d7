#ifndef SSJOIN_SERVE_SIMILARITY_SERVICE_H_
#define SSJOIN_SERVE_SIMILARITY_SERVICE_H_

#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/merge_opt.h"
#include "core/predicate.h"
#include "data/record_set.h"
#include "data/record_view.h"
#include "serve/checkpoint.h"
#include "serve/service_stats.h"
#include "serve/snapshot.h"
#include "serve/wal.h"
#include "util/function_ref.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace ssjoin {

/// One answer to a similarity lookup: a corpus record id (insertion
/// order: construction corpus first, then Insert() order) and the
/// canonical match amount sum over common tokens of
/// score(w, query) * score(w, match).
struct QueryMatch {
  RecordId id;
  double score;
};

struct ServiceOptions {
  /// Auto-compact when the total memtable (across shards) plus pending
  /// tombstones reaches this many entries; 0 means compaction only happens
  /// through explicit Compact() calls. Each insert republishes only the
  /// routed shard's memtable image, so per-insert work is bounded by that
  /// shard's share. An auto-compaction is logged like an explicit one, so
  /// a durable restart may run with a different value.
  size_t memtable_limit = 256;
  /// Worker threads for BatchQuery fan-out and sharded point-query
  /// fan-out (compaction builds shards serially); <= 0 uses the hardware
  /// default.
  int num_threads = 0;
  /// Token-range shards for the base tier and memtable. Each shard owns a
  /// contiguous token range (records route by their largest token) with
  /// its own memtable, so Compact() rebuilds only shards that received
  /// inserts and probes fan out across shards. 0 or 1 disables sharding.
  /// Query/BatchQuery/QueryTopK answers are byte-identical for every
  /// value — sharding is purely a throughput/compaction-cost knob.
  size_t num_shards = 1;
  /// Size-tiered merge trigger for the segment chain. After a compaction
  /// appends the folded memtable as a new segment, the two newest
  /// segments merge while the older one's live count is at most
  /// `segment_merge_ratio` times the newer one's, cascading — chains stay
  /// logarithmic in corpus size while steady-state compaction stays
  /// O(delta). 0 collapses the whole chain into ONE segment at every
  /// compaction: the pre-segmented reference the differential tests and
  /// benches compare against, whose compaction rewrites the corpus at a
  /// cost linear in its size. Query/BatchQuery/QueryTopK answers are
  /// byte-identical for every value — like num_shards, this is purely a
  /// cost knob.
  size_t segment_merge_ratio = 2;
  /// When non-empty, the service is durable: a checkpoint of the base
  /// tier plus a write-ahead log of every Insert/Delete live under this
  /// directory (created if missing), and every segment serves from its
  /// read-only mapped `.sseg` file, proven whole when it was mapped (the
  /// heap holds only the gating tables: record offsets, norms, text
  /// lengths, id tables and manifest state). The CONSTRUCTOR starts
  /// fresh — it writes an initial checkpoint and an empty WAL, replacing
  /// whatever a previous incarnation left there; use Open() to restore
  /// instead. Durability failures (full disk, permissions) never fail
  /// serving: they latch durability_status() and suspend logging until a
  /// later checkpoint succeeds; a segment whose file cannot be written or
  /// mapped serves from the heap until a later compaction maps it.
  std::string data_dir;
  /// WAL fsync policy; meaningful only with a data_dir. See WalSyncPolicy.
  WalSyncPolicy wal_sync = WalSyncPolicy::kAlways;
  /// Residency advice for a durable service's mapped segments: the
  /// newest segments fitting under the budget are marked MADV_WILLNEED,
  /// the rest MADV_RANDOM + MADV_DONTNEED so the kernel reclaims their
  /// clean pages first. 0 (default) means no cap: every segment is
  /// WILLNEED. Applied after Open and after every compaction.
  /// Query/BatchQuery/QueryTopK answers are byte-identical for every
  /// value. Ignored for memory-only services, whose segments live on the
  /// heap.
  uint64_t resident_budget_bytes = 0;
};

/// A long-lived, thread-safe similarity-lookup service: owns a corpus and
/// answers "which records match this one?" without re-running a batch
/// join. See DESIGN.md "Serving layer" and "Sharded serving".
///
/// Internally LSM-style, sharded by token range and SEGMENT-CHAINED: the
/// compacted tier is a chain of immutable CorpusSegments, each owning its
/// prepared CSR arena and one extent-carved index per token-range shard.
/// Compact() folds the memtable into ONE new delta-sized segment and
/// republishes with every prior segment structurally shared — O(delta),
/// not O(corpus) — while tombstones fold into per-segment dead masks and
/// a size-tiered trigger (ServiceOptions::segment_merge_ratio) merges
/// small segments so chains stay short. Each shard has its own memtable
/// image and tombstone set, so Insert/Delete touch one shard.
/// Corpus-statistics predicates collapse the chain into one segment at
/// every compaction and re-Prepare its survivors — their scores change
/// globally.
///
/// Concurrency model (lock order: write -> batch -> snapshot; stats is a
/// leaf):
///   * readers copy an immutable IndexSnapshot shared_ptr under a brief
///     mutex hold and then touch no shared mutable state — queries never
///     block inserts or compaction, and vice versa;
///   * the published snapshot is the only copy of the serving state (the
///     segment chain with its dead masks, the per-shard memtable images
///     with their tombstones, the live count). Writers (Insert/Delete/
///     Compact) serialize on a write mutex, read the current snapshot,
///     derive the next one off to the side and publish it atomically by
///     swapping the pointer. Beside the WAL, the writer keeps only what
///     no snapshot holds: the id counters, the shard bounds that route
///     new inserts and the set of segment files on disk;
///   * the worker pool is shared (and not reentrant), so batch fan-out
///     and sharded point-query and top-k fan-out serialize on a pool
///     mutex; point queries fall back to a serial shard sweep (same
///     output) when the pool is busy.
///
/// Query answers match a fresh batch self-join over the same records
/// exactly whenever the memtable is empty (always, for predicates with
/// corpus-independent scores). Between compactions, TF-IDF cosine scores
/// new records against the base corpus statistics (frozen IDF) — the
/// standard serving-time approximation, made exact again by Compact().
class SimilarityService {
 public:
  /// Takes ownership of the corpus (prepared internally; the caller need
  /// not call Prepare). `pred` must outlive the service.
  SimilarityService(RecordSet corpus, const Predicate& pred,
                    ServiceOptions options = {});

  /// Restores a durable service from `options.data_dir`: loads the last
  /// checkpoint, replays the intact WAL tail through the normal
  /// Insert/Delete/Compact paths (a torn final record is dropped by CRC),
  /// and resumes at the exact pre-crash epoch with byte-identical query
  /// answers. Every compaction with work pending, explicit or triggered
  /// by memtable_limit, logged a marker first, and replay compacts at
  /// those markers only, so the restored state does not depend on the
  /// restart's memtable_limit. `pred` must be the predicate the
  /// checkpoint was written under, with the same parameters
  /// (Predicate::fingerprint(); FailedPrecondition otherwise); num_shards
  /// is taken from the checkpoint. `pred` must outlive the service.
  static Result<std::unique_ptr<SimilarityService>> Open(
      const Predicate& pred, ServiceOptions options);

  SimilarityService(const SimilarityService&) = delete;
  SimilarityService& operator=(const SimilarityService&) = delete;

  /// All corpus records matching `query` under the predicate, in
  /// increasing id order. `text` is kept for text-based verification
  /// (edit distance); pass {} otherwise.
  std::vector<QueryMatch> Query(RecordView query,
                                std::string text = {}) const;

  /// One result list per query record, results[i] answering
  /// queries.record(i); identical to calling Query per record (including
  /// order) but fanned out over the worker pool. Concurrent BatchQuery
  /// calls serialize on the pool.
  std::vector<std::vector<QueryMatch>> BatchQuery(
      const RecordSet& queries) const;

  /// The k corpus records with the largest match amount against `query`
  /// (ties broken by increasing id), ranked WITHOUT the predicate's
  /// threshold — like TopKJoin, only records sharing at least one token
  /// can appear. Short-record fallback pairs (edit distance) are not
  /// ranked.
  std::vector<QueryMatch> QueryTopK(RecordView query, size_t k,
                                    std::string text = {}) const;

  /// Adds a record to the corpus; visible to every query issued after
  /// return. Returns its corpus id. May trigger a compaction
  /// (ServiceOptions::memtable_limit). Token-less (empty) records are
  /// legal and route deterministically to shard 0.
  RecordId Insert(RecordView record, std::string text = {});

  /// Retracts record `id`: an LSM-style tombstone is recorded in the
  /// token-range shard whose tier holds the record and published with
  /// that shard's delta image, so the record is hidden
  /// from Query/BatchQuery/QueryTopK answers issued after return —
  /// whether it lives in the base tier or is still memtable-resident.
  /// The record's bytes are dropped physically at the next compaction of
  /// the shard; its id is never reused (re-inserting the same content
  /// yields a fresh id). Returns false (and counts a delete_miss) for an
  /// id the snapshot does not hold live (IndexSnapshot::LiveShardOf):
  /// never assigned, already deleted, or dropped by a compaction. May
  /// trigger a compaction — pending tombstones count toward
  /// ServiceOptions::memtable_limit.
  bool Delete(RecordId id);

  /// Folds the memtables into the base shards, drops tombstoned members,
  /// and empties both. Only dirty shards — non-empty memtable OR
  /// non-empty tombstone set — are rebuilt (all shards, when the
  /// predicate's scores depend on corpus statistics: the chain collapses
  /// and its re-Prepare recomputes them over the SURVIVING records only,
  /// so post-compaction answers coincide with a fresh batch self-join
  /// over the survivors).
  /// A call with nothing pending is a no-op that rebuilds no shard.
  /// Queries keep running against the previous snapshot until the new
  /// one is published.
  void Compact();

  /// Live records (base + memtable survivors) in the current snapshot.
  size_t size() const { return snapshot()->size(); }
  /// Records awaiting compaction in the current snapshot (all shards),
  /// including memtable records already tombstoned.
  size_t memtable_size() const { return snapshot()->delta_size(); }
  /// Tombstones awaiting physical drop in the current snapshot.
  size_t tombstone_count() const { return snapshot()->pending_tombstones; }
  /// Publication count: bumps on every insert, delete and (non-no-op)
  /// compaction.
  uint64_t epoch() const { return snapshot()->epoch; }
  /// Token-range shard count (fixed at construction).
  size_t num_shards() const { return num_shards_; }
  /// Whether this service was given a data_dir.
  bool durable() const { return wal_ != nullptr; }
  /// OK while every acknowledged op is covered by the WAL or a
  /// checkpoint. Latches the first WAL-append or checkpoint failure
  /// (serving continues memory-only, logging suspended — a torn frame
  /// must not get frames appended behind it); a later successful
  /// checkpoint covers the gap and clears the error.
  Status durability_status() const;

  /// Sequence number the next WAL frame would carry (1 on a fresh log);
  /// `wal_sequence() - 1` is the last durable operation. Meaningful only
  /// for durable services; graceful shutdown logs it so operators can
  /// line a restart up against the WAL tail. 0 when not durable.
  uint64_t wal_sequence();

  /// Re-applies the residency-budget madvise policy over the mapped
  /// chain (over-budget segments drop their clean pages; they reload
  /// from disk on the next fault). A no-op for memory-only services.
  /// Exposed so benchmarks can measure the post-advice RSS floor.
  void ApplyResidencyAdvice();

  /// Copy of the aggregate serving counters.
  ServiceStats stats() const;
  /// Counters, latency quantiles and snapshot shape as a JSON object.
  std::string StatsJson() const;

  /// The current immutable view; hold the pointer to pin an epoch.
  std::shared_ptr<const IndexSnapshot> snapshot() const;

 private:
  /// Restore path: publishes the loaded checkpoint's chain at its
  /// recorded epoch, then replays `tail`.
  SimilarityService(Checkpoint checkpoint, const GcStats& load_gc,
                    std::vector<WalRecord> tail, WriteAheadLog wal,
                    const Predicate& pred, ServiceOptions options);

  /// Insert/Delete bodies; write_mutex_ must be held (WAL replay runs
  /// them under the constructor's hold).
  RecordId InsertLocked(RecordView record, std::string text);
  bool DeleteLocked(RecordId id);
  /// Logs a kCompact marker (durable services, outside replay, when work
  /// is pending), then folds the current snapshot's delta images into the
  /// chain and publishes the result. Nothing pending: a counted no-op.
  void CompactLocked();
  /// The memtable_limit trigger after a write: compacts through
  /// CompactLocked, so the marker is logged like an explicit Compact().
  /// Never fires during replay, which compacts only at markers.
  void MaybeAutoCompactLocked();
  /// Appends a clean segment over already-prepared `records` (global ids
  /// strictly increasing, above every id already in `chain`).
  void AppendSegmentLocked(SegmentChain* chain, RecordSet records,
                           std::vector<RecordId> global_ids);
  /// Publishes `chain` as a compaction point — delta images empty, the
  /// shards marked `dirty` counted as rebuilt. A durable service first
  /// writes and maps every segment not yet mapped, and checkpoints the
  /// published chain (construction, replay and compaction alike).
  void FinishCompactionLocked(SegmentChain chain,
                              const std::vector<bool>& dirty,
                              uint64_t merged_count, uint64_t delta_records,
                              bool count_compaction);

  /// Fresh-construction durability setup, before segment 0 exists: data
  /// dir and empty WAL (the first compaction point writes the initial
  /// checkpoint). Failures latch durability_status().
  void InitDurabilityLocked();
  /// Re-applies the residency-budget madvise policy over the mapped
  /// segments of `chain`, newest first: segments accumulating under the
  /// budget (all of them when it is 0) get MADV_WILLNEED, the rest
  /// MADV_RANDOM + MADV_DONTNEED. Also refreshes the
  /// mapped_segments/mapped_bytes gauges.
  void ApplyResidencyAdviceLocked(const SegmentChain& chain);
  /// Serializes the just-published compaction point (write_mutex_ held).
  Status SaveCheckpointLocked();
  /// Checkpoint + WAL truncation after a published compaction; success
  /// clears a latched durability error, failure latches one.
  void MaybeCheckpointLocked();
  void SetDurabilityErrorLocked(Status status);
  /// Swaps in `next` (write_mutex_ held): at the epoch after the current
  /// snapshot's, or, with `bump_epoch` false, at the epoch `next` carries
  /// (the restore).
  void Publish(IndexSnapshot next, bool bump_epoch = true);
  /// Runs fn(shard) for every shard — on the worker pool when it is free
  /// and the fan-out is worth it, serially otherwise. Output written to
  /// per-shard slots is deterministic either way.
  void RunOverShards(size_t num_shards, FunctionRef<void(size_t)> fn) const;

  const Predicate& pred_;
  const ServiceOptions options_;
  const size_t num_shards_;
  std::unique_ptr<ThreadPool> pool_;

  // Writer state, guarded by write_mutex_: only what no snapshot holds.
  // The chain, the memtables (delta images), the tombstones and the live
  // count live in the published snapshot alone; Insert, Delete and
  // Compact read it and publish the next one.
  std::mutex write_mutex_;
  uint64_t next_id_ = 0;  // ids ever assigned (never reused)
  std::vector<TokenId> shard_bounds_;  // routes new inserts only
  uint64_t next_segment_id_ = 0;
  std::set<uint64_t> persisted_segments_;  // segment files on disk

  // Durability state, guarded by write_mutex_ (except durability_status_,
  // which readers poll through its own leaf mutex). wal_ is null for
  // memory-only services.
  std::unique_ptr<WriteAheadLog> wal_;
  uint64_t wal_next_seq_ = 1;
  bool replaying_ = false;   // suppress logging/checkpoints during replay
  bool wal_failed_ = false;  // latched on append failure, cleared by
                             // the next successful checkpoint

  mutable std::mutex durability_mutex_;
  Status durability_status_;

  mutable std::mutex snapshot_mutex_;
  std::shared_ptr<const IndexSnapshot> snapshot_;

  mutable std::mutex stats_mutex_;
  mutable ServiceStats stats_;

  mutable std::mutex pool_mutex_;  // ParallelFor is not reentrant
};

}  // namespace ssjoin

#endif  // SSJOIN_SERVE_SIMILARITY_SERVICE_H_
