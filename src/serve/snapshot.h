#ifndef SSJOIN_SERVE_SNAPSHOT_H_
#define SSJOIN_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "data/record_set.h"
#include "data/record_view.h"
#include "index/dynamic_index.h"
#include "index/inverted_index.h"
#include "util/mmap_file.h"

namespace ssjoin {

class Predicate;

/// One token-range shard's slice of ONE corpus segment: the segment
/// members whose routing token falls in the shard's range, under
/// part-local ids. The index is a complete CSR inverted index over just
/// these members, carved by InvertedIndex::PlanFromRecordsSubset, and a
/// shard probe merges each segment's part on its own: a candidate lives
/// in exactly one segment, so its overlap only ever adds up from that
/// segment's posting lists.
struct SegmentShardPart {
  /// Segment-local positions of the part's members in the owning
  /// segment's records arena, strictly increasing. The index speaks
  /// PART-local ids (positions in this vector); a member's corpus id is
  /// the segment's global_ids entry at its position.
  std::vector<RecordId> member_ids;
  /// Flat CSR index over the part members under part-local ids.
  InvertedIndex index;
  /// Part-local ids of members with norm below the predicate's
  /// ShortRecordNormBound (the edit-distance brute-force side pool).
  std::vector<RecordId> short_ids;
};

/// One immutable link of the serving tier's segment chain: a prepared
/// CSR record arena covering one compaction delta (or a merge of
/// several), its global-id table, and one SegmentShardPart per
/// token-range shard. Segments are built once, shared by shared_ptr
/// across every later snapshot, and never mutated — compaction APPENDS a
/// new segment instead of rewriting the corpus, which is what makes
/// steady-state compaction O(delta). Deletes are masked per chain entry
/// (SegmentChainEntry::dead), not carved out of the segment.
struct CorpusSegment {
  /// Durable identity: names the on-disk segment-<id>.sseg file and is
  /// unique across the lifetime of a service data directory.
  uint64_t id = 0;
  /// The prepared records (scores installed, texts retained). Shared so
  /// snapshots and checkpoints alias it.
  std::shared_ptr<const RecordSet> records;  // never null
  /// Global corpus id per segment-local position, strictly increasing.
  /// Chain invariant: segments hold DISJOINT, increasing global-id
  /// ranges (a folded memtable's ids exceed every already-folded id, and
  /// merges only coalesce adjacent segments), so gid -> segment is a
  /// range binary search.
  std::vector<RecordId> global_ids;
  /// One part per token-range shard (size = the service's shard count).
  std::vector<SegmentShardPart> shards;
  /// Document frequencies over `records`, counted once when the segment
  /// is built or reopened, and only for corpus-statistics predicates
  /// (TF-IDF cosine), whose chain is always this one segment; empty
  /// otherwise. Immutable like the rest of the segment, so every request
  /// reads it in place (IndexSnapshot::stats_reference).
  DocumentFrequencies frequencies;
  /// Approximate in-memory bytes (arena + postings), computed at build
  /// time so stats never rescan the chain. For a mapped segment this
  /// counts only the heap-resident tables — the mapped body is page
  /// cache, accounted by mapped_bytes instead.
  uint64_t approx_bytes = 0;
  /// Non-null iff this segment serves from its mapped `.sseg` body:
  /// records/shard indexes are views into this mapping, and the
  /// residency-budget policy issues madvise hints through it. Every
  /// segment a durable service publishes is mapped, except one whose
  /// write or map failed (it serves from the heap until the next
  /// compaction retries); memory-only services leave it null.
  std::shared_ptr<const MappedFile> mapping;
  /// Size of the mapped file (0 when mapping is null).
  uint64_t mapped_bytes = 0;
};

/// One link of the segment chain: the shared segment, its per-shard
/// copy-on-write dead masks (sorted part-local ids of members deleted
/// after the segment was built; null when none) and the surviving-member
/// count that drives the merge policy. Masked members keep their
/// postings until a merge drops them physically, so every probe drops
/// them before verification.
struct SegmentChainEntry {
  std::shared_ptr<const CorpusSegment> segment;
  std::vector<std::shared_ptr<const std::vector<RecordId>>> dead;  // per shard
  size_t live = 0;
};
using SegmentChain = std::vector<SegmentChainEntry>;

/// Where a corpus id sits in a segment chain: the chain entry whose
/// segment holds it, the shard part it was built into, and its part-local
/// id (the id its postings and dead mask speak).
struct ChainPosition {
  size_t entry = 0;
  size_t shard = 0;
  RecordId part_local = 0;
};

/// Finds `id` among the chain's segments by membership (segments hold
/// disjoint gid ranges; the part is the one listing the record), whether
/// or not a dead mask covers it. nullopt when no segment holds it.
std::optional<ChainPosition> LocateInChain(const SegmentChain& chain,
                                           RecordId id);

/// One shard's memtable: records inserted since the last compaction whose
/// routing token landed in this shard, scored against the base corpus
/// statistics (PrepareIncremental) and indexed in a DynamicIndex under
/// local ids, plus the shard's pending tombstones. This image IS the
/// memtable — the writer keeps no other copy. Insert and Delete build a
/// grown copy of the routed shard's image and publish it in the next
/// snapshot; other shards' images are shared untouched, so per-write work
/// is O(this shard's memtable), not O(total memtable). Compact() reads
/// every image to fold it into the chain.
struct DeltaShard {
  RecordSet records;                 // prepared, with texts
  std::vector<RecordId> global_ids;  // local -> global corpus id, increasing
  DynamicIndex index;                // local ids; tombstoned locals skipped
  std::vector<RecordId> short_ids;   // local ids; tombstoned locals skipped
  /// Global ids tombstoned in this shard since its last compaction,
  /// sorted increasing. Covers both base members (filtered at probe time
  /// against this list) and memtable residents (never indexed above).
  /// Published with the delta image so a Delete is visible to every query
  /// issued after it returns; Compact() folds the ids into the owning
  /// segments' dead masks and empties the list.
  std::vector<RecordId> tombstones;
};

/// One epoch's immutable view of the service corpus: the segment chain
/// as of the last compaction, one delta shard per token range, and the
/// epoch number. The current snapshot is the only copy of the serving
/// state. Readers copy the owning shared_ptr under the service's
/// snapshot mutex and then run entirely lock-free; writers read it and
/// publish a NEW snapshot instead of ever mutating one, so a query keeps
/// a consistent view for as long as it holds the pointer, across any
/// number of concurrent inserts and compactions.
struct IndexSnapshot {
  /// The segment chain, oldest first; never empty (construction folds
  /// the initial corpus into segment 0, possibly zero-record). Inserts
  /// and deletes republish the same chain; only compactions replace it.
  std::shared_ptr<const SegmentChain> chain;
  std::vector<std::shared_ptr<const DeltaShard>> delta;  // per shard
  uint64_t epoch = 0;
  /// Surviving (non-deleted) records visible to queries, base + delta: a
  /// published count, set at every compaction point to the chain's live
  /// total and moved by one per insert and per successful delete.
  size_t live_records = 0;
  /// Tombstones awaiting their fold into segment dead masks.
  size_t pending_tombstones = 0;

  size_t num_shards() const { return delta.size(); }

  /// The shard holding `id` as a live record, or nullopt when `id` is not
  /// live (never assigned, already deleted, or dropped by a compaction).
  /// An id is live when a delta image holds it and that image's
  /// tombstones do not list it, or when a segment part holds it, the
  /// part's dead mask does not list it and no pending tombstone names
  /// it. Membership, never routing, so manifest bounds only steer new
  /// inserts.
  std::optional<size_t> LiveShardOf(RecordId id) const;

  /// Writes a compaction would fold: memtable records (tombstoned ones
  /// included) plus pending tombstones. Zero exactly at a compaction
  /// point.
  size_t pending_writes() const { return delta_size() + pending_tombstones; }

  /// The statistics reference for PrepareIncremental staging: the front
  /// segment's document frequencies, counted when that segment was built
  /// (construction or compaction) or reopened and published with it, so
  /// concurrent readers share one immutable table and no request counts
  /// or copies one. Corpus-statistics predicates (TF-IDF cosine) collapse
  /// the chain at every compaction, so their chain has exactly one
  /// segment and this covers the whole prepared corpus. Every other
  /// predicate ignores the reference, and its segments leave it empty.
  const DocumentFrequencies& stats_reference() const {
    return chain->front().segment->frequencies;
  }

  /// Backing-arena records across the chain; >= live base records
  /// (masked-dead members linger in their segment until a merge).
  size_t base_size() const {
    size_t n = 0;
    for (const SegmentChainEntry& entry : *chain) {
      n += entry.segment->records->size();
    }
    return n;
  }
  /// Memtable records awaiting compaction (tombstoned ones included —
  /// they still occupy memtable slots until folded away).
  size_t delta_size() const {
    size_t n = 0;
    for (const std::shared_ptr<const DeltaShard>& d : delta) {
      n += d->records.size();
    }
    return n;
  }
  /// Records a query can answer with: live base + live delta records.
  size_t size() const { return live_records; }
};

/// Carves the vocabulary into `num_shards` contiguous token ranges
/// balanced by the given per-token mass, returning the num_shards - 1
/// exclusive upper bounds. Tokens beyond the planning vocabulary fall
/// into the last shard. Empty for num_shards <= 1.
std::vector<TokenId> ComputeShardBounds(const std::vector<uint64_t>& mass,
                                        size_t num_shards);

/// Per-token routing mass of a record set: each record contributes its
/// token count at its routing token (see RouteToShard). Feeding this to
/// ComputeShardBounds balances the indexed posting volume across shards.
/// (Balancing on raw document frequencies would not: the routing token is
/// one specific token per record, so the bounds must weigh the mass where
/// records actually land.)
std::vector<uint64_t> RoutingMassHistogram(const RecordSet& records);

/// The routing rule: a record belongs to the shard whose token range
/// contains its LARGEST token (tokens are strictly increasing within a
/// record, so that is the last one). With frequency-ordered token ids the
/// maximum is a record's rarest token, which spreads records far more
/// evenly than the minimum — the min is almost always a stopword-like
/// token near id 0, which would funnel the whole corpus into one shard.
/// Empty records go to shard 0. Any deterministic key preserves
/// correctness; the choice only affects balance.
size_t RouteToShard(RecordView record, const std::vector<TokenId>& bounds);

/// Approximate in-memory bytes of a fully built segment: the record
/// arena, id tables and per-shard postings. Used by BuildCorpusSegment
/// and the checkpoint loader to fill CorpusSegment::approx_bytes.
uint64_t ComputeSegmentApproxBytes(const CorpusSegment& segment);

/// Builds one immutable segment over already-prepared `records`: routes
/// every record to its token-range shard and builds each shard's part
/// (extent-carved CSR index under part-local ids plus the short-record
/// pool of `pred`'s ShortRecordNormBound), and counts the segment's
/// document frequencies when `pred` reads corpus statistics.
/// `global_ids` is the per-position corpus id table, strictly
/// increasing. Preparation is NOT run here — the service prepares
/// records before folding them, so corpus-statistics weights are
/// identical across shard counts AND across segmentations.
std::shared_ptr<const CorpusSegment> BuildCorpusSegment(
    uint64_t id, RecordSet records, std::vector<RecordId> global_ids,
    const std::vector<TokenId>& shard_bounds, size_t num_shards,
    const Predicate& pred);

/// Builds one shard's delta image over already-prepared memtable records.
/// `short_norm_bound` is the predicate's ShortRecordNormBound (0 for
/// predicates without a short-record fallback). `tombstones` (sorted
/// global ids) is copied into the image; memtable records whose global id
/// is tombstoned are physically excluded from the index and short pool —
/// only their record slots remain until compaction.
std::shared_ptr<const DeltaShard> BuildDeltaShard(
    RecordSet records, std::vector<RecordId> global_ids,
    double short_norm_bound, std::vector<RecordId> tombstones);

}  // namespace ssjoin

#endif  // SSJOIN_SERVE_SNAPSHOT_H_
