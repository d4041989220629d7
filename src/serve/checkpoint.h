#ifndef SSJOIN_SERVE_CHECKPOINT_H_
#define SSJOIN_SERVE_CHECKPOINT_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "serve/snapshot.h"
#include "util/status.h"

namespace ssjoin {

/// Incremental, segment-granular checkpoints of SimilarityService's
/// durable state. A checkpoint is a MANIFEST (checkpoint.ssc) plus one
/// immutable segment file (segment-<id>.sseg) per chain segment:
///
///   * Segment files hold a segment's prepared record arena (full double
///     scores, texts), its global-id table and every shard part's id
///     tables and CSR index. A segment is written ONCE, by the service
///     right after it builds the segment (or, should that write fail, by
///     the next checkpoint), and never rewritten — steady-state
///     checkpoints write at most one new (delta-sized) segment file plus
///     the small manifest, which is what makes checkpointing O(delta)
///     alongside compaction.
///   * The manifest (v5) holds everything that still changes: epoch, WAL
///     fence, shard count and bounds, id counters, and the segment chain
///     as the snapshot holds it — the ordered segment file ids, each with
///     its live count and per-shard dead masks. Nothing else: checkpoints
///     are taken only at compaction points, where every pending tombstone
///     has just folded into a dead mask, so the dead masks are the whole
///     deletion state (an id no segment holds live is simply not live);
///     and even TF-IDF cosine needs no raw records, since its weights
///     depend only on token sets and document frequencies, which the
///     prepared segments hold. v4 manifests, which also stored a per-id
///     deleted bitmap, and older ones are rejected as an unsupported
///     version.
///
/// Both file kinds are CRC32-trailered and written tmp-then-rename, so
/// each is individually whole; the manifest rename is the commit point
/// (it only ever references segment files that were durably renamed
/// before it). Segment files left behind by a crash between segment
/// write and manifest rename — or orphaned by a merge — are garbage-
/// collected: LoadCheckpoint unlinks every segment file the manifest
/// does not reference. See DESIGN.md "Durability & recovery".
///
/// Segment files are v4: every arena the probe path streams (record
/// offsets, token/score CSR arenas, text blob, per-shard posting
/// extents) is written 64-byte-aligned and byte-layout-identical to its
/// in-memory form, so one opener (OpenSegmentFile) maps every file,
/// proves it whole in place and serves the body straight from the page
/// cache (see DESIGN.md "Out-of-core segments").
/// Shard indexes keep full double posting scores: the recovery contract
/// is BYTE-identical query answers, and probe pruning reads posting
/// scores directly.

/// Paths of the durable artifacts inside a service data directory.
std::string CheckpointFilePath(const std::string& data_dir);
std::string WalFilePath(const std::string& data_dir);
std::string SegmentFilePath(const std::string& data_dir, uint64_t segment_id);

/// Segment file ids present in `data_dir` (whether or not the manifest
/// references them). Exposed for the orphan-GC tests.
std::set<uint64_t> ListSegmentFiles(const std::string& data_dir);

/// mkdir -p for `data_dir` (each missing component, 0755).
Status EnsureDataDir(const std::string& data_dir);

/// Whether `data_dir` holds a checkpoint manifest.
bool CheckpointExists(const std::string& data_dir);

/// One checkpoint: the manifest header fields plus the segment chain,
/// exactly as a published IndexSnapshot holds it. SaveCheckpoint shares
/// the snapshot's chain (it never copies the corpus or indexes), and
/// LoadCheckpoint returns a chain the restored service publishes as is.
/// A checkpoint is a compaction point: no memtable records and no
/// pending tombstones, so the chain's dead masks are the whole deletion
/// state.
struct Checkpoint {
  uint64_t epoch = 0;
  /// Last WAL seq this checkpoint covers: replay skips frames at or below
  /// it, so a crash between checkpoint rename and WAL reset never
  /// double-applies an operation.
  uint64_t wal_seq = 0;
  /// Predicate::fingerprint() (name and parameters); Open refuses to
  /// restore under a different one, whose scores, thresholds or short-
  /// record pools would silently disagree with the serialized segments.
  std::string predicate;
  /// Token-range shard count; shard_bounds has num_shards - 1 entries.
  uint64_t num_shards = 0;
  std::vector<TokenId> shard_bounds;
  /// Total record ids ever assigned (the next insert's id).
  uint64_t next_id = 0;
  /// Next segment file id to assign; persisting it keeps ids unique
  /// across restarts so recovered and crashed-over files never collide.
  uint64_t next_segment_id = 0;
  /// The chain, oldest first and never empty. Every entry has num_shards
  /// dead masks (null = none) and its live count.
  std::shared_ptr<const SegmentChain> chain;
};

/// Segment-file garbage-collection outcome (both Save and Load GC
/// unreferenced segment files); failures feed ServiceStats so a disk
/// that silently accretes garbage is visible to operators.
struct GcStats {
  uint64_t unlinked_segments = 0;
  uint64_t unlink_failures = 0;
};

/// Writes `checkpoint` into `data_dir`: first every chain
/// segment file not yet on disk (tracked via `persisted_segments`, which
/// is updated ONLY when the whole checkpoint commits), then the manifest,
/// atomically replacing any previous one (tmp + fsync + rename +
/// directory fsync). After a successful commit, segment files the new
/// manifest no longer references (merged-away segments) are unlinked;
/// a failure at any point leaves the previous checkpoint fully
/// restorable — at worst unreferenced segment files linger until the
/// next GC pass.
Status SaveCheckpoint(const std::string& data_dir,
                      const Checkpoint& checkpoint,
                      std::set<uint64_t>* persisted_segments,
                      GcStats* gc_stats = nullptr);

/// Reads and verifies (magic, version, trailing CRC32, structural
/// bounds) the manifest, opens every segment file it references through
/// OpenSegmentFile, then garbage-collects unreferenced segment files,
/// reporting the outcome in `gc_stats` when given. `count_frequencies`
/// counts each segment's document frequencies
/// (CorpusSegment::frequencies), what a corpus-statistics predicate
/// stages requests against.
Result<Checkpoint> LoadCheckpoint(const std::string& data_dir,
                                  bool count_frequencies = false,
                                  GcStats* gc_stats = nullptr);

/// Writes segment-<id>.sseg (v4, atomic tmp+rename). Exposed so the
/// service can persist every segment it builds and map it straight back
/// before publishing it; SaveCheckpoint skips segments already recorded
/// in `persisted_segments`.
Status WriteSegmentFile(const std::string& data_dir,
                        const CorpusSegment& segment);

/// Opens segment-<id>.sseg as a mapped segment. The file is mapped
/// read-only, its CRC-protected header parsed and its whole-file CRC
/// checked; the tables candidate gating reads (record and text offsets,
/// norms, text lengths, id tables) are validated and copied to the heap;
/// and the body is proven in place: token order and range in every
/// record, extent tables that tile the posting section, strictly
/// increasing in-range posting ids with finite scores, and exact max
/// scores. The arenas and posting extents then serve as views into the
/// mapping. `count_frequencies` also counts the segment's document
/// frequencies. Truncated, foreign or mutated files surface as a Status,
/// and the mapping is never dereferenced past its validated size.
Result<std::shared_ptr<const CorpusSegment>> OpenSegmentFile(
    const std::string& data_dir, uint64_t segment_id, uint64_t num_shards,
    bool count_frequencies = false);

}  // namespace ssjoin

#endif  // SSJOIN_SERVE_CHECKPOINT_H_
