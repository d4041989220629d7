#ifndef SSJOIN_SERVE_SERVICE_STATS_H_
#define SSJOIN_SERVE_SERVICE_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/merge_opt.h"

namespace ssjoin {

/// Fixed-footprint latency histogram over power-of-two microsecond
/// buckets: bucket i holds samples in [2^(i-1), 2^i). Coarse by design —
/// quantiles answer "what order of magnitude is p99" for the serving
/// dashboards, not microbenchmark questions. Plain copyable value; the
/// service snapshots it under its stats mutex.
class LatencyHistogram {
 public:
  void Record(uint64_t micros);

  uint64_t count() const { return count_; }
  uint64_t max_micros() const { return max_micros_; }

  /// Upper bound (in microseconds) of the bucket containing quantile
  /// q in [0, 1], clamped to the largest sample seen. 0 when empty.
  uint64_t QuantileUpperBound(double q) const;

 private:
  // 2^39 us ≈ 6.4 days: any conceivable single-query latency fits.
  static constexpr size_t kBuckets = 40;
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  uint64_t max_micros_ = 0;
};

/// Per-shard serving counters: one entry per token-range shard of the
/// sharded base tier. Probe work attribution shows hot shards (skewed
/// token ranges); rebuilds show how much of each compaction was
/// incremental (dirty shards only) versus a full rebuild.
struct ShardStats {
  uint64_t inserts = 0;     // memtable inserts routed to this shard
  uint64_t deletes = 0;     // tombstones routed to this shard
  uint64_t candidates = 0;  // merge candidates from this shard's tiers
  uint64_t results = 0;     // verified matches this shard contributed
  uint64_t rebuilds = 0;    // base rebuilds (initial build + dirty compactions)
};

/// Network front-end counters, maintained by net::SimilarityServer and
/// spliced into the stats JSON as a "net" object so `stats` over the
/// wire reports the front door next to the service it fronts. A plain
/// value: the server snapshots its atomics into one of these.
struct NetStats {
  uint64_t connections_accepted = 0;  // lifetime accepts
  uint64_t active_connections = 0;    // gauge: currently-open sockets
  uint64_t requests = 0;              // complete requests parsed
  uint64_t protocol_errors = 0;       // malformed/oversized frames
  uint64_t idle_closes = 0;           // connections reaped by idle timeout
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;

  /// The counters as one JSON object, e.g. {"connections_accepted": 3, ...}.
  std::string ToJson() const;
};

/// Splices `net` into a ServiceStats::ToJson() string as a trailing
/// "net" member, keeping the service's own formatter net-agnostic.
std::string AppendNetSection(std::string stats_json, const NetStats& net);

/// Aggregate serving counters, recorded per query/insert/compaction by
/// SimilarityService. A plain value: stats() hands out a copy, so readers
/// never hold the service's stats lock while formatting.
struct ServiceStats {
  uint64_t point_queries = 0;   // Query() calls
  uint64_t batch_queries = 0;   // BatchQuery() calls
  uint64_t batched_records = 0; // records across all batches
  uint64_t topk_queries = 0;    // QueryTopK() calls
  uint64_t inserts = 0;
  uint64_t deletes = 0;         // successful tombstoned deletes
  uint64_t delete_misses = 0;   // Delete() of unknown or already-deleted ids
  uint64_t compactions = 0;     // explicit + memtable-limit triggered
  uint64_t candidates = 0;      // merge candidates reaching verification
  uint64_t results = 0;         // matches returned to callers

  /// Segment-chain observability. `segments` and `segment_bytes` are
  /// gauges (the published chain as of the last compaction);
  /// `segments_merged` counts segments retired by LSM-style merges over
  /// the service lifetime; `last_compact_delta_records` is the memtable +
  /// tombstone volume the last non-no-op compaction folded — the "delta"
  /// that O(delta) compaction cost is proportional to.
  uint64_t segments = 0;
  uint64_t segment_bytes = 0;
  uint64_t segments_merged = 0;
  uint64_t last_compact_delta_records = 0;

  /// Segment files. `mapped_segments`/`mapped_bytes` are gauges: chain
  /// segments currently served from mmap'd `.sseg` bodies (every segment
  /// of a durable service, unless its write or map failed) and the file
  /// bytes behind them (page cache, not heap — segment_bytes counts only
  /// heap-resident tables). The GC counters accumulate
  /// over the service lifetime; a nonzero `gc_unlink_failures` means the
  /// data directory is accreting dead segment files and needs operator
  /// attention.
  uint64_t mapped_segments = 0;
  uint64_t mapped_bytes = 0;
  uint64_t gc_unlinked_segments = 0;
  uint64_t gc_unlink_failures = 0;
  MergeStats merge;             // the underlying ListMerger instrumentation

  /// Per-shard counters, indexed by shard; sized by EnsureShards.
  std::vector<ShardStats> shards;
  void EnsureShards(size_t num_shards) {
    if (shards.size() < num_shards) shards.resize(num_shards);
  }

  /// Per point/top-k query wall time.
  LatencyHistogram query_latency_us;
  /// Per BatchQuery() call wall time (whole batch).
  LatencyHistogram batch_latency_us;

  /// The counters and latency quantiles as one flat JSON object.
  std::string ToJson() const;
};

}  // namespace ssjoin

#endif  // SSJOIN_SERVE_SERVICE_STATS_H_
