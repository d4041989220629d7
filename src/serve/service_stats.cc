#include "serve/service_stats.h"

#include <bit>
#include <cmath>
#include <cstdio>

namespace ssjoin {

void LatencyHistogram::Record(uint64_t micros) {
  // Sub-microsecond samples truncate to 0 and must land in bucket 0
  // explicitly: a query can finish in 0 ticks of the microsecond clock,
  // and the bit-scan intrinsics behind ad-hoc log2 implementations
  // (__builtin_clzll) are undefined at 0, so never feed 0 to one.
  // std::bit_width(0) is well-defined (0), but the guard keeps the
  // invariant independent of the bucket-index formula.
  size_t bucket =
      micros == 0 ? 0 : static_cast<size_t>(std::bit_width(micros));
  if (bucket >= kBuckets) bucket = kBuckets - 1;
  ++buckets_[bucket];
  ++count_;
  if (micros > max_micros_) max_micros_ = micros;
}

uint64_t LatencyHistogram::QuantileUpperBound(double q) const {
  // A histogram with no samples (or only zero-microsecond samples) must
  // summarize to 0 for every quantile — never a bucket midpoint or the
  // uninitialized-max garbage a rank walk over empty buckets would
  // produce. The clamps also normalize NaN to 0 (NaN fails `q >= 0`).
  if (count_ == 0) return 0;
  if (!(q >= 0)) q = 0;
  if (q > 1) q = 1;
  // Rank of the requested quantile, 1-based and rounded UP (the nearest-
  // rank definition): p99 of a handful of samples reports the worst one
  // instead of silently dropping to the median.
  uint64_t rank =
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_)));
  if (rank < 1) rank = 1;
  if (rank > count_) rank = count_;
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      // Bucket i holds values with bit_width == i, i.e. <= 2^i - 1.
      uint64_t upper = i == 0 ? 0 : (uint64_t{1} << i) - 1;
      return upper < max_micros_ ? upper : max_micros_;
    }
  }
  return max_micros_;
}

namespace {

void AppendField(std::string* out, const char* key, uint64_t value,
                 bool trailing_comma = true) {
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "\"%s\": %llu%s", key,
                static_cast<unsigned long long>(value),
                trailing_comma ? ", " : "");
  out->append(buffer);
}

}  // namespace

std::string NetStats::ToJson() const {
  std::string out = "{";
  AppendField(&out, "connections_accepted", connections_accepted);
  AppendField(&out, "active_connections", active_connections);
  AppendField(&out, "requests", requests);
  AppendField(&out, "protocol_errors", protocol_errors);
  AppendField(&out, "idle_closes", idle_closes);
  AppendField(&out, "bytes_read", bytes_read);
  AppendField(&out, "bytes_written", bytes_written, /*trailing_comma=*/false);
  out += "}";
  return out;
}

std::string AppendNetSection(std::string stats_json, const NetStats& net) {
  // ServiceStats::ToJson always ends in "}"; splice before it.
  if (stats_json.empty() || stats_json.back() != '}') return stats_json;
  stats_json.pop_back();
  stats_json += ", \"net\": ";
  stats_json += net.ToJson();
  stats_json += "}";
  return stats_json;
}

std::string ServiceStats::ToJson() const {
  std::string out = "{";
  AppendField(&out, "point_queries", point_queries);
  AppendField(&out, "batch_queries", batch_queries);
  AppendField(&out, "batched_records", batched_records);
  AppendField(&out, "topk_queries", topk_queries);
  AppendField(&out, "inserts", inserts);
  AppendField(&out, "deletes", deletes);
  AppendField(&out, "delete_misses", delete_misses);
  AppendField(&out, "compactions", compactions);
  AppendField(&out, "candidates", candidates);
  AppendField(&out, "results", results);
  AppendField(&out, "segments", segments);
  AppendField(&out, "segment_bytes", segment_bytes);
  AppendField(&out, "segments_merged", segments_merged);
  AppendField(&out, "last_compact_delta_records", last_compact_delta_records);
  AppendField(&out, "mapped_segments", mapped_segments);
  AppendField(&out, "mapped_bytes", mapped_bytes);
  AppendField(&out, "gc_unlinked_segments", gc_unlinked_segments);
  AppendField(&out, "gc_unlink_failures", gc_unlink_failures);
  AppendField(&out, "merges", merge.merges);
  AppendField(&out, "heap_pops", merge.heap_pops);
  AppendField(&out, "gallop_probes", merge.gallop_probes);
  out += "\"shards\": [";
  for (size_t s = 0; s < shards.size(); ++s) {
    out += "{";
    AppendField(&out, "inserts", shards[s].inserts);
    AppendField(&out, "deletes", shards[s].deletes);
    AppendField(&out, "candidates", shards[s].candidates);
    AppendField(&out, "results", shards[s].results);
    AppendField(&out, "rebuilds", shards[s].rebuilds,
                /*trailing_comma=*/false);
    out += s + 1 < shards.size() ? "}, " : "}";
  }
  out += "], ";
  out += "\"query_latency_us\": {";
  AppendField(&out, "count", query_latency_us.count());
  AppendField(&out, "p50", query_latency_us.QuantileUpperBound(0.5));
  AppendField(&out, "p90", query_latency_us.QuantileUpperBound(0.9));
  AppendField(&out, "p99", query_latency_us.QuantileUpperBound(0.99));
  AppendField(&out, "max", query_latency_us.max_micros(),
              /*trailing_comma=*/false);
  out += "}, \"batch_latency_us\": {";
  AppendField(&out, "count", batch_latency_us.count());
  AppendField(&out, "p50", batch_latency_us.QuantileUpperBound(0.5));
  AppendField(&out, "p99", batch_latency_us.QuantileUpperBound(0.99));
  AppendField(&out, "max", batch_latency_us.max_micros(),
              /*trailing_comma=*/false);
  out += "}}";
  return out;
}

}  // namespace ssjoin
