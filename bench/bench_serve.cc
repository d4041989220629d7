// Serving-layer benchmark: point-lookup QPS and latency quantiles as a
// function of memtable size, plus batched-query throughput, plus the
// shard-count sweep for the token-range-sharded base tier.
//
// The interesting trade-off is the two-tier design: every probe pays for
// the flat base index AND the hash-map memtable, so lookups slow down as
// the memtable grows and recover after compaction. This bench sweeps the
// memtable fill level on a fixed corpus and reports, per level:
//   - point-query QPS and p50/p99/max latency (from ServiceStats)
//   - batched-query records/sec with the service thread pool
//   - the compaction cost to fold that memtable back into the base
//
// The second sweep varies the shard count (answers are byte-identical;
// sharding buys incremental compaction and probe fan-out) and reports,
// per count:
//   - point and batch throughput
//   - full-compaction cost (every shard dirty after a spread of inserts)
//   - dirty-compaction cost (ONE insert, then Compact: only one shard
//     rebuilds) and how many shards that compaction actually rebuilt
//
// The third sweep varies the DELETE rate: with a fixed fraction of the
// corpus tombstoned (pending, uncompacted), point lookups pay the
// per-candidate tombstone check, and the following compaction pays the
// physical drop. Reported per rate: point QPS with tombstones pending,
// the delete throughput itself, and the compaction cost.
//
// The fourth sweep prices durability: insert throughput with every op
// framed into the write-ahead log (both fsync policies) against the
// memory-only baseline, the compaction cost including the checkpoint it
// now writes, the checkpoint size, and the Open() restore time
// (checkpoint load + WAL-tail replay).
//
// The fifth sweep is the segmented-compaction scaling claim: a fixed
// 1k-record delta folded into corpora of increasing size, with the
// segment chain (default merge ratio) against the collapse-every-time
// baseline (segment_merge_ratio = 0, the pre-segmented behaviour).
// Steady-state segmented compaction must stay ~flat in the corpus size
// — it builds one delta-sized segment and occasionally merges
// delta-scale neighbours — while the baseline rewrites the whole corpus
// every round. Point lookups then run against both chains, interleaved
// and best of three per leg; the sweep ABORTS if the two legs disagree
// on a single result count.
//
// The sixth sweep prices the residency budget: the same durable corpus,
// whose segments are always served from their mmap'd .sseg files and
// proven whole at Open, opened with no cap (resident_budget_bytes = 0,
// every segment advised WILLNEED) and under a budget a quarter of the
// segment file bytes (the older segments advised RANDOM + DONTNEED).
// Reported per leg: Open time, point QPS, RSS after the query replay and
// after re-applying the residency advice. The sweep ABORTS if a leg
// leaves a segment unmapped, if the two legs disagree on a single result
// count, or if dropping the over-budget segments does not actually
// shrink RSS.
//
// Usage: bench_serve [--scale=F | --quick] [--threads=N]

#include <sys/stat.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdlib>
#include <fstream>
#include <memory>

#include "bench_util.h"
#include "core/jaccard_predicate.h"
#include "serve/checkpoint.h"
#include "serve/similarity_service.h"

using namespace ssjoin;
using namespace ssjoin::bench;

namespace {

/// Resident set size from /proc/self/status, in kilobytes.
uint64_t ResidentKb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

/// Deletes a data dir the bench wrote: its segment files, manifest and
/// WAL, then the directory itself.
void RemoveDataDir(const std::string& dir) {
  for (uint64_t id : ListSegmentFiles(dir)) {
    ::unlink(SegmentFilePath(dir, id).c_str());
  }
  ::unlink(CheckpointFilePath(dir).c_str());
  ::unlink(WalFilePath(dir).c_str());
  ::rmdir(dir.c_str());
}

/// Replays `queries` as point lookups against every leg, interleaved and
/// best of three per leg: on a shared machine a sequential leg-then-leg
/// timing mostly measures load drift, not the difference between legs.
/// Fills each leg's best QPS and result count; returns false as soon as
/// a round's legs disagree on the result count.
bool ReplayInterleaved(
    const std::vector<std::unique_ptr<SimilarityService>>& legs,
    const RecordSet& queries, std::vector<double>* best_qps,
    std::vector<uint64_t>* results) {
  best_qps->assign(legs.size(), 0);
  results->assign(legs.size(), 0);
  for (int round = 0; round < 3; ++round) {
    for (size_t leg = 0; leg < legs.size(); ++leg) {
      uint64_t count = 0;
      Timer point_timer;
      for (RecordId q = 0; q < queries.size(); ++q) {
        count += legs[leg]->Query(queries.record(q), queries.text(q)).size();
      }
      double qps = queries.size() / point_timer.ElapsedSeconds();
      (*best_qps)[leg] = std::max((*best_qps)[leg], qps);
      (*results)[leg] = count;
    }
    for (uint64_t count : *results) {
      if (count != results->front()) return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = ParseScale(argc, argv);
  int threads = ParseThreads(argc, argv);

  const uint32_t kCorpus = Scaled(20000, scale);
  const uint32_t kQueries = Scaled(2000, scale);
  const uint32_t kMemtableLevels[] = {0, Scaled(64, scale),
                                      Scaled(256, scale), Scaled(1024, scale),
                                      Scaled(4096, scale)};

  std::vector<std::string> texts =
      CitationTexts(kCorpus + kMemtableLevels[4]);
  TokenDictionary dict;
  RecordSet corpus = WordCorpusPrefix(texts, kCorpus, &dict);
  // Extra records beyond the base corpus feed the memtable; queries replay
  // a prefix of the corpus itself so every lookup does real probe work.
  std::vector<std::string> extra(texts.begin() + kCorpus, texts.end());
  RecordSet inserts = BuildWordCorpus(extra, &dict);
  RecordSet queries = WordCorpusPrefix(texts, kQueries, &dict);

  JaccardPredicate pred(0.6);

  std::printf(
      "memtable,point_qps,p50_us,p99_us,max_us,batch_records_per_sec,"
      "compact_sec\n");
  for (uint32_t level : kMemtableLevels) {
    ServiceOptions options;
    options.memtable_limit = 0;  // manual compaction only
    options.num_threads = threads;
    SimilarityService service(corpus, pred, options);
    for (uint32_t i = 0; i < level && i < inserts.size(); ++i) {
      service.Insert(inserts.record(i), inserts.text(i));
    }

    Timer point_timer;
    for (RecordId q = 0; q < queries.size(); ++q) {
      service.Query(queries.record(q), queries.text(q));
    }
    double point_seconds = point_timer.ElapsedSeconds();

    Timer batch_timer;
    service.BatchQuery(queries);
    double batch_seconds = batch_timer.ElapsedSeconds();

    Timer compact_timer;
    service.Compact();
    double compact_seconds = compact_timer.ElapsedSeconds();

    ServiceStats stats = service.stats();
    std::printf("%u,%.0f,%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%.0f,%.3f\n",
                level, queries.size() / point_seconds,
                stats.query_latency_us.QuantileUpperBound(0.5),
                stats.query_latency_us.QuantileUpperBound(0.99),
                stats.query_latency_us.max_micros(),
                queries.size() / batch_seconds, compact_seconds);
    std::fflush(stdout);
  }

  const uint32_t kShardInserts = Scaled(512, scale);
  std::printf(
      "\nshards,point_qps,batch_records_per_sec,full_compact_sec,"
      "full_shards_rebuilt,dirty_compact_sec,dirty_shards_rebuilt\n");
  for (size_t shards : {1u, 2u, 4u, 8u}) {
    ServiceOptions options;
    options.memtable_limit = 0;
    options.num_threads = threads;
    options.num_shards = shards;
    SimilarityService service(corpus, pred, options);

    Timer point_timer;
    for (RecordId q = 0; q < queries.size(); ++q) {
      service.Query(queries.record(q), queries.text(q));
    }
    double point_seconds = point_timer.ElapsedSeconds();

    Timer batch_timer;
    service.BatchQuery(queries);
    double batch_seconds = batch_timer.ElapsedSeconds();

    auto total_rebuilds = [&service] {
      uint64_t total = 0;
      for (const ShardStats& s : service.stats().shards) total += s.rebuilds;
      return total;
    };

    // Full compaction: inserts spread over the token space dirty every
    // shard, so this measures the sharded rebuild of the whole base.
    for (uint32_t i = 0; i < kShardInserts && i < inserts.size(); ++i) {
      service.Insert(inserts.record(i), inserts.text(i));
    }
    uint64_t rebuilds_before = total_rebuilds();
    Timer full_timer;
    service.Compact();
    double full_seconds = full_timer.ElapsedSeconds();
    uint64_t full_rebuilt = total_rebuilds() - rebuilds_before;

    // Dirty compaction: one insert dirties one shard; Compact() must
    // rebuild only it and share the other shards' bases untouched.
    rebuilds_before = total_rebuilds();
    service.Insert(inserts.record(0), inserts.text(0));
    Timer dirty_timer;
    service.Compact();
    double dirty_seconds = dirty_timer.ElapsedSeconds();
    uint64_t dirty_rebuilt = total_rebuilds() - rebuilds_before;

    std::printf("%zu,%.0f,%.0f,%.3f,%" PRIu64 ",%.4f,%" PRIu64 "\n", shards,
                queries.size() / point_seconds,
                queries.size() / batch_seconds, full_seconds, full_rebuilt,
                dirty_seconds, dirty_rebuilt);
    std::fflush(stdout);
  }

  // Delete-rate sweep: tombstone every Nth record (a spread across all
  // token-range shards), measure lookups against the tombstone-laden
  // snapshot, then the compaction that drops the bodies.
  const double kDeleteRates[] = {0.0, 0.01, 0.05, 0.20};
  std::printf(
      "\ndelete_rate,deletes,delete_ops_per_sec,point_qps_pending,"
      "compact_sec\n");
  for (double rate : kDeleteRates) {
    ServiceOptions options;
    options.memtable_limit = 0;
    options.num_threads = threads;
    options.num_shards = 4;
    SimilarityService service(corpus, pred, options);

    const uint32_t stride =
        rate > 0 ? static_cast<uint32_t>(1.0 / rate) : 0;
    Timer delete_timer;
    uint64_t deletes = 0;
    if (stride > 0) {
      for (RecordId id = 0; id < corpus.size(); id += stride) {
        if (service.Delete(id)) ++deletes;
      }
    }
    double delete_seconds = delete_timer.ElapsedSeconds();

    Timer point_timer;
    for (RecordId q = 0; q < queries.size(); ++q) {
      service.Query(queries.record(q), queries.text(q));
    }
    double point_seconds = point_timer.ElapsedSeconds();

    Timer compact_timer;
    service.Compact();
    double compact_seconds = compact_timer.ElapsedSeconds();

    std::printf("%.2f,%" PRIu64 ",%.0f,%.0f,%.3f\n", rate, deletes,
                deletes > 0 ? deletes / delete_seconds : 0.0,
                queries.size() / point_seconds, compact_seconds);
    std::fflush(stdout);
  }

  // Durability sweep: the same insert workload memory-only, WAL'd to the
  // page cache, and WAL'd with per-op fsync; then the checkpointing
  // compaction and a full restore.
  const uint32_t kDurableInserts = Scaled(2048, scale);
  std::printf(
      "\ndurability,insert_ops_per_sec,compact_sec,checkpoint_bytes,"
      "open_sec\n");
  struct DurabilityMode {
    const char* name;
    bool durable;
    WalSyncPolicy sync;
  };
  const DurabilityMode kModes[] = {
      {"none", false, WalSyncPolicy::kNever},
      {"wal_never", true, WalSyncPolicy::kNever},
      {"wal_always", true, WalSyncPolicy::kAlways},
  };
  for (const DurabilityMode& mode : kModes) {
    ServiceOptions options;
    options.memtable_limit = 0;
    options.num_threads = threads;
    options.num_shards = 4;
    const std::string dir = "bench_serve_durability";
    if (mode.durable) {
      options.data_dir = dir;
      options.wal_sync = mode.sync;
    }
    SimilarityService service(corpus, pred, options);

    Timer insert_timer;
    uint32_t inserted = 0;
    for (; inserted < kDurableInserts && inserted < inserts.size();
         ++inserted) {
      service.Insert(inserts.record(inserted), inserts.text(inserted));
    }
    double insert_seconds = insert_timer.ElapsedSeconds();

    Timer compact_timer;
    service.Compact();
    double compact_seconds = compact_timer.ElapsedSeconds();

    uint64_t checkpoint_bytes = 0;
    double open_seconds = 0;
    if (mode.durable) {
      if (!service.durability_status().ok()) {
        std::fprintf(stderr, "durability degraded: %s\n",
                     service.durability_status().ToString().c_str());
        return 1;
      }
      struct stat st;
      if (::stat(CheckpointFilePath(dir).c_str(), &st) == 0) {
        checkpoint_bytes = static_cast<uint64_t>(st.st_size);
      }
      Timer open_timer;
      Result<std::unique_ptr<SimilarityService>> restored =
          SimilarityService::Open(pred, options);
      open_seconds = open_timer.ElapsedSeconds();
      if (!restored.ok() || restored.value()->size() != service.size() ||
          restored.value()->epoch() != service.epoch()) {
        std::fprintf(stderr, "restore mismatch\n");
        return 1;
      }
      RemoveDataDir(dir);
    }
    std::printf("%s,%.0f,%.3f,%" PRIu64 ",%.3f\n", mode.name,
                inserted / insert_seconds, compact_seconds, checkpoint_bytes,
                open_seconds);
    std::fflush(stdout);
  }

  // Compaction scaling: fixed delta, growing corpus, chain vs collapse —
  // aborts if the two legs disagree on a single result count.
  const uint32_t kScaleDelta = Scaled(1000, scale);
  constexpr uint32_t kScaleRounds = 3;
  std::printf(
      "\ncorpus,mode,compact1_sec,compact2_sec,compact3_sec,segments,"
      "point_qps,results\n");
  for (uint32_t corpus_size :
       {Scaled(10000, scale), Scaled(50000, scale), Scaled(100000, scale)}) {
    std::vector<std::string> scale_texts =
        CitationTexts(corpus_size + kScaleRounds * kScaleDelta);
    TokenDictionary scale_dict;
    RecordSet scale_corpus =
        WordCorpusPrefix(scale_texts, corpus_size, &scale_dict);
    std::vector<std::string> delta_texts(scale_texts.begin() + corpus_size,
                                         scale_texts.end());
    RecordSet deltas = BuildWordCorpus(delta_texts, &scale_dict);
    RecordSet scale_queries =
        WordCorpusPrefix(scale_texts, kQueries, &scale_dict);
    // Leg 0 is segmented (default merge ratio), leg 1 the collapsed
    // baseline (ratio 0).
    std::vector<std::unique_ptr<SimilarityService>> legs;
    double round_seconds[2][kScaleRounds] = {};
    for (size_t ratio : {2u, 0u}) {
      ServiceOptions options;
      options.memtable_limit = 0;
      options.num_threads = threads;
      options.num_shards = 4;
      options.segment_merge_ratio = ratio;
      auto service =
          std::make_unique<SimilarityService>(scale_corpus, pred, options);
      RecordId next = 0;
      for (uint32_t round = 0; round < kScaleRounds; ++round) {
        for (uint32_t i = 0; i < kScaleDelta && next < deltas.size();
             ++i, ++next) {
          service->Insert(deltas.record(next), deltas.text(next));
        }
        Timer compact_timer;
        service->Compact();
        round_seconds[legs.size()][round] = compact_timer.ElapsedSeconds();
      }
      legs.push_back(std::move(service));
    }
    std::vector<double> leg_best_qps;
    std::vector<uint64_t> leg_results;
    if (!ReplayInterleaved(legs, scale_queries, &leg_best_qps,
                           &leg_results)) {
      std::fprintf(stderr,
                   "compaction scaling result mismatch: corpus=%u segmented "
                   "leg got %" PRIu64 " results, baseline has %" PRIu64 "\n",
                   corpus_size, leg_results[0], leg_results[1]);
      return 1;
    }
    for (size_t leg = 0; leg < legs.size(); ++leg) {
      std::printf("%u,%s,%.3f,%.3f,%.3f,%" PRIu64 ",%.0f,%" PRIu64 "\n",
                  corpus_size, leg == 0 ? "segmented" : "baseline",
                  round_seconds[leg][0], round_seconds[leg][1],
                  round_seconds[leg][2],
                  static_cast<uint64_t>(legs[leg]->stats().segments),
                  leg_best_qps[leg], leg_results[leg]);
      std::fflush(stdout);
    }
  }

  // Out-of-core sweep: one durable corpus, opened with no cap vs under a
  // budget a quarter of its segment file bytes (so most of the chain is
  // over budget and must be served from disk).
  {
    const std::string dir = "bench_serve_ooc";
    uint64_t file_bytes = 0;
    uint64_t expected_size = 0;
    {
      ServiceOptions options;
      options.memtable_limit = 0;
      options.num_threads = threads;
      options.num_shards = 4;
      options.data_dir = dir;
      options.wal_sync = WalSyncPolicy::kNever;
      SimilarityService builder(corpus, pred, options);
      const uint32_t kOocInserts = Scaled(2048, scale);
      for (uint32_t i = 0; i < kOocInserts && i < inserts.size(); ++i) {
        builder.Insert(inserts.record(i), inserts.text(i));
      }
      builder.Compact();
      if (!builder.durability_status().ok()) {
        std::fprintf(stderr, "durability degraded: %s\n",
                     builder.durability_status().ToString().c_str());
        return 1;
      }
      file_bytes = builder.stats().mapped_bytes;
      expected_size = builder.size();
    }
    const uint64_t budget = file_bytes / 4;
    std::printf("\nout_of_core,file_bytes=%" PRIu64 ",budget=%" PRIu64
                "\nmode,open_sec,point_qps,rss_queries_kb,rss_advised_kb,"
                "results\n",
                file_bytes, budget);
    uint64_t leg_results[2] = {0, 0};
    for (int leg = 0; leg < 2; ++leg) {
      const bool capped = leg == 1;
      ServiceOptions options;
      options.memtable_limit = 0;
      options.num_threads = threads;
      options.num_shards = 4;
      options.data_dir = dir;
      options.wal_sync = WalSyncPolicy::kNever;
      options.resident_budget_bytes = capped ? budget : 0;
      Timer open_timer;
      Result<std::unique_ptr<SimilarityService>> opened =
          SimilarityService::Open(pred, options);
      double open_seconds = open_timer.ElapsedSeconds();
      if (!opened.ok() || opened.value()->size() != expected_size) {
        std::fprintf(stderr, "out-of-core open failed\n");
        return 1;
      }
      SimilarityService& service = *opened.value();
      if (service.stats().mapped_segments != service.stats().segments) {
        std::fprintf(stderr, "out-of-core open left a segment unmapped\n");
        return 1;
      }
      uint64_t results = 0;
      Timer point_timer;
      for (RecordId q = 0; q < queries.size(); ++q) {
        results += service.Query(queries.record(q), queries.text(q)).size();
      }
      double point_seconds = point_timer.ElapsedSeconds();
      leg_results[leg] = results;
      uint64_t rss_queries_kb = ResidentKb();
      service.ApplyResidencyAdvice();
      uint64_t rss_advised_kb = ResidentKb();
      if (capped) {
        // The budget must have teeth: re-advising after the query replay
        // faulted the arenas back in has to return the over-budget
        // segments' pages to the kernel. (A quarter of the over-budget
        // span is a conservative floor — queries leave text blobs and
        // cold postings untouched.)
        const uint64_t mapped_bytes = service.stats().mapped_bytes;
        const uint64_t dropped_kb =
            rss_queries_kb > rss_advised_kb ? rss_queries_kb - rss_advised_kb
                                            : 0;
        if (mapped_bytes > budget &&
            dropped_kb * 1024 < (mapped_bytes - budget) / 4) {
          std::fprintf(stderr,
                       "residency budget had no effect: dropped %" PRIu64
                       "KB, expected >= %" PRIu64 "KB\n",
                       dropped_kb, (mapped_bytes - budget) / 4096);
          return 1;
        }
      }
      std::printf("%s,%.3f,%.0f,%" PRIu64 ",%" PRIu64 ",%" PRIu64 "\n",
                  capped ? "budget" : "no_cap", open_seconds,
                  queries.size() / point_seconds, rss_queries_kb,
                  rss_advised_kb, results);
      std::fflush(stdout);
    }
    if (leg_results[0] != leg_results[1]) {
      std::fprintf(stderr,
                   "out-of-core result mismatch: no cap %" PRIu64
                   " vs budget %" PRIu64 "\n",
                   leg_results[0], leg_results[1]);
      return 1;
    }
    RemoveDataDir(dir);
  }
  return 0;
}
