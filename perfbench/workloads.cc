#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "client.h"
#include "core/jaccard_predicate.h"
#include "core/join.h"
#include "data/citation_generator.h"
#include "data/corpus_builder.h"
#include "index/inverted_index.h"
#include "net/wire.h"
#include "serve/protocol.h"
#include "serve/similarity_service.h"
#include "server_process.h"
#include "trace.h"

namespace perfbench {

using namespace ssjoin;
namespace fs = std::filesystem;

std::string Config::Text(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    std::fprintf(stderr, "missing --%s\n", key.c_str());
    std::exit(2);
  }
  return it->second;
}

double Config::Number(const std::string& key) const {
  std::string text = Text(key);
  char* end = nullptr;
  double value = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0') {
    std::fprintf(stderr, "--%s=%s is not a number\n", key.c_str(),
                 text.c_str());
    std::exit(2);
  }
  return value;
}

namespace {

// Open-loop validity: a run whose generator sent more than this share of
// its requests later than kLateLimitUs after their due time fell behind
// its schedule and reports no numbers. (Latency is timed from the due
// time either way; the check keeps a starved generator from quietly
// offering less load than the schedule says.)
constexpr double kLateLimitUs = 10000;
constexpr double kLateShareLimit = 0.05;

// Settings every workload shares; perfbench/workloads.json records them
// with the per-workload sizes, op mixes and rates.
constexpr double kThreshold = 0.6;      // Jaccard, All-words tokens
constexpr uint64_t kShards = 4;
constexpr uint64_t kMemtableLimit = 256;  // ssjoin_server's default
constexpr int kServerNetThreads = 2;
constexpr int kServerThreads = 2;
constexpr uint32_t kConnections = 2;    // client threads = connections
constexpr int kJoinThreads = 4;         // nproc
constexpr uint64_t kSlices = 15;        // latency/capacity slice pairs
constexpr double kLatencyShare = 0.6;   // open-loop share of each slice
constexpr uint64_t kSetupRepeats = 5;   // launches or builds per setup_s
constexpr uint64_t kCheckSamples = 200; // churn: sampled checked lookups

// -------------------------------------------------------------------
// Inputs.

struct Texts {
  std::vector<std::string> corpus;   // the server's corpus file
  std::vector<std::string> lookups;  // held-out citations to look up
  std::vector<std::string> inserts;  // further held-out citations to insert
};

/// One citation stream, split in order. Later citations re-cite earlier
/// papers with perturbations (near-duplicates of corpus records) or cite
/// new papers, which bring tokens the corpus never saw.
Texts GenerateTexts(uint64_t seed, uint64_t records, uint64_t lookups,
                    uint64_t inserts) {
  CitationGeneratorOptions options;
  options.num_records = static_cast<uint32_t>(records + lookups + inserts);
  options.seed = seed;
  std::vector<std::string> all = CitationGenerator(options).Generate();
  Texts texts;
  auto take = [&all](size_t begin, size_t count) {
    return std::vector<std::string>(all.begin() + begin,
                                    all.begin() + begin + count);
  };
  texts.corpus = take(0, records);
  texts.lookups = take(records, lookups);
  texts.inserts = take(records + lookups, inserts);
  return texts;
}

bool WriteLines(const std::string& path, const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (const std::string& line : lines) out << line << '\n';
  out.flush();
  return static_cast<bool>(out);
}

/// Record ids of an OK lookup payload ("id\tscore\n" lines).
std::vector<RecordId> ParseIds(const std::string& payload) {
  std::vector<RecordId> ids;
  size_t begin = 0;
  while (begin < payload.size()) {
    size_t end = payload.find('\n', begin);
    if (end == std::string::npos) end = payload.size();
    ids.push_back(static_cast<RecordId>(
        std::strtoul(payload.c_str() + begin, nullptr, 10)));
    begin = end + 1;
  }
  return ids;
}

/// A numeric "key": value member of a stats JSON object (first match).
double JsonNumber(const std::string& json, const std::string& key) {
  size_t at = json.find("\"" + key + "\": ");
  if (at == std::string::npos) return -1;
  return std::strtod(json.c_str() + at + key.size() + 4, nullptr);
}

/// An in-process SimilarityService fed the way ssjoin_server feeds its
/// own: one shared dictionary and one BuildWordCorpus call per text.
class Reference {
 public:
  Reference(const std::vector<std::string>& corpus, const Predicate& pred,
            const ServiceOptions& options)
      : service_(BuildWordCorpus(corpus, &dict_), pred, options) {}

  std::vector<RecordId> Lookup(const std::string& text) {
    RecordSet staged = BuildWordCorpus({TrimCopy(text)}, &dict_);
    std::vector<RecordId> ids;
    for (const QueryMatch& match :
         service_.Query(staged.record(0), staged.text(0))) {
      ids.push_back(match.id);
    }
    return ids;
  }
  RecordId Insert(const std::string& text) {
    RecordSet staged = BuildWordCorpus({TrimCopy(text)}, &dict_);
    return service_.Insert(staged.record(0), staged.text(0));
  }
  bool Delete(RecordId id) { return service_.Delete(id); }
  void Compact() { service_.Compact(); }
  size_t size() const { return service_.size(); }

 private:
  TokenDictionary dict_;
  SimilarityService service_;
};

/// Runs fn(i) for i in [0, n) on n threads and joins them all.
template <typename Fn>
void RunThreads(size_t n, Fn fn) {
  std::vector<std::thread> threads;
  for (size_t i = 0; i < n; ++i) threads.emplace_back([&fn, i] { fn(i); });
  for (std::thread& thread : threads) thread.join();
}

// -------------------------------------------------------------------
// Per-layer metric catalogue: unit, and which end-to-end metric on which
// workload the layer metric should move. Rows marked `json` are measured
// on every workload and make up the traced run's JSON line (BENCHMARK.json
// "per_layer"); the rest are printed only.

struct LayerRow {
  const char* name;
  const char* unit;
  bool json;
  const char* moves;
};

constexpr LayerRow kLayerRows[] = {
    {"text.tokenize_us", "us", true,
     "read_p50_us, qps_max @ lookup"},
    {"text.dict_growth", "count", false,
     "rss_mb @ lookup"},
    {"data.corpus_build_s", "s", true,
     "setup_s @ all"},
    {"index.build_s", "s", true,
     "join_parallel_s, rss_mb @ batch_join"},
    {"index.postings", "count", true,
     "join_parallel_s, rss_mb @ batch_join"},
    {"core.prepare_s", "s", true,
     "join_cluster_s, join_parallel_s @ batch_join"},
    {"core.join_verified", "count", false,
     "join_*_s @ batch_join"},
    {"core.join_verify_yield", "fraction", false,
     "join_*_s @ batch_join"},
    {"core.join_heap_pops", "count", false,
     "join_parallel_s @ batch_join"},
    {"core.join_gallop_probes", "count", false,
     "join_parallel_s @ batch_join"},
    {"core.candidates_per_probe", "count", true,
     "read_p50_us @ lookup, churn; join_parallel_s @ batch_join"},
    {"core.verify_yield", "fraction", true,
     "read_p50_us @ lookup, churn; join_parallel_s @ batch_join"},
    {"core.heap_pops_per_probe", "count", true,
     "read_p50_us @ lookup, churn; join_parallel_s @ batch_join"},
    {"core.gallop_probes_per_probe", "count", true,
     "read_p50_us @ lookup, churn; join_parallel_s @ batch_join"},
    {"core.lists_per_merge", "count", true,
     "read_p50_us @ churn"},
    {"core.direct_list_share", "fraction", true,
     "read_p50_us @ churn"},
    {"core.bitmap_prune_ratio", "fraction", false,
     "read_p50_us @ lookup"},
    {"core.bitmap_checked", "count", false,
     "read_p50_us @ lookup"},
    {"core.bitmap_pruned", "count", false,
     "read_p50_us @ lookup"},
    {"serve.build_s", "s", false,
     "setup_s @ lookup, churn"},
    {"serve.query_us", "us", false,
     "read_p50_us @ lookup, churn"},
    {"serve.query_p99_us", "us", false,
     "read_p99_us @ lookup, churn"},
    {"serve.query_allocs", "count", false,
     "read_p50_us, qps_max @ lookup"},
    {"serve.protocol_us", "us", false,
     "read_p50_us @ lookup"},
    {"serve.insert_us", "us", false,
     "write_p50_us @ churn"},
    {"serve.delete_us", "us", false,
     "write_p50_us @ churn"},
    {"serve.compactions", "count", false,
     "write_p99_us, read_p999_us @ churn"},
    {"serve.compact_p50_ms", "ms", false,
     "write_p99_us, read_p999_us @ churn"},
    {"serve.compact_max_ms", "ms", false,
     "write_p99_us, read_p999_us @ churn"},
    {"serve.segments", "count", false,
     "read_p50_us @ churn"},
    {"serve.open_s", "s", false,
     "reopen_s @ churn"},
    {"serve.write_amp", "ratio", false,
     "write_p99_us, disk_mb @ churn"},
    {"net.overhead_us", "us", false,
     "read_p50_us @ lookup"},
    {"net.bytes_per_response", "bytes", false,
     "read_p50_us @ lookup"},
    {"net.frame_us", "us", false,
     "read_p50_us @ lookup"},
    {"trace.replay_untraced_s", "s", false,
     "(tracing overhead base: mean of the untraced replays before and after)"},
    {"trace.replay_traced_s", "s", false,
     "(tracing overhead base)"},
    {"trace.overhead_pct", "%", false,
     "(tracing overhead)"},
};

void Layer(Report* report, const std::string& name, double value) {
  for (const LayerRow& row : kLayerRows) {
    if (name != row.name) continue;
    const std::string note = std::string("moves ") + row.moves;
    if (row.json) {
      report->Metric(name, value, row.unit, note);
    } else {
      report->Line(name, value, row.unit, note);
    }
    return;
  }
  report->Line(name, value, "?", "(not in the layer catalogue)");
}

double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0;
}

/// The merge counters every probe path reports, per probe.
void LayerMergeMetrics(Report* report, const MergeStats& merge,
                       double probes, double candidates, double results) {
  Layer(report, "core.candidates_per_probe", Ratio(candidates, probes));
  Layer(report, "core.verify_yield", Ratio(results, candidates));
  Layer(report, "core.heap_pops_per_probe",
        Ratio(static_cast<double>(merge.heap_pops), probes));
  Layer(report, "core.gallop_probes_per_probe",
        Ratio(static_cast<double>(merge.gallop_probes), probes));
  const double lists =
      static_cast<double>(merge.lists_direct + merge.lists_merged);
  Layer(report, "core.lists_per_merge",
        Ratio(lists, static_cast<double>(merge.merges)));
  Layer(report, "core.direct_list_share",
        Ratio(static_cast<double>(merge.lists_direct), lists));
  Layer(report, "core.bitmap_checked",
        static_cast<double>(merge.bitmap_checked));
  Layer(report, "core.bitmap_pruned", static_cast<double>(merge.bitmap_pruned));
  Layer(report, "core.bitmap_prune_ratio",
        Ratio(static_cast<double>(merge.bitmap_pruned),
              static_cast<double>(merge.bitmap_checked)));
}

/// The data/core/index layers over a corpus, outside any service:
/// BuildWordCorpus, Predicate::Prepare, and a flat InvertedIndex build.
struct CorpusLayers {
  double corpus_build_s = 0;
  double prepare_s = 0;
  double index_build_s = 0;
  uint64_t postings = 0;
};

CorpusLayers MeasureCorpusLayers(Tracer* tracer,
                                 const std::vector<std::string>& texts,
                                 const Predicate& pred, TokenDictionary* dict,
                                 RecordSet* corpus) {
  CorpusLayers layers;
  uint64_t start = NowNanos();
  {
    Tracer::Scope span(tracer, "data.corpus_build");
    *corpus = BuildWordCorpus(texts, dict);
  }
  layers.corpus_build_s = SecondsSince(start);
  RecordSet prepared = *corpus;
  start = NowNanos();
  {
    Tracer::Scope span(tracer, "core.prepare");
    pred.Prepare(&prepared);
  }
  layers.prepare_s = SecondsSince(start);
  start = NowNanos();
  InvertedIndex index;
  {
    Tracer::Scope span(tracer, "index.build");
    index.PlanFromRecords(prepared);
    for (RecordId id = 0; id < prepared.size(); ++id) {
      index.Insert(id, prepared.record(id));
    }
  }
  layers.index_build_s = SecondsSince(start);
  layers.postings = index.total_postings();
  return layers;
}

void ReportCorpusLayers(Report* report, const CorpusLayers& layers) {
  Layer(report, "data.corpus_build_s", layers.corpus_build_s);
  Layer(report, "core.prepare_s", layers.prepare_s);
  Layer(report, "index.build_s", layers.index_build_s);
  Layer(report, "index.postings", static_cast<double>(layers.postings));
}

void WriteTrace(const Config& config, const Tracer& tracer) {
  std::error_code ec;
  fs::create_directories(config.Text("trace_dir"), ec);
  std::string path = config.Text("trace_dir") + "/" + config.Text("workload") +
                     "-seed" + config.Text("seed") + ".spans.jsonl";
  if (tracer.WriteFile(path)) {
    std::printf("trace: %zu spans written to %s\n", tracer.spans().size(),
                path.c_str());
  }
}

/// Self time per span name (span minus its children), summed, with its
/// share of the traced replay.
void ReportSelfTimes(Report* report, const Tracer& tracer) {
  const std::map<std::string, double> self = tracer.SelfTimeUs();
  double total_us = 0;
  for (const auto& [name, us] : self) total_us += us;
  for (const auto& [name, us] : self) {
    char note[48];
    std::snprintf(note, sizeof(note), "self time, %.1f%% of spans",
                  100 * Ratio(us, total_us));
    report->Line("self." + name + "_s", us * 1e-6, "s", note);
  }
}

void ReportOverhead(Report* report, double untraced_s, double traced_s) {
  Layer(report, "trace.replay_untraced_s", untraced_s);
  Layer(report, "trace.replay_traced_s", traced_s);
  Layer(report, "trace.overhead_pct",
        100.0 * Ratio(traced_s - untraced_s, untraced_s));
}

/// Ends a traced run: overhead, self times and the span file.
void FinishTrace(const Config& config, Report* report, const Tracer& tracer,
                 double untraced_s, double traced_s) {
  ReportOverhead(report, untraced_s, traced_s);
  ReportSelfTimes(report, tracer);
  WriteTrace(config, tracer);
}

// -------------------------------------------------------------------
// Serving workloads (lookup, churn).

struct ServingParams {
  uint64_t seed;
  double seconds;
  uint64_t records, lookup_pool, insert_pool;
  uint32_t insert_pct, delete_pct;
  double rate;         // open-loop offered rate, req/s
  double closed_rate;  // nominal capacity, req/s: sizes the closed loop
  uint64_t warmup_ops;
  bool durable;
  std::string corrupt;
};

ServingParams ReadServingParams(const Config& config, bool churn) {
  ServingParams p;
  p.seed = config.Count("seed");
  p.seconds = config.Number("seconds");
  p.records = config.Count("records");
  p.lookup_pool = config.Count("lookup_pool");
  p.insert_pool = churn ? config.Count("insert_pool") : 1;
  p.insert_pct = churn ? static_cast<uint32_t>(config.Count("insert_pct")) : 0;
  p.delete_pct = churn ? static_cast<uint32_t>(config.Count("delete_pct")) : 0;
  p.rate = config.Number("rate");
  p.closed_rate = config.Number("closed_rate");
  p.warmup_ops = config.Count("warmup_ops");
  p.durable = churn;
  p.corrupt = config.Has("corrupt") ? config.Text("corrupt") : "";
  return p;
}

std::vector<std::string> ServerArgs(const ServingParams& p,
                                    const std::string& corpus_path,
                                    const std::string& data_dir) {
  std::vector<std::string> args = {
      "--corpus=" + corpus_path,
      "--predicate=jaccard",
      "--threshold=0.6",
      "--tokens=words",
      "--shards=" + std::to_string(kShards),
      "--net-threads=" + std::to_string(kServerNetThreads),
      "--threads=" + std::to_string(kServerThreads),
      "--memtable-limit=" + std::to_string(kMemtableLimit),
      "--port=0",
  };
  if (p.durable) {
    args.push_back("--data-dir=" + data_dir);
    args.push_back("--wal-sync=never");
  }
  return args;
}

/// Every op a serving run sends, per phase and connection, fixed by the
/// seed before any traffic: a closed-loop warm-up, then per slice an
/// open-loop phase at the fixed rate and a closed-loop phase. The traced
/// replay applies the warm-up and the open-loop phases in order: the
/// scheduled stream, without the capacity probes.
struct OpPlan {
  enum class Kind { kWarmup, kOpenLoop, kClosedLoop };
  struct Phase {
    Kind kind;
    std::vector<std::vector<Op>> ops;  // per connection, in send order
  };
  std::vector<Phase> phases;
};

OpPlan MakePlan(const OpSource& mix, uint64_t seed, uint32_t connections,
                size_t warmup_per_conn, size_t open_per_conn,
                size_t closed_per_conn) {
  std::vector<OpStream> streams;
  for (uint32_t c = 0; c < connections; ++c) {
    streams.emplace_back(mix, seed, c, connections);
  }
  OpPlan plan;
  auto add_phase = [&](OpPlan::Kind kind, size_t per_conn) {
    OpPlan::Phase phase{kind, std::vector<std::vector<Op>>(connections)};
    for (uint32_t c = 0; c < connections; ++c) {
      for (size_t i = 0; i < per_conn; ++i) {
        phase.ops[c].push_back(streams[c].Next());
      }
    }
    plan.phases.push_back(std::move(phase));
  };
  add_phase(OpPlan::Kind::kWarmup, warmup_per_conn);
  for (uint64_t slice = 0; slice < kSlices; ++slice) {
    add_phase(OpPlan::Kind::kOpenLoop, open_per_conn);
    add_phase(OpPlan::Kind::kClosedLoop, closed_per_conn);
  }
  return plan;
}

/// The replay order of one phase: op i of every connection, then op i+1
/// (the open loop's due order).
std::vector<std::pair<uint32_t, Op>> ReplayOrder(const OpPlan::Phase& phase) {
  std::vector<std::pair<uint32_t, Op>> order;
  size_t longest = 0;
  for (const auto& ops : phase.ops) longest = std::max(longest, ops.size());
  for (size_t i = 0; i < longest; ++i) {
    for (uint32_t c = 0; c < phase.ops.size(); ++c) {
      if (i < phase.ops[c].size()) order.emplace_back(c, phase.ops[c][i]);
    }
  }
  return order;
}

/// Compares sampled lookups on a live server against the reference.
/// Returns the number of mismatches (an unanswered lookup counts).
size_t CheckSamples(uint16_t port, const std::vector<std::string>& samples,
                    const std::vector<std::vector<RecordId>>& expected,
                    const char* what) {
  Connection conn;
  std::string error;
  if (!conn.Open(port, &error)) {
    std::fprintf(stderr, "check %s: %s\n", what, error.c_str());
    return samples.size();
  }
  size_t mismatches = 0;
  for (size_t i = 0; i < samples.size(); ++i) {
    net::WireResponse response;
    if (!conn.Call("? " + samples[i], &response, 10) || !response.ok ||
        ParseIds(response.payload) != expected[i]) {
      if (mismatches == 0) {
        std::fprintf(stderr, "check %s: lookup %zu answered wrongly\n", what,
                     i);
      }
      ++mismatches;
    }
  }
  return mismatches;
}

/// The in-process replay of a serving stream: the same calls the server
/// makes per request (parse, tokenize, query or write, format, frame),
/// each in its own span. Returns the replay's wall time.
double ReplayServing(const ServingParams& p,
                     const Texts& texts, const OpPlan& plan,
                     const std::string& replay_dir,
                     const std::string& network_data_dir, Tracer* tracer,
                     Report* report, double network_read_p50_us) {
  const uint64_t replay_start = NowNanos();
  const bool traced = tracer->enabled();
  JaccardPredicate pred(kThreshold);
  TokenDictionary dict;
  RecordSet corpus;
  CorpusLayers layers =
      MeasureCorpusLayers(tracer, texts.corpus, pred, &dict, &corpus);

  ServiceOptions options;
  options.num_shards = kShards;
  options.num_threads = kServerThreads;
  options.memtable_limit = kMemtableLimit;
  if (p.durable) {
    std::error_code ec;
    fs::remove_all(replay_dir, ec);
    options.data_dir = replay_dir;
    options.wal_sync = WalSyncPolicy::kNever;
  }
  uint64_t start = NowNanos();
  std::unique_ptr<SimilarityService> service;
  {
    Tracer::Scope span(tracer, "serve.build");
    service = std::make_unique<SimilarityService>(std::move(corpus), pred,
                                                  options);
  }
  const double build_s = SecondsSince(start);

  const size_t dict_before = dict.size();
  const ServiceStats before = service->stats();
  std::vector<std::deque<RecordId>> deletable(kConnections);
  std::vector<double> compact_ms, insert_us, delete_us;
  std::vector<double> request_us;  // lookups only: parse..frame
  uint64_t query_allocs = 0, queries = 0;
  net::ResponseReader reader;
  std::vector<net::WireResponse> decoded;
  uint32_t request_id = 0;
  std::vector<std::pair<uint32_t, Op>> order;
  for (const OpPlan::Phase& phase : plan.phases) {
    if (phase.kind == OpPlan::Kind::kClosedLoop) continue;
    std::vector<std::pair<uint32_t, Op>> phase_order = ReplayOrder(phase);
    order.insert(order.end(), phase_order.begin(), phase_order.end());
  }
  for (auto [c, op] : order) {
    ++request_id;
    if (op.kind == OpKind::kDelete && deletable[c].empty()) {
      op.kind = OpKind::kLookup;  // the network client's fallback
    }
    std::string line;
    if (op.kind == OpKind::kLookup) line = "? " + texts.lookups[op.text];
    if (op.kind == OpKind::kInsert) line = "+ " + texts.inserts[op.text];
    if (op.kind == OpKind::kDelete) {
      line = "- " + std::to_string(deletable[c].front());
      deletable[c].pop_front();
    }
    const uint64_t request_start = NowNanos();
    Tracer::Scope request_span(tracer, "request", request_id);
    Request request;
    {
      Tracer::Scope span(tracer, "serve.parse", request_id);
      request = ParseRequest(line);
    }
    RecordSet staged;
    if (request.type != RequestType::kDelete) {
      Tracer::Scope span(tracer, "text.tokenize", request_id);
      staged = BuildWordCorpus({request.text}, &dict);
    }
    const uint64_t compactions_before =
        traced && request.type != RequestType::kQuery
            ? service->stats().compactions
            : 0;
    // A write's duration goes to `non_compacting`, or to compact_ms when
    // the call advanced stats().compactions (traced replay only).
    auto record_write = [&](uint64_t write_start,
                            std::vector<double>* non_compacting) {
      if (!traced) return;
      const double us = SecondsSince(write_start) * 1e6;
      if (service->stats().compactions != compactions_before) {
        compact_ms.push_back(us * 1e-3);
      } else {
        non_compacting->push_back(us);
      }
    };
    std::string payload;
    if (request.type == RequestType::kQuery) {
      std::vector<QueryMatch> matches;
      const uint64_t allocs = AllocationCount();
      {
        Tracer::Scope span(tracer, "serve.query", request_id);
        matches = service->Query(staged.record(0), staged.text(0));
      }
      query_allocs += AllocationCount() - allocs;
      ++queries;
      Tracer::Scope span(tracer, "serve.format", request_id);
      payload = FormatMatches(matches);
    } else if (request.type == RequestType::kInsert) {
      RecordId id;
      const uint64_t write_start = NowNanos();
      {
        Tracer::Scope span(tracer, "serve.insert", request_id);
        id = service->Insert(staged.record(0), staged.text(0));
      }
      record_write(write_start, &insert_us);
      deletable[c].push_back(id);
      Tracer::Scope span(tracer, "serve.format", request_id);
      payload = FormatInserted(id);
    } else {
      const uint64_t write_start = NowNanos();
      {
        Tracer::Scope span(tracer, "serve.delete", request_id);
        service->Delete(request.id);
      }
      record_write(write_start, &delete_us);
      Tracer::Scope span(tracer, "serve.format", request_id);
      payload = FormatDeleted(request.id);
    }
    {
      Tracer::Scope span(tracer, "net.frame", request_id);
      std::string frame = net::OkFrame(payload);
      decoded.clear();
      reader.Feed(frame, &decoded);
    }
    if (request.type == RequestType::kQuery) {
      request_us.push_back(SecondsSince(request_start) * 1e6);
    }
  }
  if (p.durable) {
    const uint64_t compact_start = NowNanos();
    Tracer::Scope span(tracer, "serve.compact");
    service->Compact();
    compact_ms.push_back(SecondsSince(compact_start) * 1e3);
  }
  const ServiceStats after = service->stats();

  double open_s = 0;
  if (p.durable && !network_data_dir.empty()) {
    // Open on a copy: the network run's data dir stays as it was left.
    const std::string copy = replay_dir + "-open";
    std::error_code ec;
    fs::remove_all(copy, ec);
    fs::copy(network_data_dir, copy, fs::copy_options::recursive, ec);
    ServiceOptions open_options = options;
    open_options.data_dir = copy;
    start = NowNanos();
    Tracer::Scope span(tracer, "serve.open");
    Result<std::unique_ptr<SimilarityService>> reopened =
        SimilarityService::Open(pred, open_options);
    open_s = SecondsSince(start);
    if (!reopened.ok()) {
      std::fprintf(stderr, "replay: Open failed: %s\n",
                   reopened.status().ToString().c_str());
    }
  }
  const double wall_s = SecondsSince(replay_start);
  if (!traced) return wall_s;

  // Per-layer report of the traced replay.
  ReportCorpusLayers(report, layers);
  Layer(report, "text.tokenize_us", Median(tracer->DurationsUs("text.tokenize")));
  Layer(report, "text.dict_growth", static_cast<double>(dict.size() - dict_before));
  MergeStats merge = after.merge;
  merge.merges -= before.merge.merges;
  merge.heap_pops -= before.merge.heap_pops;
  merge.gallop_probes -= before.merge.gallop_probes;
  merge.candidates -= before.merge.candidates;
  merge.bitmap_checked -= before.merge.bitmap_checked;
  merge.bitmap_pruned -= before.merge.bitmap_pruned;
  merge.lists_direct -= before.merge.lists_direct;
  merge.lists_merged -= before.merge.lists_merged;
  const double point_queries =
      static_cast<double>(after.point_queries - before.point_queries);
  LayerMergeMetrics(report, merge, point_queries,
                    static_cast<double>(after.candidates - before.candidates),
                    static_cast<double>(after.results - before.results));
  Layer(report, "serve.build_s", build_s);
  std::vector<double> query_us = tracer->DurationsUs("serve.query");
  Layer(report, "serve.query_us", Median(query_us));
  Layer(report, "serve.query_p99_us", Quantile(&query_us, 0.99));
  Layer(report, "serve.query_allocs",
        Ratio(static_cast<double>(query_allocs), static_cast<double>(queries)));
  {
    // parse + format per request, summed within each request.
    std::vector<double> protocol(request_id + 1, 0);
    for (const Span& span : tracer->spans()) {
      if (std::string(span.name) == "serve.parse" ||
          std::string(span.name) == "serve.format") {
        protocol[span.request] +=
            static_cast<double>(span.end_ns - span.start_ns) * 1e-3;
      }
    }
    protocol.erase(protocol.begin());
    Layer(report, "serve.protocol_us", Median(protocol));
  }
  if (p.durable) {
    Layer(report, "serve.insert_us", Median(insert_us));
    Layer(report, "serve.delete_us", Median(delete_us));
    Layer(report, "serve.compactions", static_cast<double>(compact_ms.size()));
    Layer(report, "serve.compact_p50_ms", Median(compact_ms));
    Layer(report, "serve.compact_max_ms",
          compact_ms.empty() ? 0
                             : *std::max_element(compact_ms.begin(),
                                                 compact_ms.end()));
  }
  Layer(report, "net.frame_us", Median(tracer->DurationsUs("net.frame")));
  Layer(report, "net.overhead_us",
        network_read_p50_us - Median(request_us));
  if (p.durable) {
    Layer(report, "serve.segments", static_cast<double>(after.segments));
    Layer(report, "serve.open_s", open_s);
  }
  std::printf("counts: point_queries=%llu inserts=%llu deletes=%llu "
              "compactions=%llu candidates=%llu results=%llu merges=%llu "
              "heap_pops=%llu gallop_probes=%llu bitmap_checked=%llu "
              "bitmap_pruned=%llu segments=%llu dict=%zu\n",
              static_cast<unsigned long long>(after.point_queries),
              static_cast<unsigned long long>(after.inserts),
              static_cast<unsigned long long>(after.deletes),
              static_cast<unsigned long long>(after.compactions),
              static_cast<unsigned long long>(after.candidates),
              static_cast<unsigned long long>(after.results),
              static_cast<unsigned long long>(after.merge.merges),
              static_cast<unsigned long long>(after.merge.heap_pops),
              static_cast<unsigned long long>(after.merge.gallop_probes),
              static_cast<unsigned long long>(after.merge.bitmap_checked),
              static_cast<unsigned long long>(after.merge.bitmap_pruned),
              static_cast<unsigned long long>(after.segments), dict.size());
  return wall_s;
}

}  // namespace


int RunServing(const Config& config, bool churn) {
  const ServingParams p = ReadServingParams(config, churn);
  const bool trace = config.Number("trace") != 0;
  const std::string workdir = config.Text("workdir");
  const std::string corpus_path = workdir + "/corpus.txt";
  const std::string data_dir = workdir + "/data";
  const std::string log_path = workdir + "/server.log";
  Report report;

  Texts texts =
      GenerateTexts(p.seed, p.records, p.lookup_pool, p.insert_pool);
  if (!WriteLines(corpus_path, texts.corpus)) {
    std::fprintf(stderr, "cannot write %s\n", corpus_path.c_str());
    return kExitInvalid;
  }
  const std::vector<std::string> args =
      ServerArgs(p, corpus_path, data_dir);
  const std::string server_binary = config.Text("server");

  // Set-up: several launches (a fresh data dir each), median handshake
  // time; the last launch serves the run.
  std::vector<double> setups;
  std::unique_ptr<ServerProcess> server;
  for (uint64_t i = 0; i < kSetupRepeats; ++i) {
    std::error_code ec;
    if (p.durable) fs::remove_all(data_dir, ec);
    server = std::make_unique<ServerProcess>();
    std::string error;
    if (!server->Launch(server_binary, args, log_path, 120, &error)) {
      std::fprintf(stderr, "server launch failed: %s\n", error.c_str());
      return kExitInvalid;
    }
    setups.push_back(server->setup_seconds());
    if (i + 1 < kSetupRepeats && !server->Terminate(30)) {
      std::fprintf(stderr, "server did not shut down cleanly\n");
      return kExitInvalid;
    }
  }

  // The in-process reference, built before any load runs.
  JaccardPredicate pred(kThreshold);
  ServiceOptions ref_options;
  ref_options.num_shards = kShards;
  ref_options.num_threads = 1;
  ref_options.memtable_limit = kMemtableLimit;
  Reference ref(texts.corpus, pred, ref_options);
  std::vector<std::vector<RecordId>> expected;
  if (!churn) {
    expected.reserve(texts.lookups.size());
    for (const std::string& text : texts.lookups) {
      expected.push_back(ref.Lookup(text));
    }
  }

  const uint32_t num_conns = kConnections;
  std::vector<std::unique_ptr<Connection>> conns;
  for (uint32_t c = 0; c < num_conns; ++c) {
    conns.push_back(std::make_unique<Connection>());
    std::string error;
    if (!conns.back()->Open(server->port(), &error)) {
      std::fprintf(stderr, "connect failed: %s\n", error.c_str());
      return kExitInvalid;
    }
  }
  std::vector<ConnectionLog> logs(num_conns);
  const OpSource mix{&texts.lookups, &texts.inserts, p.insert_pct,
                     p.delete_pct};
  const bool keep_answers = !churn;

  // Measurement: after a closed-loop warm-up (untimed; on churn it also
  // grows the segment chain), `kSlices` rounds of an open-loop latency
  // phase at the fixed offered rate, then a closed-loop capacity phase
  // with one request in flight per connection. Interleaving puts both
  // phases under the same machine conditions. Capacity is the median of
  // the per-slice closed-loop rates, so a few slices slowed by the host
  // do not move it.
  const double slice_s = p.seconds / static_cast<double>(kSlices);
  const double latency_s = slice_s * kLatencyShare;
  const double capacity_s = slice_s - latency_s;
  const OpPlan plan = MakePlan(
      mix, p.seed, num_conns, p.warmup_ops / num_conns,
      static_cast<size_t>(latency_s * p.rate / num_conns),
      static_cast<size_t>(capacity_s * p.closed_rate / num_conns));
  const uint64_t interval_ns = static_cast<uint64_t>(num_conns * 1e9 / p.rate);
  std::vector<double> read_us, write_us, late_us, closed_read_us, slice_qps,
      slice_read_p50;
  uint64_t closed_completed = 0;
  auto drain_latencies = [&logs](std::vector<double> ConnectionLog::*field,
                                 std::vector<double>* out) {
    for (ConnectionLog& log : logs) {
      out->insert(out->end(), (log.*field).begin(), (log.*field).end());
    }
  };
  for (const OpPlan::Phase& phase : plan.phases) {
    if (phase.kind == OpPlan::Kind::kOpenLoop) {
      const uint64_t open_start = NowNanos() + 5'000'000;
      RunThreads(num_conns, [&](size_t c) {
        conns[c]->RunOpenLoop(mix, phase.ops[c], open_start,
                              static_cast<uint64_t>(c * 1e9 / p.rate),
                              interval_ns, 10, keep_answers, &logs[c]);
      });
      std::vector<double> slice_reads;
      drain_latencies(&ConnectionLog::read_us, &slice_reads);
      slice_read_p50.push_back(Median(slice_reads));
      read_us.insert(read_us.end(), slice_reads.begin(), slice_reads.end());
      drain_latencies(&ConnectionLog::write_us, &write_us);
      drain_latencies(&ConnectionLog::late_us, &late_us);
    } else {
      uint64_t completed_before = 0;
      for (const ConnectionLog& log : logs) completed_before += log.completed;
      const uint64_t closed_start = NowNanos();
      RunThreads(num_conns, [&](size_t c) {
        conns[c]->RunClosedLoop(mix, phase.ops[c], 10, keep_answers,
                                &logs[c]);
      });
      uint64_t completed = 0, closed_last = closed_start;
      for (const ConnectionLog& log : logs) {
        completed += log.completed;
        closed_last = std::max(closed_last, log.last_completion_ns);
      }
      completed -= completed_before;
      if (phase.kind == OpPlan::Kind::kClosedLoop &&
          closed_last > closed_start) {
        const double elapsed_s =
            static_cast<double>(closed_last - closed_start) * 1e-9;
        closed_completed += completed;
        slice_qps.push_back(static_cast<double>(completed) / elapsed_s);
        drain_latencies(&ConnectionLog::read_us, &closed_read_us);
      }
    }
    for (ConnectionLog& log : logs) log.ClearLatencies();
  }
  const double qps_max = Median(slice_qps);
  conns.clear();

  // End of traffic: compact (churn), read the server's counters.
  Connection control;
  std::string error;
  net::WireResponse response;
  if (!control.Open(server->port(), &error) ||
      (churn && (!control.Call("! compact", &response, 120) || !response.ok)) ||
      !control.Call("stats", &response, 30) || !response.ok) {
    std::fprintf(stderr, "control requests failed\n");
    return kExitInvalid;
  }
  const std::string stats_json = response.payload;
  const double rss_mb = ProcStatusMb(server->pid(), "VmHWM");
  const double write_bytes =
      static_cast<double>(ProcIoField(server->pid(), "write_bytes"));
  const double disk_mb =
      static_cast<double>(DirectoryBytes(data_dir)) / (1024.0 * 1024.0);
  const double bytes_per_response =
      Ratio(JsonNumber(stats_json, "bytes_written"),
            JsonNumber(stats_json, "requests"));

  // Answer checks.
  uint64_t attempted = 0, failed = 0, fallbacks = 0;
  std::vector<std::pair<RecordId, uint32_t>> inserted;
  std::vector<RecordId> deleted;
  for (const ConnectionLog& log : logs) {
    attempted += log.attempted;
    failed += log.failed;
    fallbacks += log.delete_fallbacks;
    inserted.insert(inserted.end(), log.inserted.begin(), log.inserted.end());
    deleted.insert(deleted.end(), log.deleted.begin(), log.deleted.end());
  }
  size_t mismatches = 0;
  size_t checked = 0;
  std::vector<std::string> samples;
  std::vector<std::vector<RecordId>> sample_expected;
  double inserted_bytes = 0;
  if (!churn) {
    for (const ConnectionLog& log : logs) {
      for (const auto& [text, payload] : log.answers) {
        std::vector<RecordId> want = expected[text];
        if (p.corrupt == "lookup" && checked == 0) want.push_back(UINT32_MAX);
        ++checked;
        if (ParseIds(payload) != want) {
          if (mismatches == 0) {
            std::fprintf(stderr, "check lookup: wrong answer for lookup %u\n",
                         text);
          }
          ++mismatches;
        }
      }
    }
  } else {
    // Reference: corpus + acknowledged inserts - acknowledged deletes.
    std::sort(inserted.begin(), inserted.end());
    RecordId next_id = static_cast<RecordId>(p.records);
    for (const auto& [id, text] : inserted) {
      inserted_bytes += static_cast<double>(texts.inserts[text].size());
      if (id != next_id || ref.Insert(texts.inserts[text]) != id) {
        std::fprintf(stderr, "check churn: insert ids are not contiguous\n");
        ++mismatches;
        break;
      }
      ++next_id;
    }
    for (size_t i = 0; i < deleted.size(); ++i) {
      if (p.corrupt == "churn" && i == 0) continue;
      if (!ref.Delete(deleted[i])) {
        std::fprintf(stderr, "check churn: delete of unknown id %u\n",
                     deleted[i]);
        ++mismatches;
      }
    }
    ref.Compact();
    // Lookups of pool texts, of inserted texts, and (for the corruption
    // test to bite) of the first deleted record's text.
    Rng pick(p.seed ^ 0x434845434bull);
    for (uint64_t i = 0; i < kCheckSamples; ++i) {
      samples.push_back(texts.lookups[pick.UniformU32(
          static_cast<uint32_t>(texts.lookups.size()))]);
    }
    const size_t stride = std::max<size_t>(1, inserted.size() / std::max<uint64_t>(1, kCheckSamples / 2));
    for (size_t i = 0; i < inserted.size(); i += stride) {
      samples.push_back(texts.inserts[inserted[i].second]);
    }
    if (!deleted.empty()) {
      for (const auto& [id, text] : inserted) {
        if (id == deleted[0]) samples.push_back(texts.inserts[text]);
      }
    }
    for (const std::string& sample : samples) {
      sample_expected.push_back(ref.Lookup(sample));
    }
    checked += samples.size();
    mismatches += CheckSamples(server->port(), samples, sample_expected,
                               "churn after compaction");
  }
  if (!server->Terminate(60)) {
    std::fprintf(stderr, "server did not shut down cleanly\n");
    return kExitInvalid;
  }

  // Relaunch on the churned data dir: every acknowledged write survives.
  double reopen_s = 0;
  if (churn) {
    ServerProcess relaunched;
    if (!relaunched.Launch(server_binary, args, log_path, 120, &error)) {
      std::fprintf(stderr, "relaunch failed: %s\n", error.c_str());
      return kExitCheckFailed;
    }
    reopen_s = relaunched.setup_seconds();
    const long want_live =
        static_cast<long>(ref.size()) + (p.corrupt == "relaunch" ? 1 : 0);
    const long live = relaunched.LiveRecordsFromLog(10);
    if (live != want_live) {
      std::fprintf(stderr, "check relaunch: %ld live records, want %ld\n",
                   live, want_live);
      ++mismatches;
    }
    checked += samples.size() + 1;
    mismatches += CheckSamples(relaunched.port(), samples, sample_expected,
                               "churn after relaunch");
    if (!relaunched.Terminate(60)) {
      std::fprintf(stderr, "relaunched server did not shut down cleanly\n");
      return kExitInvalid;
    }
  }

  // Open-loop validity.
  size_t late = 0;
  for (double us : late_us) late += us > kLateLimitUs ? 1 : 0;
  const double late_share = Ratio(static_cast<double>(late),
                                  static_cast<double>(late_us.size()));
  std::printf("generator lateness: p50 %.1f us, p99 %.1f us, max %.1f us, "
              "%zu of %zu requests over %.0f us (limit %.0f%%)\n",
              Quantile(&late_us, 0.5), Quantile(&late_us, 0.99),
              Quantile(&late_us, 1.0), late, late_us.size(), kLateLimitUs,
              100 * kLateShareLimit);
  if (late_share > kLateShareLimit) {
    std::fprintf(stderr, "INVALID RUN: the generator fell behind its "
                         "schedule (%.2f%% of requests late)\n",
                 100 * late_share);
    return kExitInvalid;
  }

  // End-to-end report. The JSON line (untraced runs) carries setup_s,
  // rss_mb, latency_us and throughput_per_s.
  auto e2e = [&](const char* name, double value, const char* unit,
                 const std::string& note) {
    if (trace) {
      report.Line(name, value, unit, note);
    } else {
      report.Metric(name, value, unit, note);
    }
  };
  const LatencySummary reads = Summarize(read_us);
  const LatencySummary writes = Summarize(write_us);
  const LatencySummary closed_reads = Summarize(closed_read_us);
  char note[160];
  std::printf("workload %s: %llu records, seed %llu, %u connections, "
              "%llu slices of %.0f req/s offered for %.2f s then closed "
              "loop for %.2f s\n",
              churn ? "churn" : "lookup",
              static_cast<unsigned long long>(p.records),
              static_cast<unsigned long long>(p.seed), num_conns,
              static_cast<unsigned long long>(kSlices), p.rate, latency_s,
              capacity_s);
  std::snprintf(note, sizeof(note), "median of %zu launches", setups.size());
  e2e("setup_s", Median(setups), "s", note);
  e2e("rss_mb", rss_mb, "MB", "server VmHWM");
  std::snprintf(note, sizeof(note), "read_p50_us, n=%zu", reads.count);
  e2e("latency_us", reads.p50, "us", note);
  e2e("throughput_per_s", qps_max, "1/s",
      "qps_max, median of the closed-loop slices");
  std::string by_slice;
  for (double qps : slice_qps) by_slice += " " + std::to_string(static_cast<long>(qps));
  report.Line("qps_max", qps_max, "req/s",
              "closed-loop completions " + std::to_string(closed_completed) +
                  "; by slice:" + by_slice);
  std::string p50_by_slice;
  for (double us : slice_read_p50) p50_by_slice += " " + std::to_string(static_cast<long>(us));
  report.Line("read_p50_us", reads.p50, "us",
              "n=" + std::to_string(reads.count) + "; by slice:" + p50_by_slice);
  const std::string reads_n = "n=" + std::to_string(reads.count);
  if (reads.has_p99) report.Line("read_p99_us", reads.p99, "us", reads_n);
  if (reads.has_p999) report.Line("read_p999_us", reads.p999, "us", reads_n);
  if (churn) {
    report.Line("write_p50_us", writes.p50, "us",
                "n=" + std::to_string(writes.count));
    if (writes.has_p99) {
      report.Line("write_p99_us", writes.p99, "us",
                  "n=" + std::to_string(writes.count));
    }
    report.Line("reopen_s", reopen_s, "s", "relaunch to PORT");
    report.Line("disk_mb", disk_mb, "MB", "data dir after final compaction");
    report.Line("write_amp", Ratio(write_bytes, inserted_bytes), "ratio",
                "server write_bytes / inserted text bytes");
    report.Line("segments", JsonNumber(stats_json, "segments"), "count",
                "after the final compaction");
    report.Line("delete_fallbacks", static_cast<double>(fallbacks), "count",
                "deletes sent as lookups (nothing acknowledged yet)");
  }
  report.Line("closed_read_p50_us", closed_reads.p50, "us",
              "closed loop, n=" + std::to_string(closed_reads.count));
  report.Line("error_rate",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              "fraction",
              std::to_string(failed) + " of " + std::to_string(attempted));
  report.Line("answers_checked", static_cast<double>(checked), "count",
              std::to_string(mismatches) + " mismatches");

  if (trace) {
    Tracer untraced(false), traced(true);
    Report unused;
    const std::string replay_dir = workdir + "/replay";
    auto replay = [&](Tracer* tracer, Report* out) {
      return ReplayServing(p, texts, plan, replay_dir, data_dir, tracer, out,
                           reads.p50);
    };
    // Untraced replays bracket the traced one, so drift cancels.
    const double untraced_first_s = replay(&untraced, &unused);
    const double traced_s = replay(&traced, &report);
    const double untraced_s = (untraced_first_s + replay(&untraced, &unused)) / 2;
    Layer(&report, "net.bytes_per_response", bytes_per_response);
    if (churn) {
      Layer(&report, "serve.write_amp", Ratio(write_bytes, inserted_bytes));
    }
    FinishTrace(config, &report, traced, untraced_s, traced_s);
  }
  const bool correct = mismatches == 0;
  report.PrintJson(correct, attempted, failed);
  return correct ? 0 : kExitCheckFailed;
}

namespace {

struct JoinRun {
  double seconds = 0;
  JoinStats stats;
};

/// One RunJoin call, timed; pairs land in `pairs` (sorted).
JoinRun TimedJoin(RecordSet* corpus, const Predicate& pred,
                  JoinAlgorithm algorithm, int threads,
                  std::vector<std::pair<RecordId, RecordId>>* pairs) {
  JoinOptions options;
  options.num_threads = threads;
  pairs->clear();
  JoinRun run;
  const uint64_t start = NowNanos();
  Result<JoinStats> result =
      RunJoin(corpus, pred, algorithm, options,
              [pairs](RecordId a, RecordId b) { pairs->emplace_back(a, b); });
  run.seconds = SecondsSince(start);
  if (!result.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", JoinAlgorithmName(algorithm),
                 result.status().ToString().c_str());
    std::exit(kExitInvalid);
  }
  run.stats = result.value();
  std::sort(pairs->begin(), pairs->end());
  return run;
}

/// The in-process replay of the batch join with every layer in a span.
double ReplayBatchJoin(const std::vector<std::string>& texts,
                       const Predicate& pred, int threads, Tracer* tracer,
                       Report* report) {
  const uint64_t start = NowNanos();
  TokenDictionary dict;
  RecordSet corpus;
  CorpusLayers layers = MeasureCorpusLayers(tracer, texts, pred, &dict, &corpus);
  for (uint32_t i = 0; i < texts.size(); ++i) {
    Tracer::Scope span(tracer, "text.tokenize", i);
    RecordSet one = BuildWordCorpus({texts[i]}, &dict);
  }
  std::vector<std::pair<RecordId, RecordId>> pairs;
  JoinRun cluster, parallel;
  {
    Tracer::Scope span(tracer, "core.join_cluster");
    cluster = TimedJoin(&corpus, pred, JoinAlgorithm::kProbeCluster, 1, &pairs);
  }
  {
    Tracer::Scope span(tracer, "core.join_parallel");
    parallel = TimedJoin(&corpus, pred, JoinAlgorithm::kProbeSort, threads,
                         &pairs);
  }
  const double wall_s = SecondsSince(start);
  if (!tracer->enabled()) return wall_s;

  ReportCorpusLayers(report, layers);
  Layer(report, "text.tokenize_us",
        Median(tracer->DurationsUs("text.tokenize")));
  for (const auto& [name, run] :
       {std::pair<const char*, const JoinRun*>{"cluster", &cluster},
        std::pair<const char*, const JoinRun*>{"parallel", &parallel}}) {
    std::printf("join %-8s verified=%llu pairs=%llu heap_pops=%llu "
                "gallop_probes=%llu merges=%llu index_postings=%llu\n",
                name,
                static_cast<unsigned long long>(run->stats.candidates_verified),
                static_cast<unsigned long long>(run->stats.pairs),
                static_cast<unsigned long long>(run->stats.merge.heap_pops),
                static_cast<unsigned long long>(run->stats.merge.gallop_probes),
                static_cast<unsigned long long>(run->stats.merge.merges),
                static_cast<unsigned long long>(run->stats.index_postings));
  }
  const JoinStats& stats = parallel.stats;
  Layer(report, "core.join_verified",
        static_cast<double>(stats.candidates_verified));
  Layer(report, "core.join_verify_yield",
        Ratio(static_cast<double>(stats.pairs),
              static_cast<double>(stats.candidates_verified)));
  Layer(report, "core.join_heap_pops", static_cast<double>(stats.merge.heap_pops));
  Layer(report, "core.join_gallop_probes",
        static_cast<double>(stats.merge.gallop_probes));
  LayerMergeMetrics(report, stats.merge, static_cast<double>(texts.size()),
                    static_cast<double>(stats.candidates_verified),
                    static_cast<double>(stats.pairs));
  return wall_s;
}

}  // namespace

int RunBatchJoin(const Config& config) {
  const uint64_t seed = config.Count("seed");
  const double seconds = config.Number("seconds");
  const uint64_t records = config.Count("records");
  const int threads = kJoinThreads;
  const uint64_t builds = kSetupRepeats;
  const bool trace = config.Number("trace") != 0;
  const std::string corrupt = config.Has("corrupt") ? config.Text("corrupt") : "";
  JaccardPredicate pred(kThreshold);
  Report report;

  const std::vector<std::string> texts =
      GenerateTexts(seed, records, 0, 0).corpus;
  // Set-up: building the corpus, median of several builds.
  std::vector<double> setups;
  RecordSet corpus;
  for (uint64_t i = 0; i < builds; ++i) {
    TokenDictionary dict;
    const uint64_t start = NowNanos();
    corpus = BuildWordCorpus(texts, &dict);
    setups.push_back(SecondsSince(start));
  }

  // Join rounds until the time is spent: the serial Probe-Cluster join
  // and the parallel Probe-Sort join must agree pair for pair.
  std::vector<double> cluster_s, parallel_s;
  std::vector<std::pair<RecordId, RecordId>> cluster_pairs, parallel_pairs;
  bool correct = true;
  uint64_t joins = 0;
  const uint64_t start = NowNanos();
  do {
    cluster_s.push_back(TimedJoin(&corpus, pred, JoinAlgorithm::kProbeCluster,
                                  1, &cluster_pairs).seconds);
    parallel_s.push_back(TimedJoin(&corpus, pred, JoinAlgorithm::kProbeSort,
                                   threads, &parallel_pairs).seconds);
    joins += 2;
    if (corrupt == "batch_join" && !cluster_pairs.empty()) {
      cluster_pairs.pop_back();
    }
    if (cluster_pairs != parallel_pairs) {
      std::fprintf(stderr, "check batch_join: Cluster found %zu pairs, "
                           "%d-thread ProbeCount-sort %zu, or they differ\n",
                   cluster_pairs.size(), threads, parallel_pairs.size());
      correct = false;
      break;
    }
  } while (SecondsSince(start) < seconds);
  const double rss_mb = ProcStatusMb(getpid(), "VmHWM");

  auto e2e = [&](const char* name, double value, const char* unit,
                 const std::string& note) {
    if (trace) {
      report.Line(name, value, unit, note);
    } else {
      report.Metric(name, value, unit, note);
    }
  };
  std::printf("workload batch_join: %llu records, seed %llu, %zu rounds, "
              "%zu pairs\n",
              static_cast<unsigned long long>(records),
              static_cast<unsigned long long>(seed), cluster_s.size(),
              parallel_pairs.size());
  e2e("setup_s", Median(setups), "s",
      "corpus build, median of " + std::to_string(setups.size()));
  e2e("rss_mb", rss_mb, "MB", "benchmark process VmHWM");
  // Median round, not best: on a shared host round times are bimodal (a
  // quiet or a contended core), and whether a run catches any quiet round
  // varies far more from run to run than its median round does.
  e2e("latency_us", Median(cluster_s) * 1e6, "us",
      "serial Cluster join wall time, median round");
  e2e("throughput_per_s", static_cast<double>(records) / Median(parallel_s),
      "1/s", "records per second, " + std::to_string(threads) +
                 "-thread ProbeCount-sort, median round");
  std::string rounds;
  for (size_t i = 0; i < cluster_s.size(); ++i) {
    char buffer[48];
    std::snprintf(buffer, sizeof(buffer), " %.3f/%.3f", cluster_s[i],
                  parallel_s[i]);
    rounds += buffer;
  }
  report.Line("join_cluster_s", Median(cluster_s), "s",
              "median of " + std::to_string(cluster_s.size()) +
                  "; rounds (cluster/parallel s):" + rounds);
  report.Line("join_parallel_s", Median(parallel_s), "s",
              "median of " + std::to_string(parallel_s.size()));

  if (trace) {
    Tracer untraced(false), traced(true);
    Report unused;
    // Untraced replays bracket the traced one, so drift cancels.
    const double untraced_first_s =
        ReplayBatchJoin(texts, pred, threads, &untraced, &unused);
    const double traced_s =
        ReplayBatchJoin(texts, pred, threads, &traced, &report);
    const double untraced_s =
        (untraced_first_s +
         ReplayBatchJoin(texts, pred, threads, &untraced, &unused)) / 2;
    FinishTrace(config, &report, traced, untraced_s, traced_s);
  }
  report.PrintJson(correct, joins, 0);
  return correct ? 0 : kExitCheckFailed;
}

}  // namespace perfbench
