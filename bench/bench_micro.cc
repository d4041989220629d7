// Substrate microbenchmarks (google-benchmark): the primitives whose
// constants drive the figure-level results — heap merge vs MergeOpt,
// galloping search, MinHash signatures, varint coding, banded vs full
// edit distance — plus the storage-layout benches (index build and probe
// throughput with heap-allocation counters) that track the CSR arena.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/merge_opt.h"
#include "core/overlap_predicate.h"
#include "core/probe_common.h"
#include "core/probe_join.h"
#include "data/record_set.h"
#include "index/compressed_postings.h"
#include "index/inverted_index.h"
#include "index/posting_list.h"
#include "minhash/minhash.h"
#include "text/edit_distance.h"
#include "util/rng.h"
#include "util/varint.h"

// Global allocation counter: every operator new in the process, plain
// and over-aligned, bumps it, so a delta across a timed region counts
// heap allocations exactly. Used by the layout benches to verify the
// probe loop performs zero per-record allocations.
static std::atomic<uint64_t> g_alloc_calls{0};

static void* CountedAlloc(std::size_t size, std::size_t align) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size == 0 ? 1 : size);
  } else if (posix_memalign(&p, align, size == 0 ? 1 : size) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size) { return CountedAlloc(size, 0); }
void* operator new[](std::size_t size) { return CountedAlloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ssjoin {
namespace {

std::vector<PostingList> SkewedLists(int num_lists, uint32_t universe,
                                     uint64_t seed) {
  // One hot list (every other id) + progressively sparser lists, the skew
  // regime MergeOpt exploits.
  Rng rng(seed);
  std::vector<PostingList> lists(num_lists);
  for (int i = 0; i < num_lists; ++i) {
    double density = i == 0 ? 0.5 : 0.5 / (i * 4);
    for (uint32_t id = 0; id < universe; ++id) {
      if (rng.Bernoulli(density)) lists[i].Append(id, 1.0);
    }
  }
  return lists;
}

void BM_MergePlain(benchmark::State& state) {
  std::vector<PostingList> lists = SkewedLists(8, 20000, 1);
  std::vector<PostingListView> views;
  for (const auto& l : lists) views.push_back(l.view());
  std::vector<double> scores(lists.size(), 1.0);
  double threshold = static_cast<double>(state.range(0));
  for (auto _ : state) {
    ListMerger merger(views, scores, threshold, nullptr, nullptr,
                      {.split_lists = false}, nullptr);
    MergeCandidate c;
    uint64_t count = 0;
    while (merger.Next(&c)) ++count;
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_MergePlain)->Arg(3)->Arg(5)->Arg(7);

void BM_MergeOpt(benchmark::State& state) {
  std::vector<PostingList> lists = SkewedLists(8, 20000, 1);
  std::vector<PostingListView> views;
  for (const auto& l : lists) views.push_back(l.view());
  std::vector<double> scores(lists.size(), 1.0);
  double threshold = static_cast<double>(state.range(0));
  for (auto _ : state) {
    ListMerger merger(views, scores, threshold, nullptr, nullptr,
                      {.split_lists = true}, nullptr);
    MergeCandidate c;
    uint64_t count = 0;
    while (merger.Next(&c)) ++count;
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_MergeOpt)->Arg(3)->Arg(5)->Arg(7);

void BM_GallopFind(benchmark::State& state) {
  PostingList list;
  for (uint32_t id = 0; id < 1u << 20; id += 2) list.Append(id, 1.0);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(list.GallopFind(rng.NextU32() % (1u << 20)));
  }
}
BENCHMARK(BM_GallopFind);

void BM_MinHashSignature(benchmark::State& state) {
  MinHasher hasher(static_cast<int>(state.range(0)), 7);
  Rng rng(9);
  std::vector<uint32_t> ids(200);
  for (uint32_t& id : ids) id = rng.NextU32();
  for (auto _ : state) {
    benchmark::DoNotOptimize(hasher.Signature(ids));
  }
}
BENCHMARK(BM_MinHashSignature)->Arg(16)->Arg(64);

void BM_VarintDeltaRoundTrip(benchmark::State& state) {
  Rng rng(11);
  std::vector<uint32_t> ids;
  uint32_t v = 0;
  for (int i = 0; i < 10000; ++i) {
    v += 1 + rng.UniformU32(50);
    ids.push_back(v);
  }
  for (auto _ : state) {
    std::string encoded = EncodeDeltaList(ids);
    std::vector<uint32_t> decoded;
    DecodeDeltaList(encoded, &decoded);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_VarintDeltaRoundTrip);

void BM_EditDistanceFull(benchmark::State& state) {
  Rng rng(13);
  std::string a(64, 'x'), b(64, 'x');
  for (char& c : a) c = static_cast<char>('a' + rng.UniformU32(26));
  b = a;
  b[10] = '!';
  b[40] = '?';
  for (auto _ : state) {
    benchmark::DoNotOptimize(EditDistance(a, b));
  }
}
BENCHMARK(BM_EditDistanceFull);

void BM_EditDistanceBanded(benchmark::State& state) {
  Rng rng(13);
  std::string a(64, 'x');
  for (char& c : a) c = static_cast<char>('a' + rng.UniformU32(26));
  std::string b = a;
  b[10] = '!';
  b[40] = '?';
  size_t k = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EditDistanceAtMost(a, b, k));
  }
}
BENCHMARK(BM_EditDistanceBanded)->Arg(2)->Arg(4);

// ---- Storage-layout benches (BENCH_layout.json before/after) -----------

RecordSet MakeLayoutBenchSet(uint32_t num_records, uint32_t vocab,
                             uint64_t seed) {
  Rng rng(seed);
  ZipfTable zipf(vocab, 0.9);
  RecordSet set;
  for (uint32_t i = 0; i < num_records; ++i) {
    std::vector<TokenId> tokens;
    int count = rng.UniformInt(4, 24);
    for (int t = 0; t < count; ++t) tokens.push_back(zipf.Sample(rng));
    set.Add(Record::FromTokens(tokens), "");
  }
  return set;
}

void BM_LayoutIndexBuild(benchmark::State& state) {
  RecordSet set =
      MakeLayoutBenchSet(static_cast<uint32_t>(state.range(0)), 600, 21);
  OverlapPredicate pred(4.0);
  pred.Prepare(&set);
  uint64_t postings = set.total_token_occurrences();
  for (auto _ : state) {
    InvertedIndex index;
    index.PlanFromRecords(set);
    for (RecordId id = 0; id < set.size(); ++id) {
      index.Insert(id, set.record(id));
    }
    benchmark::DoNotOptimize(index.total_postings());
  }
  state.SetItemsProcessed(state.iterations() * set.size());  // records/s
  state.counters["postings/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * postings),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LayoutIndexBuild)->Arg(2000)->Arg(10000);

void BM_LayoutProbe(benchmark::State& state) {
  RecordSet set =
      MakeLayoutBenchSet(static_cast<uint32_t>(state.range(0)), 600, 22);
  OverlapPredicate pred(4.0);
  pred.Prepare(&set);
  InvertedIndex index;
  index.PlanFromRecords(set);
  for (RecordId id = 0; id < set.size(); ++id) {
    index.Insert(id, set.record(id));
  }
  const uint32_t n = set.size();
  std::vector<PostingListView> lists;
  std::vector<double> probe_scores;
  ListMerger merger;
  MergeStats merge_stats;
  uint64_t candidates = 0;
  uint64_t allocs = 0;
  // Untimed warm-up pass: grows the scratch buffers to steady-state
  // capacity so the timed counter isolates per-probe allocations.
  for (RecordId id = 0; id < n; ++id) {
    const RecordView probe = set.record(id);
    double floor = pred.ThresholdForNorms(probe.norm(), index.min_norm());
    CollectProbeLists(index, probe, &lists, &probe_scores);
    merger.Reset(lists, probe_scores, floor, nullptr, nullptr,
                 {.split_lists = true}, &merge_stats);
    MergeCandidate candidate;
    while (merger.Next(&candidate)) {
    }
  }
  merge_stats = MergeStats();
  for (auto _ : state) {
    uint64_t alloc_start = g_alloc_calls.load(std::memory_order_relaxed);
    for (RecordId id = 0; id < n; ++id) {
      const RecordView probe = set.record(id);
      double floor = pred.ThresholdForNorms(probe.norm(), index.min_norm());
      CollectProbeLists(index, probe, &lists, &probe_scores);
      merger.Reset(lists, probe_scores, floor, nullptr, nullptr,
                   {.split_lists = true}, &merge_stats);
      MergeCandidate candidate;
      while (merger.Next(&candidate)) ++candidates;
    }
    allocs += g_alloc_calls.load(std::memory_order_relaxed) - alloc_start;
  }
  benchmark::DoNotOptimize(candidates);
  state.SetItemsProcessed(state.iterations() * n);  // probes/s
  state.counters["postings/s"] = benchmark::Counter(
      static_cast<double>(merge_stats.heap_pops + merge_stats.gallop_probes),
      benchmark::Counter::kIsRate);
  state.counters["allocs_per_probe"] =
      static_cast<double>(allocs) /
      static_cast<double>(state.iterations() * n);
}
BENCHMARK(BM_LayoutProbe)->Arg(2000)->Arg(10000);

// The bitmap-sweep workload: near-duplicate detection over a
// boilerplate-heavy corpus, the regime the prefilter targets. Three
// vocabulary tiers model citation records: a small boilerplate band
// (venue/publisher strings — 40% of records carry nearly all of it, the
// rest almost none), a mid band of common phrase tokens, and a long
// tail of content tokens. 30% of records are lightly edited copies of
// an earlier record, so a high overlap threshold has real matches to
// find. Under Probe-stopWords the boilerplate band becomes the stopword
// set, so boilerplate-heavy probes get tiny reduced thresholds and the
// merge emits swarms of candidates that merely share a few mid-band
// tokens. Full verification rejects them — and the parity bitmaps bound
// the clean ones out near 12, far under the threshold, so the bitmap
// emit gate skips those verifications wholesale. (Total distinct tokens per
// record stay near 55, well below 256-bit parity saturation.)
constexpr uint32_t kBenchBoilerplate = 26;  // boilerplate band tokens
constexpr uint32_t kBenchMidBand = 30;      // common-phrase band tokens

RecordSet MakeBitmapBenchSet(uint32_t num_records, uint32_t vocab,
                             uint64_t seed) {
  Rng rng(seed);
  RecordSet set;
  std::vector<std::vector<TokenId>> bodies;
  bodies.reserve(num_records);
  const uint32_t tail_base = kBenchBoilerplate + kBenchMidBand;
  for (uint32_t i = 0; i < num_records; ++i) {
    std::vector<TokenId> tokens;
    if (!bodies.empty() && rng.Bernoulli(0.3)) {
      tokens = bodies[rng.UniformU32(static_cast<uint32_t>(bodies.size()))];
      int edits = rng.UniformInt(1, 4);
      for (int e = 0; e < edits; ++e) {
        tokens[rng.UniformU32(static_cast<uint32_t>(tokens.size()))] =
            tail_base + rng.UniformU32(vocab - tail_base);
      }
    } else {
      // Boilerplate presence is bimodal so the corpus frequency of the
      // band stays above the mid band (stopword selection is by corpus
      // frequency) while clean records share almost none of it.
      const double boiler_rate = rng.Bernoulli(0.4) ? 0.95 : 0.04;
      for (uint32_t b = 0; b < kBenchBoilerplate; ++b) {
        if (rng.Bernoulli(boiler_rate)) tokens.push_back(b);
      }
      for (int m = 0; m < 12; ++m) {
        tokens.push_back(kBenchBoilerplate + rng.UniformU32(kBenchMidBand));
      }
      int tail = rng.UniformInt(18, 30);
      for (int t = 0; t < tail; ++t) {
        tokens.push_back(tail_base + rng.UniformU32(vocab - tail_base));
      }
    }
    bodies.push_back(tokens);
    set.Add(Record::FromTokens(tokens), "");
  }
  return set;
}

// Join-level bitmap sweep: the stopword join holds candidates to each
// probe's REDUCED threshold and re-verifies every emitted candidate on
// the full records, so the bitmap's emit-level gate skips whole
// verifications (an O(record length) overlap merge each) rather than
// just gallops. Pairs must be identical with the filter on and off —
// the bench ABORTS on any drift in the pair count.
void BM_JoinBitmap(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  const bool bitmaps = state.range(1) != 0;
  RecordSet set = MakeBitmapBenchSet(n, n, 24);
  OverlapPredicate pred(28.0);
  pred.Prepare(&set);
  ProbeJoinOptions options;
  options.stopwords = true;
  bool failed = false;
  auto run_join = [&](bool filter, JoinStats* stats) {
    ProbeJoinOptions o = options;
    o.bitmap_filter = filter;
    uint64_t pairs = 0;
    Result<JoinStats> result =
        ProbeJoin(set, pred, o, [&pairs](RecordId, RecordId) { ++pairs; });
    if (!result.ok()) failed = true;
    if (stats != nullptr && result.ok()) *stats = result.value();
    return pairs;
  };
  const uint64_t baseline_pairs = run_join(false, nullptr);
  uint64_t pairs = 0;
  JoinStats stats;
  for (auto _ : state) {
    pairs += run_join(bitmaps, &stats);
  }
  if (failed) {
    state.SkipWithError("ProbeJoin returned an error");
    return;
  }
  if (pairs != baseline_pairs * static_cast<uint64_t>(state.iterations())) {
    state.SkipWithError("bitmap-filtered join changed the pair count");
    return;
  }
  state.SetItemsProcessed(state.iterations() * set.size());  // records/s
  state.SetLabel(ActiveMergeBackend());
  state.counters["verified_per_record"] =
      static_cast<double>(stats.candidates_verified) /
      static_cast<double>(set.size());
  state.counters["pruned_per_record"] =
      static_cast<double>(stats.merge.bitmap_pruned) /
      static_cast<double>(set.size());
}
BENCHMARK(BM_JoinBitmap)
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->Args({20000, 0})
    ->Args({20000, 1})
    ->Unit(benchmark::kMillisecond);

void BM_CompressPostingList(benchmark::State& state) {
  PostingList list;
  Rng rng(15);
  uint32_t id = 0;
  for (int i = 0; i < 10000; ++i) {
    id += 1 + rng.UniformU32(20);
    list.Append(id, 1.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        CompressedPostingList::FromPostingList(list.view()));
  }
}
BENCHMARK(BM_CompressPostingList);

}  // namespace
}  // namespace ssjoin
