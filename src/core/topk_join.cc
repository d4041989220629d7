#include "core/topk_join.h"

#include <algorithm>
#include <queue>

#include "core/cosine_predicate.h"
#include "core/merge_opt.h"
#include "core/overlap_predicate.h"
#include "index/inverted_index.h"
#include "util/function_ref.h"
#include "util/logging.h"

namespace ssjoin {

namespace {

/// Per-metric plumbing: how records are prepared, how a pair's score is
/// derived from its exact overlap, and the smallest overlap a pair with
/// the given norms needs to reach a target score (monotone in both norms,
/// like the Section 5 threshold functions).
struct MetricPlan {
  void (*prepare)(RecordSet*);
  double (*score)(double overlap, double norm_a, double norm_b);
  double (*required_overlap)(double target, double norm_a, double norm_b);
};

void PrepareUnit(RecordSet* records) {
  for (RecordId id = 0; id < records->size(); ++id) {
    size_t size = records->record_size(id);
    for (size_t i = 0; i < size; ++i) records->set_score(id, i, 1.0);
    records->set_norm(id, static_cast<double>(size));
  }
}

void PrepareCosine(RecordSet* records) {
  CosinePredicate(/*fraction=*/1.0).Prepare(records);
}

MetricPlan PlanFor(TopKMetric metric) {
  switch (metric) {
    case TopKMetric::kOverlap:
      return {PrepareUnit,
              [](double o, double, double) { return o; },
              [](double t, double, double) { return t; }};
    case TopKMetric::kJaccard:
      return {PrepareUnit,
              [](double o, double na, double nb) {
                double u = na + nb - o;
                return u > 0 ? o / u : 0.0;
              },
              [](double t, double na, double nb) {
                return t / (1.0 + t) * (na + nb);
              }};
    case TopKMetric::kCosine:
      return {PrepareCosine,
              [](double o, double, double) { return o; },
              [](double t, double, double) { return t; }};
    case TopKMetric::kDice:
      return {PrepareUnit,
              [](double o, double na, double nb) {
                double d = na + nb;
                return d > 0 ? 2.0 * o / d : 0.0;
              },
              [](double t, double na, double nb) {
                return t / 2.0 * (na + nb);
              }};
  }
  return {PrepareUnit, nullptr, nullptr};
}

struct HeapOrder {
  bool operator()(const TopKMatch& x, const TopKMatch& y) const {
    if (x.score != y.score) return x.score > y.score;  // min-heap on score
    return PairKey(x.a, x.b) < PairKey(y.a, y.b);
  }
};

}  // namespace

const char* TopKMetricName(TopKMetric metric) {
  switch (metric) {
    case TopKMetric::kOverlap:
      return "overlap";
    case TopKMetric::kJaccard:
      return "jaccard";
    case TopKMetric::kCosine:
      return "cosine";
    case TopKMetric::kDice:
      return "dice";
  }
  return "unknown";
}

Result<std::vector<TopKMatch>> TopKJoin(RecordSet* records,
                                        TopKMetric metric, size_t k,
                                        JoinStats* stats_out) {
  MetricPlan plan = PlanFor(metric);
  plan.prepare(records);
  JoinStats stats;

  std::vector<TopKMatch> heap;  // min-heap (HeapOrder) of the best k
  auto bound = [&heap, k]() {
    // Smallest score that could still improve the result. While the heap
    // is not full any positive-similarity pair qualifies.
    return heap.size() < k ? 0.0 : heap.front().score;
  };

  std::vector<RecordId> order = records->IdsByDecreasingNorm();
  InvertedIndex index;  // keyed by processing position
  index.PlanFromRecords(*records);
  std::vector<PostingListView> lists;
  std::vector<double> probe_scores;
  ListMerger merger;

  if (k > 0) {
    for (uint32_t pos = 0; pos < order.size(); ++pos) {
      RecordId id = order[pos];
      const RecordView probe = records->record(id);
      if (index.num_entities() > 0 && !probe.empty()) {
        // The merge floor ratchets with the k-th best score; per-candidate
        // bounds sharpen it with the candidate's own norm.
        auto required_fn = [&](RecordId m) {
          return plan.required_overlap(
              bound(), probe.norm(), records->record(order[m]).norm());
        };
        FunctionRef<double(RecordId)> required = required_fn;
        double floor =
            plan.required_overlap(bound(), probe.norm(), index.min_norm());
        CollectProbeLists(index, probe, &lists, &probe_scores);
        merger.Reset(lists, probe_scores, std::max(floor, 0.0),
                     /*min_overlap=*/0, required, nullptr, {}, &stats.merge);
        MergeCandidate candidate;
        while (merger.Next(&candidate)) {
          RecordId other = order[candidate.id];
          ++stats.candidates_verified;
          const RecordView rec_other = records->record(other);
          // Canonical overlap recomputation keeps scores bit-identical to
          // the brute-force reference.
          double overlap = probe.OverlapWith(rec_other);
          double score =
              plan.score(overlap, probe.norm(), rec_other.norm());
          if (score <= 0) continue;
          TopKMatch match{std::min(id, other), std::max(id, other), score};
          if (heap.size() < k) {
            heap.push_back(match);
            std::push_heap(heap.begin(), heap.end(), HeapOrder());
          } else if (HeapOrder()(match, heap.front())) {
            // match ranks above the current k-th best
            std::pop_heap(heap.begin(), heap.end(), HeapOrder());
            heap.back() = match;
            std::push_heap(heap.begin(), heap.end(), HeapOrder());
            merger.RaiseFloor(plan.required_overlap(
                bound(), probe.norm(), index.min_norm()));
          }
        }
      }
      index.Insert(pos, probe);
    }
  }

  std::sort(heap.begin(), heap.end(), [](const TopKMatch& x,
                                         const TopKMatch& y) {
    if (x.score != y.score) return x.score > y.score;
    return PairKey(x.a, x.b) < PairKey(y.a, y.b);
  });
  stats.pairs = heap.size();
  stats.index_postings = index.total_postings();
  if (stats_out != nullptr) *stats_out = stats;
  return heap;
}

}  // namespace ssjoin
