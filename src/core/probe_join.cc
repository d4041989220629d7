#include "core/probe_join.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <optional>
#include <vector>

#include "core/parallel_probe.h"
#include "core/probe_common.h"
#include "util/function_ref.h"

namespace ssjoin {

namespace {

using probe_internal::BuildStopwordPlan;
using probe_internal::ProbeOne;
using probe_internal::ProbeScratch;
using probe_internal::ReducedThreshold;
using probe_internal::StopwordPlan;

/// The techniques a Probe-Count rung turns on (see probe_join.h).
struct ProbeVariant {
  bool optimized_merge;  // MergeOpt (3.1) instead of the plain merge
  bool online;           // one build-and-probe pass (3.2) vs. two passes
  bool presort;          // decreasing norm order (3.3) vs. id order
  bool stopwords;        // frequent tokens left out of the index (3.1)
};

/// The one place a Probe-Count algorithm maps to its techniques; nullopt
/// for an algorithm outside the family.
std::optional<ProbeVariant> VariantOf(JoinAlgorithm algorithm) {
  switch (algorithm) {
    case JoinAlgorithm::kProbeCount:
      return ProbeVariant{.optimized_merge = false, .online = false,
                          .presort = false, .stopwords = false};
    case JoinAlgorithm::kProbeStopwords:
      return ProbeVariant{.optimized_merge = false, .online = false,
                          .presort = false, .stopwords = true};
    case JoinAlgorithm::kProbeOptMerge:
      return ProbeVariant{.optimized_merge = true, .online = false,
                          .presort = false, .stopwords = false};
    case JoinAlgorithm::kProbeOnline:
      return ProbeVariant{.optimized_merge = true, .online = true,
                          .presort = false, .stopwords = false};
    case JoinAlgorithm::kProbeSort:
      return ProbeVariant{.optimized_merge = true, .online = true,
                          .presort = true, .stopwords = false};
    default:
      return std::nullopt;
  }
}

/// The postings of `index` at positions below `limit`: what the serial
/// online probe at position `limit` sees of a frozen index.
struct IndexPrefix {
  const InvertedIndex& index;
  RecordId limit;
};

/// The CollectProbeLists overload ProbeOne picks for an IndexPrefix:
/// each list is trimmed to its postings below the limit, and lists left
/// empty are dropped, exactly as the growing index would not yet hold
/// them. A trimmed list keeps the whole list's max score, which still
/// bounds every posting it keeps.
void CollectProbeLists(const IndexPrefix& prefix, RecordView probe,
                       std::vector<PostingListView>* lists,
                       std::vector<double>* probe_scores) {
  // The serial loops' index holds no position at or past the limit, so
  // nothing needs trimming (and no list's last posting needs reading).
  if (prefix.index.num_entities() <= prefix.limit) {
    ssjoin::CollectProbeLists(prefix.index, probe, lists, probe_scores);
    return;
  }
  lists->clear();
  probe_scores->clear();
  for (size_t i = 0; i < probe.size(); ++i) {
    PostingListView list = prefix.index.list(probe.token(i));
    if (list.empty()) continue;
    if (list[list.size() - 1].id >= prefix.limit) {
      const size_t kept = list.LowerBound(prefix.limit);
      if (kept == 0) continue;
      list = PostingListView(&list[0], kept, list.max_score());
    }
    lists->push_back(list);
    probe_scores->push_back(probe.score(i));
  }
}

/// What every probe position reads and no probe writes: built once per
/// join, shared by all workers.
struct ProbePlan {
  const RecordSet& records;
  const Predicate& pred;
  ProbeVariant variant;
  std::vector<RecordId> order = {};  // processing position -> RecordId
  StopwordPlan stop_plan = {};
  /// prefix_min_norm[k] is the minimum norm over positions < k (+inf for
  /// k = 0): the min_norm() of an index holding the first k positions.
  std::vector<double> prefix_min_norm = {};
  MergeOptions merge_options = {};
};

/// The per-position probe shared by the serial and the parallel driver:
/// probes position `pos` against the postings of positions < `limit` in
/// `index`, verifies every candidate at an earlier position and emits the
/// matches. `limit` is `pos` for the online variants (the index the
/// serial online loop has grown so far) and n for the two-pass variants.
/// `scratch` is the calling worker's, reused across its probes.
void ProbePosition(const ProbePlan& plan, const InvertedIndex& index,
                   uint32_t pos, uint32_t limit, ProbeScratch* scratch,
                   JoinStats* stats, const PairSink& emit) {
  if (limit == 0) return;  // nothing is indexed before the first position
  const RecordSet& records = plan.records;
  const Predicate& pred = plan.pred;
  const RecordId probe_id = plan.order[pos];
  const RecordView probe = records.record(probe_id);

  auto verify_and_emit = [&](RecordId other) {
    ++stats->candidates_verified;
    if (pred.Matches(records, other, probe_id)) {
      ++stats->pairs;
      emit(std::min(other, probe_id), std::max(other, probe_id));
    }
  };

  double floor;
  auto required_fn = [&](RecordId m) {
    return pred.ThresholdForNorms(probe.norm(),
                                  records.record(plan.order[m]).norm());
  };
  FunctionRef<double(RecordId)> required;
  if (plan.variant.stopwords) {
    const double reduced = ReducedThreshold(probe, plan.stop_plan);
    if (reduced <= 0) {
      // Degenerate probe: its own stopwords could carry the whole
      // threshold, so every earlier record is a candidate.
      for (uint32_t m = 0; m < pos; ++m) verify_and_emit(plan.order[m]);
      return;
    }
    floor = reduced;
  } else {
    floor = pred.ThresholdForNorms(probe.norm(), plan.prefix_min_norm[limit]);
    required = required_fn;
  }
  auto filter_fn = [&](RecordId m) {
    return pred.NormFilter(probe.norm(), records.record(plan.order[m]).norm());
  };
  FunctionRef<bool(RecordId)> filter;
  if (pred.has_norm_filter()) filter = filter_fn;
  ProbeOne(
      IndexPrefix{index, limit}, probe, floor, /*min_overlap=*/0, required,
      filter, plan.merge_options, &stats->merge, scratch,
      [&](const MergeCandidate& candidate) {
        // A two-pass probe sees every record: skip self matches and emit
        // each unordered pair from its later endpoint only.
        if (candidate.id >= pos) return;
        verify_and_emit(plan.order[candidate.id]);
      });
}

}  // namespace

Result<JoinStats> ProbeJoin(const RecordSet& records, const Predicate& pred,
                            JoinAlgorithm algorithm, const PairSink& sink,
                            int num_threads) {
  const std::optional<ProbeVariant> variant = VariantOf(algorithm);
  if (!variant.has_value()) {
    return Status::InvalidArgument(
        "ProbeJoin runs the Probe-Count family only");
  }
  const size_t n = records.size();
  ProbePlan plan{.records = records, .pred = pred, .variant = *variant};

  if (variant->presort) {
    plan.order = records.IdsByDecreasingNorm();
  } else {
    plan.order.resize(n);
    std::iota(plan.order.begin(), plan.order.end(), 0);
  }

  if (variant->stopwords) {
    std::optional<double> constant = pred.ConstantThreshold();
    if (!constant.has_value()) {
      return Status::InvalidArgument(
          "Probe-stopWords requires a constant-threshold predicate; '" +
          pred.name() + "' has a pair-dependent threshold");
    }
    plan.stop_plan = BuildStopwordPlan(records, *constant);
  }
  const std::vector<bool>* skip =
      variant->stopwords ? &plan.stop_plan.is_stop : nullptr;

  plan.prefix_min_norm.resize(n + 1);
  plan.prefix_min_norm[0] = std::numeric_limits<double>::infinity();
  for (size_t k = 0; k < n; ++k) {
    plan.prefix_min_norm[k + 1] = std::min(
        plan.prefix_min_norm[k], records.record(plan.order[k]).norm());
  }

  plan.merge_options.split_lists = variant->optimized_merge;

  // The index is keyed by processing position so posting ids stay
  // strictly increasing under any processing order; `order` maps back to
  // RecordIds. Every record is inserted exactly once in every mode, so
  // the corpus document frequencies bound each token's extent. The serial
  // online loop grows it one record behind the probe; two-pass variants
  // and parallel runs freeze it whole before the first probe, and an
  // online probe then sees only the prefix below its own position.
  InvertedIndex index;
  index.PlanFromRecords(records);
  const bool grow_online = variant->online && num_threads <= 1;
  if (!grow_online) {
    for (uint32_t pos = 0; pos < n; ++pos) {
      index.Insert(pos, records.record(plan.order[pos]), skip);
    }
  }
  auto limit_of = [&](uint32_t pos) {
    return variant->online ? pos : static_cast<uint32_t>(n);
  };

  JoinStats stats;
  if (num_threads <= 1) {
    ProbeScratch scratch;
    for (uint32_t pos = 0; pos < n; ++pos) {
      ProbePosition(plan, index, pos, limit_of(pos), &scratch, &stats, sink);
      if (grow_online) {
        index.Insert(pos, records.record(plan.order[pos]), skip);
      }
    }
  } else {
    // The frozen index is read-only from here on; scratch is per worker.
    std::vector<ProbeScratch> scratches(num_threads);
    stats = ParallelProbeDriver::Run(
        n, num_threads,
        [&](uint32_t pos, int worker, JoinStats* worker_stats,
            const PairSink& emit) {
          ProbePosition(plan, index, pos, limit_of(pos), &scratches[worker],
                        worker_stats, emit);
        },
        sink);
  }
  stats.index_postings = index.total_postings();
  return stats;
}

}  // namespace ssjoin
