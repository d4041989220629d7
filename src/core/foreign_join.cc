#include "core/foreign_join.h"

#include <vector>

#include "core/probe_common.h"
#include "index/inverted_index.h"

namespace ssjoin {

Result<JoinStats> ForeignProbeJoin(RecordSet* left, RecordSet* right,
                                   const Predicate& pred,
                                   const CrossPairSink& sink) {
  pred.PrepareForJoin(left, right);
  JoinStats stats;

  InvertedIndex index;
  index.PlanFromRecords(*right);
  std::vector<RecordId> short_right;
  const double short_bound = pred.ShortRecordNormBound();
  for (RecordId id = 0; id < right->size(); ++id) {
    index.Insert(id, right->record(id));
    if (right->record(id).norm() < short_bound) short_right.push_back(id);
  }
  stats.index_postings = index.total_postings();

  const probe_internal::ProbeTarget<InvertedIndex> target{
      index, *right, /*record_ids=*/nullptr, &short_right};
  probe_internal::ProbeScratch scratch;
  for (RecordId left_id : left->IdsByDecreasingNorm()) {
    probe_internal::ProbeMatches(
        pred, target, left->record(left_id), *left, left_id, MergeOptions{},
        /*skip=*/nullptr, &stats.merge, &stats.candidates_verified, &scratch,
        [&](RecordId, RecordId right_id) {
          ++stats.pairs;
          sink(left_id, right_id);
        });
  }
  return stats;
}

}  // namespace ssjoin
