#include "core/streaming_join.h"

#include "util/logging.h"

namespace ssjoin {

StreamingJoin::StreamingJoin(const Predicate& pred) : pred_(pred) {
  SSJOIN_CHECK(pred.corpus_independent_scores())
      << "StreamingJoin requires per-record scores; predicate '"
      << pred.name() << "' weights records against corpus statistics";
}

RecordId StreamingJoin::Add(
    RecordView record, std::string text,
    const std::function<void(RecordId earlier)>& on_match) {
  // Single-record preparation: installs score(w, r) and the norm.
  RecordSet staging;
  staging.Add(record, std::move(text));
  pred_.Prepare(&staging);

  const probe_internal::ProbeTarget<DynamicIndex> target{
      index_, records_, /*record_ids=*/nullptr, &short_records_};
  probe_internal::ProbeMatches(
      pred_, target, staging.record(0), staging, 0, /*apply_filter=*/true,
      MergeOptions{}, /*gate_words=*/0, /*skip=*/nullptr, &stats_.merge,
      &stats_.candidates_verified, &scratch_,
      [&](RecordId, RecordId earlier) {
        ++stats_.pairs;
        on_match(earlier);
      });

  // Move the prepared record into the permanent set and index it.
  RecordId id = records_.Add(staging.record(0), staging.text(0));
  index_.Insert(id, records_.record(id));
  if (records_.record(id).norm() < pred_.ShortRecordNormBound()) {
    short_records_.push_back(id);
  }
  stats_.index_postings = index_.total_postings();
  return id;
}

}  // namespace ssjoin
