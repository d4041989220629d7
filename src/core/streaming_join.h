#ifndef SSJOIN_CORE_STREAMING_JOIN_H_
#define SSJOIN_CORE_STREAMING_JOIN_H_

#include <memory>
#include <vector>

#include "core/join_common.h"
#include "core/predicate.h"
#include "core/probe_common.h"
#include "data/record.h"
#include "data/record_set.h"
#include "index/dynamic_index.h"

namespace ssjoin {

/// Incremental (streaming) similarity join: the single-pass build-and-
/// probe loop of Section 3.2 exposed as a long-lived object. Each Add()
/// reports the new record's matches against everything added before it,
/// then indexes it — so feeding a whole dataset reproduces exactly the
/// ProbeCount-online self-join, but records can arrive one at a time
/// (deduplication against a growing reference set, change-data capture,
/// etc.).
///
/// Scores and norms are installed per record via a single-record
/// Prepare, so only predicates whose scores do not depend on corpus-wide
/// statistics are supported (overlap, Jaccard, Dice, Hamming, overlap-
/// coefficient, edit distance — not TF-IDF cosine, whose IDF would drift
/// as the stream grows). Construction fails a SSJOIN_CHECK otherwise.
class StreamingJoin {
 public:
  /// `pred` must outlive the StreamingJoin.
  explicit StreamingJoin(const Predicate& pred);

  StreamingJoin(const StreamingJoin&) = delete;
  StreamingJoin& operator=(const StreamingJoin&) = delete;

  /// Adds a record (with optional original text, needed by edit
  /// distance), invoking `on_match` once per earlier record it matches.
  /// The probe is the shared probe-and-verify body
  /// (probe_internal::ProbeMatches) over the grown index, plus the walk
  /// over the earlier short records when the new one is short.
  /// Returns the id assigned to the record (its arrival position). The
  /// view is copied into the internal record set; it only needs to stay
  /// valid for the duration of the call.
  RecordId Add(RecordView record, std::string text,
               const std::function<void(RecordId earlier)>& on_match);

  /// Number of records ingested so far.
  size_t size() const { return records_.size(); }

  /// The ingested records (ids are arrival positions).
  const RecordSet& records() const { return records_; }

  const JoinStats& stats() const { return stats_; }

 private:
  const Predicate& pred_;
  RecordSet records_;
  DynamicIndex index_;  // grows with the stream; membership unknown up front
  JoinStats stats_;
  // Ids of past records below the predicate's short bound (edit distance,
  // Hamming), ascending: the short pool every short arrival walks.
  std::vector<RecordId> short_records_;
  probe_internal::ProbeScratch scratch_;  // reused by every Add
};

}  // namespace ssjoin

#endif  // SSJOIN_CORE_STREAMING_JOIN_H_
