#include "index/inverted_index.h"

#include <algorithm>

#include "util/logging.h"

namespace ssjoin {

void InvertedIndex::Plan(const std::vector<uint64_t>& counts) {
  SSJOIN_CHECK(!planned_) << "InvertedIndex::Plan called twice";
  planned_ = true;
  begin_.resize(counts.size() + 1);
  size_t total = 0;
  for (size_t t = 0; t < counts.size(); ++t) {
    begin_[t] = total;
    total += counts[t];
  }
  begin_[counts.size()] = total;
  postings_.resize(total);
  size_.assign(counts.size(), 0);
  max_score_.assign(counts.size(), 0.0);
}

void InvertedIndex::PlanFromRecordsSubset(
    const RecordSet& records, const std::vector<RecordId>& member_ids) {
  std::vector<uint64_t> counts(records.vocabulary_size(), 0);
  for (RecordId id : member_ids) {
    const RecordView r = records.record(id);
    for (size_t i = 0; i < r.size(); ++i) ++counts[r.token(i)];
  }
  Plan(counts);
}

InvertedIndex InvertedIndex::MakeView(ViewSpec spec) {
  SSJOIN_CHECK(spec.begin != nullptr && spec.size != nullptr &&
               spec.max_score != nullptr)
      << "view spec missing extent tables";
  SSJOIN_CHECK(spec.postings != nullptr || spec.begin[spec.vocabulary_size] == 0)
      << "view spec missing posting buffer";
  InvertedIndex index;
  index.view_postings_ = spec.postings;
  index.view_begin_ = spec.begin;
  index.view_size_ = spec.size;
  index.view_max_score_ = spec.max_score;
  index.view_vocabulary_size_ = spec.vocabulary_size;
  index.backing_ = std::move(spec.backing);
  index.num_nonempty_tokens_ = spec.num_nonempty_tokens;
  index.num_entities_ = spec.num_entities;
  if (spec.num_entities > 0) {
    index.max_entity_id_ = static_cast<RecordId>(spec.num_entities - 1);
  }
  index.min_norm_ = spec.min_norm;
  index.total_postings_ = spec.total_postings;
  index.planned_ = true;  // frozen: Plan would be a second plan
  return index;
}

void InvertedIndex::TrackEntity(RecordId id, double norm) {
  if (max_entity_id_ == std::numeric_limits<RecordId>::max() ||
      id > max_entity_id_) {
    max_entity_id_ = id;
  }
  num_entities_ = std::max<size_t>(num_entities_, max_entity_id_ + 1);
  min_norm_ = std::min(min_norm_, norm);
}

void InvertedIndex::AppendPosting(TokenId t, RecordId id, double score) {
  SSJOIN_CHECK(!is_view()) << "InvertedIndex::AppendPosting on a view index";
  SSJOIN_DCHECK(planned_ && t < size_.size());
  size_t pos = begin_[t] + size_[t];
  SSJOIN_DCHECK(pos < begin_[t + 1]) << "extent overflow for token " << t;
  SSJOIN_DCHECK(size_[t] == 0 || postings_[pos - 1].id < id);
  postings_[pos] = {id, score};
  if (size_[t] == 0) ++num_nonempty_tokens_;
  ++size_[t];
  max_score_[t] = std::max(max_score_[t], score);
  ++total_postings_;
}

void InvertedIndex::Insert(RecordId id, RecordView record,
                           const std::vector<bool>* skip_token) {
  TrackEntity(id, record.norm());
  for (size_t i = 0; i < record.size(); ++i) {
    TokenId t = record.token(i);
    if (skip_token != nullptr && (*skip_token)[t]) continue;
    AppendPosting(t, id, record.score(i));
  }
}

}  // namespace ssjoin
