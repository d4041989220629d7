#include "data/record_set.h"

#include <algorithm>
#include <numeric>

#include "util/logging.h"

namespace ssjoin {

RecordSet RecordSet::MakeView(ViewSpec spec) {
  SSJOIN_CHECK(spec.tokens != nullptr || spec.total_occurrences == 0)
      << "view spec missing token arena";
  SSJOIN_CHECK(!spec.offsets.empty() && spec.offsets.front() == 0 &&
               spec.offsets.back() == spec.total_occurrences)
      << "view spec offsets inconsistent";
  const size_t n = spec.offsets.size() - 1;
  SSJOIN_CHECK(spec.norms.size() == n && spec.text_lengths.size() == n)
      << "view spec per-record tables inconsistent";
  RecordSet set;
  set.view_tokens_ = spec.tokens;
  set.view_scores_ = spec.scores;
  set.view_text_offsets_ = spec.text_offsets;
  set.view_text_blob_ = spec.text_blob;
  set.vocabulary_size_ = spec.vocabulary_size;
  set.backing_ = std::move(spec.backing);
  set.offsets_ = std::move(spec.offsets);
  set.norms_ = std::move(spec.norms);
  set.text_lengths_ = std::move(spec.text_lengths);
  set.total_occurrences_ = spec.total_occurrences;
  return set;
}

RecordId RecordSet::Add(RecordView record, std::string text) {
  SSJOIN_CHECK(!is_view()) << "RecordSet::Add on a view set";
  RecordId id = static_cast<RecordId>(size());
  // Tokens are strictly increasing, so the last one is the record's
  // largest.
  if (!record.empty()) {
    vocabulary_size_ = std::max<uint64_t>(
        vocabulary_size_, uint64_t{record.token(record.size() - 1)} + 1);
  }
  // Self-insertion safety: `record` may view this set's own arena, whose
  // buffers can move when they grow. Resolve such views to an index first
  // and re-read through the (content-preserving) resized vectors.
  const size_t count = record.size();
  const size_t old_size = token_arena_.size();
  size_t self_offset = SIZE_MAX;
  if (count > 0 && !token_arena_.empty() &&
      record.tokens().data() >= token_arena_.data() &&
      record.tokens().data() + count <= token_arena_.data() + old_size) {
    self_offset = static_cast<size_t>(record.tokens().data() -
                                      token_arena_.data());
  }
  token_arena_.resize(old_size + count);
  score_arena_.resize(old_size + count);
  const TokenId* src_tokens = self_offset != SIZE_MAX
                                  ? token_arena_.data() + self_offset
                                  : record.tokens().data();
  const double* src_scores = self_offset != SIZE_MAX
                                 ? score_arena_.data() + self_offset
                                 : record.scores().data();
  std::copy(src_tokens, src_tokens + count, token_arena_.begin() + old_size);
  std::copy(src_scores, src_scores + count, score_arena_.begin() + old_size);
  for (size_t i = 1; i < count; ++i) {
    SSJOIN_DCHECK(token_arena_[old_size + i - 1] < token_arena_[old_size + i]);
  }
  offsets_.push_back(offsets_.back() + count);
  norms_.push_back(record.norm());
  text_lengths_.push_back(record.text_length());
  texts_.push_back(std::move(text));
  total_occurrences_ += count;
  return id;
}

DocumentFrequencies RecordSet::CountDocumentFrequencies() const {
  DocumentFrequencies frequencies;
  frequencies.counts.assign(vocabulary_size(), 0);
  frequencies.num_records = size();
  // Tokens are distinct within a record, so counting arena occurrences
  // counts the records holding each token.
  const TokenId* tokens =
      view_tokens_ != nullptr ? view_tokens_ : token_arena_.data();
  for (uint64_t i = 0; i < total_occurrences_; ++i) {
    ++frequencies.counts[tokens[i]];
  }
  return frequencies;
}

double RecordSet::average_record_size() const {
  if (empty()) return 0;
  return static_cast<double>(total_occurrences_) /
         static_cast<double>(size());
}

std::vector<RecordId> RecordSet::IdsByDecreasingNorm() const {
  std::vector<RecordId> ids(size());
  std::iota(ids.begin(), ids.end(), 0);
  std::stable_sort(ids.begin(), ids.end(), [this](RecordId a, RecordId b) {
    return norms_[a] > norms_[b];
  });
  return ids;
}

uint64_t RecordSet::ApproxMemoryBytes() const {
  uint64_t bytes = 0;
  bytes += token_arena_.size() * sizeof(TokenId);
  bytes += score_arena_.size() * sizeof(double);
  bytes += offsets_.size() * sizeof(size_t);
  bytes += norms_.size() * sizeof(double);
  bytes += text_lengths_.size() * sizeof(uint32_t);
  for (const std::string& t : texts_) bytes += sizeof(std::string) + t.size();
  return bytes;
}

}  // namespace ssjoin
