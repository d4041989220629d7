#include "index/dynamic_index.h"

#include <algorithm>

#include "util/logging.h"

namespace ssjoin {

void DynamicIndex::Insert(RecordId id, RecordView record) {
  SSJOIN_DCHECK(id >= num_entities_);
  num_entities_ = static_cast<size_t>(id) + 1;
  min_norm_ = std::min(min_norm_, record.norm());
  for (size_t i = 0; i < record.size(); ++i) {
    lists_[record.token(i)].Append(id, record.score(i));
    ++total_postings_;
  }
}

}  // namespace ssjoin
