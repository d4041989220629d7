#include "core/cosine_predicate.h"

#include <cmath>

#include "text/tfidf.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace ssjoin {

CosinePredicate::CosinePredicate(double fraction) : fraction_(fraction) {
  SSJOIN_CHECK(fraction > 0 && fraction <= 1);
}

std::string CosinePredicate::fingerprint() const {
  return name() + " threshold=" + FormatDoubleExact(fraction_);
}

namespace {

/// Installs unit-normalized TF-IDF scores from `weighter` onto `records`.
void ApplyWeights(RecordSet* records, const TfIdfWeighter& weighter);

}  // namespace

void CosinePredicate::Prepare(RecordSet* records) const {
  const DocumentFrequencies df = records->CountDocumentFrequencies();
  ApplyWeights(records, TfIdfWeighter(df.counts, df.num_records));
}

void CosinePredicate::PrepareIncremental(const DocumentFrequencies& reference,
                                         RecordSet* staging) const {
  ApplyWeights(staging,
               TfIdfWeighter(reference.counts, reference.num_records));
}

void CosinePredicate::PrepareForJoin(RecordSet* left,
                                     RecordSet* right) const {
  DocumentFrequencies combined = left->CountDocumentFrequencies();
  const DocumentFrequencies other = right->CountDocumentFrequencies();
  if (other.counts.size() > combined.counts.size()) {
    combined.counts.resize(other.counts.size(), 0);
  }
  for (size_t t = 0; t < other.counts.size(); ++t) {
    combined.counts[t] += other.counts[t];
  }
  combined.num_records += other.num_records;
  TfIdfWeighter weighter(combined.counts, combined.num_records);
  ApplyWeights(left, weighter);
  ApplyWeights(right, weighter);
}

namespace {

void ApplyWeights(RecordSet* records, const TfIdfWeighter& weighter) {
  // Normalization is staged in a scratch buffer so the arena only ever
  // receives final values.
  std::vector<double> weights;
  for (RecordId id = 0; id < records->size(); ++id) {
    const RecordView r = records->record(id);
    weights.resize(r.size());
    double squared = 0;
    for (size_t i = 0; i < r.size(); ++i) {
      double w = weighter.Weight(r.token(i), /*tf=*/1);
      weights[i] = w;
      squared += w * w;
    }
    double l2 = std::sqrt(squared);
    for (size_t i = 0; i < r.size(); ++i) {
      records->set_score(id, i, l2 > 0 ? weights[i] / l2 : weights[i]);
    }
    // Unit vectors make Equation 1's record score identically 1, which
    // would defeat the pre-sort heuristic; record size is the natural
    // proxy (longer records produce longer lists). The threshold is
    // norm-independent, so this choice has no correctness impact.
    records->set_norm(id, static_cast<double>(r.size()));
  }
}

}  // namespace

double CosinePredicate::ThresholdForNorms(double /*norm_r*/,
                                          double /*norm_s*/) const {
  return fraction_;
}

}  // namespace ssjoin
