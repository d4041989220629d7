#ifndef SSJOIN_DATA_RECORD_SET_H_
#define SSJOIN_DATA_RECORD_SET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "data/record.h"
#include "data/record_view.h"
#include "text/token_dictionary.h"
#include "util/logging.h"

namespace ssjoin {

/// Document frequency of every token over one record set (counts[t] =
/// number of records containing token t; under set semantics this is
/// also t's total occurrence count), with the record count it was taken
/// over: the corpus statistics TF-IDF weighs records by (Section 5.2.2)
/// and the posting counts an index is planned from. Counted from the
/// arena by RecordSet::CountDocumentFrequencies and then only read, so
/// concurrent readers may share one.
struct DocumentFrequencies {
  std::vector<uint64_t> counts;
  uint64_t num_records = 0;
};

/// The join input: a columnar CSR arena of records plus per-record
/// tables, and nothing sized by the vocabulary. Add appends one record in
/// O(|record|), so staging a query or an insert costs its own size, not
/// the corpus vocabulary's. Corpus-level token statistics (document
/// frequency for index planning, stopword selection and TF-IDF) are
/// counted from the arena by whoever needs them, once per join or once
/// per serving segment (CountDocumentFrequencies). Optionally retains the
/// original text of each record for edit-distance verification and for
/// human-readable output.
///
/// Storage layout (the memory spine every hot loop streams over; see
/// DESIGN.md "Memory layout"):
///
///   token_arena_  [t t t | t t | t t t t | ...]   one flat TokenId array
///   score_arena_  [s s s | s s | s s s s | ...]   parallel double array
///   offsets_      [0, 3, 5, 9, ...]               n + 1, monotone
///
/// record(id) materializes a trivially-copyable RecordView over the slice
/// [offsets_[id], offsets_[id+1]); no per-record heap allocations exist.
/// Invariants: tokens within a record are strictly increasing; offsets_
/// is non-decreasing with offsets_[0] == 0 and offsets_[n] == arena size.
///
/// Two storage modes share this one type (see DESIGN.md "Out-of-core
/// segments"):
///   * OWNED (default): every arena lives in the vectors below; Add()
///     grows them. This is every memtable, staged query and segment of a
///     memory-only service.
///   * VIEW (MakeView): the token/score arenas and text blob are BORROWED
///     pointers into an immutable mapped `.sseg` body, kept alive by a
///     shared backing handle, while the small per-record tables the probe
///     paths gate on (offsets, norms, text lengths) are heap-resident
///     copies — candidate gating never faults a cold page.
///     View sets are frozen: Add/set_score/text() are illegal; readers go
///     through record()/text_view(), which behave identically in both
///     modes, so probe and merge code never branches on the mode.
class RecordSet {
 public:
  RecordSet() = default;

  RecordSet(const RecordSet&) = default;
  RecordSet& operator=(const RecordSet&) = default;
  RecordSet(RecordSet&&) = default;
  RecordSet& operator=(RecordSet&&) = default;

  /// Appends the builder's tokens/scores to the arena and returns the new
  /// RecordId. `text` may be empty.
  RecordId Add(const Record& record, std::string text = {}) {
    return Add(record.view(), std::move(text));
  }

  /// Appends a copy of `record` (e.g. a view into another RecordSet).
  /// Illegal on a view-mode set (mapped arenas are immutable).
  RecordId Add(RecordView record, std::string text = {});

  /// Borrowed + copied state of a view-mode set; see MakeView.
  struct ViewSpec {
    const TokenId* tokens = nullptr;   // borrowed; total_occurrences long
    const double* scores = nullptr;    // borrowed; parallel to tokens
    const uint64_t* text_offsets = nullptr;  // borrowed; num records + 1
    const char* text_blob = nullptr;         // borrowed
    std::vector<size_t> offsets;             // owned copy; num records + 1
    std::vector<double> norms;               // owned copy
    std::vector<uint32_t> text_lengths;      // owned copy
    uint64_t vocabulary_size = 0;
    uint64_t total_occurrences = 0;
    std::shared_ptr<const void> backing;  // keeps borrowed memory alive
  };

  /// Builds a view-mode set over arenas the caller borrowed (typically a
  /// mapped segment file; `spec.backing` keeps the mapping alive for the
  /// lifetime of this set and every copy of it). The owned-copy tables
  /// must be internally consistent: offsets monotone from 0 to
  /// total_occurrences, all per-record vectors the same length.
  static RecordSet MakeView(ViewSpec spec);

  /// Whether this set borrows its arenas (MakeView) instead of owning
  /// them. Structural mutation is illegal in view mode.
  bool is_view() const { return view_tokens_ != nullptr; }

  size_t size() const { return norms_.size(); }
  bool empty() const { return norms_.empty(); }

  /// View of record `id`; valid until the next Add (the arena may move).
  RecordView record(RecordId id) const {
    size_t begin = offsets_[id];
    const TokenId* tokens =
        view_tokens_ != nullptr ? view_tokens_ : token_arena_.data();
    const double* scores =
        view_scores_ != nullptr ? view_scores_ : score_arena_.data();
    return RecordView(tokens + begin, scores + begin,
                      static_cast<uint32_t>(offsets_[id + 1] - begin),
                      norms_[id], text_lengths_[id]);
  }

  /// Number of tokens of record `id` (without materializing a view).
  size_t record_size(RecordId id) const {
    return offsets_[id + 1] - offsets_[id];
  }

  /// Rewrites score(token i, record id); used by Predicate::Prepare.
  void set_score(RecordId id, size_t i, double score) {
    score_arena_[offsets_[id] + i] = score;
  }

  void set_norm(RecordId id, double norm) { norms_[id] = norm; }
  void set_text_length(RecordId id, uint32_t len) { text_lengths_[id] = len; }

  /// Original text of record `id`; empty if not retained. Owned mode
  /// only — view-mode texts live in the mapped blob, use text_view().
  const std::string& text(RecordId id) const {
    SSJOIN_CHECK(!is_view()) << "RecordSet::text on a view set";
    return texts_[id];
  }

  /// Original text of record `id` as a borrowed view; empty if not
  /// retained. Works in both modes — the one text reader probe/merge/
  /// verify paths should use. Valid while the set (or its backing
  /// mapping) is alive.
  std::string_view text_view(RecordId id) const {
    if (view_text_offsets_ != nullptr) {
      uint64_t begin = view_text_offsets_[id];
      uint64_t len = view_text_offsets_[id + 1] - begin;
      if (len == 0) return std::string_view();
      return std::string_view(view_text_blob_ + begin,
                              static_cast<size_t>(len));
    }
    return texts_[id];
  }

  /// Largest token id in any record + 1 (0 for a set without tokens):
  /// the extent of every per-token table planned over this set. Add
  /// tracks it in O(1) from the record's last (largest) token; in view
  /// mode it is restored from the segment header.
  size_t vocabulary_size() const {
    return static_cast<size_t>(vocabulary_size_);
  }

  /// Counts every token's document frequency from the arena (owned or
  /// mapped): O(arena + vocabulary_size()) per call, so callers take the
  /// result once (per join, per segment) and index it, never call this
  /// per token.
  DocumentFrequencies CountDocumentFrequencies() const;

  /// Sum of record sizes == total word occurrences W of Section 4.
  uint64_t total_token_occurrences() const { return total_occurrences_; }

  /// Mean record size (0 for an empty set).
  double average_record_size() const;

  /// Returns record ids sorted by decreasing norm(); the generalized
  /// pre-sort order of Section 5.1.2.
  std::vector<RecordId> IdsByDecreasingNorm() const;

  /// Approximate heap bytes held by the CSR arenas, offset/norm tables
  /// and retained texts (element counts times element sizes; vector
  /// over-allocation ignored). The serving tier sums this per segment to
  /// report `segment_bytes` without rescanning arenas on every stats
  /// call.
  uint64_t ApproxMemoryBytes() const;

 private:
  // Columnar CSR arena (see class comment).
  std::vector<TokenId> token_arena_;
  std::vector<double> score_arena_;
  std::vector<size_t> offsets_{0};  // offsets_[n] == arena size
  std::vector<double> norms_;
  std::vector<uint32_t> text_lengths_;
  std::vector<std::string> texts_;

  // View mode (MakeView): borrowed arena pointers, non-null iff is_view().
  // The owned vectors above double as the heap-resident copies (offsets_,
  // norms_, text_lengths_); texts_/token_arena_/score_arena_ stay empty.
  // backing_ pins the borrowed memory.
  const TokenId* view_tokens_ = nullptr;
  const double* view_scores_ = nullptr;
  const uint64_t* view_text_offsets_ = nullptr;
  const char* view_text_blob_ = nullptr;
  std::shared_ptr<const void> backing_;

  uint64_t vocabulary_size_ = 0;
  uint64_t total_occurrences_ = 0;
};

}  // namespace ssjoin

#endif  // SSJOIN_DATA_RECORD_SET_H_
