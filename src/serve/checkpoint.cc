#include "serve/checkpoint.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>

#include "util/file_io.h"
#include "util/logging.h"
#include "util/mmap_file.h"
#include "util/varint.h"

namespace ssjoin {

namespace {

constexpr char kCheckpointMagic[4] = {'S', 'S', 'C', 'P'};
// v5: the segment chain as the snapshot holds it, and nothing else about
// deletions. v4 also stored a per-id deleted bitmap, a second copy of the
// dead masks that nothing checked against them; v4 and older manifests
// are rejected with "unsupported checkpoint version".
constexpr uint32_t kCheckpointVersion = 5;
constexpr char kCheckpointFile[] = "checkpoint.ssc";
constexpr char kWalFile[] = "wal.log";

constexpr char kSegmentMagic[4] = {'S', 'S', 'S', 'G'};
// v4: the out-of-core layout. A CRC-protected fixed header carries every
// count; all sections after it (record offsets, token/score CSR arenas,
// text table + blob, global ids, per-shard id tables + posting extents,
// in that order) are 64-byte-aligned and byte-layout-identical to their
// in-memory form, so Open can mmap the body and serve from views instead
// of decoding. v3 also ended in a per-record token-bitmap block, which no
// reader uses any more; v3 and older files are rejected with a clear
// "unsupported segment version" error.
constexpr uint32_t kSegmentVersion = 4;
constexpr char kSegmentPrefix[] = "segment-";
constexpr char kSegmentSuffix[] = ".sseg";

Status Corrupt(const std::string& what, const std::string& path) {
  return Status::IOError("corrupt checkpoint (" + what + "): " + path);
}

bool StrictlyIncreasing(const std::vector<RecordId>& ids) {
  for (size_t i = 1; i < ids.size(); ++i) {
    if (ids[i] <= ids[i - 1]) return false;
  }
  return true;
}

/// varint64 count + delta varints. Requires non-decreasing ids (every id
/// table in a checkpoint — members, globals, shorts, dead masks — is).
void PutIdList(std::string* out, const std::vector<RecordId>& ids) {
  PutVarint64(out, ids.size());
  RecordId prev = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    PutVarint32(out, ids[i] - prev);
    prev = ids[i];
  }
}

bool GetIdList(const std::string& data, size_t* offset,
               std::vector<RecordId>* ids) {
  uint64_t count = 0;
  if (!GetVarint64(data, offset, &count)) return false;
  if (count > data.size()) return false;  // >= 1 byte per encoded id
  ids->clear();
  ids->reserve(count);
  RecordId prev = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t delta = 0;
    if (!GetVarint32(data, offset, &delta)) return false;
    prev += delta;
    ids->push_back(prev);
  }
  return true;
}

}  // namespace

std::string CheckpointFilePath(const std::string& data_dir) {
  return data_dir + "/" + kCheckpointFile;
}

std::string WalFilePath(const std::string& data_dir) {
  return data_dir + "/" + kWalFile;
}

std::string SegmentFilePath(const std::string& data_dir,
                            uint64_t segment_id) {
  return data_dir + "/" + kSegmentPrefix + std::to_string(segment_id) +
         kSegmentSuffix;
}

std::set<uint64_t> ListSegmentFiles(const std::string& data_dir) {
  std::set<uint64_t> ids;
  DIR* dir = ::opendir(data_dir.c_str());
  if (dir == nullptr) return ids;
  const std::string prefix = kSegmentPrefix;
  const std::string suffix = kSegmentSuffix;
  while (struct dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name.size() <= prefix.size() + suffix.size() ||
        name.compare(0, prefix.size(), prefix) != 0 ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    const std::string digits =
        name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
    uint64_t id = 0;
    bool numeric = !digits.empty();
    for (char c : digits) {
      if (c < '0' || c > '9') {
        numeric = false;
        break;
      }
      id = id * 10 + static_cast<uint64_t>(c - '0');
    }
    // Round-trip through the canonical name so padded or overflowed
    // spellings ("segment-007.sseg") are never claimed by GC or load.
    if (numeric && SegmentFilePath(data_dir, id) == data_dir + "/" + name) {
      ids.insert(id);
    }
  }
  ::closedir(dir);
  return ids;
}

Status EnsureDataDir(const std::string& data_dir) {
  if (data_dir.empty()) {
    return Status::InvalidArgument("data_dir must not be empty");
  }
  // mkdir -p: create each missing component in turn.
  for (size_t pos = 0; pos != std::string::npos;) {
    pos = data_dir.find('/', pos + 1);
    const std::string prefix =
        pos == std::string::npos ? data_dir : data_dir.substr(0, pos);
    if (prefix.empty()) continue;
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return ErrnoIOError("cannot create data directory", prefix);
    }
  }
  return Status::OK();
}

bool CheckpointExists(const std::string& data_dir) {
  return ::access(CheckpointFilePath(data_dir).c_str(), F_OK) == 0;
}

namespace {

// ---------------------------------------------------------------------
// v4 segment files. One deterministic layout walk (ComputeSegmentLayout)
// is shared by the writer and the opener, so the two can never disagree
// about where a section lives. All multi-byte fields are host-endian raw
// bytes, exactly as the in-memory structures hold them — that
// equivalence is what makes mmap'ing the body equivalent to decoding it.

constexpr uint64_t kSegmentAlign = 64;
// magic(4) + version(4) + segment_id, num_records, num_shards, vocab,
// total_occurrences, text_blob_bytes, file_size (7 x fixed64).
constexpr uint64_t kSegmentFixedHeaderBytes = 64;
// members, shorts, postings_cap, total_postings, num_nonempty (fixed64
// each) + min_norm (double).
constexpr uint64_t kSegmentShardEntryBytes = 48;

uint64_t AlignUp(uint64_t pos) {
  return (pos + (kSegmentAlign - 1)) & ~(kSegmentAlign - 1);
}

struct ShardLayout {
  // Counts, from the CRC-protected header entry.
  uint64_t members = 0;
  uint64_t shorts = 0;
  uint64_t postings_cap = 0;
  uint64_t total_postings = 0;
  uint64_t num_nonempty = 0;
  double min_norm = std::numeric_limits<double>::infinity();
  // Section offsets, derived by ComputeSegmentLayout.
  uint64_t member_ids_off = 0;
  uint64_t short_ids_off = 0;
  uint64_t begin_off = 0;
  uint64_t size_off = 0;
  uint64_t max_score_off = 0;
  uint64_t postings_off = 0;
};

struct SegmentLayout {
  uint64_t segment_id = 0;
  uint64_t num_records = 0;
  uint64_t vocab = 0;
  uint64_t total_occurrences = 0;
  uint64_t text_blob_bytes = 0;
  uint64_t header_bytes = 0;
  uint64_t file_size = 0;  // includes the trailing CRC
  uint64_t offsets_off = 0;
  uint64_t tokens_off = 0;
  uint64_t scores_off = 0;
  uint64_t norms_off = 0;
  uint64_t text_lengths_off = 0;
  uint64_t text_offsets_off = 0;
  uint64_t text_blob_off = 0;
  uint64_t global_ids_off = 0;
  std::vector<ShardLayout> shards;
};

/// Fills every section offset from the counts already present in
/// `layout`. Section order: record offsets, tokens, scores, norms, text
/// lengths, text offsets, text blob, global ids, then per shard (member
/// ids, short ids, extent begin/size/max_score, postings), then the
/// trailing CRC. Every section starts 64-byte-aligned (gaps are zero
/// padding).
void ComputeSegmentLayout(SegmentLayout* layout) {
  layout->header_bytes = kSegmentFixedHeaderBytes +
                         kSegmentShardEntryBytes * layout->shards.size() +
                         sizeof(uint32_t);  // header CRC
  uint64_t pos = AlignUp(layout->header_bytes);
  auto section = [&pos](uint64_t bytes) {
    uint64_t off = pos;
    pos = AlignUp(pos + bytes);
    return off;
  };
  const uint64_t n = layout->num_records;
  layout->offsets_off = section((n + 1) * sizeof(uint64_t));
  layout->tokens_off = section(layout->total_occurrences * sizeof(TokenId));
  layout->scores_off = section(layout->total_occurrences * sizeof(double));
  layout->norms_off = section(n * sizeof(double));
  layout->text_lengths_off = section(n * sizeof(uint32_t));
  layout->text_offsets_off = section((n + 1) * sizeof(uint64_t));
  layout->text_blob_off = section(layout->text_blob_bytes);
  layout->global_ids_off = section(n * sizeof(RecordId));
  for (ShardLayout& shard : layout->shards) {
    shard.member_ids_off = section(shard.members * sizeof(RecordId));
    shard.short_ids_off = section(shard.shorts * sizeof(RecordId));
    shard.begin_off = section((layout->vocab + 1) * sizeof(uint64_t));
    shard.size_off = section(layout->vocab * sizeof(uint32_t));
    shard.max_score_off = section(layout->vocab * sizeof(double));
    shard.postings_off = section(shard.postings_cap * sizeof(Posting));
  }
  layout->file_size = pos + sizeof(uint32_t);  // trailing CRC
}

uint32_t LoadU32(const char* base, uint64_t off) {
  uint32_t v = 0;
  std::memcpy(&v, base + off, sizeof(v));
  return v;
}

uint64_t LoadU64(const char* base, uint64_t off) {
  uint64_t v = 0;
  std::memcpy(&v, base + off, sizeof(v));
  return v;
}

double LoadF64(const char* base, uint64_t off) {
  double v = 0;
  std::memcpy(&v, base + off, sizeof(v));
  return v;
}

/// Parses and verifies the v4 header of the byte range [data, data +
/// size), the front half of OpenSegmentFile. The version gate runs
/// BEFORE the header checksum: an older file's layout differs from v4's,
/// and its error must read "old format", not "corrupt". Every count is
/// bounded against the real file size before the layout walk, so the
/// walk cannot overflow and the derived section offsets are safe to
/// dereference once `layout.file_size == size` holds (truncation
/// therefore surfaces here as a Status, never as a fault on a mapped
/// read).
Result<SegmentLayout> ParseSegmentHeader(const char* data, uint64_t size,
                                         uint64_t expected_id,
                                         uint64_t num_shards,
                                         const std::string& path) {
  if (size < sizeof(kSegmentMagic) + sizeof(uint32_t) ||
      std::memcmp(data, kSegmentMagic, sizeof(kSegmentMagic)) != 0) {
    return Corrupt("bad segment magic", path);
  }
  const uint32_t version = LoadU32(data, sizeof(kSegmentMagic));
  if (version != kSegmentVersion) {
    return Status::IOError("unsupported segment version: " + path);
  }
  if (size < kSegmentFixedHeaderBytes) {
    return Corrupt("segment header truncated", path);
  }
  SegmentLayout layout;
  layout.segment_id = LoadU64(data, 8);
  layout.num_records = LoadU64(data, 16);
  const uint64_t file_shards = LoadU64(data, 24);
  layout.vocab = LoadU64(data, 32);
  layout.total_occurrences = LoadU64(data, 40);
  layout.text_blob_bytes = LoadU64(data, 48);
  const uint64_t recorded_size = LoadU64(data, 56);
  const uint64_t header_bytes = kSegmentFixedHeaderBytes +
                                kSegmentShardEntryBytes * num_shards +
                                sizeof(uint32_t);
  if (size < header_bytes) {
    return Corrupt("segment header truncated", path);
  }
  if (LoadU32(data, header_bytes - sizeof(uint32_t)) !=
      Crc32(data, header_bytes - sizeof(uint32_t))) {
    return Corrupt("segment header checksum mismatch", path);
  }
  // From here every header field is trustworthy (to CRC strength).
  if (file_shards != num_shards) {
    return Corrupt("segment shard count disagrees with manifest", path);
  }
  if (layout.segment_id != expected_id) {
    return Corrupt("segment id disagrees with its file name", path);
  }
  if (recorded_size != size) {
    return Corrupt("segment size disagrees with header", path);
  }
  // Bound every count by the file size (each element is >= 1 byte) and
  // cap the size itself so the aligned layout walk cannot overflow.
  if (size > (uint64_t{1} << 48)) {
    return Corrupt("implausible segment size", path);
  }
  if (layout.num_records > size || layout.vocab > size ||
      layout.total_occurrences > size || layout.text_blob_bytes > size) {
    return Corrupt("implausible segment counts", path);
  }
  layout.shards.resize(num_shards);
  for (uint64_t s = 0; s < num_shards; ++s) {
    ShardLayout& shard = layout.shards[s];
    const uint64_t off =
        kSegmentFixedHeaderBytes + kSegmentShardEntryBytes * s;
    shard.members = LoadU64(data, off);
    shard.shorts = LoadU64(data, off + 8);
    shard.postings_cap = LoadU64(data, off + 16);
    shard.total_postings = LoadU64(data, off + 24);
    shard.num_nonempty = LoadU64(data, off + 32);
    shard.min_norm = LoadF64(data, off + 40);
    if (shard.members > layout.num_records || shard.shorts > shard.members ||
        shard.postings_cap > size ||
        shard.total_postings > shard.postings_cap ||
        shard.num_nonempty > layout.vocab) {
      return Corrupt("bad segment shard entry", path);
    }
  }
  ComputeSegmentLayout(&layout);
  if (layout.file_size != size) {
    return Corrupt("segment size disagrees with layout", path);
  }
  return layout;
}

/// Copies `count` elements of a mapped section into a fresh vector (the
/// heap-resident gating tables).
template <typename T>
std::vector<T> CopySection(const char* base, uint64_t off, uint64_t count) {
  std::vector<T> out(static_cast<size_t>(count));
  if (count > 0) {
    std::memcpy(out.data(), base + off, count * sizeof(T));
  }
  return out;
}

}  // namespace

/// One immutable v4 segment file: the segment's prepared arena,
/// global-id table and every shard part's id tables and CSR extents,
/// laid out by ComputeSegmentLayout, header-CRC'd and whole-file-CRC'd.
/// Dead masks and live counts are NOT here — they change after the
/// segment is written and live in the manifest.
Status WriteSegmentFile(const std::string& data_dir,
                        const CorpusSegment& segment) {
  const RecordSet& records = *segment.records;
  const uint64_t n = records.size();
  SegmentLayout layout;
  layout.segment_id = segment.id;
  layout.num_records = n;
  layout.total_occurrences = records.total_token_occurrences();
  // Extent tables for every shard span one shared vocabulary (tokens a
  // shard never saw get empty extents). A service-built segment plans
  // each shard over the record set's full vocabulary already; the max
  // keeps the writer total for any input.
  uint64_t vocab = records.vocabulary_size();
  for (const SegmentShardPart& part : segment.shards) {
    vocab = std::max<uint64_t>(vocab, part.index.token_capacity());
  }
  layout.vocab = vocab;
  uint64_t blob_bytes = 0;
  for (RecordId id = 0; id < n; ++id) {
    blob_bytes += records.text_view(id).size();
  }
  layout.text_blob_bytes = blob_bytes;
  layout.shards.resize(segment.shards.size());
  for (size_t s = 0; s < segment.shards.size(); ++s) {
    const SegmentShardPart& part = segment.shards[s];
    ShardLayout& shard = layout.shards[s];
    shard.members = part.member_ids.size();
    shard.shorts = part.short_ids.size();
    shard.postings_cap = part.index.postings_capacity();
    shard.total_postings = part.index.total_postings();
    shard.num_nonempty = part.index.num_tokens();
    shard.min_norm = part.index.min_norm();
  }
  ComputeSegmentLayout(&layout);

  std::string buffer(static_cast<size_t>(layout.file_size), '\0');
  auto put_bytes = [&buffer](uint64_t off, const void* src, size_t bytes) {
    if (bytes > 0) std::memcpy(&buffer[static_cast<size_t>(off)], src, bytes);
  };
  auto put_u32 = [&put_bytes](uint64_t off, uint32_t v) {
    put_bytes(off, &v, sizeof(v));
  };
  auto put_u64 = [&put_bytes](uint64_t off, uint64_t v) {
    put_bytes(off, &v, sizeof(v));
  };
  auto put_f64 = [&put_bytes](uint64_t off, double v) {
    put_bytes(off, &v, sizeof(v));
  };

  std::string head(kSegmentMagic, sizeof(kSegmentMagic));
  PutFixed32(&head, kSegmentVersion);
  PutFixed64(&head, layout.segment_id);
  PutFixed64(&head, layout.num_records);
  PutFixed64(&head, layout.shards.size());
  PutFixed64(&head, layout.vocab);
  PutFixed64(&head, layout.total_occurrences);
  PutFixed64(&head, layout.text_blob_bytes);
  PutFixed64(&head, layout.file_size);
  for (const ShardLayout& shard : layout.shards) {
    PutFixed64(&head, shard.members);
    PutFixed64(&head, shard.shorts);
    PutFixed64(&head, shard.postings_cap);
    PutFixed64(&head, shard.total_postings);
    PutFixed64(&head, shard.num_nonempty);
    PutDouble(&head, shard.min_norm);
  }
  PutFixed32(&head, Crc32(head.data(), head.size()));
  SSJOIN_DCHECK(head.size() == layout.header_bytes);
  put_bytes(0, head.data(), head.size());

  uint64_t token_run = 0;
  uint64_t text_run = 0;
  put_u64(layout.offsets_off, 0);
  put_u64(layout.text_offsets_off, 0);
  for (RecordId id = 0; id < n; ++id) {
    const RecordView record = records.record(id);
    put_bytes(layout.tokens_off + token_run * sizeof(TokenId),
              record.tokens().data(), record.size() * sizeof(TokenId));
    put_bytes(layout.scores_off + token_run * sizeof(double),
              record.scores().data(), record.size() * sizeof(double));
    token_run += record.size();
    put_u64(layout.offsets_off + (id + 1) * sizeof(uint64_t), token_run);
    put_f64(layout.norms_off + id * sizeof(double), record.norm());
    put_u32(layout.text_lengths_off + id * sizeof(uint32_t),
            record.text_length());
    const std::string_view text = records.text_view(id);
    put_bytes(layout.text_blob_off + text_run, text.data(), text.size());
    text_run += text.size();
    put_u64(layout.text_offsets_off + (id + 1) * sizeof(uint64_t), text_run);
  }
  put_bytes(layout.global_ids_off, segment.global_ids.data(),
            segment.global_ids.size() * sizeof(RecordId));

  for (size_t s = 0; s < segment.shards.size(); ++s) {
    const SegmentShardPart& part = segment.shards[s];
    const ShardLayout& shard = layout.shards[s];
    put_bytes(shard.member_ids_off, part.member_ids.data(),
              part.member_ids.size() * sizeof(RecordId));
    put_bytes(shard.short_ids_off, part.short_ids.data(),
              part.short_ids.size() * sizeof(RecordId));
    const uint64_t cap_tokens = part.index.token_capacity();
    for (uint64_t t = 0; t <= layout.vocab; ++t) {
      put_u64(shard.begin_off + t * sizeof(uint64_t),
              t <= cap_tokens
                  ? part.index.extent_begin(static_cast<TokenId>(t))
                  : shard.postings_cap);
    }
    for (uint64_t t = 0; t < layout.vocab; ++t) {
      const bool in_cap = t < cap_tokens;
      put_u32(shard.size_off + t * sizeof(uint32_t),
              in_cap ? part.index.extent_size(static_cast<TokenId>(t)) : 0);
      put_f64(shard.max_score_off + t * sizeof(double),
              in_cap ? part.index.extent_max_score(static_cast<TokenId>(t))
                     : 0.0);
    }
    // Posting slots are copied field by field: the struct carries 4
    // padding bytes whose in-memory value is unspecified, and the file
    // bytes must be deterministic. Unfilled capacity slots stay zero.
    const Posting* postings = part.index.postings_buffer();
    for (uint64_t t = 0; t < cap_tokens; ++t) {
      const uint64_t extent = part.index.extent_begin(static_cast<TokenId>(t));
      const uint32_t live = part.index.extent_size(static_cast<TokenId>(t));
      for (uint32_t i = 0; i < live; ++i) {
        const Posting& p = postings[extent + i];
        const uint64_t slot =
            shard.postings_off + (extent + i) * sizeof(Posting);
        put_u32(slot, p.id);
        put_f64(slot + sizeof(uint64_t), p.score);
      }
    }
  }

  put_u32(layout.file_size - sizeof(uint32_t),
          Crc32(buffer.data(), layout.file_size - sizeof(uint32_t)));
  return WriteFileAtomic(SegmentFilePath(data_dir, segment.id), buffer);
}

namespace {

/// Proves the mapped record arena in place: every record's tokens are
/// strictly increasing and below the header's vocabulary, so every
/// per-token table a probe indexes by them stays in bounds. `offsets` are
/// the validated record offsets.
Status ProveRecordTokens(const char* base, const SegmentLayout& layout,
                         const std::vector<size_t>& offsets,
                         const std::string& path) {
  const TokenId* tokens =
      reinterpret_cast<const TokenId*>(base + layout.tokens_off);
  for (RecordId id = 0; id < layout.num_records; ++id) {
    for (size_t i = offsets[id]; i < offsets[id + 1]; ++i) {
      if (i > offsets[id] && tokens[i] <= tokens[i - 1]) {
        return Corrupt("non-monotone record tokens [segment arena]", path);
      }
      if (tokens[i] >= layout.vocab) {
        return Corrupt("segment token out of range", path);
      }
    }
  }
  return Status::OK();
}

/// Proves one shard part's mapped extent tables, postings and max scores
/// in place, against each other and the header: extents tile the posting
/// section, every list is strictly increasing in part-local ids below the
/// member count with finite scores, and every max score is its list's.
Status ProveShardIndex(const char* base, const SegmentLayout& layout,
                       const ShardLayout& sh, const std::string& path) {
  const uint64_t* begin =
      reinterpret_cast<const uint64_t*>(base + sh.begin_off);
  const uint32_t* live = reinterpret_cast<const uint32_t*>(base + sh.size_off);
  const double* max_score =
      reinterpret_cast<const double*>(base + sh.max_score_off);
  if (begin[0] != 0 || begin[layout.vocab] != sh.postings_cap) {
    return Corrupt("bad segment extent table", path);
  }
  uint64_t total = 0;
  uint64_t nonempty = 0;
  for (uint64_t t = 0; t < layout.vocab; ++t) {
    if (begin[t + 1] < begin[t] || live[t] > begin[t + 1] - begin[t] ||
        live[t] > sh.members) {
      return Corrupt("bad segment extent table", path);
    }
    total += live[t];
    if (live[t] > 0) ++nonempty;
  }
  if (total != sh.total_postings || nonempty != sh.num_nonempty) {
    return Corrupt("segment extent table disagrees with header", path);
  }
  const Posting* postings =
      reinterpret_cast<const Posting*>(base + sh.postings_off);
  for (uint64_t t = 0; t < layout.vocab; ++t) {
    const Posting* list = postings + begin[t];
    double seen_max = 0.0;
    for (uint32_t i = 0; i < live[t]; ++i) {
      if ((i > 0 && list[i].id <= list[i - 1].id) ||
          list[i].id >= sh.members || !std::isfinite(list[i].score)) {
        return Corrupt("bad segment shard index", path);
      }
      seen_max = std::max(seen_max, list[i].score);
    }
    if (max_score[t] != (live[t] > 0 ? seen_max : 0.0)) {
      return Corrupt("segment extent table disagrees with header", path);
    }
  }
  return Status::OK();
}

/// Unlinks every segment file in `data_dir` not in `referenced` and
/// makes the removals durable. A failed unlink silently accretes
/// garbage forever if nobody notices — count it (the counters land in
/// ServiceStats) and log it; a crash right after an un-fsynced unlink
/// can resurrect the file, so one directory fsync follows any removal.
GcStats CollectSegmentGarbage(const std::string& data_dir,
                              const std::set<uint64_t>& referenced) {
  GcStats gc;
  for (uint64_t id : ListSegmentFiles(data_dir)) {
    if (referenced.count(id) != 0) continue;
    const std::string path = SegmentFilePath(data_dir, id);
    if (::unlink(path.c_str()) == 0) {
      ++gc.unlinked_segments;
    } else if (errno != ENOENT) {
      ++gc.unlink_failures;
      SSJOIN_LOG_WARNING << "segment GC cannot unlink " << path << ": "
                         << std::strerror(errno);
    }
  }
  if (gc.unlinked_segments > 0) {
    Status synced = SyncParentDirectory(CheckpointFilePath(data_dir));
    if (!synced.ok()) {
      ++gc.unlink_failures;
      SSJOIN_LOG_WARNING << "segment GC cannot fsync data directory: "
                         << synced.message();
    }
  }
  return gc;
}

}  // namespace

Result<std::shared_ptr<const CorpusSegment>> OpenSegmentFile(
    const std::string& data_dir, uint64_t segment_id, uint64_t num_shards,
    bool count_frequencies) {
  const std::string path = SegmentFilePath(data_dir, segment_id);
  Result<MappedFile> opened = MappedFile::Open(path);
  if (!opened.ok()) return opened.status();
  auto mapping =
      std::make_shared<const MappedFile>(std::move(opened).value());
  const char* base = mapping->data();
  Result<SegmentLayout> parsed = ParseSegmentHeader(
      base, mapping->size(), segment_id, num_shards, path);
  if (!parsed.ok()) return parsed.status();
  const SegmentLayout layout = std::move(parsed).value();
  if (LoadU32(base, layout.file_size - sizeof(uint32_t)) !=
      Crc32(base, layout.file_size - sizeof(uint32_t))) {
    return Corrupt("segment checksum mismatch", path);
  }
  const uint64_t n = layout.num_records;

  // The gating tables, validated and copied to the heap: everything
  // candidate gating, norm filters and id resolution touch per candidate,
  // so the gating path never faults an evicted page.
  if (LoadU64(base, layout.offsets_off) != 0 ||
      LoadU64(base, layout.text_offsets_off) != 0) {
    return Corrupt("bad segment record offsets", path);
  }
  RecordSet::ViewSpec spec;
  spec.offsets.assign(static_cast<size_t>(n) + 1, 0);
  uint64_t prev_end = 0;
  uint64_t prev_text = 0;
  for (uint64_t i = 1; i <= n; ++i) {
    const uint64_t end =
        LoadU64(base, layout.offsets_off + i * sizeof(uint64_t));
    if (end < prev_end || end > layout.total_occurrences) {
      return Corrupt("bad segment record offsets", path);
    }
    const uint64_t text_end =
        LoadU64(base, layout.text_offsets_off + i * sizeof(uint64_t));
    if (text_end < prev_text || text_end > layout.text_blob_bytes) {
      return Corrupt("bad segment text offsets", path);
    }
    spec.offsets[i] = static_cast<size_t>(end);
    prev_end = end;
    prev_text = text_end;
  }
  if (prev_end != layout.total_occurrences ||
      prev_text != layout.text_blob_bytes) {
    return Corrupt("segment arena size disagrees with header", path);
  }
  Status proven = ProveRecordTokens(base, layout, spec.offsets, path);
  if (!proven.ok()) return proven;
  spec.norms = CopySection<double>(base, layout.norms_off, n);
  spec.text_lengths = CopySection<uint32_t>(base, layout.text_lengths_off, n);

  // The CSR arenas, text table/blob and posting extents stay in the
  // mapping and page in on demand.
  auto segment = std::make_shared<CorpusSegment>();
  segment->id = segment_id;
  spec.tokens = reinterpret_cast<const TokenId*>(base + layout.tokens_off);
  spec.scores = reinterpret_cast<const double*>(base + layout.scores_off);
  spec.text_offsets =
      reinterpret_cast<const uint64_t*>(base + layout.text_offsets_off);
  spec.text_blob = base + layout.text_blob_off;
  spec.vocabulary_size = layout.vocab;
  spec.total_occurrences = layout.total_occurrences;
  spec.backing = mapping;
  segment->records =
      std::make_shared<RecordSet>(RecordSet::MakeView(std::move(spec)));
  segment->global_ids = CopySection<RecordId>(base, layout.global_ids_off, n);
  if (!StrictlyIncreasing(segment->global_ids)) {
    return Corrupt("bad segment global ids", path);
  }
  segment->shards.resize(num_shards);
  size_t members_total = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    const ShardLayout& sh = layout.shards[s];
    SegmentShardPart& part = segment->shards[s];
    part.member_ids =
        CopySection<RecordId>(base, sh.member_ids_off, sh.members);
    part.short_ids = CopySection<RecordId>(base, sh.short_ids_off, sh.shorts);
    if (!StrictlyIncreasing(part.member_ids) ||
        (!part.member_ids.empty() && part.member_ids.back() >= n)) {
      return Corrupt("segment member out of range", path);
    }
    if (!StrictlyIncreasing(part.short_ids) ||
        (!part.short_ids.empty() &&
         part.short_ids.back() >= part.member_ids.size())) {
      return Corrupt("segment short id out of range", path);
    }
    proven = ProveShardIndex(base, layout, sh, path);
    if (!proven.ok()) return proven;
    InvertedIndex::ViewSpec ispec;
    ispec.postings = reinterpret_cast<const Posting*>(base + sh.postings_off);
    ispec.begin = reinterpret_cast<const uint64_t*>(base + sh.begin_off);
    ispec.size = reinterpret_cast<const uint32_t*>(base + sh.size_off);
    ispec.max_score = reinterpret_cast<const double*>(base + sh.max_score_off);
    ispec.vocabulary_size = layout.vocab;
    ispec.num_nonempty_tokens = sh.num_nonempty;
    ispec.num_entities = sh.members;
    ispec.min_norm = sh.min_norm;
    ispec.total_postings = sh.total_postings;
    ispec.backing = mapping;
    part.index = InvertedIndex::MakeView(std::move(ispec));
    members_total += sh.members;
  }
  // Shard parts must partition the segment's records (each member id is
  // in range and strictly increasing per shard; equal total forces the
  // partition).
  if (members_total != n) {
    return Corrupt("segment shard parts do not partition records", path);
  }
  segment->mapping = mapping;
  segment->mapped_bytes = mapping->size();
  if (count_frequencies) {
    segment->frequencies = segment->records->CountDocumentFrequencies();
  }
  segment->approx_bytes = ComputeSegmentApproxBytes(*segment);
  return std::shared_ptr<const CorpusSegment>(std::move(segment));
}

Status SaveCheckpoint(const std::string& data_dir,
                      const Checkpoint& checkpoint,
                      std::set<uint64_t>* persisted_segments,
                      GcStats* gc_stats) {
  if (checkpoint.chain == nullptr || checkpoint.chain->empty() ||
      checkpoint.num_shards == 0 || persisted_segments == nullptr) {
    return Status::InvalidArgument("incomplete checkpoint state");
  }
  for (const SegmentChainEntry& entry : *checkpoint.chain) {
    if (entry.segment == nullptr ||
        entry.dead.size() != checkpoint.num_shards) {
      return Status::InvalidArgument("incomplete checkpoint state");
    }
  }

  // Phase 1: make every referenced segment durable. Already-persisted
  // segments are immutable — their files are correct by construction and
  // are never rewritten, which is what keeps a steady-state checkpoint
  // O(delta): only the newly folded (delta-sized) segment hits the disk.
  std::set<uint64_t> referenced;
  for (const SegmentChainEntry& entry : *checkpoint.chain) {
    referenced.insert(entry.segment->id);
    if (persisted_segments->count(entry.segment->id) != 0) continue;
    Status written = WriteSegmentFile(data_dir, *entry.segment);
    if (!written.ok()) return written;
  }

  // Phase 2: the manifest — the commit point. It only references files
  // renamed durably above, so a crash on either side of this rename
  // leaves a whole checkpoint (the old one, or the new one).
  std::string buffer(kCheckpointMagic, sizeof(kCheckpointMagic));
  PutFixed32(&buffer, kCheckpointVersion);
  PutVarint64(&buffer, checkpoint.epoch);
  PutVarint64(&buffer, checkpoint.wal_seq);
  PutVarint64(&buffer, checkpoint.predicate.size());
  buffer += checkpoint.predicate;
  PutVarint64(&buffer, checkpoint.num_shards);
  PutIdList(&buffer, checkpoint.shard_bounds);
  PutVarint64(&buffer, checkpoint.next_id);
  PutVarint64(&buffer, checkpoint.next_segment_id);
  PutVarint64(&buffer, checkpoint.chain->size());
  for (const SegmentChainEntry& entry : *checkpoint.chain) {
    PutVarint64(&buffer, entry.segment->id);
    PutVarint64(&buffer, entry.live);
    for (const std::shared_ptr<const std::vector<RecordId>>& dead :
         entry.dead) {
      static const std::vector<RecordId> kEmpty;
      PutIdList(&buffer, dead != nullptr ? *dead : kEmpty);
    }
  }
  // Whole-file trailing checksum: a manifest either verifies end to end
  // or is rejected — there is no partially-trusted checkpoint.
  PutFixed32(&buffer, Crc32(buffer.data(), buffer.size()));
  Status committed = WriteFileAtomic(CheckpointFilePath(data_dir), buffer);
  if (!committed.ok()) return committed;

  // Phase 3: the new manifest is durable; segment files it no longer
  // references (merged-away chains) are garbage. Failures are counted
  // and surfaced (LoadCheckpoint still GCs leftovers on the next Open,
  // but a persistently failing unlink must not stay invisible).
  *persisted_segments = referenced;
  const GcStats gc = CollectSegmentGarbage(data_dir, referenced);
  if (gc_stats != nullptr) *gc_stats = gc;
  return Status::OK();
}

Result<Checkpoint> LoadCheckpoint(const std::string& data_dir,
                                  bool count_frequencies,
                                  GcStats* gc_stats) {
  const std::string path = CheckpointFilePath(data_dir);
  Result<std::string> read = ReadFileToString(path);
  if (!read.ok()) return read.status();
  const std::string data = std::move(read).value();
  if (data.size() < sizeof(kCheckpointMagic) + 2 * sizeof(uint32_t) ||
      std::memcmp(data.data(), kCheckpointMagic, sizeof(kCheckpointMagic)) !=
          0) {
    return Corrupt("bad magic", path);
  }
  const size_t body_size = data.size() - sizeof(uint32_t);
  size_t crc_offset = body_size;
  uint32_t stored_crc = 0;
  GetFixed32(data, &crc_offset, &stored_crc);
  if (Crc32(data.data(), body_size) != stored_crc) {
    return Corrupt("checksum mismatch", path);
  }

  size_t offset = sizeof(kCheckpointMagic);
  uint32_t version = 0;
  GetFixed32(data, &offset, &version);
  if (version != kCheckpointVersion) {
    return Status::IOError("unsupported checkpoint version: " + path);
  }

  // The payload (between header and trailing CRC) decodes as a plain
  // string slice; every Get* below is bounded by body_size via `body`.
  const std::string body = data.substr(0, body_size);
  Checkpoint cp;
  uint64_t pred_size = 0;
  if (!GetVarint64(body, &offset, &cp.epoch) ||
      !GetVarint64(body, &offset, &cp.wal_seq) ||
      !GetVarint64(body, &offset, &pred_size) ||
      pred_size > body.size() - offset) {
    return Corrupt("truncated header", path);
  }
  cp.predicate.assign(body, offset, pred_size);
  offset += pred_size;
  if (!GetVarint64(body, &offset, &cp.num_shards) || cp.num_shards == 0 ||
      cp.num_shards > body.size()) {
    return Corrupt("bad shard count", path);
  }
  const uint64_t num_shards = cp.num_shards;
  // Bounds only steer new inserts (a record's shard is the segment part
  // that holds it), so any non-decreasing bounds are valid; RouteToShard's
  // binary search needs them sorted.
  if (!GetIdList(body, &offset, &cp.shard_bounds) ||
      cp.shard_bounds.size() + 1 != num_shards ||
      !std::is_sorted(cp.shard_bounds.begin(), cp.shard_bounds.end())) {
    return Corrupt("bad shard bounds", path);
  }
  if (!GetVarint64(body, &offset, &cp.next_id) ||
      !GetVarint64(body, &offset, &cp.next_segment_id)) {
    return Corrupt("truncated id counters", path);
  }

  uint64_t num_segments = 0;
  if (!GetVarint64(body, &offset, &num_segments) || num_segments == 0 ||
      num_segments > body.size()) {
    return Corrupt("bad segment count", path);
  }
  auto chain = std::make_shared<SegmentChain>(num_segments);
  std::vector<uint64_t> segment_ids(num_segments, 0);
  for (size_t i = 0; i < num_segments; ++i) {
    SegmentChainEntry& entry = (*chain)[i];
    uint64_t live = 0;
    if (!GetVarint64(body, &offset, &segment_ids[i]) ||
        segment_ids[i] >= cp.next_segment_id ||
        !GetVarint64(body, &offset, &live)) {
      return Corrupt("bad segment reference", path);
    }
    entry.live = live;
    entry.dead.resize(num_shards);
    for (std::shared_ptr<const std::vector<RecordId>>& dead : entry.dead) {
      std::vector<RecordId> mask;
      if (!GetIdList(body, &offset, &mask) || !StrictlyIncreasing(mask)) {
        return Corrupt("bad segment dead mask", path);
      }
      if (!mask.empty()) {
        dead = std::make_shared<const std::vector<RecordId>>(std::move(mask));
      }
    }
  }
  if (offset != body.size()) {
    return Corrupt("trailing bytes", path);
  }

  // The manifest is whole; now open every referenced segment file and
  // cross-validate masks, live counts and the chain's global-id order.
  std::set<uint64_t> referenced;
  RecordId prev_last_gid = 0;
  bool any_gid = false;
  for (size_t i = 0; i < num_segments; ++i) {
    SegmentChainEntry& entry = (*chain)[i];
    const uint64_t segment_id = segment_ids[i];
    referenced.insert(segment_id);
    Result<std::shared_ptr<const CorpusSegment>> loaded = OpenSegmentFile(
        data_dir, segment_id, num_shards, count_frequencies);
    if (!loaded.ok()) return loaded.status();
    entry.segment = std::move(loaded).value();
    const CorpusSegment& segment = *entry.segment;
    if (!segment.global_ids.empty()) {
      if (segment.global_ids.back() >= cp.next_id ||
          (any_gid && segment.global_ids.front() <= prev_last_gid)) {
        return Corrupt("segment chain global ids out of order", path);
      }
      prev_last_gid = segment.global_ids.back();
      any_gid = true;
    }
    size_t dead_total = 0;
    for (size_t s = 0; s < num_shards; ++s) {
      if (entry.dead[s] == nullptr) continue;
      const std::vector<RecordId>& dead = *entry.dead[s];
      if (dead.back() >= segment.shards[s].member_ids.size()) {
        return Corrupt("segment dead mask out of range", path);
      }
      dead_total += dead.size();
    }
    // Each mask is strictly increasing and in range, so dead_total is at
    // most the record count; bounding live first keeps the sum exact.
    if (entry.live > segment.records->size() ||
        entry.live + dead_total != segment.records->size()) {
      return Corrupt("segment live count disagrees with dead masks", path);
    }
  }
  cp.chain = std::move(chain);

  // GC: a crash between segment write and manifest rename, or a merge
  // followed by a crash before Phase-3 cleanup, leaves segment files no
  // manifest references. They are dead weight — delete them so the data
  // directory never accretes garbage across restarts.
  const GcStats gc = CollectSegmentGarbage(data_dir, referenced);
  if (gc_stats != nullptr) *gc_stats = gc;
  return cp;
}

}  // namespace ssjoin
