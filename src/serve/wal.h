#ifndef SSJOIN_SERVE_WAL_H_
#define SSJOIN_SERVE_WAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/record_view.h"
#include "util/status.h"

namespace ssjoin {

/// When WAL appends reach stable storage. See DESIGN.md "Durability &
/// recovery".
enum class WalSyncPolicy {
  /// fdatasync after every appended record: an acknowledged Insert/Delete
  /// survives kill -9 AND power loss. The durable default.
  kAlways,
  /// Leave appends in the page cache: an acknowledged op survives process
  /// death (the kernel still owns the bytes) but the tail since the last
  /// checkpoint may be lost on power failure. The throughput option.
  kNever,
};

/// One logical operation recovered from (or destined for) the log. The
/// payload captures the exact INPUT of the service call — replay feeds it
/// back through the normal Insert/Delete/Compact paths, which are
/// deterministic, so recovery reproduces the pre-crash state byte for
/// byte rather than patching structures directly.
struct WalRecord {
  enum Kind : uint8_t {
    kInsert = 1,   // tokens/scores/norm/text_length/text
    kDelete = 2,   // id
    kCompact = 3,  // explicit Compact() with work pending (no payload)
  };

  Kind kind = kInsert;
  /// Strictly increasing per logical op across the service's lifetime;
  /// the checkpoint stores the last seq it covers, so replay skips frames
  /// a crash left behind from before the checkpoint.
  uint64_t seq = 0;

  // kInsert payload: the raw (pre-preparation) record plus its text.
  std::vector<TokenId> tokens;
  std::vector<double> scores;
  double norm = 0;
  uint32_t text_length = 0;
  std::string text;

  // kDelete payload.
  RecordId id = 0;

  /// View over the kInsert payload (valid while this WalRecord lives).
  RecordView record_view() const {
    return RecordView(tokens.data(), scores.data(),
                      static_cast<uint32_t>(tokens.size()), norm, text_length);
  }
};

/// Append-only, CRC-framed operation log for SimilarityService.
///
/// File layout: 4-byte magic "SSWL", fixed32 version, then frames. Each
/// frame is fixed32 payload length + fixed32 CRC32(payload) + payload;
/// the payload is varint64 seq, one kind byte, then the kind-specific
/// fields (util/file_io and util/varint codecs). A crash mid-append
/// leaves a torn final frame whose length or CRC cannot check out; Open
/// detects it, truncates the file back to the last whole frame and
/// reports only the intact prefix — a torn record is dropped, never
/// replayed.
///
/// Not internally synchronized: the service calls Append* under its
/// write mutex.
class WriteAheadLog {
 public:
  /// Opens (creating if absent) the log at `path`, validates every frame,
  /// truncates a torn tail, appends-positions the file, and fills
  /// `replay` (may be null) with the intact records in log order.
  static Result<WriteAheadLog> Open(const std::string& path,
                                    WalSyncPolicy sync,
                                    std::vector<WalRecord>* replay);

  WriteAheadLog(WriteAheadLog&& other) noexcept;
  WriteAheadLog& operator=(WriteAheadLog&& other) noexcept;
  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;
  ~WriteAheadLog();

  Status AppendInsert(uint64_t seq, RecordView record, const std::string& text);
  Status AppendDelete(uint64_t seq, RecordId id);
  Status AppendCompact(uint64_t seq);

  /// Empties the log back to a bare header (atomically: fresh file
  /// renamed over the old one, directory fsynced) and re-opens it for
  /// append. Called after a successful checkpoint — every logged op is
  /// now covered by the checkpoint, so the tail restarts empty.
  Status Reset();

  /// Largest seq ever appended to or recovered from this log (0 if none).
  uint64_t last_seq() const { return last_seq_; }

  const std::string& path() const { return path_; }

 private:
  WriteAheadLog(std::string path, WalSyncPolicy sync, int fd,
                uint64_t last_seq)
      : path_(std::move(path)), sync_(sync), fd_(fd), last_seq_(last_seq) {}

  Status AppendFrame(const std::string& payload, uint64_t seq);

  std::string path_;
  WalSyncPolicy sync_ = WalSyncPolicy::kAlways;
  int fd_ = -1;
  uint64_t last_seq_ = 0;
};

}  // namespace ssjoin

#endif  // SSJOIN_SERVE_WAL_H_
