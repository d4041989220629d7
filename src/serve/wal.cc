#include "serve/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "util/file_io.h"
#include "util/varint.h"

namespace ssjoin {

namespace {

constexpr char kWalMagic[4] = {'S', 'S', 'W', 'L'};
constexpr uint32_t kWalVersion = 1;
constexpr size_t kHeaderSize = sizeof(kWalMagic) + sizeof(uint32_t);
// A frame longer than this cannot have been written by AppendFrame and is
// treated as a torn/corrupt tail rather than an allocation request.
constexpr uint32_t kMaxFrameBytes = 1u << 30;

std::string WalHeader() {
  std::string header(kWalMagic, sizeof(kWalMagic));
  PutFixed32(&header, kWalVersion);
  return header;
}

/// Decodes one frame payload. CRC already verified, so a decode failure
/// here means a writer/reader version mismatch, not a torn write.
bool DecodePayload(const std::string& payload, WalRecord* out) {
  size_t offset = 0;
  if (!GetVarint64(payload, &offset, &out->seq)) return false;
  if (offset >= payload.size()) return false;
  const uint8_t kind = static_cast<uint8_t>(payload[offset++]);
  switch (kind) {
    case WalRecord::kInsert: {
      out->kind = WalRecord::kInsert;
      uint32_t num_tokens = 0;
      if (!GetVarint32(payload, &offset, &num_tokens)) return false;
      // Each token delta takes at least one byte: a count beyond the
      // remaining payload is a format error, not an allocation request.
      if (num_tokens > payload.size() - offset) return false;
      out->tokens.resize(num_tokens);
      out->scores.resize(num_tokens);
      // Tokens are strictly increasing within a record (RecordView
      // invariant), hence delta-coded like every other id list on disk.
      uint32_t prev = 0;
      for (uint32_t i = 0; i < num_tokens; ++i) {
        uint32_t delta = 0;
        if (!GetVarint32(payload, &offset, &delta)) return false;
        if (i > 0 && delta == 0) return false;
        prev = i == 0 ? delta : prev + delta;
        out->tokens[i] = prev;
      }
      for (uint32_t i = 0; i < num_tokens; ++i) {
        if (!GetDouble(payload, &offset, &out->scores[i])) return false;
      }
      if (!GetDouble(payload, &offset, &out->norm)) return false;
      if (!GetVarint32(payload, &offset, &out->text_length)) return false;
      uint64_t text_size = 0;
      if (!GetVarint64(payload, &offset, &text_size)) return false;
      if (offset + text_size != payload.size()) return false;
      out->text.assign(payload, offset, text_size);
      offset += text_size;
      return true;
    }
    case WalRecord::kDelete: {
      out->kind = WalRecord::kDelete;
      uint32_t id = 0;
      if (!GetVarint32(payload, &offset, &id)) return false;
      out->id = id;
      return offset == payload.size();
    }
    case WalRecord::kCompact:
      out->kind = WalRecord::kCompact;
      return offset == payload.size();
    default:
      return false;
  }
}

Status CreateFresh(const std::string& path) {
  SSJOIN_RETURN_IF_ERROR(WriteFileAtomic(path, WalHeader()));
  return Status::OK();
}

}  // namespace

Result<WriteAheadLog> WriteAheadLog::Open(const std::string& path,
                                          WalSyncPolicy sync,
                                          std::vector<WalRecord>* replay) {
  // Missing or zero-length (crash between create and header write) files
  // start fresh; anything else must carry a valid header.
  bool fresh = false;
  {
    int probe = ::open(path.c_str(), O_RDONLY);
    if (probe < 0) {
      if (errno != ENOENT) return ErrnoIOError("cannot open wal", path);
      fresh = true;
    } else {
      ::close(probe);
    }
  }
  if (fresh) SSJOIN_RETURN_IF_ERROR(CreateFresh(path));

  Result<std::string> read = ReadFileToString(path);
  if (!read.ok()) return read.status();
  const std::string data = std::move(read).value();
  if (data.empty()) {
    SSJOIN_RETURN_IF_ERROR(CreateFresh(path));
  } else if (data.size() < kHeaderSize ||
             std::memcmp(data.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::IOError("bad wal header: " + path);
  } else {
    size_t header_offset = sizeof(kWalMagic);
    uint32_t version = 0;
    GetFixed32(data, &header_offset, &version);
    if (version != kWalVersion) {
      return Status::IOError("unsupported wal version: " + path);
    }
  }

  // Walk the frames. The first length/CRC mismatch marks a torn tail:
  // everything before it is intact (each frame is independently
  // checksummed), everything from it on is discarded by truncation so a
  // future append never lands behind garbage.
  uint64_t last_seq = 0;
  size_t good_end = kHeaderSize;
  size_t offset = good_end;
  while (offset < data.size()) {
    uint32_t length = 0;
    uint32_t crc = 0;
    if (!GetFixed32(data, &offset, &length) ||
        !GetFixed32(data, &offset, &crc) || length == 0 ||
        length > kMaxFrameBytes || offset + length > data.size()) {
      break;  // torn tail
    }
    if (Crc32(data.data() + offset, length) != crc) {
      break;  // torn or corrupt tail
    }
    const std::string payload = data.substr(offset, length);
    WalRecord record;
    if (!DecodePayload(payload, &record)) {
      // The checksum passed, so these are exactly the bytes a writer
      // framed — an undecodable payload is a format error, not a crash.
      return Status::IOError("undecodable wal record: " + path);
    }
    offset += length;
    good_end = offset;
    last_seq = std::max(last_seq, record.seq);
    if (replay != nullptr) replay->push_back(std::move(record));
  }

  int fd = ::open(path.c_str(), O_RDWR | O_APPEND);
  if (fd < 0) return ErrnoIOError("cannot open wal for append", path);
  if (good_end < data.size()) {
    if (::ftruncate(fd, static_cast<off_t>(good_end)) != 0) {
      Status status = ErrnoIOError("cannot truncate torn wal tail", path);
      ::close(fd);
      return status;
    }
    if (::fsync(fd) != 0) {
      Status status = ErrnoIOError("cannot fsync wal", path);
      ::close(fd);
      return status;
    }
  }
  return WriteAheadLog(path, sync, fd, last_seq);
}

WriteAheadLog::WriteAheadLog(WriteAheadLog&& other) noexcept
    : path_(std::move(other.path_)),
      sync_(other.sync_),
      fd_(other.fd_),
      last_seq_(other.last_seq_) {
  other.fd_ = -1;
}

WriteAheadLog& WriteAheadLog::operator=(WriteAheadLog&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    path_ = std::move(other.path_);
    sync_ = other.sync_;
    fd_ = other.fd_;
    last_seq_ = other.last_seq_;
    other.fd_ = -1;
  }
  return *this;
}

WriteAheadLog::~WriteAheadLog() {
  if (fd_ >= 0) ::close(fd_);
}

Status WriteAheadLog::AppendFrame(const std::string& payload, uint64_t seq) {
  if (fd_ < 0) return Status::FailedPrecondition("wal is closed");
  std::string frame;
  frame.reserve(payload.size() + 2 * sizeof(uint32_t));
  PutFixed32(&frame, static_cast<uint32_t>(payload.size()));
  PutFixed32(&frame, Crc32(payload.data(), payload.size()));
  frame += payload;
  size_t written = 0;
  while (written < frame.size()) {
    ssize_t n = ::write(fd_, frame.data() + written, frame.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      // A partial frame may now sit at the tail; the next Open truncates
      // it by CRC. The service stops appending after a failure so no
      // later frame lands behind the garbage.
      return ErrnoIOError("wal append failed", path_);
    }
    written += static_cast<size_t>(n);
  }
  if (sync_ == WalSyncPolicy::kAlways && ::fdatasync(fd_) != 0) {
    return ErrnoIOError("wal fdatasync failed", path_);
  }
  last_seq_ = seq;
  return Status::OK();
}

Status WriteAheadLog::AppendInsert(uint64_t seq, RecordView record,
                                   const std::string& text) {
  std::string payload;
  PutVarint64(&payload, seq);
  payload.push_back(static_cast<char>(WalRecord::kInsert));
  PutVarint32(&payload, static_cast<uint32_t>(record.size()));
  TokenId prev = 0;
  for (size_t i = 0; i < record.size(); ++i) {
    PutVarint32(&payload, record.token(i) - prev);
    prev = record.token(i);
  }
  for (size_t i = 0; i < record.size(); ++i) {
    PutDouble(&payload, record.score(i));
  }
  PutDouble(&payload, record.norm());
  PutVarint32(&payload, record.text_length());
  PutVarint64(&payload, text.size());
  payload += text;
  return AppendFrame(payload, seq);
}

Status WriteAheadLog::AppendDelete(uint64_t seq, RecordId id) {
  std::string payload;
  PutVarint64(&payload, seq);
  payload.push_back(static_cast<char>(WalRecord::kDelete));
  PutVarint32(&payload, id);
  return AppendFrame(payload, seq);
}

Status WriteAheadLog::AppendCompact(uint64_t seq) {
  std::string payload;
  PutVarint64(&payload, seq);
  payload.push_back(static_cast<char>(WalRecord::kCompact));
  return AppendFrame(payload, seq);
}

Status WriteAheadLog::Reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  SSJOIN_RETURN_IF_ERROR(WriteFileAtomic(path_, WalHeader()));
  int fd = ::open(path_.c_str(), O_RDWR | O_APPEND);
  if (fd < 0) return ErrnoIOError("cannot reopen wal after reset", path_);
  fd_ = fd;
  return Status::OK();
}

}  // namespace ssjoin
