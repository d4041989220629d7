#include "util/file_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace ssjoin {

void PutDouble(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  out->append(reinterpret_cast<const char*>(&bits), sizeof(bits));
}

bool GetDouble(const std::string& data, size_t* offset, double* v) {
  if (*offset + sizeof(uint64_t) > data.size()) return false;
  uint64_t bits;
  std::memcpy(&bits, data.data() + *offset, sizeof(bits));
  *offset += sizeof(bits);
  std::memcpy(v, &bits, sizeof(*v));
  return true;
}

void PutFixed32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

bool GetFixed32(const std::string& data, size_t* offset, uint32_t* v) {
  if (*offset + sizeof(uint32_t) > data.size()) return false;
  std::memcpy(v, data.data() + *offset, sizeof(*v));
  *offset += sizeof(*v);
  return true;
}

void PutFixed64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  // Slicing-by-8 IEEE 802.3 CRC-32 (reflected polynomial 0xEDB88320):
  // table[0] is the bytewise table, and table[k][i] advances table[k-1][i]
  // by one more zero byte, so eight input bytes fold in with eight
  // independent lookups. No external dependency (zlib may be absent).
  static const auto* table = [] {
    static uint32_t t[8][256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
    return t;
  }();
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (; n >= 8; n -= 8, p += 8) {
    // Assembled byte by byte, so the result does not depend on host
    // endianness; compilers fold it into one load on little-endian hosts.
    const uint32_t low = crc ^ (uint32_t{p[0]} | uint32_t{p[1]} << 8 |
                                uint32_t{p[2]} << 16 | uint32_t{p[3]} << 24);
    crc = table[7][low & 0xFFu] ^ table[6][(low >> 8) & 0xFFu] ^
          table[5][(low >> 16) & 0xFFu] ^ table[4][low >> 24] ^
          table[3][p[4]] ^ table[2][p[5]] ^ table[1][p[6]] ^ table[0][p[7]];
  }
  for (; n > 0; --n, ++p) {
    crc = table[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

Status ErrnoIOError(const std::string& what, const std::string& path) {
  const int err = errno;
  std::string message = what + ": " + path;
  if (err != 0) {
    message += ": ";
    message += std::strerror(err);
  }
  return Status::IOError(std::move(message));
}

Status SyncParentDirectory(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  int fd = ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoIOError("cannot open directory for fsync", dir);
  // Some filesystems reject fsync on a directory fd (EINVAL); the rename
  // is still atomic there, just not guaranteed durable across power loss.
  if (::fsync(fd) != 0 && errno != EINVAL) {
    Status status = ErrnoIOError("cannot fsync directory", dir);
    ::close(fd);
    return status;
  }
  ::close(fd);
  return Status::OK();
}

Status WriteFileAtomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoIOError("cannot open for write", tmp);
  auto fail = [&](const std::string& what) {
    Status status = ErrnoIOError(what, tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return status;
  };
  size_t written = 0;
  while (written < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return fail("short write");
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) return fail("cannot fsync");
  if (::close(fd) != 0) {
    Status status = ErrnoIOError("cannot close", tmp);
    ::unlink(tmp.c_str());
    return status;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    Status status = ErrnoIOError("cannot rename into place", path);
    ::unlink(tmp.c_str());
    return status;
  }
  return SyncParentDirectory(path);
}

Result<std::string> ReadFileToString(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoIOError("cannot open for read", path);
  std::string data;
  char buffer[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      Status status = ErrnoIOError("read failed", path);
      ::close(fd);
      return status;
    }
    if (n == 0) break;
    data.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return data;
}

}  // namespace ssjoin
