#ifndef SSJOIN_UTIL_FILE_IO_H_
#define SSJOIN_UTIL_FILE_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace ssjoin {

/// Helpers shared by every durable file the serving tier writes: the
/// write-ahead log, the checkpoint manifest and the segment files
/// (src/serve/wal, src/serve/checkpoint). Fixed-width fields are raw
/// host-endian bytes; variable-width ones use util/varint.

/// Appends the IEEE-754 bits of `v` (8 bytes, host endian).
void PutDouble(std::string* out, double v);
/// Decodes a double at data[*offset]; advances *offset. False if short.
bool GetDouble(const std::string& data, size_t* offset, double* v);

/// Appends `v` as 4 raw bytes (host endian).
void PutFixed32(std::string* out, uint32_t v);
/// Decodes a fixed32 at data[*offset]; advances *offset. False if short.
bool GetFixed32(const std::string& data, size_t* offset, uint32_t* v);

/// Appends `v` as 8 raw bytes (host endian).
void PutFixed64(std::string* out, uint64_t v);

/// CRC-32 (IEEE 802.3 polynomial) of `n` bytes — the frame checksum of
/// the WAL and checkpoint formats. `seed` chains incremental updates
/// (pass a previous return value to continue a running checksum).
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

/// IOError carrying strerror(errno) context, so operators can tell
/// ENOSPC from EACCES: "<what>: <path>: <strerror>". Capture errno
/// immediately after the failing call.
Status ErrnoIOError(const std::string& what, const std::string& path);

/// Writes `bytes` to `path` all-or-nothing: the data goes to
/// `<path>.tmp`, is fsynced, atomically renamed over `path`, and the
/// parent directory is fsynced so the rename itself is durable. On any
/// failure the previous content of `path` is untouched and the tmp file
/// is removed.
Status WriteFileAtomic(const std::string& path, const std::string& bytes);

/// Reads the whole of `path` into a string (errno-context errors).
Result<std::string> ReadFileToString(const std::string& path);

/// fsyncs the directory containing `path` (making a rename/create of
/// `path` durable). No-op-equivalent on filesystems that do not support
/// directory fsync.
Status SyncParentDirectory(const std::string& path);

}  // namespace ssjoin

#endif  // SSJOIN_UTIL_FILE_IO_H_
