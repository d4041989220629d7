#ifndef SSJOIN_UTIL_MMAP_FILE_H_
#define SSJOIN_UTIL_MMAP_FILE_H_

#include <cstddef>
#include <string>

#include "util/status.h"

namespace ssjoin {

/// A whole file mapped read-only into the address space (RAII). A
/// durable service holds one of these per `.sseg` segment: views into
/// the mapping back RecordSet/InvertedIndex arenas directly, so segment
/// bodies are served from the page cache instead of copied onto the
/// heap. The mapping is private and read-only — the
/// kernel reclaims clean pages under memory pressure for free, and
/// Advise() lets the residency-budget policy steer which segments stay
/// warm. Instances are shared by shared_ptr from every snapshot that
/// aliases the segment, so the mapping outlives any probe that reads it.
class MappedFile {
 public:
  enum class Advice {
    kNormal,    // default kernel readahead
    kWillNeed,  // prefetch: the segment is inside the resident budget
    kRandom,    // disable readahead: cold segment, probe access is random
    kDontNeed,  // drop resident pages now (they reload on next fault)
  };

  /// Maps `path` read-only. Fails with an errno-context IOError when the
  /// file cannot be opened, stat'ed or mapped. An empty file maps to a
  /// null view with size 0 (valid, never dereferenced).
  static Result<MappedFile> Open(const std::string& path);

  MappedFile() = default;
  ~MappedFile();
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const char* data() const { return static_cast<const char*>(data_); }
  size_t size() const { return size_; }

  /// Applies an madvise hint over the whole mapping. Advisory only:
  /// failures are ignored (the mapping stays correct either way), so
  /// const — residency policy never changes the bytes.
  void Advise(Advice advice) const;

 private:
  void* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace ssjoin

#endif  // SSJOIN_UTIL_MMAP_FILE_H_
