#ifndef SSJOIN_UTIL_VARINT_H_
#define SSJOIN_UTIL_VARINT_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace ssjoin {

/// LEB128-style variable-length integer coding, used to delta-compress
/// posting lists (Section 4 of the paper relies on standard IR index
/// compression; this is the codec behind CompressedPostings).

/// Appends `value` to `out` using 1-5 bytes.
void PutVarint32(std::string* out, uint32_t value);

/// Appends `value` to `out` using 1-10 bytes.
void PutVarint64(std::string* out, uint64_t value);

/// Decodes a varint32 starting at data[*offset]; advances *offset.
/// Returns false on truncated or malformed input.
bool GetVarint32(const std::string& data, size_t* offset, uint32_t* value);

/// Decodes a varint64 starting at data[*offset]; advances *offset.
bool GetVarint64(const std::string& data, size_t* offset, uint64_t* value);

}  // namespace ssjoin

#endif  // SSJOIN_UTIL_VARINT_H_
