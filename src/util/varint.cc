#include "util/varint.h"

namespace ssjoin {

void PutVarint32(std::string* out, uint32_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

void PutVarint64(std::string* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

bool GetVarint32(const std::string& data, size_t* offset, uint32_t* value) {
  uint32_t result = 0;
  for (int shift = 0; shift <= 28; shift += 7) {
    if (*offset >= data.size()) return false;
    uint8_t byte = static_cast<uint8_t>(data[*offset]);
    ++*offset;
    uint32_t payload = byte & 0x7F;
    // The 5th byte has 4 value bits left (32 - 28); anything above would
    // shift past the width and silently wrap. Reject instead.
    if (shift == 28 && (payload >> 4) != 0) return false;
    // A zero continuation byte means the value was already complete: an
    // overlong (non-canonical) encoding PutVarint32 never produces.
    if (shift > 0 && byte == 0) return false;
    result |= payload << shift;
    if ((byte & 0x80) == 0) {
      *value = result;
      return true;
    }
  }
  return false;  // more than 5 bytes: malformed
}

bool GetVarint64(const std::string& data, size_t* offset, uint64_t* value) {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63; shift += 7) {
    if (*offset >= data.size()) return false;
    uint8_t byte = static_cast<uint8_t>(data[*offset]);
    ++*offset;
    uint64_t payload = byte & 0x7F;
    // The 10th byte has a single value bit left (64 - 63).
    if (shift == 63 && (payload >> 1) != 0) return false;
    if (shift > 0 && byte == 0) return false;
    result |= payload << shift;
    if ((byte & 0x80) == 0) {
      *value = result;
      return true;
    }
  }
  return false;  // more than 10 bytes: malformed
}

}  // namespace ssjoin
