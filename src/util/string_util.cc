#include "util/string_util.h"

#include <charconv>

namespace ssjoin {

std::string FormatDoubleExact(double value) {
  char buf[32];  // the longest shortest form of a double is 24 chars
  const std::to_chars_result result =
      std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

}  // namespace ssjoin
