#include "util/string_util.h"

#include <charconv>

namespace ssjoin {

std::vector<std::string_view> SplitAndTrim(std::string_view text,
                                           std::string_view delims) {
  std::vector<std::string_view> pieces;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find_first_of(delims, start);
    if (end == std::string_view::npos) end = text.size();
    if (end > start) pieces.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return pieces;
}

std::string FormatDoubleExact(double value) {
  char buf[32];  // the longest shortest form of a double is 24 chars
  const std::to_chars_result result =
      std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

}  // namespace ssjoin
