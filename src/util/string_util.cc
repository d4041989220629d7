#include "util/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdio>

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

std::string AsciiToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string JoinStrings(const std::vector<std::string>& pieces,
                        std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

std::string FormatDouble(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string FormatDoubleExact(double value) {
  char buf[32];  // the longest shortest form of a double is 24 chars
  const std::to_chars_result result =
      std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

}  // namespace ssjoin
