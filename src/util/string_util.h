#ifndef SSJOIN_UTIL_STRING_UTIL_H_
#define SSJOIN_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace ssjoin {

/// Splits `text` on any character in `delims`, dropping empty pieces.
std::vector<std::string_view> SplitAndTrim(std::string_view text,
                                           std::string_view delims = " \t\n\r");

/// The shortest decimal form of `value` that parses back to exactly
/// `value` ("0.7", not "0.69999999999999996").
std::string FormatDoubleExact(double value);

}  // namespace ssjoin

#endif  // SSJOIN_UTIL_STRING_UTIL_H_
