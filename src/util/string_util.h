#ifndef SSJOIN_UTIL_STRING_UTIL_H_
#define SSJOIN_UTIL_STRING_UTIL_H_

#include <string>

namespace ssjoin {

/// The shortest decimal form of `value` that parses back to exactly
/// `value` ("0.7", not "0.69999999999999996").
std::string FormatDoubleExact(double value);

}  // namespace ssjoin

#endif  // SSJOIN_UTIL_STRING_UTIL_H_
