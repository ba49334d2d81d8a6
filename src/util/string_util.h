#ifndef MVG_UTIL_STRING_UTIL_H_
#define MVG_UTIL_STRING_UTIL_H_

#include <string>
#include <vector>

namespace mvg {

/// Splits `s` on any character in `delims`, dropping empty tokens.
std::vector<std::string> Split(const std::string& s, const std::string& delims);

/// Strips leading/trailing whitespace.
std::string Trim(const std::string& s);

/// printf-style double formatting with fixed precision.
std::string FormatDouble(double value, int precision = 3);

}  // namespace mvg

#endif  // MVG_UTIL_STRING_UTIL_H_
