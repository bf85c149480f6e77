// Small string helpers shared across modules (no locale dependence).

#ifndef GMARK_UTIL_STRING_UTIL_H_
#define GMARK_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace gmark {

/// \brief Join the items with `sep` ("a", "b" -> "a,b").
std::string Join(const std::vector<std::string>& items,
                 std::string_view sep);

/// \brief Split on a single character; empty fields are preserved.
std::vector<std::string> Split(std::string_view s, char sep);

/// \brief Strip ASCII whitespace from both ends.
std::string Trim(std::string_view s);

/// \brief True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// \brief Parse a base-10 signed integer; rejects trailing garbage.
Result<int64_t> ParseInt(std::string_view s);

/// \brief Parse a floating-point number; rejects trailing garbage.
Result<double> ParseDouble(std::string_view s);

/// \brief `prefix` followed by the decimal `index`, e.g. "q7". Built
/// with reserve + append: GCC 12 at -O3 rejects the inlined
/// `"q" + std::to_string(i)` with a false-positive -Wrestrict.
std::string IndexedName(std::string_view prefix, int64_t index);

/// \brief Render a double with up to `precision` significant digits,
/// trimming trailing zeros ("1.5", "2", "0.001").
std::string FormatDouble(double v, int precision = 6);

}  // namespace gmark

#endif  // GMARK_UTIL_STRING_UTIL_H_
