#include "util/string_util.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <sstream>

namespace gmark {

std::string Join(const std::vector<std::string>& items,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(items[i]);
  }
  return out;
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Trim(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

Result<int64_t> ParseInt(std::string_view s) {
  std::string t = Trim(s);
  if (t.empty()) return Status::InvalidArgument("empty integer literal");
  errno = 0;
  char* end = nullptr;
  int64_t v = std::strtoll(t.c_str(), &end, 10);
  if (errno == ERANGE) {
    return Status::OutOfRange("integer out of range: " + t);
  }
  if (end == t.c_str() || *end != '\0') {
    return Status::InvalidArgument("not an integer: " + t);
  }
  return v;
}

Result<double> ParseDouble(std::string_view s) {
  std::string t = Trim(s);
  if (t.empty()) return Status::InvalidArgument("empty float literal");
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(t.c_str(), &end);
  if (end == t.c_str() || *end != '\0') {
    return Status::InvalidArgument("not a number: " + t);
  }
  return v;
}

std::string IndexedName(std::string_view prefix, int64_t index) {
  const std::string digits = std::to_string(index);
  std::string name;
  name.reserve(prefix.size() + digits.size());
  name.append(prefix).append(digits);
  return name;
}

std::string FormatDouble(double v, int precision) {
  std::ostringstream os;
  os.precision(precision);
  os << v;
  return os.str();
}

}  // namespace gmark
