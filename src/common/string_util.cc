#include "common/string_util.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace lima {

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view delim) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(delim);
    out.append(parts[i]);
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string_view StripWhitespace(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string FormatDouble(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

Result<int64_t> ParseInt64Strict(std::string_view s, int64_t min_value,
                                 int64_t max_value, std::string_view what) {
  const std::string name(what);
  if (s.empty()) {
    return Status::Invalid(name + ": empty value (expected an integer)");
  }
  int64_t value = 0;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec == std::errc::result_out_of_range) {
    return Status::Invalid(name + ": integer out of range: '" +
                           std::string(s) + "'");
  }
  if (ec != std::errc() || ptr != end) {
    return Status::Invalid(name + ": not an integer: '" + std::string(s) +
                           "'");
  }
  if (value < min_value || value > max_value) {
    return Status::Invalid(name + ": " + std::to_string(value) +
                           " is outside [" + std::to_string(min_value) + ", " +
                           std::to_string(max_value) + "]");
  }
  return value;
}

Result<int64_t> ParseStoredInt64(std::string_view s, int64_t min_value,
                                 int64_t max_value, std::string_view what) {
  Result<int64_t> value = ParseInt64Strict(s, min_value, max_value, what);
  if (!value.ok()) return Status::ParseError(value.status().message());
  return value;
}

Result<int> ParseIntStrict(std::string_view s, int min_value, int max_value,
                           std::string_view what) {
  LIMA_ASSIGN_OR_RETURN(int64_t value,
                        ParseInt64Strict(s, min_value, max_value, what));
  return static_cast<int>(value);
}

}  // namespace lima
