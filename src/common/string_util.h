#ifndef LIMA_COMMON_STRING_UTIL_H_
#define LIMA_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace lima {

/// Splits `s` on `delim`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

/// Joins `parts` with `delim` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view delim);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

/// Formats a double the way the DSL's toString/print do: integers without a
/// decimal point, otherwise up to 6 significant fractional digits.
std::string FormatDouble(double v);

/// Strict full-string integer parse for untrusted input (CLI flags, serve
/// protocol fields, config files). Unlike atoi/atoll, this rejects empty
/// strings, leading/trailing junk ("12abc", " 12"), overflow, and values
/// outside [min_value, max_value] — each with a message naming `what`.
Result<int64_t> ParseInt64Strict(std::string_view s, int64_t min_value,
                                 int64_t max_value, std::string_view what);

/// ParseInt64Strict for stored text (lineage logs, lineage literals and
/// item data): the same checks, failing with a ParseError.
Result<int64_t> ParseStoredInt64(std::string_view s, int64_t min_value,
                                 int64_t max_value, std::string_view what);

/// ParseInt64Strict narrowed to int.
Result<int> ParseIntStrict(std::string_view s, int min_value, int max_value,
                           std::string_view what);

}  // namespace lima

#endif  // LIMA_COMMON_STRING_UTIL_H_
