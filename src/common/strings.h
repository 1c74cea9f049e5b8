#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace femu {

namespace detail {

inline void str_cat_into(std::ostringstream&) {}

template <typename T, typename... Rest>
void str_cat_into(std::ostringstream& os, const T& head, const Rest&... rest) {
  os << head;
  str_cat_into(os, rest...);
}

}  // namespace detail

/// Concatenates all arguments using their ostream formatting.
/// gcc 12 has no std::format; this is the library-wide replacement.
template <typename... Args>
[[nodiscard]] std::string str_cat(const Args&... args) {
  std::ostringstream os;
  detail::str_cat_into(os, args...);
  return os.str();
}

/// Splits `text` on `sep`, dropping empty pieces when `keep_empty` is false.
[[nodiscard]] std::vector<std::string> split(std::string_view text, char sep,
                                             bool keep_empty = false);

/// Removes leading and trailing whitespace.
[[nodiscard]] std::string_view trim(std::string_view text);

/// ASCII lower-casing (identifiers in .bench files are case-insensitive).
[[nodiscard]] std::string to_lower(std::string_view text);

/// True when `text` begins with `prefix`.
[[nodiscard]] bool starts_with(std::string_view text, std::string_view prefix);

/// Formats `value` with `digits` digits after the decimal point.
[[nodiscard]] std::string format_fixed(double value, int digits);

/// Formats a ratio as a percentage string, e.g. 0.492 -> "49.2%".
[[nodiscard]] std::string format_percent(double ratio, int digits = 1);

/// Parses a whole string as a non-negative decimal count (a CLI cycle
/// count, sample size or seed). Throws femu::Error naming `what` on an
/// empty string, a sign, any character after the digits, or a value that
/// does not fit in 64 bits — std::stoul would read "-1" as 2^64 - 1 and
/// "160x" as 160.
[[nodiscard]] std::uint64_t parse_count(std::string_view text,
                                        const char* what);

/// Groups thousands for readability, e.g. 34400 -> "34,400".
[[nodiscard]] std::string format_grouped(long long value);

}  // namespace femu
