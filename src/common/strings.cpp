#include "common/strings.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <iomanip>

#include "common/error.h"

namespace femu {

std::vector<std::string> split(std::string_view text, char sep,
                               bool keep_empty) {
  std::vector<std::string> pieces;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find(sep, start);
    const std::size_t stop = (end == std::string_view::npos) ? text.size() : end;
    std::string_view piece = text.substr(start, stop - start);
    if (keep_empty || !piece.empty()) {
      pieces.emplace_back(piece);
    }
    if (end == std::string_view::npos) {
      break;
    }
    start = end + 1;
  }
  return pieces;
}

std::string_view trim(std::string_view text) {
  const auto is_space = [](unsigned char c) { return std::isspace(c) != 0; };
  while (!text.empty() && is_space(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() && is_space(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  return text;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string format_fixed(double value, int digits) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(digits) << value;
  return os.str();
}

std::string format_percent(double ratio, int digits) {
  return format_fixed(ratio * 100.0, digits) + "%";
}

std::string format_grouped(long long value) {
  const bool negative = value < 0;
  unsigned long long magnitude =
      negative ? 0ULL - static_cast<unsigned long long>(value)
               : static_cast<unsigned long long>(value);
  std::string digits = std::to_string(magnitude);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count != 0 && count % 3 == 0) {
      out.push_back(',');
    }
    out.push_back(*it);
    ++count;
  }
  if (negative) {
    out.push_back('-');
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::uint64_t parse_count(std::string_view text, const char* what) {
  std::uint64_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) {
    throw Error(str_cat("invalid ", what, " '", text,
                        "': expected a non-negative integer below 2^64"));
  }
  return value;
}

}  // namespace femu
