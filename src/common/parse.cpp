#include "common/parse.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <string>

namespace dmfb::common {

namespace {

// strtoll/strtod need NUL-terminated input; tokens are short, so a copy is
// fine and keeps the interface string_view based.
bool whole_token_consumed(const std::string& token, const char* end) {
  return !token.empty() && end == token.data() + token.size();
}

}  // namespace

std::optional<std::int64_t> parse_int(std::string_view token, int base) {
  const std::string buffer(token);
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(buffer.c_str(), &end, base);
  if (!whole_token_consumed(buffer, end) || errno == ERANGE) {
    return std::nullopt;
  }
  return static_cast<std::int64_t>(value);
}

std::optional<std::int64_t> parse_int_in(std::string_view token,
                                         std::int64_t lo, std::int64_t hi) {
  const auto value = parse_int(token);
  if (!value || *value < lo || *value > hi) return std::nullopt;
  return value;
}

std::optional<std::uint64_t> parse_uint64(std::string_view token) {
  // strtoull skips leading whitespace and then negates a '-', so " -1"
  // would parse as 2^64 - 1: accept only tokens that start with a digit.
  if (token.empty() || token.front() < '0' || token.front() > '9') {
    return std::nullopt;
  }
  const std::string buffer(token);
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(buffer.c_str(), &end, 0);
  if (!whole_token_consumed(buffer, end) || errno == ERANGE) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(value);
}

std::optional<double> parse_double(std::string_view token) {
  const std::string buffer(token);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(buffer.c_str(), &end);
  if (!whole_token_consumed(buffer, end) || errno == ERANGE ||
      !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

std::optional<double> parse_double_in(std::string_view token, double lo,
                                      double hi) {
  const auto value = parse_double(token);
  if (!value || *value < lo || *value > hi) return std::nullopt;
  return value;
}

}  // namespace dmfb::common
