// Strict string -> number parsing shared by CLI drivers and the campaign
// spec parser.
//
// std::atoi / std::atof silently accept garbage ("abc" -> 0, "0.9x" -> 0.9),
// which let example drivers run with nonsense configurations. These helpers
// wrap strtoll/strtod with the end-pointer pattern: the whole token must be
// consumed and the value must be finite/in-range, otherwise nullopt.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace dmfb::common {

/// Parses a signed integer. Accepts decimal and (with base 0, the default)
/// 0x-prefixed hex / 0-prefixed octal. Rejects empty tokens, trailing junk,
/// and out-of-range values.
std::optional<std::int64_t> parse_int(std::string_view token, int base = 0);

/// Like parse_int but additionally rejects values outside [lo, hi].
std::optional<std::int64_t> parse_int_in(std::string_view token,
                                         std::int64_t lo, std::int64_t hi);

/// Parses an unsigned 64-bit integer (decimal or 0x-prefixed hex). The
/// token must start with a digit: no sign, no leading whitespace.
std::optional<std::uint64_t> parse_uint64(std::string_view token);

/// Parses a finite double; rejects empty tokens, trailing junk, inf/nan.
std::optional<double> parse_double(std::string_view token);

/// Like parse_double but additionally rejects values outside [lo, hi].
std::optional<double> parse_double_in(std::string_view token, double lo,
                                      double hi);

}  // namespace dmfb::common
