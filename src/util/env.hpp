#pragma once
/// \file env.hpp
/// \brief Strict environment-knob parsing.
///
/// UPDEC_* knobs used to be read with strtod/strtoull, which silently parse
/// a numeric prefix ("512MB" -> 512, "1e3x" -> 1000) and turn a typo into a
/// live misconfiguration. These helpers apply the same std::from_chars
/// discipline as CliArgs::get_int/get_double: the WHOLE value must parse,
/// anything else warns once (naming the variable and the value) and falls
/// back to the caller's default. A leading '+' is tolerated for symmetry
/// with '-'.

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>

namespace updec::env {

/// Whole-string std::from_chars parse of `value` into `out` (a leading '+'
/// tolerated); false, leaving `out` untouched, on leftovers, no digits or
/// an out-of-range value. Unsigned types reject a '-' sign.
template <typename T>
[[nodiscard]] bool parse_strict(std::string_view value, T& out) {
  const char* first = value.data();
  const char* last = first + value.size();
  if (first != last && *first == '+') ++first;
  T parsed{};
  const auto [ptr, ec] = std::from_chars(first, last, parsed);
  if (ec != std::errc() || ptr != last) return false;
  out = parsed;
  return true;
}

/// Value of `name`, or `fallback` when unset/empty/malformed (malformed
/// values are logged at warn level).
[[nodiscard]] double get_double(const char* name, double fallback);
[[nodiscard]] std::int64_t get_i64(const char* name, std::int64_t fallback);
[[nodiscard]] std::uint64_t get_u64(const char* name, std::uint64_t fallback);

/// Boolean knob with the same strictness: `1`/`on`/`true`/`yes` are true,
/// `0`/`off`/`false`/`no` are false (case-insensitive); anything else warns
/// and falls back. Unset/empty returns `fallback`.
[[nodiscard]] bool get_bool(const char* name, bool fallback);

/// Raw string value of `name`, or `fallback` when unset (empty counts as
/// unset: `UPDEC_CACHE_DIR= updec_serve` disarms the disk tier).
[[nodiscard]] std::string get_string(const char* name,
                                     const std::string& fallback = {});

}  // namespace updec::env
