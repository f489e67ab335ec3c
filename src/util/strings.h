// Small string helpers shared across modules (formatting tables for benches,
// fixed-width numbers, strict number parses).
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace gw::util {

[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);
[[nodiscard]] std::string trim(std::string_view text);
[[nodiscard]] bool starts_with(std::string_view text, std::string_view prefix);

// Fixed-precision double formatting ("12.47"), locale-independent: the
// text of printf's "%.*f", cut at 63 characters.
[[nodiscard]] std::string format_fixed(double value, int decimals);

// Characters format_fixed(value, decimals) returns, counted without
// building the string.
[[nodiscard]] std::size_t fixed_chars(double value, int decimals);

// Characters std::to_string(value) returns, counted without building the
// string.
template <std::integral T>
[[nodiscard]] constexpr std::size_t decimal_chars(T value) {
  auto magnitude = static_cast<std::make_unsigned_t<T>>(value);
  std::size_t chars = 1;
  if constexpr (std::is_signed_v<T>) {
    if (value < 0) {
      magnitude = static_cast<std::make_unsigned_t<T>>(0 - magnitude);
      ++chars;
    }
  }
  for (; magnitude >= 10; magnitude /= 10) ++chars;
  return chars;
}

// Left-pads `text` with spaces to `width` (no-op if already wider).
[[nodiscard]] std::string pad_left(std::string_view text, std::size_t width);
[[nodiscard]] std::string pad_right(std::string_view text, std::size_t width);

// Strict whole-string number parses with std::from_chars: no leading
// whitespace, no '+', no hex prefix, no locale, and nothing after the
// number. nullopt for anything else; parse_finite also refuses "inf" and
// "nan", and a value out of double's range.
[[nodiscard]] std::optional<std::int64_t> parse_int(std::string_view text);
[[nodiscard]] std::optional<double> parse_finite(std::string_view text);

}  // namespace gw::util
