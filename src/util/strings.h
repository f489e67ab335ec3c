// Small string helpers shared across modules (formatting tables for benches,
// fixed-width numbers, strict number parses).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gw::util {

[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);
[[nodiscard]] std::string trim(std::string_view text);
[[nodiscard]] bool starts_with(std::string_view text, std::string_view prefix);

// Fixed-precision double formatting ("12.47"), locale-independent.
[[nodiscard]] std::string format_fixed(double value, int decimals);

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
