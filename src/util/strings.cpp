#include "util/strings.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <system_error>

namespace gw::util {

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return std::string(text.substr(begin, end - begin));
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

namespace {

// format_fixed's text is "%.*f" as snprintf writes it into 64 bytes: at
// most 63 characters.
constexpr std::size_t kFixedMaxChars = 63;

}  // namespace

std::string format_fixed(double value, int decimals) {
  char buffer[kFixedMaxChars];
  const auto [end, ec] =
      std::to_chars(buffer, buffer + kFixedMaxChars, value,
                    std::chars_format::fixed, decimals);
  if (ec == std::errc{}) return std::string(buffer, end);
  // Too long to fit: snprintf cuts the text where it always did.
  char cut[kFixedMaxChars + 1];
  std::snprintf(cut, sizeof(cut), "%.*f", decimals, value);
  return cut;
}

std::size_t fixed_chars(double value, int decimals) {
  char buffer[kFixedMaxChars];
  const auto [end, ec] =
      std::to_chars(buffer, buffer + kFixedMaxChars, value,
                    std::chars_format::fixed, decimals);
  return ec == std::errc{} ? std::size_t(end - buffer) : kFixedMaxChars;
}

std::string pad_left(std::string_view text, std::size_t width) {
  if (text.size() >= width) return std::string(text);
  return std::string(width - text.size(), ' ') + std::string(text);
}

std::string pad_right(std::string_view text, std::size_t width) {
  if (text.size() >= width) return std::string(text);
  return std::string(text) + std::string(width - text.size(), ' ');
}

std::optional<std::int64_t> parse_int(std::string_view text) {
  std::int64_t value = 0;
  const char* const last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  return value;
}

std::optional<double> parse_finite(std::string_view text) {
  double value = 0.0;
  const char* const last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc{} || ptr != last || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace gw::util
