#include "fault/fault.h"

#include <cctype>
#include <cmath>
#include <cstdint>

#include "util/strings.h"

namespace gw::fault {
namespace {

// Splits `text` on unquoted whitespace; the spec has no quoting.
std::vector<std::string_view> split_tokens(std::string_view text) {
  std::vector<std::string_view> tokens;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    std::size_t start = i;
    while (i < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    if (i > start) tokens.push_back(text.substr(start, i - start));
  }
  return tokens;
}

// The whole token, strictly (util::parse_finite): "0x10", "1e5x", "nan"
// and "inf" are all refused.
util::Result<double> parse_number(std::string_view text) {
  const auto value = util::parse_finite(text);
  if (!value.has_value()) {
    return util::make_error("not a number: '" + std::string(text) + "'");
  }
  return *value;
}

// "7d" / "36h" / "90m" / "30s" / "0.5d" -> Duration. The millisecond
// count must fit sim::Duration's 64 bits before it is converted.
util::Result<sim::Duration> parse_duration(std::string_view text) {
  if (text.empty()) return util::make_error("empty duration");
  const char unit = text.back();
  const auto number = parse_number(text.substr(0, text.size() - 1));
  if (!number.ok()) {
    return util::make_error("bad duration '" + std::string(text) +
                            "' (want <number><d|h|m|s>)");
  }
  double ms_per_unit = 0.0;
  switch (unit) {
    case 'd':
      ms_per_unit = 86.4e6;
      break;
    case 'h':
      ms_per_unit = 3.6e6;
      break;
    case 'm':
      ms_per_unit = 60e3;
      break;
    case 's':
      ms_per_unit = 1e3;
      break;
    default:
      return util::make_error("bad duration unit in '" + std::string(text) +
                              "' (want d, h, m or s)");
  }
  // Same product as sim::days() and friends; 2^63 ms is the first value
  // out of range either way.
  const double ms = number.value() * ms_per_unit;
  if (!(std::abs(ms) < 0x1p63)) {
    return util::make_error("duration out of range: '" + std::string(text) +
                            "'");
  }
  return sim::Duration{std::int64_t(ms)};
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kGprsOutage:
      return "gprs_outage";
    case FaultKind::kServerDown:
      return "server_down";
    case FaultKind::kRtcDrift:
      return "rtc_drift";
    case FaultKind::kCfWriteFail:
      return "cf_write_fail";
    case FaultKind::kDgpsNoFix:
      return "dgps_no_fix";
    case FaultKind::kHarvestBlackout:
      return "harvest_blackout";
  }
  return "unknown";
}

util::Result<FaultKind> parse_fault_kind(std::string_view name) {
  for (int i = 0; i < kFaultKindCount; ++i) {
    const auto kind = FaultKind(i);
    if (name == to_string(kind)) return kind;
  }
  return util::make_error("unknown fault kind '" + std::string(name) + "'");
}

util::Result<FaultPlan> FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  int line_number = 0;
  std::size_t position = 0;
  while (position <= spec.size()) {
    const std::size_t newline = spec.find('\n', position);
    std::string_view line =
        spec.substr(position, newline == std::string_view::npos
                                  ? std::string_view::npos
                                  : newline - position);
    position = newline == std::string_view::npos ? spec.size() + 1
                                                 : newline + 1;
    ++line_number;
    if (const auto hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    const auto tokens = split_tokens(line);
    if (tokens.empty()) continue;

    const std::string where = "fault plan line " + std::to_string(line_number);
    const auto kind = parse_fault_kind(tokens[0]);
    if (!kind.ok()) {
      return util::make_error(where + ": " + kind.error().message);
    }
    FaultWindow window;
    window.kind = kind.value();
    bool have_start = false;
    bool have_duration = false;
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      const std::string_view token = tokens[i];
      const std::size_t eq = token.find('=');
      if (eq == std::string_view::npos) {
        return util::make_error(where + ": expected key=value, got '" +
                                std::string(token) + "'");
      }
      const std::string_view key = token.substr(0, eq);
      const std::string_view value = token.substr(eq + 1);
      if (key == "start" || key == "duration") {
        const auto duration = parse_duration(value);
        if (!duration.ok()) {
          return util::make_error(where + ": " + duration.error().message);
        }
        if (duration.value() < sim::Duration{0}) {
          return util::make_error(where + ": " + std::string(key) +
                                  " must be non-negative");
        }
        (key == "start" ? window.start : window.duration) = duration.value();
        (key == "start" ? have_start : have_duration) = true;
      } else if (key == "severity") {
        const auto severity = parse_number(value);
        if (!severity.ok()) {
          return util::make_error(where + ": " + severity.error().message);
        }
        if (severity.value() < 0.0 || severity.value() > 1.0) {
          return util::make_error(where + ": severity must be in [0, 1]");
        }
        window.severity = severity.value();
      } else {
        return util::make_error(where + ": unknown key '" + std::string(key) +
                                "'");
      }
    }
    if (!have_start || !have_duration) {
      return util::make_error(where + ": start= and duration= are required");
    }
    plan.add(window);
  }
  return plan;
}

}  // namespace gw::fault
