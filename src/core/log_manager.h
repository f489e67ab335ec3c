// The station log as a byte meter, with log-volume budgeting (§VI field
// lesson).
//
// On the deployed systems "all messages or errors are redirected to a
// standard logfile which is sent back daily with the data" (§VI), and
// "when a probe is communicated with for the first time in a few months
// then over 1 megabyte of log data can be produced, which then takes
// time/power/money to transfer but is of little use." What the simulator
// models is that cost, not the text: every line is metered at the bytes
// it renders to, and the daily upload takes the pending count as the size
// of its `log_<iso>` file. No line is kept.
//
// Each component has a daily byte budget: once it is spent, the
// component's lines below the protected floor are suppressed at the
// source and replaced, at day rollover, by a single INFO line metered
// under that component, its size in whole KiB ("log budget: suppressed
// 11734 records (539 KiB) yesterday"). Warnings and errors
// always get through, and count toward their component's budget like
// every other admitted line — the field rule is to cut *redundant*
// output, not evidence.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>

#include "util/strings.h"

namespace gw::core {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

[[nodiscard]] inline const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

// Size of the logfile line "<time> <LEVEL> <component>: <message>\n", the
// time in milliseconds zero-padded to at least 13 digits, which is what
// the GPRS link has to carry. It needs only the two text lengths, so a
// line is measured without being rendered.
[[nodiscard]] inline std::size_t rendered_line_bytes(
    std::int64_t time_ms, LogLevel level, std::size_t component_chars,
    std::size_t message_chars) {
  const std::size_t time_digits =
      std::max<std::size_t>(13, util::decimal_chars(time_ms));
  const std::size_t level_chars = std::string_view(to_string(level)).size();
  return time_digits + 1 + level_chars + 1 + component_chars + 2 +
         message_chars + 1;
}

class LogManager {
 public:
  // Bytes a component may log per day before its unprotected lines are
  // suppressed.
  static constexpr std::size_t kComponentDailyBudgetBytes = 16 * 1024;
  // Severities at or above this are never suppressed.
  static constexpr LogLevel kProtectedFloor = LogLevel::kWarn;

  void log(std::int64_t time_ms, LogLevel level, std::string_view component,
           std::string_view message) {
    meter(time_ms, level, component, message.size());
  }

  // log() for a line whose message is `message_chars` long. A caller that
  // only needs the line metered counts its message from the parts and
  // never builds it.
  void meter(std::int64_t time_ms, LogLevel level, std::string_view component,
             std::size_t message_chars) {
    auto it = usage_.lower_bound(component);
    if (it == usage_.end() || it->first != component) {
      it = usage_.emplace_hint(it, component, Usage{});
    }
    Usage& usage = it->second;
    // One size for every line, admitted or suppressed: what it renders to.
    const std::size_t line_bytes = rendered_line_bytes(
        time_ms, level, component.size(), message_chars);
    if (level < kProtectedFloor &&
        usage.bytes_today >= kComponentDailyBudgetBytes) {
      ++usage.suppressed_records;
      usage.suppressed_bytes += line_bytes;
      ++total_suppressed_;
      return;
    }
    usage.bytes_today += line_bytes;
    pending_bytes_ += line_bytes;
  }

  void debug(std::int64_t t, std::string_view c, std::string_view m) {
    log(t, LogLevel::kDebug, c, m);
  }
  void info(std::int64_t t, std::string_view c, std::string_view m) {
    log(t, LogLevel::kInfo, c, m);
  }
  void warn(std::int64_t t, std::string_view c, std::string_view m) {
    log(t, LogLevel::kWarn, c, m);
  }
  void error(std::int64_t t, std::string_view c, std::string_view m) {
    log(t, LogLevel::kError, c, m);
  }

  // Day rollover: meters one summary line per suppressed component, outside
  // any budget, and resets the budgets (called at the top of each daily
  // run).
  void new_day(std::int64_t time_ms) {
    for (auto& [component, usage] : usage_) {
      if (usage.suppressed_records > 0) {
        const std::string summary =
            "log budget: suppressed " +
            std::to_string(usage.suppressed_records) + " records (" +
            std::to_string(usage.suppressed_bytes / 1024) + " KiB) yesterday";
        pending_bytes_ += rendered_line_bytes(
            time_ms, LogLevel::kInfo, component.size(), summary.size());
      }
      usage = Usage{};
    }
  }

  // Bytes logged since the last drain: the size of the logfile the next
  // upload carries.
  [[nodiscard]] std::size_t pending_bytes() const { return pending_bytes_; }

  // Daily upload: returns the pending bytes and starts a new logfile.
  [[nodiscard]] std::size_t drain_bytes() {
    return std::exchange(pending_bytes_, 0);
  }

  [[nodiscard]] std::size_t total_suppressed() const {
    return total_suppressed_;
  }

  // Lines `component` has had suppressed since the last new_day.
  [[nodiscard]] std::size_t suppressed_for(const std::string& component) const {
    const auto it = usage_.find(component);
    return it == usage_.end() ? 0 : it->second.suppressed_records;
  }

  template <class Archive>
  void persist(Archive& ar) {
    ar.value(pending_bytes_);
    ar.value(usage_);
    ar.value(total_suppressed_);
  }

 private:
  struct Usage {
    std::size_t bytes_today = 0;
    std::size_t suppressed_records = 0;
    std::size_t suppressed_bytes = 0;

    template <class Archive>
    void persist(Archive& ar) {
      ar.value(bytes_today);
      ar.value(suppressed_records);
      ar.value(suppressed_bytes);
    }
  };

  std::size_t pending_bytes_ = 0;
  // Transparent, so log() finds a component by its string_view and builds
  // the key only for the component's first line.
  std::map<std::string, Usage, std::less<>> usage_;
  std::size_t total_suppressed_ = 0;
};

}  // namespace gw::core
