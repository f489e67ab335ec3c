// Log-volume budgeting (§VI field lesson).
//
// "the amount of output from the binaries ... is excessive for remote
// debugging ... when a probe is communicated with for the first time in a
// few months then over 1 megabyte of log data can be produced, which then
// takes time/power/money to transfer but is of little use."
//
// The LogManager fronts the station Logger with per-component daily byte
// budgets: once a component exhausts its budget, its records below the
// protected floor are suppressed at the source and replaced, at day
// rollover, by a single summary line ("probes: suppressed 11734 records,
// 1.1 MiB"). Warnings and errors always get through — the field rule is to
// cut *redundant* output, not evidence.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "util/logging.h"
#include "util/units.h"

namespace gw::core {

struct LogBudgetConfig {
  std::size_t component_daily_budget_bytes = 16 * 1024;
  // Severities at or above this are never suppressed.
  util::LogLevel protected_floor = util::LogLevel::kWarn;
};

class LogManager {
 public:
  LogManager(util::Logger& logger, LogBudgetConfig config = {})
      : logger_(logger), config_(config) {}

  void log(std::int64_t time_ms, util::LogLevel level,
           const std::string& component, std::string message) {
    auto& usage = usage_[component];
    const bool is_protected =
        static_cast<int>(level) >= static_cast<int>(config_.protected_floor);
    // One size for every line, admitted or suppressed: what it renders to.
    const std::size_t line_bytes = util::rendered_line_bytes(
        time_ms, level, component.size(), message.size());
    if (!is_protected &&
        usage.bytes_today >= config_.component_daily_budget_bytes) {
      ++usage.suppressed_records;
      usage.suppressed_bytes += line_bytes;
      ++total_suppressed_;
      return;
    }
    usage.bytes_today += line_bytes;
    logger_.log(time_ms, level, component, std::move(message));
  }

  void debug(std::int64_t t, const std::string& c, std::string m) {
    log(t, util::LogLevel::kDebug, c, std::move(m));
  }
  void info(std::int64_t t, const std::string& c, std::string m) {
    log(t, util::LogLevel::kInfo, c, std::move(m));
  }
  void warn(std::int64_t t, const std::string& c, std::string m) {
    log(t, util::LogLevel::kWarn, c, std::move(m));
  }
  void error(std::int64_t t, const std::string& c, std::string m) {
    log(t, util::LogLevel::kError, c, std::move(m));
  }

  // Day rollover: emits one summary line per suppressed component and
  // resets the budgets (called at the top of each daily run).
  void new_day(std::int64_t time_ms) {
    for (auto& [component, usage] : usage_) {
      if (usage.suppressed_records > 0) {
        logger_.info(time_ms, component,
                     "log budget: suppressed " +
                         std::to_string(usage.suppressed_records) +
                         " records (" +
                         std::to_string(usage.suppressed_bytes / 1024) +
                         " KiB) yesterday");
      }
      usage = Usage{};
    }
  }

  [[nodiscard]] std::size_t total_suppressed() const {
    return total_suppressed_;
  }

  [[nodiscard]] std::size_t suppressed_for(const std::string& component) const {
    const auto it = usage_.find(component);
    return it == usage_.end() ? 0 : it->second.suppressed_records;
  }

  // What the suppression saved on the daily GPRS upload, in link-seconds.
  [[nodiscard]] double saved_transfer_seconds(
      util::BitsPerSecond rate) const {
    std::size_t bytes = 0;
    for (const auto& [component, usage] : usage_) {
      bytes += usage.suppressed_bytes;
    }
    return util::transfer_seconds(util::Bytes{std::int64_t(bytes)}, rate);
  }

  template <class Archive>
  void persist(Archive& ar) {
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

  util::Logger& logger_;
  LogBudgetConfig config_;
  std::map<std::string, Usage> usage_;
  std::size_t total_suppressed_ = 0;
};

}  // namespace gw::core
