// In-memory structured log, modelled on the station logfile.
//
// On the deployed systems "all messages or errors are redirected to a
// standard logfile which is sent back daily with the data" (§VI), and log
// *volume* is an operational cost: a single first-contact with a probe after
// months offline produced >1 MB of log that cost time, power and money to
// transfer. The Logger therefore accounts bytes per severity so
// core::LogManager can budget verbosity, and the daily upload drains the
// buffer exactly like the real logfile.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gw::util {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

[[nodiscard]] const char* to_string(LogLevel level);

// Size of the line Logger::drain renders, "<time> <LEVEL> <component>:
// <message>\n", which is what the GPRS link has to carry. It needs only
// the two text lengths, so a caller can measure a line without building
// one.
[[nodiscard]] std::size_t rendered_line_bytes(std::int64_t time_ms,
                                              LogLevel level,
                                              std::size_t component_chars,
                                              std::size_t message_chars);

struct LogRecord {
  std::int64_t time_ms = 0;
  LogLevel level = LogLevel::kInfo;
  std::string component;
  std::string message;

  template <class Archive>
  void persist(Archive& ar) {
    ar.value(time_ms);
    ar.value(level);
    ar.value(component);
    ar.value(message);
  }
};

class Logger {
 public:
  // Records below `threshold` are discarded at the source (the paper's
  // remedy for excessive binary output: tune verbosity before deployment).
  void set_threshold(LogLevel threshold) { threshold_ = threshold; }
  [[nodiscard]] LogLevel threshold() const { return threshold_; }

  void log(std::int64_t time_ms, LogLevel level, std::string component,
           std::string message);

  void debug(std::int64_t t, std::string c, std::string m) {
    log(t, LogLevel::kDebug, std::move(c), std::move(m));
  }
  void info(std::int64_t t, std::string c, std::string m) {
    log(t, LogLevel::kInfo, std::move(c), std::move(m));
  }
  void warn(std::int64_t t, std::string c, std::string m) {
    log(t, LogLevel::kWarn, std::move(c), std::move(m));
  }
  void error(std::int64_t t, std::string c, std::string m) {
    log(t, LogLevel::kError, std::move(c), std::move(m));
  }

  [[nodiscard]] const std::vector<LogRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::size_t pending_bytes() const { return pending_bytes_; }
  [[nodiscard]] std::size_t total_bytes_ever() const {
    return total_bytes_ever_;
  }
  [[nodiscard]] std::size_t dropped_records() const { return dropped_; }

  // Count of retained records at or above `level`.
  [[nodiscard]] std::size_t count_at_least(LogLevel level) const;

  // Daily upload: renders and removes everything, returning the text that
  // goes over the GPRS link with the data.
  [[nodiscard]] std::string drain();

  template <class Archive>
  void persist(Archive& ar) {
    ar.value(threshold_);
    ar.value(records_);
    ar.value(pending_bytes_);
    ar.value(total_bytes_ever_);
    ar.value(dropped_);
  }

 private:
  LogLevel threshold_ = LogLevel::kDebug;
  std::vector<LogRecord> records_;
  std::size_t pending_bytes_ = 0;
  std::size_t total_bytes_ever_ = 0;
  std::size_t dropped_ = 0;
};

}  // namespace gw::util
