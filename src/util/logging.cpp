#include "util/logging.h"

#include <algorithm>

namespace gw::util {

const char* to_string(LogLevel level) {
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

std::size_t rendered_line_bytes(std::int64_t time_ms, LogLevel level,
                                std::size_t component_chars,
                                std::size_t message_chars) {
  // ms timestamp zero-padded to at least 13 digits, level tag, separators.
  const std::size_t time_digits =
      std::max<std::size_t>(13, std::to_string(time_ms).size());
  const std::size_t level_chars = std::string_view(to_string(level)).size();
  return time_digits + 1 + level_chars + 1 + component_chars + 2 +
         message_chars + 1;
}

void Logger::log(std::int64_t time_ms, LogLevel level, std::string component,
                 std::string message) {
  if (static_cast<int>(level) < static_cast<int>(threshold_)) {
    ++dropped_;
    return;
  }
  const std::size_t bytes =
      rendered_line_bytes(time_ms, level, component.size(), message.size());
  pending_bytes_ += bytes;
  total_bytes_ever_ += bytes;
  records_.push_back(
      LogRecord{time_ms, level, std::move(component), std::move(message)});
}

std::size_t Logger::count_at_least(LogLevel level) const {
  std::size_t n = 0;
  for (const auto& record : records_) {
    if (static_cast<int>(record.level) >= static_cast<int>(level)) ++n;
  }
  return n;
}

std::string Logger::drain() {
  std::string out;
  out.reserve(pending_bytes_);
  for (const auto& record : records_) {
    std::string time = std::to_string(record.time_ms);
    if (time.size() < 13) time.insert(0, 13 - time.size(), '0');
    out += time;
    out += ' ';
    out += to_string(record.level);
    out += ' ';
    out += record.component;
    out += ": ";
    out += record.message;
    out += '\n';
  }
  records_.clear();
  pending_bytes_ = 0;
  return out;
}

}  // namespace gw::util
