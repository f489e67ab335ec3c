// Simulated time: strong types plus a UTC calendar.
//
// SimTime is milliseconds since the Unix epoch, UTC. Millisecond integer
// resolution makes event ordering exact and reproducible (no floating-point
// drift over multi-year runs) while being fine enough for every latency in
// the system (the shortest modelled interval is a packet at 2000 bps).
//
// The epoch anchoring is not incidental: §IV's recovery logic depends on the
// real-time clock resetting to 01/01/1970 00:00 after total battery
// exhaustion, i.e. SimTime{0}.
#pragma once

#include <compare>
#include <cstdint>
#include <string>

namespace gw::sim {

class Duration {
 public:
  constexpr Duration() = default;
  constexpr explicit Duration(std::int64_t milliseconds)
      : ms_(milliseconds) {}

  [[nodiscard]] constexpr std::int64_t millis() const { return ms_; }
  [[nodiscard]] constexpr double to_seconds() const { return double(ms_) / 1e3; }
  [[nodiscard]] constexpr double to_minutes() const {
    return double(ms_) / 60e3;
  }
  [[nodiscard]] constexpr double to_hours() const { return double(ms_) / 3.6e6; }
  [[nodiscard]] constexpr double to_days() const { return double(ms_) / 86.4e6; }

  friend constexpr Duration operator+(Duration a, Duration b) {
    return Duration{a.ms_ + b.ms_};
  }
  friend constexpr Duration operator-(Duration a, Duration b) {
    return Duration{a.ms_ - b.ms_};
  }
  friend constexpr Duration operator*(Duration a, std::int64_t k) {
    return Duration{a.ms_ * k};
  }
  friend constexpr Duration operator*(std::int64_t k, Duration a) {
    return a * k;
  }
  friend constexpr Duration operator/(Duration a, std::int64_t k) {
    return Duration{a.ms_ / k};
  }
  friend constexpr auto operator<=>(Duration, Duration) = default;

  constexpr Duration& operator+=(Duration b) {
    ms_ += b.ms_;
    return *this;
  }

 private:
  std::int64_t ms_ = 0;
};

constexpr Duration milliseconds(std::int64_t n) { return Duration{n}; }
constexpr Duration seconds(double n) {
  return Duration{std::int64_t(n * 1e3)};
}
constexpr Duration minutes(double n) {
  return Duration{std::int64_t(n * 60e3)};
}
constexpr Duration hours(double n) { return Duration{std::int64_t(n * 3.6e6)}; }
constexpr Duration days(double n) { return Duration{std::int64_t(n * 86.4e6)}; }

class SimTime {
 public:
  constexpr SimTime() = default;
  constexpr explicit SimTime(std::int64_t ms_since_epoch)
      : ms_(ms_since_epoch) {}

  [[nodiscard]] constexpr std::int64_t millis_since_epoch() const { return ms_; }

  friend constexpr SimTime operator+(SimTime t, Duration d) {
    return SimTime{t.ms_ + d.millis()};
  }
  friend constexpr SimTime operator+(Duration d, SimTime t) { return t + d; }
  friend constexpr SimTime operator-(SimTime t, Duration d) {
    return SimTime{t.ms_ - d.millis()};
  }
  friend constexpr Duration operator-(SimTime a, SimTime b) {
    return Duration{a.ms_ - b.ms_};
  }
  friend constexpr auto operator<=>(SimTime, SimTime) = default;

  constexpr SimTime& operator+=(Duration d) {
    ms_ += d.millis();
    return *this;
  }

 private:
  std::int64_t ms_ = 0;
};

// The value an exhausted RTC wakes up with (§IV).
inline constexpr SimTime kEpoch{0};

// --- UTC calendar ------------------------------------------------------

struct DateTime {
  int year = 1970;
  int month = 1;  // 1-12
  int day = 1;    // 1-31
  int hour = 0;
  int minute = 0;
  int second = 0;

  friend constexpr auto operator<=>(const DateTime&, const DateTime&) = default;
};

// Days since 1970-01-01 for a civil date (Howard Hinnant's algorithm).
[[nodiscard]] std::int64_t days_from_civil(int year, int month, int day);
[[nodiscard]] DateTime to_datetime(SimTime t);
[[nodiscard]] SimTime to_time(const DateTime& dt);
[[nodiscard]] SimTime at_midnight(int year, int month, int day);

// 1-based day of year (1..366).
[[nodiscard]] int day_of_year(SimTime t);
// Milliseconds past the most recent UTC midnight.
[[nodiscard]] Duration time_of_day(SimTime t);
// Midnight of the day containing t.
[[nodiscard]] SimTime start_of_day(SimTime t);
// Days since 1970-01-01 of the day containing t, floored as start_of_day
// floors: the last millisecond of 1969 is day -1, never day 0. Per-day
// caches key on it.
[[nodiscard]] constexpr std::int64_t day_index(SimTime t) {
  constexpr std::int64_t kMsPerDay = 86'400'000;
  const std::int64_t ms = t.millis_since_epoch();
  return ms / kMsPerDay - (ms % kMsPerDay < 0 ? 1 : 0);
}

// "YYYY-MM-DD HH:MM:SS" (UTC).
[[nodiscard]] std::string format_iso(SimTime t);

}  // namespace gw::sim
