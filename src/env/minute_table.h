// Minute-of-day tables for pure functions of the time of day.
//
// The weather models evaluate a few cosines of the time of day, and every
// station's tick asks for them on the minute. A table of the day's 1440
// minutes answers those calls; it is built once per process, shared by
// every Environment, and filled by the very function it stands in for, so
// a table entry carries that function's bits.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "sim/time.h"

namespace gw::env {

// `formula(time_of_day)` for a time of day in [0, 24 h): read from the
// table on the minute, evaluated otherwise.
template <double (*formula)(sim::Duration)>
[[nodiscard]] double by_minute_table(sim::Duration time_of_day) {
  constexpr std::int64_t kMsPerMinute = 60'000;
  constexpr std::size_t kMinutesPerDay = 1440;
  static const std::array<double, kMinutesPerDay> kOnTheMinute = [] {
    std::array<double, kMinutesPerDay> table{};
    for (std::size_t m = 0; m < kMinutesPerDay; ++m) {
      table[m] = formula(sim::milliseconds(std::int64_t(m) * kMsPerMinute));
    }
    return table;
  }();
  const std::int64_t ms = time_of_day.millis();
  const auto minute = std::uint64_t(ms / kMsPerMinute);
  if (ms % kMsPerMinute == 0 && minute < kMinutesPerDay) {
    return kOnTheMinute[minute];
  }
  return formula(time_of_day);
}

}  // namespace gw::env
