// The environment's derived caches must be invisible: a model answers the
// same bits whether it is asked once or twice per instant, and across day
// boundaries on either side of the epoch.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "env/environment.h"
#include "env/solar.h"
#include "env/temperature.h"

namespace gw::env {
namespace {

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

// One consumer's queries for one simulated minute, in PowerSystem tick
// order: the battery's air temperature, then the solar panel, then the
// wind turbine.
struct MinuteAnswers {
  std::uint64_t air;
  std::uint64_t irradiance;
  std::uint64_t occlusion;
  std::uint64_t wind;
};

MinuteAnswers ask(const Environment& environment, sim::SimTime t) {
  MinuteAnswers answers{};
  answers.air = bits(environment.temperature().air(t).value());
  answers.irradiance = bits(environment.solar().irradiance(t).value());
  answers.occlusion = bits(environment.snow().panel_occlusion(t));
  answers.wind = bits(environment.wind().speed(t).value());
  return answers;
}

TEST(WeatherCache, TwoConsumersPerMinuteSeeWhatOneSees) {
  const Environment shared{2009};
  const Environment single{2009};
  // Three days from a spring noon: two midnights and a month boundary,
  // with sun, snow and melt all live.
  const sim::SimTime start = sim::at_midnight(2009, 3, 30) + sim::hours(12);
  for (int minute = 0; minute < 3 * 1440; ++minute) {
    const sim::SimTime t = start + sim::minutes(minute);
    const MinuteAnswers once = ask(single, t);
    for (int consumer = 0; consumer < 2; ++consumer) {
      const MinuteAnswers twice = ask(shared, t);
      ASSERT_EQ(twice.air, once.air) << "minute " << minute;
      ASSERT_EQ(twice.irradiance, once.irradiance) << "minute " << minute;
      ASSERT_EQ(twice.occlusion, once.occlusion) << "minute " << minute;
      ASSERT_EQ(twice.wind, once.wind) << "minute " << minute;
    }
  }
}

// Per-day caches key on the floored day: the last millisecond of 1969 and
// the first of 1970 are different days (doy 365 and doy 1), so a model
// asked about both in turn must answer each as a fresh model would.
const sim::SimTime kLastMsOf1969{-1};
const sim::SimTime kFirstMsOf1970{0};

TEST(WeatherCache, TemperatureDayKeyFloorsBeforeTheEpoch) {
  const Environment both{EnvironmentConfig{}, 4, kLastMsOf1969};
  const Environment before{EnvironmentConfig{}, 4, kLastMsOf1969};
  const Environment after{EnvironmentConfig{}, 4, kLastMsOf1969};
  EXPECT_EQ(bits(both.temperature().air(kLastMsOf1969).value()),
            bits(before.temperature().air(kLastMsOf1969).value()));
  EXPECT_EQ(bits(both.temperature().air(kFirstMsOf1970).value()),
            bits(after.temperature().air(kFirstMsOf1970).value()));
}

TEST(WeatherCache, SolarDayKeyFloorsBeforeTheEpoch) {
  const Environment both{EnvironmentConfig{}, 4, kLastMsOf1969};
  const Environment before{EnvironmentConfig{}, 4, kLastMsOf1969};
  const Environment after{EnvironmentConfig{}, 4, kLastMsOf1969};
  EXPECT_EQ(bits(both.solar().sin_elevation(kLastMsOf1969)),
            bits(before.solar().sin_elevation(kLastMsOf1969)));
  EXPECT_EQ(bits(both.solar().sin_elevation(kFirstMsOf1970)),
            bits(after.solar().sin_elevation(kFirstMsOf1970)));
  EXPECT_EQ(bits(both.solar().daylight_hours(kFirstMsOf1970)),
            bits(after.solar().daylight_hours(kFirstMsOf1970)));
}

// The hour-angle and diurnal cosines are read from tables of the day's
// 1440 minutes on the minute. Every entry must carry the bits of the
// formula the models evaluated on every call before the tables, as must
// the off-minute and out-of-range instants that still call it.
TEST(WeatherCache, MinuteTablesMatchTheFormulas) {
  const auto hour_angle_cos = [](sim::Duration time_of_day) {
    const double hour = time_of_day.to_hours();
    return std::cos((hour - 12.0) * 15.0 * (std::numbers::pi / 180.0));
  };
  const auto diurnal_cos = [](sim::Duration time_of_day) {
    const double hour = time_of_day.to_hours();
    return std::cos(2.0 * std::numbers::pi * (hour - 15.0) / 24.0);
  };
  for (std::int64_t minute = 0; minute < 1440; ++minute) {
    for (const std::int64_t offset_ms : {std::int64_t{0}, std::int64_t{1},
                                         std::int64_t{30'000}}) {
      const sim::Duration t = sim::milliseconds(minute * 60'000 + offset_ms);
      ASSERT_EQ(bits(SolarModel::cos_hour_angle(t)), bits(hour_angle_cos(t)))
          << "minute " << minute << " + " << offset_ms << " ms";
      ASSERT_EQ(bits(TemperatureModel::diurnal_cos(t)), bits(diurnal_cos(t)))
          << "minute " << minute << " + " << offset_ms << " ms";
    }
  }
  for (const sim::Duration outside : {sim::hours(24), sim::minutes(-1)}) {
    EXPECT_EQ(bits(SolarModel::cos_hour_angle(outside)),
              bits(hour_angle_cos(outside)));
    EXPECT_EQ(bits(TemperatureModel::diurnal_cos(outside)),
              bits(diurnal_cos(outside)));
  }
  // The temperature model's diurnal term scales the table's cosine.
  const sim::SimTime midnight = sim::at_midnight(2009, 6, 21);
  for (std::int64_t minute = 0; minute < 1440; ++minute) {
    const sim::Duration t = sim::milliseconds(minute * 60'000);
    ASSERT_EQ(bits(TemperatureModel::diurnal_c(midnight + t)),
              bits(TemperatureModel::kDiurnalAmplitudeC * diurnal_cos(t)))
        << "minute " << minute;
  }
}

}  // namespace
}  // namespace gw::env
