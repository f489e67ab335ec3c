#include <gtest/gtest.h>

#include "env/environment.h"

namespace gw::env {
namespace {

TEST(Solar, DarkAtMidnightInSeptember) {
  const Environment world{1};
  const auto midnight = sim::at_midnight(2009, 9, 22);
  EXPECT_DOUBLE_EQ(world.solar().irradiance(midnight).value(), 0.0);
}

TEST(Solar, BrightAtNoonInSeptember) {
  const Environment world{1};
  const auto noon = sim::at_midnight(2009, 9, 22) + sim::hours(12);
  EXPECT_GT(world.solar().irradiance(noon).value(), 50.0);
}

TEST(Solar, NoonIsTheDiurnalMaximum) {
  const Environment world{1};
  const auto day = sim::at_midnight(2009, 6, 21);
  double best = -1.0;
  int best_hour = -1;
  for (int hour = 0; hour < 24; ++hour) {
    const double w = world.solar().irradiance(day + sim::hours(hour)).value();
    if (w > best) {
      best = w;
      best_hour = hour;
    }
  }
  EXPECT_EQ(best_hour, 12);
}

TEST(Solar, PolarNightInDecember) {
  // At 64.3°N, around the winter solstice the sun barely rises; daylight is
  // ~3-4 h and noon irradiance is tiny compared with June.
  const Environment winter{1};
  const Environment summer{1};
  const auto december_noon = sim::at_midnight(2009, 12, 21) + sim::hours(12);
  const auto june_noon = sim::at_midnight(2009, 6, 21) + sim::hours(12);
  const double december = winter.solar().irradiance(december_noon).value();
  const double june = summer.solar().irradiance(june_noon).value();
  EXPECT_LT(december, june * 0.12);
}

TEST(Solar, DaylightHoursSeasonality) {
  const Environment world{1};
  const SolarModel& model = world.solar();
  const double june = model.daylight_hours(sim::at_midnight(2009, 6, 21));
  const double december =
      model.daylight_hours(sim::at_midnight(2009, 12, 21));
  const double equinox = model.daylight_hours(sim::at_midnight(2009, 9, 22));
  EXPECT_GT(june, 20.0);
  EXPECT_LT(december, 5.0);
  EXPECT_NEAR(equinox, 12.0, 0.75);
}

TEST(Solar, CloudFactorBoundsIrradiance) {
  // Across many seeds, noon irradiance never exceeds the clear-sky value
  // and is never negative.
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const Environment world{seed};
    const auto noon = sim::at_midnight(2009, 6, 21) + sim::hours(12);
    const double w = world.solar().irradiance(noon).value();
    EXPECT_GE(w, 0.0);
    EXPECT_LE(w, 990.0);
  }
}

TEST(Solar, CloudPersistsWithinADay) {
  // Two samples in the same day share the cloud draw, so their ratio equals
  // the clear-sky ratio exactly.
  const Environment cloudy{1};
  EnvironmentConfig clear_config;
  clear_config.solar.cloud_stddev = 0.0;
  const Environment clear{clear_config, 99};
  const auto day = sim::at_midnight(2009, 6, 21);
  const double w10 = cloudy.solar().irradiance(day + sim::hours(10)).value();
  const double w14 = cloudy.solar().irradiance(day + sim::hours(14)).value();
  const double c10 = clear.solar().irradiance(day + sim::hours(10)).value();
  const double c14 = clear.solar().irradiance(day + sim::hours(14)).value();
  EXPECT_NEAR(w10 / w14, c10 / c14, 1e-9);
}

TEST(Solar, DeterministicPerSeed) {
  const Environment a{77};
  const Environment b{77};
  for (int day = 0; day < 30; ++day) {
    const auto t = sim::at_midnight(2009, 5, 1) + sim::days(day) + sim::hours(12);
    EXPECT_DOUBLE_EQ(a.solar().irradiance(t).value(),
                     b.solar().irradiance(t).value());
  }
}

}  // namespace
}  // namespace gw::env
