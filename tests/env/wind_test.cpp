#include <gtest/gtest.h>

#include "env/environment.h"

namespace gw::env {
namespace {

TEST(Wind, NonNegativeSpeeds) {
  const Environment world{3};
  for (int hour = 0; hour < 24 * 30; ++hour) {
    const auto t = sim::at_midnight(2009, 1, 1) + sim::hours(hour);
    EXPECT_GE(world.wind().speed(t).value(), 0.0);
  }
}

TEST(Wind, DailyMeanPersistsWithinDay) {
  EnvironmentConfig calm;
  calm.wind.gust_stddev = 0.0;
  const Environment world{calm, 3};
  const auto day = sim::at_midnight(2009, 3, 1);
  const double a = world.wind().speed(day + sim::hours(1)).value();
  const double b = world.wind().speed(day + sim::hours(20)).value();
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(Wind, WinterIsStormierOnAverage) {
  const Environment world{31};
  double winter = 0.0;
  double summer = 0.0;
  for (int day = 0; day < 120; ++day) {
    winter += world.wind()
                  .speed(sim::at_midnight(2008, 11, 15) + sim::days(day) +
                         sim::hours(12))
                  .value();
  }
  for (int day = 0; day < 120; ++day) {
    summer += world.wind()
                  .speed(sim::at_midnight(2009, 5, 15) + sim::days(day) +
                         sim::hours(12))
                  .value();
  }
  EXPECT_GT(winter, summer);
}

TEST(Wind, DeterministicPerSeed) {
  const Environment a{5};
  const Environment b{5};
  for (int hour = 0; hour < 100; ++hour) {
    const auto t = sim::at_midnight(2009, 2, 1) + sim::hours(hour);
    EXPECT_DOUBLE_EQ(a.wind().speed(t).value(), b.wind().speed(t).value());
  }
}

TEST(Wind, LongRunMeanReasonable) {
  const Environment world{41};
  double sum = 0.0;
  int n = 0;
  for (int day = 0; day < 365; ++day) {
    sum += world.wind()
               .speed(sim::at_midnight(2009, 1, 1) + sim::days(day) +
                      sim::hours(12))
               .value();
    ++n;
  }
  const double mean = sum / n;
  // Weibull(2, ~6.5) mean ≈ 5.8 m/s; allow generous slack for seasonality.
  EXPECT_GT(mean, 3.5);
  EXPECT_LT(mean, 9.0);
}

}  // namespace
}  // namespace gw::env
