#include <gtest/gtest.h>

#include "env/environment.h"

namespace gw::env {
namespace {

TEST(Temperature, SummerWarmerThanWinter) {
  const Environment world{1};
  const TemperatureModel& model = world.temperature();
  double january = 0.0;
  double july = 0.0;
  for (int day = 0; day < 28; ++day) {
    january += model.air(sim::at_midnight(2009, 1, 1) + sim::days(day) +
                         sim::hours(12))
                   .value();
    july += model.air(sim::at_midnight(2009, 7, 1) + sim::days(day) +
                      sim::hours(12))
                .value();
  }
  EXPECT_GT(july / 28, january / 28 + 10.0);
}

TEST(Temperature, WinterBelowFreezing) {
  const Environment world{2};
  double sum = 0.0;
  for (int day = 0; day < 60; ++day) {
    sum += world.temperature()
               .air(sim::at_midnight(2009, 1, 1) + sim::days(day) +
                    sim::hours(12))
               .value();
  }
  EXPECT_LT(sum / 60, 0.0);
}

TEST(Temperature, DiurnalAfternoonPeak) {
  EnvironmentConfig still;
  still.temperature.noise_stddev_c = 0.0;
  const Environment world{still, 3};
  const auto day = sim::at_midnight(2009, 7, 10);
  const TemperatureModel& model = world.temperature();
  const double afternoon = model.air(day + sim::hours(15)).value();
  const double night = model.air(day + sim::hours(3)).value();
  EXPECT_GT(afternoon, night);
}

TEST(Temperature, EnclosureWarmerThanAir) {
  const Environment world{4};
  const auto t = sim::at_midnight(2009, 1, 15) + sim::hours(12);
  EXPECT_GT(world.temperature().enclosure(t).value(),
            world.temperature().air(t).value());
}

TEST(Temperature, Deterministic) {
  const Environment a{5};
  const Environment b{5};
  for (int day = 0; day < 50; ++day) {
    const auto t = sim::at_midnight(2009, 3, 1) + sim::days(day);
    EXPECT_DOUBLE_EQ(a.temperature().air(t).value(),
                     b.temperature().air(t).value());
  }
}

}  // namespace
}  // namespace gw::env
