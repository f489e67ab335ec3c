#include "env/gps_sky.h"

#include <gtest/gtest.h>

#include <cmath>

namespace gw::env {
namespace {

TEST(GpsSky, VisibleCountsPlausible) {
  const GpsSky sky{GpsSkyConfig{}, 1};
  constexpr int kHours = 24 * 30;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int hour = 0; hour < kHours; ++hour) {
    const auto t = sim::at_midnight(2009, 6, 1) + sim::hours(hour);
    const int n = sky.visible(t);
    EXPECT_GE(n, 0);
    EXPECT_LE(n, 16);
    sum += n;
    sum_sq += double(n) * n;
  }
  const double mean = sum / kHours;
  EXPECT_NEAR(mean, 9.5, 0.8);
  // Sample standard deviation: the geometry actually varies.
  const double variance = (sum_sq - kHours * mean * mean) / (kHours - 1);
  EXPECT_GT(std::sqrt(variance), 0.8);
}

TEST(GpsSky, GeometryRepeatsHalfSiderealDay) {
  GpsSkyConfig config;
  config.jitter = 0.0;               // isolate the deterministic harmonic
  config.secondary_amplitude = 0.0;  // the beat term is incommensurate
  const GpsSky sky{config, 1};
  const auto t0 = sim::at_midnight(2009, 6, 1);
  // 11.9661 h period: same count one period later.
  const auto period = sim::hours(11.9661);
  for (int k = 0; k < 8; ++k) {
    const auto t = t0 + sim::hours(k);
    EXPECT_EQ(sky.visible(t), sky.visible(t + period)) << "hour " << k;
  }
}

TEST(GpsSky, FixNeedsEnoughSatellites) {
  GpsSkyConfig config;
  config.mean_visible = 3.0;  // terrible sky
  config.orbital_amplitude = 0.0;
  config.secondary_amplitude = 0.0;
  config.jitter = 0.0;
  const GpsSky bad{config, 1};
  EXPECT_FALSE(bad.fix_possible(bad.visible(sim::at_midnight(2009, 6, 1))));

  const GpsSky good{GpsSkyConfig{}, 1};
  int possible = 0;
  for (int hour = 0; hour < 240; ++hour) {
    const auto t = sim::at_midnight(2009, 6, 1) + sim::hours(hour);
    if (good.fix_possible(good.visible(t))) {
      ++possible;
    }
  }
  EXPECT_GT(possible, 230);  // open ice-cap sky: fixes nearly always
}

TEST(GpsSky, MoreSatellitesFasterFix) {
  GpsSkyConfig many_config;
  many_config.mean_visible = 12.0;
  many_config.orbital_amplitude = 0.0;
  many_config.secondary_amplitude = 0.0;
  many_config.jitter = 0.0;
  const GpsSky many{many_config, 1};

  GpsSkyConfig few_config = many_config;
  few_config.mean_visible = 5.0;
  const GpsSky few{few_config, 1};

  const auto t = sim::at_midnight(2009, 6, 1);
  EXPECT_LT(many.fix_time(many.visible(t)), few.fix_time(few.visible(t)));
}

TEST(GpsSky, FileSizeFactorTracksVisibility) {
  const GpsSky sky{GpsSkyConfig{}, 1};
  for (int hour = 0; hour < 100; ++hour) {
    const auto t = sim::at_midnight(2009, 6, 1) + sim::hours(hour);
    const double factor = sky.file_size_factor(t);
    EXPECT_GE(factor, 0.4);
    EXPECT_LE(factor, 1.8);
  }
}

TEST(GpsSky, Deterministic) {
  const GpsSky a{GpsSkyConfig{}, 9};
  const GpsSky b{GpsSkyConfig{}, 9};
  for (int hour = 0; hour < 100; ++hour) {
    const auto t = sim::at_midnight(2009, 6, 1) + sim::hours(hour);
    EXPECT_EQ(a.visible(t), b.visible(t));
  }
}

}  // namespace
}  // namespace gw::env
