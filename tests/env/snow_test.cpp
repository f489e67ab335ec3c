#include "env/environment.h"

#include <gtest/gtest.h>

namespace gw::env {
namespace {

struct Models {
  Environment world{200};
  const SnowModel& snow = world.snow();
};

TEST(Snow, AccumulatesThroughWinter) {
  Models m;
  const double october =
      m.snow.depth(sim::at_midnight(2008, 10, 15)).value();
  const double march =
      m.snow.depth(sim::at_midnight(2009, 3, 15)).value();
  EXPECT_GT(march, october);
  EXPECT_GT(march, 0.5);
}

TEST(Snow, MeltsBySummer) {
  Models m;
  (void)m.snow.depth(sim::at_midnight(2009, 3, 15));
  const double august =
      m.snow.depth(sim::at_midnight(2009, 8, 15)).value();
  EXPECT_LT(august, 0.3);
}

TEST(Snow, DepthNeverNegative) {
  Models m;
  for (int day = 0; day < 730; ++day) {
    const double depth =
        m.snow.depth(sim::at_midnight(2008, 7, 1) + sim::days(day))
            .value();
    EXPECT_GE(depth, 0.0);
  }
}

TEST(Snow, PanelOcclusionBoundedAndMonotoneInDepth) {
  Models m;
  double prev_depth = -1.0;
  for (int day = 0; day < 200; ++day) {
    const auto t = sim::at_midnight(2008, 10, 1) + sim::days(day);
    const double depth = m.snow.depth(t).value();
    const double occlusion = m.snow.panel_occlusion(t);
    EXPECT_GE(occlusion, 0.0);
    EXPECT_LE(occlusion, 1.0);
    if (depth >= 1.2) {
      EXPECT_DOUBLE_EQ(occlusion, 1.0);
    }
    if (prev_depth >= 0.0 && depth > prev_depth) {
      // deeper snow never reduces occlusion within the linear region
      EXPECT_GE(occlusion, std::min(1.0, prev_depth / 1.2) - 1e-12);
    }
    prev_depth = depth;
  }
}

TEST(Snow, TurbineBuriedOnlyUnderDeepSnow) {
  Models m;
  bool ever_buried_in_summer = false;
  for (int day = 0; day < 60; ++day) {
    const auto t = sim::at_midnight(2009, 7, 1) + sim::days(day);
    if (m.snow.turbine_buried(t)) ever_buried_in_summer = true;
  }
  EXPECT_FALSE(ever_buried_in_summer);
}

TEST(Snow, StormsHappenInWinter) {
  Models m;
  int storms = 0;
  for (int day = 0; day < 150; ++day) {
    const auto t = sim::at_midnight(2008, 11, 1) + sim::days(day);
    if (m.snow.storm_today(t)) ++storms;
  }
  EXPECT_GT(storms, 3);  // expectation ≈ 0.12/day over cold days
}

TEST(Snow, Deterministic) {
  Models a;
  Models b;
  for (int day = 0; day < 120; ++day) {
    const auto t = sim::at_midnight(2008, 10, 1) + sim::days(day);
    EXPECT_DOUBLE_EQ(a.snow.depth(t).value(),
                     b.snow.depth(t).value());
  }
}

}  // namespace
}  // namespace gw::env
