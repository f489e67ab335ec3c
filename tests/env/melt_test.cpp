#include "env/environment.h"

#include <gtest/gtest.h>

namespace gw::env {
namespace {

struct Models {
  Environment world{300};
  const MeltModel& melt = world.melt();
};

TEST(Melt, WinterIndexNearFloor) {
  Models m;
  const double w =
      m.melt.water_index(sim::at_midnight(2009, 2, 1));
  EXPECT_LT(w, 0.15);
  EXPECT_GE(w, MeltModel::kWinterFloor);
}

TEST(Melt, SpringOnsetRaisesIndex) {
  Models m;
  const double feb =
      m.melt.water_index(sim::at_midnight(2009, 2, 1));
  const double june =
      m.melt.water_index(sim::at_midnight(2009, 6, 20));
  EXPECT_GT(june, feb + 0.2);
}

TEST(Melt, IndexBounded) {
  Models m;
  for (int day = 0; day < 540; ++day) {
    const double w = m.melt.water_index(
        sim::at_midnight(2009, 1, 1) + sim::days(day));
    EXPECT_GE(w, 0.0);
    EXPECT_LE(w, 1.0);
  }
}

TEST(Melt, ConductivityFollowsFig6Shape) {
  // Fig 6: conductivity ~flat (<3 µS) late January through mid-March, then
  // rising to roughly 8–16 µS by late April as melt reaches the bed.
  Models m;
  util::Rng noise{2};
  double winter_sum = 0.0;
  int winter_n = 0;
  for (int day = 0; day < 40; ++day) {
    winter_sum +=
        m.melt
            .conductivity(sim::at_midnight(2009, 1, 27) + sim::days(day), 0.8,
                          13.0, noise.normal())
            .value();
    ++winter_n;
  }
  const double spring =
      m.melt
          .conductivity(sim::at_midnight(2009, 5, 20), 0.8, 13.0,
                        noise.normal())
          .value();
  EXPECT_LT(winter_sum / winter_n, 3.5);
  EXPECT_GT(spring, winter_sum / winter_n + 3.0);
}

TEST(Melt, ConductivityNeverNegative) {
  Models m;
  util::Rng noise{2};
  for (int day = 0; day < 365; ++day) {
    const double c =
        m.melt
            .conductivity(sim::at_midnight(2009, 1, 1) + sim::days(day), 0.3,
                          10.0, noise.normal())
            .value();
    EXPECT_GE(c, 0.0);
  }
}

TEST(Melt, LinkLossSummerVsWinter) {
  // §III/§V: probe radio is better in winter (drier ice). Winter loss ≈2%,
  // summer ≈13% (≈400 of 3000 packets).
  Models m;
  const double winter = m.melt.probe_link_loss(sim::at_midnight(2009, 2, 1));
  const double summer = m.melt.probe_link_loss(sim::at_midnight(2009, 7, 20));
  EXPECT_LT(winter, 0.05);
  EXPECT_GT(summer, 0.09);
  EXPECT_LE(summer, 0.14);
}

TEST(Melt, LossMonotoneInWaterIndex) {
  Models m;
  const auto t1 = sim::at_midnight(2009, 3, 1);
  const auto t2 = sim::at_midnight(2009, 7, 1);
  const double w1 = m.melt.water_index(t1);
  const double l1 = m.melt.probe_link_loss(t1);
  const double w2 = m.melt.water_index(t2);
  const double l2 = m.melt.probe_link_loss(t2);
  ASSERT_LT(w1, w2);
  EXPECT_LT(l1, l2);
}

TEST(Melt, MidSummerColdStartInitialisesWet) {
  Models m;
  const double w = m.melt.water_index(sim::at_midnight(2009, 7, 15));
  EXPECT_GT(w, 0.4);
}

}  // namespace
}  // namespace gw::env
