#include "proto/probe_link.h"

#include <gtest/gtest.h>

#include "env/environment.h"

#include "proto/reading.h"

namespace gw::proto {
namespace {

struct Fixture {
  env::Environment environment{1};
  ProbeLink link{environment.melt(), util::Rng{3}};
};

TEST(ProbeLink, WinterLossNearTwoPercent) {
  Fixture f;
  const double loss = f.link.loss_probability(sim::at_midnight(2009, 2, 1));
  EXPECT_NEAR(loss, 0.02, 0.015);
}

TEST(ProbeLink, SummerLossNearPaperRate) {
  Fixture f;
  // Anchor the weather in winter, then read summer.
  (void)f.link.loss_probability(sim::at_midnight(2009, 2, 1));
  const double loss = f.link.loss_probability(sim::at_midnight(2009, 7, 20));
  // §V: ~400/3000 ≈ 13% on the weakest summer link.
  EXPECT_NEAR(loss, 0.133, 0.03);
}

TEST(ProbeLink, QualityFactorScalesLoss) {
  env::Environment environment{1};
  ProbeLinkConfig weak;
  weak.link_quality_factor = 2.0;
  ProbeLink nominal{environment.melt(), util::Rng{3}};
  ProbeLink degraded{environment.melt(), util::Rng{3}, weak};
  const auto t = sim::at_midnight(2009, 2, 1);
  EXPECT_NEAR(degraded.loss_probability(t),
              2.0 * nominal.loss_probability(t), 1e-12);
}

TEST(ProbeLink, LossCappedBelowOne) {
  env::Environment environment{1};
  ProbeLinkConfig broken;
  broken.link_quality_factor = 1000.0;
  ProbeLink link{environment.melt(), util::Rng{3}, broken};
  EXPECT_LE(link.loss_probability(sim::at_midnight(2009, 7, 1)), 0.95);
}

TEST(ProbeLink, AirtimeMatchesRate) {
  Fixture f;
  // 64-byte frame at 2400 bps = 213 ms + 40 ms turnaround.
  const auto airtime = f.link.airtime(kReadingWireSize);
  EXPECT_NEAR(airtime.to_seconds(), 64.0 * 8.0 / 2400.0 + 0.04, 0.002);
}

TEST(ProbeLink, LossCountersTrack) {
  Fixture f;
  const auto t = sim::at_midnight(2009, 7, 20);
  int survived = 0;
  for (int i = 0; i < 3000; ++i) {
    if (f.link.packet_survives(t)) ++survived;
  }
  EXPECT_EQ(f.link.packets_attempted(), 3000u);
  EXPECT_EQ(f.link.packets_lost(), 3000u - std::uint64_t(survived));
  // Summer: roughly 400 of 3000 lost (§V).
  EXPECT_NEAR(double(f.link.packets_lost()), 400.0, 90.0);
}

}  // namespace
}  // namespace gw::proto
