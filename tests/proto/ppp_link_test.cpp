#include "proto/ppp_link.h"

#include <gtest/gtest.h>

#include "env/environment.h"

namespace gw::proto {
namespace {

using namespace util::literals;

struct Fixture {
  sim::Simulation simulation{sim::at_midnight(2009, 9, 22)};
  env::EnvironmentConfig lab_config;
  Fixture() { lab_config.radio_site = env::RadioSite::kLab; }
  env::Environment environment{lab_config, 1};
  power::PowerSystemConfig config;
  power::PowerSystem power{simulation, environment, config};
  hw::RadioModem modem{simulation, power, environment.interference()};
};

TEST(PppLink, RequiresPoweredModem) {
  Fixture f;
  PppLink link{f.modem, util::Rng{1}};
  const auto outcome = link.transfer(f.simulation.now(), 100_KiB);
  EXPECT_FALSE(outcome.connected);
  EXPECT_EQ(outcome.transferred.count(), 0);
}

TEST(PppLink, SmallTransfersUsuallyComplete) {
  Fixture f;
  f.modem.power_on();
  PppLink link{f.modem, util::Rng{2}};
  int completed = 0;
  for (int i = 0; i < 100; ++i) {
    const auto outcome = link.transfer(
        f.simulation.now() + sim::hours(3),  // night: low interference
        10_KiB);
    if (outcome.reason == PppDisconnectReason::kCompleted) ++completed;
  }
  EXPECT_GT(completed, 85);
}

TEST(PppLink, DisconnectReasonsDistinguished) {
  // §II: the reason matters — interference means stay powered and retry,
  // completion means power off now. Both reasons must be observable.
  Fixture f;
  f.modem.power_on();
  PppLink link{f.modem, util::Rng{3}};
  bool saw_completed = false;
  bool saw_interference = false;
  for (int i = 0; i < 300 && !(saw_completed && saw_interference); ++i) {
    // Noon at the lab site: heavy interference on long transfers.
    const auto outcome = link.transfer(
        f.simulation.now() + sim::hours(12), 2_MiB);
    if (outcome.reason == PppDisconnectReason::kCompleted) {
      saw_completed = true;
    }
    if (outcome.reason == PppDisconnectReason::kInterference) {
      saw_interference = true;
    }
  }
  EXPECT_TRUE(saw_completed);
  EXPECT_TRUE(saw_interference);
}

TEST(PppLink, InterferenceLeavesPartialTransfer) {
  Fixture f;
  f.modem.power_on();
  PppLink link{f.modem, util::Rng{4}};
  for (int i = 0; i < 200; ++i) {
    const auto outcome =
        link.transfer(f.simulation.now() + sim::hours(12), 2_MiB);
    if (outcome.reason == PppDisconnectReason::kInterference) {
      EXPECT_GT(outcome.transferred.count(), 0);
      EXPECT_LT(outcome.transferred, 2_MiB);
      return;
    }
  }
  FAIL() << "no interference drop observed in 200 noon transfers";
}

TEST(PppLink, DialFailuresCounted) {
  Fixture f;
  f.modem.power_on();
  PppConfig config;
  config.dial_success = 0.0;
  PppLink link{f.modem, util::Rng{5}, config};
  const auto outcome = link.transfer(f.simulation.now(), 1_KiB);
  EXPECT_FALSE(outcome.connected);
  EXPECT_EQ(outcome.reason, PppDisconnectReason::kDialFailed);
  EXPECT_EQ(link.dial_failures(), 3);  // PppLink::kMaxReconnectAttempts
  // Three dial attempts' worth of time was still burned.
  EXPECT_EQ(outcome.elapsed, sim::seconds(60));
}

TEST(PppLink, ZeroPayloadCompletesAfterDial) {
  Fixture f;
  f.modem.power_on();
  PppConfig config;
  config.dial_success = 1.0;
  PppLink link{f.modem, util::Rng{6}, config};
  const auto outcome = link.transfer(f.simulation.now(), 0_B);
  EXPECT_EQ(outcome.reason, PppDisconnectReason::kCompleted);
  EXPECT_EQ(outcome.elapsed, sim::seconds(20));
}

}  // namespace
}  // namespace gw::proto
