#include "baseline/relay_architecture.h"

#include <gtest/gtest.h>

namespace gw::baseline {
namespace {

struct Fixture {
  sim::Simulation simulation{sim::at_midnight(2009, 9, 1)};
  env::Environment environment{3};

  RelayConfig reliable_config() {
    RelayConfig config;
    config.ppp.dial_success = 1.0;
    config.gprs.registration_success = 1.0;
    config.gprs.drop_per_minute = 0.0;
    config.skew_stddev = sim::minutes(0.5);
    return config;
  }
};

TEST(RelayArchitecture, DeliversOnGoodDays) {
  Fixture f;
  RelayDeployment relay{f.simulation, f.environment, util::Rng{1},
                        f.reliable_config()};
  relay.run_days(10);
  EXPECT_EQ(relay.stats().days, 10);
  EXPECT_GE(relay.stats().days_delivered, 7);  // interference still bites
  EXPECT_GT(relay.stats().delivered_total.count(), 0);
}

TEST(RelayArchitecture, ExcessiveSkewMissesWindows) {
  Fixture f;
  RelayConfig config = f.reliable_config();
  config.skew_stddev = sim::hours(4);  // hopeless synchronisation
  RelayDeployment relay{f.simulation, f.environment, util::Rng{1}, config};
  relay.run_days(20);
  EXPECT_GT(relay.stats().days_window_missed, 5);
  EXPECT_LT(relay.stats().days_delivered, 15);
}

TEST(RelayArchitecture, DeadRelaySilencesEverything) {
  // §II: "if the reference station failed in any way then all
  // communication with the base station would also cease."
  Fixture f;
  RelayConfig config = f.reliable_config();
  config.relay_fails_on_day = 5;
  RelayDeployment relay{f.simulation, f.environment, util::Rng{1}, config};
  relay.run_days(15);
  EXPECT_EQ(relay.stats().days_relay_dead, 10);
  EXPECT_LE(relay.stats().days_delivered, 5);
}

TEST(RelayArchitecture, RelayPaysListenEnergyEvenOnMissedDays) {
  Fixture f;
  RelayConfig config = f.reliable_config();
  config.skew_stddev = sim::hours(10);  // essentially never aligned
  RelayDeployment relay{f.simulation, f.environment, util::Rng{1}, config};
  relay.run_days(5);
  // 2 h x 3.96 W x missed days of pure listening.
  EXPECT_GT(relay.relay_power().find_component("radio_modem")->total_uj(),
            4 * 2 * 3600 * 3.96 * 0.9 * 1e6);
}

TEST(RelayArchitecture, CommsEnergyExceedsDualGprsEquivalent) {
  // The §II/§III argument: same payload, direct GPRS from each station
  // costs less than half the relay scheme.
  Fixture f;
  RelayConfig config = f.reliable_config();
  RelayDeployment relay{f.simulation, f.environment, util::Rng{1}, config};
  relay.run_days(10);
  const double relay_joules = relay.comms_energy().value();

  // Dual-GPRS equivalent: each station sends its own payload directly.
  const double seconds_base =
      util::transfer_seconds(config.base_daily_payload,
                             hw::GprsModem::kRate) *
      hw::GprsModem::kProtocolOverhead;
  const double seconds_ref =
      util::transfer_seconds(config.relay_daily_payload,
                             hw::GprsModem::kRate) *
      hw::GprsModem::kProtocolOverhead;
  const double registration = 2 * config.gprs.registration_time.to_seconds();
  const double dual_joules =
      10.0 * (seconds_base + seconds_ref + registration) *
      hw::GprsModem::kPower.value();

  EXPECT_GT(relay_joules, 2.0 * dual_joules);  // "twofold power saving"
}

TEST(RelayArchitecture, Deterministic) {
  auto run_once = [] {
    sim::Simulation simulation{sim::at_midnight(2009, 9, 1)};
    env::Environment environment{3};
    RelayConfig config;
    RelayDeployment relay{simulation, environment, util::Rng{9}, config};
    relay.run_days(12);
    return std::tuple{relay.stats().days_delivered,
                      relay.comms_energy().value()};
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace gw::baseline
