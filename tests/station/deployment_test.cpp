#include "station/deployment.h"

#include <gtest/gtest.h>

namespace gw::station {
namespace {

DeploymentConfig quick_config() {
  DeploymentConfig config;
  // Reliable comms for the structural assertions.
  config.base.gprs.registration_success = 1.0;
  config.base.gprs.drop_per_minute = 0.0;
  config.reference.gprs.registration_success = 1.0;
  config.reference.gprs.drop_per_minute = 0.0;
  config.base.power.battery.initial_soc = 1.0;
  config.reference.power.battery.initial_soc = 1.0;
  return config;
}

TEST(DeploymentTest, BothStationsRunDaily) {
  Fleet deployment{quick_config().to_fleet_config()};
  deployment.run_days(7.0);
  EXPECT_GE(deployment.station(0).stats().runs_completed +
                deployment.station(0).stats().runs_aborted, 6);
  EXPECT_GE(deployment.station(1).stats().runs_completed, 6);
}

TEST(DeploymentTest, ServerReceivesBothStations) {
  Fleet deployment{quick_config().to_fleet_config()};
  deployment.run_days(5.0);
  EXPECT_GT(deployment.server().files_from("base"), 0);
  EXPECT_GT(deployment.server().files_from("reference"), 0);
  EXPECT_GT(deployment.server().bytes_from("base").count(), 0);
}

TEST(DeploymentTest, ProbesDeliverReadings) {
  Fleet deployment{quick_config().to_fleet_config()};
  deployment.run_days(7.0);
  EXPECT_GT(deployment.station(0).stats().probe_readings_delivered, 500u);
}

TEST(DeploymentTest, TraceSeriesPresent) {
  Fleet deployment{quick_config().to_fleet_config()};
  deployment.run_days(2.0);
  for (const auto* name :
       {"base.voltage", "base.state", "base.soc", "reference.voltage",
        "reference.state", "probe20.conductivity", "probe26.conductivity"}) {
    EXPECT_TRUE(deployment.trace().has_series(name)) << name;
  }
  // 30-minute sampling: ~96 points over two days.
  EXPECT_NEAR(double(deployment.trace().series("base.voltage").size()), 97.0,
              3.0);
}

TEST(DeploymentTest, VoltagesStayPhysical) {
  Fleet deployment{quick_config().to_fleet_config()};
  deployment.run_days(10.0);
  EXPECT_GT(deployment.trace().min_value("base.voltage"), 9.0);
  EXPECT_LE(deployment.trace().max_value("base.voltage"), 14.5);
}

TEST(DeploymentTest, StatesStayInSyncViaServer) {
  Fleet deployment{quick_config().to_fleet_config()};
  deployment.run_days(10.0);
  // After convergence both stations sit in the same state (min rule).
  EXPECT_EQ(deployment.station(0).current_state(),
            deployment.station(1).current_state());
}

TEST(DeploymentTest, SevenProbesDeployed) {
  Fleet deployment{quick_config().to_fleet_config()};
  EXPECT_EQ(deployment.probes(0).size(), 7u);
  EXPECT_EQ(deployment.probes_alive(), 7);
}

TEST(DeploymentTest, DeterministicFromSeed) {
  auto run_once = [](std::uint64_t seed) {
    DeploymentConfig config = quick_config();
    config.seed = seed;
    Fleet deployment{config.to_fleet_config()};
    deployment.run_days(5.0);
    return std::tuple{
        deployment.station(0).stats().runs_completed,
        deployment.station(0).stats().probe_readings_delivered,
        deployment.server().bytes_from("base").count(),
        deployment.station(0).power().battery().soc()};
  };
  EXPECT_EQ(run_once(42), run_once(42));
  EXPECT_NE(run_once(42), run_once(43));
}

}  // namespace
}  // namespace gw::station
