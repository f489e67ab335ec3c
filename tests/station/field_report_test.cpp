#include "station/field_report.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "station/deployment.h"

namespace gw::station {
namespace {

TEST(FieldReport, RendersAllSections) {
  DeploymentConfig config;
  config.seed = 3;
  config.trace_enabled = false;
  Fleet deployment{config.to_fleet_config()};
  deployment.run_days(10.0);

  const std::string report = FieldReport{deployment}.render();
  for (const auto* needle :
       {"GLACSWEB FIELD REPORT", "[base station]", "[reference station]",
        "[subglacial probes]", "[southampton]", "power state", "dGPS:",
        "GPRS:", "energy:", "probe 20", "probe 26", "/7 alive",
        "received"}) {
    EXPECT_NE(report.find(needle), std::string::npos) << needle;
  }
}

TEST(FieldReport, ShowsBrownOutMarker) {
  DeploymentConfig config;
  config.seed = 3;
  config.trace_enabled = false;
  config.base.power.battery.capacity = util::AmpHours{1.0};
  config.base.power.battery.initial_soc = 0.02;
  config.start = sim::DateTime{2009, 1, 1, 0, 0, 0};  // winter: no recharge
  Fleet deployment{config.to_fleet_config()};
  deployment.run_days(8.0);
  if (deployment.station(0).power().browned_out()) {
    const std::string report = FieldReport{deployment}.render();
    EXPECT_NE(report.find("** BROWNED OUT **"), std::string::npos);
  }
}

TEST(FieldReport, CountsMatchLedgers) {
  DeploymentConfig config;
  config.seed = 4;
  config.trace_enabled = false;
  config.base.gprs.registration_success = 1.0;
  config.base.gprs.drop_per_minute = 0.0;
  Fleet deployment{config.to_fleet_config()};
  deployment.run_days(5.0);
  const std::string report = FieldReport{deployment}.render();
  // The per-probe delivered counts printed must sum to the base station's
  // ledger figure.
  std::size_t delivered_sum = 0;
  for (const auto& probe : deployment.probes(0)) {
    delivered_sum += probe->store().delivered_total();
  }
  EXPECT_EQ(delivered_sum,
            deployment.station(0).stats().probe_readings_delivered);
  EXPECT_NE(report.find(std::to_string(delivered_sum)), std::string::npos);
}

// Any fleet renders, station by station in spec order; station-scoped
// probe ids carry their station's name, since two stations both serve a
// probe 20.
TEST(FieldReport, RendersEveryStationOfAFleet) {
  Fleet fleet{uniform_fleet_config(4, 11)};
  fleet.run_days(3.0);
  const std::string report = FieldReport{fleet}.render();
  std::size_t last = 0;
  for (const auto* name : {"s000", "s001", "s002", "s003"}) {
    const std::size_t at = report.find("[" + std::string(name) + " station]");
    ASSERT_NE(at, std::string::npos) << name;
    EXPECT_GT(at, last) << name << " out of spec order";
    last = at;
  }
  for (const auto* needle :
       {"s000 probe 20", "s000 probe 21", "s002 probe 20", "s002 probe 21",
        "/4 alive", "[southampton]"}) {
    EXPECT_NE(report.find(needle), std::string::npos) << needle;
  }
}

}  // namespace
}  // namespace gw::station
